//! Model test: the streaming [`Detector`], which offers an event only to the runs its
//! label index names, against a reference engine with no index at all — one shared list
//! per kind of in-flight work, and **every** live run advanced by **every** event.
//!
//! The reference ([`Model`]) is written from the public `query::matcher` primitives for
//! temporal and static queries and nothing else of the engine — it keeps its own
//! window of labelled events, not an `IncrementalGraph`; for keyword queries it keeps
//! a window of its own per anchor ([`ModelWindow`]), which consumes node appearances
//! until the label multiset is collected — not the engine's one shared recency tracker
//! per query. The two are compared after *every* event: the detections the event
//! produced (order included), the three occupancy counts and `dropped_branches`.
//! Streams are generated from a seed and cover equal timestamps, window 1 and windows
//! near `u64::MAX`, queries sharing labels and first edges, self-loop pattern edges,
//! edges whose endpoint labels coincide, a label with id `u32::MAX`, node ids `1 << 40`
//! and `usize::MAX`, ids reused under new labels inside and across windows,
//! registration and deregistration mid-stream with runs in flight, and invalid events
//! — alone and in the middle of a batch.

use behavior_query::query::matcher::{
    complete_static_anchored, seed_matches, static_window_bounds, window_deadline, RunStep,
    TemporalRun, TemporalSpawn, MAX_STATES_PER_RUN,
};
use behavior_query::stream::{CompiledQuery, Detection, Detector, ShardedDetector, TenantPool};
use behavior_query::tgminer::baselines::gspan::StaticPattern;
use behavior_query::tgminer::baselines::nodeset::NodeSetQuery;
use behavior_query::tgraph::pattern::TemporalPattern;
use behavior_query::tgraph::{GraphError, Label, StreamEvent, TenantId, TenantedEvent};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One keyword window of the reference: opened at an anchor, it consumes node
/// appearances in stream order (source endpoint first) until every label of the
/// multiset has its distinct nodes, or its deadline passes. A label counts the distinct
/// ids that appeared under it, so an id reused under another member label counts once
/// under each.
struct ModelWindow {
    anchor_ts: u64,
    deadline: u64,
    /// Label → how many more distinct nodes must carry it.
    remaining: Vec<(Label, usize)>,
    seen: Vec<(usize, Label)>,
}

impl ModelWindow {
    fn open(set: &NodeSetQuery, anchor_ts: u64, window: u64) -> Self {
        let mut remaining: Vec<(Label, usize)> = Vec::new();
        for &label in &set.labels {
            match remaining.iter_mut().find(|(l, _)| *l == label) {
                Some((_, count)) => *count += 1,
                None => remaining.push((label, 1)),
            }
        }
        Self {
            anchor_ts,
            deadline: window_deadline(anchor_ts, window),
            remaining,
            seen: Vec::new(),
        }
    }

    fn advance(&mut self, ts: u64, endpoints: [(usize, Label); 2]) -> RunStep {
        if ts > self.deadline {
            return RunStep::Expired;
        }
        for appearance @ (_, label) in endpoints {
            if self.seen.contains(&appearance) {
                continue;
            }
            let needed = self
                .remaining
                .iter_mut()
                .find(|(l, n)| *l == label && *n > 0);
            if let Some((_, count)) = needed {
                *count -= 1;
                self.seen.push(appearance);
            }
        }
        if self.remaining.iter().all(|&(_, count)| count == 0) {
            return RunStep::Complete((self.anchor_ts, ts));
        }
        RunStep::Pending
    }
}

/// The reference engine: no label index, no per-query queues, no deadline order.
struct Model {
    queries: Vec<Option<(CompiledQuery, u64)>>,
    /// The labelled events static anchors resolve against, oldest first.
    window: Vec<StreamEvent>,
    retention: u64,
    last_ts: Option<u64>,
    temporal: Vec<(usize, TemporalRun)>,
    windows: Vec<(usize, ModelWindow)>,
    anchors: Vec<(usize, StreamEvent, u64)>,
    dropped_branches: u64,
}

impl Model {
    fn new() -> Self {
        Self {
            queries: Vec::new(),
            window: Vec::new(),
            retention: 0,
            last_ts: None,
            temporal: Vec::new(),
            windows: Vec::new(),
            anchors: Vec::new(),
            dropped_branches: 0,
        }
    }

    /// Retention follows the widest live static window, as the detector documents.
    fn resize_retention(&mut self) {
        let widest = self
            .queries
            .iter()
            .flatten()
            .filter_map(|(q, w)| matches!(q, CompiledQuery::Static(_)).then_some(*w));
        self.retention = widest.max().unwrap_or(0).saturating_mul(2);
    }

    /// The event contract: timestamps never decrease, and a self-loop carries one
    /// label. Nothing is remembered about a node, so nothing else can conflict.
    fn validate(&self, event: &StreamEvent) -> Result<(), GraphError> {
        if let Some(previous) = self.last_ts.filter(|&last| event.ts < last) {
            return Err(GraphError::NonMonotonicTimestamp {
                previous,
                current: event.ts,
            });
        }
        if event.src == event.dst && event.src_label != event.dst_label {
            return Err(GraphError::LabelConflict {
                node: event.src,
                existing: event.src_label.0,
                new: event.dst_label.0,
            });
        }
        Ok(())
    }

    fn register(&mut self, query: CompiledQuery, window: u64) {
        self.queries.push(Some((query, window)));
        self.resize_retention();
    }

    fn deregister(&mut self, id: usize) {
        self.queries[id] = None;
        self.temporal.retain(|(q, _)| *q != id);
        self.windows.retain(|(q, _)| *q != id);
        self.anchors.retain(|(q, ..)| *q != id);
        self.resize_retention();
    }

    fn resolve(&mut self, due: Vec<(usize, StreamEvent, u64)>, out: &mut Vec<Detection>) {
        for (id, anchor, _) in due {
            let Some((CompiledQuery::Static(pattern), window)) = &self.queries[id] else {
                unreachable!("anchor of a non-static query");
            };
            let (lo, hi) = static_window_bounds(&self.window, anchor.ts, *window);
            let hit = complete_static_anchored(pattern, &self.window[lo..hi], anchor, *window);
            out.extend(hit.map(|(start_ts, end_ts)| detection(id, start_ts, end_ts)));
        }
    }

    fn on_event(&mut self, event: StreamEvent) -> Result<Vec<Detection>, GraphError> {
        self.validate(&event)?;
        let mut out = Vec::new();
        let (due, keep) = std::mem::take(&mut self.anchors)
            .into_iter()
            .partition(|&(_, _, deadline)| deadline < event.ts);
        self.anchors = keep;
        self.resolve(due, &mut out);
        self.last_ts = Some(event.ts);
        self.window.push(event);
        let oldest_kept = event.ts.saturating_sub(self.retention);
        self.window.retain(|kept| kept.ts > oldest_kept);
        let queries = &self.queries;
        let dropped = &mut self.dropped_branches;
        self.temporal.retain_mut(|(id, run)| {
            let Some((CompiledQuery::Temporal(pattern), _)) = &queries[*id] else {
                unreachable!("run of a non-temporal query");
            };
            let step = run.advance(pattern, event);
            if let RunStep::Complete((start_ts, end_ts)) = step {
                out.push(detection(*id, start_ts, end_ts));
            }
            if step != RunStep::Pending {
                *dropped += run.dropped_branches();
            }
            step == RunStep::Pending
        });
        let endpoints = [(event.src, event.src_label), (event.dst, event.dst_label)];
        self.windows.retain_mut(|(id, run)| {
            let step = run.advance(event.ts, endpoints);
            if let RunStep::Complete((start_ts, end_ts)) = step {
                out.push(detection(*id, start_ts, end_ts));
            }
            step == RunStep::Pending
        });
        // Spawning scans every query: temporal first, then static, then keyword.
        let live = |id: usize| queries[id].as_ref();
        for (id, (query, window)) in (0..queries.len()).filter_map(|id| Some((id, live(id)?))) {
            let CompiledQuery::Temporal(pattern) = query else {
                continue;
            };
            if !seed_matches(pattern, event) {
                continue;
            }
            match TemporalRun::spawn(pattern, event, *window) {
                TemporalSpawn::Complete((s, e)) => out.push(detection(id, s, e)),
                TemporalSpawn::Active(run) => self.temporal.push((id, run)),
            }
        }
        for (id, (query, window)) in (0..queries.len()).filter_map(|id| Some((id, live(id)?))) {
            let CompiledQuery::Static(pattern) = query else {
                continue;
            };
            let (src, dst) = pattern.edges[0];
            if (pattern.labels[src], pattern.labels[dst]) == (event.src_label, event.dst_label) {
                self.anchors
                    .push((id, event, window_deadline(event.ts, *window)));
            }
        }
        for (id, (query, window)) in (0..queries.len()).filter_map(|id| Some((id, live(id)?))) {
            let CompiledQuery::NodeSet(set) = query else {
                continue;
            };
            if !(set.labels.contains(&event.src_label) || set.labels.contains(&event.dst_label)) {
                continue;
            }
            let mut run = ModelWindow::open(set, event.ts, *window);
            match run.advance(event.ts, endpoints) {
                RunStep::Pending => self.windows.push((id, run)),
                RunStep::Complete((s, e)) => out.push(detection(id, s, e)),
                RunStep::Expired => unreachable!("a window cannot expire on its anchor"),
            }
        }
        Ok(out)
    }

    fn flush(&mut self) -> Vec<Detection> {
        let mut out = Vec::new();
        let due = std::mem::take(&mut self.anchors);
        self.resolve(due, &mut out);
        self.dropped_branches += (self.temporal.drain(..))
            .map(|(_, run)| run.dropped_branches())
            .sum::<u64>();
        self.windows.clear();
        out
    }
}

fn detection(query: usize, start_ts: u64, end_ts: u64) -> Detection {
    Detection {
        query,
        start_ts,
        end_ts,
    }
}

/// The observable state the two engines must agree on after every step.
fn assert_same_state(detector: &Detector, model: &Model, context: &str) {
    let engine = (
        detector.active_temporal_runs(),
        detector.active_nodeset_runs(),
        detector.pending_static_anchors(),
        detector.dropped_branches(),
    );
    let reference = (
        model.temporal.len(),
        model.windows.len(),
        model.anchors.len(),
        model.dropped_branches,
    );
    assert_eq!(
        engine, reference,
        "(temporal, keyword, anchors, dropped) {context}"
    );
}

/// Labels the streams and queries draw from: a small alphabet, so queries share labels
/// and first edges, plus the largest id a label can carry.
const ALPHABET: [Label; 4] = [Label(0), Label(1), Label(2), Label(u32::MAX)];

fn pick_label(rng: &mut StdRng) -> Label {
    ALPHABET[rng.gen_range(0..ALPHABET.len())]
}

/// A random temporal pattern of `edges` edges: forward, backward and inward growth,
/// self-loop edges (first edge included) and repeated labels all occur.
fn random_pattern(rng: &mut StdRng, edges: usize) -> TemporalPattern {
    let mut pattern = if rng.gen_bool(0.2) {
        TemporalPattern::single_self_loop(pick_label(rng))
    } else {
        TemporalPattern::single_edge(pick_label(rng), pick_label(rng))
    };
    for _ in 1..edges {
        let n = pattern.node_count();
        pattern = match rng.gen_range(0..4) {
            0 => pattern.grow_forward(rng.gen_range(0..n), pick_label(rng)),
            1 => pattern.grow_backward(pick_label(rng), rng.gen_range(0..n)),
            _ => pattern.grow_inward(rng.gen_range(0..n), rng.gen_range(0..n)),
        }
        .expect("endpoints are existing nodes");
    }
    pattern
}

/// A random query of any kind over a random pattern, with a window from the edge cases.
fn random_query(rng: &mut StdRng) -> (CompiledQuery, u64) {
    let edges = rng.gen_range(1..5);
    let pattern = random_pattern(rng, edges);
    let query = match rng.gen_range(0..4) {
        0 => CompiledQuery::Static(StaticPattern {
            labels: pattern.labels().to_vec(),
            edges: pattern.edges().iter().map(|e| (e.src, e.dst)).collect(),
        }),
        1 => CompiledQuery::NodeSet(NodeSetQuery {
            labels: pattern.labels().to_vec(),
        }),
        _ => CompiledQuery::Temporal(pattern),
    };
    const WINDOWS: [u64; 7] = [1, 2, 3, 6, 15, u64::MAX - 1, u64::MAX];
    (query, WINDOWS[rng.gen_range(0..WINDOWS.len())])
}

/// Registers on both engines; ids and visibility floors must agree as well.
fn register(detector: &mut Detector, model: &mut Model, query: CompiledQuery, window: u64) {
    let registration = detector.register(query.clone(), window).expect("valid");
    assert_eq!(registration.id, model.queries.len());
    model.register(query, window);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn detector_equals_the_advance_everything_model(
        seed in 0u64..1_000_000,
        nodes in 3usize..9,
        steps in 20usize..160,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // The id pool: small ids and the two largest an id space has. Each id has a
        // current label, and one appearance in ten relabels it — a reused id — whether
        // or not a window it took part in is still open.
        let mut ids: Vec<usize> = (0..nodes - 2).collect();
        ids.extend([1 << 40, usize::MAX]);
        let mut labels: Vec<Label> = ids.iter().map(|_| pick_label(&mut rng)).collect();
        let (mut detector, mut model) = (Detector::new(), Model::new());
        for _ in 0..rng.gen_range(1..7) {
            let (query, window) = random_query(&mut rng);
            // Some queries are registered twice, the twin with another window.
            if rng.gen_bool(0.3) {
                register(&mut detector, &mut model, query.clone(), window / 2 + 1);
            }
            register(&mut detector, &mut model, query, window);
        }
        let mut ts = rng.gen_range(0..3u64);
        let mut random_event = |rng: &mut StdRng, ts: u64| {
            let mut appear = |rng: &mut StdRng| {
                let at = rng.gen_range(0..ids.len());
                if rng.gen_bool(0.1) {
                    labels[at] = pick_label(rng);
                }
                (ids[at], labels[at])
            };
            let (src, src_label) = appear(rng);
            let (dst, dst_label) = match rng.gen_bool(0.15) {
                true => (src, src_label),
                false => appear(rng),
            };
            // A self-loop has one node, hence one label.
            let dst_label = if dst == src { src_label } else { dst_label };
            StreamEvent { ts, src, dst, src_label, dst_label }
        };
        for step in 0..steps {
            let context = format!("at step {step} of seed {seed}");
            match rng.gen_range(0..40) {
                0 => {
                    let (query, window) = random_query(&mut rng);
                    register(&mut detector, &mut model, query, window);
                }
                1 => {
                    let live: Vec<usize> = (0..model.queries.len())
                        .filter(|&id| model.queries[id].is_some())
                        .collect();
                    if let Some(&id) = live.get(rng.gen_range(0..live.len().max(1))) {
                        detector.deregister(id).expect("live id");
                        model.deregister(id);
                    }
                }
                2 => {
                    // A batch with an invalid event in the middle: the prefix's
                    // detections are carried, the state is the prefix's, the rest of
                    // the batch is never looked at.
                    let good = random_event(&mut rng, ts);
                    let mut bad = random_event(&mut rng, ts);
                    if ts > 0 && rng.gen_bool(0.5) {
                        bad.ts = ts - 1;
                    } else {
                        // A self-loop whose one node carries two labels.
                        bad.dst = bad.src;
                        bad.dst_label = Label(bad.src_label.0 ^ 1);
                    }
                    let unreached = random_event(&mut rng, ts + 1);
                    let expected = model.on_event(good).expect("valid event");
                    prop_assert!(model.on_event(bad).is_err(), "{}", context);
                    let error = detector.on_batch(&[good, bad, unreached]).unwrap_err();
                    prop_assert_eq!(error.index, 1, "{}", &context);
                    prop_assert_eq!(error.emitted, expected, "{}", &context);
                    prop_assert!(detector.on_event(bad).is_err(), "{}", context);
                }
                _ => {
                    // Equal timestamps are common; so are gaps that expire short windows.
                    ts += [0u64, 0, 1, 1, 2, 5][rng.gen_range(0..6usize)];
                    let event = random_event(&mut rng, ts);
                    let expected = model.on_event(event).expect("valid event");
                    let got = if rng.gen_bool(0.5) {
                        detector.on_event(event).expect("valid event")
                    } else {
                        detector.on_batch(&[event]).expect("valid event")
                    };
                    prop_assert_eq!(got, expected, "{}", &context);
                }
            }
            assert_same_state(&detector, &model, &context);
        }
        prop_assert_eq!(detector.flush(), model.flush(), "flush of seed {}", seed);
        assert_same_state(&detector, &model, "after flush");
    }
}

/// The state cap is the one place `dropped_branches` moves: a hub fanning out past
/// [`MAX_STATES_PER_RUN`] must be accounted identically, when the run completes and
/// when it expires — with a bystander query whose runs the hub's edges never reach.
#[test]
fn hub_fanout_drops_are_accounted_identically() {
    let chain = TemporalPattern::single_edge(Label(0), Label(1))
        .grow_forward(1, Label(2))
        .and_then(|p| p.grow_forward(2, Label(3)))
        .unwrap();
    let bystander = TemporalPattern::single_edge(Label(0), Label(1))
        .grow_forward(1, Label(7))
        .unwrap();
    let (mut detector, mut model) = (Detector::new(), Model::new());
    let fanout = MAX_STATES_PER_RUN + 25;
    // The second chain run's window closes one event before the completing edge.
    let short = fanout as u64 + 2;
    for (pattern, window) in [(&chain, 2_000), (&bystander, u64::MAX), (&chain, short)] {
        register(
            &mut detector,
            &mut model,
            CompiledQuery::Temporal(pattern.clone()),
            window,
        );
    }
    let mut events = vec![(0, 1, 0, 1)];
    events.extend((0..fanout).map(|i| (1, 10 + i, 1, 2)));
    events.push((10 + fanout - 1, 5, 2, 3)); // reachable only through a dropped branch
    events.push((10, 5, 2, 3)); // completes the wide run, one tick after the short one
    let mut seen = Vec::new();
    for (i, &(src, dst, src_label, dst_label)) in events.iter().enumerate() {
        let event = StreamEvent {
            ts: 1 + i as u64,
            src,
            dst,
            src_label: Label(src_label),
            dst_label: Label(dst_label),
        };
        let expected = model.on_event(event).unwrap();
        assert_eq!(detector.on_event(event).unwrap(), expected, "event {i}");
        assert_same_state(&detector, &model, &format!("after event {i}"));
        seen.extend(expected);
    }
    assert_eq!(seen, [detection(0, 1, events.len() as u64)]);
    assert_eq!(
        detector.dropped_branches(),
        26 + 26,
        "one run completed and one expired, each 26 branches over the cap"
    );
    assert_eq!(detector.active_temporal_runs(), 1, "the bystander's run");
    assert_eq!(detector.flush(), model.flush());
    assert_same_state(&detector, &model, "after flush");
}

/// `(ts, src, dst, src label, dst label)` as an event.
fn event_of(&(ts, src, dst, src_label, dst_label): &(u64, usize, usize, u32, u32)) -> StreamEvent {
    StreamEvent {
        ts,
        src,
        dst,
        src_label: Label(src_label),
        dst_label: Label(dst_label),
    }
}

/// Registers `queries` on both engines, feeds both `events`, checks they agree after
/// each and at the flush, and returns each event's detections, then the flush's.
fn run_both(
    queries: Vec<(CompiledQuery, u64)>,
    events: &[(u64, usize, usize, u32, u32)],
) -> Vec<Vec<Detection>> {
    let (mut detector, mut model) = (Detector::new(), Model::new());
    for (query, window) in queries {
        register(&mut detector, &mut model, query, window);
    }
    let mut seen = Vec::new();
    for (i, event) in events.iter().map(event_of).enumerate() {
        let expected = model.on_event(event).unwrap();
        assert_eq!(detector.on_event(event).unwrap(), expected, "event {i}");
        assert_same_state(&detector, &model, &format!("after event {i}"));
        seen.push(expected);
    }
    let flushed = model.flush();
    assert_eq!(detector.flush(), flushed);
    seen.push(flushed);
    seen
}

fn keywords(labels: &[u32]) -> CompiledQuery {
    CompiledQuery::NodeSet(NodeSetQuery {
        labels: labels.iter().copied().map(Label).collect(),
    })
}

/// A temporal run and keyword windows of two queries complete on one event: the run
/// first (its step comes first), then the windows in spawn order across queries — an
/// older window of query 2 before query 1's, before a newer one of query 2 — then what
/// the event itself completes at spawn.
#[test]
fn one_event_completes_a_run_and_windows_of_two_queries_in_spawn_order() {
    let chain = TemporalPattern::single_edge(Label(0), Label(1))
        .grow_forward(1, Label(2))
        .unwrap();
    let queries = vec![
        (CompiledQuery::Temporal(chain), 10),
        (keywords(&[1, 2]), 10),
        (keywords(&[0, 2]), 10),
    ];
    let per_event = run_both(
        queries,
        &[
            (1, 0, 5, 0, 3), // opens a window of query 2 only
            (2, 0, 1, 0, 1), // seeds the run, opens a window of query 1, then of query 2
            (3, 1, 2, 1, 2), // completes all four, then query 1 at once
        ],
    );
    assert_eq!(per_event[..2], [vec![], vec![]]);
    assert_eq!(
        per_event[2],
        [
            detection(0, 2, 3),
            detection(2, 1, 3),
            detection(1, 2, 3),
            detection(2, 2, 3),
            detection(1, 3, 3),
        ]
    );
}

/// A multiset that needs two distinct nodes of one label: the same node reappearing —
/// in a self-loop, at either end — never counts twice; a second node completes every
/// window open since.
#[test]
fn a_reappearing_node_is_one_of_the_distinct_nodes_a_label_needs() {
    let per_event = run_both(
        vec![(keywords(&[5, 5, 6]), 10)],
        &[
            (1, 0, 1, 5, 6), // node 0 (label 5) and node 1 (label 6)
            (2, 0, 0, 5, 5), // node 0 again, at both ends
            (3, 1, 0, 6, 5), // both again
            (4, 2, 3, 5, 7), // a second label-5 node
        ],
    );
    assert_eq!(per_event[..3], [vec![], vec![], vec![]]);
    assert_eq!(
        per_event[3],
        [detection(0, 1, 4), detection(0, 2, 4), detection(0, 3, 4)],
        "the window the last event opens still lacks a label-6 node after it"
    );
}

/// Ids at the top of the id space are ids like any other: every engine — the bare
/// detector (through the model), one and two query shards and a tenant pool — accepts
/// events between `1 << 40` and `usize::MAX`, in both directions and as self-loops,
/// and detects in them what the model does.
#[test]
fn the_largest_ids_are_accepted_and_matched_by_every_engine() {
    const BIG: usize = 1 << 40;
    let there_and_back = TemporalPattern::single_edge(Label(0), Label(1))
        .grow_inward(1, 0)
        .unwrap();
    let queries = vec![
        (CompiledQuery::Temporal(there_and_back), 10),
        (
            CompiledQuery::Static(StaticPattern {
                labels: vec![Label(1), Label(0)],
                edges: vec![(0, 1)],
            }),
            10,
        ),
        (keywords(&[0, 1]), 10),
    ];
    let events = [
        (1, usize::MAX, BIG, 0, 1),
        (2, BIG, usize::MAX, 1, 0),
        (3, usize::MAX, usize::MAX, 0, 0),
        (4, BIG, BIG, 1, 1),
    ];
    let mut expected: Vec<Detection> = run_both(queries.clone(), &events).concat();
    expected.sort_unstable();
    let fired: Vec<usize> = expected.iter().map(|d| d.query).collect();
    assert!(
        (0..3).all(|q| fired.contains(&q)),
        "every query fires: {expected:?}"
    );

    let stream: Vec<StreamEvent> = events.iter().map(event_of).collect();
    for shards in [1, 2] {
        let mut engine = ShardedDetector::new(shards);
        for (query, window) in &queries {
            engine.register(query.clone(), *window).unwrap();
        }
        let mut found = engine.on_batch(&stream).unwrap();
        found.extend(engine.flush());
        found.sort_unstable();
        assert_eq!(found, expected, "{shards} shards");
    }
    let mut pool = TenantPool::new(1, 2);
    for (query, window) in &queries {
        pool.register(query.clone(), *window).unwrap();
    }
    let tenanted: Vec<TenantedEvent> = stream
        .iter()
        .map(|&event| TenantedEvent {
            tenant: TenantId(u64::MAX),
            event,
        })
        .collect();
    let mut found = pool.on_batch(&tenanted).unwrap();
    found.extend(pool.flush());
    let mut found: Vec<Detection> = found
        .into_iter()
        .map(|d| detection(d.query, d.start_ts, d.end_ts))
        .collect();
    found.sort_unstable();
    assert_eq!(found, expected, "tenant pool");
}
