//! Model test: the streaming [`Detector`], which offers an event only to the runs its
//! label index names, against a reference engine with no index at all — one shared list
//! per kind of in-flight work, and **every** live run advanced by **every** event.
//!
//! The reference ([`Model`]) is written from the public `query::matcher` primitives and
//! nothing else of the engine. The two are compared after *every* event: the detections
//! the event produced (order included), the three occupancy counts and
//! `dropped_branches`. Streams are generated from a seed and cover equal timestamps,
//! window 1 and windows near `u64::MAX`, queries sharing labels and first edges,
//! self-loop pattern edges, edges whose endpoint labels coincide, a label with id
//! `u32::MAX`, registration and deregistration mid-stream with runs in flight, and
//! invalid events — alone and in the middle of a batch.

use behavior_query::query::matcher::{
    complete_static_anchored, label_multiset, seed_matches, static_window_bounds, window_deadline,
    NodeSetRun, RunStep, TemporalRun, TemporalSpawn, MAX_STATES_PER_RUN,
};
use behavior_query::stream::{CompiledQuery, Detection, Detector};
use behavior_query::tgminer::baselines::gspan::StaticPattern;
use behavior_query::tgminer::baselines::nodeset::NodeSetQuery;
use behavior_query::tgraph::pattern::TemporalPattern;
use behavior_query::tgraph::{GraphError, IncrementalGraph, Label, StreamEvent, TemporalEdge};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference engine: no label index, no per-query queues, no deadline order.
struct Model {
    queries: Vec<Option<(CompiledQuery, u64)>>,
    graph: IncrementalGraph,
    temporal: Vec<(usize, TemporalRun)>,
    windows: Vec<(usize, NodeSetRun)>,
    anchors: Vec<(usize, TemporalEdge, u64)>,
    dropped_branches: u64,
}

impl Model {
    fn new() -> Self {
        Self {
            queries: Vec::new(),
            graph: IncrementalGraph::with_retention(0),
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
        let retention = widest.max().unwrap_or(0).saturating_mul(2);
        self.graph.set_retention(Some(retention));
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

    fn resolve(&mut self, due: Vec<(usize, TemporalEdge, u64)>, out: &mut Vec<Detection>) {
        for (id, anchor, _) in due {
            let Some((CompiledQuery::Static(pattern), window)) = &self.queries[id] else {
                unreachable!("anchor of a non-static query");
            };
            let live = self.graph.live_edges();
            let (lo, hi) = static_window_bounds(live, anchor.ts, *window);
            let labels = self.graph.labels();
            let hit = complete_static_anchored(pattern, labels, &live[lo..hi], anchor, *window);
            out.extend(hit.map(|(start_ts, end_ts)| detection(id, start_ts, end_ts)));
        }
    }

    fn on_event(&mut self, event: StreamEvent) -> Result<Vec<Detection>, GraphError> {
        self.graph.validate(&event)?;
        let mut out = Vec::new();
        let (due, keep) = std::mem::take(&mut self.anchors)
            .into_iter()
            .partition(|&(_, _, deadline)| deadline < event.ts);
        self.anchors = keep;
        self.resolve(due, &mut out);
        self.graph.append(event).expect("validated");
        let (edge, labels) = (event.edge(), self.graph.labels());
        let queries = &self.queries;
        let dropped = &mut self.dropped_branches;
        self.temporal.retain_mut(|(id, run)| {
            let Some((CompiledQuery::Temporal(pattern), _)) = &queries[*id] else {
                unreachable!("run of a non-temporal query");
            };
            let step = run.advance(pattern, labels, edge);
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
            if !seed_matches(pattern, labels, edge) {
                continue;
            }
            match TemporalRun::spawn(pattern, edge, *window) {
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
                    .push((id, edge, window_deadline(event.ts, *window)));
            }
        }
        for (id, (query, window)) in (0..queries.len()).filter_map(|id| Some((id, live(id)?))) {
            let CompiledQuery::NodeSet(set) = query else {
                continue;
            };
            if !NodeSetRun::anchors(set, event.src_label, event.dst_label) {
                continue;
            }
            let mut run = NodeSetRun::spawn(&label_multiset(set), event.ts, *window);
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
        let node_labels: Vec<Label> = (0..nodes).map(|_| pick_label(&mut rng)).collect();
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
        let random_event = |rng: &mut StdRng, ts: u64| {
            let src = rng.gen_range(0..nodes);
            let dst = if rng.gen_bool(0.15) { src } else { rng.gen_range(0..nodes) };
            StreamEvent { ts, src, dst, src_label: node_labels[src], dst_label: node_labels[dst] }
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
                        // Relabels a node the prefix has just announced.
                        bad.src = good.src;
                        bad.src_label = Label(good.src_label.0 ^ 1);
                        if bad.dst == bad.src {
                            bad.dst_label = bad.src_label;
                        }
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
