//! Instrumentation inertness: attaching metrics, a scoped-span profiler, and
//! per-query cost attribution to the streaming engine must not change a single
//! detection.
//!
//! The contract (`stream::instrument` module docs) is that observability is purely
//! observational: an instrumented [`ShardedDetector`] — per-shard metric bundles, a
//! [`Profiler`], AND cost attribution attached — produces a byte-identical detection
//! list to an uninstrumented one, at every shard count.
//! This test proves it over the committed fixture corpus of
//! `tests/e2e_mine_detect.rs`: mine the training corpus, deploy the compiled
//! queries twice (bare and instrumented), replay the held-out stream through both,
//! and compare the formatted detection lines.
//!
//! On the side, it pins the metrics the instrumented run must have recorded (event
//! counts matching the stream, memory/occupancy high-water marks), the placement the
//! pool reports (every deployed query counted on exactly one real shard), the cost
//! attribution (every deployed fixture query
//! reports non-zero measured cost), and the profiler's collapsed-stack export
//! (non-empty, covering the detector spans).

use behavior_query::obs::{MetricsRegistry, ProfileSnapshot, Profiler, QueryCost, QueryCostReport};
use behavior_query::query::QueryOptions;
use behavior_query::stream::{deploy_all, Detection, LabelPairStats, ShardedDetector};
use behavior_query::syscall::{Behavior, LabeledTrace, TraceLabel, TrainingData};
use behavior_query::tgraph::{Label, LabelInterner, StreamEvent};
use std::path::PathBuf;

/// Match window, batch size: the values the golden e2e test deploys with.
const WINDOW: u64 = 12;
const BATCH: usize = 64;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {name} ({e}); run regenerate_fixtures"))
}

fn parse_event(line: &str) -> StreamEvent {
    let fields: Vec<u64> = line
        .split_whitespace()
        .map(|f| f.parse().expect("fixture fields are integers"))
        .collect();
    assert_eq!(fields.len(), 5, "malformed fixture line {line:?}");
    StreamEvent {
        ts: fields[0],
        src: fields[1] as usize,
        dst: fields[2] as usize,
        src_label: Label(fields[3] as u32),
        dst_label: Label(fields[4] as u32),
    }
}

fn training_corpus() -> Vec<LabeledTrace> {
    let mut traces: Vec<LabeledTrace> = Vec::new();
    for line in fixture("training.corpus").lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix("trace ") {
            let label = match name.trim() {
                "class-a" => TraceLabel::Behavior(Behavior::GzipDecompress),
                "class-b" => TraceLabel::Behavior(Behavior::SshdLogin),
                "background" => TraceLabel::Background,
                other => panic!("unknown corpus class {other:?}"),
            };
            traces.push(LabeledTrace {
                label,
                events: Vec::new(),
            });
        } else {
            traces
                .last_mut()
                .expect("corpus events belong to a trace")
                .events
                .push(parse_event(line));
        }
    }
    traces
}

fn held_out_stream() -> Vec<StreamEvent> {
    fixture("stream.events")
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(parse_event)
        .collect()
}

/// The mining options the golden e2e test deploys with.
const OPTIONS: QueryOptions = QueryOptions {
    query_size: 3,
    top_queries: 2,
    miner_top_k: 8,
    cap_per_graph: 32,
};

fn training_set() -> TrainingData {
    TrainingData::from_traces(&training_corpus(), LabelInterner::new())
        .expect("fixture traces are valid")
}

/// Formats detections as stable comparison lines.
fn lines_of(detections: &[Detection]) -> Vec<String> {
    detections
        .iter()
        .map(|d| format!("{} {} {}", d.query, d.start_ts, d.end_ts))
        .collect()
}

/// Everything one replay yields: the detection lines plus the observability state
/// for the side assertions (`profile`/`costs` only on instrumented runs).
struct Replay {
    lines: Vec<String>,
    registry: MetricsRegistry,
    deployed: usize,
    /// The shard each deployed query was placed on, in deployment order.
    placements: Vec<usize>,
    /// Live queries summed over `shard_stats()`.
    shard_queries: usize,
    profile: Option<ProfileSnapshot>,
    costs: Option<QueryCostReport>,
}

/// Runs the full replay; with `instrumented` the detector carries per-shard metric
/// bundles, a scoped-span profiler, and per-query cost attribution (every operation
/// timed: sample interval 1).
fn replay(
    training: &TrainingData,
    stream: &[StreamEvent],
    shards: usize,
    instrumented: bool,
) -> Replay {
    let registry = MetricsRegistry::new();
    let profiler = Profiler::new();
    let stats = LabelPairStats::from_graphs(training.all_graphs());
    let mut detector = ShardedDetector::with_stats(shards, stats);
    if instrumented {
        detector.instrument(&registry);
        detector.set_profiler(Some(profiler.clone()));
        detector.enable_cost_attribution(1);
    }
    let deployed = deploy_all(&mut detector, training, &OPTIONS, WINDOW)
        .expect("mined fixture queries register cleanly");
    let mut lines = Vec::new();
    for batch in stream.chunks(BATCH) {
        lines.extend(lines_of(
            &detector.on_batch(batch).expect("fixture stream is valid"),
        ));
    }
    lines.extend(lines_of(&detector.flush()));
    Replay {
        lines,
        registry,
        deployed: deployed.len(),
        placements: deployed
            .iter()
            .map(|d| detector.shard_of(d.registration.id))
            .collect(),
        shard_queries: detector.shard_stats().iter().map(|s| s.queries).sum(),
        profile: instrumented.then(|| profiler.snapshot()),
        costs: detector.query_cost_report(),
    }
}

#[test]
fn instrumented_detections_are_byte_identical_at_1_2_and_4_shards() {
    let training = training_set();
    let stream = held_out_stream();
    assert!(!stream.is_empty(), "fixture stream is non-empty");
    for shards in [1usize, 2, 4] {
        let bare_run = replay(&training, &stream, shards, false);
        let (bare, deployed) = (bare_run.lines, bare_run.deployed);
        assert!(
            bare_run.costs.is_none(),
            "a bare run accumulates no cost attribution"
        );
        let run = replay(&training, &stream, shards, true);
        let (instrumented, registry) = (run.lines, run.registry);
        assert_eq!(run.deployed, deployed);
        assert!(
            !bare.is_empty(),
            "the fixture loop detects at {shards} shard(s)"
        );
        assert_eq!(
            instrumented, bare,
            "instrumentation changed detections at {shards} shard(s)"
        );

        // Cost attribution measured every deployed fixture query: seeds fire for
        // each (the corpus exercises every mined query), so cost and wall time are
        // non-zero across the board, and detections attribute completely.
        let costs = run.costs.expect("attribution was enabled");
        assert_eq!(
            costs.rows.len(),
            deployed,
            "one cost row per deployed query at {shards} shard(s)"
        );
        for (id, cost) in &costs.rows {
            assert!(
                cost.cost_units() > 0,
                "query {id} reports zero measured work at {shards} shard(s)"
            );
            assert!(
                cost.sampled_ns > 0,
                "query {id} reports zero measured wall time at {shards} shard(s)"
            );
        }
        let attributed_detections: u64 = costs.rows.iter().map(|(_, c)| c.detections).sum();
        assert_eq!(
            attributed_detections,
            bare.len() as u64,
            "every detection is attributed to a query at {shards} shard(s)"
        );
        // Exporting publishes `query.<id>.*` counters into the registry.
        costs.export(&registry);

        // The profiler saw the batch spans; its collapsed-stack export is non-empty
        // and flamegraph-shaped (`path self_ns` lines).
        let profile = run.profile.expect("profiler was attached");
        let collapsed = profile.render_collapsed();
        assert!(
            collapsed.lines().count() > 0,
            "collapsed-stack export is non-empty at {shards} shard(s)"
        );
        assert!(
            profile.spans.keys().any(|path| path.contains("pool.batch")),
            "pool batch spans were recorded at {shards} shard(s)"
        );
        assert!(
            profile
                .spans
                .keys()
                .any(|path| path.contains("detector.batch")),
            "detector batch spans were recorded at {shards} shard(s)"
        );
        for line in collapsed.lines() {
            let (path, self_ns) = line.rsplit_once(' ').expect("`path self_ns` shape");
            assert!(!path.is_empty());
            assert!(self_ns.parse::<u64>().is_ok(), "malformed line {line:?}");
        }

        // Side contract: the metrics recorded what actually flowed. Every shard sees
        // every event (queries are partitioned, the stream is not).
        let snapshot = registry.snapshot();
        for shard in 0..shards {
            assert_eq!(
                snapshot.counter(&format!("detector.shard{shard}.events_total")),
                Some(stream.len() as u64),
                "shard {shard} event count at {shards} shard(s)"
            );
        }
        let detections_total: u64 = (0..shards)
            .map(|shard| {
                snapshot
                    .counter(&format!("detector.shard{shard}.detections_total"))
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(
            detections_total,
            bare.len() as u64,
            "summed per-shard detections at {shards} shard(s)"
        );
        let memory_high_water: u64 = (0..shards)
            .map(|shard| {
                snapshot
                    .gauge(&format!("detector.shard{shard}.memory_bytes"))
                    .map_or(0, |(_, high_water)| high_water)
            })
            .sum();
        assert!(
            memory_high_water > 0,
            "a replay that buffered state has a memory high-water mark"
        );
        for (id, cost) in &costs.rows {
            assert_eq!(
                snapshot.counter(&format!("query.{id}.spawned")),
                Some(cost.spawned),
                "exported query.{id}.spawned counter at {shards} shard(s)"
            );
        }

        // And the pool placed every deployed query on exactly one real shard.
        assert_eq!(
            run.shard_queries, deployed,
            "the per-shard query counts sum to the deployed count at {shards} shard(s)"
        );
        assert!(
            run.placements.iter().all(|&shard| shard < shards),
            "every deployed query lives on a real shard"
        );
    }
}

/// Cost rows are counted once, in the engine's one table: the exact counters of every
/// deployed query are the same whichever shard it lands on, at 1, 2 and 4 shards.
#[test]
fn exact_cost_rows_do_not_depend_on_the_shard_count() {
    let training = training_set();
    let stream = held_out_stream();
    let exact = |shards: usize| -> Vec<[u64; 4]> {
        let costs = replay(&training, &stream, shards, true).costs;
        let rows = costs.expect("attribution was enabled").rows;
        let row = |(_, c): &(usize, QueryCost)| [c.spawned, c.advanced, c.dropped, c.detections];
        rows.iter().map(row).collect()
    };
    let one = exact(1);
    assert!(
        one.iter().all(|row| row[0] > 0) && one.iter().any(|row| row[3] > 0),
        "every query seeds and some detect: {one:?}"
    );
    for shards in [2, 4] {
        assert_eq!(
            exact(shards),
            one,
            "exact counters moved at {shards} shards"
        );
    }
}
