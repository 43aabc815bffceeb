//! End-to-end mine→detect golden tests over a checked-in fixture corpus.
//!
//! The corpus under `tests/fixtures/` was generated **once** via `tgraph::generator`
//! with the fixed seeds below and committed (see `tests/fixtures/README.md`):
//!
//! * `training.corpus` — labeled training traces for two synthetic behavior classes
//!   plus background noise. Each class embeds a fixed 4-edge signature (labels in a
//!   class-private band) followed by band-shared noise; background traces are noise
//!   only.
//! * `stream.events` — a held-out monitoring stream interleaving noise segments,
//!   planted class instances, and one *reversed* class-A decoy (same edges, opposite
//!   temporal order — exactly what a temporal query must not match).
//! * `expected_detections.txt` — the golden detection list: mining the corpus,
//!   compiling, registering on a sharded detector and replaying the stream must
//!   reproduce it line for line, with 1, 2, and 4 shards.
//!
//! `fixtures_match_their_generators` pins the committed files to the generator output,
//! so the corpus cannot silently drift from the seeds that document it. To regenerate
//! after an intentional generator change:
//! `cargo test --test e2e_mine_detect -- --ignored regenerate_fixtures`.

use behavior_query::query::QueryOptions;
use behavior_query::stream::{deploy_all, DeployedQuery, LabelPairStats, ShardedDetector};
use behavior_query::syscall::{Behavior, LabeledTrace, TraceLabel, TrainingData};
use behavior_query::tgraph::generator::{random_t_connected_graph, RandomGraphSpec};
use behavior_query::tgraph::{GraphBuilder, Label, LabelInterner, StreamEvent, TemporalGraph};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Match window for every deployed query, in stream timestamp units.
const WINDOW: u64 = 12;
/// Batch size for the stream replay (detections are batch-size invariant; see
/// `tests/stream_parity.rs`).
const BATCH: usize = 64;

/// The two synthetic classes of the corpus, tagged with real `Behavior` values (the
/// tags are class identifiers only — the traces are generator output, not syscalls).
const CLASS_A: Behavior = Behavior::GzipDecompress;
const CLASS_B: Behavior = Behavior::SshdLogin;

fn class_name(behavior: Behavior) -> &'static str {
    match behavior {
        CLASS_A => "class-a",
        CLASS_B => "class-b",
        _ => unreachable!("the corpus has two classes"),
    }
}

fn class_of(name: &str) -> TraceLabel {
    match name {
        "class-a" => TraceLabel::Behavior(CLASS_A),
        "class-b" => TraceLabel::Behavior(CLASS_B),
        "background" => TraceLabel::Background,
        other => panic!("unknown corpus class {other:?}"),
    }
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

// ---------------------------------------------------------------------------------
// Deterministic corpus generation (fixed seeds, `tgraph::generator` only).
// ---------------------------------------------------------------------------------

/// Rebuilds `graph` with every label shifted by `offset` — how a class gets its
/// private label band while reusing the generator's structure.
fn band_shifted(graph: &TemporalGraph, offset: u32) -> TemporalGraph {
    let mut builder = GraphBuilder::with_capacity(graph.node_count(), graph.edge_count());
    for node in 0..graph.node_count() {
        builder.add_node(Label(graph.label(node).0 + offset));
    }
    for edge in graph.edges() {
        builder
            .add_edge(edge.src, edge.dst, edge.ts)
            .expect("shifting labels preserves validity");
    }
    builder.build()
}

/// A class's 4-edge signature: generator structure, labels in the class's band.
fn signature(seed: u64, band: u32) -> TemporalGraph {
    let raw = random_t_connected_graph(
        seed,
        RandomGraphSpec {
            nodes: 4,
            edges: 4,
            label_alphabet: 3,
        },
    );
    band_shifted(&raw, band)
}

/// Signature seeds are chosen so all four edges carry *distinct* label pairs
/// (`fixtures_match_their_generators` pins this): a reversed replay of such a
/// signature contains no in-order sub-pattern of two or more edges, which is what
/// makes the stream's decoy segment a real order-awareness probe.
const CLASS_A_SEED: u64 = 19;
const CLASS_B_SEED: u64 = 37;

fn class_a_signature() -> TemporalGraph {
    signature(CLASS_A_SEED, 10)
}

fn class_b_signature() -> TemporalGraph {
    signature(CLASS_B_SEED, 20)
}

/// Noise in the shared background band (labels 0..5).
fn noise_graph(seed: u64, nodes: usize, edges: usize) -> TemporalGraph {
    random_t_connected_graph(
        seed,
        RandomGraphSpec {
            nodes,
            edges,
            label_alphabet: 5,
        },
    )
}

/// The events of one training trace: the class signature (ts 1..), then a noise tail
/// with fresh nodes — so mining has something discriminative to separate from the
/// band-shared noise that also fills the background traces.
fn positive_trace_events(signature: &TemporalGraph, noise_seed: u64) -> Vec<StreamEvent> {
    let mut events = Vec::new();
    let mut ts = 0u64;
    append_graph(&mut events, signature, &mut ts, 0);
    let noise = noise_graph(noise_seed, 5, 8);
    append_graph(&mut events, &noise, &mut ts, signature.node_count());
    events
}

/// Appends a graph's edges as events with consecutive global timestamps and node ids
/// offset by `base` (fresh nodes per appended activity).
fn append_graph(events: &mut Vec<StreamEvent>, graph: &TemporalGraph, ts: &mut u64, base: usize) {
    for edge in graph.edges() {
        *ts += 1;
        events.push(StreamEvent {
            ts: *ts,
            src: base + edge.src,
            dst: base + edge.dst,
            src_label: graph.label(edge.src),
            dst_label: graph.label(edge.dst),
        });
    }
}

/// The full labeled training corpus, in ingest (and therefore deployment) order:
/// 3 class-a traces, 3 class-b traces, 4 background traces.
fn generated_training_corpus() -> Vec<LabeledTrace> {
    let mut traces = Vec::new();
    let sig_a = class_a_signature();
    for i in 0..3u64 {
        traces.push(LabeledTrace {
            label: TraceLabel::Behavior(CLASS_A),
            events: positive_trace_events(&sig_a, 0xA100 + i),
        });
    }
    let sig_b = class_b_signature();
    for i in 0..3u64 {
        traces.push(LabeledTrace {
            label: TraceLabel::Behavior(CLASS_B),
            events: positive_trace_events(&sig_b, 0xB200 + i),
        });
    }
    for i in 0..4u64 {
        traces.push(LabeledTrace {
            label: TraceLabel::Background,
            events: {
                let mut events = Vec::new();
                let mut ts = 0u64;
                append_graph(&mut events, &noise_graph(0xB6 + i, 6, 12), &mut ts, 0);
                events
            },
        });
    }
    traces
}

/// The held-out monitoring stream: 8 noise/instance segments alternating the two
/// classes, with one reversed class-A decoy, plus trailing noise. Node ids are fresh
/// per activity; timestamps are globally consecutive.
fn generated_stream() -> Vec<StreamEvent> {
    let mut events = Vec::new();
    let mut ts = 0u64;
    let mut base = 0usize;
    let sig_a = class_a_signature();
    let sig_b = class_b_signature();
    for i in 0..8u64 {
        let noise = noise_graph(500 + i, 6, 10);
        append_graph(&mut events, &noise, &mut ts, base);
        base += noise.node_count();
        if i == 3 {
            // The decoy: class A's edges in reversed temporal order. An order-aware
            // (temporal) query must not identify this as an instance.
            for edge in sig_a.edges().iter().rev() {
                ts += 1;
                events.push(StreamEvent {
                    ts,
                    src: base + edge.src,
                    dst: base + edge.dst,
                    src_label: sig_a.label(edge.src),
                    dst_label: sig_a.label(edge.dst),
                });
            }
            base += sig_a.node_count();
        }
        let instance = if i % 2 == 0 { &sig_a } else { &sig_b };
        append_graph(&mut events, instance, &mut ts, base);
        base += instance.node_count();
    }
    let trailing = noise_graph(999, 6, 10);
    append_graph(&mut events, &trailing, &mut ts, base);
    events
}

// ---------------------------------------------------------------------------------
// Fixture (de)serialization.
// ---------------------------------------------------------------------------------

fn format_event(event: &StreamEvent) -> String {
    format!(
        "{} {} {} {} {}",
        event.ts, event.src, event.dst, event.src_label.0, event.dst_label.0
    )
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

fn format_corpus(traces: &[LabeledTrace]) -> String {
    let mut out = String::from(
        "# labeled training corpus — generated by tests/e2e_mine_detect.rs \
         (regenerate_fixtures); do not edit\n",
    );
    for trace in traces {
        let name = match trace.label {
            TraceLabel::Background => "background",
            TraceLabel::Behavior(behavior) => class_name(behavior),
        };
        writeln!(out, "trace {name}").unwrap();
        for event in &trace.events {
            out.push_str(&format_event(event));
            out.push('\n');
        }
    }
    out
}

fn parse_corpus(text: &str) -> Vec<LabeledTrace> {
    let mut traces: Vec<LabeledTrace> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix("trace ") {
            traces.push(LabeledTrace {
                label: class_of(name.trim()),
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

fn format_stream(events: &[StreamEvent]) -> String {
    let mut out = String::from(
        "# held-out monitoring stream — generated by tests/e2e_mine_detect.rs \
         (regenerate_fixtures); do not edit\n",
    );
    for event in events {
        out.push_str(&format_event(event));
        out.push('\n');
    }
    out
}

fn parse_stream(text: &str) -> Vec<StreamEvent> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(parse_event)
        .collect()
}

fn read_fixture(name: &str) -> String {
    std::fs::read_to_string(fixture_path(name))
        .unwrap_or_else(|e| panic!("missing fixture {name} ({e}); run regenerate_fixtures"))
}

// ---------------------------------------------------------------------------------
// The mine→compile→register→detect loop under test.
// ---------------------------------------------------------------------------------

fn mining_options() -> QueryOptions {
    QueryOptions {
        query_size: 3,
        top_queries: 2,
        miner_top_k: 8,
        cap_per_graph: 32,
    }
}

/// The corpus as a training set (its labels are bare ids: nothing to intern).
fn training_set(corpus: &[LabeledTrace]) -> TrainingData {
    TrainingData::from_traces(corpus, LabelInterner::new()).expect("fixture traces are valid")
}

/// Runs the full loop at the given shard count, returning the detection list formatted
/// as golden lines `<query_id> <class> <start_ts> <end_ts>` in emission order.
fn detection_lines(training: &TrainingData, stream: &[StreamEvent], shards: usize) -> Vec<String> {
    let stats = LabelPairStats::from_graphs(training.all_graphs());
    let mut detector = ShardedDetector::with_stats(shards, stats);
    let deployed: Vec<DeployedQuery> =
        deploy_all(&mut detector, training, &mining_options(), WINDOW)
            .expect("mined fixture queries register cleanly");
    assert!(
        deployed.len() >= 2,
        "both classes must deploy at least one query"
    );
    let class_by_id: HashMap<usize, Behavior> = deployed
        .iter()
        .map(|d| (d.registration.id, d.behavior))
        .collect();
    let mut lines = Vec::new();
    let mut sink = |detections: Vec<behavior_query::stream::Detection>| {
        for detection in detections {
            lines.push(format!(
                "{} {} {} {}",
                detection.query,
                class_name(class_by_id[&detection.query]),
                detection.start_ts,
                detection.end_ts
            ));
        }
    };
    for batch in stream.chunks(BATCH) {
        sink(detector.on_batch(batch).expect("fixture stream is valid"));
    }
    sink(detector.flush());
    lines
}

// ---------------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------------

/// The committed corpus must be byte-identical to what the fixed-seed generators
/// produce — the fixtures cannot drift from the seeds that document them.
#[test]
fn fixtures_match_their_generators() {
    assert_eq!(
        parse_corpus(&read_fixture("training.corpus")),
        generated_training_corpus(),
        "training.corpus drifted from its generator; run regenerate_fixtures"
    );
    assert_eq!(
        parse_stream(&read_fixture("stream.events")),
        generated_stream(),
        "stream.events drifted from its generator; run regenerate_fixtures"
    );
    // The seed-choice invariant the decoy probe relies on: every signature edge
    // carries a distinct label pair, so reversing the signature destroys every
    // multi-edge in-order occurrence.
    for signature in [class_a_signature(), class_b_signature()] {
        let mut pairs: Vec<(Label, Label)> = signature
            .edges()
            .iter()
            .map(|e| (signature.label(e.src), signature.label(e.dst)))
            .collect();
        let count = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), count, "signature label pairs must be distinct");
    }
}

/// The golden loop: mined queries, registered on a stream replay, must produce the
/// exact committed detection list — with 1, 2, and 4 shards.
#[test]
fn golden_detections_at_1_2_and_4_shards() {
    let corpus = parse_corpus(&read_fixture("training.corpus"));
    let stream = parse_stream(&read_fixture("stream.events"));
    let expected: Vec<String> = read_fixture("expected_detections.txt")
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(str::to_string)
        .collect();
    assert!(!expected.is_empty(), "the golden list is never empty");
    let training = training_set(&corpus);
    for shards in [1usize, 2, 4] {
        let lines = detection_lines(&training, &stream, shards);
        assert_eq!(
            lines, expected,
            "detections diverged from the golden list with {shards} shard(s)"
        );
    }
}

/// Sanity on the golden list itself: both classes detect, and the reversed class-A
/// decoy planted in segment 3 is never reported as an instance.
#[test]
fn golden_list_is_nondegenerate_and_order_aware() {
    let golden = read_fixture("expected_detections.txt");
    let classes: Vec<&str> = golden
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().nth(1).expect("class column"))
        .collect();
    assert!(classes.contains(&"class-a"));
    assert!(classes.contains(&"class-b"));

    // Recompute the decoy's interval from the generators and assert no golden
    // detection lies fully inside it (the decoy has class-A labels but reversed
    // order, so an order-aware match there would be a regression).
    let stream = generated_stream();
    let sig_a = class_a_signature();
    let decoy_labels: Vec<u32> = sig_a.labels().iter().map(|l| l.0).collect();
    // The decoy is the first class-A-band activity of segment 3 (segments 0 and 2
    // planted real instances before it); find it as the 3rd maximal run of A-band
    // events in the stream.
    let mut runs: Vec<(u64, u64)> = Vec::new();
    let mut current: Option<(u64, u64)> = None;
    for event in &stream {
        if decoy_labels.contains(&event.src_label.0) || decoy_labels.contains(&event.dst_label.0) {
            current = Some(match current {
                None => (event.ts, event.ts),
                Some((start, _)) => (start, event.ts),
            });
        } else if let Some(run) = current.take() {
            runs.push(run);
        }
    }
    if let Some(run) = current {
        runs.push(run);
    }
    let (decoy_start, decoy_end) = runs[2];
    for line in golden.lines().filter(|l| l.contains("class-a")) {
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(2)
            .map(|f| f.parse().unwrap())
            .collect();
        let (start, end) = (fields[0], fields[1]);
        assert!(
            !(start >= decoy_start && end <= decoy_end),
            "golden detection [{start}, {end}] sits inside the reversed decoy \
             [{decoy_start}, {decoy_end}]"
        );
    }
}

/// Regenerates the committed fixture corpus from the fixed seeds. Run explicitly after
/// an intentional generator change:
/// `cargo test --test e2e_mine_detect -- --ignored regenerate_fixtures`
#[test]
#[ignore = "writes tests/fixtures; run explicitly to regenerate the corpus"]
fn regenerate_fixtures() {
    let dir = fixture_path("");
    std::fs::create_dir_all(&dir).expect("create tests/fixtures");
    let corpus = generated_training_corpus();
    let stream = generated_stream();
    std::fs::write(fixture_path("training.corpus"), format_corpus(&corpus)).unwrap();
    std::fs::write(fixture_path("stream.events"), format_stream(&stream)).unwrap();
    let lines = detection_lines(&training_set(&corpus), &stream, 1);
    let mut golden = String::from(
        "# golden detections: <query_id> <class> <start_ts> <end_ts> — generated by \
         tests/e2e_mine_detect.rs (regenerate_fixtures); do not edit\n",
    );
    for line in &lines {
        golden.push_str(line);
        golden.push('\n');
    }
    std::fs::write(fixture_path("expected_detections.txt"), golden).unwrap();
}
