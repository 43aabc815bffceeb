//! Live monitoring: mine behavior queries offline, then detect behaviors *online* as a
//! stream of system events arrives — on a sharded engine.
//!
//! Run with `cargo run --release --example live_monitor`.
//!
//! The offline half is the paper's pipeline: generate training logs, mine discriminative
//! temporal patterns for a few target behaviors. The online half is this repository's
//! streaming extension: register the mined patterns with a `stream::ShardedDetector`
//! (queries partitioned across shards that run in turn on one thread, balanced by
//! first-edge label-pair frequency) and replay the test dataset as an ordered event stream — detections are
//! emitted the moment the completing event arrives, in global timestamp order, and
//! agree interval-for-interval with the offline search whatever the shard count.

use behavior_query::query::{formulate_queries, QueryOptions};
use behavior_query::stream::{CompiledQuery, LabelPairStats, QueryId, ShardedDetector};
use behavior_query::syscall::{
    Behavior, DatasetConfig, StreamSource, TestData, TestDataConfig, TrainingData,
};

fn main() {
    // ---- Offline: mine behavior queries from training logs. -------------------------
    let training = TrainingData::generate(&DatasetConfig::tiny());
    let test = TestData::generate(&TestDataConfig::tiny(), training.interner.clone());
    let options = QueryOptions {
        query_size: 4,
        top_queries: 1,
        miner_top_k: 8,
        cap_per_graph: 32,
    };
    let behaviors = [
        Behavior::GzipDecompress,
        Behavior::Bzip2Decompress,
        Behavior::ScpDownload,
    ];

    // Label-pair frequencies from historical telemetry drive the query→shard balance.
    let stats = LabelPairStats::from_graph(&test.graph);
    let mut detector = ShardedDetector::with_stats(2, stats);
    let mut names: Vec<(QueryId, Behavior)> = Vec::new();
    for behavior in behaviors {
        let queries = formulate_queries(&training, behavior, &options);
        let pattern = queries
            .temporal
            .first()
            .expect("mining found a pattern")
            .clone();
        println!("registered {:<18} -> {}", behavior.name(), pattern);
        let registration = detector
            .register(CompiledQuery::Temporal(pattern), test.max_duration)
            .expect("mined queries are valid");
        println!(
            "    -> query #{} on shard {} (full visibility from ts {})",
            registration.id,
            detector.shard_of(registration.id),
            registration.visible_from
        );
        names.push((registration.id, behavior));
    }

    // ---- Online: replay the monitoring graph as a live stream. ----------------------
    let source = StreamSource::from_test_data(&test, 256);
    println!(
        "\nstreaming {} events in batches of {} across {} shards...\n",
        source.len(),
        source.batch_size(),
        detector.shard_count()
    );
    let mut shown = 0usize;
    let mut per_query = vec![0usize; names.len()];
    for batch in source.batches() {
        for detection in detector.on_batch(batch).expect("replayed stream is valid") {
            per_query[detection.query] += 1;
            if shown < 10 {
                let behavior = names[detection.query].1;
                println!(
                    "  [ts {:>6}..{:>6}] detected {}",
                    detection.start_ts,
                    detection.end_ts,
                    behavior.name()
                );
                shown += 1;
            }
        }
    }
    for detection in detector.flush() {
        per_query[detection.query] += 1;
    }

    // ---- Compare against ground truth. ----------------------------------------------
    println!("\nper-behavior summary (streamed detections vs. ground-truth instances):");
    for (id, behavior) in &names {
        let truth = test.intervals_of(*behavior).len();
        println!(
            "  {:<18} {:>4} detections, {:>3} true instances",
            behavior.name(),
            per_query[*id],
            truth
        );
    }
}
