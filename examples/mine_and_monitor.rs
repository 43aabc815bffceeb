//! Mine and monitor: the full discovery loop, online, with a mid-stream hot swap.
//!
//! Run with `cargo run --release --example mine_and_monitor`.
//!
//! Training arrives as *labeled traces* (the wire format a deployment would receive),
//! not as materialised graphs: [`TrainingData::from_traces`] rebuilds the training set,
//! the paper's pipeline ([`formulate_temporal`], [`compile`]) mines each behavior class
//! against the background traces and selects its top patterns, and [`deploy_class`]
//! hot-registers them on a running [`ShardedDetector`]. Mid-stream, one class is
//! retired (its in-flight partial matches are dropped and its shard load is freed) and
//! another is deployed in its place — the detector never stops consuming events.
//! Finally the per-class precision/recall of a clean train/evaluate split is printed.

use behavior_query::query::{compile, formulate_temporal, QueryOptions};
use behavior_query::stream::{
    deploy_class, evaluate_split, retire_deployed, LabelPairStats, ShardedDetector,
};
use behavior_query::syscall::{
    labeled_traces, Behavior, DatasetConfig, StreamSource, TestData, TestDataConfig, TrainingData,
};
use std::collections::HashMap;

fn main() {
    // ---- Train: rebuild the training set from the labeled traces. -------------------
    let generated = TrainingData::generate(&DatasetConfig::tiny());
    let test = TestData::generate(&TestDataConfig::tiny(), generated.interner.clone());
    let options = QueryOptions {
        query_size: 4,
        top_queries: 2,
        miner_top_k: 8,
        cap_per_graph: 32,
    };
    let traces = labeled_traces(&generated);
    let training = TrainingData::from_traces(&traces, generated.interner)
        .expect("generated training traces are consistent");
    let background = training.negatives().len();
    println!(
        "ingested {} labeled traces ({} positive, {background} background)",
        traces.len(),
        traces.len() - background
    );

    // ---- Deploy two classes on a running sharded detector. --------------------------
    let stats = LabelPairStats::from_graphs(training.all_graphs());
    let mut detector = ShardedDetector::with_stats(2, stats);
    let window = test.max_duration;
    let queries_of = |behavior| compile(&formulate_temporal(&training, behavior, &options).0);
    let mut names: HashMap<usize, Behavior> = HashMap::new();
    let mut deployed_a = Vec::new();
    for behavior in [Behavior::GzipDecompress, Behavior::Bzip2Decompress] {
        let deployed = deploy_class(&mut detector, behavior, queries_of(behavior), window)
            .expect("mined queries register cleanly");
        println!(
            "deployed {:<18} as {} quer{} (shards {:?})",
            behavior.name(),
            deployed.len(),
            if deployed.len() == 1 { "y" } else { "ies" },
            deployed
                .iter()
                .map(|d| detector.shard_of(d.registration.id))
                .collect::<Vec<_>>()
        );
        for query in &deployed {
            names.insert(query.registration.id, behavior);
        }
        if behavior == Behavior::GzipDecompress {
            deployed_a = deployed;
        }
    }

    // ---- Monitor: stream the first half, hot-swap, stream the rest. -----------------
    let stream = StreamSource::from_test_data(&test, 256);
    let batches: Vec<_> = stream.batches().collect();
    let half = batches.len() / 2;
    let mut counts: HashMap<Behavior, usize> = HashMap::new();
    fn sink(
        detections: Vec<behavior_query::stream::Detection>,
        names: &HashMap<usize, Behavior>,
        counts: &mut HashMap<Behavior, usize>,
    ) {
        for detection in detections {
            if let Some(&behavior) = names.get(&detection.query) {
                *counts.entry(behavior).or_default() += 1;
            }
        }
    }
    for batch in &batches[..half] {
        sink(
            detector.on_batch(batch).expect("valid replay"),
            &names,
            &mut counts,
        );
    }

    // Hot swap, mid-stream: retire gzip-decompress, deploy scp-download instead. The
    // detector keeps running; the retired class is silent from here on, and the new
    // class's `visible_from` documents that it only sees the stream's remainder.
    retire_deployed(&mut detector, &deployed_a).expect("deployed ids retire once");
    println!(
        "\nhot swap at mid-stream: retired {} ({} queries deregistered; any in-flight \
         partial matches dropped with them)",
        Behavior::GzipDecompress.name(),
        deployed_a.len(),
    );
    let scp = Behavior::ScpDownload;
    let swapped = deploy_class(&mut detector, scp, queries_of(scp), window)
        .expect("mined queries register cleanly");
    for query in &swapped {
        names.insert(query.registration.id, Behavior::ScpDownload);
        println!(
            "deployed {:<18} mid-stream (visible from ts {})",
            Behavior::ScpDownload.name(),
            query.registration.visible_from
        );
    }

    for batch in &batches[half..] {
        sink(
            detector.on_batch(batch).expect("valid replay"),
            &names,
            &mut counts,
        );
    }
    sink(detector.flush(), &names, &mut counts);

    println!("\nstreamed detections (gzip saw only the first half, scp only the second):");
    for behavior in [
        Behavior::GzipDecompress,
        Behavior::Bzip2Decompress,
        Behavior::ScpDownload,
    ] {
        println!(
            "  {:<18} {:>4} detections, {:>3} true instances in the full stream",
            behavior.name(),
            counts.get(&behavior).copied().unwrap_or(0),
            test.intervals_of(behavior).len()
        );
    }

    // ---- Score a clean split: the Table 2 loop, online. -----------------------------
    let classes =
        evaluate_split(&training, &options, &test, 2, 256).expect("a valid held-out stream");
    println!(
        "\nclean train/evaluate split over all {} classes:",
        classes.len()
    );
    for class in &classes {
        println!(
            "  {:<18} precision {:>5.1}%  recall {:>5.1}%",
            class.behavior.name(),
            class.report.precision() * 100.0,
            class.report.recall() * 100.0
        );
    }
}
