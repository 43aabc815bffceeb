//! Stream/offline parity: replaying a monitoring graph through the streaming
//! [`Detector`] — or the [`ShardedDetector`] with any shard count — yields, per query,
//! exactly the intervals the offline search functions return — the consistency
//! guarantee the `stream` crate advertises.
//!
//! Three layers of evidence:
//!
//! * property tests over *random* temporal graphs and patterns (deep patterns, loop
//!   edges, arbitrary windows, batch sizes and shard counts);
//! * property tests over *generated `syscall` datasets* with genuinely mined queries,
//!   sweeping the stream batch size;
//! * a fixed sweep asserting 1-, 2- and 4-shard pools emit the identical sorted
//!   detection set as the single-threaded detector and the offline search.

use behavior_query::query::{search_nodeset, search_static, search_temporal, Interval};
use behavior_query::stream::{CompiledQuery, Detector, LabelPairStats, ShardedDetector};
use behavior_query::syscall::{
    Behavior, DatasetConfig, StreamSource, TestData, TestDataConfig, TrainingData,
};
use behavior_query::tgminer::baselines::gspan::StaticPattern;
use behavior_query::tgminer::baselines::nodeset::NodeSetQuery;
use behavior_query::tgraph::generator::{
    random_pattern, random_t_connected_graph, RandomGraphSpec,
};
use behavior_query::tgraph::pattern::TemporalPattern;
use behavior_query::tgraph::TemporalGraph;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Replays `graph` through a single-threaded detector with `queries` registered,
/// returning each query's detections as a sorted interval list.
fn stream_intervals(
    graph: &TemporalGraph,
    queries: &[(CompiledQuery, u64)],
    batch_size: usize,
) -> Vec<Vec<Interval>> {
    let mut detector = Detector::new();
    for (query, window) in queries {
        detector
            .register(query.clone(), *window)
            .expect("parity queries are valid");
    }
    let mut per_query: Vec<Vec<Interval>> = vec![Vec::new(); queries.len()];
    let source = StreamSource::from_graph(graph, batch_size);
    for batch in source.batches() {
        for detection in detector.on_batch(batch).expect("replayed stream is valid") {
            per_query[detection.query].push((detection.start_ts, detection.end_ts));
        }
    }
    for detection in detector.flush() {
        per_query[detection.query].push((detection.start_ts, detection.end_ts));
    }
    for intervals in &mut per_query {
        intervals.sort_unstable();
    }
    per_query
}

/// Replays `graph` through a sharded pool (frequency-balanced over the graph's own
/// label-pair postings), returning each query's detections as a sorted interval list.
fn sharded_intervals(
    graph: &TemporalGraph,
    queries: &[(CompiledQuery, u64)],
    batch_size: usize,
    shards: usize,
) -> Vec<Vec<Interval>> {
    let mut pool = ShardedDetector::with_stats(shards, LabelPairStats::from_graph(graph));
    for (query, window) in queries {
        pool.register(query.clone(), *window)
            .expect("parity queries are valid");
    }
    let mut per_query: Vec<Vec<Interval>> = vec![Vec::new(); queries.len()];
    let source = StreamSource::from_graph(graph, batch_size);
    for batch in source.batches() {
        for detection in pool.on_batch(batch).expect("replayed stream is valid") {
            per_query[detection.query].push((detection.start_ts, detection.end_ts));
        }
    }
    for detection in pool.flush() {
        per_query[detection.query].push((detection.start_ts, detection.end_ts));
    }
    for intervals in &mut per_query {
        intervals.sort_unstable();
    }
    per_query
}

/// The offline answer for one compiled query, sorted.
fn offline_intervals(graph: &TemporalGraph, query: &CompiledQuery, window: u64) -> Vec<Interval> {
    let mut intervals = match query {
        CompiledQuery::Temporal(pattern) => search_temporal(graph, pattern, window),
        CompiledQuery::Static(pattern) => search_static(graph, pattern, window),
        CompiledQuery::NodeSet(set) => search_nodeset(graph, set, window),
    };
    intervals.sort_unstable();
    intervals
}

/// Derives the `Ntemp` (order-free) version of a temporal pattern.
fn static_of(pattern: &TemporalPattern) -> StaticPattern {
    StaticPattern {
        labels: pattern.labels().to_vec(),
        edges: pattern.edges().iter().map(|e| (e.src, e.dst)).collect(),
    }
}

/// Derives the keyword version of a temporal pattern.
fn nodeset_of(pattern: &TemporalPattern) -> NodeSetQuery {
    NodeSetQuery {
        labels: pattern.labels().to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three query types agree with their offline search on random graphs, for
    /// arbitrary windows and batch sizes.
    #[test]
    fn random_graph_parity(
        seed in 0u64..10_000,
        pedges in 1usize..4,
        nodes in 4usize..12,
        gedges in 4usize..40,
        window in 1u64..25,
        batch in 1usize..9,
    ) {
        let graph = random_t_connected_graph(
            seed,
            RandomGraphSpec { nodes, edges: gedges, label_alphabet: 3 },
        );
        let pattern = random_pattern(seed.wrapping_add(7919), pedges, 3);
        let queries = vec![
            (CompiledQuery::Temporal(pattern.clone()), window),
            (CompiledQuery::Static(static_of(&pattern)), window),
            (CompiledQuery::NodeSet(nodeset_of(&pattern)), window),
        ];
        let streamed = stream_intervals(&graph, &queries, batch);
        for (i, (query, w)) in queries.iter().enumerate() {
            let offline = offline_intervals(&graph, query, *w);
            prop_assert_eq!(
                &streamed[i], &offline,
                "query #{} diverged (seed {}, window {}, batch {})", i, seed, w, batch
            );
        }
    }

    /// Sharded detections are invariant under the shard count: an N-shard pool, the
    /// single-threaded detector, and the offline search all identify the same
    /// intervals, whatever the partitioning.
    #[test]
    fn sharded_parity_is_shard_count_invariant(
        seed in 0u64..10_000,
        pedges in 1usize..4,
        window in 1u64..25,
        batch in 1usize..9,
        shards in 1usize..6,
    ) {
        let graph = random_t_connected_graph(
            seed,
            RandomGraphSpec { nodes: 10, edges: 30, label_alphabet: 3 },
        );
        let pattern = random_pattern(seed.wrapping_add(7919), pedges, 3);
        // Duplicate registrations force queries onto different shards even when the
        // pool is larger than the distinct-query count.
        let queries = vec![
            (CompiledQuery::Temporal(pattern.clone()), window),
            (CompiledQuery::Static(static_of(&pattern)), window),
            (CompiledQuery::NodeSet(nodeset_of(&pattern)), window),
            (CompiledQuery::Temporal(pattern.clone()), window),
        ];
        let single = stream_intervals(&graph, &queries, batch);
        let sharded = sharded_intervals(&graph, &queries, batch, shards);
        for (i, (query, w)) in queries.iter().enumerate() {
            prop_assert_eq!(
                &sharded[i], &single[i],
                "query #{} diverged between {} shards and 1 thread (seed {})",
                i, shards, seed
            );
            prop_assert_eq!(
                &sharded[i], &offline_intervals(&graph, query, *w),
                "query #{} diverged from offline (seed {}, shards {})", i, seed, shards
            );
        }
    }

    /// Mixed windows per query: each registered query keeps its own deadline math.
    #[test]
    fn per_query_windows_are_independent(seed in 0u64..5_000, batch in 1usize..5) {
        let graph = random_t_connected_graph(
            seed,
            RandomGraphSpec { nodes: 8, edges: 25, label_alphabet: 3 },
        );
        let pattern = random_pattern(seed.wrapping_add(13), 2, 3);
        let queries = vec![
            (CompiledQuery::Temporal(pattern.clone()), 2),
            (CompiledQuery::Temporal(pattern.clone()), 8),
            (CompiledQuery::Temporal(pattern.clone()), 1_000),
        ];
        let streamed = stream_intervals(&graph, &queries, batch);
        for (i, (query, w)) in queries.iter().enumerate() {
            prop_assert_eq!(&streamed[i], &offline_intervals(&graph, query, *w));
        }
    }
}

/// The mined-query fixture: tiny training + test data and one query of each type for
/// two behaviors, plus the per-query offline baseline. Mining runs once.
struct Fixture {
    test: TestData,
    queries: Vec<(CompiledQuery, u64)>,
    offline: Vec<Vec<Interval>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        use behavior_query::query::{formulate_queries, QueryOptions};
        let training = TrainingData::generate(&DatasetConfig::tiny());
        let test = TestData::generate(&TestDataConfig::tiny(), training.interner.clone());
        let options = QueryOptions {
            query_size: 4,
            top_queries: 1,
            miner_top_k: 8,
            cap_per_graph: 32,
        };
        let window = test.max_duration;
        let mut queries: Vec<(CompiledQuery, u64)> = Vec::new();
        for behavior in [Behavior::GzipDecompress, Behavior::SshdLogin] {
            let formulated = formulate_queries(&training, behavior, &options);
            let temporal = formulated
                .temporal
                .first()
                .expect("mined a pattern")
                .clone();
            queries.push((CompiledQuery::Temporal(temporal), window));
            if let Some(ntemp) = formulated.nontemporal.first() {
                queries.push((CompiledQuery::Static(ntemp.clone()), window));
            }
            queries.push((CompiledQuery::NodeSet(formulated.nodeset.clone()), window));
        }
        let offline = queries
            .iter()
            .map(|(query, w)| offline_intervals(&test.graph, query, *w))
            .collect();
        Fixture {
            test,
            queries,
            offline,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Replaying a generated `TestData` dataset through the detector yields the same
    /// identified intervals as the offline search, whatever the batch size.
    #[test]
    fn testdata_parity_across_batch_sizes(batch in 1usize..400) {
        let fx = fixture();
        let streamed = stream_intervals(&fx.test.graph, &fx.queries, batch);
        for (i, offline) in fx.offline.iter().enumerate() {
            prop_assert_eq!(
                &streamed[i], offline,
                "query #{} diverged at batch size {}", i, batch
            );
        }
    }
}

/// The acceptance sweep: on generated `TestData` with genuinely mined queries, sharded
/// pools of 1, 2 and 4 shards emit the identical sorted detection set as the
/// one-shard detector and the offline search.
#[test]
fn testdata_sharded_parity_at_1_2_and_4_shards() {
    let fx = fixture();
    let single = stream_intervals(&fx.test.graph, &fx.queries, 128);
    assert_eq!(&single, &fx.offline, "single-threaded baseline diverged");
    // A small and a large batch: shard results must not depend on where batches cut
    // the stream.
    for batch in [128usize, 2048] {
        for shards in [1usize, 2, 4] {
            let sharded = sharded_intervals(&fx.test.graph, &fx.queries, batch, shards);
            assert_eq!(
                &sharded, &fx.offline,
                "{shards}-shard pool diverged from the offline search at batch {batch}"
            );
        }
    }
}

/// Ground-truth smoke check: the mined temporal queries actually find instances in the
/// stream (parity alone would also hold for always-empty results).
#[test]
fn testdata_streaming_actually_detects_instances() {
    let fx = fixture();
    let streamed = stream_intervals(&fx.test.graph, &fx.queries, 64);
    let temporal_hits: usize = fx
        .queries
        .iter()
        .enumerate()
        .filter(|(_, (q, _))| matches!(q, CompiledQuery::Temporal(_)))
        .map(|(i, _)| streamed[i].len())
        .sum();
    assert!(
        temporal_hits > 0,
        "mined temporal queries detected nothing in the stream"
    );
}
