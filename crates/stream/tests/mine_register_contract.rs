//! The miner→compiler→registry contract, property-style: **every** query the paper's
//! pipeline formulates (`formulate_temporal` → `compile`) registers on a streaming
//! detector without [`RegisterError`](stream::RegisterError) — the chain can never
//! produce a trivially-empty query, and any positive window is accepted — and a
//! deployed class retires exactly once.

use proptest::prelude::*;
use query::{compile, formulate_temporal, CompiledQuery, QueryOptions};
use stream::{deploy_class, retire_deployed, Detector, LabelPairStats, ShardedDetector};
use syscall::{events_of_graph, Behavior, LabeledTrace, TraceLabel, TrainingData};
use tgraph::generator::{random_t_connected_graph, RandomGraphSpec};
use tgraph::LabelInterner;

const CLASS: Behavior = Behavior::GzipDecompress;

/// A small random training set, arriving as labeled traces: three positive and two
/// background graphs.
fn random_training(seed: u64, alphabet: u32) -> TrainingData {
    let trace = |label, salt: u64| LabeledTrace {
        label,
        events: events_of_graph(&random_t_connected_graph(
            seed.wrapping_mul(31).wrapping_add(salt),
            RandomGraphSpec {
                nodes: 6,
                edges: 10,
                label_alphabet: alphabet,
            },
        )),
    };
    let positive = TraceLabel::Behavior(CLASS);
    let traces = [
        trace(positive, 1),
        trace(positive, 2),
        trace(positive, 3),
        trace(TraceLabel::Background, 100),
        trace(TraceLabel::Background, 101),
    ];
    TrainingData::from_traces(&traces, LabelInterner::new()).expect("generator traces are valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every formulated pattern compiles (non-empty, seeded, inside the size cap) and
    /// registers on both the single-threaded detector and a sharded pool, for any
    /// positive window.
    #[test]
    fn every_formulated_query_compiles_and_registers(
        seed in 0u64..10_000,
        alphabet in 1u32..5,
        query_size in 1usize..4,
        window in 1u64..1_000,
        shards in 1usize..4,
    ) {
        let training = random_training(seed, alphabet);
        let options = QueryOptions { query_size, top_queries: 8, miner_top_k: 8, cap_per_graph: 32 };
        let (patterns, mining) = formulate_temporal(&training, CLASS, &options);
        prop_assert!(!patterns.is_empty(), "non-empty positives always seed");
        prop_assert_eq!(patterns.len(), mining.patterns.len(), "top_queries = top_k keeps all");
        // `compile` passes every pattern through: nothing mined is trivially empty, so
        // the belt-and-braces filter never actually drops one.
        let compiled = compile(&patterns);
        prop_assert_eq!(compiled.len(), patterns.len());
        let mut detector = Detector::new();
        let mut pool = ShardedDetector::with_stats(
            shards,
            LabelPairStats::from_graphs(training.all_graphs()),
        );
        for query in compiled {
            prop_assert!(query.seed_key().is_some(), "mined queries always seed");
            let edges = match &query {
                CompiledQuery::Temporal(pattern) => pattern.edge_count(),
                _ => usize::MAX,
            };
            prop_assert!(edges <= query_size, "a temporal query inside the size cap");
            let single = detector.register(query.clone(), window);
            prop_assert!(single.is_ok(), "single register failed: {:?}", single);
            let sharded = pool.register(query, window);
            prop_assert!(sharded.is_ok(), "sharded register failed: {:?}", sharded);
        }
        prop_assert_eq!(detector.query_count(), pool.query_count());
    }

    /// Deploying a formulated class registers every compiled query cleanly — and
    /// deregistration (`retire`) of the deployed set always succeeds exactly once.
    #[test]
    fn a_formulated_class_deploys_cleanly_and_retires_exactly_once(
        seed in 0u64..10_000,
        alphabet in 1u32..5,
        window in 1u64..1_000,
        shards in 1usize..4,
    ) {
        let training = random_training(seed, alphabet);
        let options = QueryOptions { query_size: 3, top_queries: 3, miner_top_k: 8, cap_per_graph: 32 };
        let compiled = compile(&formulate_temporal(&training, CLASS, &options).0);
        prop_assert!(!compiled.is_empty() && compiled.len() <= 3);
        let mut pool = ShardedDetector::with_stats(
            shards,
            LabelPairStats::from_graphs(training.all_graphs()),
        );
        let deployed = deploy_class(&mut pool, CLASS, compiled.clone(), window)
            .expect("mined queries register without RegisterError");
        prop_assert_eq!(deployed.len(), compiled.len());
        prop_assert_eq!(pool.query_count(), deployed.len());
        retire_deployed(&mut pool, &deployed).expect("deployed ids retire");
        prop_assert_eq!(pool.query_count(), 0);
        prop_assert!(retire_deployed(&mut pool, &deployed).is_err());
    }
}
