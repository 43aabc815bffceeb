//! Property-based tests for the miner: score-function monotonicity, pruning soundness
//! (pruned and exhaustive searches agree), and frequency correctness of mined patterns.

use proptest::prelude::*;
use tgminer::baselines::MinerVariant;
use tgminer::embedding::Occurrences;
use tgminer::growth::{count_extensions, enumerate_extensions};
use tgminer::score::{GTest, InfoGain, LogRatio, ScoreFunction};
use tgminer::{mine, MinerConfig};
use tgraph::generator::{random_t_connected_graph, RandomGraphSpec};
use tgraph::matching::contains_pattern;
use tgraph::pattern::TemporalPattern;
use tgraph::TemporalGraph;

/// Builds a small random mining task: positives share structure by construction (same
/// seed family), negatives are independent random graphs.
fn random_task(seed: u64, graphs: usize) -> (Vec<TemporalGraph>, Vec<TemporalGraph>) {
    let spec = RandomGraphSpec {
        nodes: 8,
        edges: 14,
        label_alphabet: 4,
    };
    let positives = (0..graphs)
        .map(|i| random_t_connected_graph(seed.wrapping_mul(31).wrapping_add(i as u64 % 3), spec))
        .collect();
    let negatives = (0..graphs)
        .map(|i| random_t_connected_graph(seed.wrapping_add(1000 + i as u64), spec))
        .collect();
    (positives, negatives)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Score functions are monotone on the discriminative region and their upper bound
    /// dominates every reachable descendant score.
    #[test]
    fn score_functions_are_partially_monotone(x in 0.0f64..1.0, y in 0.0f64..1.0, dx in 0.0f64..0.5, dy in 0.0f64..0.5) {
        let log_ratio = LogRatio::default();
        let g_test = GTest::default();
        let info_gain = InfoGain::new(50, 200);
        for f in [&log_ratio as &dyn ScoreFunction, &g_test, &info_gain] {
            // Larger positive frequency never hurts (fixed y), on the region x >= y.
            let x2 = (x + dx).min(1.0);
            if x >= y && x2 >= y {
                prop_assert!(f.score(x2, y) + 1e-9 >= f.score(x, y), "{} not monotone in x", f.name());
            }
            // Smaller negative frequency never hurts (fixed x), on the region x >= y.
            let y2 = (y - dy).max(0.0);
            if x >= y {
                prop_assert!(f.score(x, y2) + 1e-9 >= f.score(x, y), "{} not anti-monotone in y", f.name());
            }
            // The naive upper bound dominates any descendant (x' <= x, any y').
            let x_desc = (x - dx).max(0.0);
            prop_assert!(f.upper_bound(x) + 1e-9 >= f.score(x_desc, y), "{} upper bound violated", f.name());
        }
    }

    /// The pruned miner finds the same best score as the exhaustive miner (pruning
    /// soundness, Theorem 2), and never processes more patterns.
    #[test]
    fn pruning_preserves_the_best_pattern(seed in 0u64..500) {
        let (positives, negatives) = random_task(seed, 4);
        let score = LogRatio::default();
        let pruned = MinerConfig { max_edges: 3, cap_per_graph: 64, ..MinerConfig::default() };
        let exhaustive = MinerConfig {
            max_edges: 3,
            cap_per_graph: 64,
            use_subgraph_pruning: false,
            use_supergraph_pruning: false,
            use_upper_bound: false,
            ..MinerConfig::default()
        };
        let with_pruning = mine(&positives, &negatives, &score, &pruned);
        let without = mine(&positives, &negatives, &score, &exhaustive);
        prop_assert!((with_pruning.best_score() - without.best_score()).abs() < 1e-9,
            "pruned={} exhaustive={}", with_pruning.best_score(), without.best_score());
        prop_assert!(with_pruning.stats.patterns_processed <= without.stats.patterns_processed);
    }

    /// All six miner variants agree on the best score.
    #[test]
    fn all_variants_agree_on_the_best_score(seed in 0u64..200) {
        let (positives, negatives) = random_task(seed, 3);
        let score = LogRatio::default();
        let mut reference: Option<f64> = None;
        for variant in MinerVariant::all() {
            let mut config = variant.config(3);
            config.cap_per_graph = 64;
            let result = mine(&positives, &negatives, &score, &config);
            match reference {
                None => reference = Some(result.best_score()),
                Some(expected) => prop_assert!(
                    (result.best_score() - expected).abs() < 1e-9,
                    "{} disagrees: {} vs {}", variant.name(), result.best_score(), expected
                ),
            }
        }
    }

    /// Reported frequencies of mined patterns match independent recomputation, and the
    /// returned list is sorted by decreasing score.
    #[test]
    fn mined_frequencies_are_correct(seed in 0u64..300) {
        let (positives, negatives) = random_task(seed, 4);
        let config = MinerConfig { max_edges: 3, top_k: 4, cap_per_graph: 64, ..MinerConfig::default() };
        let result = mine(&positives, &negatives, &LogRatio::default(), &config);
        prop_assert!(result.patterns.windows(2).all(|w| w[0].score >= w[1].score));
        for mined in &result.patterns {
            let pos = positives.iter().filter(|g| contains_pattern(&mined.pattern, g)).count();
            let neg = negatives.iter().filter(|g| contains_pattern(&mined.pattern, g)).count();
            prop_assert!((mined.pos_freq - pos as f64 / positives.len() as f64).abs() < 1e-9);
            prop_assert!((mined.neg_freq - neg as f64 / negatives.len() as f64).abs() < 1e-9);
            prop_assert!(mined.pattern.edge_count() <= 3);
            prop_assert!(mined.pattern.is_canonical());
        }
    }

    /// Counting a parent's extensions agrees with materialising them: the same keys in
    /// the same order, each supported by as many graphs as hold child embeddings —
    /// whatever the per-graph embedding cap, down a random growth path.
    #[test]
    fn counted_extensions_match_the_materialised_ones(seed in 0u64..300, path in 0usize..10_000) {
        let (positives, negatives) = random_task(seed, 4);
        for cap in [1, 3, usize::MAX] {
            // A random parent: some positive edge as the seed, then up to two growth
            // steps picked by `path`.
            let graph = &positives[path % positives.len()];
            let edge = graph.edge(path % graph.edge_count());
            let mut pattern = if edge.src == edge.dst {
                TemporalPattern::single_self_loop(graph.label(edge.src))
            } else {
                TemporalPattern::single_edge(graph.label(edge.src), graph.label(edge.dst))
            };
            let mut occ = Occurrences::compute(&pattern, &positives, &negatives, cap);
            for depth in 0..3 {
                let mut materialised = enumerate_extensions(&occ, &positives, &negatives, cap);
                let counted = count_extensions(&occ, &positives, &negatives);
                prop_assert_eq!(counted.len(), materialised.len(), "cap {} depth {}", cap, depth);
                for (count, extension) in counted.iter().zip(&materialised) {
                    prop_assert_eq!(count.key, extension.key);
                    prop_assert_eq!(count.pos_graphs, extension.occurrences.pos.len());
                    prop_assert_eq!(count.neg_graphs, extension.occurrences.neg.len());
                }
                if materialised.is_empty() {
                    break;
                }
                let pick = (path / (depth + 7)) % materialised.len();
                let next = materialised.swap_remove(pick);
                pattern = next.key.apply(&pattern);
                occ = next.occurrences;
            }
        }
    }
}
