//! Property-based tests for the miner: score-function monotonicity, pruning soundness
//! (pruned and exhaustive searches return the same answer), and frequency correctness of
//! mined patterns.

use proptest::prelude::*;
use tgminer::baselines::MinerVariant;
use tgminer::embedding::Occurrences;
use tgminer::growth::{count_extensions, enumerate_extensions};
use tgminer::score::{GTest, InfoGain, LogRatio, ScoreFunction};
use tgminer::{mine, MinerConfig, MiningResult};
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

/// The whole answer of a run: the top patterns in order, each with the bits of its
/// score and frequencies.
fn answer(result: &MiningResult) -> Vec<(TemporalPattern, [u64; 3])> {
    result
        .patterns
        .iter()
        .map(|p| {
            let bits = [p.score, p.pos_freq, p.neg_freq].map(f64::to_bits);
            (p.pattern.clone(), bits)
        })
        .collect()
}

/// One sampled oracle case: a random task, a score function and the miner's limits.
struct OracleCase {
    positives: Vec<TemporalGraph>,
    negatives: Vec<TemporalGraph>,
    score: Box<dyn ScoreFunction>,
    max_edges: usize,
    top_k: usize,
}

impl OracleCase {
    fn new(seed: u64, graphs: usize, max_edges: usize, k: usize, f: usize) -> Self {
        let (positives, negatives) = random_task(seed, graphs);
        let score: Box<dyn ScoreFunction> = match f {
            0 => Box::new(LogRatio::default()),
            1 => Box::new(GTest::default()),
            _ => Box::new(InfoGain::new(positives.len(), negatives.len())),
        };
        Self {
            positives,
            negatives,
            score,
            max_edges,
            top_k: [1, 3, 5, 24][k],
        }
    }

    /// `config` with this case's limits applied.
    fn mine(&self, config: MinerConfig) -> MiningResult {
        let config = MinerConfig {
            max_edges: self.max_edges,
            top_k: self.top_k,
            cap_per_graph: 64,
            ..config
        };
        mine(&self.positives, &self.negatives, &*self.score, &config)
    }

    /// The reference: no bound, no subgraph pruning, no supergraph pruning.
    fn exhaustive(&self) -> MiningResult {
        self.mine(MinerConfig {
            use_upper_bound: false,
            use_subgraph_pruning: false,
            use_supergraph_pruning: false,
            ..MinerConfig::default()
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pruned miner returns the exhaustive miner's whole answer — every top-k
    /// pattern, in order, with the same score and frequencies to the bit (pruning
    /// soundness, Theorem 2, and the exactness of pruning on a tie) — and never
    /// processes more patterns.
    #[test]
    fn pruning_preserves_the_best_pattern(
        seed in 0u64..100_000, graphs in 3usize..=5, max_edges in 2usize..=4, k in 0usize..4, f in 0usize..3
    ) {
        let case = OracleCase::new(seed, graphs, max_edges, k, f);
        let with_pruning = case.mine(MinerConfig::default());
        let without = case.exhaustive();
        prop_assert_eq!(answer(&with_pruning), answer(&without), "{}", case.score.name());
        prop_assert!(with_pruning.stats.patterns_processed <= without.stats.patterns_processed);
    }

    /// All six miner variants return the exhaustive miner's whole answer.
    #[test]
    fn all_variants_agree_on_the_best_score(
        seed in 0u64..100_000, graphs in 3usize..=5, max_edges in 2usize..=4, k in 0usize..4, f in 0usize..3
    ) {
        let case = OracleCase::new(seed, graphs, max_edges, k, f);
        let reference = answer(&case.exhaustive());
        for variant in MinerVariant::all() {
            let result = case.mine(variant.config(max_edges));
            prop_assert_eq!(answer(&result), reference.clone(), "{} under {}", variant.name(), case.score.name());
        }
    }
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
