//! The TGMiner mining algorithm (Sections 2–4).
//!
//! [`mine`] performs a depth-first search over the T-connected temporal pattern space:
//! every one-edge pattern present in the positive graphs seeds a branch, branches grow
//! through the three consecutive-growth options, and the search is pruned by the naive
//! upper bound (Section 4.1) plus subgraph/supergraph pruning (Section 4.2). Which
//! pruning conditions are active and which algorithms implement the temporal subgraph
//! test and the residual-set equivalence test are all configurable — the paper's five
//! efficiency baselines are exactly such configurations (see [`crate::baselines`]).
//!
//! The miner never compares anything with the threshold `F*` itself: the top-k and
//! the one admission rule live in [`crate::topk`]. A pattern is offered first; its
//! branch is then cut if the top-k would not admit the branch's bound — which, once k
//! patterns are held, includes a bound that merely *ties* `F*`.
//!
//! Embeddings are stored for patterns that will be grown. Patterns at
//! [`MinerConfig::max_edges`] never are, so their parent only counts the graphs that
//! support them ([`crate::growth::count_extensions`]): they are candidates like any
//! other, but store nothing and are never registered for pruning.

use crate::embedding::{frequency, GraphOccurrences, Occurrences};
use crate::growth::{count_extensions, enumerate_extensions};
use crate::pruning::{
    PatternFacts, PruneReason, PruningRegistry, ResidualTestAlgo, SubgraphTestAlgo,
};
use crate::score::ScoreFunction;
use crate::stats::MiningStats;
use crate::topk::{Scored, TopK};
use std::collections::BTreeMap;
use std::time::Instant;
use tgraph::matching::Embedding;
use tgraph::pattern::TemporalPattern;
use tgraph::residual::LabelPostings;
use tgraph::{Label, TemporalGraph};

/// Configuration of a mining run.
#[derive(Debug, Clone)]
pub struct MinerConfig {
    /// Maximum number of edges in mined patterns (the paper explores up to 45; behavior
    /// queries use 6).
    pub max_edges: usize,
    /// Number of top-scoring patterns to return.
    pub top_k: usize,
    /// Maximum number of embeddings kept per (pattern, graph); guards against embedding
    /// explosion in label-repetitive background graphs.
    pub cap_per_graph: usize,
    /// Minimum positive frequency a child pattern must reach to be explored (0 disables).
    pub min_pos_freq: f64,
    /// Enable the naive upper-bound pruning of Section 4.1.
    pub use_upper_bound: bool,
    /// Enable subgraph pruning (Lemma 4).
    pub use_subgraph_pruning: bool,
    /// Enable supergraph pruning (Proposition 2).
    pub use_supergraph_pruning: bool,
    /// Temporal subgraph test implementation used by the pruning framework.
    pub subgraph_test: SubgraphTestAlgo,
    /// Residual-set equivalence test implementation used by the pruning framework.
    pub residual_test: ResidualTestAlgo,
    /// Abort the search after this many candidate patterns have been processed
    /// (0 disables). A tripped budget sets [`MiningStats::budget_exhausted`] and
    /// returns the best patterns found *so far* — a fast-fail containment for
    /// pattern-space blowups, with the per-level frontier in
    /// [`MiningStats::levels`] as the diagnostic.
    pub frontier_budget: usize,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self {
            max_edges: 6,
            top_k: 5,
            cap_per_graph: 200,
            min_pos_freq: 0.0,
            use_upper_bound: true,
            use_subgraph_pruning: true,
            use_supergraph_pruning: true,
            subgraph_test: SubgraphTestAlgo::Sequence,
            residual_test: ResidualTestAlgo::Signature,
            frontier_budget: 0,
        }
    }
}

impl MinerConfig {
    /// The full TGMiner configuration (all prunings, sequence test, signature test).
    pub fn tgminer() -> Self {
        Self::default()
    }

    /// Convenience: same configuration with a different maximum pattern size.
    pub fn with_max_edges(mut self, max_edges: usize) -> Self {
        self.max_edges = max_edges;
        self
    }

    /// Convenience: same configuration with a different `top_k`.
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k;
        self
    }
}

/// One mined temporal pattern with its statistics.
pub type MinedPattern = Scored<TemporalPattern>;

/// Result of a mining run: the top-k patterns (sorted by decreasing score) plus work
/// counters.
#[derive(Debug, Clone, Default)]
pub struct MiningResult {
    /// Top patterns sorted by decreasing discriminative score.
    pub patterns: Vec<MinedPattern>,
    /// Work counters of the run.
    pub stats: MiningStats,
}

impl MiningResult {
    /// The single most discriminative pattern, if any pattern was found.
    pub fn best(&self) -> Option<&MinedPattern> {
        self.patterns.first()
    }

    /// The best score, or negative infinity when nothing was mined.
    pub fn best_score(&self) -> f64 {
        self.best().map(|p| p.score).unwrap_or(f64::NEG_INFINITY)
    }
}

/// Mines the most discriminative T-connected temporal graph patterns distinguishing
/// `positives` from `negatives` under the score function `score`.
pub fn mine(
    positives: &[TemporalGraph],
    negatives: &[TemporalGraph],
    score: &dyn ScoreFunction,
    config: &MinerConfig,
) -> MiningResult {
    let start = Instant::now();
    let postings_pos: Vec<LabelPostings> = if config.use_subgraph_pruning {
        positives.iter().map(LabelPostings::build).collect()
    } else {
        Vec::new()
    };
    let mut miner = Miner {
        positives,
        negatives,
        score,
        config,
        postings_pos,
        registry: PruningRegistry::new(
            config.subgraph_test,
            config.residual_test,
            config.use_subgraph_pruning,
            config.use_supergraph_pruning,
        ),
        top: TopK::new(config.top_k),
        stats: MiningStats::default(),
    };
    for (pattern, occ) in seed_patterns(positives, negatives, config.cap_per_graph) {
        miner.dfs(&pattern, &occ);
    }
    let mut result = MiningResult {
        patterns: miner.top.into_patterns(),
        stats: miner.stats,
    };
    result.stats.elapsed = start.elapsed();
    result
}

/// Seed key for one-edge patterns: either a labeled directed edge or a labeled self-loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SeedKey {
    Edge(Label, Label),
    SelfLoop(Label),
}

/// Enumerates all one-edge patterns present in the positive set together with their
/// occurrences on both sets, in deterministic order.
fn seed_patterns(
    positives: &[TemporalGraph],
    negatives: &[TemporalGraph],
    cap_per_graph: usize,
) -> Vec<(TemporalPattern, Occurrences)> {
    let pos_map = collect_seed_occurrences(positives, cap_per_graph, None);
    let mut neg_map = collect_seed_occurrences(negatives, cap_per_graph, Some(&pos_map));
    pos_map
        .into_iter()
        .map(|(key, pos)| {
            let pattern = match key {
                SeedKey::Edge(src, dst) => TemporalPattern::single_edge(src, dst),
                SeedKey::SelfLoop(label) => TemporalPattern::single_self_loop(label),
            };
            let neg = neg_map.remove(&key).unwrap_or_default();
            (pattern, Occurrences { pos, neg })
        })
        .collect()
}

fn collect_seed_occurrences(
    graphs: &[TemporalGraph],
    cap_per_graph: usize,
    allowed: Option<&BTreeMap<SeedKey, Vec<GraphOccurrences>>>,
) -> BTreeMap<SeedKey, Vec<GraphOccurrences>> {
    let mut out: BTreeMap<SeedKey, Vec<GraphOccurrences>> = BTreeMap::new();
    for (graph_id, graph) in graphs.iter().enumerate() {
        let mut local: BTreeMap<SeedKey, Vec<Embedding>> = BTreeMap::new();
        for (idx, edge) in graph.edges().iter().enumerate() {
            let (key, node_map) = if edge.src == edge.dst {
                (SeedKey::SelfLoop(graph.label(edge.src)), vec![edge.src])
            } else {
                (
                    SeedKey::Edge(graph.label(edge.src), graph.label(edge.dst)),
                    vec![edge.src, edge.dst],
                )
            };
            if let Some(allowed) = allowed {
                if !allowed.contains_key(&key) {
                    continue;
                }
            }
            let bucket = local.entry(key).or_default();
            if bucket.len() >= cap_per_graph {
                continue;
            }
            bucket.push(Embedding {
                node_map,
                last_edge_idx: idx,
            });
        }
        for (key, embeddings) in local {
            out.entry(key).or_default().push(GraphOccurrences {
                graph_id,
                embeddings,
            });
        }
    }
    out
}

struct Miner<'a> {
    positives: &'a [TemporalGraph],
    negatives: &'a [TemporalGraph],
    score: &'a dyn ScoreFunction,
    config: &'a MinerConfig,
    postings_pos: Vec<LabelPostings>,
    registry: PruningRegistry,
    top: TopK<TemporalPattern>,
    stats: MiningStats,
}

impl Miner<'_> {
    /// Frontier budget: once the candidate count trips it, the whole remaining search
    /// is abandoned (every ancestor sees `truncated`, so no aborted branch can ever be
    /// registered as a dominating pruning entry). The best patterns found before the
    /// trip are still returned.
    fn budget_spent(&mut self) -> bool {
        if self.config.frontier_budget > 0
            && self.stats.patterns_processed >= self.config.frontier_budget as u64
        {
            self.stats.budget_exhausted = true;
        }
        self.stats.budget_exhausted
    }

    /// Depth-first exploration of `pattern`'s branch. Returns the best score seen in the
    /// branch and whether the branch was truncated by the size cap.
    fn dfs(&mut self, pattern: &TemporalPattern, occ: &Occurrences) -> (f64, bool) {
        if self.budget_spent() {
            return (f64::NEG_INFINITY, true);
        }
        let embeddings = occ.total_embeddings();
        self.stats.patterns_processed += 1;
        self.stats.embeddings_materialized += embeddings;
        let level = pattern.edge_count();
        {
            let row = self.stats.level_mut(level);
            row.candidates += 1;
            row.embeddings += embeddings;
        }

        let pos_freq = occ.freq_pos(self.positives.len());
        let neg_freq = occ.freq_neg(self.negatives.len());
        let score = self.score.score(pos_freq, neg_freq);
        self.top
            .offer(score, pos_freq, neg_freq, || pattern.clone());
        let mut branch_best = score;

        // Size cap: the pattern itself is kept but its branch is not explored. Only
        // seeds get here (`max_edges <= 1`); larger patterns at the cap are counted by
        // their parent in `count_leaves`. Neither is registered: a truncated entry
        // cannot prune a smaller pattern, and nothing larger is ever checked.
        if level >= self.config.max_edges {
            return (branch_best, true);
        }

        // Naive upper-bound pruning (Section 4.1): every descendant scores at most the
        // bound, and what the top-k does not admit now it never will (F* only grows).
        // The branch is not registered: an entry can only dominate a pattern with the
        // same positive residual set, hence the same support and the same bound — which
        // this very test cuts first.
        if self.config.use_upper_bound && !self.top.admits(self.score.upper_bound(pos_freq)) {
            self.stats.upper_bound_prunes += 1;
            self.stats.level_mut(level).pruned += 1;
            return (branch_best, false);
        }

        // Subgraph / supergraph pruning (Section 4.2).
        let pruning_enabled =
            self.config.use_subgraph_pruning || self.config.use_supergraph_pruning;
        let facts = pruning_enabled.then(|| {
            PatternFacts::gather(
                pattern,
                occ,
                self.positives,
                self.negatives,
                self.config.residual_test,
            )
        });
        if let Some(facts) = &facts {
            if let Some(reason) = self.registry.check(
                facts,
                occ,
                &self.postings_pos,
                self.positives,
                self.negatives,
                &self.top,
                &mut self.stats,
            ) {
                match reason {
                    PruneReason::Subgraph => self.stats.subgraph_prunes += 1,
                    PruneReason::Supergraph => self.stats.supergraph_prunes += 1,
                }
                self.stats.level_mut(level).pruned += 1;
                // The dominating entry proves this branch never beats F*, which only
                // grows, so registering it as dominated is sound.
                self.registry
                    .register(facts.clone(), f64::NEG_INFINITY, false);
                return (branch_best, false);
            }
        }

        self.stats.patterns_expanded += 1;
        let mut truncated = false;
        if level + 1 == self.config.max_edges {
            let (leaves_best, any_leaf) = self.count_leaves(pattern, occ);
            branch_best = branch_best.max(leaves_best);
            truncated = any_leaf;
        } else {
            let extensions = enumerate_extensions(
                occ,
                self.positives,
                self.negatives,
                self.config.cap_per_graph,
            );
            self.stats.extensions_evaluated += extensions.len() as u64;
            for extension in extensions {
                if self.config.min_pos_freq > 0.0
                    && extension.occurrences.freq_pos(self.positives.len())
                        < self.config.min_pos_freq
                {
                    continue;
                }
                let child = extension.key.apply(pattern);
                let (child_best, child_truncated) = self.dfs(&child, &extension.occurrences);
                branch_best = branch_best.max(child_best);
                truncated |= child_truncated;
            }
        }
        if let Some(facts) = facts {
            self.registry.register(facts, branch_best, truncated);
        }
        (branch_best, truncated)
    }

    /// Evaluates the children of `pattern` that sit at the size cap. They are never
    /// grown, so only their support is counted: each is a candidate like any other
    /// (budget, counters, score, top-k offer, in extension order), but no embedding is
    /// stored and the child pattern is built only if it enters the top-k. Returns the
    /// best child score and whether any child was cut by the cap or the budget.
    fn count_leaves(&mut self, pattern: &TemporalPattern, occ: &Occurrences) -> (f64, bool) {
        let leaves = count_extensions(occ, self.positives, self.negatives);
        self.stats.extensions_evaluated += leaves.len() as u64;
        let mut best = f64::NEG_INFINITY;
        let mut candidates = 0u64;
        for leaf in leaves {
            let pos_freq = frequency(leaf.pos_graphs, self.positives.len());
            if self.config.min_pos_freq > 0.0 && pos_freq < self.config.min_pos_freq {
                continue;
            }
            if self.budget_spent() {
                break;
            }
            self.stats.patterns_processed += 1;
            candidates += 1;
            let neg_freq = frequency(leaf.neg_graphs, self.negatives.len());
            let score = self.score.score(pos_freq, neg_freq);
            self.top
                .offer(score, pos_freq, neg_freq, || leaf.key.apply(pattern));
            best = best.max(score);
        }
        if candidates > 0 {
            self.stats.level_mut(pattern.edge_count() + 1).candidates += candidates;
        }
        (best, candidates > 0 || self.stats.budget_exhausted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::LogRatio;
    use tgraph::GraphBuilder;

    fn l(i: u32) -> Label {
        Label(i)
    }

    /// A positive graph with the signature chain A->B->C plus a noise edge.
    fn positive_graph(noise_label: u32) -> TemporalGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(l(0));
        let bb = b.add_node(l(1));
        let c = b.add_node(l(2));
        let n = b.add_node(l(noise_label));
        b.add_edge(a, bb, 1).unwrap();
        b.add_edge(bb, c, 2).unwrap();
        b.add_edge(c, n, 3).unwrap();
        b.build()
    }

    /// A negative graph that contains the same labels but in a different temporal order:
    /// B->C happens before A->B.
    fn negative_graph() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(l(0));
        let bb = b.add_node(l(1));
        let c = b.add_node(l(2));
        b.add_edge(bb, c, 1).unwrap();
        b.add_edge(a, bb, 2).unwrap();
        b.build()
    }

    fn datasets() -> (Vec<TemporalGraph>, Vec<TemporalGraph>) {
        let positives = vec![positive_graph(5), positive_graph(6), positive_graph(7)];
        let negatives = vec![negative_graph(), negative_graph(), negative_graph()];
        (positives, negatives)
    }

    #[test]
    fn finds_the_temporally_discriminative_pattern() {
        let (positives, negatives) = datasets();
        let result = mine(
            &positives,
            &negatives,
            &LogRatio::default(),
            &MinerConfig::default(),
        );
        let best = result.best().expect("patterns found");
        // The chain A->B->C (in that order) occurs in every positive and no negative.
        assert!((best.pos_freq - 1.0).abs() < 1e-12);
        assert_eq!(best.neg_freq, 0.0);
        assert!(best.pattern.edge_count() >= 2);
        // A->B alone and B->C alone occur in negatives too, so the best pattern must
        // involve both edges in order.
        let ab = TemporalPattern::single_edge(l(0), l(1));
        let ab_then_bc = ab.grow_forward(1, l(2)).unwrap();
        assert!(tgraph::seqtest::is_temporal_subgraph(
            &ab_then_bc,
            &best.pattern
        ));
    }

    #[test]
    fn respects_max_edges() {
        let (positives, negatives) = datasets();
        let config = MinerConfig::default().with_max_edges(1);
        let result = mine(&positives, &negatives, &LogRatio::default(), &config);
        assert!(result.patterns.iter().all(|p| p.pattern.edge_count() == 1));
    }

    #[test]
    fn top_k_limits_result_size() {
        let (positives, negatives) = datasets();
        let config = MinerConfig::default().with_top_k(2);
        let result = mine(&positives, &negatives, &LogRatio::default(), &config);
        assert!(result.patterns.len() <= 2);
        assert!(result.patterns.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn pruned_and_unpruned_runs_agree_on_the_best_score() {
        let (positives, negatives) = datasets();
        let full = MinerConfig {
            max_edges: 4,
            ..MinerConfig::default()
        };
        let naive = MinerConfig {
            max_edges: 4,
            use_subgraph_pruning: false,
            use_supergraph_pruning: false,
            use_upper_bound: false,
            ..MinerConfig::default()
        };
        let with_pruning = mine(&positives, &negatives, &LogRatio::default(), &full);
        let without = mine(&positives, &negatives, &LogRatio::default(), &naive);
        assert!((with_pruning.best_score() - without.best_score()).abs() < 1e-9);
        // Pruning must not process more patterns than the exhaustive run.
        assert!(with_pruning.stats.patterns_processed <= without.stats.patterns_processed);
    }

    /// More than k patterns at the score ceiling: once k of them are held, every
    /// other full-support branch ties the bound and is cut where it starts, yet the
    /// answer is the exhaustive run's, tie order included.
    #[test]
    fn ties_with_a_full_top_k_are_pruned_without_changing_the_answer() {
        // Five distinct labels in a chain, in every positive and no negative: each of
        // the chain's T-connected sub-patterns has frequency (1, 0).
        let chain = || {
            let mut b = GraphBuilder::new();
            let nodes: Vec<usize> = (0..5).map(|i| b.add_node(l(i))).collect();
            for (t, w) in nodes.windows(2).enumerate() {
                b.add_edge(w[0], w[1], t as u64 + 1).unwrap();
            }
            b.build()
        };
        let positives = vec![chain(), chain(), chain()];
        let mut b = GraphBuilder::new();
        let (x, y) = (b.add_node(l(8)), b.add_node(l(9)));
        b.add_edge(x, y, 1).unwrap();
        let negatives = vec![b.build()];

        let pruned = MinerConfig::default().with_max_edges(4).with_top_k(3);
        let exhaustive = MinerConfig {
            use_upper_bound: false,
            use_subgraph_pruning: false,
            use_supergraph_pruning: false,
            ..pruned.clone()
        };
        let score = LogRatio::default();
        let with_pruning = mine(&positives, &negatives, &score, &pruned);
        let without = mine(&positives, &negatives, &score, &exhaustive);
        let answer = |result: &MiningResult| -> Vec<(TemporalPattern, [u64; 3])> {
            let bits = |p: &MinedPattern| [p.score, p.pos_freq, p.neg_freq].map(f64::to_bits);
            let entries = result.patterns.iter();
            entries.map(|p| (p.pattern.clone(), bits(p))).collect()
        };
        assert_eq!(answer(&with_pruning), answer(&without));
        let ceiling = score.upper_bound(1.0);
        assert!(without.patterns.iter().all(|p| p.score == ceiling));
        assert_eq!(without.stats.patterns_processed, 10, "all sub-chains");
        // A->B, A->B->C and A->B->C->D fill the top-3; A->B's branch ends there, and
        // the three other seeds are each offered, tie, and are cut.
        assert_eq!(with_pruning.stats.patterns_processed, 6);
        assert_eq!(with_pruning.stats.upper_bound_prunes, 4);
    }

    #[test]
    fn empty_positive_set_yields_no_patterns() {
        let negatives = vec![negative_graph()];
        let result = mine(
            &[],
            &negatives,
            &LogRatio::default(),
            &MinerConfig::default(),
        );
        assert!(result.patterns.is_empty());
        assert_eq!(result.best_score(), f64::NEG_INFINITY);
    }

    #[test]
    fn frontier_budget_aborts_early_with_the_level_diagnostic() {
        let (positives, negatives) = datasets();
        let unbounded = mine(
            &positives,
            &negatives,
            &LogRatio::default(),
            &MinerConfig::default(),
        );
        assert!(!unbounded.stats.budget_exhausted);
        assert!(unbounded.stats.patterns_processed > 2);
        // Per-level candidates must account for every processed pattern.
        let by_level: u64 = unbounded.stats.levels.iter().map(|l| l.candidates).sum();
        assert_eq!(by_level, unbounded.stats.patterns_processed);
        assert!(unbounded.stats.levels.iter().any(|l| l.level == 1));

        let config = MinerConfig {
            frontier_budget: 2,
            ..MinerConfig::default()
        };
        let budgeted = mine(&positives, &negatives, &LogRatio::default(), &config);
        assert!(budgeted.stats.budget_exhausted, "budget must trip");
        assert_eq!(
            budgeted.stats.patterns_processed, 2,
            "processing stops at the budget"
        );
        assert!(
            !budgeted.patterns.is_empty(),
            "patterns found before the trip are still returned"
        );
    }

    #[test]
    fn budgeted_and_unbudgeted_runs_agree_when_the_budget_is_loose() {
        // A budget the search never reaches must not change the result.
        let (positives, negatives) = datasets();
        let unbounded = mine(
            &positives,
            &negatives,
            &LogRatio::default(),
            &MinerConfig::default(),
        );
        let loose = MinerConfig {
            frontier_budget: usize::MAX,
            ..MinerConfig::default()
        };
        let budgeted = mine(&positives, &negatives, &LogRatio::default(), &loose);
        assert!(!budgeted.stats.budget_exhausted);
        let patterns = |result: &MiningResult| -> Vec<TemporalPattern> {
            result.patterns.iter().map(|p| p.pattern.clone()).collect()
        };
        assert_eq!(patterns(&budgeted), patterns(&unbounded));
        assert_eq!(
            budgeted.stats.patterns_processed,
            unbounded.stats.patterns_processed
        );
    }

    #[test]
    fn the_size_cap_level_is_counted_not_stored() {
        let (positives, negatives) = datasets();
        let config = MinerConfig::default().with_max_edges(2);
        let result = mine(&positives, &negatives, &LogRatio::default(), &config);
        let [seeds, leaves] = result.stats.levels[..] else {
            panic!("two levels, got {:?}", result.stats.levels);
        };
        assert!(leaves.candidates > 0);
        assert_eq!((leaves.embeddings, leaves.pruned), (0, 0));
        assert_eq!(result.stats.embeddings_materialized, seeds.embeddings);
        assert_eq!(result.stats.extensions_evaluated, leaves.candidates);
        // The leaves are still scored and kept: A->B->C is the best pattern.
        let best = result.best().expect("patterns found");
        assert_eq!(best.pattern.edge_count(), 2);
        assert_eq!((best.pos_freq, best.neg_freq), (1.0, 0.0));
    }

    #[test]
    fn stats_count_processed_patterns() {
        let (positives, negatives) = datasets();
        let result = mine(
            &positives,
            &negatives,
            &LogRatio::default(),
            &MinerConfig::default(),
        );
        assert!(result.stats.patterns_processed > 0);
        assert!(result.stats.patterns_expanded > 0);
        assert!(result.stats.embeddings_materialized > 0);
    }
}
