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
//! Embeddings are stored for patterns that will be grown. A candidate arrives as
//! compact hits ([`crate::embedding::Hits`]), which give its frequencies; its node maps
//! are built only once the budget, offer, size cap and bound have let it through.
//! Patterns at [`MinerConfig::max_edges`] are never grown, so their parent keeps one
//! hit per graph of them: they are candidates like any other, but store nothing and
//! are never registered for pruning.

use crate::embedding::{frequency, Hit, HitCollector, HitTable, Hits, Occurrences};
use crate::growth::extension_hits;
use crate::pruning::{
    PatternFacts, PruneReason, PruningRegistry, ResidualTestAlgo, SubgraphTestAlgo,
};
use crate::score::ScoreFunction;
use crate::stats::MiningStats;
use crate::topk::{Scored, TopK};
use std::time::Instant;
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
    let pos = seed_hits(positives, config.cap_per_graph, None);
    let neg = seed_hits(negatives, config.cap_per_graph, Some(&pos));
    for (key, hits) in pos.paired(&neg) {
        miner.dfs(1, &|| key.pattern(), None, hits);
    }
    let mut result = MiningResult {
        patterns: miner.top.into_patterns(),
        stats: miner.stats,
    };
    result.stats.elapsed = start.elapsed();
    result
}

/// Seed key for one-edge patterns: either a labeled directed edge or a labeled self-loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum SeedKey {
    Edge(Label, Label),
    SelfLoop(Label),
}

impl SeedKey {
    fn pattern(self) -> TemporalPattern {
        match self {
            SeedKey::Edge(src, dst) => TemporalPattern::single_edge(src, dst),
            SeedKey::SelfLoop(label) => TemporalPattern::single_self_loop(label),
        }
    }
}

/// The one-edge hits of every key in `graphs` (each an edge), at most `cap_per_graph`
/// per graph, restricted to the keys of `allowed` when given. For the background pass,
/// two dense tables by label id hold the source and the destination labels of the
/// allowed keys (a self-loop's label is both); an edge whose labels miss either is
/// rejected before the table is asked.
fn seed_hits(
    graphs: &[TemporalGraph],
    cap_per_graph: usize,
    allowed: Option<&HitTable<SeedKey>>,
) -> HitTable<SeedKey> {
    let (mut sources, mut targets) = (Vec::new(), Vec::new());
    for (key, _) in allowed.into_iter().flat_map(HitTable::runs) {
        let (src, dst) = match key {
            SeedKey::Edge(src, dst) => (src, dst),
            SeedKey::SelfLoop(label) => (label, label),
        };
        for (table, label) in [(&mut sources, src), (&mut targets, dst)] {
            let id = label.id() as usize;
            if id >= table.len() {
                table.resize(id + 1, false);
            }
            table[id] = true;
        }
    }
    let listed = |table: &[bool], label: Label| table.get(label.id() as usize) == Some(&true);
    let mut kept = HitCollector::new(cap_per_graph);
    for (at, graph) in (0..).zip(graphs) {
        assert!(graph.edge_count() <= u32::MAX as usize);
        for (edge, data) in (0..).zip(graph.edges()) {
            let (src, dst) = (graph.label(data.src), graph.label(data.dst));
            let key = if data.src == data.dst {
                SeedKey::SelfLoop(src)
            } else {
                SeedKey::Edge(src, dst)
            };
            if let Some(allowed) = allowed {
                if !listed(&sources, src) || !listed(&targets, dst) || !allowed.contains(key) {
                    continue;
                }
            }
            kept.offer(
                key,
                Hit {
                    at,
                    parent: 0,
                    edge,
                },
            );
        }
        kept.end_graph(at);
    }
    kept.finish()
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

    /// Depth-first exploration of the branch of the `level`-edge pattern `pattern`
    /// makes, whose occurrences are `hits` on `parent`'s (none for a seed). Returns the
    /// best score seen in the branch and whether the size cap truncated it. A candidate
    /// cut before its bound passes never has its node maps or (unless the top-k takes
    /// it) its pattern made.
    fn dfs(
        &mut self,
        level: usize,
        pattern: &dyn Fn() -> TemporalPattern,
        parent: Option<&Occurrences>,
        hits: Hits,
    ) -> (f64, bool) {
        if self.budget_spent() {
            return (f64::NEG_INFINITY, true);
        }
        self.stats.patterns_processed += 1;
        self.stats.level_mut(level).candidates += 1;

        let pos_freq = frequency(hits.pos.graphs(), self.positives.len());
        let neg_freq = frequency(hits.neg.graphs(), self.negatives.len());
        let score = self.score.score(pos_freq, neg_freq);
        self.top.offer(score, pos_freq, neg_freq, pattern);
        let mut branch_best = score;

        // Size cap: the pattern itself is kept but its branch is not explored, and it
        // is never built or registered: a truncated entry cannot prune a smaller
        // pattern, and nothing larger is ever checked.
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

        let pattern = &pattern();
        let occ = hits.build(parent, self.positives, self.negatives);
        let embeddings = occ.total_embeddings();
        self.stats.embeddings_materialized += embeddings;
        self.stats.level_mut(level).embeddings += embeddings;

        // Subgraph / supergraph pruning (Section 4.2).
        let pruning_enabled =
            self.config.use_subgraph_pruning || self.config.use_supergraph_pruning;
        let facts = pruning_enabled.then(|| {
            PatternFacts::gather(
                pattern,
                &occ,
                self.positives,
                self.negatives,
                self.config.residual_test,
            )
        });
        if let Some(facts) = &facts {
            if let Some(reason) = self.registry.check(
                facts,
                &occ,
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
        // Children at the size cap are never grown: their counts, from one hit per
        // graph, are all that is read of them.
        let cap = if level + 1 == self.config.max_edges {
            1
        } else {
            self.config.cap_per_graph
        };
        let (positives, negatives) = (self.positives, self.negatives);
        extension_hits(&occ, positives, negatives, cap, |key, hits| {
            self.stats.extensions_evaluated += 1;
            let child = || key.apply(pattern);
            let (child_best, child_truncated) = self.dfs(level + 1, &child, Some(&occ), hits);
            branch_best = branch_best.max(child_best);
            truncated |= child_truncated;
        });
        if let Some(facts) = facts {
            self.registry.register(facts, branch_best, truncated);
        }
        (branch_best, truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::HitList;
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

    /// A graph of `nodes` nodes over labels `0..alphabet` and `edges` edges between
    /// random endpoints, so self-loops and equal-label pairs with `src != dst` are
    /// common; drawn from an LCG over `state`.
    fn random_graph(state: &mut u64, nodes: u64, edges: u64, alphabet: u64) -> TemporalGraph {
        let mut next = |bound: u64| {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*state >> 33) % bound
        };
        let mut b = GraphBuilder::new();
        for _ in 0..nodes {
            b.add_node(l(next(alphabet) as u32));
        }
        for ts in 1..=edges {
            let (src, dst) = (next(nodes) as usize, next(nodes) as usize);
            b.add_edge(src, dst, ts).unwrap();
        }
        b.build()
    }

    /// A seed table's keys, each with its graphs' hits.
    fn listed(table: &HitTable<SeedKey>) -> Vec<(SeedKey, Vec<Vec<Hit>>)> {
        let lists = |list: HitList| list.per_graph().map(|(_, hits)| hits.collect()).collect();
        table.runs().map(|(key, list)| (key, lists(list))).collect()
    }

    /// The background pass's label tables only skip work: each seed's negative
    /// occurrences equal an unfiltered scan of the negatives restricted to the positive
    /// keys, at every cap — with self-loops, equal-label pairs, and labels 4..8 that
    /// only the negatives carry, above every positive label.
    #[test]
    fn the_background_label_filter_keeps_exactly_the_positive_keys() {
        let (mut self_loops, mut equal_pairs, mut foreign_edges) = (0, 0, 0);
        for seed in 0..64u64 {
            let mut state = seed;
            let positives: Vec<_> = (0..3).map(|_| random_graph(&mut state, 5, 8, 4)).collect();
            let negatives: Vec<_> = (0..4).map(|_| random_graph(&mut state, 6, 12, 8)).collect();
            for cap in [1, 3, 64] {
                let pos = seed_hits(&positives, cap, None);
                let unfiltered = seed_hits(&negatives, cap, None);
                foreign_edges += unfiltered
                    .runs()
                    .filter(|(key, _)| match key {
                        SeedKey::Edge(a, b) => a.id().max(b.id()) >= 4,
                        SeedKey::SelfLoop(a) => a.id() >= 4,
                    })
                    .count();
                let mut want = listed(&unfiltered);
                want.retain(|&(key, _)| pos.contains(key));
                let filtered = seed_hits(&negatives, cap, Some(&pos));
                assert_eq!(listed(&filtered), want, "seed {seed}, cap {cap}");
                for (key, _) in want {
                    match key {
                        SeedKey::SelfLoop(_) => self_loops += 1,
                        SeedKey::Edge(a, b) if a == b => equal_pairs += 1,
                        _ => {}
                    }
                }
            }
        }
        assert!(self_loops > 0 && equal_pairs > 0 && foreign_edges > 0);
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
