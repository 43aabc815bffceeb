//! Subgraph and supergraph pruning (Section 4.2) and the discovered-pattern registry.
//!
//! When the DFS finishes a branch, its root pattern is *registered* together with its
//! residual signatures and the best score found inside the branch. When the DFS later
//! reaches a new pattern `g2`, the registry is consulted:
//!
//! * **Subgraph pruning** (Lemma 4): a registered `g1` with `g2 ⊆t g1`, equal positive
//!   residual sets, whose extra node labels never occur in `g2`'s positive residual node
//!   label set, and whose branch is *dominated* — the top-k no longer admits its best
//!   score ([`TopK::admits`]) — proves that `g2`'s branch cannot contain a top pattern
//!   either.
//! * **Supergraph pruning** (Proposition 2): a registered `g1` with `g1 ⊆t g2`, equal
//!   positive *and* negative residual sets, the same number of nodes, and a dominated
//!   branch, proves the same.
//!
//! Branches cut by the naive upper bound are not registered. Both conditions need equal
//! positive residual sets, hence equal positive support, hence an equal bound: whatever
//! such an entry could dominate, the bound test — which runs first — has already cut.
//!
//! The expensive checks are ordered cheapest-first: integer residual signatures
//! (Lemma 6) before temporal subgraph tests; the test algorithm and the residual
//! equivalence algorithm are both pluggable because the paper's efficiency baselines
//! (`PruneVF2`, `PruneGI`, `LinearScan`) differ exactly in those two components.
//!
//! One subtlety absent from the paper (which assumes unbounded pattern growth): when
//! mining with a maximum pattern size, a *larger* registered pattern may have had its
//! branch cut short by the size cap, in which case its branch-best score says nothing
//! about the deeper branch of a *smaller* new pattern. Registry entries therefore track
//! whether their branch was truncated by the size cap, and subgraph pruning only uses
//! non-truncated entries (or entries of equal size).

use crate::embedding::Occurrences;
use crate::stats::MiningStats;
use crate::topk::TopK;
use std::collections::HashMap;
use tgraph::gindex::gindex_temporal_subgraph;
use tgraph::pattern::TemporalPattern;
use tgraph::residual::{LabelPostings, ResidualSet, ResidualSignature};
use tgraph::seqtest::is_temporal_subgraph;
use tgraph::vf2::vf2_temporal_subgraph;
use tgraph::{Label, TemporalGraph};

/// Which temporal subgraph test implementation the pruning framework uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubgraphTestAlgo {
    /// Sequence-encoding based test of Section 4.3 (TGMiner's choice).
    #[default]
    Sequence,
    /// Modified VF2 (baseline `PruneVF2`).
    Vf2,
    /// One-edge graph-index join (baseline `PruneGI`).
    GraphIndex,
}

impl SubgraphTestAlgo {
    /// Runs the selected test: is `small ⊆t big`?
    pub fn test(self, small: &TemporalPattern, big: &TemporalPattern) -> bool {
        match self {
            SubgraphTestAlgo::Sequence => is_temporal_subgraph(small, big),
            SubgraphTestAlgo::Vf2 => vf2_temporal_subgraph(small, big),
            SubgraphTestAlgo::GraphIndex => gindex_temporal_subgraph(small, big),
        }
    }
}

/// Which residual-graph-set equivalence test the pruning framework uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResidualTestAlgo {
    /// Constant-time integer signature comparison (Section 4.4, TGMiner's choice).
    #[default]
    Signature,
    /// Explicit edge-by-edge comparison (baseline `LinearScan`).
    LinearScan,
}

/// Why a branch was pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// Pruned by subgraph pruning (Lemma 4).
    Subgraph,
    /// Pruned by supergraph pruning (Proposition 2).
    Supergraph,
}

/// Pre-computed facts about the pattern currently being processed, shared between the
/// pruning check and (if the pattern survives) its registry entry.
#[derive(Debug, Clone)]
pub struct PatternFacts {
    /// The pattern itself.
    pub pattern: TemporalPattern,
    /// Positive residual signature `I(Gp, g)`.
    pub sig_pos: ResidualSignature,
    /// Negative residual signature `I(Gn, g)`.
    pub sig_neg: ResidualSignature,
    /// Materialised positive residual set (only in `LinearScan` mode).
    pub res_pos: Option<ResidualSet>,
    /// Materialised negative residual set (only in `LinearScan` mode).
    pub res_neg: Option<ResidualSet>,
    /// Sorted node-label multiset of the pattern.
    pub label_multiset: Vec<Label>,
}

impl PatternFacts {
    /// Gathers the facts needed by the pruning framework for `pattern`.
    pub fn gather(
        pattern: &TemporalPattern,
        occ: &Occurrences,
        positives: &[TemporalGraph],
        negatives: &[TemporalGraph],
        residual_algo: ResidualTestAlgo,
    ) -> Self {
        let res_pos = occ.residual_set_pos();
        let res_neg = occ.residual_set_neg();
        let sig_pos = res_pos.signature(positives);
        let sig_neg = res_neg.signature(negatives);
        let materialise = residual_algo == ResidualTestAlgo::LinearScan;
        Self {
            pattern: pattern.clone(),
            sig_pos,
            sig_neg,
            res_pos: materialise.then_some(res_pos),
            res_neg: materialise.then_some(res_neg),
            label_multiset: pattern.sorted_label_multiset(),
        }
    }
}

/// A fully processed pattern remembered for future pruning decisions.
#[derive(Debug, Clone)]
struct DiscoveredEntry {
    facts: PatternFacts,
    /// Best discriminative score seen anywhere in this pattern's branch.
    branch_best: f64,
    /// Whether the branch exploration was cut short by the maximum pattern size.
    truncated: bool,
}

/// The discovered-pattern registry plus the pruning configuration.
pub struct PruningRegistry {
    entries: Vec<DiscoveredEntry>,
    /// Index from positive residual signature to candidate entries.
    by_sig_pos: HashMap<(u64, u64), Vec<usize>>,
    subgraph_algo: SubgraphTestAlgo,
    residual_algo: ResidualTestAlgo,
    use_subgraph: bool,
    use_supergraph: bool,
}

impl PruningRegistry {
    /// Creates a registry with the given algorithm choices and enabled prunings.
    pub fn new(
        subgraph_algo: SubgraphTestAlgo,
        residual_algo: ResidualTestAlgo,
        use_subgraph: bool,
        use_supergraph: bool,
    ) -> Self {
        Self {
            entries: Vec::new(),
            by_sig_pos: HashMap::new(),
            subgraph_algo,
            residual_algo,
            use_subgraph,
            use_supergraph,
        }
    }

    /// Number of registered (fully processed) patterns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pattern has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registers a processed pattern with the best score of its branch.
    pub fn register(&mut self, facts: PatternFacts, branch_best: f64, truncated: bool) {
        let key = (facts.sig_pos.total_edges, facts.sig_pos.residual_count);
        let idx = self.entries.len();
        self.entries.push(DiscoveredEntry {
            facts,
            branch_best,
            truncated,
        });
        self.by_sig_pos.entry(key).or_default().push(idx);
    }

    /// Checks whether the branch of the pattern described by `facts` can be pruned
    /// given the current top-k `top`. Work counters go into `stats`.
    #[allow(clippy::too_many_arguments)]
    pub fn check(
        &self,
        facts: &PatternFacts,
        occ: &Occurrences,
        postings_pos: &[LabelPostings],
        positives: &[TemporalGraph],
        negatives: &[TemporalGraph],
        top: &TopK<TemporalPattern>,
        stats: &mut MiningStats,
    ) -> Option<PruneReason> {
        if !self.use_subgraph && !self.use_supergraph {
            return None;
        }
        let key = (facts.sig_pos.total_edges, facts.sig_pos.residual_count);
        let candidates = self.by_sig_pos.get(&key)?;
        for &idx in candidates {
            let entry = &self.entries[idx];
            // Both prunings require the registered branch to be dominated: nothing
            // scoring its best could enter the top-k any more.
            if top.admits(entry.branch_best) {
                continue;
            }
            if self.use_subgraph
                && self.subgraph_prunes(entry, facts, occ, postings_pos, positives, stats)
            {
                return Some(PruneReason::Subgraph);
            }
            if self.use_supergraph
                && self.supergraph_prunes(entry, facts, positives, negatives, stats)
            {
                return Some(PruneReason::Supergraph);
            }
        }
        None
    }

    /// Subgraph pruning: `g2 = facts.pattern`, `g1 = entry` with `g2 ⊆t g1`.
    fn subgraph_prunes(
        &self,
        entry: &DiscoveredEntry,
        facts: &PatternFacts,
        occ: &Occurrences,
        postings_pos: &[LabelPostings],
        positives: &[TemporalGraph],
        stats: &mut MiningStats,
    ) -> bool {
        let g1 = &entry.facts;
        let g2 = facts;
        if g2.pattern.edge_count() > g1.pattern.edge_count()
            || g2.pattern.node_count() > g1.pattern.node_count()
        {
            return false;
        }
        // If g1's branch was truncated by the size cap and g1 is strictly larger, its
        // branch-best says nothing about g2's deeper branch (see module docs).
        if entry.truncated && g1.pattern.edge_count() > g2.pattern.edge_count() {
            return false;
        }
        if !multiset_contains(&g1.label_multiset, &g2.label_multiset) {
            return false;
        }
        // Condition (2): identical positive residual graph sets.
        stats.residual_equiv_tests += 1;
        if !self.residuals_equal_pos(g1, g2, positives) {
            return false;
        }
        // Condition (3): labels of g1's unmatched nodes never occur in g2's positive
        // residual node label set. The unmatched labels are exactly the multiset
        // difference because the (unique) node mapping is label-preserving.
        let extra = multiset_difference(&g1.label_multiset, &g2.label_multiset);
        if !extra.is_empty() {
            for &label in &extra {
                for graph_occ in &occ.pos {
                    let postings = &postings_pos[graph_occ.graph_id];
                    if graph_occ
                        .embeddings
                        .iter()
                        .any(|e| postings.label_in_suffix(label, e.last_edge_idx + 1))
                    {
                        return false;
                    }
                }
            }
        }
        // Condition (1): g2 ⊆t g1 — the expensive test goes last.
        stats.subgraph_tests += 1;
        self.subgraph_algo.test(&g2.pattern, &g1.pattern)
    }

    /// Supergraph pruning: `g2 = facts.pattern`, `g1 = entry` with `g1 ⊆t g2`.
    fn supergraph_prunes(
        &self,
        entry: &DiscoveredEntry,
        facts: &PatternFacts,
        positives: &[TemporalGraph],
        negatives: &[TemporalGraph],
        stats: &mut MiningStats,
    ) -> bool {
        let g1 = &entry.facts;
        let g2 = facts;
        if g1.pattern.edge_count() > g2.pattern.edge_count() {
            return false;
        }
        // Condition (4): same number of nodes; with a label-preserving injective mapping
        // this forces identical label multisets, a cheap pre-filter.
        if g1.pattern.node_count() != g2.pattern.node_count()
            || g1.label_multiset != g2.label_multiset
        {
            return false;
        }
        // Conditions (2) and (3): identical positive and negative residual graph sets.
        stats.residual_equiv_tests += 1;
        if !self.residuals_equal_pos(g1, g2, positives) {
            return false;
        }
        stats.residual_equiv_tests += 1;
        if !self.residuals_equal_neg(g1, g2, negatives) {
            return false;
        }
        // Condition (1): g1 ⊆t g2.
        stats.subgraph_tests += 1;
        self.subgraph_algo.test(&g1.pattern, &g2.pattern)
    }

    fn residuals_equal_pos(
        &self,
        a: &PatternFacts,
        b: &PatternFacts,
        positives: &[TemporalGraph],
    ) -> bool {
        match self.residual_algo {
            ResidualTestAlgo::Signature => a.sig_pos == b.sig_pos,
            ResidualTestAlgo::LinearScan => match (&a.res_pos, &b.res_pos) {
                (Some(ra), Some(rb)) => ra.linear_scan_equal(rb, positives),
                _ => a.sig_pos == b.sig_pos,
            },
        }
    }

    fn residuals_equal_neg(
        &self,
        a: &PatternFacts,
        b: &PatternFacts,
        negatives: &[TemporalGraph],
    ) -> bool {
        match self.residual_algo {
            ResidualTestAlgo::Signature => a.sig_neg == b.sig_neg,
            ResidualTestAlgo::LinearScan => match (&a.res_neg, &b.res_neg) {
                (Some(ra), Some(rb)) => ra.linear_scan_equal(rb, negatives),
                _ => a.sig_neg == b.sig_neg,
            },
        }
    }
}

/// Whether sorted multiset `needle` is contained in sorted multiset `haystack`.
fn multiset_contains(haystack: &[Label], needle: &[Label]) -> bool {
    let mut hi = 0usize;
    for &item in needle {
        loop {
            if hi >= haystack.len() {
                return false;
            }
            let h = haystack[hi];
            hi += 1;
            if h == item {
                break;
            }
            if h > item {
                return false;
            }
        }
    }
    true
}

/// Sorted multiset difference `a - b` (both inputs sorted).
fn multiset_difference(a: &[Label], b: &[Label]) -> Vec<Label> {
    let mut out = Vec::new();
    let mut bi = 0usize;
    for &item in a {
        if bi < b.len() && b[bi] == item {
            bi += 1;
        } else if bi < b.len() && b[bi] < item {
            // Should not happen for b ⊆ a, but stay robust.
            while bi < b.len() && b[bi] < item {
                bi += 1;
            }
            if bi < b.len() && b[bi] == item {
                bi += 1;
            } else {
                out.push(item);
            }
        } else {
            out.push(item);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::Label;

    fn l(i: u32) -> Label {
        Label(i)
    }

    #[test]
    fn multiset_contains_respects_multiplicity() {
        assert!(multiset_contains(&[l(0), l(1), l(1), l(2)], &[l(1), l(1)]));
        assert!(!multiset_contains(&[l(0), l(1), l(2)], &[l(1), l(1)]));
        assert!(multiset_contains(&[l(0)], &[]));
        assert!(!multiset_contains(&[], &[l(0)]));
    }

    #[test]
    fn multiset_difference_removes_one_occurrence_per_match() {
        assert_eq!(
            multiset_difference(&[l(0), l(1), l(1), l(2)], &[l(1), l(2)]),
            vec![l(0), l(1)]
        );
        assert_eq!(multiset_difference(&[l(3)], &[]), vec![l(3)]);
        assert!(multiset_difference(&[l(1), l(2)], &[l(1), l(2)]).is_empty());
    }

    fn registry() -> PruningRegistry {
        PruningRegistry::new(
            SubgraphTestAlgo::Sequence,
            ResidualTestAlgo::Signature,
            true,
            true,
        )
    }

    /// One positive graph holding only A -> B, the pattern A -> B and its facts.
    struct OneEdgeTask {
        positives: Vec<TemporalGraph>,
        postings: Vec<LabelPostings>,
        pattern: TemporalPattern,
        occ: Occurrences,
        facts: PatternFacts,
    }

    fn one_edge_task() -> OneEdgeTask {
        let mut b = tgraph::GraphBuilder::new();
        let (a, bb) = (b.add_node(l(0)), b.add_node(l(1)));
        b.add_edge(a, bb, 1).unwrap();
        let positives = vec![b.build()];
        let postings = positives.iter().map(LabelPostings::build).collect();
        let pattern = TemporalPattern::single_edge(l(0), l(1));
        let occ = Occurrences::compute(&pattern, &positives, &[], 10);
        let facts =
            PatternFacts::gather(&pattern, &occ, &positives, &[], ResidualTestAlgo::Signature);
        OneEdgeTask {
            positives,
            postings,
            pattern,
            occ,
            facts,
        }
    }

    /// A top-`k` holding one pattern that scores 1.0: full (F* = 1.0) iff `k` is 1.
    fn top_holding_one(k: usize, pattern: &TemporalPattern) -> TopK<TemporalPattern> {
        let mut top = TopK::new(k);
        top.offer(1.0, 1.0, 0.0, || pattern.clone());
        top
    }

    #[test]
    fn registry_len_tracks_registrations() {
        let mut reg = registry();
        assert!(reg.is_empty());
        let pattern = TemporalPattern::single_edge(l(0), l(1));
        let facts = PatternFacts {
            pattern: pattern.clone(),
            sig_pos: ResidualSignature::default(),
            sig_neg: ResidualSignature::default(),
            res_pos: None,
            res_neg: None,
            label_multiset: pattern.sorted_label_multiset(),
        };
        reg.register(facts, 1.0, false);
        assert_eq!(reg.len(), 1);
    }

    /// The invariant that lets the miner skip registering patterns at the size cap:
    /// an entry that is truncated and strictly larger than the checked pattern is
    /// rejected by both conditions before any test runs, however well the rest of
    /// its facts would fit. (Nothing larger than the cap is ever checked, so against
    /// a pattern at the cap every checked pattern is strictly smaller.)
    #[test]
    fn a_truncated_strictly_larger_entry_never_prunes() {
        // Label C never follows the match of A -> B.
        let task = one_edge_task();
        // A dominated entry for A -> B -> C whose residual facts equal the small
        // pattern's: everything Lemma 4 asks for.
        let big = task.pattern.grow_forward(1, l(2)).unwrap();
        let entry = PatternFacts {
            label_multiset: big.sorted_label_multiset(),
            pattern: big,
            ..task.facts.clone()
        };
        let full = top_holding_one(1, &task.pattern);
        for truncated in [false, true] {
            let mut reg = registry();
            reg.register(entry.clone(), 0.5, truncated);
            let mut stats = MiningStats::default();
            let verdict = reg.check(
                &task.facts,
                &task.occ,
                &task.postings,
                &task.positives,
                &[],
                &full,
                &mut stats,
            );
            if truncated {
                assert_eq!(verdict, None);
                assert_eq!((stats.subgraph_tests, stats.residual_equiv_tests), (0, 0));
            } else {
                assert_eq!(verdict, Some(PruneReason::Subgraph), "the control prunes");
            }
        }
    }

    /// A registered branch is dominated exactly when its best score could no longer
    /// enter the top-k: a tie with F* is, a better score is not, and while the top-k
    /// is unfilled nothing is — not even a branch registered at −∞.
    #[test]
    fn domination_is_the_admission_rule() {
        let task = one_edge_task();
        let full = top_holding_one(1, &task.pattern);
        let unfilled = top_holding_one(2, &task.pattern);
        let cases = [
            (1.0, &full, true),
            (1.5, &full, false),
            (f64::NAN, &full, false),
            (1.0, &unfilled, false),
            (f64::NEG_INFINITY, &unfilled, false),
        ];
        for (branch_best, top, prunes) in cases {
            let mut reg = registry();
            // The same pattern registered before: every other condition holds.
            reg.register(task.facts.clone(), branch_best, false);
            let mut stats = MiningStats::default();
            let verdict = reg.check(
                &task.facts,
                &task.occ,
                &task.postings,
                &task.positives,
                &[],
                top,
                &mut stats,
            );
            assert_eq!(verdict.is_some(), prunes, "branch best {branch_best}");
        }
    }

    #[test]
    fn subgraph_algo_variants_agree() {
        let small = TemporalPattern::single_edge(l(0), l(1));
        let big = small.clone().grow_forward(1, l(2)).unwrap();
        for algo in [
            SubgraphTestAlgo::Sequence,
            SubgraphTestAlgo::Vf2,
            SubgraphTestAlgo::GraphIndex,
        ] {
            assert!(algo.test(&small, &big));
            assert!(!algo.test(&big, &small));
        }
    }
}
