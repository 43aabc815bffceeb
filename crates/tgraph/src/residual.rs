//! Residual graphs and their constant-time equivalence signature (Sections 4.2 and 4.4).
//!
//! For a data graph `G` and a match `G'` of a pattern, the residual graph `R(G, G')`
//! keeps exactly the edges of `G` whose timestamps are larger than the largest timestamp
//! in `G'`. Because edges are stored in timestamp order, a residual graph is identified
//! by `(graph id, index of the last matched edge)` and its edge set is the array suffix
//! after that index.
//!
//! Lemma 6 shows that for `g1 ⊆t g2`, the residual graph *sets* are equal iff the sums
//! of residual sizes are equal; [`ResidualSignature`] is that integer compression, which
//! turns the frequent residual-set equivalence tests of subgraph/supergraph pruning into
//! integer comparisons.

use crate::graph::TemporalGraph;
use crate::label::Label;
use crate::matching::Embedding;
use std::collections::BTreeSet;

/// Number of edges in the residual graph of a match whose last matched edge has storage
/// index `last_edge_idx` in `graph`.
#[inline]
pub fn residual_size(graph: &TemporalGraph, last_edge_idx: usize) -> usize {
    graph.edge_count() - last_edge_idx - 1
}

/// A residual graph identified by its owning graph and the suffix start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResidualRef {
    /// Index of the data graph inside the graph set.
    pub graph_id: usize,
    /// First edge index of the residual suffix (last matched edge index + 1).
    pub suffix_start: usize,
}

/// The set of residual graphs `R(G, g)` of a pattern over a graph set, with set
/// semantics (duplicate matches ending on the same edge collapse to one residual graph).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResidualSet {
    refs: BTreeSet<ResidualRef>,
}

impl ResidualSet {
    /// Builds the residual set from per-graph embedding lists.
    pub fn from_embeddings<'a>(
        per_graph: impl IntoIterator<Item = (usize, &'a [Embedding])>,
    ) -> Self {
        let mut refs = BTreeSet::new();
        for (graph_id, embeddings) in per_graph {
            for embedding in embeddings {
                refs.insert(ResidualRef {
                    graph_id,
                    suffix_start: embedding.last_edge_idx + 1,
                });
            }
        }
        Self { refs }
    }

    /// Number of distinct residual graphs.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Iterates over the residual graph references.
    pub fn iter(&self) -> impl Iterator<Item = &ResidualRef> {
        self.refs.iter()
    }

    /// The integer compression `I(G, g) = Σ |R(G, G')|` over the set (Lemma 6), together
    /// with the number of residual graphs.
    pub fn signature(&self, graphs: &[TemporalGraph]) -> ResidualSignature {
        let mut total = 0u64;
        for r in &self.refs {
            total += (graphs[r.graph_id].edge_count() - r.suffix_start) as u64;
        }
        ResidualSignature {
            total_edges: total,
            residual_count: self.refs.len() as u64,
        }
    }

    /// Explicit, edge-by-edge equality of two residual sets. This is the "linear scan"
    /// the `LinearScan` baseline performs instead of comparing signatures; it is
    /// exponentially cheaper to compare [`ResidualSignature`]s, which is the point of
    /// Lemma 6.
    pub fn linear_scan_equal(&self, other: &Self, graphs: &[TemporalGraph]) -> bool {
        if self.refs.len() != other.refs.len() {
            return false;
        }
        for (a, b) in self.refs.iter().zip(other.refs.iter()) {
            if a.graph_id != b.graph_id {
                return false;
            }
            let ga = &graphs[a.graph_id];
            let gb = &graphs[b.graph_id];
            let edges_a = &ga.edges()[a.suffix_start..];
            let edges_b = &gb.edges()[b.suffix_start..];
            if edges_a.len() != edges_b.len() {
                return false;
            }
            // Compare the suffixes element-by-element (the simulated linear scan).
            if edges_a.iter().zip(edges_b.iter()).any(|(x, y)| x != y) {
                return false;
            }
        }
        true
    }
}

/// Integer compression of a residual graph set (Section 4.4). Two residual sets of
/// patterns related by `⊆t` are equal iff their signatures are equal (Lemma 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ResidualSignature {
    /// `I(G, g)`: total number of residual edges summed over the residual set.
    pub total_edges: u64,
    /// Number of distinct residual graphs in the set.
    pub residual_count: u64,
}

/// For one graph, by node label id, one past the index of the last edge with an
/// endpoint of that label (0: no such edge). Answers "does label `ℓ` appear in the
/// residual suffix from index `i`" with one lookup instead of materialising residual
/// node label sets (subgraph-pruning condition 3).
#[derive(Debug, Clone, Default)]
pub struct LabelPostings {
    ends: Vec<usize>,
}

impl LabelPostings {
    /// Builds the table for `graph`.
    pub fn build(graph: &TemporalGraph) -> Self {
        let labels = graph.labels();
        let len = labels.iter().map(|l| l.id() as usize + 1).max();
        let mut ends = vec![0; len.unwrap_or(0)];
        for (idx, edge) in graph.edges().iter().enumerate() {
            for node in [edge.src, edge.dst] {
                ends[labels[node].id() as usize] = idx + 1;
            }
        }
        Self { ends }
    }

    /// Whether any edge with index `>= suffix_start` has an endpoint labeled `label`.
    pub fn label_in_suffix(&self, label: Label, suffix_start: usize) -> bool {
        self.ends
            .get(label.id() as usize)
            .is_some_and(|&end| end > suffix_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::matching::find_embeddings;
    use crate::pattern::TemporalPattern;

    fn l(i: u32) -> Label {
        Label(i)
    }

    /// Materialises the residual node label set `L_R(G, G')` for one residual graph:
    /// the oracle [`LabelPostings`] is checked against.
    fn residual_label_set(graph: &TemporalGraph, suffix_start: usize) -> BTreeSet<Label> {
        let mut labels = BTreeSet::new();
        for edge in &graph.edges()[suffix_start..] {
            labels.insert(graph.label(edge.src));
            labels.insert(graph.label(edge.dst));
        }
        labels
    }

    /// Figure 6-style data graph: A->B @1, B->C @2, C->D @3, D->E @4.
    fn chain_graph() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        let nodes: Vec<usize> = (0..5).map(|i| b.add_node(l(i))).collect();
        for (i, w) in nodes.windows(2).enumerate() {
            b.add_edge(w[0], w[1], (i + 1) as u64).unwrap();
        }
        b.build()
    }

    #[test]
    fn residual_size_is_suffix_length() {
        let g = chain_graph();
        assert_eq!(residual_size(&g, 0), 3);
        assert_eq!(residual_size(&g, 3), 0);
    }

    #[test]
    fn residual_set_collapses_duplicate_suffixes() {
        let g = chain_graph();
        let p = TemporalPattern::single_edge(l(0), l(1));
        let embeddings = find_embeddings(&p, &g, usize::MAX);
        let set = ResidualSet::from_embeddings([(0usize, embeddings.as_slice())]);
        assert_eq!(set.len(), 1);
        let sig = set.signature(std::slice::from_ref(&g));
        assert_eq!(sig.total_edges, 3);
        assert_eq!(sig.residual_count, 1);
    }

    #[test]
    fn signature_matches_lemma6_on_nested_patterns() {
        // g1 = A->B, g2 = A->B->C. In the chain graph both have exactly one match and
        // different residual sets, so their signatures must differ.
        let g = chain_graph();
        let graphs = vec![g];
        let g1 = TemporalPattern::single_edge(l(0), l(1));
        let g2 = g1.clone().grow_forward(1, l(2)).unwrap();
        let e1 = find_embeddings(&g1, &graphs[0], usize::MAX);
        let e2 = find_embeddings(&g2, &graphs[0], usize::MAX);
        let s1 = ResidualSet::from_embeddings([(0usize, e1.as_slice())]).signature(&graphs);
        let s2 = ResidualSet::from_embeddings([(0usize, e2.as_slice())]).signature(&graphs);
        assert_ne!(s1, s2);
    }

    #[test]
    fn linear_scan_agrees_with_signature_comparison() {
        let g = chain_graph();
        let graphs = vec![g];
        let p = TemporalPattern::single_edge(l(1), l(2));
        let q = TemporalPattern::single_edge(l(0), l(1))
            .grow_forward(1, l(2))
            .unwrap();
        let ep = find_embeddings(&p, &graphs[0], usize::MAX);
        let eq = find_embeddings(&q, &graphs[0], usize::MAX);
        let sp = ResidualSet::from_embeddings([(0usize, ep.as_slice())]);
        let sq = ResidualSet::from_embeddings([(0usize, eq.as_slice())]);
        // p (B->C) and q (A->B->C) both end on edge index 1, so their residual sets match.
        assert!(sp.linear_scan_equal(&sq, &graphs));
        assert_eq!(sp.signature(&graphs), sq.signature(&graphs));
    }

    #[test]
    fn label_postings_answer_suffix_membership() {
        let g = chain_graph();
        let postings = LabelPostings::build(&g);
        assert!(postings.label_in_suffix(l(4), 0));
        assert!(postings.label_in_suffix(l(4), 3));
        assert!(!postings.label_in_suffix(l(0), 1));
        assert!(postings.label_in_suffix(l(1), 1));
        assert!(!postings.label_in_suffix(l(1), 2));
        assert!(!postings.label_in_suffix(l(9), 0));
        assert!((0..5).all(|i| postings.label_in_suffix(l(i), 0)));
    }

    #[test]
    fn residual_label_set_matches_postings() {
        let g = chain_graph();
        let postings = LabelPostings::build(&g);
        for start in 0..=g.edge_count() {
            let labels = residual_label_set(&g, start);
            for i in 0..6u32 {
                assert_eq!(
                    labels.contains(&l(i)),
                    postings.label_in_suffix(l(i), start)
                );
            }
        }
    }
}
