//! Occurrence (embedding) bookkeeping for patterns during mining.
//!
//! TGMiner is embedding-based: every live pattern keeps, for each data graph that
//! contains it, the list of its matches. Frequencies are "how many graphs have at least
//! one match" (Section 2), candidate extensions are enumerated from the residual edges
//! of each match (Section 3), and residual signatures (Section 4.4) are accumulated from
//! the matches' suffix sizes.

use tgraph::matching::{find_embeddings, Embedding};
use tgraph::pattern::TemporalPattern;
use tgraph::residual::ResidualSet;
use tgraph::TemporalGraph;

/// The embeddings of one pattern inside one data graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphOccurrences {
    /// Index of the data graph in its graph set.
    pub graph_id: usize,
    /// All (or up to a cap) matches of the pattern in that graph.
    pub embeddings: Vec<Embedding>,
}

/// The occurrences of one pattern over the positive and negative graph sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Occurrences {
    /// Per-graph occurrences in the positive set (graphs without a match are omitted).
    pub pos: Vec<GraphOccurrences>,
    /// Per-graph occurrences in the negative set (graphs without a match are omitted).
    pub neg: Vec<GraphOccurrences>,
}

/// Fraction of a set of `total` graphs that `supporting` of them make up (0 for an
/// empty set).
pub fn frequency(supporting: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        supporting as f64 / total as f64
    }
}

impl Occurrences {
    /// Fraction of positive graphs containing the pattern.
    pub fn freq_pos(&self, n_pos: usize) -> f64 {
        frequency(self.pos.len(), n_pos)
    }

    /// Fraction of negative graphs containing the pattern.
    pub fn freq_neg(&self, n_neg: usize) -> f64 {
        frequency(self.neg.len(), n_neg)
    }

    /// Total number of stored embeddings (positive + negative), for statistics.
    pub fn total_embeddings(&self) -> u64 {
        let p: usize = self.pos.iter().map(|g| g.embeddings.len()).sum();
        let n: usize = self.neg.iter().map(|g| g.embeddings.len()).sum();
        (p + n) as u64
    }

    /// Computes the occurrences of `pattern` from scratch over both graph sets.
    ///
    /// The from-scratch reference that tests check mining against; the miner never
    /// calls it. Its seeds come from one scan of each graph's edges
    /// (`miner::seed_patterns`), and every larger pattern's occurrences from its
    /// parent's embeddings (see [`crate::growth`]).
    pub fn compute(
        pattern: &TemporalPattern,
        positives: &[TemporalGraph],
        negatives: &[TemporalGraph],
        cap_per_graph: usize,
    ) -> Self {
        let collect = |graphs: &[TemporalGraph]| {
            graphs
                .iter()
                .enumerate()
                .filter_map(|(graph_id, graph)| {
                    let embeddings = find_embeddings(pattern, graph, cap_per_graph);
                    if embeddings.is_empty() {
                        None
                    } else {
                        Some(GraphOccurrences {
                            graph_id,
                            embeddings,
                        })
                    }
                })
                .collect()
        };
        Self {
            pos: collect(positives),
            neg: collect(negatives),
        }
    }

    /// The positive residual graph set `R(Gp, g)` (set semantics).
    pub fn residual_set_pos(&self) -> ResidualSet {
        ResidualSet::from_embeddings(
            self.pos
                .iter()
                .map(|g| (g.graph_id, g.embeddings.as_slice())),
        )
    }

    /// The negative residual graph set `R(Gn, g)`.
    pub fn residual_set_neg(&self) -> ResidualSet {
        ResidualSet::from_embeddings(
            self.neg
                .iter()
                .map(|g| (g.graph_id, g.embeddings.as_slice())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::residual::ResidualSignature;
    use tgraph::{GraphBuilder, Label};

    fn l(i: u32) -> Label {
        Label(i)
    }

    fn chain(labels: &[u32]) -> TemporalGraph {
        let mut b = GraphBuilder::new();
        let nodes: Vec<usize> = labels.iter().map(|&x| b.add_node(l(x))).collect();
        for (i, w) in nodes.windows(2).enumerate() {
            b.add_edge(w[0], w[1], (i + 1) as u64).unwrap();
        }
        b.build()
    }

    #[test]
    fn compute_counts_graph_level_frequency() {
        let positives = vec![chain(&[0, 1, 2]), chain(&[0, 1, 3]), chain(&[4, 5])];
        let negatives = vec![chain(&[0, 1]), chain(&[7, 8])];
        let p = TemporalPattern::single_edge(l(0), l(1));
        let occ = Occurrences::compute(&p, &positives, &negatives, 100);
        assert_eq!(occ.pos.len(), 2);
        assert_eq!(occ.neg.len(), 1);
        assert!((occ.freq_pos(positives.len()) - 2.0 / 3.0).abs() < 1e-12);
        assert!((occ.freq_neg(negatives.len()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn frequencies_handle_empty_sets() {
        let occ = Occurrences::default();
        assert_eq!(occ.freq_pos(0), 0.0);
        assert_eq!(occ.freq_neg(0), 0.0);
    }

    #[test]
    fn residual_signatures_reflect_suffix_sizes() {
        let positives = vec![chain(&[0, 1, 2, 3])]; // edges: 0->1, 1->2, 2->3
        let p = TemporalPattern::single_edge(l(0), l(1));
        let occ = Occurrences::compute(&p, &positives, &[], 100);
        let sig = occ.residual_set_pos().signature(&positives);
        assert_eq!(sig.total_edges, 2);
        assert_eq!(sig.residual_count, 1);
        assert_eq!(
            occ.residual_set_neg().signature(&[]),
            ResidualSignature::default()
        );
    }

    #[test]
    fn total_embeddings_counts_both_sides() {
        let positives = vec![chain(&[0, 1, 0, 1])]; // edges 0->1, 1->0, 0->1
        let negatives = vec![chain(&[0, 1])];
        let p = TemporalPattern::single_edge(l(0), l(1));
        let occ = Occurrences::compute(&p, &positives, &negatives, 100);
        assert_eq!(occ.total_embeddings(), 3);
    }
}
