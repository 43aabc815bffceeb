//! `NodeSet`: keyword-query baseline (Section 6.1).
//!
//! Each node label is scored by the same discriminative score function used for graph
//! patterns, where the "frequency" of a label is the fraction of graphs containing a
//! node with that label. The top-k labels form a keyword query; a match of the query is
//! any set of k nodes carrying exactly those labels within a bounded time window (the
//! longest observed lifetime of the target behavior — enforced by the search code in the
//! `query` crate).

use crate::score::ScoreFunction;
use std::collections::{BTreeMap, HashSet};
use tgraph::{Label, TemporalGraph};

/// A keyword behavior query: a multiset of discriminative node labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSetQuery {
    /// The selected labels, most discriminative first.
    pub labels: Vec<Label>,
}

impl NodeSetQuery {
    /// Number of keywords in the query.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the query is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// A label with its discriminative statistics, as reported by [`mine_nodeset_scored`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredLabel {
    /// The node label.
    pub label: Label,
    /// Discriminative score of the label.
    pub score: f64,
    /// Fraction of positive graphs containing the label.
    pub pos_freq: f64,
    /// Fraction of negative graphs containing the label.
    pub neg_freq: f64,
}

/// Scores every label occurring in the positive set and returns them sorted by
/// decreasing score, ties by label. Scores compare with `total_cmp`, so a NaN from a
/// custom score function has a fixed place (a positive NaN first, a negative one last)
/// instead of breaking the total order the sort requires.
pub fn mine_nodeset_scored(
    positives: &[TemporalGraph],
    negatives: &[TemporalGraph],
    score: &dyn ScoreFunction,
) -> Vec<ScoredLabel> {
    let pos_counts = label_graph_counts(positives);
    let neg_counts = label_graph_counts(negatives);
    let np = positives.len().max(1) as f64;
    let nn = negatives.len().max(1) as f64;
    let mut scored: Vec<ScoredLabel> = pos_counts
        .iter()
        .map(|(&label, &pc)| {
            let pos_freq = pc as f64 / np;
            let neg_freq = neg_counts.get(&label).copied().unwrap_or(0) as f64 / nn;
            ScoredLabel {
                label,
                score: score.score(pos_freq, neg_freq),
                pos_freq,
                neg_freq,
            }
        })
        .collect();
    scored.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.label.cmp(&b.label))
    });
    scored
}

/// Mines the `NodeSet` baseline query: the top-`k` discriminative node labels.
pub fn mine_nodeset(
    positives: &[TemporalGraph],
    negatives: &[TemporalGraph],
    score: &dyn ScoreFunction,
    k: usize,
) -> NodeSetQuery {
    let labels = mine_nodeset_scored(positives, negatives, score)
        .into_iter()
        .take(k)
        .map(|s| s.label)
        .collect();
    NodeSetQuery { labels }
}

/// For each label, in how many graphs of `graphs` it appears.
fn label_graph_counts(graphs: &[TemporalGraph]) -> BTreeMap<Label, usize> {
    let mut counts: BTreeMap<Label, usize> = BTreeMap::new();
    for graph in graphs {
        let distinct: HashSet<Label> = graph.labels().iter().copied().collect();
        for label in distinct {
            *counts.entry(label).or_insert(0) += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::LogRatio;
    use tgraph::GraphBuilder;

    fn l(i: u32) -> Label {
        Label(i)
    }

    fn graph_with_labels(labels: &[u32]) -> TemporalGraph {
        let mut b = GraphBuilder::new();
        let nodes: Vec<usize> = labels.iter().map(|&x| b.add_node(l(x))).collect();
        for (i, w) in nodes.windows(2).enumerate() {
            b.add_edge(w[0], w[1], (i + 1) as u64).unwrap();
        }
        b.build()
    }

    #[test]
    fn distinctive_labels_rank_first() {
        // Label 9 appears in every positive and no negative; label 0 appears everywhere.
        let positives = vec![graph_with_labels(&[0, 9]), graph_with_labels(&[0, 9, 1])];
        let negatives = vec![graph_with_labels(&[0, 1]), graph_with_labels(&[0, 2])];
        let query = mine_nodeset(&positives, &negatives, &LogRatio::default(), 2);
        assert_eq!(query.labels[0], l(9));
        assert_eq!(query.len(), 2);
        assert!(!query.is_empty());
    }

    #[test]
    fn scores_reflect_graph_level_frequencies() {
        let positives = vec![graph_with_labels(&[0, 1]), graph_with_labels(&[0, 2])];
        let negatives = vec![graph_with_labels(&[1, 2])];
        let scored = mine_nodeset_scored(&positives, &negatives, &LogRatio::default());
        let label0 = scored.iter().find(|s| s.label == l(0)).unwrap();
        assert!((label0.pos_freq - 1.0).abs() < 1e-12);
        assert_eq!(label0.neg_freq, 0.0);
        let label1 = scored.iter().find(|s| s.label == l(1)).unwrap();
        assert!((label1.pos_freq - 0.5).abs() < 1e-12);
        assert!((label1.neg_freq - 1.0).abs() < 1e-12);
        assert!(label0.score > label1.score);
    }

    #[test]
    fn only_labels_present_in_positives_are_considered() {
        let positives = vec![graph_with_labels(&[0, 1])];
        let negatives = vec![graph_with_labels(&[5, 6])];
        let scored = mine_nodeset_scored(&positives, &negatives, &LogRatio::default());
        assert!(scored.iter().all(|s| s.label == l(0) || s.label == l(1)));
    }

    /// NaN for a label in half the positives, a negative NaN for one in a quarter,
    /// else the positive frequency.
    struct NanAtHalf;

    impl ScoreFunction for NanAtHalf {
        fn score(&self, pos_freq: f64, _neg_freq: f64) -> f64 {
            match pos_freq {
                0.5 => f64::NAN,
                0.25 => -f64::NAN,
                _ => pos_freq,
            }
        }

        fn name(&self) -> &'static str {
            "nan-at-half"
        }
    }

    #[test]
    fn nan_scores_sort_first_and_negative_nan_last() {
        // Label 0 in all four positives, 3 in three, 1 and 4 in two, 2 in one.
        let positives = vec![
            graph_with_labels(&[0, 1, 3, 4]),
            graph_with_labels(&[0, 1, 3, 4]),
            graph_with_labels(&[0, 2, 3]),
            graph_with_labels(&[0]),
        ];
        let order: Vec<Label> = mine_nodeset_scored(&positives, &[], &NanAtHalf)
            .iter()
            .map(|s| s.label)
            .collect();
        assert_eq!(order, [1, 4, 0, 3, 2].map(l));
    }

    #[test]
    fn k_larger_than_label_count_is_harmless() {
        let positives = vec![graph_with_labels(&[0, 1])];
        let query = mine_nodeset(&positives, &[], &LogRatio::default(), 10);
        assert_eq!(query.len(), 2);
    }
}
