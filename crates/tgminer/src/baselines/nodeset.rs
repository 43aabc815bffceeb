//! `NodeSet`: keyword-query baseline (Section 6.1).
//!
//! Each node label is scored by the same discriminative score function used for graph
//! patterns, where the "frequency" of a label is the fraction of graphs containing a
//! node with that label. The top-k labels form a keyword query; a match of the query is
//! any set of k nodes carrying exactly those labels within a bounded time window (the
//! longest observed lifetime of the target behavior — enforced by the search code in the
//! `query` crate).
//!
//! The per-label graph counts of each side are plain vectors indexed by label id
//! (`ranking::label_graph_counts`, the table the interest ranker reads), and labels
//! are visited in id order.

use crate::ranking::label_graph_counts;
use crate::score::ScoreFunction;
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

/// A label with its discriminative score, as reported by [`mine_nodeset_scored`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct ScoredLabel {
    label: Label,
    /// The score of the label's fractions of positive and negative graphs.
    score: f64,
}

/// Scores every label occurring in the positive set and returns them sorted by
/// decreasing score, ties by label. Scores compare with `total_cmp`, so a NaN from a
/// custom score function has a fixed place (a positive NaN first, a negative one last)
/// instead of breaking the total order the sort requires.
fn mine_nodeset_scored(
    positives: &[TemporalGraph],
    negatives: &[TemporalGraph],
    score: &dyn ScoreFunction,
) -> Vec<ScoredLabel> {
    let pos_counts = label_graph_counts(positives);
    let neg_counts = label_graph_counts(negatives);
    let np = positives.len().max(1) as f64;
    let nn = negatives.len().max(1) as f64;
    let mut scored: Vec<ScoredLabel> = (0u32..)
        .zip(pos_counts)
        .filter(|&(_, pc)| pc > 0)
        .map(|(id, pc)| {
            let nc = neg_counts.get(id as usize).copied().unwrap_or(0);
            ScoredLabel {
                label: Label(id),
                score: score.score(pc as f64 / np, nc as f64 / nn),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::tests::{random_label_graphs, reference_counts};
    use crate::score::{GTest, LogRatio};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
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
        let score = LogRatio::default();
        let scored = mine_nodeset_scored(&positives, &negatives, &score);
        let score_of = |label| scored.iter().find(|s| s.label == l(label)).unwrap().score;
        assert_eq!(score_of(0), score.score(1.0, 0.0));
        assert_eq!(score_of(1), score.score(0.5, 1.0));
        assert!(score_of(0) > score_of(1));
    }

    /// `mine_nodeset_scored` over the map form of the counts: labels in map order, then
    /// the same total sort.
    fn reference_scored(
        positives: &[TemporalGraph],
        negatives: &[TemporalGraph],
        score: &dyn ScoreFunction,
    ) -> Vec<(Label, u64)> {
        let pos_counts: BTreeMap<Label, usize> = reference_counts(positives).into_iter().collect();
        let neg_counts = reference_counts(negatives);
        let np = positives.len().max(1) as f64;
        let nn = negatives.len().max(1) as f64;
        let mut scored: Vec<(Label, f64)> = pos_counts
            .iter()
            .map(|(label, &pc)| {
                let nc = neg_counts.get(label).copied().unwrap_or(0);
                (*label, score.score(pc as f64 / np, nc as f64 / nn))
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.into_iter().map(|(l, s)| (l, s.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense tables score and order every label as the map form does, bit for
        /// bit: empty sets and graphs, repeated labels, label 50,000, and the NaN
        /// scores of `NanAtHalf` included.
        #[test]
        fn scored_labels_equal_the_map_based_form(seed in 0u64..u64::MAX, f in 0usize..3) {
            let positives = random_label_graphs(seed);
            let negatives = random_label_graphs(!seed);
            let score: &dyn ScoreFunction = match f {
                0 => &LogRatio::default(),
                1 => &GTest::default(),
                _ => &NanAtHalf,
            };
            let dense: Vec<(Label, u64)> = mine_nodeset_scored(&positives, &negatives, score)
                .iter()
                .map(|s| (s.label, s.score.to_bits()))
                .collect();
            prop_assert_eq!(&dense, &reference_scored(&positives, &negatives, score));
            let query = mine_nodeset(&positives, &negatives, score, 3);
            let top: Vec<Label> = dense.iter().take(3).map(|&(l, _)| l).collect();
            prop_assert_eq!(query.labels, top);
        }
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
