//! Domain-knowledge based ranking of mined patterns (Appendix M).
//!
//! TGMiner may return several patterns with the same highest discriminative score; they
//! are further ranked by an *interest score*: each node label `l` contributes
//! `1 / freq(l)` where `freq(l)` is the number of training graphs containing `l`, and
//! labels on a blacklist (temporary files, caches, `/proc` entries, ...) contribute
//! nothing. A pattern's interest is the sum over its nodes; the top-k patterns by
//! (discriminative score, interest) become the behavior queries.
//!
//! On a separable corpus whole families of patterns tie on both keys, so the order
//! continues past Appendix M until it is total: higher positive frequency, then *more*
//! edges (of two equally good patterns the descendant is the more specific query — its
//! one-edge ancestor also fires on the same edges in any other order), then the
//! canonical pattern order. A total order is a function of the patterns alone: which
//! of them a search reached first cannot change the selection.
//!
//! `freq` is a plain vector indexed by label id ([`label_graph_counts`], which the
//! `NodeSet` baseline shares): one pass over the node labels, no per-graph set, sort
//! or hash. It is computed on every call, from the graphs it is handed.

use crate::miner::{MinedPattern, MiningResult};
use std::collections::HashSet;
use tgraph::pattern::TemporalPattern;
use tgraph::{Label, TemporalGraph};

/// For each label id, the number of `graphs` with at least one node of that label; ids
/// above the largest label seen are absent, so the table is as long as the largest id
/// (which `LabelInterner` keeps dense). One pass over the node labels, with a
/// per-label stamp of the last graph that counted it.
pub(crate) fn label_graph_counts<'a>(
    graphs: impl IntoIterator<Item = &'a TemporalGraph>,
) -> Vec<usize> {
    let mut counts = Vec::new();
    let mut last_graph = Vec::new();
    for (stamp, graph) in (1usize..).zip(graphs) {
        for label in graph.labels() {
            let id = label.id() as usize;
            if id >= counts.len() {
                counts.resize(id + 1, 0);
                last_graph.resize(id + 1, 0);
            }
            if last_graph[id] != stamp {
                last_graph[id] = stamp;
                counts[id] += 1;
            }
        }
    }
    counts
}

/// Interest-score ranker built from label popularity in the training data.
#[derive(Debug, Clone, Default)]
pub struct InterestRanker {
    /// `freq(l)` by label id.
    label_graph_freq: Vec<usize>,
    blacklist: HashSet<Label>,
}

impl InterestRanker {
    /// Builds the ranker from all training graphs (positives and negatives alike):
    /// `freq(l)` counts how many graphs contain at least one node labeled `l`.
    pub fn from_training<'a>(graphs: impl IntoIterator<Item = &'a TemporalGraph>) -> Self {
        Self {
            label_graph_freq: label_graph_counts(graphs),
            blacklist: HashSet::new(),
        }
    }

    /// Adds labels whose interest score is forced to zero (e.g. "TmpFile", "CacheFile").
    pub fn with_blacklist(mut self, labels: impl IntoIterator<Item = Label>) -> Self {
        self.blacklist.extend(labels);
        self
    }

    /// Interest score of a single label: `1 / freq(l)`, or 0 for blacklisted labels.
    /// Labels never seen in training get the maximum interest of 1.
    pub fn interest(&self, label: Label) -> f64 {
        if self.blacklist.contains(&label) {
            return 0.0;
        }
        match self.label_graph_freq.get(label.id() as usize) {
            Some(&freq) if freq > 0 => 1.0 / freq as f64,
            _ => 1.0,
        }
    }

    /// Interest score of a pattern: the sum of its nodes' interest scores.
    fn pattern_interest(&self, pattern: &TemporalPattern) -> f64 {
        pattern.labels().iter().map(|&l| self.interest(l)).sum()
    }

    /// Sorts patterns into the selection order: decreasing discriminative score, then
    /// decreasing interest (Appendix M), then decreasing positive frequency, then more
    /// edges first, then the canonical pattern order — a total order (see the module
    /// docs), compared with `total_cmp` so that not even a NaN score from a degenerate
    /// score function can abort the sort.
    pub fn rank(&self, patterns: &mut [MinedPattern]) {
        patterns.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| {
                    self.pattern_interest(&b.pattern)
                        .total_cmp(&self.pattern_interest(&a.pattern))
                })
                .then_with(|| b.pos_freq.total_cmp(&a.pos_freq))
                .then_with(|| b.pattern.edge_count().cmp(&a.pattern.edge_count()))
                .then_with(|| a.pattern.cmp(&b.pattern))
        });
    }

    /// Selects the top-`k` query patterns from a mining result (Appendix M's final step).
    pub fn top_queries(&self, result: &MiningResult, k: usize) -> Vec<MinedPattern> {
        let mut patterns = result.patterns.clone();
        self.rank(&mut patterns);
        patterns.truncate(k);
        patterns
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::score::LogRatio;
    use crate::{mine, MinerConfig};
    use proptest::prelude::*;
    use std::collections::HashMap;
    use tgraph::generator::{random_t_connected_graph, RandomGraphSpec};
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

    /// A random graph set for the label-table oracles: up to six chains of up to eight
    /// nodes over labels 0..5, so labels repeat within a graph. Sets and graphs may be
    /// empty, and about one node in twelve carries label 50,000, far above the rest.
    pub(crate) fn random_label_graphs(seed: u64) -> Vec<TemporalGraph> {
        let mut state = seed;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        (0..next(7))
            .map(|_| {
                let labels: Vec<u32> = (0..next(9))
                    .map(|_| match next(12) {
                        0 => 50_000,
                        x => (x % 5) as u32,
                    })
                    .collect();
                graph_with_labels(&labels)
            })
            .collect()
    }

    /// The map form of `label_graph_counts`: each graph's distinct labels as a set,
    /// counted into a map.
    pub(crate) fn reference_counts(graphs: &[TemporalGraph]) -> HashMap<Label, usize> {
        let mut counts = HashMap::new();
        for graph in graphs {
            let distinct: HashSet<Label> = graph.labels().iter().copied().collect();
            for label in distinct {
                *counts.entry(label).or_insert(0) += 1;
            }
        }
        counts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense table equals the map form: it ends at the largest label seen, every
        /// id reads the map's count (0 if absent), and `interest` — absent or zero count
        /// gives 1 — reads the same from either.
        #[test]
        fn dense_label_counts_equal_a_set_per_graph(seed in 0u64..u64::MAX) {
            let graphs = random_label_graphs(seed);
            let dense = label_graph_counts(&graphs);
            let reference = reference_counts(&graphs);
            let end = reference.keys().map(|l| l.id() as usize + 1).max().unwrap_or(0);
            prop_assert_eq!(dense.len(), end);
            for (id, &count) in (0u32..).zip(&dense) {
                prop_assert_eq!(count, reference.get(&l(id)).copied().unwrap_or(0));
            }
            let ranker = InterestRanker::from_training(&graphs);
            for id in (0..7).chain([49_999, 50_000, 50_001, u32::MAX]) {
                let expected = match reference.get(&l(id)) {
                    Some(&freq) if freq > 0 => 1.0 / freq as f64,
                    _ => 1.0,
                };
                prop_assert_eq!(ranker.interest(l(id)).to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn a_label_counts_once_per_graph_however_often_it_repeats() {
        let graphs = [
            graph_with_labels(&[3, 3, 3, 50_000]),
            graph_with_labels(&[]),
            graph_with_labels(&[50_000, 3, 50_000]),
            graph_with_labels(&[1]),
        ];
        let counts = label_graph_counts(&graphs);
        assert_eq!(counts.len(), 50_001);
        assert_eq!((counts[1], counts[3], counts[50_000]), (1, 2, 2));
        assert_eq!(counts.iter().sum::<usize>(), 5);
        assert!(label_graph_counts(&graphs[1..2]).is_empty());
    }

    #[test]
    fn rare_labels_are_more_interesting() {
        let graphs = vec![
            graph_with_labels(&[0, 1]),
            graph_with_labels(&[0, 1]),
            graph_with_labels(&[0, 2]),
        ];
        let ranker = InterestRanker::from_training(&graphs);
        assert!(ranker.interest(l(2)) > ranker.interest(l(0)));
        assert!((ranker.interest(l(0)) - 1.0 / 3.0).abs() < 1e-12);
        assert!((ranker.interest(l(2)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn blacklisted_labels_contribute_nothing() {
        let graphs = vec![graph_with_labels(&[0, 1])];
        let ranker = InterestRanker::from_training(&graphs).with_blacklist([l(1)]);
        assert_eq!(ranker.interest(l(1)), 0.0);
        let p = TemporalPattern::single_edge(l(0), l(1));
        assert!((ranker.pattern_interest(&p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unseen_labels_get_maximum_interest() {
        let ranker = InterestRanker::from_training(std::iter::empty());
        assert_eq!(ranker.interest(l(42)), 1.0);
    }

    #[test]
    fn ranking_breaks_score_ties_by_interest() {
        let graphs = vec![
            graph_with_labels(&[0, 1, 2]),
            graph_with_labels(&[0, 1]),
            graph_with_labels(&[0, 1]),
        ];
        let ranker = InterestRanker::from_training(&graphs);
        let common = MinedPattern {
            pattern: TemporalPattern::single_edge(l(0), l(1)),
            score: 2.0,
            pos_freq: 1.0,
            neg_freq: 0.0,
        };
        let rare = MinedPattern {
            pattern: TemporalPattern::single_edge(l(0), l(2)),
            score: 2.0,
            pos_freq: 1.0,
            neg_freq: 0.0,
        };
        let mut patterns = vec![common.clone(), rare.clone()];
        ranker.rank(&mut patterns);
        assert_eq!(patterns[0].pattern, rare.pattern);
        let higher_score = MinedPattern {
            score: 3.0,
            ..common
        };
        let mut patterns = vec![rare, higher_score.clone()];
        ranker.rank(&mut patterns);
        assert_eq!(patterns[0].pattern, higher_score.pattern);
        // Interest still outranks size: at equal score a one-edge pattern over the rare
        // label goes before a two-edge pattern over the common ones.
        let rare = patterns[1].clone();
        let larger_common = MinedPattern {
            pattern: higher_score.pattern.grow_inward(1, 0).unwrap(),
            score: rare.score,
            ..higher_score
        };
        let mut patterns = vec![larger_common, rare.clone()];
        ranker.rank(&mut patterns);
        assert_eq!(patterns[0].pattern, rare.pattern);
    }

    #[test]
    fn an_equally_good_descendant_ranks_before_its_ancestor() {
        // The e2e fixture's case: `[10→11]` and its consecutive-growth child
        // `[10→11, 11→11]` tie on score, interest (no new node) and positive frequency.
        // The child is the query to deploy — the parent also fires on a reversed replay.
        let parent = MinedPattern {
            pattern: TemporalPattern::single_edge(l(10), l(11)),
            score: 13.8155,
            pos_freq: 1.0,
            neg_freq: 0.0,
        };
        let child = MinedPattern {
            pattern: parent.pattern.grow_inward(1, 1).unwrap(),
            ..parent.clone()
        };
        assert!(
            parent.pattern < child.pattern,
            "the pattern key alone says parent"
        );
        let ranker = InterestRanker::from_training(&[graph_with_labels(&[10, 11])]);
        for mut patterns in [
            vec![parent.clone(), child.clone()],
            vec![child.clone(), parent.clone()],
        ] {
            ranker.rank(&mut patterns);
            assert_eq!(patterns[0].pattern, child.pattern);
            assert_eq!(patterns[1].pattern, parent.pattern);
        }
        // Positive frequency is asked before size: a more frequent ancestor stays ahead.
        let rarer_child = MinedPattern {
            pos_freq: 0.5,
            ..child
        };
        let mut patterns = vec![rarer_child, parent.clone()];
        ranker.rank(&mut patterns);
        assert_eq!(patterns[0].pattern, parent.pattern);
    }

    /// The ranked sequence as comparable values.
    fn sequence(patterns: &[MinedPattern]) -> Vec<(TemporalPattern, u64)> {
        patterns
            .iter()
            .map(|p| (p.pattern.clone(), p.score.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `rank` is a total order over the patterns themselves: whatever order a
        /// search hands a mined top-k over in — ceiling ties included — the ranked
        /// sequence is the same, and a smaller selection is a prefix of a larger one.
        #[test]
        fn rank_is_a_total_order_independent_of_arrival_order(
            seed in 0u64..10_000,
            shuffle in 1u64..u64::MAX,
            k in 0usize..8,
        ) {
            let spec = RandomGraphSpec { nodes: 6, edges: 10, label_alphabet: 3 };
            let graph = |salt: u64| random_t_connected_graph(seed * 31 + salt, spec);
            let positives = vec![graph(1), graph(1), graph(2)];
            let negatives = vec![graph(100), graph(101)];
            let config = MinerConfig::default().with_max_edges(3).with_top_k(24);
            let result = mine(&positives, &negatives, &LogRatio::default(), &config);
            prop_assert!(result.patterns.len() > 1);
            let scores: HashSet<u64> = result.patterns.iter().map(|p| p.score.to_bits()).collect();
            prop_assert!(scores.len() < result.patterns.len(), "some scores tie");
            let ranker = InterestRanker::from_training(positives.iter().chain(&negatives));

            let mut ranked = result.patterns.clone();
            ranker.rank(&mut ranked);
            // Fisher–Yates over a multiplicative congruential sequence.
            let mut permuted = result.patterns.clone();
            let mut state = shuffle;
            for i in (1..permuted.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                permuted.swap(i, (state >> 33) as usize % (i + 1));
            }
            ranker.rank(&mut permuted);
            prop_assert_eq!(sequence(&permuted), sequence(&ranked));

            let smaller = ranker.top_queries(&result, k);
            let larger = ranker.top_queries(&result, k + 1);
            prop_assert_eq!(smaller.len(), k.min(ranked.len()));
            prop_assert_eq!(sequence(&smaller), sequence(&larger[..smaller.len()]));
            prop_assert_eq!(sequence(&larger), sequence(&ranked[..larger.len()]));
        }
    }
}
