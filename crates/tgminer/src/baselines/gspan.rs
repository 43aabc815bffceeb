//! `Ntemp`: discriminative non-temporal graph pattern mining (Section 6.1).
//!
//! The paper's accuracy baseline removes all temporal information from the training
//! data, mines discriminative *non-temporal* patterns with an existing approach (gSpan /
//! GAIA style growth), and uses them as non-temporal behavior queries. Reproducing it
//! requires a non-temporal miner, which this module provides:
//!
//! * temporal graphs are collapsed into [`StaticGraph`]s (multi-edges merged, timestamps
//!   dropped) — exactly the information loss the paper discusses in Section 7.1;
//! * [`StaticPattern`]s grow edge-by-edge from embeddings, like gSpan, and are
//!   deduplicated through a canonical key (label-sorted nodes, permuting only within
//!   equal-label groups) because without temporal order the growth path to a pattern is
//!   no longer unique;
//! * [`mine_nontemporal`] runs the discriminative search with the same score functions,
//!   top-k and admission rule ([`crate::topk`]) as the temporal miner: a pattern is
//!   offered, then its branch is cut if the top-k does not admit its upper bound.

use crate::score::ScoreFunction;
use crate::topk::{Scored, TopK};
use std::collections::{BTreeSet, HashSet};
use std::time::{Duration, Instant};
use tgraph::{Label, TemporalGraph};

/// A directed, node-labeled graph without timestamps (collapsed multi-edges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticGraph {
    labels: Vec<Label>,
    edges: Vec<(usize, usize)>,
}

impl StaticGraph {
    /// Collapses a temporal graph: drops timestamps and merges multi-edges.
    pub fn from_temporal(graph: &TemporalGraph) -> Self {
        let mut edges: Vec<(usize, usize)> = graph.edges().iter().map(|e| (e.src, e.dst)).collect();
        edges.sort_unstable();
        edges.dedup();
        Self {
            labels: graph.labels().to_vec(),
            edges,
        }
    }

    /// Builds a static graph directly from parts (used for windowed query matching).
    pub fn from_parts(labels: Vec<Label>, mut edges: Vec<(usize, usize)>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        Self { labels, edges }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of (collapsed) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Label of a node.
    pub fn label(&self, node: usize) -> Label {
        self.labels[node]
    }

    /// All collapsed edges, sorted.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }
}

/// A non-temporal directed pattern with labeled nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StaticPattern {
    /// Node labels.
    pub labels: Vec<Label>,
    /// Directed edges (no duplicates, order irrelevant).
    pub edges: Vec<(usize, usize)>,
}

impl StaticPattern {
    /// A one-edge pattern.
    ///
    /// Equal labels still give two distinct nodes; self-loop patterns are built
    /// explicitly.
    pub fn single_edge(src_label: Label, dst_label: Label) -> Self {
        Self {
            labels: vec![src_label, dst_label],
            edges: vec![(0, 1)],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Canonical key used for pattern deduplication during mining.
    ///
    /// Nodes are bucketed by label; all permutations within equal-label buckets are
    /// tried (bounded — see `MAX_PERMUTATIONS`) and the lexicographically smallest
    /// serialization is returned. If the bucket structure is too permutation-rich the
    /// key falls back to a weaker (still deterministic) form, which can only cause
    /// redundant search, never unsound deduplication of distinct patterns.
    pub fn canonical_key(&self) -> Vec<u64> {
        const MAX_PERMUTATIONS: usize = 5_040;
        let n = self.labels.len();
        let class: Vec<(Label, (usize, usize))> = (0..n)
            .map(|v| (self.labels[v], self.degree_signature(v)))
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| class[v]);
        // Bucket boundaries: consecutive nodes with identical (label, degree signature).
        let mut buckets: Vec<(usize, usize)> = Vec::new();
        let mut start = 0usize;
        for i in 1..=n {
            if i == n || class[order[i]] != class[order[start]] {
                buckets.push((start, i));
                start = i;
            }
        }
        let permutations: usize = buckets.iter().map(|&(s, e)| factorial(e - s)).product();
        if permutations <= MAX_PERMUTATIONS {
            let mut best: Option<Vec<u64>> = None;
            permute_buckets(&mut order.clone(), &buckets, 0, &mut |perm| {
                let key = self.serialize(perm);
                if best.as_ref().is_none_or(|b| key < *b) {
                    best = Some(key);
                }
            });
            best.expect("at least one permutation")
        } else {
            self.serialize(&order)
        }
    }

    fn degree_signature(&self, node: usize) -> (usize, usize) {
        let out = self.edges.iter().filter(|e| e.0 == node).count();
        let inn = self.edges.iter().filter(|e| e.1 == node).count();
        (out, inn)
    }

    /// Serializes the pattern under the node ordering `order` (position = new id).
    fn serialize(&self, order: &[usize]) -> Vec<u64> {
        let mut position = vec![0usize; order.len()];
        for (new_id, &old) in order.iter().enumerate() {
            position[old] = new_id;
        }
        let mut out: Vec<u64> = Vec::with_capacity(order.len() + self.edges.len() * 2);
        for &old in order {
            out.push(self.labels[old].id() as u64);
        }
        let mut edges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .map(|&(s, d)| (position[s], position[d]))
            .collect();
        edges.sort_unstable();
        for (s, d) in edges {
            out.push(((s as u64) << 32) | d as u64);
        }
        out
    }

    /// Whether the pattern matches (subgraph-isomorphically, ignoring time) inside
    /// `graph`, considering only the data edges with storage index in `range`.
    pub fn matches_in_window(&self, graph: &TemporalGraph, range: std::ops::Range<usize>) -> bool {
        let window_edges: Vec<(usize, usize)> = graph.edges()[range]
            .iter()
            .map(|e| (e.src, e.dst))
            .collect();
        let window = StaticGraph::from_parts(graph.labels().to_vec(), window_edges);
        self.matches_static(&window)
    }

    /// Whether the pattern has at least one embedding in `graph`.
    pub fn matches_static(&self, graph: &StaticGraph) -> bool {
        let mut node_map = vec![usize::MAX; self.node_count()];
        let mut used = vec![false; graph.node_count()];
        self.match_edge(graph, 0, &mut node_map, &mut used)
    }

    fn match_edge(
        &self,
        graph: &StaticGraph,
        edge_idx: usize,
        node_map: &mut Vec<usize>,
        used: &mut Vec<bool>,
    ) -> bool {
        if edge_idx == self.edges.len() {
            return true;
        }
        let (ps, pd) = self.edges[edge_idx];
        for &(ds, dd) in graph.edges() {
            if graph.label(ds) != self.labels[ps] || graph.label(dd) != self.labels[pd] {
                continue;
            }
            let src_ok = if node_map[ps] == usize::MAX {
                !used[ds]
            } else {
                node_map[ps] == ds
            };
            if !src_ok {
                continue;
            }
            let dst_ok = if ps == pd {
                ds == dd
            } else if node_map[pd] == usize::MAX {
                !used[dd] && dd != ds
            } else {
                node_map[pd] == dd
            };
            if !dst_ok {
                continue;
            }
            let bound_src = node_map[ps] == usize::MAX;
            if bound_src {
                node_map[ps] = ds;
                used[ds] = true;
            }
            let bound_dst = ps != pd && node_map[pd] == usize::MAX;
            if bound_dst {
                node_map[pd] = dd;
                used[dd] = true;
            }
            if self.match_edge(graph, edge_idx + 1, node_map, used) {
                return true;
            }
            if bound_dst {
                used[node_map[pd]] = false;
                node_map[pd] = usize::MAX;
            }
            if bound_src {
                used[node_map[ps]] = false;
                node_map[ps] = usize::MAX;
            }
        }
        false
    }

    /// All embeddings (injective node maps) of the pattern in `graph`, up to `cap`.
    pub fn find_embeddings(&self, graph: &StaticGraph, cap: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut node_map = vec![usize::MAX; self.node_count()];
        let mut used = vec![false; graph.node_count()];
        self.collect_embeddings(graph, 0, &mut node_map, &mut used, cap, &mut out);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn collect_embeddings(
        &self,
        graph: &StaticGraph,
        edge_idx: usize,
        node_map: &mut Vec<usize>,
        used: &mut Vec<bool>,
        cap: usize,
        out: &mut Vec<Vec<usize>>,
    ) -> bool {
        if edge_idx == self.edges.len() {
            out.push(node_map.clone());
            return out.len() >= cap;
        }
        let (ps, pd) = self.edges[edge_idx];
        for &(ds, dd) in graph.edges() {
            if graph.label(ds) != self.labels[ps] || graph.label(dd) != self.labels[pd] {
                continue;
            }
            let src_ok = if node_map[ps] == usize::MAX {
                !used[ds]
            } else {
                node_map[ps] == ds
            };
            if !src_ok {
                continue;
            }
            let dst_ok = if ps == pd {
                ds == dd
            } else if node_map[pd] == usize::MAX {
                !used[dd] && dd != ds
            } else {
                node_map[pd] == dd
            };
            if !dst_ok {
                continue;
            }
            let bound_src = node_map[ps] == usize::MAX;
            if bound_src {
                node_map[ps] = ds;
                used[ds] = true;
            }
            let bound_dst = ps != pd && node_map[pd] == usize::MAX;
            if bound_dst {
                node_map[pd] = dd;
                used[dd] = true;
            }
            let full = self.collect_embeddings(graph, edge_idx + 1, node_map, used, cap, out);
            if bound_dst {
                used[node_map[pd]] = false;
                node_map[pd] = usize::MAX;
            }
            if bound_src {
                used[node_map[ps]] = false;
                node_map[ps] = usize::MAX;
            }
            if full {
                return true;
            }
        }
        false
    }
}

fn factorial(n: usize) -> usize {
    (1..=n).product::<usize>().max(1)
}

/// Enumerates all permutations of `order` that only shuffle nodes within each bucket.
fn permute_buckets(
    order: &mut Vec<usize>,
    buckets: &[(usize, usize)],
    bucket_idx: usize,
    visit: &mut impl FnMut(&[usize]),
) {
    if bucket_idx == buckets.len() {
        visit(order);
        return;
    }
    let (start, end) = buckets[bucket_idx];
    permute_range(order, end, start, buckets, bucket_idx, visit);
}

fn permute_range(
    order: &mut Vec<usize>,
    end: usize,
    pos: usize,
    buckets: &[(usize, usize)],
    bucket_idx: usize,
    visit: &mut impl FnMut(&[usize]),
) {
    if pos == end {
        permute_buckets(order, buckets, bucket_idx + 1, visit);
        return;
    }
    for i in pos..end {
        order.swap(pos, i);
        permute_range(order, end, pos + 1, buckets, bucket_idx, visit);
        order.swap(pos, i);
    }
}

/// A mined non-temporal pattern with its statistics.
pub type NonTemporalPattern = Scored<StaticPattern>;

/// Result of a non-temporal mining run.
#[derive(Debug, Clone, Default)]
pub struct NonTemporalResult {
    /// Top patterns sorted by decreasing score.
    pub patterns: Vec<NonTemporalPattern>,
    /// Number of patterns processed.
    pub patterns_processed: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl NonTemporalResult {
    /// The best mined pattern.
    pub fn best(&self) -> Option<&NonTemporalPattern> {
        self.patterns.first()
    }
}

/// Where the pattern currently being grown occurs. Children are derived from the
/// positive embeddings; of the negatives only the graphs matter.
struct StaticOccurrences {
    /// Per positive graph with a match: its id and (capped) embeddings.
    pos: Vec<(usize, Vec<Vec<usize>>)>,
    /// Ids of the negative graphs with a match.
    neg: Vec<usize>,
}

/// Mines discriminative non-temporal patterns (the `Ntemp` baseline).
pub fn mine_nontemporal(
    positives: &[TemporalGraph],
    negatives: &[TemporalGraph],
    score: &dyn ScoreFunction,
    max_edges: usize,
    top_k: usize,
) -> NonTemporalResult {
    let start = Instant::now();
    let pos_static: Vec<StaticGraph> = positives.iter().map(StaticGraph::from_temporal).collect();
    let neg_static: Vec<StaticGraph> = negatives.iter().map(StaticGraph::from_temporal).collect();

    let mut miner = StaticMiner {
        positives: &pos_static,
        negatives: &neg_static,
        score,
        max_edges,
        cap_per_graph: 64,
        visited: HashSet::new(),
        top: TopK::new(top_k),
        patterns_processed: 0,
    };

    // Seed with every labeled edge present in the positives.
    let mut seeds: BTreeSet<(Label, Label)> = BTreeSet::new();
    for graph in &pos_static {
        for &(s, d) in graph.edges() {
            seeds.insert((graph.label(s), graph.label(d)));
        }
    }
    for (src_label, dst_label) in seeds {
        let pattern = StaticPattern::single_edge(src_label, dst_label);
        let occ = miner.compute_occurrences(&pattern);
        miner.dfs(&pattern, pattern.canonical_key(), &occ);
    }

    NonTemporalResult {
        patterns: miner.top.into_patterns(),
        patterns_processed: miner.patterns_processed,
        elapsed: start.elapsed(),
    }
}

struct StaticMiner<'a> {
    positives: &'a [StaticGraph],
    negatives: &'a [StaticGraph],
    score: &'a dyn ScoreFunction,
    max_edges: usize,
    cap_per_graph: usize,
    visited: HashSet<Vec<u64>>,
    top: TopK<StaticPattern>,
    patterns_processed: u64,
}

impl StaticMiner<'_> {
    /// Occurrences of a seed pattern, searched from scratch over both graph sets.
    fn compute_occurrences(&self, pattern: &StaticPattern) -> StaticOccurrences {
        self.occurrences_among(pattern, 0..self.positives.len(), 0..self.negatives.len())
    }

    /// Occurrences of `pattern` within the given graphs of each set.
    fn occurrences_among(
        &self,
        pattern: &StaticPattern,
        pos_ids: impl Iterator<Item = usize>,
        neg_ids: impl Iterator<Item = usize>,
    ) -> StaticOccurrences {
        StaticOccurrences {
            pos: pos_ids
                .filter_map(|i| {
                    let embeddings =
                        pattern.find_embeddings(&self.positives[i], self.cap_per_graph);
                    (!embeddings.is_empty()).then_some((i, embeddings))
                })
                .collect(),
            neg: neg_ids
                .filter(|&i| pattern.matches_static(&self.negatives[i]))
                .collect(),
        }
    }

    /// Processes a pattern supported by `pos_graphs` positive and `neg_graphs`
    /// negative graphs: scores it and offers it to the top-k. Returns its positive
    /// frequency, or `None` if an isomorphic pattern (same `key`) was processed before.
    fn visit(
        &mut self,
        pattern: &StaticPattern,
        key: Vec<u64>,
        pos_graphs: usize,
        neg_graphs: usize,
    ) -> Option<f64> {
        if !self.visited.insert(key) {
            return None;
        }
        self.patterns_processed += 1;
        let pos_freq = pos_graphs as f64 / self.positives.len().max(1) as f64;
        let neg_freq = neg_graphs as f64 / self.negatives.len().max(1) as f64;
        let score = self.score.score(pos_freq, neg_freq);
        self.top
            .offer(score, pos_freq, neg_freq, || pattern.clone());
        Some(pos_freq)
    }

    /// `key` is `pattern.canonical_key()`, computed by the caller to look it up first.
    fn dfs(&mut self, pattern: &StaticPattern, key: Vec<u64>, occ: &StaticOccurrences) {
        let Some(pos_freq) = self.visit(pattern, key, occ.pos.len(), occ.neg.len()) else {
            return;
        };
        if pattern.edge_count() >= self.max_edges {
            return;
        }
        if !self.top.admits(self.score.upper_bound(pos_freq)) {
            return;
        }
        let children_at_cap = pattern.edge_count() + 1 == self.max_edges;
        for child in self.children(pattern, occ) {
            // A child seen before costs its key and nothing else. A child can only
            // occur where its parent does, so only those graphs are searched.
            let key = child.canonical_key();
            if self.visited.contains(&key) {
                continue;
            }
            let pos_ids = occ.pos.iter().map(|(graph_id, _)| *graph_id);
            let neg_ids = occ.neg.iter().copied();
            if children_at_cap {
                // Never grown again: existence per graph is all that is read of it.
                let pos_graphs = pos_ids
                    .filter(|&i| child.matches_static(&self.positives[i]))
                    .count();
                if pos_graphs > 0 {
                    let neg_graphs = neg_ids
                        .filter(|&i| child.matches_static(&self.negatives[i]))
                        .count();
                    self.visit(&child, key, pos_graphs, neg_graphs);
                }
            } else {
                let child_occ = self.occurrences_among(&child, pos_ids, neg_ids);
                if !child_occ.pos.is_empty() {
                    self.dfs(&child, key, &child_occ);
                }
            }
        }
    }

    /// The children of `pattern`: every way of adding one more edge that is adjacent
    /// to an existing positive embedding, in a fixed order.
    fn children(&self, pattern: &StaticPattern, occ: &StaticOccurrences) -> Vec<StaticPattern> {
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Ext {
            Forward(usize, Label),
            Backward(Label, usize),
            Inward(usize, usize),
        }
        let mut keys: BTreeSet<Ext> = BTreeSet::new();
        for (graph_id, embeddings) in &occ.pos {
            let graph = &self.positives[*graph_id];
            for emb in embeddings {
                for &(ds, dd) in graph.edges() {
                    let sp = emb.iter().position(|&n| n == ds);
                    let dp = emb.iter().position(|&n| n == dd);
                    match (sp, dp) {
                        (Some(s), Some(d)) => {
                            if !pattern.edges.contains(&(s, d)) {
                                keys.insert(Ext::Inward(s, d));
                            }
                        }
                        (Some(s), None) => {
                            keys.insert(Ext::Forward(s, graph.label(dd)));
                        }
                        (None, Some(d)) => {
                            keys.insert(Ext::Backward(graph.label(ds), d));
                        }
                        (None, None) => {}
                    }
                }
            }
        }
        keys.into_iter()
            .map(|ext| {
                let mut child = pattern.clone();
                match ext {
                    Ext::Forward(s, label) => {
                        child.labels.push(label);
                        let new = child.labels.len() - 1;
                        child.edges.push((s, new));
                    }
                    Ext::Backward(label, d) => {
                        child.labels.push(label);
                        let new = child.labels.len() - 1;
                        child.edges.push((new, d));
                    }
                    Ext::Inward(s, d) => child.edges.push((s, d)),
                }
                child
            })
            .collect()
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

    fn chain(labels: &[u32]) -> TemporalGraph {
        let mut b = GraphBuilder::new();
        let nodes: Vec<usize> = labels.iter().map(|&x| b.add_node(l(x))).collect();
        for (i, w) in nodes.windows(2).enumerate() {
            b.add_edge(w[0], w[1], (i + 1) as u64).unwrap();
        }
        b.build()
    }

    #[test]
    fn static_graph_collapses_multi_edges() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(l(0));
        let c = b.add_node(l(1));
        b.add_edge(a, c, 1).unwrap();
        b.add_edge(a, c, 2).unwrap();
        b.add_edge(c, a, 3).unwrap();
        let g = StaticGraph::from_temporal(&b.build());
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn canonical_key_is_invariant_to_node_order() {
        // Same structure built in two node orders: A->B, A->C.
        let p1 = StaticPattern {
            labels: vec![l(0), l(1), l(2)],
            edges: vec![(0, 1), (0, 2)],
        };
        let p2 = StaticPattern {
            labels: vec![l(0), l(2), l(1)],
            edges: vec![(0, 2), (0, 1)],
        };
        assert_eq!(p1.canonical_key(), p2.canonical_key());
        // A different structure must get a different key.
        let p3 = StaticPattern {
            labels: vec![l(0), l(1), l(2)],
            edges: vec![(0, 1), (1, 2)],
        };
        assert_ne!(p1.canonical_key(), p3.canonical_key());
    }

    #[test]
    fn matching_ignores_temporal_order() {
        let pattern = StaticPattern {
            labels: vec![l(0), l(1), l(2)],
            edges: vec![(0, 1), (1, 2)],
        };
        // In this graph B->C happens *before* A->B; a temporal pattern would not match,
        // the static one does.
        let mut b = GraphBuilder::new();
        let a = b.add_node(l(0));
        let bb = b.add_node(l(1));
        let c = b.add_node(l(2));
        b.add_edge(bb, c, 1).unwrap();
        b.add_edge(a, bb, 2).unwrap();
        let g = b.build();
        assert!(pattern.matches_in_window(&g, 0..2));
        assert!(!pattern.matches_in_window(&g, 0..1));
    }

    #[test]
    fn mine_nontemporal_finds_the_shared_structure() {
        let positives = vec![chain(&[0, 1, 2, 5]), chain(&[0, 1, 2, 6])];
        let negatives = vec![chain(&[0, 3]), chain(&[4, 2])];
        let result = mine_nontemporal(&positives, &negatives, &LogRatio::default(), 3, 3);
        let best = result.best().expect("patterns mined");
        assert!((best.pos_freq - 1.0).abs() < 1e-12);
        assert_eq!(best.neg_freq, 0.0);
        assert!(best.pattern.edge_count() >= 1);
        assert!(result.patterns_processed > 0);
    }

    #[test]
    fn embeddings_are_injective() {
        let pattern = StaticPattern {
            labels: vec![l(0), l(1), l(1)],
            edges: vec![(0, 1), (0, 2)],
        };
        let g = StaticGraph::from_temporal(&chain(&[0, 1]));
        assert!(pattern.find_embeddings(&g, 10).is_empty());
    }
}
