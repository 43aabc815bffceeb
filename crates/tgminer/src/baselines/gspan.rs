//! `Ntemp`: discriminative non-temporal graph pattern mining (Section 6.1).
//!
//! The paper's accuracy baseline removes all temporal information from the training
//! data, mines discriminative *non-temporal* patterns with an existing approach (gSpan /
//! GAIA style growth), and uses them as non-temporal behavior queries. Reproducing it
//! requires a non-temporal miner, which this module provides:
//!
//! * temporal graphs are collapsed into `StaticGraph`s (multi-edges merged, timestamps
//!   dropped) — exactly the information loss the paper discusses in Section 7.1. Each
//!   is adjacency-indexed (out-edge ranges, in-edge lists, a label-pair index, each in
//!   ascending edge index), so the matcher visits only an edge's candidates and still
//!   lists embeddings in the order of a full edge scan;
//! * [`StaticPattern`]s grow edge-by-edge from embeddings, like gSpan, and are
//!   deduplicated through a canonical key (label-sorted nodes, permuting only within
//!   equal-label groups) because without temporal order the growth path to a pattern is
//!   no longer unique. A child's embeddings are its parent's, each extended by the
//!   child's last edge, wherever the parent's list is complete; a list at the per-graph
//!   cap may be truncated, and there the child is searched from scratch;
//! * [`mine_nontemporal`] runs the discriminative search with the same score functions,
//!   top-k and admission rule ([`crate::topk`]) as the temporal miner: a pattern is
//!   offered, then its branch is cut if the top-k does not admit its upper bound.
//!
//! The per-graph embedding cap is 64, fixed. `mine_nontemporal` does not read
//! `query::QueryOptions::cap_per_graph`, which configures TGMiner only, so where that
//! option is not 64 (32 on the benchmark's stream workloads) the two miners run with
//! different caps.

use crate::score::ScoreFunction;
use crate::topk::{Scored, TopK};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::time::{Duration, Instant};
use tgraph::{Label, TemporalGraph};

/// Embeddings kept per (pattern, graph) by `mine_nontemporal`.
const CAP_PER_GRAPH: usize = 64;

/// A directed, node-labeled graph without timestamps (collapsed multi-edges), indexed
/// three ways. Every index lists its edges in ascending edge index, so a scan of any
/// of them meets edges in the order a scan of [`StaticGraph::edges`] does.
#[derive(Debug)]
struct StaticGraph {
    labels: Vec<Label>,
    /// Sorted by `(src, dst)`: node `v`'s out-edges are
    /// `edges[out_start[v]..out_start[v + 1]]`.
    edges: Vec<(usize, usize)>,
    out_start: Vec<usize>,
    /// The edges sorted by `(dst, src)`: node `v`'s in-edges are
    /// `in_edges[in_start[v]..in_start[v + 1]]`.
    in_edges: Vec<(usize, usize)>,
    in_start: Vec<usize>,
    /// The edges sorted by `(src label, dst label, src, dst)`: a label pair's edges
    /// are one run.
    by_labels: Vec<(usize, usize)>,
}

/// Where each node's run starts in a list of items grouped by node (`n + 1` offsets),
/// given the node of every item.
fn run_starts(n: usize, nodes: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut start = vec![0; n + 1];
    for node in nodes {
        start[node + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    start
}

impl StaticGraph {
    /// Collapses a temporal graph: drops timestamps and merges multi-edges.
    fn from_temporal(graph: &TemporalGraph) -> Self {
        let labels = graph.labels().to_vec();
        let mut edges: Vec<(usize, usize)> = graph.edges().iter().map(|e| (e.src, e.dst)).collect();
        edges.sort_unstable();
        edges.dedup();
        let n = labels.len();
        // Placed in edge order, so each destination's run keeps its sources ascending.
        let in_start = run_starts(n, edges.iter().map(|e| e.1));
        let mut next = in_start.clone();
        let mut in_edges = vec![(0, 0); edges.len()];
        for &(s, d) in &edges {
            in_edges[next[d]] = (s, d);
            next[d] += 1;
        }
        let mut by_labels = edges.clone();
        by_labels.sort_unstable_by_key(|&(s, d)| (labels[s], labels[d], s, d));
        Self {
            out_start: run_starts(n, edges.iter().map(|e| e.0)),
            in_start,
            labels,
            edges,
            in_edges,
            by_labels,
        }
    }

    fn node_count(&self) -> usize {
        self.labels.len()
    }

    fn label(&self, node: usize) -> Label {
        self.labels[node]
    }

    /// All collapsed edges, sorted.
    fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    fn out_edges(&self, node: usize) -> &[(usize, usize)] {
        &self.edges[self.out_start[node]..self.out_start[node + 1]]
    }

    fn in_edges(&self, node: usize) -> &[(usize, usize)] {
        &self.in_edges[self.in_start[node]..self.in_start[node + 1]]
    }

    /// The edges a full scan could match to pattern edge `(ps, pd)` under `node_map`:
    /// the out-edges of a bound source, else the in-edges of a bound destination, else
    /// the edges between the two labels. Each is a subsequence of [`Self::edges`] that
    /// keeps every edge the scan's checks accept.
    fn candidates(
        &self,
        (ps, pd): (usize, usize),
        labels: &[Label],
        node_map: &[usize],
    ) -> &[(usize, usize)] {
        if node_map[ps] != usize::MAX {
            self.out_edges(node_map[ps])
        } else if node_map[pd] != usize::MAX {
            self.in_edges(node_map[pd])
        } else {
            let pair = (labels[ps], labels[pd]);
            let key = |&(s, d): &(usize, usize)| (self.labels[s], self.labels[d]);
            let from = self.by_labels.partition_point(|e| key(e) < pair);
            let to = self.by_labels.partition_point(|e| key(e) <= pair);
            &self.by_labels[from..to]
        }
    }
}

/// The embedding search's reused buffers: the partial node map, which data nodes it
/// uses (all `false` between searches), and existence checks' throwaway output.
#[derive(Debug, Default)]
struct Scratch {
    node_map: Vec<usize>,
    used: Vec<bool>,
    found: Vec<usize>,
}

impl Scratch {
    /// An unbound node map for a pattern of `pattern_nodes` and the `used` flags of a
    /// graph of `graph_nodes`.
    fn reset(&mut self, pattern_nodes: usize, graph_nodes: usize) -> (&mut [usize], &mut [bool]) {
        self.node_map.clear();
        self.node_map.resize(pattern_nodes, usize::MAX);
        if self.used.len() < graph_nodes {
            self.used.resize(graph_nodes, false);
        }
        (&mut self.node_map, &mut self.used[..graph_nodes])
    }
}

/// Where a child's search starts in a graph whose parent list is `list` (flat, stride
/// `parent_nodes`, at most `cap` embeddings): the list itself when it is complete —
/// shorter than the cap — and from scratch when it may be truncated.
fn origin(list: &[usize], parent_nodes: usize, cap: usize) -> Option<(&[usize], usize)> {
    (list.len() < cap.saturating_mul(parent_nodes)).then_some((list, parent_nodes))
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

    /// Whether the pattern has at least one embedding in `graph`.
    fn matches_static(&self, graph: &StaticGraph, scratch: &mut Scratch) -> bool {
        self.occurs(graph, None, scratch)
    }

    /// Up to `cap` embeddings (injective node maps) of the pattern in `graph`, flat
    /// (stride = node count), in the order of a full scan of its edges.
    fn find_embeddings(
        &self,
        graph: &StaticGraph,
        cap: usize,
        scratch: &mut Scratch,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        self.search(graph, None, cap, scratch, &mut out);
        out
    }

    /// Whether [`Self::search`] from `from` finds an embedding.
    fn occurs(
        &self,
        graph: &StaticGraph,
        from: Option<(&[usize], usize)>,
        scratch: &mut Scratch,
    ) -> bool {
        let mut found = std::mem::take(&mut scratch.found);
        found.clear();
        let hit = self.search(graph, from, 1, scratch, &mut found);
        scratch.found = found;
        hit
    }

    /// Appends to `out` (flat) the pattern's embeddings in `graph` until it holds
    /// `cap` of them, and returns whether it does. With `from` = `None` the search
    /// starts from scratch. With the parent's list `(list, parent_nodes)` — the parent
    /// being this pattern minus its last edge, whose new node, if any, is the last —
    /// it extends the list's embeddings in order by the last edge: the pattern binds
    /// its edges in order, so that is the from-scratch list whenever `list` holds every
    /// parent embedding ([`origin`] says when).
    fn search(
        &self,
        graph: &StaticGraph,
        from: Option<(&[usize], usize)>,
        cap: usize,
        scratch: &mut Scratch,
        out: &mut Vec<usize>,
    ) -> bool {
        let (node_map, used) = scratch.reset(self.node_count(), graph.node_count());
        let Some((list, parent_nodes)) = from else {
            return self.extend(graph, 0, node_map, used, cap, out);
        };
        let last = self.edges.len() - 1;
        for parent in list.chunks_exact(parent_nodes) {
            node_map[..parent_nodes].copy_from_slice(parent);
            parent.iter().for_each(|&v| used[v] = true);
            let full = self.extend(graph, last, node_map, used, cap, out);
            parent.iter().for_each(|&v| used[v] = false);
            if full {
                return true;
            }
        }
        false
    }

    /// Binds pattern edges `edge_idx..` on top of `node_map`, appending every
    /// completed embedding to `out`; returns `true` once `out` holds `cap`.
    fn extend(
        &self,
        graph: &StaticGraph,
        edge_idx: usize,
        node_map: &mut [usize],
        used: &mut [bool],
        cap: usize,
        out: &mut Vec<usize>,
    ) -> bool {
        if edge_idx == self.edges.len() {
            out.extend_from_slice(node_map);
            return out.len() >= cap.saturating_mul(node_map.len());
        }
        let (ps, pd) = self.edges[edge_idx];
        for &(ds, dd) in graph.candidates((ps, pd), &self.labels, node_map) {
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
            let full = self.extend(graph, edge_idx + 1, node_map, used, cap, out);
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

/// Per graph with a match: its id and the pattern's embeddings there, flat (stride =
/// the pattern's node count), at most the cap of them.
type Lists = Vec<(usize, Vec<usize>)>;

/// Where the pattern currently being grown occurs, in each graph set.
struct StaticOccurrences {
    pos: Lists,
    neg: Lists,
}

/// The children of `pattern` — every way of adding one more edge adjacent to one of
/// its embeddings in `lists` — in a fixed order, each with the indices into `lists` of
/// the lists in which some embedding extends to it.
fn children(
    pattern: &StaticPattern,
    graphs: &[StaticGraph],
    lists: &[(usize, Vec<usize>)],
) -> Vec<(StaticPattern, Vec<usize>)> {
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    enum Ext {
        Forward(usize, Label),
        Backward(Label, usize),
        Inward(usize, usize),
    }
    let mut seen: BTreeMap<Ext, Vec<usize>> = BTreeMap::new();
    for (i, (graph_id, list)) in lists.iter().enumerate() {
        let graph = &graphs[*graph_id];
        let mut saw = |ext: Ext| {
            let in_lists = seen.entry(ext).or_default();
            if in_lists.last() != Some(&i) {
                in_lists.push(i);
            }
        };
        for emb in list.chunks_exact(pattern.node_count()) {
            let position = |node: usize| emb.iter().position(|&n| n == node);
            for (p, &node) in emb.iter().enumerate() {
                for &(_, dd) in graph.out_edges(node) {
                    match position(dd) {
                        Some(d) if !pattern.edges.contains(&(p, d)) => saw(Ext::Inward(p, d)),
                        Some(_) => {}
                        None => saw(Ext::Forward(p, graph.label(dd))),
                    }
                }
                // An edge between two embedded nodes was met as its source's out-edge.
                for &(ds, _) in graph.in_edges(node) {
                    if position(ds).is_none() {
                        saw(Ext::Backward(graph.label(ds), p));
                    }
                }
            }
        }
    }
    seen.into_iter()
        .map(|(ext, in_lists)| {
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
            (child, in_lists)
        })
        .collect()
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
    let mut miner = StaticMiner::new(&pos_static, &neg_static, score, max_edges, top_k);

    // Seed with every labeled edge present in the positives.
    let mut seeds: BTreeSet<(Label, Label)> = BTreeSet::new();
    for graph in &pos_static {
        for &(s, d) in graph.edges() {
            seeds.insert((graph.label(s), graph.label(d)));
        }
    }
    for (src_label, dst_label) in seeds {
        let pattern = StaticPattern::single_edge(src_label, dst_label);
        let occ = StaticOccurrences {
            pos: miner.seed_lists(&pattern, miner.positives),
            neg: miner.seed_lists(&pattern, miner.negatives),
        };
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
    scratch: Scratch,
}

impl<'a> StaticMiner<'a> {
    fn new(
        positives: &'a [StaticGraph],
        negatives: &'a [StaticGraph],
        score: &'a dyn ScoreFunction,
        max_edges: usize,
        top_k: usize,
    ) -> Self {
        Self {
            positives,
            negatives,
            score,
            max_edges,
            cap_per_graph: CAP_PER_GRAPH,
            visited: HashSet::new(),
            top: TopK::new(top_k),
            patterns_processed: 0,
            scratch: Scratch::default(),
        }
    }

    /// A seed pattern's lists, searched from scratch in every graph of `graphs`.
    fn seed_lists(&mut self, pattern: &StaticPattern, graphs: &[StaticGraph]) -> Lists {
        graphs
            .iter()
            .enumerate()
            .filter_map(|(i, graph)| {
                let list = pattern.find_embeddings(graph, self.cap_per_graph, &mut self.scratch);
                (!list.is_empty()).then_some((i, list))
            })
            .collect()
    }

    /// `child`'s lists in the graphs of its parent's `lists` (stride `parent_nodes`),
    /// graphs without a match dropped. `seen` is the walk's answer for positive lists
    /// ([`children`]): a complete parent list it does not name holds no parent
    /// embedding that extends, so the child has none there and is not searched for.
    fn child_lists(
        &mut self,
        child: &StaticPattern,
        graphs: &[StaticGraph],
        lists: &[(usize, Vec<usize>)],
        parent_nodes: usize,
        seen: Option<&[usize]>,
    ) -> Lists {
        let cap = self.cap_per_graph;
        lists
            .iter()
            .enumerate()
            .filter_map(|(i, (graph_id, list))| {
                let from = origin(list, parent_nodes, cap);
                if from.is_some() && seen.is_some_and(|seen| seen.binary_search(&i).is_err()) {
                    return None;
                }
                let mut embeddings = Vec::new();
                child.search(
                    &graphs[*graph_id],
                    from,
                    cap,
                    &mut self.scratch,
                    &mut embeddings,
                );
                (!embeddings.is_empty()).then_some((*graph_id, embeddings))
            })
            .collect()
    }

    /// In how many graphs of its parent's `lists` `child` occurs — [`Self::child_lists`]
    /// without the lists. Where the walk `seen` the child it occurs; elsewhere only a
    /// list that may be truncated needs a search.
    fn child_support(
        &mut self,
        child: &StaticPattern,
        graphs: &[StaticGraph],
        lists: &[(usize, Vec<usize>)],
        parent_nodes: usize,
        seen: Option<&[usize]>,
    ) -> usize {
        let cap = self.cap_per_graph;
        let scratch = &mut self.scratch;
        lists
            .iter()
            .enumerate()
            .filter(|(i, (graph_id, list))| {
                let graph = &graphs[*graph_id];
                let from = origin(list, parent_nodes, cap);
                match seen {
                    Some(seen) => {
                        seen.binary_search(i).is_ok()
                            || (from.is_none() && child.matches_static(graph, scratch))
                    }
                    None => child.occurs(graph, from, scratch),
                }
            })
            .count()
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
        let parent_nodes = pattern.node_count();
        let (positives, negatives) = (self.positives, self.negatives);
        for (child, seen) in children(pattern, positives, &occ.pos) {
            // A child seen before costs its key and nothing else. A child can only
            // occur where its parent does, so only those graphs are searched. The walk
            // saw it in at least one positive graph, so it has positive support.
            let key = child.canonical_key();
            if self.visited.contains(&key) {
                continue;
            }
            let seen = Some(seen.as_slice());
            if children_at_cap {
                // Never grown again: existence per graph is all that is read of it.
                let pos_graphs =
                    self.child_support(&child, positives, &occ.pos, parent_nodes, seen);
                let neg_graphs =
                    self.child_support(&child, negatives, &occ.neg, parent_nodes, None);
                self.visit(&child, key, pos_graphs, neg_graphs);
            } else {
                let child_occ = StaticOccurrences {
                    pos: self.child_lists(&child, positives, &occ.pos, parent_nodes, seen),
                    neg: self.child_lists(&child, negatives, &occ.neg, parent_nodes, None),
                };
                self.dfs(&child, key, &child_occ);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::LogRatio;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
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

    /// The matcher before the index: every pattern edge scans every edge of the graph.
    /// `find_embeddings`, extended lists and the walk are held to it.
    fn reference_embeddings(
        pattern: &StaticPattern,
        graph: &StaticGraph,
        cap: usize,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        let mut node_map = vec![usize::MAX; pattern.node_count()];
        let mut used = vec![false; graph.node_count()];
        reference_collect(pattern, graph, 0, &mut node_map, &mut used, cap, &mut out);
        out.concat()
    }

    fn reference_collect(
        pattern: &StaticPattern,
        graph: &StaticGraph,
        edge_idx: usize,
        node_map: &mut Vec<usize>,
        used: &mut Vec<bool>,
        cap: usize,
        out: &mut Vec<Vec<usize>>,
    ) -> bool {
        if edge_idx == pattern.edges.len() {
            out.push(node_map.clone());
            return out.len() >= cap;
        }
        let (ps, pd) = pattern.edges[edge_idx];
        for &(ds, dd) in graph.edges() {
            if graph.label(ds) != pattern.labels[ps] || graph.label(dd) != pattern.labels[pd] {
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
            let full = reference_collect(pattern, graph, edge_idx + 1, node_map, used, cap, out);
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

    /// The walk before the index: every edge of the graph, for every stored embedding,
    /// keyed in the order of `children`'s extension enum.
    fn reference_children(
        pattern: &StaticPattern,
        graphs: &[StaticGraph],
        lists: &[(usize, Vec<usize>)],
    ) -> Vec<StaticPattern> {
        let mut keys: BTreeMap<(u8, u64, u64), StaticPattern> = BTreeMap::new();
        for (graph_id, list) in lists {
            let graph = &graphs[*graph_id];
            for emb in list.chunks_exact(pattern.node_count()) {
                for &(ds, dd) in graph.edges() {
                    let sp = emb.iter().position(|&n| n == ds);
                    let dp = emb.iter().position(|&n| n == dd);
                    let mut child = pattern.clone();
                    let new = child.labels.len();
                    let key = match (sp, dp) {
                        (Some(s), Some(d)) if !pattern.edges.contains(&(s, d)) => {
                            child.edges.push((s, d));
                            (2, s as u64, d as u64)
                        }
                        (Some(s), None) => {
                            child.labels.push(graph.label(dd));
                            child.edges.push((s, new));
                            (0, s as u64, graph.label(dd).id() as u64)
                        }
                        (None, Some(d)) => {
                            child.labels.push(graph.label(ds));
                            child.edges.push((new, d));
                            (1, graph.label(ds).id() as u64, d as u64)
                        }
                        _ => continue,
                    };
                    keys.insert(key, child);
                }
            }
        }
        keys.into_values().collect()
    }

    /// A SplitMix64 stream: a case's graphs and choices, from its sampled seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// 2–9 nodes over 2–3 labels and up to four edges per node, about one in five of
    /// them a self-loop.
    fn random_graph(rng: &mut Rng) -> StaticGraph {
        let mut b = GraphBuilder::new();
        let alphabet = 2 + rng.below(2);
        let n = 2 + rng.below(8);
        for _ in 0..n {
            b.add_node(l(rng.below(alphabet) as u32));
        }
        for ts in 0..1 + rng.below(4 * n) {
            let src = rng.below(n);
            let dst = if rng.below(5) == 0 { src } else { rng.below(n) };
            b.add_edge(src, dst, ts as u64).unwrap();
        }
        StaticGraph::from_temporal(&b.build())
    }

    const CAPS: [usize; 5] = [1, 2, 3, CAP_PER_GRAPH, usize::MAX];

    /// Checks one pattern at one cap against the full scan and returns its children:
    /// (a) its lists are the full scan's; per child from the walk, (b) the derived
    /// lists are the full scan's, and (c) so is the support count — the walk's answer
    /// for positives, extension or search for negatives.
    fn check_level(
        pattern: &StaticPattern,
        graphs: &[StaticGraph],
        cap: usize,
    ) -> Vec<StaticPattern> {
        let score = LogRatio::default();
        let mut miner = StaticMiner::new(graphs, graphs, &score, usize::MAX, 1);
        miner.cap_per_graph = cap;
        let lists: Lists = graphs
            .iter()
            .enumerate()
            .filter_map(|(g, graph)| {
                let list = pattern.find_embeddings(graph, cap, &mut miner.scratch);
                assert_eq!(
                    list,
                    reference_embeddings(pattern, graph, cap),
                    "(a) {pattern:?} cap {cap}"
                );
                (!list.is_empty()).then_some((g, list))
            })
            .collect();
        let walked = children(pattern, graphs, &lists);
        let patterns: Vec<StaticPattern> = walked.iter().map(|(child, _)| child.clone()).collect();
        assert_eq!(
            patterns,
            reference_children(pattern, graphs, &lists),
            "{pattern:?} cap {cap}"
        );
        let nodes = pattern.node_count();
        for (child, seen) in &walked {
            let want: Lists = lists
                .iter()
                .map(|(g, _)| (*g, reference_embeddings(child, &graphs[*g], cap)))
                .filter(|(_, list)| !list.is_empty())
                .collect();
            for seen in [Some(seen.as_slice()), None] {
                let what = format!("{child:?} cap {cap} walk {}", seen.is_some());
                let lists_got = miner.child_lists(child, graphs, &lists, nodes, seen);
                assert_eq!(lists_got, want, "(b) {what}");
                let support = miner.child_support(child, graphs, &lists, nodes, seen);
                assert_eq!(support, want.len(), "(c) {what}");
            }
        }
        patterns
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The order contract on random graphs: patterns grown along the walk, each
        /// level checked at every cap, truncating ones included.
        #[test]
        fn indexed_and_derived_searches_keep_the_full_scans_order(seed in 0u64..u64::MAX, depth in 1usize..6) {
            let mut rng = Rng(seed);
            let graphs: Vec<StaticGraph> = (0..3).map(|_| random_graph(&mut rng)).collect();
            let graph = &graphs[rng.below(graphs.len())];
            let (s, d) = graph.edges()[rng.below(graph.edges().len())];
            let mut pattern = StaticPattern::single_edge(graph.label(s), graph.label(d));
            for _ in 0..depth {
                let mut children = Vec::new();
                for cap in CAPS {
                    children = check_level(&pattern, &graphs, cap);
                }
                if children.is_empty() {
                    break;
                }
                pattern = children.swap_remove(rng.below(children.len()));
            }
        }
    }

    #[test]
    fn a_parent_list_past_the_cap_falls_back_to_a_fresh_search() {
        // A hub with 70 same-label leaves; only the last leaf has an edge onward, and
        // the parent's list stops at the 64th.
        let mut b = GraphBuilder::new();
        let hub = b.add_node(l(0));
        let leaves: Vec<usize> = (0..70).map(|_| b.add_node(l(1))).collect();
        let end = b.add_node(l(2));
        for (ts, &leaf) in leaves.iter().enumerate() {
            b.add_edge(hub, leaf, ts as u64).unwrap();
        }
        b.add_edge(leaves[69], end, 70).unwrap();
        let graphs = [StaticGraph::from_temporal(&b.build())];
        let score = LogRatio::default();
        let mut miner = StaticMiner::new(&graphs, &graphs, &score, usize::MAX, 1);

        let parent = StaticPattern::single_edge(l(0), l(1));
        let list = parent.find_embeddings(&graphs[0], CAP_PER_GRAPH, &mut miner.scratch);
        assert_eq!(
            list.len(),
            CAP_PER_GRAPH * 2,
            "the parent's list is at the cap"
        );
        let lists = vec![(0, list)];
        let child = StaticPattern {
            labels: vec![l(0), l(1), l(2)],
            edges: vec![(0, 1), (1, 2)],
        };
        // No stored embedding extends: the walk does not see the child here...
        assert!(children(&parent, &graphs, &lists)
            .iter()
            .all(|(c, _)| *c != child));
        let mut extended = Vec::new();
        child.search(
            &graphs[0],
            Some((&lists[0].1, 2)),
            CAP_PER_GRAPH,
            &mut miner.scratch,
            &mut extended,
        );
        assert!(extended.is_empty());
        // ...yet it occurs, and the truncated list sends both searches to a fresh one.
        let want = vec![(0, vec![hub, leaves[69], end])];
        assert_eq!(
            miner.child_lists(&child, &graphs, &lists, 2, Some(&[])),
            want
        );
        assert_eq!(miner.child_lists(&child, &graphs, &lists, 2, None), want);
        assert_eq!(
            miner.child_support(&child, &graphs, &lists, 2, Some(&[])),
            1
        );
        assert_eq!(miner.child_support(&child, &graphs, &lists, 2, None), 1);
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
        assert_eq!(g.edges(), [(a, c), (c, a)]);
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
        // the static one does. Without A->B nothing matches.
        let mut b = GraphBuilder::new();
        let a = b.add_node(l(0));
        let bb = b.add_node(l(1));
        let c = b.add_node(l(2));
        b.add_edge(bb, c, 1).unwrap();
        let prefix = StaticGraph::from_temporal(&b.clone().build());
        b.add_edge(a, bb, 2).unwrap();
        let whole = StaticGraph::from_temporal(&b.build());
        let mut scratch = Scratch::default();
        assert!(pattern.matches_static(&whole, &mut scratch));
        assert!(!pattern.matches_static(&prefix, &mut scratch));
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
        assert!(pattern
            .find_embeddings(&g, 10, &mut Scratch::default())
            .is_empty());
    }
}
