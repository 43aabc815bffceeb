//! `Ntemp`: discriminative non-temporal graph pattern mining (Section 6.1).
//!
//! The paper's accuracy baseline removes all temporal information from the training
//! data, mines discriminative *non-temporal* patterns with an existing approach (gSpan /
//! GAIA style growth), and uses them as non-temporal behavior queries. Reproducing it
//! requires a non-temporal miner, which this module provides:
//!
//! * temporal graphs are collapsed into `StaticGraph`s (multi-edges merged, timestamps
//!   dropped) — exactly the information loss the paper discusses in Section 7.1. A
//!   graph is collapsed on its first search, so a background graph no grown candidate
//!   reaches is never collapsed. Each is adjacency-indexed (out-edge ranges, in-edge
//!   lists, a label-pair index, each in ascending edge index), so the matcher visits
//!   only an edge's candidates and still lists embeddings in the order of a full edge
//!   scan. A seed's background lists are read off the temporal edges: a one-edge
//!   pattern's embeddings are the graph's distinct `(src, dst)` pairs between its two
//!   labels with `src != dst`, ascending, which is what the search lists on the
//!   collapse;
//! * [`StaticPattern`]s grow edge-by-edge from embeddings, like gSpan, and are
//!   deduplicated through a canonical key (nodes sorted by label and degrees,
//!   permuting only within equal groups) because without temporal order the growth
//!   path to a pattern is no longer unique. The walk finds a pattern's children in one
//!   pass over its stored positive embeddings' edges (a node→position array, packed
//!   growth steps sorted and deduplicated per list). A child's embeddings are its
//!   parent's, each extended by the child's last edge, wherever the parent's list is
//!   complete; a list at the per-graph cap may be truncated, and there the child is
//!   searched from scratch;
//! * [`mine_nontemporal`] runs the discriminative search with the same score functions,
//!   top-k and admission rule ([`crate::topk`]) as the temporal miner: a pattern is
//!   offered, then its branch is cut if the top-k does not admit its upper bound;
//! * **Bound first.** A candidate's positive support — for a seed, a count of the
//!   positive graphs with an edge between its labels whose ends differ; for a child,
//!   the walk's answer, plus a fresh existence check where a parent list may be
//!   truncated — and its bound `F(x, 0)` come first. A candidate whose bound the
//!   top-k does not admit costs those and nothing more: no canonical key, no
//!   `visited` entry, no search of the negative graphs and no embedding lists, and it
//!   does not count in `patterns_processed`. Its offer is not made, but a score at
//!   most its bound would lose it, so the top-k sees the same admitted offers in the
//!   same order. The order is exact: positive support does not depend on the parent
//!   (a child occurs only where its parent does, and there the walk or the fresh check
//!   finds it), and F\* never falls, so a candidate the bound cuts once is cut on
//!   every later path that reaches it again.
//!
//! The per-graph embedding cap is 64, fixed. `mine_nontemporal` does not read
//! `query::QueryOptions::cap_per_graph`, which configures TGMiner only, so where that
//! option is not 64 (32 on the benchmark's stream workloads) the two miners run with
//! different caps.

use crate::growth::{pack_key, unpack_key, ExtensionKey, UNMAPPED};
use crate::score::ScoreFunction;
use crate::topk::{Scored, TopK};
use crate::StableSet;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use tgraph::{Label, TemporalGraph};

/// Embeddings kept per (pattern, graph) by `mine_nontemporal`.
const CAP_PER_GRAPH: usize = 64;

/// A directed, node-labeled graph without timestamps (collapsed multi-edges), indexed
/// three ways. Every index lists its edges in ascending edge index, so a scan of any
/// of them meets edges in the order a scan of all edges, sorted, does.
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

    fn out_edges(&self, node: usize) -> &[(usize, usize)] {
        &self.edges[self.out_start[node]..self.out_start[node + 1]]
    }

    fn in_edges(&self, node: usize) -> &[(usize, usize)] {
        &self.in_edges[self.in_start[node]..self.in_start[node + 1]]
    }

    /// The edges a full scan could match to pattern edge `(ps, pd)` under `node_map`:
    /// the out-edges of a bound source, else the in-edges of a bound destination, else
    /// the edges between the two labels. Each is a subsequence of the sorted edges
    /// that keeps every edge the scan's checks accept.
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

/// One graph set as the miner reads it: the temporal graphs, each collapsed into a
/// [`StaticGraph`] on its first search.
struct Graphs<'a> {
    temporal: &'a [TemporalGraph],
    collapsed: Vec<OnceCell<StaticGraph>>,
}

impl<'a> Graphs<'a> {
    fn new(temporal: &'a [TemporalGraph]) -> Self {
        Self {
            temporal,
            collapsed: temporal.iter().map(|_| OnceCell::new()).collect(),
        }
    }

    fn len(&self) -> usize {
        self.temporal.len()
    }

    /// Graph `i`, collapsed.
    fn get(&self, i: usize) -> &StaticGraph {
        self.collapsed[i].get_or_init(|| StaticGraph::from_temporal(&self.temporal[i]))
    }
}

/// The embedding search's reused buffers: the partial node map, which data nodes it
/// uses (all `false` between searches), existence checks' throwaway output, and a
/// seed scan's edge pairs.
#[derive(Debug, Default)]
struct Scratch {
    node_map: Vec<usize>,
    used: Vec<bool>,
    found: Vec<usize>,
    pairs: Vec<(usize, usize)>,
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

/// The canonical key's reused buffers; [`StaticPattern::write_key`] leaves the key in
/// `key`.
#[derive(Debug, Default)]
struct KeyBuffers {
    degrees: Vec<(usize, usize)>,
    order: Vec<usize>,
    buckets: Vec<(usize, usize)>,
    position: Vec<usize>,
    edges: Vec<u64>,
    key: Vec<u64>,
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

    /// Appends one growth step: a new node, if the step makes one, is the last.
    fn grow(&mut self, step: ExtensionKey) {
        let new = self.labels.len();
        match step {
            ExtensionKey::Forward { src, dst_label } => {
                self.labels.push(dst_label);
                self.edges.push((src, new));
            }
            ExtensionKey::Backward { src_label, dst } => {
                self.labels.push(src_label);
                self.edges.push((new, dst));
            }
            ExtensionKey::Inward { src, dst } => self.edges.push((src, dst)),
        }
    }

    /// Writes the canonical key used for pattern deduplication during mining into
    /// `buffers` and returns it: the node labels in (label, out-degree, in-degree)
    /// order, then the edges renumbered by that order, sorted.
    ///
    /// Nodes of equal (label, degrees) are interchangeable in that order; all
    /// permutations within such buckets are tried (bounded — see `MAX_PERMUTATIONS`)
    /// and the lexicographically smallest edge list is kept. If the bucket structure
    /// is too permutation-rich the key falls back to a weaker (still deterministic)
    /// form, which can only cause redundant search, never unsound deduplication of
    /// distinct patterns.
    fn write_key<'k>(&self, buffers: &'k mut KeyBuffers) -> &'k [u64] {
        const MAX_PERMUTATIONS: usize = 5_040;
        let b = buffers;
        let n = self.labels.len();
        b.degrees.clear();
        b.degrees.resize(n, (0, 0));
        for &(s, d) in &self.edges {
            b.degrees[s].0 += 1;
            b.degrees[d].1 += 1;
        }
        let class = |v: usize| (self.labels[v], b.degrees[v]);
        b.order.clear();
        b.order.extend(0..n);
        b.order.sort_by_key(|&v| class(v));
        // Runs of two or more nodes of one class: the only ones a permutation moves.
        b.buckets.clear();
        let mut start = 0usize;
        for i in 1..=n {
            if i == n || class(b.order[i]) != class(b.order[start]) {
                if i - start > 1 {
                    b.buckets.push((start, i));
                }
                start = i;
            }
        }
        // Saturating: 21 interchangeable nodes already overflow the factorial.
        let permutations = b
            .buckets
            .iter()
            .flat_map(|&(s, e)| 2..=e - s)
            .fold(1usize, usize::saturating_mul);
        // Permutations keep each position's label: the prefix is the same for all, and
        // the smallest edge list seen so far follows it.
        b.key.clear();
        b.key
            .extend(b.order.iter().map(|&v| self.labels[v].id() as u64));
        b.position.clear();
        b.position.resize(n, 0);
        let mut visit = |order: &[usize]| {
            for (new_id, &old) in order.iter().enumerate() {
                b.position[old] = new_id;
            }
            b.edges.clear();
            b.edges.extend(
                self.edges
                    .iter()
                    .map(|&(s, d)| ((b.position[s] as u64) << 32) | b.position[d] as u64),
            );
            b.edges.sort_unstable();
            if b.key.len() == n || b.edges[..] < b.key[n..] {
                b.key.truncate(n);
                b.key.extend_from_slice(&b.edges);
            }
        };
        if permutations <= MAX_PERMUTATIONS {
            permute_buckets(&mut b.order, &b.buckets, 0, &mut visit);
        } else {
            visit(&b.order);
        }
        &b.key
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

/// Enumerates all permutations of `order` that only shuffle nodes within each bucket.
fn permute_buckets(
    order: &mut [usize],
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
    order: &mut [usize],
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
    /// Number of patterns processed: candidates whose bound the top-k admitted, each
    /// isomorphism class (canonical key) counted once. A candidate the bound cuts is
    /// never keyed and not counted.
    pub patterns_processed: u64,
    /// Number of (candidate, negative graph) searches: a candidate whose bound the
    /// top-k admits is searched in every negative graph its parent occurs in (a seed
    /// in every negative graph), one the bound cuts in none.
    pub negative_searches: u64,
}

/// Per graph with a match: its id and the pattern's embeddings there, flat (stride =
/// the pattern's node count), at most the cap of them.
type Lists = Vec<(usize, Vec<usize>)>;

/// Where the pattern currently being grown occurs, in each graph set.
struct StaticOccurrences {
    pos: Lists,
    neg: Lists,
}

/// The walk's reused buffers: data node → position in the embedding being walked
/// ([`UNMAPPED`] between embeddings), and one list's packed growth steps.
#[derive(Debug, Default)]
struct WalkBuffers {
    position: Vec<u32>,
    hits: Vec<u64>,
}

/// The children of `pattern` — every way of adding one more edge adjacent to one of
/// its embeddings in `lists` — as (packed growth step, index into `lists`) pairs, one
/// per list in which some embedding extends to the child, ascending: a child's pairs
/// are one run, in `ExtensionKey` order ([`pack_key`] keeps it), its lists ascending.
/// Returned unzipped.
fn children(
    pattern: &StaticPattern,
    graphs: &Graphs,
    lists: &[(usize, Vec<usize>)],
    walk: &mut WalkBuffers,
) -> (Vec<u64>, Vec<usize>) {
    let WalkBuffers { position, hits } = walk;
    let mut found: Vec<(u64, usize)> = Vec::new();
    for (i, (graph_id, list)) in lists.iter().enumerate() {
        let graph = graphs.get(*graph_id);
        if position.len() < graph.node_count() {
            position.resize(graph.node_count(), UNMAPPED);
        }
        hits.clear();
        for emb in list.chunks_exact(pattern.node_count()) {
            for (p, &node) in emb.iter().enumerate() {
                position[node] = p as u32;
            }
            for (p, &node) in emb.iter().enumerate() {
                for &(_, dd) in graph.out_edges(node) {
                    let step = match position[dd] {
                        UNMAPPED => ExtensionKey::Forward {
                            src: p,
                            dst_label: graph.label(dd),
                        },
                        dst if !pattern.edges.contains(&(p, dst as usize)) => {
                            ExtensionKey::Inward {
                                src: p,
                                dst: dst as usize,
                            }
                        }
                        _ => continue,
                    };
                    hits.push(pack_key(step));
                }
                // An edge between two embedded nodes was met as its source's out-edge.
                for &(ds, _) in graph.in_edges(node) {
                    if position[ds] == UNMAPPED {
                        hits.push(pack_key(ExtensionKey::Backward {
                            src_label: graph.label(ds),
                            dst: p,
                        }));
                    }
                }
            }
            for &node in emb {
                position[node] = UNMAPPED;
            }
        }
        hits.sort_unstable();
        hits.dedup();
        found.extend(hits.iter().map(|&packed| (packed, i)));
    }
    found.sort_unstable();
    found.into_iter().unzip()
}

/// Every label pair of an edge in `graphs`, ascending, with the number of graphs that
/// hold its one-edge pattern (an edge between its labels whose ends differ: what
/// [`StaticMiner::seed_lists`] lists) and the last of them, plus one.
fn seed_support(graphs: &[TemporalGraph]) -> BTreeMap<(Label, Label), (usize, usize)> {
    let mut support = BTreeMap::new();
    for (stamp, graph) in (1..).zip(graphs) {
        for edge in graph.edges() {
            let pair = (graph.label(edge.src), graph.label(edge.dst));
            let (count, last) = support.entry(pair).or_insert((0, 0));
            if edge.src != edge.dst && *last != stamp {
                (*count, *last) = (*count + 1, stamp);
            }
        }
    }
    support
}

/// Mines discriminative non-temporal patterns (the `Ntemp` baseline).
pub fn mine_nontemporal(
    positives: &[TemporalGraph],
    negatives: &[TemporalGraph],
    score: &dyn ScoreFunction,
    max_edges: usize,
    top_k: usize,
) -> NonTemporalResult {
    let (positives, negatives) = (Graphs::new(positives), Graphs::new(negatives));
    let mut miner = StaticMiner::new(&positives, &negatives, score, max_edges, top_k);

    // Seed with every labeled edge in the positives; search only those admitted.
    for ((src_label, dst_label), (pos_graphs, _)) in seed_support(positives.temporal) {
        let Some(pos_freq) = miner.admitted(pos_graphs) else {
            continue;
        };
        let pattern = StaticPattern::single_edge(src_label, dst_label);
        // Seeds are distinct label pairs, never isomorphic: the claim only counts it.
        if !miner.claim(&pattern) {
            continue;
        }
        miner.negative_searches += negatives.len() as u64;
        let occ = StaticOccurrences {
            pos: miner.seed_lists(&pattern, &positives),
            neg: miner.scanned_seed_lists(&pattern, &negatives),
        };
        miner.dfs(&pattern, pos_freq, &occ);
    }

    NonTemporalResult {
        patterns: miner.top.into_patterns(),
        patterns_processed: miner.patterns_processed,
        negative_searches: miner.negative_searches,
    }
}

struct StaticMiner<'a> {
    positives: &'a Graphs<'a>,
    negatives: &'a Graphs<'a>,
    score: &'a dyn ScoreFunction,
    max_edges: usize,
    cap_per_graph: usize,
    visited: StableSet<Vec<u64>>,
    top: TopK<StaticPattern>,
    patterns_processed: u64,
    negative_searches: u64,
    scratch: Scratch,
    keys: KeyBuffers,
    walk: WalkBuffers,
}

impl<'a> StaticMiner<'a> {
    fn new(
        positives: &'a Graphs<'a>,
        negatives: &'a Graphs<'a>,
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
            visited: StableSet::default(),
            top: TopK::new(top_k),
            patterns_processed: 0,
            negative_searches: 0,
            scratch: Scratch::default(),
            keys: KeyBuffers::default(),
            walk: WalkBuffers::default(),
        }
    }

    /// A seed pattern's lists, searched from scratch in every graph of `graphs`, each
    /// collapsed. Every positive graph is walked sooner or later, and its label-pair
    /// index finds a seed's run without a scan of its edges.
    fn seed_lists(&mut self, seed: &StaticPattern, graphs: &Graphs) -> Lists {
        let (cap, scratch) = (self.cap_per_graph, &mut self.scratch);
        (0..graphs.len())
            .filter_map(|i| {
                let mut list = Vec::new();
                seed.search(graphs.get(i), None, cap, scratch, &mut list);
                (!list.is_empty()).then_some((i, list))
            })
            .collect()
    }

    /// [`Self::seed_lists`] read off the temporal edges, for the background graphs,
    /// most of which no grown candidate reaches: in each graph, the distinct
    /// `(src, dst)` pairs between the seed's two labels with `src != dst`, ascending,
    /// at most the cap, which is what the search lists on the collapse.
    fn scanned_seed_lists(&mut self, seed: &StaticPattern, graphs: &Graphs) -> Lists {
        let (cap, pairs) = (self.cap_per_graph, &mut self.scratch.pairs);
        let seed_labels = [seed.labels[0], seed.labels[1]];
        graphs
            .temporal
            .iter()
            .enumerate()
            .filter_map(|(i, graph)| {
                let labels = graph.labels();
                pairs.clear();
                let edges = graph.edges().iter().map(|e| (e.src, e.dst));
                pairs.extend(
                    edges.filter(|&(s, d)| s != d && [labels[s], labels[d]] == seed_labels),
                );
                pairs.sort_unstable();
                pairs.dedup();
                pairs.truncate(cap);
                let list = pairs.iter().flat_map(|&(s, d)| [s, d]).collect();
                (!pairs.is_empty()).then_some((i, list))
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
        graphs: &Graphs,
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
                    graphs.get(*graph_id),
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
        graphs: &Graphs,
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
                let from = origin(list, parent_nodes, cap);
                match seen {
                    Some(seen) => {
                        seen.binary_search(i).is_ok()
                            || (from.is_none()
                                && child.occurs(graphs.get(*graph_id), None, scratch))
                    }
                    None => child.occurs(graphs.get(*graph_id), from, scratch),
                }
            })
            .count()
    }

    /// Marks an admitted candidate's canonical key visited and counts the candidate as
    /// processed; `false` if an isomorphic candidate was processed before. The key is
    /// written into reused buffers and copied only when it is new.
    fn claim(&mut self, pattern: &StaticPattern) -> bool {
        let key = pattern.write_key(&mut self.keys);
        if self.visited.contains(key) {
            return false;
        }
        self.visited.insert(key.to_vec());
        self.patterns_processed += 1;
        true
    }

    /// The positive frequency of a candidate found in `pos_graphs` positive graphs, if
    /// the top-k admits its bound. If not, neither the candidate — its score is at most
    /// its bound — nor any pattern grown from it can enter, so it is searched no further.
    fn admitted(&self, pos_graphs: usize) -> Option<f64> {
        let pos_freq = pos_graphs as f64 / self.positives.len().max(1) as f64;
        self.top
            .admits(self.score.upper_bound(pos_freq))
            .then_some(pos_freq)
    }

    /// Scores an admitted candidate found in `neg_graphs` negative graphs and offers
    /// it to the top-k.
    fn offer(&mut self, pattern: &StaticPattern, pos_freq: f64, neg_graphs: usize) {
        let neg_freq = neg_graphs as f64 / self.negatives.len().max(1) as f64;
        let score = self.score.score(pos_freq, neg_freq);
        self.top
            .offer(score, pos_freq, neg_freq, || pattern.clone());
    }

    /// Offers a claimed and admitted `pattern` and grows it. Each child runs in the
    /// order positive support, bound, canonical key, visited check; only a new one the
    /// bound admits is searched in the negatives.
    fn dfs(&mut self, pattern: &StaticPattern, pos_freq: f64, occ: &StaticOccurrences) {
        self.offer(pattern, pos_freq, occ.neg.len());
        if pattern.edge_count() >= self.max_edges {
            return;
        }
        // The offer may have raised the threshold past the bound it was admitted at.
        if !self.top.admits(self.score.upper_bound(pos_freq)) {
            return;
        }
        let children_at_cap = pattern.edge_count() + 1 == self.max_edges;
        let (parent_nodes, parent_edges) = (pattern.node_count(), pattern.edge_count());
        let (positives, negatives) = (self.positives, self.negatives);
        let (steps, in_lists) = children(pattern, positives, &occ.pos, &mut self.walk);
        // Every child is built in this one buffer: the parent plus one growth step.
        let mut child = pattern.clone();
        let mut start = 0;
        for run in steps.chunk_by(|a, b| a == b) {
            let seen = &in_lists[start..start + run.len()];
            start += run.len();
            child.labels.truncate(parent_nodes);
            child.edges.truncate(parent_edges);
            child.grow(unpack_key(run[0]));
            // A child can only occur where its parent does, so only those graphs are
            // searched. The walk saw it in at least one positive graph, so it has
            // positive support.
            let seen = Some(seen);
            let pos_graphs = self.child_support(&child, positives, &occ.pos, parent_nodes, seen);
            let Some(pos_freq) = self.admitted(pos_graphs) else {
                continue;
            };
            // Only an admitted child is keyed; one seen before costs its key and
            // nothing more.
            if !self.claim(&child) {
                continue;
            }
            self.negative_searches += occ.neg.len() as u64;
            if children_at_cap {
                // Never grown again: existence per graph is all that is read of it.
                let neg_graphs =
                    self.child_support(&child, negatives, &occ.neg, parent_nodes, None);
                self.offer(&child, pos_freq, neg_graphs);
            } else {
                let child_occ = StaticOccurrences {
                    pos: self.child_lists(&child, positives, &occ.pos, parent_nodes, seen),
                    neg: self.child_lists(&child, negatives, &occ.neg, parent_nodes, None),
                };
                self.dfs(&child, pos_freq, &child_occ);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::{GTest, LogRatio};
    use proptest::prelude::*;
    use tgraph::GraphBuilder;

    fn l(i: u32) -> Label {
        Label(i)
    }

    impl StaticGraph {
        /// All collapsed edges, sorted.
        fn edges(&self) -> &[(usize, usize)] {
            &self.edges
        }
    }

    impl StaticPattern {
        /// The canonical key, written into buffers of its own.
        fn canonical_key(&self) -> Vec<u64> {
            self.write_key(&mut KeyBuffers::default()).to_vec()
        }

        /// Up to `cap` embeddings (injective node maps) of the pattern in `graph`,
        /// searched from scratch, flat (stride = node count), in the order of a full
        /// scan of its edges.
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
    }

    /// [`children`] with each growth step applied: the child patterns in walk order,
    /// each with the lists the walk saw it in.
    fn walk(
        pattern: &StaticPattern,
        graphs: &Graphs,
        lists: &[(usize, Vec<usize>)],
    ) -> Vec<(StaticPattern, Vec<usize>)> {
        let (steps, in_lists) = children(pattern, graphs, lists, &mut WalkBuffers::default());
        let mut walked: Vec<(StaticPattern, Vec<usize>)> = Vec::new();
        for (packed, i) in steps.into_iter().zip(in_lists) {
            let mut child = pattern.clone();
            child.grow(unpack_key(packed));
            match walked.last_mut() {
                Some((last, seen)) if *last == child => seen.push(i),
                _ => walked.push((child, vec![i])),
            }
        }
        walked
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
        graphs: &Graphs,
        lists: &[(usize, Vec<usize>)],
    ) -> Vec<StaticPattern> {
        let mut keys: BTreeMap<(u8, u64, u64), StaticPattern> = BTreeMap::new();
        for (graph_id, list) in lists {
            let graph = graphs.get(*graph_id);
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
    fn random_graph(rng: &mut Rng) -> TemporalGraph {
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
        b.build()
    }

    /// `canonical_key` by brute force: the smallest serialization over every node
    /// order sorted by (label, out-degree, in-degree), each built whole.
    fn reference_key(pattern: &StaticPattern) -> Vec<u64> {
        fn orders(
            order: &mut Vec<usize>,
            class: &dyn Fn(usize) -> (Label, usize, usize),
            n: usize,
            visit: &mut dyn FnMut(&[usize]),
        ) {
            if order.len() == n {
                return visit(order);
            }
            for v in 0..n {
                if !order.contains(&v) && order.last().is_none_or(|&u| class(u) <= class(v)) {
                    order.push(v);
                    orders(order, class, n, visit);
                    order.pop();
                }
            }
        }
        let class = |v: usize| {
            let out = pattern.edges.iter().filter(|e| e.0 == v).count();
            let inn = pattern.edges.iter().filter(|e| e.1 == v).count();
            (pattern.labels[v], out, inn)
        };
        let mut best: Option<Vec<u64>> = None;
        orders(
            &mut Vec::new(),
            &class,
            pattern.node_count(),
            &mut |order| {
                let position = |v: usize| order.iter().position(|&o| o == v).unwrap() as u64;
                let mut edges: Vec<u64> = pattern
                    .edges
                    .iter()
                    .map(|&(s, d)| (position(s) << 32) | position(d))
                    .collect();
                edges.sort_unstable();
                let key: Vec<u64> = order
                    .iter()
                    .map(|&v| pattern.labels[v].id() as u64)
                    .chain(edges)
                    .collect();
                if best.as_ref().is_none_or(|b| key < *b) {
                    best = Some(key);
                }
            },
        );
        best.expect("a sorted order exists")
    }

    const CAPS: [usize; 5] = [1, 2, 3, CAP_PER_GRAPH, usize::MAX];

    /// Checks one pattern at one cap against the full scan and returns its children:
    /// (a) its lists are the full scan's; per child from the walk, (b) the derived
    /// lists are the full scan's, (c) so is the support count — the walk's answer
    /// for positives, extension or search for negatives — and its key, from fresh
    /// buffers and from buffers reused across the level, is the brute-force one.
    fn check_level(pattern: &StaticPattern, graphs: &Graphs, cap: usize) -> Vec<StaticPattern> {
        let score = LogRatio::default();
        let mut miner = StaticMiner::new(graphs, graphs, &score, usize::MAX, 1);
        miner.cap_per_graph = cap;
        let lists: Lists = (0..graphs.len())
            .filter_map(|g| {
                let graph = graphs.get(g);
                let list = pattern.find_embeddings(graph, cap, &mut miner.scratch);
                assert_eq!(
                    list,
                    reference_embeddings(pattern, graph, cap),
                    "(a) {pattern:?} cap {cap}"
                );
                (!list.is_empty()).then_some((g, list))
            })
            .collect();
        let walked = walk(pattern, graphs, &lists);
        let patterns: Vec<StaticPattern> = walked.iter().map(|(child, _)| child.clone()).collect();
        assert_eq!(
            patterns,
            reference_children(pattern, graphs, &lists),
            "{pattern:?} cap {cap}"
        );
        let nodes = pattern.node_count();
        for (child, seen) in &walked {
            let key = reference_key(child);
            assert_eq!(child.canonical_key(), key, "{child:?}");
            assert_eq!(child.write_key(&mut miner.keys), key, "{child:?} reused");
            let want: Lists = lists
                .iter()
                .map(|(g, _)| (*g, reference_embeddings(child, graphs.get(*g), cap)))
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

    /// Seed lists, searched on the collapse or read off the temporal edges, are the
    /// full scan's, and the seed's count is their number: every label pair of the
    /// alphabet, equal labels and self-loops included.
    fn check_seed_lists(graphs: &Graphs, cap: usize) {
        let score = LogRatio::default();
        let mut miner = StaticMiner::new(graphs, graphs, &score, usize::MAX, 1);
        miner.cap_per_graph = cap;
        let support = seed_support(graphs.temporal);
        for (a, b) in (0..3).flat_map(|a| (0..3).map(move |b| (l(a), l(b)))) {
            let seed = StaticPattern::single_edge(a, b);
            let want: Lists = (0..graphs.len())
                .map(|g| (g, reference_embeddings(&seed, graphs.get(g), cap)))
                .filter(|(_, list)| !list.is_empty())
                .collect();
            let counted = support.get(&(a, b)).map_or(0, |&(count, _)| count);
            assert_eq!(counted, want.len(), "{seed:?} counted");
            assert_eq!(miner.seed_lists(&seed, graphs), want, "{seed:?} cap {cap}");
            let scanned = miner.scanned_seed_lists(&seed, graphs);
            assert_eq!(scanned, want, "{seed:?} cap {cap} scanned");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The order contract on random graphs: seed lists, then patterns grown along
        /// the walk, each level checked at every cap, truncating ones included.
        #[test]
        fn indexed_and_derived_searches_keep_the_full_scans_order(seed in 0u64..u64::MAX, depth in 1usize..6) {
            let mut rng = Rng(seed);
            let temporal: Vec<TemporalGraph> = (0..3).map(|_| random_graph(&mut rng)).collect();
            let graphs = Graphs::new(&temporal);
            for cap in CAPS {
                check_seed_lists(&graphs, cap);
            }
            let graph = graphs.get(rng.below(graphs.len()));
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

        /// Bound first changes only what is searched: a run returns the exhaustive
        /// run's top-k, and searches the negatives no more often.
        #[test]
        fn bound_first_returns_the_exhaustive_top_k(seed in 0u64..u64::MAX, max_edges in 1usize..=4, top_k in 1usize..=6) {
            bound_first_case(seed, max_edges, top_k);
        }
    }

    /// `score` with the bound switched off: every candidate is admitted, so a run
    /// under it is the exhaustive search.
    struct Unbounded<'a>(&'a dyn ScoreFunction);

    impl ScoreFunction for Unbounded<'_> {
        fn score(&self, pos_freq: f64, neg_freq: f64) -> f64 {
            self.0.score(pos_freq, neg_freq)
        }

        fn upper_bound(&self, _pos_freq: f64) -> f64 {
            f64::INFINITY
        }

        fn name(&self) -> &'static str {
            "unbounded"
        }
    }

    /// 1–3 positive and 1–4 negative random graphs mined under `LogRatio` and
    /// `GTest`, each score bounded and unbounded: the same patterns, scores and
    /// frequencies in the same order, and the bounded run keys and searches no more.
    /// Returns each score's (bounded, unbounded) results.
    fn bound_first_case(
        seed: u64,
        max_edges: usize,
        top_k: usize,
    ) -> Vec<(NonTemporalResult, NonTemporalResult)> {
        let mut rng = Rng(seed);
        let positives: Vec<TemporalGraph> = (0..1 + rng.below(3))
            .map(|_| random_graph(&mut rng))
            .collect();
        let negatives: Vec<TemporalGraph> = (0..1 + rng.below(4))
            .map(|_| random_graph(&mut rng))
            .collect();
        let rendered = |result: &NonTemporalResult| -> Vec<(StaticPattern, [u64; 3])> {
            result
                .patterns
                .iter()
                .map(|p| {
                    let bits = [p.score, p.pos_freq, p.neg_freq].map(f64::to_bits);
                    (p.pattern.clone(), bits)
                })
                .collect()
        };
        let scores: [&dyn ScoreFunction; 2] = [&LogRatio::default(), &GTest::default()];
        scores
            .into_iter()
            .map(|score| {
                let bounded = mine_nontemporal(&positives, &negatives, score, max_edges, top_k);
                let exhaustive =
                    mine_nontemporal(&positives, &negatives, &Unbounded(score), max_edges, top_k);
                let what = format!("{} seed {seed} size {max_edges} top {top_k}", score.name());
                assert_eq!(rendered(&bounded), rendered(&exhaustive), "{what}");
                assert!(
                    bounded.negative_searches <= exhaustive.negative_searches,
                    "{what}"
                );
                assert!(
                    bounded.patterns_processed <= exhaustive.patterns_processed,
                    "{what}"
                );
                (bounded, exhaustive)
            })
            .collect()
    }

    /// Whether one of the oracle's first 32 cases at `max_edges` (top-k 2) has a
    /// (bounded, exhaustive) pair that `saved` holds for.
    fn some_case(
        max_edges: usize,
        saved: impl Fn(&NonTemporalResult, &NonTemporalResult) -> bool,
    ) -> bool {
        (0..32)
            .flat_map(|seed| bound_first_case(seed, max_edges, 2))
            .any(|(bounded, exhaustive)| saved(&bounded, &exhaustive))
    }

    /// The oracle's cases do cut. At size 1 nothing is grown, so only a seed cut before
    /// its negative search saves one.
    #[test]
    fn the_bound_saves_negative_searches_in_some_cases() {
        for max_edges in [1, 3] {
            assert!(
                some_case(max_edges, |b, e| b.negative_searches < e.negative_searches),
                "size {max_edges}: no case saved a negative search"
            );
        }
    }

    /// ... and a candidate the bound cuts is never keyed, so some case keys fewer.
    #[test]
    fn the_bound_saves_keys_in_some_cases() {
        for max_edges in [1, 3] {
            assert!(
                some_case(max_edges, |b, e| b.patterns_processed
                    < e.patterns_processed),
                "size {max_edges}: no case keyed fewer candidates"
            );
        }
    }

    #[test]
    fn a_hub_with_21_interchangeable_leaves_takes_the_weak_key() {
        // 21! overflows a `usize`; the saturated count sends the key to the weak form.
        let leaves = 21;
        let hub_first = StaticPattern {
            labels: [vec![l(0)], vec![l(1); leaves]].concat(),
            edges: (1..=leaves).map(|leaf| (0, leaf)).collect(),
        };
        let hub_last = StaticPattern {
            labels: [vec![l(1); leaves], vec![l(0)]].concat(),
            edges: (0..leaves).rev().map(|leaf| (leaves, leaf)).collect(),
        };
        let want: Vec<u64> = [0]
            .into_iter()
            .chain(std::iter::repeat_n(1, leaves))
            .chain(1..=leaves as u64)
            .collect();
        assert_eq!(hub_first.canonical_key(), want);
        assert_eq!(hub_last.canonical_key(), want);
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
        let temporal = [b.build()];
        let graphs = Graphs::new(&temporal);
        let score = LogRatio::default();
        let mut miner = StaticMiner::new(&graphs, &graphs, &score, usize::MAX, 1);

        let parent = StaticPattern::single_edge(l(0), l(1));
        let list = parent.find_embeddings(graphs.get(0), CAP_PER_GRAPH, &mut miner.scratch);
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
        assert!(walk(&parent, &graphs, &lists)
            .iter()
            .all(|(c, _)| *c != child));
        let mut extended = Vec::new();
        child.search(
            graphs.get(0),
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
        assert!(pattern.occurs(&whole, None, &mut scratch));
        assert!(!pattern.occurs(&prefix, None, &mut scratch));
    }

    #[test]
    fn mine_nontemporal_finds_the_shared_structure() {
        let positives = vec![chain(&[0, 1, 2, 5]), chain(&[0, 1, 2, 6])];
        let negatives = vec![chain(&[0, 3]), chain(&[4, 2])];
        let result = mine_nontemporal(&positives, &negatives, &LogRatio::default(), 3, 3);
        let best = result.patterns.first().expect("patterns mined");
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
