//! Occurrence (embedding) bookkeeping for patterns during mining.
//!
//! TGMiner is embedding-based: every live pattern keeps, for each data graph that
//! contains it, the list of its matches. Frequencies are "how many graphs have at least
//! one match" (Section 2), candidate extensions are enumerated from the residual edges
//! of each match (Section 3), and residual signatures (Section 4.4) are accumulated from
//! the matches' suffix sizes. A candidate's matches start out as [`Hits`] — a parent
//! match and an edge each — and become node maps only if it is grown.

use crate::StableMap;
use std::hash::Hash;
use std::iter::successors;
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

/// One occurrence of a candidate before its node map is built: its graph (where the
/// parent's occurrences list it; for a seed, its index in the graph set), the parent
/// embedding in that list (0 for a seed, which has none) and the data edge that grows
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    pub at: u32,
    pub parent: u32,
    pub edge: u32,
}

/// The hits of a family of candidates on one graph set (a parent's children, or the
/// seeds), at most a cap per key and graph, made by a [`HitCollector`]: for each (key,
/// graph), in that order, the head of a chain of hits.
#[derive(Debug)]
pub(crate) struct HitTable<K> {
    keys: Vec<K>,
    heads: Vec<u32>,
    /// Kept hits, each with the index of the next one of its key and graph.
    chained: Vec<(Hit, u32)>,
}

impl<K: Ord + Copy> HitTable<K> {
    /// Whether `key` has a hit.
    pub(crate) fn contains(&self, key: K) -> bool {
        self.keys.binary_search(&key).is_ok()
    }

    /// Each key with its hits, ascending.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (K, HitList<'_>)> {
        let mut start = 0;
        self.keys.chunk_by(|a, b| a == b).map(move |run| {
            start += run.len();
            let heads = &self.heads[start - run.len()..start];
            let chained = &self.chained[..];
            (run[0], HitList { heads, chained })
        })
    }

    /// Each key of `self` with its hits here and in `other` (none if `other` lacks
    /// it), ascending.
    pub(crate) fn paired<'a>(&'a self, other: &'a Self) -> impl Iterator<Item = (K, Hits<'a>)> {
        let mut other = other.runs().peekable();
        self.runs().map(move |(key, pos)| {
            while other.next_if(|&(k, _)| k < key).is_some() {}
            let neg = other.next_if(|&(k, _)| k == key).map(|(_, neg)| neg);
            let neg = neg.unwrap_or_default();
            (key, Hits { pos, neg })
        })
    }
}

/// Builds a [`HitTable`] graph by graph, keeping the first `cap` hits offered for each
/// key in each graph. The cap is tested on each hit before it is stored (at the cap
/// most hits are dropped), and a kept hit is chained to the previous one of its key
/// and graph: only the (key, graph) pairs are sorted, and a candidate's hits are read
/// again only if it is built.
pub(crate) struct HitCollector<K> {
    cap: usize,
    /// The current graph's keys: first and last kept hit, and how many. Drained at
    /// the end of each graph, it keeps its buckets for the next.
    local: StableMap<K, (u32, u32, usize)>,
    chained: Vec<(Hit, u32)>,
    /// Per (key, graph): the key, the graph and its first kept hit.
    runs: Vec<(K, u32, u32)>,
}

impl<K: Ord + Copy + Hash> HitCollector<K> {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            cap,
            local: StableMap::default(),
            chained: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Offers one hit of the current graph.
    pub(crate) fn offer(&mut self, key: K, hit: Hit) {
        let next = self.chained.len() as u32;
        let (_, last, count) = self.local.entry(key).or_insert((next, next, 0));
        if *count >= self.cap {
            return;
        }
        if *count > 0 {
            self.chained[*last as usize].1 = next;
        }
        *last = next;
        *count += 1;
        self.chained.push((hit, u32::MAX));
    }

    /// Ends the current graph, `at`.
    pub(crate) fn end_graph(&mut self, at: u32) {
        let kept = self.local.drain().filter(|&(_, (_, _, count))| count > 0);
        self.runs
            .extend(kept.map(|(key, (first, _, _))| (key, at, first)));
    }

    pub(crate) fn finish(mut self) -> HitTable<K> {
        self.runs.sort_unstable();
        let runs = self.runs.into_iter().map(|(key, _, first)| (key, first));
        let (keys, heads) = runs.unzip();
        let chained = self.chained;
        HitTable {
            keys,
            heads,
            chained,
        }
    }
}

/// One candidate's hits on one graph set: a chain per graph holding it.
#[derive(Debug, Clone, Copy, Default)]
pub struct HitList<'a> {
    heads: &'a [u32],
    chained: &'a [(Hit, u32)],
}

impl<'a> HitList<'a> {
    /// Number of graphs holding the candidate.
    pub fn graphs(&self) -> usize {
        self.heads.len()
    }

    /// Each graph holding the candidate (as [`Hit::at`] names it) with its hits, in
    /// the order they were offered.
    pub fn per_graph(&self) -> impl Iterator<Item = (usize, impl Iterator<Item = Hit> + 'a)> {
        let chained = self.chained;
        let link = move |i: u32| chained.get(i as usize);
        self.heads.iter().map(move |&first| {
            let chain = successors(link(first), move |&&(_, next)| link(next));
            (
                chained[first as usize].0.at as usize,
                chain.map(|&(hit, _)| hit),
            )
        })
    }
}

/// One candidate's hits on both graph sets: its frequencies are its graph counts, and
/// [`Hits::build`] makes its node maps only when the search needs them.
#[derive(Debug, Clone, Copy)]
pub struct Hits<'a> {
    /// Positive hits.
    pub pos: HitList<'a>,
    /// Negative hits.
    pub neg: HitList<'a>,
}

impl Hits<'_> {
    /// The occurrences these hits stand for: each hit's node map is its parent
    /// embedding's (a seed's is empty) plus the ends of its edge that map lacks.
    pub fn build(
        &self,
        parent: Option<&Occurrences>,
        positives: &[TemporalGraph],
        negatives: &[TemporalGraph],
    ) -> Occurrences {
        Occurrences {
            pos: build_lists(self.pos, parent.map(|p| &p.pos[..]), positives),
            neg: build_lists(self.neg, parent.map(|p| &p.neg[..]), negatives),
        }
    }
}

fn build_lists(
    hits: HitList,
    parents: Option<&[GraphOccurrences]>,
    graphs: &[TemporalGraph],
) -> Vec<GraphOccurrences> {
    let lists = hits.per_graph().map(|(at, list)| {
        let parent = parents.map(|parents| &parents[at]);
        let graph_id = parent.map_or(at, |parent| parent.graph_id);
        let embeddings = list.map(|hit| {
            let base = parent.map_or(&[][..], |p| &p.embeddings[hit.parent as usize].node_map);
            let edge = graphs[graph_id].edge(hit.edge as usize);
            let mut node_map = Vec::with_capacity(base.len() + 2);
            node_map.extend_from_slice(base);
            for node in [edge.src, edge.dst] {
                if !node_map.contains(&node) {
                    node_map.push(node);
                }
            }
            Embedding {
                node_map,
                last_edge_idx: hit.edge as usize,
            }
        });
        GraphOccurrences {
            graph_id,
            embeddings: embeddings.collect(),
        }
    });
    lists.collect()
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
    /// Total number of stored embeddings (positive + negative), for statistics.
    pub fn total_embeddings(&self) -> u64 {
        let p: usize = self.pos.iter().map(|g| g.embeddings.len()).sum();
        let n: usize = self.neg.iter().map(|g| g.embeddings.len()).sum();
        (p + n) as u64
    }

    /// Computes the occurrences of `pattern` from scratch over both graph sets.
    ///
    /// The from-scratch reference that tests check mining against; the miner never
    /// calls it. It builds its seeds' occurrences from one scan of each graph's edges
    /// (`miner::seed_hits`), and every larger pattern's from its parent's embeddings
    /// (see [`crate::growth`]).
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
        assert!((frequency(occ.pos.len(), positives.len()) - 2.0 / 3.0).abs() < 1e-12);
        assert!((frequency(occ.neg.len(), negatives.len()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn frequencies_handle_empty_sets() {
        let occ = Occurrences::default();
        assert_eq!(frequency(occ.pos.len(), 0), 0.0);
        assert_eq!(frequency(occ.neg.len(), 0), 0.0);
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
