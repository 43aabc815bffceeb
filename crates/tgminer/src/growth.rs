//! Consecutive pattern growth (Section 3): extension enumeration from embeddings.
//!
//! Given a pattern and its occurrences, every match's residual edges (the data edges
//! after its last matched edge) are scanned once. Each residual edge that touches the
//! match induces exactly one of the three growth options of Section 3.2 — forward,
//! backward, or inward — identified by an [`ExtensionKey`]. Grouping the resulting
//! child embeddings by key yields, per Lemma 3 and Theorem 1, every child pattern
//! exactly once, with its occurrence list already materialised.
//!
//! The scan is one routine with two readers. [`enumerate_extensions`] is for the
//! interior levels, whose children are parents in turn: it buckets each hit's child
//! embedding by key, at most the per-graph cap of them. [`count_extensions`] is for
//! the miner's size cap, whose children are never grown again, so all the search reads
//! of them is how many graphs support them: it keeps only the keys each graph induces
//! and builds no child embedding.
//!
//! Candidate keys are taken from the *positive* graphs only (a pattern absent from the
//! positives has zero positive frequency and can never be discriminative); the negative
//! occurrences are then extended for exactly those keys.

use crate::embedding::{GraphOccurrences, Occurrences};
use std::collections::BTreeMap;
use tgraph::matching::Embedding;
use tgraph::pattern::TemporalPattern;
use tgraph::{Label, TemporalGraph};

/// Identifies one consecutive-growth step of a specific pattern.
///
/// Node indices refer to the parent pattern's canonical node ids; the new node created
/// by forward/backward growth always receives id `parent.node_count()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExtensionKey {
    /// New edge from existing node `src` to a new node labeled `dst_label`.
    Forward {
        /// Existing source node (parent pattern id).
        src: usize,
        /// Label of the new destination node.
        dst_label: Label,
    },
    /// New edge from a new node labeled `src_label` to existing node `dst`.
    Backward {
        /// Label of the new source node.
        src_label: Label,
        /// Existing destination node (parent pattern id).
        dst: usize,
    },
    /// New edge between two existing nodes.
    Inward {
        /// Existing source node.
        src: usize,
        /// Existing destination node.
        dst: usize,
    },
}

impl ExtensionKey {
    /// Applies this growth step to `parent`, producing the child pattern.
    pub fn apply(&self, parent: &TemporalPattern) -> TemporalPattern {
        match *self {
            ExtensionKey::Forward { src, dst_label } => parent
                .grow_forward(src, dst_label)
                .expect("extension keys reference valid parent nodes"),
            ExtensionKey::Backward { src_label, dst } => parent
                .grow_backward(src_label, dst)
                .expect("extension keys reference valid parent nodes"),
            ExtensionKey::Inward { src, dst } => parent
                .grow_inward(src, dst)
                .expect("extension keys reference valid parent nodes"),
        }
    }
}

/// A candidate child pattern: the growth step plus its already-materialised occurrences.
#[derive(Debug, Clone)]
pub struct Extension {
    /// The growth step relative to the parent pattern.
    pub key: ExtensionKey,
    /// Occurrences of the child pattern.
    pub occurrences: Occurrences,
}

/// Enumerates all consecutive-growth extensions of `pattern` supported by at least one
/// positive graph, together with their occurrences on both graph sets.
///
/// `cap_per_graph` bounds how many child embeddings are kept per (extension, graph); it
/// guards against embedding explosion in label-repetitive background graphs.
pub fn enumerate_extensions(
    occ: &Occurrences,
    positives: &[TemporalGraph],
    negatives: &[TemporalGraph],
    cap_per_graph: usize,
) -> Vec<Extension> {
    let mut scan = Scan::default();
    let pos = scan.children(&occ.pos, positives, cap_per_graph, None);
    if pos.is_empty() {
        return Vec::new();
    }
    let mut neg = scan.children(&occ.neg, negatives, cap_per_graph, Some(&pos));
    pos.into_iter()
        .map(|(packed, pos)| Extension {
            key: unpack_key(packed),
            occurrences: Occurrences {
                pos,
                neg: neg.remove(&packed).unwrap_or_default(),
            },
        })
        .collect()
}

/// Support of one child pattern: the growth step and how many graphs of each set
/// contain the child (what [`Extension::occurrences`] would hold as `pos.len()` and
/// `neg.len()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtensionSupport {
    /// The growth step relative to the parent pattern.
    pub key: ExtensionKey,
    /// Positive graphs containing the child (at least one).
    pub pos_graphs: usize,
    /// Negative graphs containing the child.
    pub neg_graphs: usize,
}

/// Counts, without materialising them, the extensions [`enumerate_extensions`] would
/// return for the same parent occurrences: the same keys in the same order, each with
/// the number of positive and negative graphs that support the child.
///
/// A graph supports a child iff some stored parent embedding in it has a residual edge
/// inducing the child's key, so the per-graph embedding cap plays no part here.
pub fn count_extensions(
    occ: &Occurrences,
    positives: &[TemporalGraph],
    negatives: &[TemporalGraph],
) -> Vec<ExtensionSupport> {
    let mut scan = Scan::default();
    let pos = scan.graphs_per_key(&occ.pos, positives);
    if pos.is_empty() {
        return Vec::new();
    }
    let mut neg = scan
        .graphs_per_key(&occ.neg, negatives)
        .into_iter()
        .peekable();
    pos.into_iter()
        .map(|(packed, pos_graphs)| {
            while neg.next_if(|&(other, _)| other < packed).is_some() {}
            let neg_graphs = neg
                .next_if(|&(other, _)| other == packed)
                .map_or(0, |(_, count)| count);
            ExtensionSupport {
                key: unpack_key(packed),
                pos_graphs,
                neg_graphs,
            }
        })
        .collect()
}

// An `ExtensionKey` as one integer whose order is the key's derived `Ord`: the
// variant in the top two bits, then the fields in declaration order. Pattern
// positions get 30 bits, labels their full 32.
const KIND_SHIFT: u32 = 62;
const POSITION_BITS: u32 = 30;
const MAX_POSITIONS: usize = 1 << POSITION_BITS;

pub(crate) fn pack_key(key: ExtensionKey) -> u64 {
    match key {
        ExtensionKey::Forward { src, dst_label } => (src as u64) << 32 | dst_label.id() as u64,
        ExtensionKey::Backward { src_label, dst } => {
            1 << KIND_SHIFT | (src_label.id() as u64) << POSITION_BITS | dst as u64
        }
        ExtensionKey::Inward { src, dst } => 2 << KIND_SHIFT | (src as u64) << 32 | dst as u64,
    }
}

pub(crate) fn unpack_key(packed: u64) -> ExtensionKey {
    let body = packed & ((1 << KIND_SHIFT) - 1);
    match packed >> KIND_SHIFT {
        0 => ExtensionKey::Forward {
            src: (body >> 32) as usize,
            dst_label: Label(body as u32),
        },
        1 => ExtensionKey::Backward {
            src_label: Label((body >> POSITION_BITS) as u32),
            dst: (body & ((1 << POSITION_BITS) - 1)) as usize,
        },
        _ => ExtensionKey::Inward {
            src: (body >> 32) as usize,
            dst: body as u32 as usize,
        },
    }
}

/// Marks a data node no pattern node maps to in [`Scan::position`] (and in the
/// position array of Ntemp's walk, `baselines::gspan`).
pub(crate) const UNMAPPED: u32 = u32::MAX;

/// Child embeddings per packed key over one graph set, in graph order.
type Children = BTreeMap<u64, Vec<GraphOccurrences>>;

/// The residual-edge scan both readers share; its buffer is reused across graphs.
#[derive(Default)]
struct Scan {
    /// Data node -> pattern position under the embedding being scanned.
    position: Vec<u32>,
}

impl Scan {
    /// Calls `hit(packed key, embedding, edge index)` for every residual edge that
    /// touches an embedding of `graph_occ`, in embedding order and then edge order.
    fn scan_graph(
        &mut self,
        graph_occ: &GraphOccurrences,
        graph: &TemporalGraph,
        mut hit: impl FnMut(u64, &Embedding, usize),
    ) {
        if self.position.len() < graph.node_count() {
            self.position.resize(graph.node_count(), UNMAPPED);
        }
        let position = &mut self.position[..graph.node_count()];
        let labels = graph.labels();
        for embedding in &graph_occ.embeddings {
            assert!(embedding.node_map.len() <= MAX_POSITIONS);
            for (p, &node) in embedding.node_map.iter().enumerate() {
                position[node] = p as u32;
            }
            let first = embedding.last_edge_idx + 1;
            for (idx, edge) in (first..).zip(&graph.edges()[first..]) {
                let (src, dst) = (position[edge.src] as usize, position[edge.dst] as usize);
                let key = match (src != UNMAPPED as usize, dst != UNMAPPED as usize) {
                    (false, false) => continue,
                    (true, true) => ExtensionKey::Inward { src, dst },
                    (true, false) => ExtensionKey::Forward {
                        src,
                        dst_label: labels[edge.dst],
                    },
                    (false, true) => ExtensionKey::Backward {
                        src_label: labels[edge.src],
                        dst,
                    },
                };
                hit(pack_key(key), embedding, idx);
            }
            for &node in &embedding.node_map {
                position[node] = UNMAPPED;
            }
        }
    }

    /// The child embeddings of `graph_occs`, at most `cap_per_graph` per (key, graph),
    /// for the keys in `allowed` only when it is given.
    ///
    /// The cap is tested on each hit, before a node map is cloned: at the cap most
    /// hits are dropped, and a reader that stored every hit and sorted them measured
    /// slower (DESIGN, "What is materialised where").
    fn children(
        &mut self,
        graph_occs: &[GraphOccurrences],
        graphs: &[TemporalGraph],
        cap_per_graph: usize,
        allowed: Option<&Children>,
    ) -> Children {
        let mut out = Children::new();
        for graph_occ in graph_occs {
            let graph = &graphs[graph_occ.graph_id];
            let mut local: BTreeMap<u64, Vec<Embedding>> = BTreeMap::new();
            self.scan_graph(graph_occ, graph, |packed, embedding, idx| {
                if allowed.is_some_and(|allowed| !allowed.contains_key(&packed)) {
                    return;
                }
                let bucket = local.entry(packed).or_default();
                if bucket.len() >= cap_per_graph {
                    return;
                }
                let mut node_map = embedding.node_map.clone();
                let edge = graph.edge(idx);
                match packed >> KIND_SHIFT {
                    0 => node_map.push(edge.dst),
                    1 => node_map.push(edge.src),
                    _ => {}
                }
                bucket.push(Embedding {
                    node_map,
                    last_edge_idx: idx,
                });
            });
            for (packed, embeddings) in local {
                out.entry(packed).or_default().push(GraphOccurrences {
                    graph_id: graph_occ.graph_id,
                    embeddings,
                });
            }
        }
        out
    }

    /// For every key induced in at least one of `graph_occs`, the number of graphs
    /// inducing it, in ascending packed-key order.
    fn graphs_per_key(
        &mut self,
        graph_occs: &[GraphOccurrences],
        graphs: &[TemporalGraph],
    ) -> Vec<(u64, usize)> {
        // One entry per (graph, distinct key): a key's run length is its graph count.
        let mut per_graph: Vec<u64> = Vec::new();
        let mut hits: Vec<u64> = Vec::new();
        for graph_occ in graph_occs {
            let graph = &graphs[graph_occ.graph_id];
            self.scan_graph(graph_occ, graph, |packed, _, _| hits.push(packed));
            hits.sort_unstable();
            hits.dedup();
            per_graph.append(&mut hits);
        }
        per_graph.sort_unstable();
        let mut counts: Vec<(u64, usize)> = Vec::new();
        for packed in per_graph {
            match counts.last_mut() {
                Some((last, count)) if *last == packed => *count += 1,
                _ => counts.push((packed, 1)),
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{GraphBuilder, Label};

    fn l(i: u32) -> Label {
        Label(i)
    }

    /// Positive graph: A0 -> B1 @1, B1 -> C2 @2, A0 -> B1 @3 (multi-edge), D3 -> A0 @4.
    fn positive() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(l(0));
        let bb = b.add_node(l(1));
        let c = b.add_node(l(2));
        let d = b.add_node(l(3));
        b.add_edge(a, bb, 1).unwrap();
        b.add_edge(bb, c, 2).unwrap();
        b.add_edge(a, bb, 3).unwrap();
        b.add_edge(d, a, 4).unwrap();
        b.build()
    }

    /// Negative graph: A -> B @1, B -> C @2.
    fn negative() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(l(0));
        let bb = b.add_node(l(1));
        let c = b.add_node(l(2));
        b.add_edge(a, bb, 1).unwrap();
        b.add_edge(bb, c, 2).unwrap();
        b.build()
    }

    #[test]
    fn enumerates_all_three_growth_kinds() {
        let positives = vec![positive()];
        let negatives = vec![negative()];
        let p = TemporalPattern::single_edge(l(0), l(1));
        let occ = Occurrences::compute(&p, &positives, &negatives, 100);
        let extensions = enumerate_extensions(&occ, &positives, &negatives, 100);
        let keys: Vec<ExtensionKey> = extensions.iter().map(|e| e.key).collect();
        // From the first A->B match (edge 0): B->C forward, A->B inward (edge 2),
        // D->A backward (edge 3). The second A->B match (edge 2) adds D->A backward only.
        assert!(keys.contains(&ExtensionKey::Forward {
            src: 1,
            dst_label: l(2)
        }));
        assert!(keys.contains(&ExtensionKey::Inward { src: 0, dst: 1 }));
        assert!(keys.contains(&ExtensionKey::Backward {
            src_label: l(3),
            dst: 0
        }));
        assert_eq!(keys.len(), 3);
    }

    #[test]
    fn negative_occurrences_follow_positive_keys() {
        let positives = vec![positive()];
        let negatives = vec![negative()];
        let p = TemporalPattern::single_edge(l(0), l(1));
        let occ = Occurrences::compute(&p, &positives, &negatives, 100);
        let extensions = enumerate_extensions(&occ, &positives, &negatives, 100);
        let forward = extensions
            .iter()
            .find(|e| {
                e.key
                    == ExtensionKey::Forward {
                        src: 1,
                        dst_label: l(2),
                    }
            })
            .unwrap();
        assert_eq!(forward.occurrences.pos.len(), 1);
        assert_eq!(forward.occurrences.neg.len(), 1);
        let backward = extensions
            .iter()
            .find(|e| {
                e.key
                    == ExtensionKey::Backward {
                        src_label: l(3),
                        dst: 0,
                    }
            })
            .unwrap();
        assert!(backward.occurrences.neg.is_empty());
    }

    #[test]
    fn child_embeddings_extend_parent_embeddings() {
        let positives = vec![positive()];
        let p = TemporalPattern::single_edge(l(0), l(1));
        let occ = Occurrences::compute(&p, &positives, &[], 100);
        let extensions = enumerate_extensions(&occ, &positives, &[], 100);
        let inward = extensions
            .iter()
            .find(|e| e.key == ExtensionKey::Inward { src: 0, dst: 1 })
            .unwrap();
        let emb = &inward.occurrences.pos[0].embeddings[0];
        assert_eq!(emb.node_map, vec![0, 1]);
        assert_eq!(emb.last_edge_idx, 2);
        let child = inward.key.apply(&p);
        assert_eq!(child.edge_count(), 2);
        assert_eq!(child.node_count(), 2);
    }

    #[test]
    fn applying_a_key_grows_the_parent() {
        let p = TemporalPattern::single_edge(l(0), l(1));
        let fwd = ExtensionKey::Forward {
            src: 1,
            dst_label: l(2),
        };
        let bwd = ExtensionKey::Backward {
            src_label: l(3),
            dst: 0,
        };
        let inw = ExtensionKey::Inward { src: 0, dst: 1 };
        assert_eq!(fwd.apply(&p).node_count(), 3);
        assert_eq!(bwd.apply(&p).node_count(), 3);
        assert_eq!(inw.apply(&p).node_count(), 2);
    }

    #[test]
    fn cap_limits_child_embeddings_per_graph() {
        // A graph with many A->B edges yields many inward extensions of A->B.
        let mut b = GraphBuilder::new();
        let a = b.add_node(l(0));
        let bb = b.add_node(l(1));
        for t in 1..=10 {
            b.add_edge(a, bb, t).unwrap();
        }
        let positives = vec![b.build()];
        let p = TemporalPattern::single_edge(l(0), l(1));
        let occ = Occurrences::compute(&p, &positives, &[], 100);
        let extensions = enumerate_extensions(&occ, &positives, &[], 3);
        let inward = extensions
            .iter()
            .find(|e| e.key == ExtensionKey::Inward { src: 0, dst: 1 })
            .unwrap();
        assert_eq!(inward.occurrences.pos[0].embeddings.len(), 3);
    }

    #[test]
    fn counting_agrees_with_enumeration() {
        let positives = vec![positive(), negative()];
        let negatives = vec![negative(), positive()];
        let p = TemporalPattern::single_edge(l(0), l(1));
        let occ = Occurrences::compute(&p, &positives, &negatives, 100);
        let counted = count_extensions(&occ, &positives, &negatives);
        let enumerated = enumerate_extensions(&occ, &positives, &negatives, 1);
        assert_eq!(counted.len(), 3);
        assert_eq!(counted.len(), enumerated.len());
        for (count, extension) in counted.iter().zip(&enumerated) {
            assert_eq!(count.key, extension.key);
            assert_eq!(count.pos_graphs, extension.occurrences.pos.len());
            assert_eq!(count.neg_graphs, extension.occurrences.neg.len());
        }
        // B -> C follows A -> B in every graph; D -> A only in the `positive()` shape.
        assert_eq!((counted[0].pos_graphs, counted[0].neg_graphs), (2, 2));
        assert_eq!((counted[1].pos_graphs, counted[1].neg_graphs), (1, 1));
        // Nothing to count without a positive occurrence.
        let absent = TemporalPattern::single_edge(l(7), l(8));
        let occ = Occurrences::compute(&absent, &positives, &negatives, 100);
        assert!(count_extensions(&occ, &positives, &negatives).is_empty());
    }

    #[test]
    fn packed_keys_round_trip_and_sort_like_the_keys() {
        let far = MAX_POSITIONS - 1;
        let mut keys = Vec::new();
        for (node, label) in [(0, l(0)), (1, l(u32::MAX)), (far, l(7)), (far, l(u32::MAX))] {
            keys.push(ExtensionKey::Forward {
                src: node,
                dst_label: label,
            });
            keys.push(ExtensionKey::Backward {
                src_label: label,
                dst: node,
            });
            keys.push(ExtensionKey::Inward {
                src: node,
                dst: far - node,
            });
        }
        for &key in &keys {
            assert_eq!(unpack_key(pack_key(key)), key);
        }
        let mut by_key = keys.clone();
        by_key.sort();
        keys.sort_by_key(|&key| pack_key(key));
        assert_eq!(keys, by_key);
    }

    #[test]
    fn no_extensions_when_pattern_absent_from_positives() {
        let positives = vec![negative()];
        let p = TemporalPattern::single_edge(l(7), l(8));
        let occ = Occurrences::compute(&p, &positives, &[], 100);
        assert!(enumerate_extensions(&occ, &positives, &[], 100).is_empty());
    }
}
