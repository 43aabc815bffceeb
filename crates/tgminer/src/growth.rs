//! Consecutive pattern growth (Section 3): extension enumeration from embeddings.
//!
//! Given a pattern and its occurrences, every match's residual edges (the data edges
//! after its last matched edge) are scanned once. Each residual edge that touches the
//! match induces exactly one of the three growth options of Section 3.2 — forward,
//! backward, or inward — identified by an [`ExtensionKey`]. Grouping the hits by key
//! yields, per Lemma 3 and Theorem 1, every child pattern exactly once, with its
//! occurrences in hand.
//!
//! [`extension_hits`] keeps each hit as a compact [`Hit`] (parent embedding, edge), at
//! most the per-graph cap per key and graph, so the miner reads a child's graph counts
//! and tests its bound before it builds any node map ([`Hits::build`]). The size-cap
//! level, whose children are never grown, reads the same scan at cap 1.
//!
//! Candidate keys are taken from the *positive* graphs only (a pattern absent from the
//! positives has zero positive frequency and can never be discriminative); the negative
//! occurrences are then extended for exactly those keys.

use crate::embedding::{GraphOccurrences, Hit, HitCollector, HitTable, Hits, Occurrences};
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

/// Calls `visit(key, hits)` for every consecutive-growth extension of the pattern
/// whose occurrences are `occ` that at least one positive graph supports, in key
/// order. Its hits on each graph set are at most `cap_per_graph` per graph, each a
/// parent embedding of `occ` and the residual edge that grows it ([`Hits::build`]
/// turns them into the child's occurrences).
///
/// The cap guards against embedding explosion in label-repetitive background graphs.
pub fn extension_hits(
    occ: &Occurrences,
    positives: &[TemporalGraph],
    negatives: &[TemporalGraph],
    cap_per_graph: usize,
    mut visit: impl FnMut(ExtensionKey, Hits),
) {
    let pos = scan(&occ.pos, positives, cap_per_graph, None);
    if pos.runs().next().is_none() {
        return;
    }
    let neg = scan(&occ.neg, negatives, cap_per_graph, Some(&pos));
    for (packed, hits) in pos.paired(&neg) {
        visit(unpack_key(packed), hits);
    }
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

/// Marks a data node no pattern node maps to in [`scan`]'s position array (and in the
/// position array of Ntemp's walk, `baselines::gspan`).
pub(crate) const UNMAPPED: u32 = u32::MAX;

/// The residual-edge scan: the hits of `graph_occs` — every residual edge that touches
/// one of their embeddings, in embedding order and then edge order, keyed by its
/// growth step — at most `cap_per_graph` per (key, graph), for the keys in `allowed`
/// only when it is given.
fn scan(
    graph_occs: &[GraphOccurrences],
    graphs: &[TemporalGraph],
    cap_per_graph: usize,
    allowed: Option<&HitTable<u64>>,
) -> HitTable<u64> {
    // Data node -> pattern position under the embedding being scanned.
    let mut position: Vec<u32> = Vec::new();
    let mut kept = HitCollector::new(cap_per_graph);
    for (at, graph_occ) in (0..).zip(graph_occs) {
        let graph = &graphs[graph_occ.graph_id];
        assert!(graph.edge_count().max(graph_occ.embeddings.len()) <= u32::MAX as usize);
        if position.len() < graph.node_count() {
            position.resize(graph.node_count(), UNMAPPED);
        }
        let labels = graph.labels();
        for (parent, embedding) in (0..).zip(&graph_occ.embeddings) {
            assert!(embedding.node_map.len() <= MAX_POSITIONS);
            for (p, &node) in embedding.node_map.iter().enumerate() {
                position[node] = p as u32;
            }
            let first = embedding.last_edge_idx + 1;
            for (edge, data) in (first as u32..).zip(&graph.edges()[first..]) {
                let (src, dst) = (position[data.src] as usize, position[data.dst] as usize);
                let key = match (src != UNMAPPED as usize, dst != UNMAPPED as usize) {
                    (false, false) => continue,
                    (true, true) => ExtensionKey::Inward { src, dst },
                    (true, false) => ExtensionKey::Forward {
                        src,
                        dst_label: labels[data.dst],
                    },
                    (false, true) => ExtensionKey::Backward {
                        src_label: labels[data.src],
                        dst,
                    },
                };
                let packed = pack_key(key);
                if allowed.is_none_or(|allowed| allowed.contains(packed)) {
                    kept.offer(packed, Hit { at, parent, edge });
                }
            }
            for &node in &embedding.node_map {
                position[node] = UNMAPPED;
            }
        }
        kept.end_graph(at);
    }
    kept.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::{GraphBuilder, Label};

    fn l(i: u32) -> Label {
        Label(i)
    }

    /// `occ`'s extensions with their occurrences built.
    fn extensions(
        occ: &Occurrences,
        positives: &[TemporalGraph],
        negatives: &[TemporalGraph],
        cap: usize,
    ) -> Vec<(ExtensionKey, Occurrences)> {
        let mut built = Vec::new();
        extension_hits(occ, positives, negatives, cap, |key, hits| {
            built.push((key, hits.build(Some(occ), positives, negatives)));
        });
        built
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
        let extensions = extensions(&occ, &positives, &negatives, 100);
        let keys: Vec<ExtensionKey> = extensions.iter().map(|e| e.0).collect();
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
        let extensions = extensions(&occ, &positives, &negatives, 100);
        let forward = extensions
            .iter()
            .find(|e| {
                e.0 == ExtensionKey::Forward {
                    src: 1,
                    dst_label: l(2),
                }
            })
            .unwrap();
        assert_eq!(forward.1.pos.len(), 1);
        assert_eq!(forward.1.neg.len(), 1);
        let backward = extensions
            .iter()
            .find(|e| {
                e.0 == ExtensionKey::Backward {
                    src_label: l(3),
                    dst: 0,
                }
            })
            .unwrap();
        assert!(backward.1.neg.is_empty());
    }

    #[test]
    fn child_embeddings_extend_parent_embeddings() {
        let positives = vec![positive()];
        let p = TemporalPattern::single_edge(l(0), l(1));
        let occ = Occurrences::compute(&p, &positives, &[], 100);
        let extensions = extensions(&occ, &positives, &[], 100);
        let inward = extensions
            .iter()
            .find(|e| e.0 == ExtensionKey::Inward { src: 0, dst: 1 })
            .unwrap();
        let emb = &inward.1.pos[0].embeddings[0];
        assert_eq!(emb.node_map, vec![0, 1]);
        assert_eq!(emb.last_edge_idx, 2);
        let child = inward.0.apply(&p);
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
        let extensions = extensions(&occ, &positives, &[], 3);
        let inward = extensions
            .iter()
            .find(|e| e.0 == ExtensionKey::Inward { src: 0, dst: 1 })
            .unwrap();
        assert_eq!(inward.1.pos[0].embeddings.len(), 3);
    }

    #[test]
    fn counting_agrees_with_enumeration() {
        let positives = vec![positive(), negative()];
        let negatives = vec![negative(), positive()];
        let p = TemporalPattern::single_edge(l(0), l(1));
        let occ = Occurrences::compute(&p, &positives, &negatives, 100);
        // The size-cap level's counts: one hit per graph, at cap 1.
        let mut counted = Vec::new();
        extension_hits(&occ, &positives, &negatives, 1, |key, hits| {
            counted.push((key, hits.pos.graphs(), hits.neg.graphs()));
        });
        let enumerated = extensions(&occ, &positives, &negatives, 100);
        assert_eq!(counted.len(), 3);
        assert_eq!(counted.len(), enumerated.len());
        for (&(key, pos, neg), (other, occ)) in counted.iter().zip(&enumerated) {
            assert_eq!(key, *other);
            assert_eq!((pos, neg), (occ.pos.len(), occ.neg.len()));
        }
        // B -> C follows A -> B in every graph; D -> A only in the `positive()` shape.
        assert_eq!((counted[0].1, counted[0].2), (2, 2));
        assert_eq!((counted[1].1, counted[1].2), (1, 1));
        // Nothing to count without a positive occurrence.
        let absent = TemporalPattern::single_edge(l(7), l(8));
        let occ = Occurrences::compute(&absent, &positives, &negatives, 100);
        extension_hits(&occ, &positives, &negatives, 1, |key, _| panic!("{key:?}"));
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
        assert!(extensions(&occ, &positives, &[], 100).is_empty());
    }
}
