//! Graph-index based temporal subgraph test (baseline `PruneGI` in Section 6.1).
//!
//! `PruneGI` answers temporal subgraph tests by indexing the one-edge substructures of
//! the larger graph (label-pair → list of edge positions) and then joining partial
//! matches into full matches in timestamp order. The index is rebuilt for every call,
//! which reproduces the overhead the paper attributes to this baseline ("PruneGI has to
//! frequently build graph indexes for each discovered pattern").

use crate::label::{Label, StableMap};
use crate::pattern::TemporalPattern;

/// A one-edge index over a temporal pattern: `(src label, dst label)` → edge positions
/// in timestamp order.
#[derive(Debug, Clone)]
pub struct OneEdgeIndex {
    postings: StableMap<(Label, Label), Vec<usize>>,
}

impl OneEdgeIndex {
    /// Builds the index for `pattern`.
    pub fn build(pattern: &TemporalPattern) -> Self {
        let mut postings: StableMap<(Label, Label), Vec<usize>> = StableMap::default();
        for (idx, edge) in pattern.edges().iter().enumerate() {
            let key = (pattern.label(edge.src), pattern.label(edge.dst));
            postings.entry(key).or_default().push(idx);
        }
        Self { postings }
    }

    /// Edge positions whose endpoint labels match `(src, dst)`.
    pub fn candidates(&self, src: Label, dst: Label) -> &[usize] {
        self.postings
            .get(&(src, dst))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of distinct label pairs indexed.
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }
}

/// Returns whether `g1 ⊆t g2` by joining one-edge partial matches in timestamp order.
///
/// The index over `g2` is rebuilt on every call (see module docs).
pub fn gindex_temporal_subgraph(g1: &TemporalPattern, g2: &TemporalPattern) -> bool {
    if g1.edge_count() > g2.edge_count() || g1.node_count() > g2.node_count() {
        return false;
    }
    let index = OneEdgeIndex::build(g2);
    // Quick infeasibility check from the index alone.
    for edge in g1.edges() {
        if index
            .candidates(g1.label(edge.src), g1.label(edge.dst))
            .is_empty()
        {
            return false;
        }
    }
    let mut node_map = vec![usize::MAX; g1.node_count()];
    let mut used = vec![false; g2.node_count()];
    join(g1, g2, &index, 0, 0, &mut node_map, &mut used)
}

/// Recursive join: match g1 edge `edge_idx` to a g2 edge at position `> after`.
fn join(
    g1: &TemporalPattern,
    g2: &TemporalPattern,
    index: &OneEdgeIndex,
    edge_idx: usize,
    after: usize,
    node_map: &mut Vec<usize>,
    used: &mut Vec<bool>,
) -> bool {
    if edge_idx == g1.edge_count() {
        return true;
    }
    let edge = g1.edges()[edge_idx];
    let candidates = index.candidates(g1.label(edge.src), g1.label(edge.dst));
    for &pos in candidates {
        if edge_idx > 0 && pos < after {
            continue;
        }
        let data_edge = g2.edges()[pos];
        let (ok, bound_src, bound_dst) = try_bind(
            edge.src,
            edge.dst,
            data_edge.src,
            data_edge.dst,
            node_map,
            used,
        );
        if !ok {
            continue;
        }
        if join(g1, g2, index, edge_idx + 1, pos + 1, node_map, used) {
            return true;
        }
        unbind(edge.src, edge.dst, bound_src, bound_dst, node_map, used);
    }
    false
}

/// Attempts to extend the node mapping with `p_src -> d_src` and `p_dst -> d_dst`.
/// Returns `(success, src_newly_bound, dst_newly_bound)`.
fn try_bind(
    p_src: usize,
    p_dst: usize,
    d_src: usize,
    d_dst: usize,
    node_map: &mut [usize],
    used: &mut [bool],
) -> (bool, bool, bool) {
    let mut bound_src = false;
    let mut bound_dst = false;
    // Source endpoint.
    if node_map[p_src] == usize::MAX {
        if used[d_src] {
            return (false, false, false);
        }
        node_map[p_src] = d_src;
        used[d_src] = true;
        bound_src = true;
    } else if node_map[p_src] != d_src {
        return (false, false, false);
    }
    // Destination endpoint (may coincide with source for self-loops).
    if node_map[p_dst] == usize::MAX {
        if used[d_dst] {
            if bound_src {
                node_map[p_src] = usize::MAX;
                used[d_src] = false;
            }
            return (false, false, false);
        }
        node_map[p_dst] = d_dst;
        used[d_dst] = true;
        bound_dst = true;
    } else if node_map[p_dst] != d_dst {
        if bound_src {
            node_map[p_src] = usize::MAX;
            used[d_src] = false;
        }
        return (false, false, false);
    }
    (true, bound_src, bound_dst)
}

/// Reverts bindings made by [`try_bind`].
fn unbind(
    p_src: usize,
    p_dst: usize,
    bound_src: bool,
    bound_dst: bool,
    node_map: &mut [usize],
    used: &mut [bool],
) {
    if bound_dst {
        used[node_map[p_dst]] = false;
        node_map[p_dst] = usize::MAX;
    }
    if bound_src {
        used[node_map[p_src]] = false;
        node_map[p_src] = usize::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqtest::is_temporal_subgraph;

    fn l(i: u32) -> Label {
        Label(i)
    }

    #[test]
    fn index_groups_edges_by_label_pair() {
        let p = TemporalPattern::single_edge(l(0), l(1))
            .grow_inward(0, 1)
            .unwrap()
            .grow_forward(1, l(2))
            .unwrap();
        let index = OneEdgeIndex::build(&p);
        assert_eq!(index.candidates(l(0), l(1)), &[0, 1]);
        assert_eq!(index.candidates(l(1), l(2)), &[2]);
        assert!(index.candidates(l(2), l(0)).is_empty());
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn agrees_with_sequence_test() {
        let small = TemporalPattern::single_edge(l(0), l(1))
            .grow_forward(1, l(2))
            .unwrap();
        let big = small
            .clone()
            .grow_backward(l(3), 0)
            .unwrap()
            .grow_inward(0, 1)
            .unwrap();
        assert!(gindex_temporal_subgraph(&small, &big));
        assert!(!gindex_temporal_subgraph(&big, &small));
        assert_eq!(
            gindex_temporal_subgraph(&small, &big),
            is_temporal_subgraph(&small, &big)
        );
    }

    #[test]
    fn respects_temporal_order() {
        let g_a = TemporalPattern::single_edge(l(0), l(1))
            .grow_forward(1, l(2))
            .unwrap();
        let g_b = TemporalPattern::single_edge(l(1), l(2))
            .grow_backward(l(0), 0)
            .unwrap();
        assert!(!gindex_temporal_subgraph(&g_a, &g_b));
    }

    #[test]
    fn handles_self_loops() {
        let loop_pattern = TemporalPattern::single_self_loop(l(4));
        let host = TemporalPattern::single_edge(l(4), l(5))
            .grow_inward(0, 0)
            .unwrap();
        assert!(gindex_temporal_subgraph(&loop_pattern, &host));
    }

    #[test]
    fn missing_label_pair_short_circuits() {
        let g1 = TemporalPattern::single_edge(l(9), l(9));
        let g2 = TemporalPattern::single_edge(l(0), l(1))
            .grow_forward(1, l(2))
            .unwrap();
        assert!(!gindex_temporal_subgraph(&g1, &g2));
    }
}
