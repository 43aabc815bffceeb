//! Temporal graph patterns (Section 2) and consecutive growth (Section 3).
//!
//! A temporal graph pattern is a temporal graph whose edge timestamps are aligned to
//! `1..=|E|`: only the total edge order matters, not wall-clock values. Patterns are
//! stored in a *canonical form*: nodes are numbered by first-visit order along the edge
//! (timestamp) order, visiting the source of an edge before its destination. Because
//! edge timestamps are totally ordered, the match mapping between two equal patterns is
//! unique (Lemma 1), so two patterns are `=t` if and only if their canonical forms are
//! structurally identical. Pattern equality and hashing are therefore plain `==`/`Hash`.

use crate::error::GraphError;
use crate::graph::TemporalGraph;
use crate::label::Label;
use std::fmt;

/// A pattern edge. The edge with storage index `i` has timestamp `i + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternEdge {
    /// Source pattern-node id.
    pub src: usize,
    /// Destination pattern-node id.
    pub dst: usize,
}

/// A T-connected temporal graph pattern in canonical form.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemporalPattern {
    labels: Vec<Label>,
    edges: Vec<PatternEdge>,
}

impl TemporalPattern {
    /// Creates the one-edge pattern `src_label --1--> dst_label`.
    ///
    /// If both labels are attached to the same node (a self-loop) use
    /// [`TemporalPattern::single_self_loop`] instead.
    pub fn single_edge(src_label: Label, dst_label: Label) -> Self {
        Self {
            labels: vec![src_label, dst_label],
            edges: vec![PatternEdge { src: 0, dst: 1 }],
        }
    }

    /// Creates a one-edge self-loop pattern on a single node.
    pub fn single_self_loop(label: Label) -> Self {
        Self {
            labels: vec![label],
            edges: vec![PatternEdge { src: 0, dst: 0 }],
        }
    }

    /// Number of pattern nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of pattern edges (the largest timestamp).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Label of pattern node `node`.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    #[inline]
    pub fn label(&self, node: usize) -> Label {
        self.labels[node]
    }

    /// All node labels indexed by pattern-node id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Pattern edges in timestamp order (edge `i` has timestamp `i + 1`).
    #[inline]
    pub fn edges(&self) -> &[PatternEdge] {
        &self.edges
    }

    /// Out-degree of a pattern node.
    pub fn out_degree(&self, node: usize) -> usize {
        self.edges.iter().filter(|e| e.src == node).count()
    }

    /// In-degree of a pattern node.
    pub fn in_degree(&self, node: usize) -> usize {
        self.edges.iter().filter(|e| e.dst == node).count()
    }

    /// Grows the pattern by a forward edge: `existing src --|E|+1--> new node (dst_label)`.
    ///
    /// Returns the grown pattern; `self` is unchanged.
    pub fn grow_forward(&self, src: usize, dst_label: Label) -> Result<Self, GraphError> {
        if src >= self.labels.len() {
            return Err(GraphError::UnknownNode {
                node: src,
                node_count: self.labels.len(),
            });
        }
        let mut grown = self.clone();
        grown.labels.push(dst_label);
        let dst = grown.labels.len() - 1;
        grown.edges.push(PatternEdge { src, dst });
        Ok(grown)
    }

    /// Grows the pattern by a backward edge: `new node (src_label) --|E|+1--> existing dst`.
    pub fn grow_backward(&self, src_label: Label, dst: usize) -> Result<Self, GraphError> {
        if dst >= self.labels.len() {
            return Err(GraphError::UnknownNode {
                node: dst,
                node_count: self.labels.len(),
            });
        }
        let mut grown = self.clone();
        grown.labels.push(src_label);
        let src = grown.labels.len() - 1;
        grown.edges.push(PatternEdge { src, dst });
        Ok(grown)
    }

    /// Grows the pattern by an inward edge between two existing nodes.
    pub fn grow_inward(&self, src: usize, dst: usize) -> Result<Self, GraphError> {
        let n = self.labels.len();
        if src >= n {
            return Err(GraphError::UnknownNode {
                node: src,
                node_count: n,
            });
        }
        if dst >= n {
            return Err(GraphError::UnknownNode {
                node: dst,
                node_count: n,
            });
        }
        let mut grown = self.clone();
        grown.edges.push(PatternEdge { src, dst });
        Ok(grown)
    }

    /// Returns the pattern obtained by removing the last (largest-timestamp) edge,
    /// dropping the node it introduced if that node has no remaining edges.
    /// Returns `None` for a one-edge pattern (the parent would be empty).
    pub fn parent(&self) -> Option<Self> {
        if self.edges.len() <= 1 {
            return None;
        }
        let mut parent = self.clone();
        let removed = parent.edges.pop().expect("non-empty");
        let last_node = parent.labels.len() - 1;
        let introduced_by_removed = (removed.src == last_node || removed.dst == last_node)
            && !parent
                .edges
                .iter()
                .any(|e| e.src == last_node || e.dst == last_node);
        if introduced_by_removed {
            parent.labels.pop();
        }
        Some(parent)
    }

    /// Whether the node numbering obeys the canonical first-visit order and every edge
    /// (after the first) touches a previously visited node (T-connectivity of the
    /// pattern under consecutive growth).
    pub fn is_canonical(&self) -> bool {
        let mut next_expected = 0usize;
        let mut visited = vec![false; self.labels.len()];
        for (i, edge) in self.edges.iter().enumerate() {
            if i > 0 && !visited[edge.src] && !visited[edge.dst] {
                return false;
            }
            for node in [edge.src, edge.dst] {
                if !visited[node] {
                    if node != next_expected {
                        return false;
                    }
                    visited[node] = true;
                    next_expected += 1;
                }
            }
        }
        next_expected == self.labels.len()
    }

    /// Rebuilds a pattern from its raw parts (labels + ordered edges), validating the
    /// canonical first-visit numbering and T-connectivity. This is the deserialization
    /// counterpart of [`Self::labels`]/[`Self::edges`]: a pattern round-trips through
    /// `from_parts(p.labels().to_vec(), p.edges().to_vec())` unchanged.
    ///
    /// Returns [`GraphError::EmptyGraph`] for an empty edge/label list and
    /// [`GraphError::DisconnectedGrowth`] when the parts are not a canonical
    /// T-connected pattern (e.g. decoded from corrupt bytes).
    pub fn from_parts(labels: Vec<Label>, edges: Vec<PatternEdge>) -> Result<Self, GraphError> {
        if labels.is_empty() || edges.is_empty() {
            return Err(GraphError::EmptyGraph);
        }
        if edges
            .iter()
            .any(|e| e.src >= labels.len() || e.dst >= labels.len())
        {
            return Err(GraphError::DisconnectedGrowth);
        }
        let pattern = Self { labels, edges };
        if !pattern.is_canonical() {
            return Err(GraphError::DisconnectedGrowth);
        }
        Ok(pattern)
    }

    /// Builds the canonical pattern equivalent (`=t`) to an arbitrary temporal graph,
    /// renumbering nodes by first-visit order and aligning timestamps to `1..=|E|`.
    ///
    /// Returns an error for an empty graph. Does *not* require the input to be
    /// T-connected; use [`crate::tconnect::is_t_connected`] to check that separately.
    pub fn from_graph(graph: &TemporalGraph) -> Result<Self, GraphError> {
        if graph.is_empty() {
            return Err(GraphError::EmptyGraph);
        }
        let mut remap: Vec<Option<usize>> = vec![None; graph.node_count()];
        let mut labels = Vec::new();
        let mut edges = Vec::with_capacity(graph.edge_count());
        for edge in graph.edges() {
            for node in [edge.src, edge.dst] {
                if remap[node].is_none() {
                    remap[node] = Some(labels.len());
                    labels.push(graph.label(node));
                }
            }
            edges.push(PatternEdge {
                src: remap[edge.src].expect("just set"),
                dst: remap[edge.dst].expect("just set"),
            });
        }
        Ok(Self { labels, edges })
    }

    /// Multiset of node labels, sorted. Used by pruning as a cheap pre-filter.
    pub fn sorted_label_multiset(&self) -> Vec<Label> {
        let mut labels = self.labels.clone();
        labels.sort_unstable();
        labels
    }
}

impl fmt::Display for TemporalPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pattern[{}n/{}e:", self.labels.len(), self.edges.len())?;
        for (i, e) in self.edges.iter().enumerate() {
            write!(
                f,
                " {}({})-{}->{}({})",
                e.src,
                self.labels[e.src],
                i + 1,
                e.dst,
                self.labels[e.dst]
            )?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn l(i: u32) -> Label {
        Label(i)
    }

    #[test]
    fn single_edge_is_canonical() {
        let p = TemporalPattern::single_edge(l(0), l(1));
        assert!(p.is_canonical());
        assert_eq!(p.node_count(), 2);
        assert_eq!(p.edge_count(), 1);
    }

    #[test]
    fn self_loop_is_canonical() {
        let p = TemporalPattern::single_self_loop(l(3));
        assert!(p.is_canonical());
        assert_eq!(p.node_count(), 1);
        assert_eq!(p.edge_count(), 1);
    }

    #[test]
    fn growth_preserves_canonical_form() {
        let p = TemporalPattern::single_edge(l(0), l(1));
        let p = p.grow_forward(1, l(2)).unwrap();
        let p = p.grow_backward(l(3), 0).unwrap();
        let p = p.grow_inward(2, 3).unwrap();
        assert!(p.is_canonical());
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.edge_count(), 4);
    }

    #[test]
    fn growth_rejects_unknown_nodes() {
        let p = TemporalPattern::single_edge(l(0), l(1));
        assert!(p.grow_forward(5, l(2)).is_err());
        assert!(p.grow_backward(l(2), 9).is_err());
        assert!(p.grow_inward(0, 7).is_err());
    }

    #[test]
    fn inward_growth_allows_multi_edges() {
        let p = TemporalPattern::single_edge(l(0), l(1));
        let p = p.grow_inward(0, 1).unwrap();
        assert_eq!(p.edge_count(), 2);
        assert_eq!(p.edges()[0], p.edges()[1]);
        assert!(p.is_canonical());
    }

    #[test]
    fn parent_undoes_growth() {
        let base = TemporalPattern::single_edge(l(0), l(1));
        let grown = base.grow_forward(1, l(2)).unwrap();
        assert_eq!(grown.parent().unwrap(), base);
        let inward = base.grow_inward(0, 1).unwrap();
        assert_eq!(inward.parent().unwrap(), base);
        assert_eq!(base.parent(), None);
    }

    #[test]
    fn from_graph_canonicalizes_node_order() {
        // Build a graph whose node ids are *not* in first-visit order.
        let mut b = GraphBuilder::new();
        let n_late = b.add_node(l(9)); // id 0 but visited last
        let n_a = b.add_node(l(0));
        let n_b = b.add_node(l(1));
        b.add_edge(n_a, n_b, 10).unwrap();
        b.add_edge(n_b, n_late, 20).unwrap();
        let g = b.build();
        let p = TemporalPattern::from_graph(&g).unwrap();
        assert!(p.is_canonical());
        assert_eq!(p.labels(), &[l(0), l(1), l(9)]);
        assert_eq!(
            p.edges(),
            &[
                PatternEdge { src: 0, dst: 1 },
                PatternEdge { src: 1, dst: 2 }
            ]
        );
    }

    #[test]
    fn from_graph_rejects_empty() {
        let g = TemporalGraph::new(vec![l(0)], vec![]).unwrap();
        assert!(TemporalPattern::from_graph(&g).is_err());
    }

    #[test]
    fn equality_is_structural_on_canonical_form() {
        let a = TemporalPattern::single_edge(l(0), l(1))
            .grow_forward(1, l(2))
            .unwrap();
        let b = TemporalPattern::single_edge(l(0), l(1))
            .grow_forward(1, l(2))
            .unwrap();
        let c = TemporalPattern::single_edge(l(0), l(1))
            .grow_forward(0, l(2))
            .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn non_canonical_numbering_is_detected() {
        // Hand-build a pattern where node 1 is visited before node 0.
        let p = TemporalPattern {
            labels: vec![l(0), l(1)],
            edges: vec![PatternEdge { src: 1, dst: 0 }],
        };
        assert!(!p.is_canonical());
    }

    #[test]
    fn disconnected_growth_is_detected_by_is_canonical() {
        let p = TemporalPattern {
            labels: vec![l(0), l(1), l(2), l(3)],
            edges: vec![
                PatternEdge { src: 0, dst: 1 },
                PatternEdge { src: 2, dst: 3 },
            ],
        };
        assert!(!p.is_canonical());
    }

    #[test]
    fn degrees_and_label_multiset() {
        let p = TemporalPattern::single_edge(l(2), l(1))
            .grow_inward(0, 1)
            .unwrap()
            .grow_forward(0, l(0))
            .unwrap();
        assert_eq!(p.out_degree(0), 3);
        assert_eq!(p.in_degree(1), 2);
        assert_eq!(p.sorted_label_multiset(), vec![l(0), l(1), l(2)]);
    }
}
