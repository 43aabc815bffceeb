//! Temporal graph data model (Section 2 of the paper).
//!
//! A [`TemporalGraph`] is a tuple `(V, E, A, T)`: a node set, a set of directed edges
//! totally ordered by their timestamps, a labeling function on nodes, and the timestamp
//! domain. Multi-edges between the same node pair are allowed (they model repeated
//! syscalls between the same two system entities).

use crate::error::GraphError;
use crate::incremental::StreamEvent;
use crate::label::Label;

/// A directed edge carrying a timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemporalEdge {
    /// Timestamp. Within one graph, timestamps are non-decreasing in storage order;
    /// edges sharing a timestamp are totally ordered by storage position (arrival
    /// order), which is the deterministic tie-break every consumer uses.
    pub ts: u64,
    /// Source node id.
    pub src: usize,
    /// Destination node id.
    pub dst: usize,
}

/// A node-labeled temporal graph with totally ordered edges.
///
/// Edges are stored sorted by timestamp (non-decreasing; equal timestamps keep their
/// insertion order); the storage index of an edge therefore doubles as its rank in the
/// total edge order, which the mining algorithms rely on (residual graphs are
/// edge-array suffixes). The storage position is the deterministic tie-break: two
/// edges sharing a timestamp are still totally ordered, by position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalGraph {
    labels: Vec<Label>,
    edges: Vec<TemporalEdge>,
}

impl TemporalGraph {
    /// Creates a graph from parts, validating node references and the total edge order.
    pub fn new(labels: Vec<Label>, edges: Vec<TemporalEdge>) -> Result<Self, GraphError> {
        let node_count = labels.len();
        let mut prev_ts: Option<u64> = None;
        for edge in &edges {
            if edge.src >= node_count {
                return Err(GraphError::UnknownNode {
                    node: edge.src,
                    node_count,
                });
            }
            if edge.dst >= node_count {
                return Err(GraphError::UnknownNode {
                    node: edge.dst,
                    node_count,
                });
            }
            if let Some(prev) = prev_ts {
                if edge.ts < prev {
                    return Err(GraphError::NonMonotonicTimestamp {
                        previous: prev,
                        current: edge.ts,
                    });
                }
            }
            prev_ts = Some(edge.ts);
        }
        Ok(Self { labels, edges })
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Label of node `node`.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    #[inline]
    pub fn label(&self, node: usize) -> Label {
        self.labels[node]
    }

    /// All node labels, indexed by node id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// All edges in timestamp order.
    #[inline]
    pub fn edges(&self) -> &[TemporalEdge] {
        &self.edges
    }

    /// Edge at storage index `idx` (also its rank in the total edge order).
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn edge(&self, idx: usize) -> TemporalEdge {
        self.edges[idx]
    }

    /// Edge at storage index `idx` with both endpoint labels: the form the matcher
    /// and the streaming engine take an edge in.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn event(&self, idx: usize) -> StreamEvent {
        let TemporalEdge { ts, src, dst } = self.edges[idx];
        StreamEvent {
            ts,
            src,
            dst,
            src_label: self.labels[src],
            dst_label: self.labels[dst],
        }
    }

    /// Out-degree of `node` (number of edges with `node` as source).
    pub fn out_degree(&self, node: usize) -> usize {
        self.edges.iter().filter(|e| e.src == node).count()
    }

    /// In-degree of `node` (number of edges with `node` as destination).
    pub fn in_degree(&self, node: usize) -> usize {
        self.edges.iter().filter(|e| e.dst == node).count()
    }

    /// Timespan covered by the graph: `(first_ts, last_ts)`, or `None` if empty.
    pub fn timespan(&self) -> Option<(u64, u64)> {
        match (self.edges.first(), self.edges.last()) {
            (Some(first), Some(last)) => Some((first.ts, last.ts)),
            _ => None,
        }
    }

    /// Iterates over the distinct labels present in the graph (order unspecified,
    /// duplicates removed).
    pub fn distinct_labels(&self) -> Vec<Label> {
        let mut labels: Vec<Label> = self.labels.clone();
        labels.sort_unstable();
        labels.dedup();
        labels
    }
}

/// Incremental builder for [`TemporalGraph`].
///
/// ```
/// use tgraph::{GraphBuilder, Label};
///
/// let mut b = GraphBuilder::new();
/// let sshd = b.add_node(Label(0));
/// let bash = b.add_node(Label(1));
/// b.add_edge(sshd, bash, 10).unwrap();
/// let g = b.build();
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    labels: Vec<Label>,
    edges: Vec<TemporalEdge>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity hints.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            labels: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a node with the given label and returns its id.
    pub fn add_node(&mut self, label: Label) -> usize {
        self.labels.push(label);
        self.labels.len() - 1
    }

    /// Adds an edge. The timestamp must not be smaller than the previous edge's
    /// (ties are allowed; equal-timestamp edges keep their insertion order as the
    /// deterministic tie-break).
    pub fn add_edge(&mut self, src: usize, dst: usize, ts: u64) -> Result<(), GraphError> {
        if src >= self.labels.len() {
            return Err(GraphError::UnknownNode {
                node: src,
                node_count: self.labels.len(),
            });
        }
        if dst >= self.labels.len() {
            return Err(GraphError::UnknownNode {
                node: dst,
                node_count: self.labels.len(),
            });
        }
        if let Some(last) = self.edges.last() {
            if ts < last.ts {
                return Err(GraphError::NonMonotonicTimestamp {
                    previous: last.ts,
                    current: ts,
                });
            }
        }
        self.edges.push(TemporalEdge { ts, src, dst });
        Ok(())
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Timestamp of the most recently added edge, if any.
    pub fn last_ts(&self) -> Option<u64> {
        self.edges.last().map(|e| e.ts)
    }

    /// Finalizes the graph. Validation already happened incrementally, so this cannot fail.
    pub fn build(self) -> TemporalGraph {
        TemporalGraph {
            labels: self.labels,
            edges: self.edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_graph() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Label(0));
        let c = b.add_node(Label(1));
        b.add_edge(a, c, 5).unwrap();
        b.add_edge(c, a, 9).unwrap();
        b.build()
    }

    #[test]
    fn builder_constructs_graph() {
        let g = two_node_graph();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.label(0), Label(0));
        assert_eq!(
            g.edge(0),
            TemporalEdge {
                ts: 5,
                src: 0,
                dst: 1
            }
        );
        assert_eq!(
            g.event(1),
            StreamEvent {
                ts: 9,
                src: 1,
                dst: 0,
                src_label: Label(1),
                dst_label: Label(0)
            }
        );
        assert_eq!(g.timespan(), Some((5, 9)));
    }

    #[test]
    fn builder_rejects_unknown_node() {
        let mut b = GraphBuilder::new();
        b.add_node(Label(0));
        let err = b.add_edge(0, 3, 1).unwrap_err();
        assert!(matches!(err, GraphError::UnknownNode { node: 3, .. }));
    }

    #[test]
    fn builder_rejects_non_monotonic_timestamps() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Label(0));
        let c = b.add_node(Label(1));
        b.add_edge(a, c, 5).unwrap();
        let err = b.add_edge(c, a, 4).unwrap_err();
        assert!(matches!(
            err,
            GraphError::NonMonotonicTimestamp {
                previous: 5,
                current: 4
            }
        ));
    }

    #[test]
    fn builder_accepts_timestamp_ties_in_insertion_order() {
        // Regression for the non-decreasing relaxation: cross-tenant interleavings
        // make timestamp collisions inevitable, so ties are legal and keep their
        // insertion order as the tie-break.
        let mut b = GraphBuilder::new();
        let a = b.add_node(Label(0));
        let c = b.add_node(Label(1));
        b.add_edge(a, c, 5).unwrap();
        b.add_edge(c, a, 5).unwrap();
        b.add_edge(a, c, 5).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge(0).src, a);
        assert_eq!(g.edge(1).src, c);
        assert_eq!(g.edge(2).src, a);
        assert_eq!(g.timespan(), Some((5, 5)));
        // `TemporalGraph::new` agrees with the builder.
        assert!(TemporalGraph::new(g.labels().to_vec(), g.edges().to_vec()).is_ok());
    }

    #[test]
    fn new_validates_edges() {
        let labels = vec![Label(0), Label(1)];
        let edges = vec![
            TemporalEdge {
                ts: 2,
                src: 0,
                dst: 1,
            },
            TemporalEdge {
                ts: 1,
                src: 1,
                dst: 0,
            },
        ];
        assert!(TemporalGraph::new(labels, edges).is_err());
    }

    #[test]
    fn degrees_count_multi_edges() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Label(0));
        let c = b.add_node(Label(1));
        b.add_edge(a, c, 1).unwrap();
        b.add_edge(a, c, 2).unwrap();
        b.add_edge(c, a, 3).unwrap();
        let g = b.build();
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(c), 2);
        assert_eq!(g.out_degree(c), 1);
    }

    #[test]
    fn distinct_labels_deduplicates() {
        let mut b = GraphBuilder::new();
        b.add_node(Label(3));
        b.add_node(Label(1));
        b.add_node(Label(3));
        let g = b.build();
        assert_eq!(g.distinct_labels(), vec![Label(1), Label(3)]);
    }
}
