//! Error types for temporal graph construction and validation.

use std::fmt;

/// Errors raised while building or validating temporal graphs and patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a node id that has not been added to the graph.
    UnknownNode {
        /// The offending node id.
        node: usize,
        /// Number of nodes currently in the graph.
        node_count: usize,
    },
    /// Edge timestamps must be non-decreasing (the total edge order of Section 2;
    /// ties are resolved deterministically by arrival/storage position).
    NonMonotonicTimestamp {
        /// Timestamp of the previous edge.
        previous: u64,
        /// Timestamp of the edge being added.
        current: u64,
    },
    /// A pattern edge would break the canonical `1..=|E|` timestamp alignment.
    MisalignedPatternTimestamp {
        /// The expected timestamp (`|E| + 1`).
        expected: u64,
        /// The timestamp that was supplied.
        found: u64,
    },
    /// Growing a pattern with an edge that does not touch the existing pattern
    /// would produce a non T-connected pattern.
    DisconnectedGrowth,
    /// The graph is empty where a non-empty graph is required.
    EmptyGraph,
    /// One node carried two labels: a self-loop event labelled its ends differently,
    /// or a trace rebuilt into one graph (`syscall::graph_of_events`, where a node has
    /// one label) gave a node a second one. A stream itself may reuse an id under a
    /// new label.
    LabelConflict {
        /// The node that carried two labels.
        node: usize,
        /// The label it carried first (as a raw id).
        existing: u32,
        /// The other label (as a raw id).
        new: u32,
    },
    /// An armed fault-injection failpoint fired: the batch was rejected cleanly,
    /// before any durability logging or state mutation, so a retrying driver (which
    /// advances the fault schedule) observes the same stream as a fault-free run.
    FaultInjected {
        /// The failpoint that fired (e.g. `shard.worker`, `tenant.batch`).
        point: String,
        /// Which firing this is for the point (1-based).
        occurrence: u64,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode { node, node_count } => {
                write!(
                    f,
                    "edge references node {node} but graph has {node_count} nodes"
                )
            }
            GraphError::NonMonotonicTimestamp { previous, current } => write!(
                f,
                "edge timestamps must be non-decreasing: {current} follows {previous}"
            ),
            GraphError::MisalignedPatternTimestamp { expected, found } => write!(
                f,
                "pattern edge timestamp must be {expected} (consecutive growth), found {found}"
            ),
            GraphError::DisconnectedGrowth => {
                write!(f, "growth edge does not touch the existing pattern")
            }
            GraphError::EmptyGraph => write!(f, "operation requires a non-empty graph"),
            GraphError::LabelConflict {
                node,
                existing,
                new,
            } => write!(
                f,
                "stream event relabels node {node}: announced as L{existing}, now L{new}"
            ),
            GraphError::FaultInjected { point, occurrence } => {
                write!(f, "injected fault at {point} (occurrence {occurrence})")
            }
        }
    }
}

impl std::error::Error for GraphError {}
