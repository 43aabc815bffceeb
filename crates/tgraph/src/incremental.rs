//! Incremental temporal graphs for the online (streaming) execution model.
//!
//! The batch pipeline materialises a full [`TemporalGraph`] before anything runs over
//! it. A monitoring deployment instead observes an unbounded stream of timestamped
//! edges — per producer in non-decreasing timestamp order. This module provides the
//! substrate for that setting:
//!
//! * [`StreamEvent`] — one self-describing edge observation (it carries both endpoint
//!   labels, so a consumer needs no table of nodes to match it);
//! * [`TenantId`] / [`TenantedEvent`] — the tenant identity carried alongside an event
//!   in multi-tenant streams, where each tenant (trace/process/host) is its own
//!   independently-ordered stream;
//! * [`EdgePostings`] — the `(source label, destination label) → edge positions` index
//!   of offline seed lookup ([`crate::gindex`] pioneered the per-pattern variant);
//! * [`IncrementalGraph`] — an append-only store of labelled edges with O(1) amortised
//!   append and a sliding retention window with O(1) amortised eviction.
//!
//! Eviction is *logical* (a moving `live_start` cursor) with periodic compaction once
//! more than half of the backing array is dead, which keeps both append and eviction
//! O(1) amortised while the live window stays contiguous in memory — matching code
//! (binary search by timestamp, window slicing) operates on plain slices.

use crate::error::GraphError;
use crate::graph::{TemporalEdge, TemporalGraph};
use crate::label::{Label, StableMap};

/// One timestamped edge observation in a monitoring stream.
///
/// Events are self-describing: they carry the labels of both endpoints, so the consumer
/// needs no side channel to learn the labeling function. Node ids are assigned by the
/// producer and may be any `usize`; a producer may reuse an id under another label
/// (see [`IncrementalGraph::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEvent {
    /// Timestamp; must be non-decreasing across the stream. Events sharing a timestamp
    /// are ordered by arrival — the deterministic tie-break every consumer (graph
    /// storage, matching, detection) applies, so ties never make results ambiguous.
    pub ts: u64,
    /// Source node id.
    pub src: usize,
    /// Destination node id.
    pub dst: usize,
    /// Label of the source node.
    pub src_label: Label,
    /// Label of the destination node.
    pub dst_label: Label,
}

/// The event as a bare edge, labels dropped.
impl From<StreamEvent> for TemporalEdge {
    #[inline]
    fn from(event: StreamEvent) -> Self {
        TemporalEdge {
            ts: event.ts,
            src: event.src,
            dst: event.dst,
        }
    }
}

/// Identity of the tenant (trace, process, host) that produced an event.
///
/// A multi-tenant monitoring stream is *not* one totally ordered firehose: each tenant
/// is an independent stream with its own non-decreasing timestamp order and its own
/// node-id space, and the interleaving between tenants carries no ordering guarantee
/// at all. Consumers must therefore keep per-tenant state — the demux front-end in the
/// `stream` crate routes events by this id to per-tenant detector instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One event of a multi-tenant stream: the tenant identity carried alongside the
/// event. Ordering contract: within one tenant, timestamps are non-decreasing (ties
/// in arrival order); *across* tenants there is no ordering contract — producers
/// interleave however their schedulers please.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantedEvent {
    /// The tenant that produced the event.
    pub tenant: TenantId,
    /// The event itself (timestamps and node ids are scoped to the tenant).
    pub event: StreamEvent,
}

/// Postings from `(source label, destination label)` to the sorted edge positions
/// carrying that label pair.
///
/// This is the graph-wide generalisation of the per-pattern one-edge index of
/// [`crate::gindex`]: `query::search_temporal` uses it to jump straight to seed-edge
/// candidates instead of scanning every edge.
#[derive(Debug, Clone, Default)]
pub struct EdgePostings {
    postings: StableMap<(Label, Label), Vec<usize>>,
}

impl EdgePostings {
    /// Builds the postings for a fully materialised graph.
    pub fn build(graph: &TemporalGraph) -> Self {
        let mut out = Self::default();
        for (idx, edge) in graph.edges().iter().enumerate() {
            out.push(graph.label(edge.src), graph.label(edge.dst), idx);
        }
        out
    }

    /// Appends edge position `idx` under `(src, dst)`. Positions must arrive in
    /// increasing order per key (they do, because edges arrive in timestamp order).
    pub fn push(&mut self, src: Label, dst: Label, idx: usize) {
        let list = self.postings.entry((src, dst)).or_default();
        debug_assert!(list.last().is_none_or(|&last| last < idx));
        list.push(idx);
    }

    /// Sorted positions of edges whose endpoint labels are `(src, dst)`.
    pub fn candidates(&self, src: Label, dst: Label) -> &[usize] {
        self.postings
            .get(&(src, dst))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of distinct label pairs with at least one posting.
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// Posting count per label pair — how often each `(source label, destination
    /// label)` combination occurs. This is the frequency signal the sharded streaming
    /// detector balances its query→shard assignment on: a query is as expensive as its
    /// first edge's label pair is frequent.
    pub fn pair_counts(&self) -> impl Iterator<Item = ((Label, Label), usize)> + '_ {
        self.postings.iter().map(|(&pair, list)| (pair, list.len()))
    }

    /// Whether no label pair has a posting.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }
}

/// An incrementally grown temporal graph with a sliding retention window.
///
/// The graph keeps no per-node state. Each retained edge is the [`StreamEvent`] that
/// brought it, labels included (32 bytes, the stride the write-ahead log encodes), so
/// memory follows the window and never the id space a producer draws ids from. Edges
/// are retained only while they are inside the window. All index-valued APIs speak
/// *absolute* edge indices — the position of the edge in the whole stream — which
/// stay valid across compaction.
#[derive(Debug, Clone, Default)]
pub struct IncrementalGraph {
    /// Retained event suffix of the stream; `edges[live_start..]` is the live window.
    edges: Vec<StreamEvent>,
    live_start: usize,
    /// Absolute index of `edges[0]` (number of edges dropped by compaction).
    compacted: u64,
    /// If set, edges are evicted once `last_ts - edge.ts >= retention`.
    retention: Option<u64>,
    last_ts: Option<u64>,
    /// Timestamp of the most recent edge ever evicted; `None` while nothing has been.
    evicted_through: Option<u64>,
}

impl IncrementalGraph {
    /// An incremental graph that keeps an edge for `retention` timestamp units after
    /// its own timestamp: the live window after appending an event at time `t` is
    /// exactly the edges with `ts > t - retention`.
    pub fn with_retention(retention: u64) -> Self {
        Self {
            retention: Some(retention),
            ..Self::default()
        }
    }

    /// Changes the retention; takes effect at the next append. Widening the window
    /// cannot resurrect already-evicted edges.
    pub fn set_retention(&mut self, retention: Option<u64>) {
        self.retention = retention;
    }

    /// Current retention, if bounded.
    pub fn retention(&self) -> Option<u64> {
        self.retention
    }

    /// The earliest timestamp with *full visibility*: every event with
    /// `ts >= visible_from()` that was ever appended is still retained. `0` while
    /// nothing has been evicted. A consumer that widens the retention window mid-stream
    /// (e.g. registering a wider query) cannot see past this boundary — evicted history
    /// is never resurrected.
    pub fn visible_from(&self) -> u64 {
        self.evicted_through.map_or(0, |ts| ts.saturating_add(1))
    }

    /// Checks that `event` could be appended right now: its timestamp does not
    /// decrease (ties are legal — equal-timestamp events keep their arrival order)
    /// and, if it is a self-loop, both of its ends carry one label.
    ///
    /// Nothing else is checked, because nothing about a node is remembered: an id
    /// that reappears under another label (a reused pid, say) is accepted, and each
    /// event is matched under the labels it carries. [`IncrementalGraph::append`]
    /// performs the same checks; calling this first lets a caller reject an event
    /// *before* mutating any of its own state.
    pub fn validate(&self, event: &StreamEvent) -> Result<(), GraphError> {
        if let Some(previous) = self.last_ts.filter(|&last| event.ts < last) {
            return Err(GraphError::NonMonotonicTimestamp {
                previous,
                current: event.ts,
            });
        }
        if event.src == event.dst && event.src_label != event.dst_label {
            return Err(GraphError::LabelConflict {
                node: event.src,
                existing: event.src_label.0,
                new: event.dst_label.0,
            });
        }
        Ok(())
    }

    /// Appends one event and evicts the edges that fall out of the retention window.
    /// Returns the edge's absolute index.
    ///
    /// Errors, leaving the graph unchanged, on what [`IncrementalGraph::validate`]
    /// rejects: a decreasing timestamp (ties are stored in arrival order, the
    /// deterministic tie-break) or a self-loop carrying two labels.
    pub fn append(&mut self, event: StreamEvent) -> Result<u64, GraphError> {
        self.validate(&event)?;
        let abs = self.total_appended();
        self.edges.push(event);
        self.last_ts = Some(event.ts);
        if let Some(retention) = self.retention {
            self.evict_up_to(event.ts.saturating_sub(retention));
        }
        Ok(abs)
    }

    /// Evicts every live edge with `ts <= threshold`. O(1) amortised: the live window
    /// only shrinks from the front, and the backing array compacts once more than half
    /// of it is dead.
    fn evict_up_to(&mut self, threshold: u64) {
        let mut last_evicted = None;
        while self.live_start < self.edges.len() && self.edges[self.live_start].ts <= threshold {
            last_evicted = Some(self.edges[self.live_start].ts);
            self.live_start += 1;
        }
        if let Some(ts) = last_evicted {
            self.evicted_through = Some(self.evicted_through.map_or(ts, |prev| prev.max(ts)));
        }
        if self.live_start > 32 && self.live_start * 2 > self.edges.len() {
            self.compacted += self.live_start as u64;
            self.edges.drain(..self.live_start);
            self.live_start = 0;
        }
    }

    /// Restores the visibility floor recorded from another graph (crash recovery):
    /// evicts anything at or below `floor - 1` and then ratchets `evicted_through`
    /// directly, so [`Self::visible_from`] reports `floor` even when no live edge was
    /// actually evicted (replaying a pruned history may never touch the stale range,
    /// which would leave `evict_up_to` a no-op).
    pub fn restore_visible_floor(&mut self, floor: u64) {
        if floor == 0 {
            return;
        }
        let threshold = floor - 1;
        self.evict_up_to(threshold);
        self.evicted_through = Some(
            self.evicted_through
                .map_or(threshold, |prev| prev.max(threshold)),
        );
    }

    /// The live window as a contiguous slice of labelled edges, in timestamp order.
    #[inline]
    pub fn live_edges(&self) -> &[StreamEvent] {
        &self.edges[self.live_start..]
    }

    /// Number of edges ever appended.
    pub fn total_appended(&self) -> u64 {
        self.compacted + self.edges.len() as u64
    }

    /// Number of edges evicted from the window so far: the absolute index of the first
    /// live edge.
    pub fn evicted_count(&self) -> u64 {
        self.compacted + self.live_start as u64
    }

    /// Number of live (retained) edges.
    pub fn live_edge_count(&self) -> usize {
        self.edges.len() - self.live_start
    }

    /// Number of distinct node ids among the retained edges. A report, not a hot-path
    /// call: it sorts the window's endpoints.
    pub fn node_count(&self) -> usize {
        let mut ids: Vec<usize> = self
            .live_edges()
            .iter()
            .flat_map(|edge| [edge.src, edge.dst])
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Timestamp of the most recent event, if any.
    pub fn last_ts(&self) -> Option<u64> {
        self.last_ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn l(i: u32) -> Label {
        Label(i)
    }

    fn ev(ts: u64, src: usize, dst: usize, sl: u32, dl: u32) -> StreamEvent {
        StreamEvent {
            ts,
            src,
            dst,
            src_label: l(sl),
            dst_label: l(dl),
        }
    }

    #[test]
    fn append_keeps_labelled_edges() {
        let mut g = IncrementalGraph::default();
        assert_eq!(g.append(ev(5, 0, 1, 7, 8)).unwrap(), 0);
        assert_eq!(g.append(ev(9, 1, 2, 8, 9)).unwrap(), 1);
        assert_eq!(g.live_edges(), &[ev(5, 0, 1, 7, 8), ev(9, 1, 2, 8, 9)]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.live_edge_count(), 2);
        assert_eq!(g.total_appended(), 2);
        assert_eq!(g.last_ts(), Some(9));
    }

    #[test]
    fn validate_agrees_with_append_without_mutating() {
        let mut g = IncrementalGraph::default();
        g.append(ev(5, 0, 1, 7, 8)).unwrap();
        assert!(g.validate(&ev(6, 1, 0, 8, 7)).is_ok());
        assert!(g.validate(&ev(5, 1, 0, 8, 7)).is_ok(), "ties are legal");
        assert!(
            g.validate(&ev(6, 0, 1, 9, 8)).is_ok(),
            "a reused id may carry another label"
        );
        assert!(matches!(
            g.validate(&ev(4, 1, 0, 8, 7)),
            Err(GraphError::NonMonotonicTimestamp {
                previous: 5,
                current: 4
            })
        ));
        // A self-loop carrying two labels for its one node is the conflict left.
        assert!(matches!(
            g.validate(&ev(6, 4, 4, 1, 2)),
            Err(GraphError::LabelConflict {
                node: 4,
                existing: 1,
                new: 2
            })
        ));
        // Validation never mutates: the accepted event still appends cleanly.
        assert_eq!(g.live_edge_count(), 1);
        g.append(ev(6, 1, 0, 8, 7)).unwrap();
        assert_eq!(g.live_edge_count(), 2);
    }

    #[test]
    fn append_rejects_non_monotonic_and_two_labelled_self_loops() {
        let mut g = IncrementalGraph::default();
        g.append(ev(5, 0, 1, 7, 8)).unwrap();
        assert!(matches!(
            g.append(ev(4, 1, 0, 8, 7)),
            Err(GraphError::NonMonotonicTimestamp {
                previous: 5,
                current: 4
            })
        ));
        assert!(matches!(
            g.append(ev(6, 3, 3, 9, 8)),
            Err(GraphError::LabelConflict {
                node: 3,
                existing: 9,
                new: 8
            })
        ));
        // The graph is unchanged after the failures.
        assert_eq!(g.live_edges(), &[ev(5, 0, 1, 7, 8)]);
        // Node 0 reappearing under label 9 is a new event, stored as it came.
        g.append(ev(6, 0, 1, 9, 8)).unwrap();
        assert_eq!(g.live_edges()[1], ev(6, 0, 1, 9, 8));
    }

    #[test]
    fn equal_timestamps_append_in_arrival_order() {
        // Regression for the non-decreasing relaxation: timestamp ties (inevitable
        // once independent tenant streams interleave) are accepted, stored in arrival
        // order, and leave the window as one tie-group.
        let mut g = IncrementalGraph::default();
        g.append(ev(5, 0, 1, 7, 8)).unwrap();
        g.append(ev(5, 1, 0, 8, 7)).unwrap();
        g.append(ev(5, 0, 1, 7, 8)).unwrap();
        g.append(ev(9, 1, 0, 8, 7)).unwrap();
        assert_eq!(g.live_edge_count(), 4);
        let order: Vec<(u64, usize)> = g.live_edges().iter().map(|e| (e.ts, e.src)).collect();
        assert_eq!(order, vec![(5, 0), (5, 1), (5, 0), (9, 1)], "arrival order");
        // Eviction takes whole tie-groups: everything at ts 5 leaves together.
        g.evict_up_to(5);
        assert_eq!(g.live_edge_count(), 1);
        assert_eq!(g.visible_from(), 6);
    }

    #[test]
    fn node_count_is_the_distinct_ids_of_the_retained_edges() {
        // No table grows with the ids: the largest ones cost what small ones do.
        let mut g = IncrementalGraph::with_retention(10);
        g.append(ev(1, usize::MAX, 1 << 40, 1, 2)).unwrap();
        g.append(ev(2, 1 << 40, usize::MAX, 2, 3)).unwrap();
        g.append(ev(3, 7, 7, 4, 4)).unwrap();
        assert_eq!(g.node_count(), 3);
        // Once the first two leave the window, so do their ids.
        g.append(ev(12, 7, 8, 4, 5)).unwrap();
        assert_eq!(g.live_edges(), &[ev(3, 7, 7, 4, 4), ev(12, 7, 8, 4, 5)]);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn retention_evicts_old_edges() {
        let mut g = IncrementalGraph::with_retention(10);
        for ts in 1..=30u64 {
            g.append(ev(ts, 0, 1, 1, 2)).unwrap();
        }
        // After ts=30 with retention 10, live edges are ts in (20, 30].
        let live: Vec<u64> = g.live_edges().iter().map(|e| e.ts).collect();
        assert_eq!(live, (21..=30).collect::<Vec<_>>());
        assert_eq!(g.evicted_count(), 20);
        assert_eq!(g.total_appended(), 30);
    }

    #[test]
    fn manual_eviction_and_compaction_keep_live_window_intact() {
        let mut g = IncrementalGraph::default();
        for ts in 1..=100u64 {
            g.append(ev(ts, (ts % 3) as usize, 3, (ts % 3) as u32, 9))
                .unwrap();
        }
        g.evict_up_to(60);
        let live: Vec<u64> = g.live_edges().iter().map(|e| e.ts).collect();
        assert_eq!(live, (61..=100).collect::<Vec<_>>());
        assert_eq!(g.evicted_count(), 60);
        // Compaction happened (more than half dead), but absolute indices survive.
        assert_eq!(g.live_edge_count(), 40);
        assert_eq!(g.append(ev(101, 0, 3, 0, 9)).unwrap(), 100);
    }

    #[test]
    fn visible_from_tracks_eviction() {
        let mut g = IncrementalGraph::with_retention(10);
        assert_eq!(g.visible_from(), 0, "nothing evicted yet");
        for ts in 1..=8u64 {
            g.append(ev(ts, 0, 1, 1, 2)).unwrap();
        }
        assert_eq!(g.visible_from(), 0, "everything still retained");
        for ts in 9..=30u64 {
            g.append(ev(ts, 0, 1, 1, 2)).unwrap();
        }
        // After ts=30 with retention 10, edges with ts <= 20 are gone.
        assert_eq!(g.visible_from(), 21);
        // Widening retention cannot resurrect history: the boundary stays.
        g.set_retention(Some(1000));
        g.append(ev(31, 0, 1, 1, 2)).unwrap();
        assert_eq!(g.visible_from(), 21);
        // Manual eviction moves it too.
        g.evict_up_to(25);
        assert_eq!(g.visible_from(), 26);
    }

    #[test]
    fn pair_counts_report_posting_frequencies() {
        let mut builder = GraphBuilder::new();
        let a = builder.add_node(l(0));
        let b = builder.add_node(l(1));
        builder.add_edge(a, b, 1).unwrap();
        builder.add_edge(b, a, 2).unwrap();
        builder.add_edge(a, b, 3).unwrap();
        let postings = EdgePostings::build(&builder.build());
        let mut counts: Vec<((Label, Label), usize)> = postings.pair_counts().collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![((l(0), l(1)), 2), ((l(1), l(0)), 1)]);
    }

    #[test]
    fn edge_postings_build_and_push_agree() {
        let mut builder = GraphBuilder::new();
        let a = builder.add_node(l(0));
        let b = builder.add_node(l(1));
        builder.add_edge(a, b, 1).unwrap();
        builder.add_edge(b, a, 2).unwrap();
        builder.add_edge(a, b, 3).unwrap();
        let graph = builder.build();
        let built = EdgePostings::build(&graph);
        let mut pushed = EdgePostings::default();
        for (idx, edge) in graph.edges().iter().enumerate() {
            pushed.push(graph.label(edge.src), graph.label(edge.dst), idx);
        }
        assert_eq!(built.candidates(l(0), l(1)), pushed.candidates(l(0), l(1)));
        assert_eq!(built.candidates(l(0), l(1)), &[0, 2]);
        assert_eq!(built.candidates(l(1), l(0)), &[1]);
        assert_eq!(built.len(), 2);
        assert!(!built.is_empty());
        assert!(EdgePostings::default().is_empty());
    }
}
