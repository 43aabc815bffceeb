//! Incremental temporal graphs for the online (streaming) execution model.
//!
//! The batch pipeline materialises a full [`TemporalGraph`] before anything runs over
//! it. A monitoring deployment instead observes an unbounded stream of timestamped
//! edges — per producer in non-decreasing timestamp order. This module provides the
//! substrate for that setting:
//!
//! * [`StreamEvent`] — one self-describing edge observation (it carries both endpoint
//!   labels, so a consumer can learn nodes on the fly);
//! * [`TenantId`] / [`TenantedEvent`] — the tenant identity carried alongside an event
//!   in multi-tenant streams, where each tenant (trace/process/host) is its own
//!   independently-ordered stream;
//! * [`EdgePostings`] — the `(source label, destination label) → edge positions` index
//!   shared by offline seed lookup ([`crate::gindex`] pioneered the per-pattern variant)
//!   and the incremental graph;
//! * [`IncrementalGraph`] — an append-only edge store with O(1) amortised append, a
//!   sliding retention window with O(1) amortised eviction, and incrementally maintained
//!   label postings.
//!
//! Eviction is *logical* (a moving `live_start` cursor) with periodic compaction once
//! more than half of the backing array is dead, which keeps both append and eviction
//! O(1) amortised while the live window stays contiguous in memory — matching code
//! (binary search by timestamp, window slicing) operates on plain slices.

use crate::error::GraphError;
use crate::graph::{GraphBuilder, TemporalEdge, TemporalGraph};
use crate::label::{Label, StableMap};
use std::collections::HashMap;

/// One timestamped edge observation in a monitoring stream.
///
/// Events are self-describing: they carry the labels of both endpoints, so the consumer
/// needs no side channel to learn the labeling function. Node ids are assigned by the
/// producer and must be stable across the stream.
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

impl StreamEvent {
    /// The event as a bare [`TemporalEdge`] (labels dropped).
    #[inline]
    pub fn edge(&self) -> TemporalEdge {
        TemporalEdge {
            ts: self.ts,
            src: self.src,
            dst: self.dst,
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
/// candidates instead of scanning every edge, and [`IncrementalGraph`] maintains one
/// incrementally as events arrive.
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
/// Nodes are announced implicitly by the events that touch them and are never evicted
/// (labels are tiny); edges are retained only while they are inside the window. All
/// index-valued APIs speak *absolute* edge indices — the position of the edge in the
/// whole stream — which stay valid across compaction.
#[derive(Debug, Clone)]
pub struct IncrementalGraph {
    /// Node id → label. Nodes that have never been announced hold a placeholder and
    /// are reported by [`IncrementalGraph::is_known_node`].
    labels: Vec<Label>,
    known: Vec<bool>,
    /// Retained edge suffix of the stream; `edges[live_start..]` is the live window.
    edges: Vec<TemporalEdge>,
    live_start: usize,
    /// Absolute index of `edges[0]` (number of edges dropped by compaction).
    compacted: u64,
    /// Label-pair postings over the retained edges, in absolute indices. Empty and
    /// unmaintained when `track_postings` is false.
    postings: HashMap<(Label, Label), Vec<u64>>,
    track_postings: bool,
    /// If set, edges are evicted once `last_ts - edge.ts >= retention`.
    retention: Option<u64>,
    last_ts: Option<u64>,
    /// Timestamp of the most recent edge ever evicted; `None` while nothing has been.
    evicted_through: Option<u64>,
}

impl Default for IncrementalGraph {
    fn default() -> Self {
        Self {
            labels: Vec::new(),
            known: Vec::new(),
            edges: Vec::new(),
            live_start: 0,
            compacted: 0,
            postings: HashMap::new(),
            track_postings: true,
            retention: None,
            last_ts: None,
            evicted_through: None,
        }
    }
}

/// Placeholder label for node ids inside a gap (never announced by any event).
const UNANNOUNCED: Label = Label(u32::MAX);

impl IncrementalGraph {
    /// An unbounded incremental graph (no eviction until a retention is set).
    pub fn new() -> Self {
        Self::default()
    }

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

    /// An empty graph with this graph's *configuration* (retention, postings tracking)
    /// but none of its data. This is how a sharded consumer stamps out per-shard graphs
    /// from one template without paying for a deep clone of the template's state.
    pub fn fresh_like(&self) -> Self {
        Self {
            retention: self.retention,
            track_postings: self.track_postings,
            ..Self::default()
        }
    }

    /// The earliest timestamp with *full visibility*: every event with
    /// `ts >= visible_from()` that was ever appended is still retained. `0` while
    /// nothing has been evicted. A consumer that widens the retention window mid-stream
    /// (e.g. registering a wider query) cannot see past this boundary — evicted history
    /// is never resurrected.
    pub fn visible_from(&self) -> u64 {
        self.evicted_through.map_or(0, |ts| ts.saturating_add(1))
    }

    /// Stops maintaining the label-pair postings index and drops what was built.
    /// [`IncrementalGraph::candidates`] returns empty from then on. For consumers that
    /// key their own lookups (like the streaming detector), this removes a per-append
    /// hash-map update from the hot path. Cannot be re-enabled: postings built from a
    /// partial stream would be silently incomplete.
    pub fn disable_postings(&mut self) {
        self.track_postings = false;
        self.postings.clear();
    }

    /// Whether the label-pair postings index is being maintained.
    pub fn tracks_postings(&self) -> bool {
        self.track_postings
    }

    /// Checks that `event` could be appended right now: its timestamp does not
    /// decrease (ties are legal — equal-timestamp events keep their arrival order)
    /// and it does not relabel a known node (or announce one node with two labels via
    /// a self-loop). [`IncrementalGraph::append`] performs the same checks; calling
    /// this first lets a caller reject an event *before* mutating any of its own
    /// state.
    pub fn validate(&self, event: &StreamEvent) -> Result<(), GraphError> {
        if let Some(last) = self.last_ts {
            if event.ts < last {
                return Err(GraphError::NonMonotonicTimestamp {
                    previous: last,
                    current: event.ts,
                });
            }
        }
        self.check_label(event.src, event.src_label)?;
        self.check_label(event.dst, event.dst_label)?;
        if event.src == event.dst && event.src_label != event.dst_label {
            return Err(GraphError::LabelConflict {
                node: event.src,
                existing: event.src_label.0,
                new: event.dst_label.0,
            });
        }
        Ok(())
    }

    /// Whether announcing `node` with `label` would conflict with its known label.
    fn check_label(&self, node: usize, label: Label) -> Result<(), GraphError> {
        if self.is_known_node(node) && self.labels[node] != label {
            return Err(GraphError::LabelConflict {
                node,
                existing: self.labels[node].0,
                new: label.0,
            });
        }
        Ok(())
    }

    /// Appends one event, registering unseen endpoints, updating postings, and evicting
    /// edges that fall out of the retention window. Returns the edge's absolute index.
    ///
    /// Errors if the timestamp decreases (non-decreasing is the contract; ties are
    /// stored in arrival order, which is the deterministic tie-break) or an endpoint
    /// is re-announced with a different label.
    pub fn append(&mut self, event: StreamEvent) -> Result<u64, GraphError> {
        if let Some(last) = self.last_ts {
            if event.ts < last {
                return Err(GraphError::NonMonotonicTimestamp {
                    previous: last,
                    current: event.ts,
                });
            }
        }
        self.announce(event.src, event.src_label)?;
        self.announce(event.dst, event.dst_label)?;

        let abs = self.compacted + self.edges.len() as u64;
        self.edges.push(event.edge());
        if self.track_postings {
            self.postings
                .entry((event.src_label, event.dst_label))
                .or_default()
                .push(abs);
        }
        self.last_ts = Some(event.ts);

        if let Some(retention) = self.retention {
            self.evict_up_to(event.ts.saturating_sub(retention));
        }
        Ok(abs)
    }

    /// Registers `node` with `label`, growing the node table over any id gap.
    fn announce(&mut self, node: usize, label: Label) -> Result<(), GraphError> {
        if node >= self.labels.len() {
            self.labels.resize(node + 1, UNANNOUNCED);
            self.known.resize(node + 1, false);
        }
        if self.known[node] {
            if self.labels[node] != label {
                return Err(GraphError::LabelConflict {
                    node,
                    existing: self.labels[node].0,
                    new: label.0,
                });
            }
        } else {
            self.labels[node] = label;
            self.known[node] = true;
        }
        Ok(())
    }

    /// Evicts every live edge with `ts <= threshold`. O(1) amortised: the live window
    /// only shrinks from the front, and the backing array compacts once more than half
    /// of it is dead.
    pub fn evict_up_to(&mut self, threshold: u64) {
        let mut last_evicted = None;
        while self.live_start < self.edges.len() && self.edges[self.live_start].ts <= threshold {
            last_evicted = Some(self.edges[self.live_start].ts);
            self.live_start += 1;
        }
        if let Some(ts) = last_evicted {
            self.evicted_through = Some(self.evicted_through.map_or(ts, |prev| prev.max(ts)));
        }
        if self.live_start > 32 && self.live_start * 2 > self.edges.len() {
            self.compact();
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

    /// Drops the dead prefix of the backing array and trims postings to live entries.
    fn compact(&mut self) {
        self.compacted += self.live_start as u64;
        self.edges.drain(..self.live_start);
        self.live_start = 0;
        let floor = self.compacted;
        self.postings.retain(|_, list| {
            let keep_from = list.partition_point(|&abs| abs < floor);
            if keep_from > 0 {
                list.drain(..keep_from);
            }
            !list.is_empty()
        });
    }

    /// The live window as a contiguous slice, in timestamp order.
    #[inline]
    pub fn live_edges(&self) -> &[TemporalEdge] {
        &self.edges[self.live_start..]
    }

    /// Absolute index of the first live edge (== total edges ever appended when the
    /// window is empty).
    #[inline]
    pub fn live_base(&self) -> u64 {
        self.compacted + self.live_start as u64
    }

    /// The live edge at absolute index `abs`, if it is still retained.
    pub fn edge_at(&self, abs: u64) -> Option<TemporalEdge> {
        if abs < self.live_base() {
            return None;
        }
        self.edges.get((abs - self.compacted) as usize).copied()
    }

    /// Absolute indices of live edges whose endpoint labels are `(src, dst)`.
    pub fn candidates(&self, src: Label, dst: Label) -> &[u64] {
        let list = match self.postings.get(&(src, dst)) {
            Some(list) => list.as_slice(),
            None => return &[],
        };
        let from = list.partition_point(|&abs| abs < self.live_base());
        &list[from..]
    }

    /// Number of edges ever appended.
    pub fn total_appended(&self) -> u64 {
        self.compacted + self.edges.len() as u64
    }

    /// Number of edges evicted from the window so far.
    pub fn evicted_count(&self) -> u64 {
        self.live_base()
    }

    /// Number of live (retained) edges.
    pub fn live_edge_count(&self) -> usize {
        self.edges.len() - self.live_start
    }

    /// Number of node ids seen (including gap ids never announced).
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Whether `node` has been announced by some event.
    pub fn is_known_node(&self, node: usize) -> bool {
        self.known.get(node).copied().unwrap_or(false)
    }

    /// Label of `node`.
    ///
    /// # Panics
    /// Panics if `node` has never been announced.
    #[inline]
    pub fn label(&self, node: usize) -> Label {
        assert!(self.is_known_node(node), "label of unannounced node {node}");
        self.labels[node]
    }

    /// All node labels indexed by node id (placeholder for unannounced gap ids).
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Timestamp of the most recent event, if any.
    pub fn last_ts(&self) -> Option<u64> {
        self.last_ts
    }

    /// `(first, last)` timestamps of the live window, or `None` when it is empty.
    pub fn live_span(&self) -> Option<(u64, u64)> {
        let live = self.live_edges();
        match (live.first(), live.last()) {
            (Some(first), Some(last)) => Some((first.ts, last.ts)),
            _ => None,
        }
    }

    /// Materialises the live window as a [`TemporalGraph`] sharing this graph's node
    /// ids. Intended for tests and offline re-checking of streaming results.
    pub fn snapshot(&self) -> TemporalGraph {
        let mut builder = GraphBuilder::with_capacity(self.labels.len(), self.live_edge_count());
        for &label in &self.labels {
            builder.add_node(label);
        }
        for edge in self.live_edges() {
            builder
                .add_edge(edge.src, edge.dst, edge.ts)
                .expect("live edges are validated on append");
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn append_learns_nodes_and_edges() {
        let mut g = IncrementalGraph::new();
        assert_eq!(g.append(ev(5, 0, 1, 7, 8)).unwrap(), 0);
        assert_eq!(g.append(ev(9, 1, 2, 8, 9)).unwrap(), 1);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.label(0), l(7));
        assert_eq!(g.label(2), l(9));
        assert_eq!(g.live_edge_count(), 2);
        assert_eq!(g.live_span(), Some((5, 9)));
        assert_eq!(g.total_appended(), 2);
    }

    #[test]
    fn validate_agrees_with_append_without_mutating() {
        let mut g = IncrementalGraph::new();
        g.append(ev(5, 0, 1, 7, 8)).unwrap();
        assert!(g.validate(&ev(6, 1, 0, 8, 7)).is_ok());
        assert!(g.validate(&ev(5, 1, 0, 8, 7)).is_ok(), "ties are legal");
        assert!(matches!(
            g.validate(&ev(4, 1, 0, 8, 7)),
            Err(GraphError::NonMonotonicTimestamp {
                previous: 5,
                current: 4
            })
        ));
        assert!(matches!(
            g.validate(&ev(6, 0, 1, 9, 8)),
            Err(GraphError::LabelConflict {
                node: 0,
                existing: 7,
                new: 9
            })
        ));
        // A self-loop announcing one node under two labels is caught up front too.
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
    fn disabled_postings_skip_maintenance() {
        let mut g = IncrementalGraph::new();
        assert!(g.tracks_postings());
        g.append(ev(1, 0, 1, 4, 5)).unwrap();
        g.disable_postings();
        assert!(!g.tracks_postings());
        g.append(ev(2, 0, 1, 4, 5)).unwrap();
        assert!(g.candidates(l(4), l(5)).is_empty());
        // Edges and labels are unaffected.
        assert_eq!(g.live_edge_count(), 2);
        assert_eq!(g.label(0), l(4));
    }

    #[test]
    fn append_rejects_non_monotonic_and_relabeling() {
        let mut g = IncrementalGraph::new();
        g.append(ev(5, 0, 1, 7, 8)).unwrap();
        assert!(matches!(
            g.append(ev(4, 1, 0, 8, 7)),
            Err(GraphError::NonMonotonicTimestamp {
                previous: 5,
                current: 4
            })
        ));
        assert!(matches!(
            g.append(ev(6, 0, 1, 9, 8)),
            Err(GraphError::LabelConflict {
                node: 0,
                existing: 7,
                new: 9
            })
        ));
        // The graph is unchanged after the failures.
        assert_eq!(g.live_edge_count(), 1);
    }

    #[test]
    fn equal_timestamps_append_in_arrival_order() {
        // Regression for the non-decreasing relaxation: timestamp ties (inevitable
        // once independent tenant streams interleave) are accepted, stored in arrival
        // order, and survive snapshotting, postings, and eviction as one tie-group.
        let mut g = IncrementalGraph::new();
        g.append(ev(5, 0, 1, 7, 8)).unwrap();
        g.append(ev(5, 1, 0, 8, 7)).unwrap();
        g.append(ev(5, 0, 1, 7, 8)).unwrap();
        g.append(ev(9, 1, 0, 8, 7)).unwrap();
        assert_eq!(g.live_edge_count(), 4);
        let order: Vec<(u64, usize)> = g.live_edges().iter().map(|e| (e.ts, e.src)).collect();
        assert_eq!(order, vec![(5, 0), (5, 1), (5, 0), (9, 1)], "arrival order");
        assert_eq!(g.candidates(l(7), l(8)), &[0, 2]);
        // Snapshotting a tied window must not panic (the builder accepts ties too).
        let snap = g.snapshot();
        assert_eq!(snap.edge_count(), 4);
        assert_eq!(snap.timespan(), Some((5, 9)));
        // Eviction takes whole tie-groups: everything at ts 5 leaves together.
        g.evict_up_to(5);
        assert_eq!(g.live_edge_count(), 1);
        assert_eq!(g.visible_from(), 6);
    }

    #[test]
    fn gap_node_ids_are_tracked_but_unknown() {
        let mut g = IncrementalGraph::new();
        g.append(ev(1, 0, 5, 1, 2)).unwrap();
        assert_eq!(g.node_count(), 6);
        assert!(g.is_known_node(0));
        assert!(g.is_known_node(5));
        assert!(!g.is_known_node(3));
    }

    #[test]
    fn retention_evicts_old_edges() {
        let mut g = IncrementalGraph::with_retention(10);
        for ts in 1..=30u64 {
            g.append(ev(ts, 0, 1, 1, 2)).unwrap();
        }
        // After ts=30 with retention 10, live edges are ts in (20, 30].
        assert_eq!(g.live_edge_count(), 10);
        assert_eq!(g.live_span(), Some((21, 30)));
        assert_eq!(g.evicted_count(), 20);
        assert_eq!(g.total_appended(), 30);
    }

    #[test]
    fn manual_eviction_and_compaction_keep_live_window_intact() {
        let mut g = IncrementalGraph::new();
        for ts in 1..=100u64 {
            g.append(ev(ts, (ts % 3) as usize, 3, (ts % 3) as u32, 9))
                .unwrap();
        }
        g.evict_up_to(60);
        let live: Vec<u64> = g.live_edges().iter().map(|e| e.ts).collect();
        assert_eq!(live, (61..=100).collect::<Vec<_>>());
        assert_eq!(g.evicted_count(), 60);
        // Compaction happened (more than half dead), but absolute indices survive.
        assert_eq!(g.edge_at(60).map(|e| e.ts), Some(61));
        assert_eq!(g.edge_at(59), None);
    }

    #[test]
    fn candidates_track_eviction() {
        let mut g = IncrementalGraph::new();
        g.append(ev(1, 0, 1, 4, 5)).unwrap();
        g.append(ev(2, 2, 3, 6, 7)).unwrap();
        g.append(ev(3, 0, 1, 4, 5)).unwrap();
        assert_eq!(g.candidates(l(4), l(5)), &[0, 2]);
        g.evict_up_to(1);
        assert_eq!(g.candidates(l(4), l(5)), &[2]);
        assert_eq!(g.candidates(l(6), l(7)), &[1]);
        assert!(g.candidates(l(9), l(9)).is_empty());
    }

    #[test]
    fn postings_survive_compaction() {
        let mut g = IncrementalGraph::with_retention(5);
        for ts in 1..=200u64 {
            g.append(ev(ts, 0, 1, 1, 2)).unwrap();
        }
        let cands = g.candidates(l(1), l(2)).to_vec();
        let live_ts: Vec<u64> = cands.iter().map(|&a| g.edge_at(a).unwrap().ts).collect();
        assert_eq!(live_ts, (196..=200).collect::<Vec<_>>());
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
    fn fresh_like_copies_configuration_not_data() {
        let mut g = IncrementalGraph::with_retention(7);
        g.disable_postings();
        g.append(ev(1, 0, 1, 4, 5)).unwrap();
        let fresh = g.fresh_like();
        assert_eq!(fresh.retention(), Some(7));
        assert!(!fresh.tracks_postings());
        assert_eq!(fresh.live_edge_count(), 0);
        assert_eq!(fresh.node_count(), 0);
        assert_eq!(fresh.last_ts(), None);
        assert_eq!(fresh.visible_from(), 0);
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
    fn snapshot_matches_live_window() {
        let mut g = IncrementalGraph::with_retention(4);
        for ts in 1..=10u64 {
            g.append(ev(ts, 0, 1, 1, 2)).unwrap();
        }
        let snap = g.snapshot();
        assert_eq!(snap.edge_count(), g.live_edge_count());
        assert_eq!(snap.timespan(), g.live_span());
        assert_eq!(snap.label(0), l(1));
        // The snapshot's postings agree with the incremental candidates.
        let built = EdgePostings::build(&snap);
        assert_eq!(
            built.candidates(l(1), l(2)).len(),
            g.candidates(l(1), l(2)).len()
        );
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
