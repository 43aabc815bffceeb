//! Shared per-edge advance logic for behavior-query matching.
//!
//! The offline search routines ([`crate::search`]) and the online streaming detector
//! (crate `stream`) used to be at risk of duplicating the same matching rules; instead,
//! both are built on the primitives in this module, so a behavior query identifies the
//! same intervals whether the monitoring graph is replayed as a batch or as a stream —
//! the parity guarantee the streaming engine advertises.
//!
//! * [`TemporalRun`] — an NFA over partial matches of one *temporal* pattern, seeded at
//!   a data edge matching the pattern's first edge and advanced one data edge at a time.
//!   It reports the **earliest completion**: the first data edge whose arrival completes
//!   any consistent embedding of the pattern.
//! * [`KeywordTracker`] — the keyword (`NodeSet`) query's incremental state, one per
//!   query: the most recent distinct nodes per member label. Every open window of the
//!   query reads it; a window is just its anchor's timestamp and stream position.
//! * [`complete_static_anchored`] — the order-free (`Ntemp`) completion over a window
//!   slice; static queries allow matched edges *before* the anchor, so they are resolved
//!   against a buffered window rather than advanced edge-by-edge.
//!
//! Every primitive takes the endpoint labels from the edge it is offered, a
//! [`StreamEvent`], and never from a table indexed by node id: the streamed path passes
//! the event as it arrived, and the offline search labels a graph's edges as it offers
//! them ([`tgraph::TemporalGraph::event`]). A node is its id — a partial match binds an
//! id to at most one pattern node — while each edge matches under the labels it
//! carries, so a stream may reuse an id under another label.

use tgminer::baselines::gspan::StaticPattern;
use tgminer::baselines::nodeset::NodeSetQuery;
use tgraph::pattern::TemporalPattern;
use tgraph::{Label, StreamEvent, TemporalEdge};

/// An identified instance: the closed timestamp interval of the match.
pub type Interval = (u64, u64);

/// Upper bound on simultaneously tracked partial matches per [`TemporalRun`]. The bound
/// is deterministic (branches beyond it are dropped in discovery order), and because the
/// offline search and the streaming detector share this code, both drop exactly the same
/// branches — the parity guarantee survives the cap.
pub const MAX_STATES_PER_RUN: usize = 512;

/// The inclusive deadline of a window that opens at `start_ts`: a match must finish
/// within `window` timestamp units, anchor inclusive.
#[inline]
pub fn window_deadline(start_ts: u64, window: u64) -> u64 {
    start_ts.saturating_add(window.saturating_sub(1))
}

/// Whether a data edge can seed a match of `pattern` (labels of the first pattern edge
/// agree and the loop structure matches).
pub fn seed_matches(pattern: &TemporalPattern, edge: StreamEvent) -> bool {
    let first = pattern.edges()[0];
    (edge.src_label, edge.dst_label) == (pattern.label(first.src), pattern.label(first.dst))
        && (first.src == first.dst) == (edge.src == edge.dst)
}

/// Result of advancing a run by one data edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStep {
    /// The run is still alive; feed it the next edge.
    Pending,
    /// The window closed without a completion; discard the run.
    Expired,
    /// The run completed: the identified instance. The run is finished.
    Complete(Interval),
}

/// Result of seeding a [`TemporalRun`] at a data edge.
#[derive(Debug, Clone)]
pub enum TemporalSpawn {
    /// Single-edge patterns complete on their seed edge.
    Complete(Interval),
    /// The run needs further edges.
    Active(TemporalRun),
}

/// The NFA of partial matches growing from one seed edge of a temporal pattern.
///
/// Mirrors the edge-consistency rules of the recursive offline matcher this module
/// replaced: endpoint labels must agree, bound pattern nodes must map to the observed
/// endpoints, unbound pattern nodes must bind injectively, and pattern edges match data
/// edges in strictly increasing timestamp order (each arriving edge may extend a partial
/// match by at most one pattern edge).
#[derive(Debug, Clone)]
pub struct TemporalRun {
    start_ts: u64,
    deadline: u64,
    /// The partial matches in discovery order, flattened — one allocation per run, none
    /// per branch. Each takes `stride` words: the index of the next pattern edge to
    /// match (edges before it are matched), then pattern node → data node. A pattern is
    /// numbered in first-visit order, so the nodes its matched edges bind are a prefix
    /// ([`bound_nodes`]); the words past it hold `usize::MAX`, which is never read as an
    /// id — every `usize` is one.
    states: Vec<usize>,
    stride: usize,
    dropped_branches: u64,
}

impl TemporalRun {
    /// Seeds a run at `edge`, which the caller has checked with [`seed_matches`].
    /// Single-edge patterns complete immediately.
    pub fn spawn(pattern: &TemporalPattern, edge: StreamEvent, window: u64) -> TemporalSpawn {
        if pattern.edge_count() == 1 {
            return TemporalSpawn::Complete((edge.ts, edge.ts));
        }
        let first = pattern.edges()[0];
        let stride = pattern.node_count() + 1;
        let mut states = vec![usize::MAX; stride];
        states[0] = 1;
        states[1 + first.src] = edge.src;
        states[1 + first.dst] = edge.dst;
        TemporalSpawn::Active(Self {
            start_ts: edge.ts,
            deadline: window_deadline(edge.ts, window),
            states,
            stride,
            dropped_branches: 0,
        })
    }

    /// Last timestamp at which this run can still complete.
    pub fn deadline(&self) -> u64 {
        self.deadline
    }

    /// Number of live partial matches.
    pub fn state_count(&self) -> usize {
        self.states.len() / self.stride
    }

    /// How many partial-match branches were discarded because the run was at
    /// [`MAX_STATES_PER_RUN`]. Non-zero means this run's answer may be incomplete
    /// (a completion reachable only through a dropped branch is missed) — rare in
    /// practice, but worth surfacing rather than losing silently.
    pub fn dropped_branches(&self) -> u64 {
        self.dropped_branches
    }

    /// Advances the run by one data edge (strictly after the seed, in stream order).
    /// An edge whose label pair matches no pattern edge after the first leaves the run
    /// untouched — the streaming detector relies on that to skip such runs altogether.
    pub fn advance(&mut self, pattern: &TemporalPattern, edge: StreamEvent) -> RunStep {
        if edge.ts > self.deadline {
            return RunStep::Expired;
        }
        let edge_labels = (edge.src_label, edge.dst_label);
        let stride = self.stride;
        // Only states that existed before this edge may consume it: a data edge extends
        // a partial match by at most one pattern edge (timestamp order is strict).
        let frozen = self.state_count();
        for i in 0..frozen {
            let base = i * stride;
            let next_edge = self.states[base];
            let p_edge = pattern.edges()[next_edge];
            if edge_labels != (pattern.label(p_edge.src), pattern.label(p_edge.dst)) {
                continue;
            }
            let bound = bound_nodes(pattern, next_edge);
            let node_map = &self.states[base + 1..base + 1 + bound];
            // Source endpoint consistency (injective mapping).
            if p_edge.src < bound {
                if node_map[p_edge.src] != edge.src {
                    continue;
                }
            } else if node_map.contains(&edge.src) {
                continue;
            }
            // Destination endpoint consistency; a self-loop pattern edge forces the
            // destination to coincide with the (possibly just-bound) source.
            if p_edge.src == p_edge.dst {
                if edge.dst != edge.src {
                    continue;
                }
            } else if p_edge.dst < bound {
                if node_map[p_edge.dst] != edge.dst {
                    continue;
                }
            } else if node_map.contains(&edge.dst) || edge.dst == edge.src {
                continue;
            }
            if next_edge + 1 == pattern.edge_count() {
                return RunStep::Complete((self.start_ts, edge.ts.max(self.start_ts)));
            }
            // Grow the branch at the tail of the flat store; it stays only if it is
            // new and the run has room.
            let tail = self.states.len();
            self.states.extend_from_within(base..base + stride);
            self.states[tail] = next_edge + 1;
            self.states[tail + 1 + p_edge.src] = edge.src;
            self.states[tail + 1 + p_edge.dst] = edge.dst;
            let (earlier, grown) = self.states.split_at(tail);
            let duplicate = earlier.chunks_exact(stride).any(|state| state == grown);
            if duplicate || tail / stride >= MAX_STATES_PER_RUN {
                self.states.truncate(tail);
                self.dropped_branches += u64::from(!duplicate);
            }
        }
        RunStep::Pending
    }
}

/// How many pattern nodes the first `matched` edges of `pattern` bind: in first-visit
/// numbering they are nodes `0..bound_nodes(pattern, matched)`.
fn bound_nodes(pattern: &TemporalPattern, matched: usize) -> usize {
    let edges = pattern.edges()[..matched].iter();
    edges.map(|e| e.src.max(e.dst) + 1).max().unwrap_or(0)
}

/// The recency state of one keyword (`NodeSet`) query, shared by all of its windows.
///
/// A match is a set of distinct nodes carrying exactly the query's label multiset, all
/// appearing within `window` timestamp units of the anchor — an edge with a member
/// label at either end. For each member label `L` that `need_L` distinct nodes must
/// carry, the tracker keeps the `need_L` most recent distinct `L`-nodes with the stream
/// position each last appeared at; [`KeywordTracker::met`] is the smallest of those
/// positions (0 while some label has fewer such nodes). A window anchored at position
/// `a` is therefore complete exactly when `met() >= a`: every label then has `need_L`
/// distinct nodes at positions `>= a`. `met` never decreases, so the windows an event
/// completes are always the query's oldest open ones — a prefix in anchor order — and
/// a window is nothing but its anchor's timestamp and position.
///
/// The caller numbers positions: from 1, one per edge, both endpoints sharing it.
#[derive(Debug, Clone, Default)]
pub struct KeywordTracker {
    /// Per member label, in first-appearance order: the label, its first slot in
    /// `recent` and its slot count (`need_L`).
    labels: Vec<(Label, usize, usize)>,
    /// `(node, last position)` slots; position 0 marks an empty slot.
    recent: Vec<(usize, u64)>,
    /// The smallest position in `recent`, kept up to date by `note`.
    met: u64,
}

impl KeywordTracker {
    /// An empty tracker over `query`'s label multiset.
    pub fn new(query: &NodeSetQuery) -> Self {
        let mut labels: Vec<(Label, usize, usize)> = Vec::new();
        for &label in &query.labels {
            match labels.iter_mut().find(|(l, ..)| *l == label) {
                Some((.., need)) => *need += 1,
                None => labels.push((label, 0, 1)),
            }
        }
        let mut slots = 0;
        for (_, first, need) in &mut labels {
            *first = slots;
            slots += *need;
        }
        Self {
            labels,
            recent: vec![(0, 0); slots],
            met: 0,
        }
    }

    /// Records an edge's endpoints at `position`, source first. A node already among
    /// its label's most recent only moves to `position`; a new one takes an empty slot
    /// or evicts the label's oldest. Returns whether either endpoint carries a member
    /// label — whether the edge anchors a window.
    pub fn note(&mut self, position: u64, endpoints: [(usize, Label); 2]) -> bool {
        let mut recorded = false;
        for (node, label) in endpoints {
            let Some(&(_, first, need)) = self.labels.iter().find(|(l, ..)| *l == label) else {
                continue;
            };
            recorded = true;
            let slots = &mut self.recent[first..first + need];
            let slot = match slots.iter().position(|&(n, at)| at != 0 && n == node) {
                Some(seen) => seen,
                None => (0..need).min_by_key(|&i| slots[i].1).expect("need >= 1"),
            };
            slots[slot] = (node, position);
        }
        if recorded {
            self.met = self.recent.iter().map(|&(_, at)| at).min().unwrap_or(0);
        }
        recorded
    }

    /// The latest anchor position whose window is complete: the smallest position over
    /// every label's most recent nodes, 0 while some label has fewer than it needs.
    pub fn met(&self) -> u64 {
        self.met
    }

    /// Bytes of the tracker's two buffers, for memory estimates.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.labels.as_slice())
            + std::mem::size_of_val(self.recent.as_slice())
    }
}

/// Completes an order-free (`Ntemp`) match anchored at `anchor` over the buffered window
/// slice `window_edges` (every edge with a timestamp in `[anchor - window + 1,
/// anchor + window - 1]`, in timestamp order — the anchor edge included). Returns the
/// `(min, max)` timestamps of the first completion found, or `None`.
pub fn complete_static_anchored(
    pattern: &StaticPattern,
    window_edges: &[StreamEvent],
    anchor: StreamEvent,
    window: u64,
) -> Option<Interval> {
    let (p_src, p_dst) = pattern.edges[0];
    let mut node_map = vec![None; pattern.labels.len()];
    node_map[p_src] = Some(anchor.src);
    if p_dst != p_src {
        node_map[p_dst] = Some(anchor.dst);
    }
    complete_static(
        pattern,
        window_edges,
        1,
        &mut node_map,
        anchor.ts,
        anchor.ts,
        window,
    )
}

/// Recursive order-free completion: matches pattern edge `p_idx` to any window edge
/// consistent with the partial node mapping, keeping the overall span under `window`.
#[allow(clippy::too_many_arguments)]
fn complete_static(
    pattern: &StaticPattern,
    window_edges: &[StreamEvent],
    p_idx: usize,
    node_map: &mut Vec<Option<usize>>,
    min_ts: u64,
    max_ts: u64,
    window: u64,
) -> Option<Interval> {
    if p_idx == pattern.edges.len() {
        if max_ts - min_ts < window {
            return Some((min_ts, max_ts));
        }
        return None;
    }
    let (p_src, p_dst) = pattern.edges[p_idx];
    let want_src = pattern.labels[p_src];
    let want_dst = pattern.labels[p_dst];
    for edge in window_edges {
        if (edge.src_label, edge.dst_label) != (want_src, want_dst) {
            continue;
        }
        let src_bound = node_map[p_src].is_some();
        if src_bound {
            if node_map[p_src] != Some(edge.src) {
                continue;
            }
        } else if node_map.contains(&Some(edge.src)) {
            continue;
        }
        let dst_bound = node_map[p_dst].is_some() || p_src == p_dst;
        let expected_dst = if p_src == p_dst {
            Some(edge.src)
        } else {
            node_map[p_dst]
        };
        if dst_bound {
            if expected_dst != Some(edge.dst) {
                continue;
            }
        } else if node_map.contains(&Some(edge.dst)) || edge.dst == edge.src {
            continue;
        }
        if !src_bound {
            node_map[p_src] = Some(edge.src);
        }
        if !dst_bound {
            node_map[p_dst] = Some(edge.dst);
        }
        let result = complete_static(
            pattern,
            window_edges,
            p_idx + 1,
            node_map,
            min_ts.min(edge.ts),
            max_ts.max(edge.ts),
            window,
        );
        if result.is_some() {
            return result;
        }
        if !dst_bound {
            node_map[p_dst] = None;
        }
        if !src_bound {
            node_map[p_src] = None;
        }
    }
    None
}

/// The window slice for a static anchor: indices `[lo, hi)` into `edges` — a buffered
/// window of events, or a graph's edges to label into one — covering timestamps
/// `[anchor_ts - window + 1, anchor_ts + window - 1]`.
pub fn static_window_bounds<E: Copy + Into<TemporalEdge>>(
    edges: &[E],
    anchor_ts: u64,
    window: u64,
) -> (usize, usize) {
    let earliest = anchor_ts.saturating_sub(window.saturating_sub(1));
    let deadline = window_deadline(anchor_ts, window);
    let ts = |edge: &E| (*edge).into().ts;
    let lo = edges.partition_point(|e| ts(e) < earliest);
    let hi = edges.partition_point(|e| ts(e) <= deadline);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::GraphBuilder;

    fn l(i: u32) -> Label {
        Label(i)
    }

    fn ev(ts: u64, src: usize, dst: usize, src_label: u32, dst_label: u32) -> StreamEvent {
        StreamEvent {
            ts,
            src,
            dst,
            src_label: l(src_label),
            dst_label: l(dst_label),
        }
    }

    /// The edge `src -> dst` at `ts`, labelled from a node table of the test's own.
    fn e(labels: &[Label], ts: u64, src: usize, dst: usize) -> StreamEvent {
        StreamEvent {
            ts,
            src,
            dst,
            src_label: labels[src],
            dst_label: labels[dst],
        }
    }

    fn abc_pattern() -> TemporalPattern {
        TemporalPattern::single_edge(l(0), l(1))
            .grow_forward(1, l(2))
            .unwrap()
    }

    #[test]
    fn seed_matching_checks_labels_and_loop_structure() {
        let labels = vec![l(0), l(1), l(0)];
        let p = abc_pattern();
        assert!(seed_matches(&p, e(&labels, 1, 0, 1)));
        assert!(!seed_matches(&p, e(&labels, 1, 1, 0)));
        assert!(
            !seed_matches(&p, e(&labels, 1, 0, 0)),
            "loop edge cannot seed a non-loop pattern"
        );
        let loop_p = TemporalPattern::single_self_loop(l(0));
        assert!(seed_matches(&loop_p, e(&labels, 1, 2, 2)));
        assert!(!seed_matches(&loop_p, e(&labels, 1, 0, 2)));
    }

    #[test]
    fn temporal_run_completes_in_order() {
        let labels = vec![l(0), l(1), l(2)];
        let p = abc_pattern();
        let mut run = match TemporalRun::spawn(&p, e(&labels, 1, 0, 1), 5) {
            TemporalSpawn::Active(run) => run,
            TemporalSpawn::Complete(_) => panic!("two-edge pattern cannot complete at seed"),
        };
        assert_eq!(
            run.advance(&p, e(&labels, 2, 1, 2)),
            RunStep::Complete((1, 2))
        );
    }

    #[test]
    fn temporal_run_expires_at_the_window_edge() {
        let labels = vec![l(0), l(1), l(2)];
        let p = abc_pattern();
        let mut run = match TemporalRun::spawn(&p, e(&labels, 10, 0, 1), 3) {
            TemporalSpawn::Active(run) => run,
            TemporalSpawn::Complete(_) => unreachable!(),
        };
        assert_eq!(run.deadline(), 12);
        assert_eq!(run.advance(&p, e(&labels, 12, 0, 1)), RunStep::Pending);
        assert_eq!(run.advance(&p, e(&labels, 13, 1, 2)), RunStep::Expired);
    }

    #[test]
    fn a_reused_id_keeps_its_binding_while_each_edge_keeps_its_labels() {
        // A->B then B->C, seeded at 0 -> 1. Node 0 reappearing labelled C cannot be the
        // C node as well; node 1 reappearing labelled D matches no pattern edge; a
        // fresh C node completes the run.
        let p = abc_pattern();
        let mut run = match TemporalRun::spawn(&p, ev(1, 0, 1, 0, 1), 10) {
            TemporalSpawn::Active(run) => run,
            TemporalSpawn::Complete(_) => unreachable!(),
        };
        assert_eq!(run.advance(&p, ev(2, 1, 0, 1, 2)), RunStep::Pending);
        assert_eq!(run.advance(&p, ev(3, 1, 2, 3, 2)), RunStep::Pending);
        assert_eq!(run.state_count(), 1);
        assert_eq!(
            run.advance(&p, ev(4, 1, 2, 1, 2)),
            RunStep::Complete((1, 4))
        );
        // A seed is judged by the labels its event carries, whatever the ids.
        assert!(seed_matches(&p, ev(5, 2, 0, 0, 1)));
        assert!(!seed_matches(&p, ev(5, 0, 1, 1, 1)));
    }

    #[test]
    fn the_largest_id_binds_like_any_other() {
        // A -> B, then B -> A back, with A bound to `usize::MAX`.
        let p = TemporalPattern::single_edge(l(0), l(1))
            .grow_inward(1, 0)
            .unwrap();
        let mut run = match TemporalRun::spawn(&p, ev(1, usize::MAX, 7, 0, 1), 10) {
            TemporalSpawn::Active(run) => run,
            TemporalSpawn::Complete(_) => unreachable!(),
        };
        assert_eq!(run.advance(&p, ev(2, 7, 8, 1, 0)), RunStep::Pending);
        assert_eq!(
            run.advance(&p, ev(3, 7, usize::MAX, 1, 0)),
            RunStep::Complete((1, 3))
        );
        let there_and_back = StaticPattern {
            labels: vec![l(0), l(1)],
            edges: vec![(0, 1), (1, 0)],
        };
        let events = [ev(1, usize::MAX, 7, 0, 1), ev(2, 7, usize::MAX, 1, 0)];
        let hit = complete_static_anchored(&there_and_back, &events, events[0], 10);
        assert_eq!(hit, Some((1, 2)));
    }

    #[test]
    fn temporal_run_tracks_multiple_branches() {
        // Pattern A->B, B->C, C->D. Two candidate middle edges (B->C via different C
        // nodes); only one of them can be extended to the final edge, so the run must
        // keep both branches alive until the completing edge arrives.
        let labels = vec![l(0), l(1), l(2), l(2), l(3)];
        let p = abc_pattern().grow_forward(2, l(3)).unwrap();
        let mut run = match TemporalRun::spawn(&p, e(&labels, 1, 0, 1), 10) {
            TemporalSpawn::Active(run) => run,
            TemporalSpawn::Complete(_) => unreachable!(),
        };
        assert_eq!(run.advance(&p, e(&labels, 2, 1, 2)), RunStep::Pending);
        assert_eq!(run.advance(&p, e(&labels, 3, 1, 3)), RunStep::Pending);
        assert_eq!(
            run.state_count(),
            3,
            "seed state plus two middle-edge branches"
        );
        // Completion through the *second* branch (C = node 3).
        assert_eq!(
            run.advance(&p, e(&labels, 4, 3, 4)),
            RunStep::Complete((1, 4))
        );
    }

    #[test]
    fn repeated_edges_do_not_duplicate_branches() {
        // The same B->C data edge arriving again regrows a branch the run already
        // tracks; it must be merged, however many branches the run already holds.
        let fanout = 48;
        let mut labels = vec![l(0), l(1)];
        labels.extend(std::iter::repeat_n(l(2), fanout));
        let p = abc_pattern().grow_forward(2, l(3)).unwrap();
        let mut run = match TemporalRun::spawn(&p, e(&labels, 1, 0, 1), 1_000) {
            TemporalSpawn::Active(run) => run,
            TemporalSpawn::Complete(_) => unreachable!(),
        };
        for i in 0..fanout {
            for repeat in 0..2 {
                let ts = 2 + 2 * i as u64 + repeat;
                assert_eq!(run.advance(&p, e(&labels, ts, 1, 2 + i)), RunStep::Pending);
                assert_eq!(run.state_count(), 2 + i, "edge {i}, repeat {repeat}");
            }
        }
        assert_eq!(run.dropped_branches(), 0);
    }

    #[test]
    fn state_cap_is_counted_not_silent() {
        // Seed A->B, then far more B->C branch candidates than MAX_STATES_PER_RUN:
        // every C node is distinct, so each B->C edge grows a distinct branch.
        let hub_fanout = MAX_STATES_PER_RUN + 40;
        let mut labels = vec![l(0), l(1)];
        labels.extend(std::iter::repeat_n(l(2), hub_fanout));
        let p = abc_pattern().grow_forward(2, l(3)).unwrap();
        let mut run = match TemporalRun::spawn(&p, e(&labels, 1, 0, 1), u64::MAX) {
            TemporalSpawn::Active(run) => run,
            TemporalSpawn::Complete(_) => unreachable!(),
        };
        for i in 0..hub_fanout {
            assert_eq!(
                run.advance(&p, e(&labels, 2 + i as u64, 1, 2 + i)),
                RunStep::Pending
            );
        }
        assert_eq!(run.state_count(), MAX_STATES_PER_RUN);
        assert_eq!(
            run.dropped_branches(),
            41,
            "one seed state + 511 kept branches"
        );
        // The kept set is the seed state plus the first 511 branches in discovery
        // order: the cap drops the latest arrivals, never an earlier branch.
        let mut kept = run.states.chunks_exact(run.stride);
        assert_eq!(kept.next().unwrap(), [1, 0, 1, usize::MAX, usize::MAX]);
        for (i, state) in kept.enumerate() {
            assert_eq!(state, [2, 0, 1, 2 + i, usize::MAX]);
        }
        // Re-offering an edge whose branch was kept grows nothing and drops nothing;
        // re-offering one whose branch was dropped is dropped (and counted) again.
        assert_eq!(run.advance(&p, e(&labels, 900, 1, 2)), RunStep::Pending);
        assert_eq!(
            run.advance(&p, e(&labels, 901, 1, 2 + 300)),
            RunStep::Pending
        );
        assert_eq!((run.state_count(), run.dropped_branches()), (512, 41));
        assert_eq!(
            run.advance(&p, e(&labels, 902, 1, 2 + 520)),
            RunStep::Pending
        );
        assert_eq!((run.state_count(), run.dropped_branches()), (512, 42));
    }

    #[test]
    fn single_edge_pattern_completes_at_spawn() {
        let labels = vec![l(0), l(1)];
        let p = TemporalPattern::single_edge(l(0), l(1));
        match TemporalRun::spawn(&p, e(&labels, 7, 0, 1), 5) {
            TemporalSpawn::Complete(interval) => assert_eq!(interval, (7, 7)),
            TemporalSpawn::Active(_) => panic!("single-edge pattern must complete at seed"),
        }
    }

    #[test]
    fn keyword_tracker_counts_distinct_nodes_per_label() {
        let query = NodeSetQuery {
            labels: vec![l(0), l(1), l(1)],
        };
        let mut tracker = KeywordTracker::new(&query);
        // An l(0) node and an l(1) node: one l(1) node short.
        assert!(tracker.note(1, [(0, l(0)), (1, l(1))]));
        assert_eq!(tracker.met(), 0);
        // Node 1 again only moves; l(9) is no member.
        assert!(tracker.note(2, [(1, l(1)), (9, l(9))]));
        assert_eq!(tracker.met(), 0);
        assert!(!tracker.note(3, [(9, l(9)), (8, l(7))]));
        // A second distinct l(1) node completes the window anchored at 1.
        assert!(tracker.note(4, [(2, l(1)), (3, l(7))]));
        assert_eq!(tracker.met(), 1);
        // A third l(1) node evicts the oldest (node 1 at 2), not the newest.
        tracker.note(5, [(4, l(1)), (4, l(1))]);
        assert_eq!(tracker.met(), 1, "node 0 at 1 is still the only l(0) node");
        tracker.note(6, [(0, l(0)), (9, l(9))]);
        assert_eq!(tracker.met(), 4, "l(1) keeps node 2 at 4 and node 4 at 5");
        assert_eq!(tracker.heap_bytes(), 2 * 24 + 3 * 16);
    }

    #[test]
    fn static_completion_matches_out_of_order_edges() {
        // Graph: B->C at ts 10, A->B at ts 11 — reversed relative to the pattern order.
        let mut b = GraphBuilder::new();
        let a = b.add_node(l(0));
        let bb = b.add_node(l(1));
        let c = b.add_node(l(2));
        b.add_edge(bb, c, 10).unwrap();
        b.add_edge(a, bb, 11).unwrap();
        let g = b.build();
        let pattern = StaticPattern {
            labels: vec![l(0), l(1), l(2)],
            edges: vec![(0, 1), (1, 2)],
        };
        // Anchor at the A->B edge (ts 11); the B->C edge lies before it in the window.
        let events = [g.event(0), g.event(1)];
        let anchor = events[1];
        let (lo, hi) = static_window_bounds(&events, anchor.ts, 5);
        let hit = complete_static_anchored(&pattern, &events[lo..hi], anchor, 5);
        assert_eq!(hit, Some((10, 11)));
        // A window of 1 only covers the anchor itself.
        let (lo, hi) = static_window_bounds(&events, anchor.ts, 1);
        let miss = complete_static_anchored(&pattern, &events[lo..hi], anchor, 1);
        assert_eq!(miss, None);
    }

    #[test]
    fn static_window_bounds_clip_to_the_window() {
        let edges: Vec<TemporalEdge> = (1..=10)
            .map(|ts| TemporalEdge { ts, src: 0, dst: 1 })
            .collect();
        let (lo, hi) = static_window_bounds(&edges, 5, 3);
        // Window covers ts in [3, 7].
        assert_eq!((lo, hi), (2, 7));
        let (lo, hi) = static_window_bounds(&edges, 1, 100);
        assert_eq!((lo, hi), (0, 10));
    }
}
