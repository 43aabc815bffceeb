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
//! * [`NodeSetRun`] — the keyword (`NodeSet`) query's incremental state: a multiset of
//!   labels still to be collected inside the window.
//! * [`complete_static_anchored`] — the order-free (`Ntemp`) completion over a window
//!   slice; static queries allow matched edges *before* the anchor, so they are resolved
//!   against a buffered window rather than advanced edge-by-edge.
//!
//! All functions speak plain `&[Label]` + [`TemporalEdge`] so they work both over a
//! materialised [`tgraph::TemporalGraph`] and over the live window of a
//! [`tgraph::IncrementalGraph`].

use tgminer::baselines::gspan::StaticPattern;
use tgminer::baselines::nodeset::NodeSetQuery;
use tgraph::pattern::TemporalPattern;
use tgraph::{Label, TemporalEdge};

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
pub fn seed_matches(pattern: &TemporalPattern, labels: &[Label], edge: TemporalEdge) -> bool {
    let first = pattern.edges()[0];
    labels[edge.src] == pattern.label(first.src)
        && labels[edge.dst] == pattern.label(first.dst)
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
    /// match (edges before it are matched), then pattern node → data node
    /// (`usize::MAX` when unbound).
    states: Vec<usize>,
    stride: usize,
    dropped_branches: u64,
}

impl TemporalRun {
    /// Seeds a run at `edge`, which the caller has checked with [`seed_matches`].
    /// Single-edge patterns complete immediately.
    pub fn spawn(pattern: &TemporalPattern, edge: TemporalEdge, window: u64) -> TemporalSpawn {
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

    /// Timestamp of the seed edge.
    pub fn start_ts(&self) -> u64 {
        self.start_ts
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
    pub fn advance(
        &mut self,
        pattern: &TemporalPattern,
        labels: &[Label],
        edge: TemporalEdge,
    ) -> RunStep {
        if edge.ts > self.deadline {
            return RunStep::Expired;
        }
        let edge_labels = (labels[edge.src], labels[edge.dst]);
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
            let node_map = &self.states[base + 1..base + stride];
            // Source endpoint consistency (injective mapping).
            let src_bound = node_map[p_edge.src] != usize::MAX;
            if src_bound {
                if node_map[p_edge.src] != edge.src {
                    continue;
                }
            } else if node_map.contains(&edge.src) {
                continue;
            }
            // Destination endpoint consistency; a self-loop pattern edge forces the
            // destination to coincide with the (possibly just-bound) source.
            let dst_bound = node_map[p_edge.dst] != usize::MAX || p_edge.src == p_edge.dst;
            let expected_dst = if p_edge.src == p_edge.dst {
                edge.src
            } else {
                node_map[p_edge.dst]
            };
            if dst_bound {
                if expected_dst != edge.dst {
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

/// Incremental state of one keyword (`NodeSet`) match window.
///
/// A match is a set of distinct nodes carrying exactly the query's label multiset, all
/// appearing within `window` timestamp units of the anchor. Node appearances are
/// consumed in stream order, source endpoint before destination endpoint — the same
/// order the offline scan uses.
#[derive(Debug, Clone)]
pub struct NodeSetRun {
    anchor_ts: u64,
    deadline: u64,
    /// Label → how many more nodes with that label are needed.
    remaining: Vec<(Label, usize)>,
    outstanding: usize,
    seen_nodes: Vec<usize>,
}

/// A keyword query's label multiset — label → how many distinct nodes must carry it, in
/// first-appearance order. Built once per query (at registration, or once per offline
/// search); every window then starts from a copy.
pub fn label_multiset(query: &NodeSetQuery) -> Vec<(Label, usize)> {
    let mut multiset: Vec<(Label, usize)> = Vec::new();
    for &label in &query.labels {
        match multiset.iter_mut().find(|(l, _)| *l == label) {
            Some((_, count)) => *count += 1,
            None => multiset.push((label, 1)),
        }
    }
    multiset
}

impl NodeSetRun {
    /// Opens a window anchored at `anchor_ts` over the query's [`label_multiset`]. The
    /// caller feeds the anchor edge itself through [`NodeSetRun::advance`] first (its
    /// endpoints count toward the match).
    pub fn spawn(multiset: &[(Label, usize)], anchor_ts: u64, window: u64) -> Self {
        let outstanding = multiset.iter().map(|(_, count)| count).sum();
        Self {
            anchor_ts,
            deadline: window_deadline(anchor_ts, window),
            outstanding,
            remaining: multiset.to_vec(),
            seen_nodes: Vec::with_capacity(outstanding),
        }
    }

    /// Whether either label is relevant to `query` (the anchor condition).
    pub fn anchors(query: &NodeSetQuery, src_label: Label, dst_label: Label) -> bool {
        query.labels.contains(&src_label) || query.labels.contains(&dst_label)
    }

    /// Timestamp of the anchor edge.
    pub fn anchor_ts(&self) -> u64 {
        self.anchor_ts
    }

    /// Last timestamp at which this window can still complete.
    pub fn deadline(&self) -> u64 {
        self.deadline
    }

    /// Consumes one edge's endpoint appearances (source first, then destination). An
    /// edge neither of whose endpoint labels is a member label leaves the window
    /// untouched — the streaming detector relies on that to skip such windows.
    pub fn advance(&mut self, ts: u64, endpoints: [(usize, Label); 2]) -> RunStep {
        if ts > self.deadline {
            return RunStep::Expired;
        }
        for (node, label) in endpoints {
            if self.seen_nodes.contains(&node) {
                continue;
            }
            if let Some((_, count)) = self.remaining.iter_mut().find(|(l, _)| *l == label) {
                if *count > 0 {
                    *count -= 1;
                    self.outstanding -= 1;
                    self.seen_nodes.push(node);
                    if self.outstanding == 0 {
                        return RunStep::Complete((self.anchor_ts, ts));
                    }
                }
            }
        }
        RunStep::Pending
    }
}

/// Completes an order-free (`Ntemp`) match anchored at `anchor` over the buffered window
/// slice `window_edges` (every edge with a timestamp in `[anchor - window + 1,
/// anchor + window - 1]`, in timestamp order — the anchor edge included). Returns the
/// `(min, max)` timestamps of the first completion found, or `None`.
pub fn complete_static_anchored(
    pattern: &StaticPattern,
    labels: &[Label],
    window_edges: &[TemporalEdge],
    anchor: TemporalEdge,
    window: u64,
) -> Option<Interval> {
    let (p_src, p_dst) = pattern.edges[0];
    let mut node_map = vec![usize::MAX; pattern.labels.len()];
    node_map[p_src] = anchor.src;
    if p_dst != p_src {
        node_map[p_dst] = anchor.dst;
    }
    complete_static(
        pattern,
        labels,
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
    labels: &[Label],
    window_edges: &[TemporalEdge],
    p_idx: usize,
    node_map: &mut Vec<usize>,
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
        if labels[edge.src] != want_src || labels[edge.dst] != want_dst {
            continue;
        }
        let src_bound = node_map[p_src] != usize::MAX;
        if src_bound {
            if node_map[p_src] != edge.src {
                continue;
            }
        } else if node_map.contains(&edge.src) {
            continue;
        }
        let dst_bound = node_map[p_dst] != usize::MAX || p_src == p_dst;
        let expected_dst = if p_src == p_dst {
            edge.src
        } else {
            node_map[p_dst]
        };
        if dst_bound {
            if expected_dst != edge.dst {
                continue;
            }
        } else if node_map.contains(&edge.dst) || edge.dst == edge.src {
            continue;
        }
        if !src_bound {
            node_map[p_src] = edge.src;
        }
        if !dst_bound {
            node_map[p_dst] = edge.dst;
        }
        let result = complete_static(
            pattern,
            labels,
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
            node_map[p_dst] = usize::MAX;
        }
        if !src_bound {
            node_map[p_src] = usize::MAX;
        }
    }
    None
}

/// The window slice for a static anchor: indices `[lo, hi)` into `edges` covering
/// timestamps `[anchor_ts - window + 1, anchor_ts + window - 1]`.
pub fn static_window_bounds(edges: &[TemporalEdge], anchor_ts: u64, window: u64) -> (usize, usize) {
    let earliest = anchor_ts.saturating_sub(window.saturating_sub(1));
    let deadline = window_deadline(anchor_ts, window);
    let lo = edges.partition_point(|e| e.ts < earliest);
    let hi = edges.partition_point(|e| e.ts <= deadline);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgraph::GraphBuilder;

    fn l(i: u32) -> Label {
        Label(i)
    }

    fn e(ts: u64, src: usize, dst: usize) -> TemporalEdge {
        TemporalEdge { ts, src, dst }
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
        assert!(seed_matches(&p, &labels, e(1, 0, 1)));
        assert!(!seed_matches(&p, &labels, e(1, 1, 0)));
        assert!(
            !seed_matches(&p, &labels, e(1, 0, 0)),
            "loop edge cannot seed a non-loop pattern"
        );
        let loop_p = TemporalPattern::single_self_loop(l(0));
        assert!(seed_matches(&loop_p, &labels, e(1, 2, 2)));
        assert!(!seed_matches(&loop_p, &labels, e(1, 0, 2)));
    }

    #[test]
    fn temporal_run_completes_in_order() {
        let labels = vec![l(0), l(1), l(2)];
        let p = abc_pattern();
        let mut run = match TemporalRun::spawn(&p, e(1, 0, 1), 5) {
            TemporalSpawn::Active(run) => run,
            TemporalSpawn::Complete(_) => panic!("two-edge pattern cannot complete at seed"),
        };
        assert_eq!(
            run.advance(&p, &labels, e(2, 1, 2)),
            RunStep::Complete((1, 2))
        );
    }

    #[test]
    fn temporal_run_expires_at_the_window_edge() {
        let labels = vec![l(0), l(1), l(2)];
        let p = abc_pattern();
        let mut run = match TemporalRun::spawn(&p, e(10, 0, 1), 3) {
            TemporalSpawn::Active(run) => run,
            TemporalSpawn::Complete(_) => unreachable!(),
        };
        assert_eq!(run.deadline(), 12);
        assert_eq!(run.advance(&p, &labels, e(12, 0, 1)), RunStep::Pending);
        assert_eq!(run.advance(&p, &labels, e(13, 1, 2)), RunStep::Expired);
    }

    #[test]
    fn temporal_run_tracks_multiple_branches() {
        // Pattern A->B, B->C, C->D. Two candidate middle edges (B->C via different C
        // nodes); only one of them can be extended to the final edge, so the run must
        // keep both branches alive until the completing edge arrives.
        let labels = vec![l(0), l(1), l(2), l(2), l(3)];
        let p = abc_pattern().grow_forward(2, l(3)).unwrap();
        let mut run = match TemporalRun::spawn(&p, e(1, 0, 1), 10) {
            TemporalSpawn::Active(run) => run,
            TemporalSpawn::Complete(_) => unreachable!(),
        };
        assert_eq!(run.advance(&p, &labels, e(2, 1, 2)), RunStep::Pending);
        assert_eq!(run.advance(&p, &labels, e(3, 1, 3)), RunStep::Pending);
        assert_eq!(
            run.state_count(),
            3,
            "seed state plus two middle-edge branches"
        );
        // Completion through the *second* branch (C = node 3).
        assert_eq!(
            run.advance(&p, &labels, e(4, 3, 4)),
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
        let mut run = match TemporalRun::spawn(&p, e(1, 0, 1), 1_000) {
            TemporalSpawn::Active(run) => run,
            TemporalSpawn::Complete(_) => unreachable!(),
        };
        for i in 0..fanout {
            for repeat in 0..2 {
                let ts = 2 + 2 * i as u64 + repeat;
                assert_eq!(run.advance(&p, &labels, e(ts, 1, 2 + i)), RunStep::Pending);
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
        let mut run = match TemporalRun::spawn(&p, e(1, 0, 1), u64::MAX) {
            TemporalSpawn::Active(run) => run,
            TemporalSpawn::Complete(_) => unreachable!(),
        };
        for i in 0..hub_fanout {
            assert_eq!(
                run.advance(&p, &labels, e(2 + i as u64, 1, 2 + i)),
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
        assert_eq!(run.advance(&p, &labels, e(900, 1, 2)), RunStep::Pending);
        assert_eq!(
            run.advance(&p, &labels, e(901, 1, 2 + 300)),
            RunStep::Pending
        );
        assert_eq!((run.state_count(), run.dropped_branches()), (512, 41));
        assert_eq!(
            run.advance(&p, &labels, e(902, 1, 2 + 520)),
            RunStep::Pending
        );
        assert_eq!((run.state_count(), run.dropped_branches()), (512, 42));
    }

    #[test]
    fn single_edge_pattern_completes_at_spawn() {
        let p = TemporalPattern::single_edge(l(0), l(1));
        match TemporalRun::spawn(&p, e(7, 0, 1), 5) {
            TemporalSpawn::Complete(interval) => assert_eq!(interval, (7, 7)),
            TemporalSpawn::Active(_) => panic!("single-edge pattern must complete at seed"),
        }
    }

    #[test]
    fn nodeset_run_collects_the_label_multiset() {
        let query = NodeSetQuery {
            labels: vec![l(0), l(1), l(1)],
        };
        let mut run = NodeSetRun::spawn(&label_multiset(&query), 5, 10);
        // Anchor edge: an l(0) node and an l(1) node.
        assert_eq!(run.advance(5, [(0, l(0)), (1, l(1))]), RunStep::Pending);
        // Repeat appearance of node 1 does not double-count.
        assert_eq!(run.advance(6, [(1, l(1)), (9, l(9))]), RunStep::Pending);
        // A second distinct l(1) node completes the multiset.
        assert_eq!(
            run.advance(8, [(2, l(1)), (3, l(7))]),
            RunStep::Complete((5, 8))
        );
    }

    #[test]
    fn nodeset_run_expires() {
        let query = NodeSetQuery {
            labels: vec![l(0), l(5)],
        };
        let mut run = NodeSetRun::spawn(&label_multiset(&query), 5, 3);
        assert_eq!(run.advance(5, [(0, l(0)), (1, l(1))]), RunStep::Pending);
        assert_eq!(run.advance(8, [(2, l(5)), (3, l(1))]), RunStep::Expired);
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
        let anchor = g.edge(1);
        let (lo, hi) = static_window_bounds(g.edges(), anchor.ts, 5);
        let hit = complete_static_anchored(&pattern, g.labels(), &g.edges()[lo..hi], anchor, 5);
        assert_eq!(hit, Some((10, 11)));
        // A window of 1 only covers the anchor itself.
        let (lo, hi) = static_window_bounds(g.edges(), anchor.ts, 1);
        let miss = complete_static_anchored(&pattern, g.labels(), &g.edges()[lo..hi], anchor, 1);
        assert_eq!(miss, None);
    }

    #[test]
    fn static_window_bounds_clip_to_the_window() {
        let edges: Vec<TemporalEdge> = (1..=10).map(|ts| e(ts, 0, 1)).collect();
        let (lo, hi) = static_window_bounds(&edges, 5, 3);
        // Window covers ts in [3, 7].
        assert_eq!((lo, hi), (2, 7));
        let (lo, hi) = static_window_bounds(&edges, 1, 100);
        assert_eq!((lo, hi), (0, 10));
    }
}
