//! Searching behavior queries over a large monitoring graph.
//!
//! Behavior query processing itself is not the paper's contribution (it defers to
//! existing subgraph-matching systems); this module provides the straightforward
//! windowed search needed to evaluate query accuracy: every match must fit inside a time
//! window no longer than the longest observed lifetime of the target behavior
//! (Section 6.1). Three query types are supported, matching the three compared systems:
//!
//! * temporal graph patterns (TGMiner) — edge order must be respected;
//! * non-temporal patterns (`Ntemp`) — same structure, order ignored;
//! * keyword label sets (`NodeSet`) — any co-occurrence of the labels within the window.
//!
//! Every search returns *identified instances* as `(start_ts, end_ts)` intervals.
//!
//! The per-edge matching rules live in [`crate::matcher`] and are shared with the
//! streaming detector (crate `stream`): a batch search here is definitionally a replay
//! of the graph's edges through the same state machines, which is what makes streaming
//! detections interval-for-interval consistent with these functions. The matcher takes
//! labelled edges, so each graph edge is labelled as it is offered
//! ([`TemporalGraph::event`]). Seed/anchor lookup goes through a [`tgraph::EdgePostings`]
//! index keyed by `(source label, destination label)` instead of scanning every edge;
//! callers searching many queries over the same graph should build the index once and
//! use the `*_indexed` variants.

use crate::matcher::{
    complete_static_anchored, seed_matches, static_window_bounds, window_deadline, KeywordTracker,
    RunStep, TemporalRun, TemporalSpawn,
};
use std::collections::VecDeque;
use tgminer::baselines::gspan::StaticPattern;
use tgminer::baselines::nodeset::NodeSetQuery;
use tgraph::pattern::TemporalPattern;
use tgraph::{EdgePostings, TemporalGraph};

/// An identified instance: the closed timestamp interval during which the match happened.
pub type Interval = crate::matcher::Interval;

/// Searches a temporal pattern in `graph`: every match must start at an edge matching
/// the pattern's first edge and complete within `window` timestamp units. At most one
/// identified instance is reported per seed edge — the earliest completion for that
/// seed. Builds a throwaway postings index; prefer [`search_temporal_indexed`] when
/// searching several queries over the same graph.
pub fn search_temporal(
    graph: &TemporalGraph,
    pattern: &TemporalPattern,
    window: u64,
) -> Vec<Interval> {
    search_temporal_indexed(graph, &EdgePostings::build(graph), pattern, window)
}

/// [`search_temporal`] with a caller-provided `(src label, dst label)` postings index:
/// seed-edge candidates are looked up by the first pattern edge's label pair instead of
/// scanning every graph edge.
pub fn search_temporal_indexed(
    graph: &TemporalGraph,
    postings: &EdgePostings,
    pattern: &TemporalPattern,
    window: u64,
) -> Vec<Interval> {
    if pattern.edge_count() == 0 {
        return Vec::new();
    }
    let first = pattern.edges()[0];
    let mut out = Vec::new();
    for &seed_idx in postings.candidates(pattern.label(first.src), pattern.label(first.dst)) {
        let seed = graph.event(seed_idx);
        if !seed_matches(pattern, seed) {
            continue; // right labels, wrong loop structure
        }
        let mut run = match TemporalRun::spawn(pattern, seed, window) {
            TemporalSpawn::Complete(interval) => {
                out.push(interval);
                continue;
            }
            TemporalSpawn::Active(run) => run,
        };
        for later in seed_idx + 1..graph.edge_count() {
            match run.advance(pattern, graph.event(later)) {
                RunStep::Pending => {}
                RunStep::Expired => break,
                RunStep::Complete(interval) => {
                    out.push(interval);
                    break;
                }
            }
        }
    }
    out
}

/// Searches a non-temporal pattern: the match is anchored at an edge matching the
/// pattern's first edge; all other pattern edges may match any edge (in any order) whose
/// timestamp lies within `window` of the anchor, as long as the whole match spans at most
/// `window` timestamp units.
pub fn search_static(graph: &TemporalGraph, pattern: &StaticPattern, window: u64) -> Vec<Interval> {
    search_static_indexed(graph, &EdgePostings::build(graph), pattern, window)
}

/// [`search_static`] with a caller-provided postings index for anchor lookup.
pub fn search_static_indexed(
    graph: &TemporalGraph,
    postings: &EdgePostings,
    pattern: &StaticPattern,
    window: u64,
) -> Vec<Interval> {
    if pattern.edges.is_empty() {
        return Vec::new();
    }
    let (p_src, p_dst) = pattern.edges[0];
    let mut out = Vec::new();
    // The anchor's window, labelled; one buffer for every anchor.
    let mut window_events = Vec::new();
    for &anchor_idx in postings.candidates(pattern.labels[p_src], pattern.labels[p_dst]) {
        let anchor = graph.event(anchor_idx);
        let (lo, hi) = static_window_bounds(graph.edges(), anchor.ts, window);
        window_events.clear();
        window_events.extend((lo..hi).map(|idx| graph.event(idx)));
        out.extend(complete_static_anchored(
            pattern,
            &window_events,
            anchor,
            window,
        ));
    }
    out
}

/// Searches a keyword (`NodeSet`) query: a match is a set of nodes carrying exactly the
/// query's label multiset whose appearances span at most `window` timestamp units.
/// Matches are anchored at every edge that touches any of the query's labels (the
/// anchor is the earliest appearance of the match), one interval per completed anchor,
/// in anchor order.
///
/// One pass over the edges with one [`KeywordTracker`]: open anchors wait in a FIFO,
/// which is deadline order and — since the tracker's `met` never decreases — completion
/// order too.
pub fn search_nodeset(graph: &TemporalGraph, query: &NodeSetQuery, window: u64) -> Vec<Interval> {
    let mut tracker = KeywordTracker::new(query);
    // Open anchors: (deadline, timestamp, position).
    let mut open: VecDeque<(u64, u64, u64)> = VecDeque::new();
    let mut out = Vec::new();
    for (position, edge) in (1..).zip(graph.edges()) {
        while open
            .front()
            .is_some_and(|&(deadline, ..)| deadline < edge.ts)
        {
            open.pop_front();
        }
        let endpoints = [
            (edge.src, graph.label(edge.src)),
            (edge.dst, graph.label(edge.dst)),
        ];
        let anchors = tracker.note(position, endpoints);
        let met = tracker.met();
        while let Some(&(_, ts, _)) = open.front().filter(|&&(.., at)| at <= met) {
            out.push((ts, edge.ts));
            open.pop_front();
        }
        if !anchors {
            continue;
        }
        if met >= position {
            out.push((edge.ts, edge.ts));
        } else {
            open.push_back((window_deadline(edge.ts, window), edge.ts, position));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tgraph::{GraphBuilder, Label};

    fn l(i: u32) -> Label {
        Label(i)
    }

    /// Test graph: an A->B->C chain at ts 1..2, noise, then a reversed occurrence
    /// (B->C at ts 10, A->B at ts 11), then another A->B->C chain far away (ts 20..21).
    fn graph() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(l(0));
        let b1 = b.add_node(l(1));
        let c1 = b.add_node(l(2));
        let noise = b.add_node(l(9));
        let a2 = b.add_node(l(0));
        let b2 = b.add_node(l(1));
        let c2 = b.add_node(l(2));
        let a3 = b.add_node(l(0));
        let b3 = b.add_node(l(1));
        let c3 = b.add_node(l(2));
        b.add_edge(a1, b1, 1).unwrap();
        b.add_edge(b1, c1, 2).unwrap();
        b.add_edge(noise, noise, 5).unwrap();
        b.add_edge(b2, c2, 10).unwrap();
        b.add_edge(a2, b2, 11).unwrap();
        b.add_edge(a3, b3, 20).unwrap();
        b.add_edge(b3, c3, 21).unwrap();
        b.build()
    }

    fn abc_pattern() -> TemporalPattern {
        TemporalPattern::single_edge(l(0), l(1))
            .grow_forward(1, l(2))
            .unwrap()
    }

    #[test]
    fn temporal_search_respects_order_and_window() {
        let g = graph();
        let hits = search_temporal(&g, &abc_pattern(), 5);
        // Matches at ts 1-2 and ts 20-21; the reversed occurrence at 10-11 must not match.
        assert_eq!(hits, vec![(1, 2), (20, 21)]);
        // A window of 1 is too short for the two-edge pattern.
        let hits = search_temporal(&g, &abc_pattern(), 1);
        assert!(hits.is_empty());
    }

    #[test]
    fn temporal_search_does_not_cross_the_window() {
        let g = graph();
        // Pattern A->B then B->C with a huge window would also pair edge 11 with edge 21
        // (different B nodes? no: nodes differ, so it cannot). Check a window large
        // enough to span unrelated segments still yields only genuine matches.
        let hits = search_temporal(&g, &abc_pattern(), 100);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn temporal_search_reports_the_earliest_completion() {
        // Seed A->B, then two B->C completions at ts 3 and ts 4 — the reported
        // instance must end at the earliest one.
        let mut b = GraphBuilder::new();
        let a = b.add_node(l(0));
        let bb = b.add_node(l(1));
        let c1 = b.add_node(l(2));
        let c2 = b.add_node(l(2));
        b.add_edge(a, bb, 1).unwrap();
        b.add_edge(bb, c1, 3).unwrap();
        b.add_edge(bb, c2, 4).unwrap();
        let g = b.build();
        assert_eq!(search_temporal(&g, &abc_pattern(), 10), vec![(1, 3)]);
    }

    #[test]
    fn indexed_and_unindexed_searches_agree() {
        let g = graph();
        let postings = EdgePostings::build(&g);
        let p = abc_pattern();
        assert_eq!(
            search_temporal(&g, &p, 5),
            search_temporal_indexed(&g, &postings, &p, 5)
        );
        let static_p = StaticPattern {
            labels: vec![l(0), l(1), l(2)],
            edges: vec![(0, 1), (1, 2)],
        };
        assert_eq!(
            search_static(&g, &static_p, 5),
            search_static_indexed(&g, &postings, &static_p, 5)
        );
    }

    #[test]
    fn static_search_ignores_order() {
        let g = graph();
        let pattern = StaticPattern {
            labels: vec![l(0), l(1), l(2)],
            edges: vec![(0, 1), (1, 2)],
        };
        let hits = search_static(&g, &pattern, 5);
        // The reversed occurrence is anchored at its A->B edge (ts 11), but B->C (ts 10)
        // is before the anchor and inside the window, so it is found too; the genuine
        // chains match as well.
        assert!(hits.contains(&(1, 2)));
        assert!(hits.contains(&(20, 21)));
        // What matters for the evaluation is that the *temporal* search can never match
        // the reversed occurrence.
        assert!(search_temporal(&g, &abc_pattern(), 5)
            .iter()
            .all(|&(s, _)| s != 10 && s != 11));
    }

    #[test]
    fn nodeset_search_matches_any_cooccurrence() {
        let g = graph();
        let query = NodeSetQuery {
            labels: vec![l(0), l(1), l(2)],
        };
        let hits = search_nodeset(&g, &query, 5);
        // The forward and reversed segments both contain the three labels close together;
        // matches are anchored at appearances of the first query label, so at least the
        // two A->B->C chains are found, and order is irrelevant to the keyword query.
        assert!(hits.len() >= 2);
        assert!(hits.contains(&(1, 2)));
        assert!(hits.contains(&(20, 21)));
        let query_missing = NodeSetQuery {
            labels: vec![l(0), l(7)],
        };
        assert!(search_nodeset(&g, &query_missing, 5).is_empty());
    }

    #[test]
    fn empty_queries_yield_no_matches() {
        let g = graph();
        let empty_nodeset = NodeSetQuery { labels: vec![] };
        assert!(search_nodeset(&g, &empty_nodeset, 5).is_empty());
        let empty_static = StaticPattern {
            labels: vec![],
            edges: vec![],
        };
        assert!(search_static(&g, &empty_static, 5).is_empty());
    }

    #[test]
    fn self_loop_patterns_are_searchable() {
        let g = graph();
        let loop_pattern = TemporalPattern::single_self_loop(l(9));
        let hits = search_temporal(&g, &loop_pattern, 5);
        assert_eq!(hits, vec![(5, 5)]);
    }

    /// The reference keyword rule: one window per anchor, consuming node appearances in
    /// stream order (source endpoint first) until every label of the multiset has its
    /// distinct nodes, or the window closes.
    struct AnchoredWindow {
        anchor_ts: u64,
        deadline: u64,
        /// Label → how many more distinct nodes must carry it.
        remaining: Vec<(Label, usize)>,
        outstanding: usize,
        seen_nodes: Vec<usize>,
    }

    impl AnchoredWindow {
        fn open(query: &NodeSetQuery, anchor_ts: u64, window: u64) -> Self {
            let mut remaining: Vec<(Label, usize)> = Vec::new();
            for &label in &query.labels {
                match remaining.iter_mut().find(|(l, _)| *l == label) {
                    Some((_, count)) => *count += 1,
                    None => remaining.push((label, 1)),
                }
            }
            Self {
                anchor_ts,
                deadline: window_deadline(anchor_ts, window),
                outstanding: query.labels.len(),
                remaining,
                seen_nodes: Vec::new(),
            }
        }

        fn advance(&mut self, ts: u64, endpoints: [(usize, Label); 2]) -> RunStep {
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

    /// `search_nodeset` as a forward scan per anchor.
    fn per_anchor_scan(graph: &TemporalGraph, query: &NodeSetQuery, window: u64) -> Vec<Interval> {
        let endpoints =
            |e: &tgraph::TemporalEdge| [(e.src, graph.label(e.src)), (e.dst, graph.label(e.dst))];
        let mut out = Vec::new();
        for (idx, anchor) in graph.edges().iter().enumerate() {
            let [(_, src_label), (_, dst_label)] = endpoints(anchor);
            if !(query.labels.contains(&src_label) || query.labels.contains(&dst_label)) {
                continue;
            }
            let mut run = AnchoredWindow::open(query, anchor.ts, window);
            for later in &graph.edges()[idx..] {
                match run.advance(later.ts, endpoints(later)) {
                    RunStep::Pending => {}
                    RunStep::Expired => break,
                    RunStep::Complete(interval) => {
                        out.push(interval);
                        break;
                    }
                }
            }
        }
        out
    }

    /// A SplitMix64 stream: a case's graph and query, from its sampled seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// 3–10 nodes over a 3–4 label alphabet; up to 48 edges, about one in five a
    /// self-loop, with repeated and gapped timestamps; and a query of 1–3 distinct labels
    /// each needing 1–3 distinct nodes.
    fn random_case(rng: &mut Rng) -> (TemporalGraph, NodeSetQuery) {
        let mut b = GraphBuilder::new();
        let alphabet = 3 + rng.below(2);
        let n = 3 + rng.below(8);
        for _ in 0..n {
            b.add_node(l(rng.below(alphabet) as u32));
        }
        let mut ts = rng.below(3) as u64;
        for _ in 0..1 + rng.below(48) {
            ts += [0, 0, 1, 1, 2, 5][rng.below(6)];
            let src = rng.below(n);
            let dst = if rng.below(5) == 0 { src } else { rng.below(n) };
            b.add_edge(src, dst, ts).unwrap();
        }
        let mut labels = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let label = l(rng.below(alphabet) as u32);
            labels.extend(std::iter::repeat_n(label, 1 + rng.below(3)));
        }
        (b.build(), NodeSetQuery { labels })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The tracker-and-queue search lists what a forward scan per anchor lists,
        /// in the same order, at windows from a single instant to unbounded.
        #[test]
        fn keyword_tracker_equals_the_per_anchor_scan(seed in 0u64..u64::MAX) {
            let (graph, query) = random_case(&mut Rng(seed));
            for window in [1, 2, 3, 7, u64::MAX] {
                prop_assert_eq!(
                    search_nodeset(&graph, &query, window),
                    per_anchor_scan(&graph, &query, window),
                    "window {}, query {:?}, graph {:?}", window, query.labels, graph
                );
            }
        }
    }
}
