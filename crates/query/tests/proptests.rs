//! Property tests for the window-boundary arithmetic shared by the offline search and
//! the streaming detector, plus the compiler half of the miner→compiler→registry
//! contract. The two dangerous regions of the arithmetic are the edges of the `u64`
//! domain: anchors near timestamp 0 (where naive `anchor - window + 1` would underflow)
//! and deadlines near `u64::MAX` (where naive `start + window - 1` would overflow).
//! Both must saturate, never wrap.

use proptest::prelude::*;
use query::compile::compile;
use query::matcher::{static_window_bounds, window_deadline};
use tgraph::TemporalEdge;

/// A strictly increasing timestamp sequence starting near `base` — the shape
/// `static_window_bounds` is specified over (stream timestamps are strictly monotonic).
fn edges_from(base: u64, count: usize, stride_seed: u64) -> Vec<TemporalEdge> {
    let mut edges = Vec::with_capacity(count);
    let mut ts = base;
    for i in 0..count {
        edges.push(TemporalEdge { ts, src: i, dst: i });
        // Vary the gap deterministically per position: 1..=7.
        let gap = (stride_seed.wrapping_mul(i as u64 + 1) % 7) + 1;
        ts = ts.saturating_add(gap);
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `window_deadline` is exactly `start + window - 1`, saturating at `u64::MAX`,
    /// for every positive window.
    #[test]
    fn window_deadline_saturates_near_u64_max(
        start in u64::MAX - 1_000..=u64::MAX,
        window in 1u64..5_000,
    ) {
        let deadline = window_deadline(start, window);
        prop_assert!(deadline >= start, "a window never closes before it opens");
        if let Some(exact) = start.checked_add(window - 1) {
            prop_assert_eq!(deadline, exact);
        } else {
            prop_assert_eq!(deadline, u64::MAX, "overflow must saturate, not wrap");
        }
    }

    /// The deadline spans exactly `window` timestamps (inclusive) whenever no
    /// saturation is involved, for windows drawn across the whole magnitude range.
    #[test]
    fn window_deadline_is_inclusive_of_exactly_window_instants(
        start in 0u64..1 << 40,
        window in 1u64..1 << 40,
    ) {
        let deadline = window_deadline(start, window);
        prop_assert_eq!(deadline - start + 1, window);
    }

    /// `static_window_bounds` with `anchor_ts < window` (underflow near timestamp 0):
    /// the earliest bound clamps to 0 and the returned slice contains exactly the edges
    /// inside `[saturating(anchor - window + 1), anchor + window - 1]`.
    #[test]
    fn static_window_bounds_clamp_at_zero(
        anchor in 0u64..50,
        window in 1u64..100,
        count in 0usize..40,
        stride_seed in 0u64..1_000,
    ) {
        let edges = edges_from(0, count, stride_seed);
        let (lo, hi) = static_window_bounds(&edges, anchor, window);
        let earliest = anchor.saturating_sub(window - 1);
        let deadline = window_deadline(anchor, window);
        prop_assert!(lo <= hi && hi <= edges.len());
        for (idx, edge) in edges.iter().enumerate() {
            let inside = (lo..hi).contains(&idx);
            let in_window = edge.ts >= earliest && edge.ts <= deadline;
            prop_assert_eq!(
                inside, in_window,
                "edge #{} (ts {}) misclassified for window [{}, {}]",
                idx, edge.ts, earliest, deadline
            );
        }
    }

    /// `static_window_bounds` with the anchor near `u64::MAX` (deadline saturation):
    /// the window reaches to the end of the stream instead of wrapping around.
    #[test]
    fn static_window_bounds_saturate_near_u64_max(
        offset in 0u64..500,
        window in 1u64..1_000,
        count in 1usize..40,
        stride_seed in 0u64..1_000,
    ) {
        let anchor = u64::MAX - offset;
        let edges = edges_from(u64::MAX - 2_000, count, stride_seed);
        let (lo, hi) = static_window_bounds(&edges, anchor, window);
        let earliest = anchor.saturating_sub(window - 1);
        let deadline = window_deadline(anchor, window);
        prop_assert!(deadline >= anchor, "saturated deadline stays at or after the anchor");
        prop_assert!(lo <= hi && hi <= edges.len());
        for (idx, edge) in edges.iter().enumerate() {
            let inside = (lo..hi).contains(&idx);
            let in_window = edge.ts >= earliest && edge.ts <= deadline;
            prop_assert_eq!(inside, in_window);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The compiler half of the miner→compiler→registry contract: every pattern the
    /// miner emits compiles into a non-empty query with a seed key, in the order
    /// given. The registry half — that
    /// these queries register without error — lives in
    /// `crates/stream/tests/mine_register_contract.rs`.
    #[test]
    fn every_mined_pattern_compiles_nonempty(
        seed in 0u64..10_000,
        alphabet in 1u32..5,
        max_edges in 1usize..4,
    ) {
        use tgminer::score::LogRatio;
        use tgminer::{mine, MinerConfig};
        use tgraph::generator::{random_t_connected_graph, RandomGraphSpec};

        let graph = |salt: u64| {
            random_t_connected_graph(
                seed.wrapping_mul(31).wrapping_add(salt),
                RandomGraphSpec { nodes: 6, edges: 10, label_alphabet: alphabet },
            )
        };
        let positives = vec![graph(1), graph(2), graph(3)];
        let negatives = vec![graph(100), graph(101)];
        let config = MinerConfig {
            max_edges,
            top_k: 8,
            cap_per_graph: 32,
            ..MinerConfig::default()
        };
        let mining = mine(&positives, &negatives, &LogRatio::default(), &config);
        prop_assert!(!mining.patterns.is_empty());
        let patterns: Vec<_> = mining.patterns.iter().map(|p| p.pattern.clone()).collect();
        let compiled = compile(&patterns);
        // Nothing the miner emits is trivially empty, so the compiler's filter is a
        // no-op: every pattern comes out, in place.
        prop_assert_eq!(compiled.len(), patterns.len());
        for (query, pattern) in compiled.iter().zip(&patterns) {
            prop_assert!(query.seed_key().is_some());
            prop_assert_eq!(query, &query::CompiledQuery::Temporal(pattern.clone()));
        }
    }
}
