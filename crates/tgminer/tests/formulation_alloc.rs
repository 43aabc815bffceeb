//! Formulation pays per label and per kept seed, not per graph or per edge: counted
//! with a counting global allocator (which is why this test has a binary of its own),
//! the label tables behind `InterestRanker::from_training` and `mine_nodeset`, and
//! TGMiner's background seed scan, allocate the same over N and 2N graphs. A label set
//! per graph, or a node map per background edge allocated before its seed key is
//! checked, makes the count grow with N. TGMiner also pays next to nothing for a
//! candidate its bound cuts: no node map, no pattern.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tgminer::baselines::mine_nodeset;
use tgminer::{mine, InterestRanker, LogRatio, MinerConfig};
use tgraph::{GraphBuilder, Label, TemporalGraph};

thread_local! {
    /// Allocations (and reallocations) made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` with a `const`
// initialiser, so touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    drop(f());
    ALLOCATIONS.with(Cell::get) - before
}

/// A chain over `labels`, one edge per consecutive pair, timestamps 1, 2, ...
fn chain(labels: &[u32]) -> TemporalGraph {
    let mut b = GraphBuilder::new();
    let nodes: Vec<usize> = labels.iter().map(|&x| b.add_node(Label(x))).collect();
    for (t, w) in nodes.windows(2).enumerate() {
        b.add_edge(w[0], w[1], t as u64 + 1).unwrap();
    }
    b.build()
}

#[test]
fn background_graphs_without_a_positive_seed_key_cost_no_allocation() {
    let positives = vec![chain(&[0, 1, 2, 3]), chain(&[0, 1, 2, 0])];
    // The positive labels, but every edge reversed, with self-loops, equal-label pairs
    // and labels no positive has: no seed key in common with the positives.
    let background = |n: usize| -> Vec<TemporalGraph> {
        let graph = |i: usize| {
            let mut b = GraphBuilder::new();
            let nodes: Vec<usize> = [3, 2, 1, 0, 1, 7, 40]
                .iter()
                .map(|&x| b.add_node(Label(x)))
                .collect();
            let edges = [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 3),
                (2, 4),
                (4, 5),
                (5, 6),
                (6, 0),
            ];
            for (t, &(src, dst)) in edges.iter().enumerate() {
                b.add_edge(nodes[src], nodes[dst], (t + i) as u64).unwrap();
            }
            b.build()
        };
        (0..n).map(graph).collect()
    };
    let config = MinerConfig::default().with_max_edges(1);
    let run = |negatives: &[TemporalGraph]| {
        let result = mine(&positives, negatives, &LogRatio::default(), &config);
        assert!(result.patterns.iter().all(|p| p.neg_freq == 0.0));
        result
    };
    let (small, large) = (background(64), background(128));
    let once = allocations(|| run(&small));
    let twice = allocations(|| run(&large));
    assert_eq!(once, twice, "64 background graphs: {once}, 128: {twice}");
}

#[test]
fn bound_cut_siblings_build_no_node_maps() {
    // Four positives share A -> B (labels 0 -> 1), then B fans out to labels of their
    // own, 2N in all, each in one positive. In a run with `n` siblings, the fan edges
    // to labels below `n` follow A -> B and grow it by a forward edge; the rest come
    // before it. So both runs have the same seeds, and differ only in A -> B's
    // children. A -> B is also in a negative, so it scores below a child held by a
    // quarter of the positives: the first child takes the top-1, and every child then
    // ties the threshold with its bound and is cut, as are the fan seeds.
    const N: usize = 64;
    let positives = |n: usize| -> Vec<TemporalGraph> {
        let graph = |g: usize| {
            let mut b = GraphBuilder::new();
            let (a, hub) = (b.add_node(Label(0)), b.add_node(Label(1)));
            let fan: Vec<(usize, usize)> = (g..2 * N)
                .step_by(4)
                .map(|i| (i, b.add_node(Label(10 + i as u32))))
                .collect();
            let (late, early): (Vec<_>, Vec<_>) = fan.into_iter().partition(|&(i, _)| i < n);
            let fan_edge = |&(_, leaf): &(usize, usize)| (hub, leaf);
            let edges = early.iter().map(fan_edge);
            let edges = edges.chain([(a, hub)]).chain(late.iter().map(fan_edge));
            for (t, (src, dst)) in edges.enumerate() {
                b.add_edge(src, dst, t as u64 + 1).unwrap();
            }
            b.build()
        };
        (0..4).map(graph).collect()
    };
    let negatives = vec![chain(&[0, 1]), chain(&[2, 3])];
    let config = MinerConfig::default().with_max_edges(3).with_top_k(1);
    let run = |n: usize| {
        let positives = positives(n);
        allocations(|| {
            let result = mine(&positives, &negatives, &LogRatio::default(), &config);
            let children = result.stats.levels[1];
            assert_eq!((children.candidates, children.pruned), (n as u64, n as u64));
            assert_eq!(result.stats.patterns_expanded, 1, "only A -> B is grown");
            result
        })
    };
    let (once, twice) = (run(N), run(2 * N));
    assert!(
        twice < once + N as u64 / 4,
        "{N} siblings: {once} allocations, {}: {twice}",
        2 * N
    );
}

#[test]
fn label_tables_cost_the_same_over_n_and_2n_graphs() {
    // Every graph carries the same label set, 50,000 included, in varying orders.
    let graphs = |n: usize| -> Vec<TemporalGraph> {
        let orders: [&[u32]; 3] = [
            &[0, 1, 2, 50_000, 1],
            &[2, 50_000, 0, 1],
            &[1, 0, 2, 50_000],
        ];
        (0..n).map(|i| chain(orders[i % 3])).collect()
    };
    let (small, large) = (graphs(60), graphs(120));
    let ranker = |set: &[TemporalGraph]| InterestRanker::from_training(set);
    assert_eq!(
        allocations(|| ranker(&small)),
        allocations(|| ranker(&large))
    );
    let score = LogRatio::default();
    let nodeset = |set: &[TemporalGraph]| {
        let (positives, negatives) = set.split_at(set.len() / 3);
        mine_nodeset(positives, negatives, &score, 3)
    };
    assert_eq!(
        allocations(|| nodeset(&small)),
        allocations(|| nodeset(&large))
    );
}
