//! The plain (uninstrumented) event path allocates nothing per event while nothing
//! spawns, completes or falls due — whether the event is routed past every query or
//! offered to a live run — a keyword window allocates nothing to open, wait or
//! complete, an event between the largest node ids allocates what one between small
//! ids does, and the tenant pool's front door adds nothing to it: no
//! allocation per batch beyond its tenants' own, no memory kept per tenant that has
//! left, and a tenant arriving after any number of query swaps costs what one arriving
//! before them does. Counted with a counting global allocator, which is why this test
//! has a binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stream::{CompiledQuery, Detector, QuiescencePolicy, ShardedDetector, TenantPool};
use tgminer::baselines::gspan::StaticPattern;
use tgminer::baselines::nodeset::NodeSetQuery;
use tgraph::pattern::TemporalPattern;
use tgraph::{Label, StreamEvent, TenantId, TenantedEvent};

thread_local! {
    /// Allocations (and reallocations) made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds allocated.
    static LIVE: Cell<usize> = const { Cell::new(0) };
}

fn resize(from: usize, to: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    LIVE.with(|live| live.set(live.get().saturating_sub(from) + to));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local `Cell`s with `const`
// initialisers, so touching them neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        resize(0, layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|live| live.set(live.get().saturating_sub(layout.size())));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        resize(layout.size(), new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

fn ev(ts: u64, src: usize, dst: usize, src_label: u32, dst_label: u32) -> StreamEvent {
    StreamEvent {
        ts,
        src,
        dst,
        src_label: Label(src_label),
        dst_label: Label(dst_label),
    }
}

/// A→B, B→C, C→D over labels 0..=3.
fn chain() -> TemporalPattern {
    TemporalPattern::single_edge(Label(0), Label(1))
        .grow_forward(1, Label(2))
        .and_then(|p| p.grow_forward(2, Label(3)))
        .unwrap()
}

#[test]
fn quiet_events_allocate_nothing() {
    let mut detector = Detector::new();
    detector
        .register(CompiledQuery::Temporal(chain()), 1_000_000)
        .unwrap();
    let keywords = NodeSetQuery {
        labels: vec![Label(0), Label(5)],
    };
    detector
        .register(CompiledQuery::NodeSet(keywords), 1_000_000)
        .unwrap();
    // Warm-up. The seed opens a temporal run and a keyword window; a first B→C edge
    // grows the run, and a second (a duplicate branch) sizes its scratch tail. Unrouted
    // events bring the graph's small edge buffer (nothing is retained without a static
    // query, the buffer compacts at 64) to its final size.
    detector.on_event(ev(1, 0, 1, 0, 1)).unwrap();
    detector.on_event(ev(2, 1, 2, 1, 2)).unwrap();
    detector.on_event(ev(3, 1, 2, 1, 2)).unwrap();
    for _ in 0..128 {
        detector.on_event(ev(3, 8, 9, 7, 7)).unwrap();
    }
    assert_eq!(detector.active_temporal_runs(), 1);
    assert_eq!(detector.active_nodeset_runs(), 1);

    // 4,096 events: half routed past every query, half offered to the live run (whose
    // advance index names the (B, C) pair) without growing, completing or expiring it.
    let quiet: Vec<StreamEvent> = (0..4_096u64)
        .map(|i| match i % 2 {
            0 => ev(4 + i, 8, 9, 7, 7),
            _ => ev(4 + i, 1, 2, 1, 2),
        })
        .collect();
    let mut detections = 0;
    let allocations = allocations_during(|| {
        for chunk in quiet.chunks(256) {
            detections += detector.on_batch(chunk).unwrap().len();
        }
    });
    assert_eq!(detections, 0);
    assert_eq!(allocations, 0, "the quiet path must not allocate");
    assert_eq!(detector.active_temporal_runs(), 1, "the run is still there");
}

#[test]
fn the_largest_ids_allocate_what_small_ones_do() {
    // Nothing in the engine is sized by a node id: an event between `1 << 40` and
    // `usize::MAX` allocates no more than the same event between nodes 3 and 4 —
    // routed past every query, or seeding a temporal run and opening a keyword window.
    let mut detector = Detector::new();
    detector
        .register(CompiledQuery::Temporal(chain()), 1_000_000)
        .unwrap();
    let keywords = NodeSetQuery {
        labels: vec![Label(0), Label(5)],
    };
    detector
        .register(CompiledQuery::NodeSet(keywords), 1_000_000)
        .unwrap();
    for ts in 1..=128 {
        detector.on_event(ev(ts, 3, 4, 7, 7)).unwrap();
    }
    let mut ts = 128;
    let mut allocations = |src: usize, dst: usize, labels: (u32, u32)| {
        ts += 1;
        allocations_during(|| drop(detector.on_event(ev(ts, src, dst, labels.0, labels.1))))
    };
    for labels in [(7, 7), (0, 1)] {
        let small = allocations(3, 4, labels);
        for (src, dst) in [(1 << 40, usize::MAX), (usize::MAX, 1 << 40)] {
            assert!(
                allocations(src, dst, labels) <= small,
                "{src} -> {dst} with labels {labels:?}: more than {small} allocations"
            );
        }
    }
    assert_eq!(detector.active_temporal_runs(), 3);
}

/// Allocations of `events` after the first 64 (which warm the detector up), delivered
/// in batches of 64 to a detector with `query` registered; each must detect once.
fn allocations_after_warm_up(query: CompiledQuery, events: &[StreamEvent]) -> u64 {
    let mut detector = Detector::new();
    detector.register(query, 1_000_000).unwrap();
    let (warm_up, measured) = events.split_at(64);
    detector.on_batch(warm_up).unwrap();
    let mut detections = 0;
    let allocations = allocations_during(|| {
        for chunk in measured.chunks(64) {
            detections += detector.on_batch(chunk).unwrap().len();
        }
    });
    assert_eq!(detections, measured.len());
    allocations
}

#[test]
fn keyword_spawns_and_completions_allocate_nothing() {
    // A keyword query needing two distinct label-1 nodes, over events alternating
    // between two of them: each event completes the window the previous one opened
    // and opens one that waits — one spawn, one queued window, one completion per
    // event. Against a single-edge temporal query completing on every event, the same
    // detections in the same batches: whatever the keyword path allocated beyond the
    // detections themselves would show as a difference.
    let events: Vec<StreamEvent> = (0..64 * 33u64)
        .map(|i| ev(1 + i, 0, 1 + (i % 2) as usize, 0, 1))
        .collect();
    let keywords = NodeSetQuery {
        labels: vec![Label(0), Label(1), Label(1)],
    };
    let keyword_path = allocations_after_warm_up(CompiledQuery::NodeSet(keywords), &events);
    let detections_alone = allocations_after_warm_up(
        CompiledQuery::Temporal(TemporalPattern::single_edge(Label(0), Label(1))),
        &events,
    );
    assert_eq!(
        keyword_path, detections_alone,
        "keyword windows allocate beyond the detections they emit"
    );
}

#[test]
fn pending_anchors_do_not_cost_an_allocation_per_event() {
    // With a static query the graph buffers edges (amortised growth of one vector), and
    // anchors wait in the run table: an anchor that is not due costs an event one
    // deadline compare, never a pass over (or a re-partition of) the pending anchors.
    let mut detector = Detector::new();
    let ntemp = StaticPattern {
        labels: vec![Label(0), Label(1), Label(2)],
        edges: vec![(0, 1), (1, 2)],
    };
    detector
        .register(CompiledQuery::Static(ntemp), 1_000_000)
        .unwrap();
    detector.on_event(ev(1, 0, 1, 0, 1)).unwrap();
    assert_eq!(detector.pending_static_anchors(), 1);
    let quiet: Vec<StreamEvent> = (0..4_096u64).map(|i| ev(2 + i, 8, 9, 7, 7)).collect();
    let allocations = allocations_during(|| {
        assert!(detector.on_batch(&quiet).unwrap().is_empty());
    });
    assert!(
        allocations <= 16,
        "{allocations} allocations over 4,096 events: more than the edge buffer's doubling"
    );
    assert_eq!(detector.pending_static_anchors(), 1);
}

/// A query no event of these tests matches, so every batch is quiet.
fn unmatched() -> CompiledQuery {
    CompiledQuery::Temporal(TemporalPattern::single_edge(Label(8), Label(9)))
}

/// `tenant`'s events `from..from + len`: one tick each over 128 nodes, so nothing in a
/// tenant's detector grows with the stream.
fn run_of(tenant: u64, from: u64, len: u64) -> impl Iterator<Item = TenantedEvent> {
    (from..from + len).map(move |i| TenantedEvent {
        tenant: TenantId(tenant),
        event: ev(i, (i % 64) as usize, 64 + (i % 64) as usize, 1, 2),
    })
}

#[test]
fn the_pools_front_door_allocates_nothing_of_its_own() {
    const RUN: u64 = 16;
    for tenants in [8u64, 64] {
        let mut pool = TenantPool::new(1, 1);
        pool.register(unmatched(), 1_000).unwrap();
        let mut direct: Vec<ShardedDetector> = (0..tenants)
            .map(|_| {
                let mut detector = ShardedDetector::new(1);
                detector.register(unmatched(), 1_000).unwrap();
                detector
            })
            .collect();
        // Round `r` carries one run per tenant, round-robin; a batch is `rounds` of them.
        let mut next_round = 0;
        let mut deliver = |rounds: u64| {
            let batch: Vec<TenantedEvent> = (next_round..next_round + rounds)
                .flat_map(|r| (0..tenants).flat_map(move |t| run_of(t, r * RUN, RUN)))
                .collect();
            let alone: Vec<Vec<StreamEvent>> = (0..tenants)
                .map(|t| {
                    run_of(t, next_round * RUN, rounds * RUN)
                        .map(|te| te.event)
                        .collect()
                })
                .collect();
            next_round += rounds;
            let through_pool = allocations_during(|| drop(pool.on_batch(&batch).unwrap()));
            let one_by_one = allocations_during(|| {
                for (detector, events) in direct.iter_mut().zip(&alone) {
                    drop(detector.on_batch(events).unwrap());
                }
            });
            (through_pool, one_by_one)
        };
        // Warm-up: the largest batch to come sizes the arena and the run list.
        deliver(16);
        deliver(16);
        let mut counts = Vec::new();
        for rounds in [1, 4, 16] {
            let (through_pool, one_by_one) = deliver(rounds);
            assert!(
                (one_by_one..=one_by_one + 1).contains(&through_pool),
                "{tenants} tenants, {rounds} rounds: {through_pool} allocations through the \
                 pool, {one_by_one} calling the tenants' detectors directly"
            );
            counts.push(through_pool);
        }
        assert!(
            counts.windows(2).all(|pair| pair[0] == pair[1]),
            "allocations depend on the batch length: {counts:?}"
        );
    }
}

/// Allocations of a new tenant's first batch in a pool with one query and one live
/// tenant, after `swaps` cycles of registering and deregistering a second query.
fn first_batch_after_swaps(swaps: usize) -> u64 {
    let mut pool = TenantPool::new(1, 1);
    pool.register(unmatched(), 1_000).unwrap();
    pool.on_batch(&run_of(0, 0, 16).collect::<Vec<_>>())
        .unwrap();
    for _ in 0..swaps {
        let swapped = pool
            .register(CompiledQuery::Temporal(chain()), 1_000)
            .unwrap();
        pool.deregister(swapped.id).unwrap();
    }
    let first: Vec<TenantedEvent> = run_of(1, 16, 16).collect();
    allocations_during(|| drop(pool.on_batch(&first).unwrap()))
}

#[test]
fn a_late_tenant_costs_the_live_queries_not_the_history() {
    // A new tenant copies the live query set; replaying every registration and
    // deregistration ever made would cost allocations per swap.
    let (fresh, after_swaps) = (first_batch_after_swaps(0), first_batch_after_swaps(1_000));
    assert_eq!(
        fresh, after_swaps,
        "a tenant's first batch allocates {after_swaps} times after 1,000 query swaps, \
         {fresh} before any"
    );
}

const TENANTS: u64 = 10_000;
const LONG_RUN: u64 = 64;

/// Bytes a pool still holds after `TENANTS` tenants each sent one run of `run` events
/// and were quiesced, over what it held before the first of them.
fn kept_after_churn(run: u64) -> usize {
    let mut pool = TenantPool::new(1, 1);
    pool.register(unmatched(), 5).unwrap();
    pool.set_quiescence(Some(QuiescencePolicy { horizon: 10 }));
    // Before the churn the staging already holds the largest batch to come.
    let largest: Vec<TenantedEvent> = run_of(0, 0, LONG_RUN).collect();
    pool.on_batch(&largest).unwrap();
    let before = LIVE.with(Cell::get);
    // Each tenant's run starts `LONG_RUN` ticks after the previous tenant's, so it is
    // evicted a batch or two later: silent for longer than the horizon.
    for tenant in 1..=TENANTS {
        let batch: Vec<TenantedEvent> = run_of(tenant, tenant * LONG_RUN, run).collect();
        pool.on_batch(&batch).unwrap();
    }
    // Tenant 0 returns, twice: the second batch's sweep evicts the last of the others.
    for round in 1..=2 {
        let batch: Vec<TenantedEvent> = run_of(0, (TENANTS + round) * LONG_RUN, LONG_RUN).collect();
        pool.on_batch(&batch).unwrap();
    }
    assert_eq!(pool.tenant_count(), 1);
    LIVE.with(Cell::get).saturating_sub(before)
}

#[test]
fn tenants_that_left_leave_no_staging_behind() {
    // What a departed tenant does leave is its entry in the quiescence clock and its
    // saved visibility floors (ROADMAP, Leftovers): the same for a run of one event and
    // a run of 64. Staging kept per tenant would grow with the run.
    let (short, long) = (kept_after_churn(1), kept_after_churn(LONG_RUN));
    let one_batch = LONG_RUN as usize * std::mem::size_of::<TenantedEvent>();
    assert!(
        long <= short + one_batch,
        "{long} bytes kept after runs of {LONG_RUN}, {short} after runs of 1"
    );
    assert!(
        short <= TENANTS as usize * 128,
        "{short} bytes kept for {TENANTS} departed tenants: more than a clock entry and \
         the saved floors each"
    );
}
