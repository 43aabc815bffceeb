//! The plain (uninstrumented) event path allocates nothing per event while nothing
//! spawns, completes or falls due — whether the event is routed past every query or
//! offered to a live run. Counted with a counting global allocator, which is why this
//! test has a binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stream::{CompiledQuery, Detector};
use tgminer::baselines::gspan::StaticPattern;
use tgminer::baselines::nodeset::NodeSetQuery;
use tgraph::pattern::TemporalPattern;
use tgraph::{Label, StreamEvent};

thread_local! {
    /// Allocations (and reallocations) made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` with a `const`
// initialiser, so touching it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
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
    // events bring the graph's node table and its small edge buffer (nothing is
    // retained without a static query, the buffer compacts at 64) to their final size.
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
