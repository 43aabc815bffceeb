//! The test-stream generator pays for what it keeps: counted with a counting global
//! allocator (which is why this test has a binary of its own), `TestData::generate`
//! allocates at most three times per event it emits. Rendering background noise that
//! is then dropped, or building a label string per endpoint, costs several times that
//! (17.9 per event before the generator drew noise in full but rendered only what it
//! kept, and resolved each entity's label once).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use syscall::{DatasetConfig, TestData, TestDataConfig, TrainingData};

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

#[test]
fn the_test_stream_costs_at_most_three_allocations_per_event() {
    let training = TrainingData::generate(&DatasetConfig::small());
    let interner = training.interner.clone();
    let before = ALLOCATIONS.with(Cell::get);
    let test = TestData::generate(&TestDataConfig::small(), interner);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let events = test.graph.edge_count() as u64;
    assert!(events > 30_000, "{events} events");
    assert!(
        allocations <= 3 * events,
        "{allocations} allocations for {events} events: {:.2} per event",
        allocations as f64 / events as f64
    );
}
