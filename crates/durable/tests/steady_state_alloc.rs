//! What the log costs in memory: nothing per batch once its replay tail has reached
//! its steady size, and during recovery a few segments' worth — never the history.
//! Counted with a counting global allocator (the one of
//! `crates/stream/tests/steady_state_alloc.rs`, plus live bytes), which is why this
//! test has a binary of its own.

use durable::{recover, SyncPolicy, Wal, WalConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use stream::{CompiledQuery, ShardedDetector};
use tgraph::pattern::TemporalPattern;
use tgraph::{Label, StreamEvent};

thread_local! {
    /// Allocations (and reallocations) made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds allocated, and the most it has held.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn resize(from: usize, to: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    let live = LIVE.with(|live| {
        live.set(live.get().saturating_sub(from) + to);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
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

/// The most bytes `work` held above what was live when it started, and its result.
fn peak_during<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = work();
    (PEAK.with(Cell::get) - before, out)
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("durable-alloc-{tag}-{}", std::process::id()))
}

const BATCH: usize = 256;

/// Batch `b` of an endless stream over 128 nodes, one tick per event, so neither
/// the graph's node table nor anything else in the engine grows with the stream.
fn batch(b: u64) -> Vec<StreamEvent> {
    (b * BATCH as u64..(b + 1) * BATCH as u64)
        .map(|i| StreamEvent {
            ts: i,
            src: (i % 64) as usize,
            dst: 64 + (i % 64) as usize,
            src_label: Label(1),
            dst_label: Label(2),
        })
        .collect()
}

/// A one-shard engine, attached to `wal` if there is one, with one query that no
/// event matches and whose window (so the log's replay horizon, `2 × window`) spans
/// `window` ticks.
fn engine(wal: Option<&Wal>, window: u64) -> ShardedDetector {
    let mut engine = ShardedDetector::new(1);
    if let Some(wal) = wal {
        wal.attach(&mut engine).expect("attach");
    }
    let query = CompiledQuery::Temporal(TemporalPattern::single_edge(Label(8), Label(9)));
    engine.register(query, window).expect("valid query");
    engine
}

#[test]
fn a_logged_batch_allocates_exactly_what_an_unlogged_one_does() {
    let dir = temp_dir("steady");
    let config = WalConfig {
        sync: SyncPolicy::Never,
        ..WalConfig::default()
    };
    let wal = Wal::create(&dir, config).expect("log dir");
    // Four batches span the horizon; the tail holds at most twice that.
    let mut logged = engine(Some(&wal), 2 * BATCH as u64);
    let mut unlogged = engine(None, 2 * BATCH as u64);

    // Warm-up: the tail doubles and is pruned a few times, after which its buffer has
    // the capacity of the largest tail it will ever hold.
    for b in 0..64 {
        let events = batch(b);
        logged.on_batch(&events).expect("valid stream");
        unlogged.on_batch(&events).expect("valid stream");
    }
    for b in 64..128 {
        let events = batch(b);
        let with_log = allocations_during(|| drop(logged.on_batch(&events)));
        let without = allocations_during(|| drop(unlogged.on_batch(&events)));
        assert_eq!(with_log, without, "batch {b}: the log allocated");
    }
    assert!(wal.take_error().is_none());
    drop((logged, wal));
    std::fs::remove_dir_all(dir).expect("cleanup");
}

#[test]
fn recovery_holds_a_few_segments_not_the_history() {
    let segment_bytes = 64 * 1024;
    let dir = temp_dir("bounded");
    let config = WalConfig {
        max_segment_bytes: segment_bytes,
        ..WalConfig::default()
    };
    let wal = Wal::create(&dir, config.clone()).expect("log dir");
    let mut logged = engine(Some(&wal), 5);
    // Eight 8 KiB batch records fill a segment.
    let batches: Vec<Vec<StreamEvent>> = (0..8 * 64).map(batch).collect();
    for events in &batches {
        logged.on_batch(events).expect("valid stream");
    }
    assert!(wal.take_error().is_none());
    drop((logged, wal));
    let segments = std::fs::read_dir(&dir).expect("log dir").count();
    assert!(segments >= 64, "{segments} segments");

    // The engine's own footprint: the same stream through an engine with no log.
    let (engine_peak, _) = peak_during(|| {
        let mut engine = engine(None, 5);
        for events in &batches {
            engine.on_batch(events).expect("valid stream");
        }
        engine
    });
    let (recovery_peak, recovered) =
        peak_during(|| recover::<ShardedDetector>(&dir, config).expect("recoverable"));
    assert_eq!(recovered.records_replayed, 1 + batches.len() as u64);
    let bound = engine_peak + 4 * segment_bytes as usize;
    assert!(
        recovery_peak <= bound,
        "recovering {segments} segments of {segment_bytes} bytes peaked at {recovery_peak} \
         bytes; an engine alone peaks at {engine_peak}"
    );
    drop(recovered);
    std::fs::remove_dir_all(dir).expect("cleanup");
}
