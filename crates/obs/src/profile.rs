//! Scoped-span profiling and per-query cost attribution.
//!
//! Two complementary answers to "where does the time go":
//!
//! * [`Profiler`] — a zero-dependency scoped-span profiler. Code brackets a region
//!   with [`Profiler::enter`]; the returned RAII guard pushes the span name onto a
//!   **thread-local span stack**, times the region, and on drop folds the elapsed
//!   nanoseconds into an aggregate keyed by the *collapsed path* (`a;b;c` — the
//!   stack at record time). [`ProfileSnapshot::render_collapsed`] emits the
//!   aggregate in the standard collapsed-stack text format
//!   (`path self_weight` lines, weights in nanoseconds), which flamegraph tooling
//!   consumes directly (`flamegraph.pl --countname=ns collapsed.txt`).
//! * [`QueryCost`] / [`QueryCostReport`] — per-query cost attribution: exact work
//!   counters (runs spawned, run advances, runs dropped, detections) plus *sampled*
//!   wall time, as recorded by the streaming detector when cost attribution is
//!   enabled. The report is the measured ground truth next to the engine's
//!   a-priori label-pair cost estimate.
//!
//! ## Sampling and the inertness contract
//!
//! Profiling must never change results and must stay within the engine's <5%
//! observability overhead budget. Timing is therefore **sampled at the root**: a
//! [`Profiler`] built with [`Profiler::sampled`]`(n)` times one root span in `n`
//! (child spans of an untimed root are suppressed entirely and cost only a
//! thread-local flag check). Every timed span contributes at least 1ns, so any
//! recorded activity produces non-empty collapsed output.
//!
//! ## Threading
//!
//! A [`Profiler`] is a cheap-clone `Arc` handle; clones share one aggregate. Span
//! stacks are thread-local, so concurrent threads never see each other's frames —
//! each thread's spans nest into that thread's own path. Aggregation takes a mutex
//! only when a *timed* span closes (sampled-out spans never lock).

use crate::metrics::MetricsRegistry;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    /// The collapsed path (`a;b;c`) of the timed spans currently open on this thread.
    static PATH: RefCell<String> = const { RefCell::new(String::new()) };
    /// Whether a sampled-out root span is open on this thread (its children are
    /// suppressed without touching the path or the clock).
    static SUPPRESSED: Cell<bool> = const { Cell::new(false) };
}

/// Aggregate statistics for one collapsed span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Timed entries recorded for this path.
    pub count: u64,
    /// Total nanoseconds across timed entries (saturating; each entry ≥ 1ns).
    pub total_ns: u64,
    /// Longest single timed entry, nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }
}

#[derive(Debug)]
struct ProfilerInner {
    spans: Mutex<BTreeMap<String, SpanStat>>,
    /// One root span in this many is timed (1 = every root).
    interval: u64,
    /// Root-span counter driving the sampling decision (shared across threads, so
    /// the overall sampling rate holds even with many worker threads).
    tick: AtomicU64,
}

/// A scoped-span profiler handle. See the module docs for the model; cloning is an
/// `Arc` clone and shares the aggregate.
#[derive(Debug, Clone)]
pub struct Profiler {
    inner: Arc<ProfilerInner>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// A profiler that times every root span.
    pub fn new() -> Self {
        Self::sampled(1)
    }

    /// A profiler that times one root span in `interval` (0 is treated as 1).
    /// Sampled-out roots suppress their whole subtree at the cost of a
    /// thread-local flag check per span.
    pub fn sampled(interval: u64) -> Self {
        Self {
            inner: Arc::new(ProfilerInner {
                spans: Mutex::new(BTreeMap::new()),
                interval: interval.max(1),
                tick: AtomicU64::new(0),
            }),
        }
    }

    /// The root-span sampling interval.
    pub fn sample_interval(&self) -> u64 {
        self.inner.interval
    }

    /// Opens a span named `name` (no `;`, which delimits collapsed paths). The
    /// span closes — and records, if its root was sampled — when the returned
    /// guard drops. Spans opened while the guard lives become its children.
    #[must_use = "the span records when this guard drops"]
    pub fn enter(&self, name: &'static str) -> Span {
        debug_assert!(!name.contains(';'), "span names must not contain ';'");
        if SUPPRESSED.get() {
            // Inside a sampled-out root: nothing to time, nothing to restore.
            return Span(SpanState::Noop);
        }
        let is_root = PATH.with_borrow(|p| p.is_empty());
        if is_root {
            let tick = self.inner.tick.fetch_add(1, Ordering::Relaxed);
            if !tick.is_multiple_of(self.inner.interval) {
                SUPPRESSED.set(true);
                return Span(SpanState::SuppressedRoot);
            }
        }
        let truncate_to = PATH.with_borrow_mut(|p| {
            let len = p.len();
            if !p.is_empty() {
                p.push(';');
            }
            p.push_str(name);
            len
        });
        Span(SpanState::Timed {
            profiler: Arc::clone(&self.inner),
            truncate_to,
            start: Instant::now(),
        })
    }

    /// A point-in-time copy of the aggregate (paths, counts, total/max ns).
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            spans: self
                .inner
                .spans
                .lock()
                .expect("profiler aggregate poisoned")
                .clone(),
            sample_interval: self.inner.interval,
        }
    }
}

#[derive(Debug)]
enum SpanState {
    /// A timed span: pops its frame and records on drop.
    Timed {
        profiler: Arc<ProfilerInner>,
        /// Thread-local path length to truncate back to.
        truncate_to: usize,
        start: Instant,
    },
    /// A sampled-out root: clears the suppression flag on drop.
    SuppressedRoot,
    /// A span inside a sampled-out tree: nothing to do.
    Noop,
}

/// RAII guard returned by [`Profiler::enter`]; thread-bound (span stacks are
/// thread-local), closes its span on drop.
#[derive(Debug)]
#[must_use = "the span records when this guard drops"]
pub struct Span(SpanState);

impl Drop for Span {
    fn drop(&mut self) {
        match &self.0 {
            SpanState::Noop => {}
            SpanState::SuppressedRoot => SUPPRESSED.set(false),
            SpanState::Timed {
                profiler,
                truncate_to,
                start,
            } => {
                // Floor at 1ns: a timed span that beat the clock's granularity still
                // contributes weight, so recorded activity renders non-empty.
                let ns = (start.elapsed().as_nanos() as u64).max(1);
                let path = PATH.with_borrow_mut(|p| {
                    let full = p.clone();
                    p.truncate(*truncate_to);
                    full
                });
                profiler
                    .spans
                    .lock()
                    .expect("profiler aggregate poisoned")
                    .entry(path)
                    .or_default()
                    .record(ns);
            }
        }
    }
}

/// A point-in-time copy of a [`Profiler`]'s aggregate.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileSnapshot {
    /// Collapsed path (`a;b;c`) → aggregate, in path order.
    pub spans: BTreeMap<String, SpanStat>,
    /// The profiler's root sampling interval (timings represent ~1/interval of
    /// the real activity).
    pub sample_interval: u64,
}

impl ProfileSnapshot {
    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// A path's *self* time: its total minus its direct children's totals (the
    /// flamegraph weight), clamped at zero against clock jitter.
    pub fn self_ns(&self, path: &str) -> u64 {
        let Some(stat) = self.spans.get(path) else {
            return 0;
        };
        let prefix = format!("{path};");
        let child_ns: u64 = self
            .spans
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix) && !k[prefix.len()..].contains(';'))
            .map(|(_, s)| s.total_ns)
            .sum();
        stat.total_ns.saturating_sub(child_ns)
    }

    /// Renders the aggregate in collapsed-stack text format: one `path weight`
    /// line per path with non-zero self time, weights in nanoseconds, paths in
    /// sorted order (deterministic for a given snapshot). Feed the output to any
    /// flamegraph renderer (`flamegraph.pl --countname=ns`).
    pub fn render_collapsed(&self) -> String {
        let mut out = String::new();
        for path in self.spans.keys() {
            let self_ns = self.self_ns(path);
            if self_ns > 0 {
                out.push_str(path);
                out.push(' ');
                out.push_str(&self_ns.to_string());
                out.push('\n');
            }
        }
        out
    }
}

/// Per-query attributed cost, as measured by a detector with cost attribution
/// enabled. Counters are exact; `sampled_*` fields come from the 1-in-N timed
/// events (estimated total ≈ `sampled_ns × interval`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Runs / anchors / keyword windows spawned for this query.
    pub spawned: u64,
    /// Partial-match advances and anchor resolutions executed: one per live run or
    /// keyword window actually *offered* an event (the engine offers an event only to
    /// the runs of queries whose advance index names its labels — a run it is routed
    /// past, or one that merely expires, is not an advance), one per anchor resolved.
    pub advanced: u64,
    /// Runs dropped without completing (window expiry or stream end).
    pub dropped: u64,
    /// Detections the query emitted.
    pub detections: u64,
    /// Wall-clock nanoseconds measured on sampled operations (saturating).
    pub sampled_ns: u64,
    /// Number of sampled (clock-timed) operations contributing to `sampled_ns`.
    pub sampled_ops: u64,
}

impl QueryCost {
    /// Deterministic work units: seed spawns plus run advances. This is the
    /// measured analogue of the label-pair cost estimate — proportional to how
    /// often the engine actually touched the query (runs it skipped cost nothing and
    /// count nothing), independent of clock noise.
    pub fn cost_units(&self) -> u64 {
        self.spawned.saturating_add(self.advanced)
    }

    /// Whether nothing was ever attributed to the query.
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }

    /// Folds another cost record into this one (field-wise saturating sums).
    pub fn merge(&mut self, other: &QueryCost) {
        self.spawned = self.spawned.saturating_add(other.spawned);
        self.advanced = self.advanced.saturating_add(other.advanced);
        self.dropped = self.dropped.saturating_add(other.dropped);
        self.detections = self.detections.saturating_add(other.detections);
        self.sampled_ns = self.sampled_ns.saturating_add(other.sampled_ns);
        self.sampled_ops = self.sampled_ops.saturating_add(other.sampled_ops);
    }
}

/// Measured per-query costs, keyed by the engine's global query ids — the output
/// of `ShardedDetector::query_cost_report` / `TenantPool::query_cost_report`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryCostReport {
    /// `(global query id, cost)` rows in ascending id order. Every query ever
    /// registered gets a row (a never-touched query reports all-zero cost).
    pub rows: Vec<(usize, QueryCost)>,
    /// The event-sampling interval timings were taken at (estimated total wall
    /// time per query ≈ `sampled_ns × sample_interval`).
    pub sample_interval: u64,
}

impl QueryCostReport {
    /// The cost row for `query`, if the id was ever registered.
    pub fn get(&self, query: usize) -> Option<&QueryCost> {
        self.rows
            .binary_search_by_key(&query, |(id, _)| *id)
            .ok()
            .map(|i| &self.rows[i].1)
    }

    /// Exports every row as `query.<id>.{spawned,advanced,dropped,detections,
    /// sampled_ns,sampled_ops}` counters. Counters are brought *up to* the
    /// report's totals (delta-add), so re-exporting a newer report of the same
    /// run is idempotent rather than double-counting.
    pub fn export(&self, registry: &MetricsRegistry) {
        for (id, cost) in &self.rows {
            for (field, value) in [
                ("spawned", cost.spawned),
                ("advanced", cost.advanced),
                ("dropped", cost.dropped),
                ("detections", cost.detections),
                ("sampled_ns", cost.sampled_ns),
                ("sampled_ops", cost.sampled_ops),
            ] {
                let counter = registry.counter(&format!("query.{id}.{field}"));
                counter.add(value.saturating_sub(counter.get()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_produce_collapsed_paths_with_self_time() {
        let profiler = Profiler::new();
        {
            let _root = profiler.enter("root");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _child = profiler.enter("child");
                std::thread::sleep(std::time::Duration::from_millis(2));
                let _grand = profiler.enter("leaf");
            }
            let _sibling = profiler.enter("sibling");
        }
        let snap = profiler.snapshot();
        let paths: Vec<&str> = snap.spans.keys().map(String::as_str).collect();
        assert_eq!(
            paths,
            vec!["root", "root;child", "root;child;leaf", "root;sibling"]
        );
        let root = snap.spans["root"];
        let child = snap.spans["root;child"];
        assert!(
            root.total_ns >= child.total_ns,
            "parent includes child time"
        );
        // Self time subtracts direct children only; root's slept ~2ms itself.
        assert!(snap.self_ns("root") >= 1_000_000);
        assert!(snap.self_ns("root") <= root.total_ns);
        assert_eq!(
            snap.self_ns("root;child;leaf"),
            snap.spans["root;child;leaf"].total_ns,
            "leaves keep their full time"
        );
    }

    #[test]
    fn collapsed_rendering_is_deterministic_and_flamegraph_shaped() {
        let profiler = Profiler::new();
        for _ in 0..3 {
            let _a = profiler.enter("batch");
            let _b = profiler.enter("advance");
        }
        let snap = profiler.snapshot();
        let first = snap.render_collapsed();
        let second = snap.render_collapsed();
        assert_eq!(first, second, "same snapshot renders identically");
        assert_eq!(snap.snapshot_lines(), profiler.snapshot().snapshot_lines());
        for line in first.lines() {
            let (path, weight) = line.rsplit_once(' ').expect("`path weight` shape");
            assert!(!path.is_empty());
            assert!(weight.parse::<u64>().expect("numeric weight") > 0);
        }
        assert!(first.contains("batch;advance "));
    }

    #[test]
    fn sampling_suppresses_whole_subtrees() {
        let profiler = Profiler::sampled(4);
        for _ in 0..16 {
            let _root = profiler.enter("tick");
            let _child = profiler.enter("work");
        }
        let snap = profiler.snapshot();
        assert_eq!(snap.sample_interval, 4);
        assert_eq!(snap.spans["tick"].count, 4, "1-in-4 roots are timed");
        assert_eq!(
            snap.spans["tick;work"].count, 4,
            "children follow their root's sampling decision exactly"
        );
    }

    #[test]
    fn concurrent_threads_keep_their_own_span_stacks() {
        let profiler = Profiler::new();
        std::thread::scope(|scope| {
            for name in [("alpha", "a-inner"), ("beta", "b-inner")] {
                let profiler = profiler.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        let _outer = profiler.enter(name.0);
                        let _inner = profiler.enter(name.1);
                    }
                });
            }
        });
        let snap = profiler.snapshot();
        let paths: Vec<&str> = snap.spans.keys().map(String::as_str).collect();
        assert_eq!(
            paths,
            vec!["alpha", "alpha;a-inner", "beta", "beta;b-inner"],
            "no cross-thread frame ever leaks into another thread's path"
        );
        assert_eq!(snap.spans["alpha;a-inner"].count, 100);
        assert_eq!(snap.spans["beta;b-inner"].count, 100);
    }

    #[test]
    fn query_cost_units_and_merge() {
        let mut a = QueryCost {
            spawned: 2,
            advanced: 10,
            dropped: 1,
            detections: 3,
            sampled_ns: 500,
            sampled_ops: 2,
        };
        assert_eq!(a.cost_units(), 12);
        assert!(!a.is_zero());
        assert!(QueryCost::default().is_zero());
        let b = a;
        a.merge(&b);
        assert_eq!(a.spawned, 4);
        assert_eq!(a.sampled_ns, 1000);
        assert_eq!(a.cost_units(), 24);
    }

    #[test]
    fn cost_report_lookup_and_idempotent_export() {
        let report = QueryCostReport {
            rows: vec![
                (
                    0,
                    QueryCost {
                        spawned: 5,
                        advanced: 7,
                        detections: 2,
                        ..QueryCost::default()
                    },
                ),
                (2, QueryCost::default()),
            ],
            sample_interval: 16,
        };
        assert_eq!(report.get(0).unwrap().spawned, 5);
        assert!(report.get(1).is_none());
        assert!(report.get(2).unwrap().is_zero());

        let registry = MetricsRegistry::new();
        report.export(&registry);
        report.export(&registry); // idempotent: delta-add, not double-count
        let snap = registry.snapshot();
        assert_eq!(snap.counter("query.0.spawned"), Some(5));
        assert_eq!(snap.counter("query.0.advanced"), Some(7));
        assert_eq!(snap.counter("query.2.detections"), Some(0));
    }

    impl ProfileSnapshot {
        /// Test helper: the collapsed paths only (weights are clock-dependent).
        fn snapshot_lines(&self) -> Vec<String> {
            self.render_collapsed()
                .lines()
                .map(|l| l.rsplit_once(' ').expect("path weight").0.to_string())
                .collect()
        }
    }
}
