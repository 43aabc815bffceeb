//! Atomic metrics: counters, gauges, and log-scale histograms behind a registry.
//!
//! ## Concurrency model
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s around atomics: cloning
//! is cheap, writes are lock-free, and the same handle may be ticked from any number
//! of threads (the sharded detector's scoped workers do). The [`MetricsRegistry`]
//! itself is only locked to *create or look up* a handle — never on the hot path.
//!
//! ## Saturation, not wrap-around
//!
//! Counters saturate at `u64::MAX` instead of wrapping: a dashboard reading a counter
//! that silently wrapped to a small number is worse than one pinned at the ceiling.
//!
//! ## Histogram buckets and percentile error
//!
//! Histograms use fixed power-of-two buckets: bucket 0 holds the value `0`, bucket
//! `i ≥ 1` holds values `v` with `2^(i-1) ≤ v < 2^i` (i.e. `i = 64 - v.leading_zeros()`).
//! A quantile estimate returns the upper bound of the bucket containing the rank
//! (clamped to the observed maximum), so for any true q-quantile `t > 0` the estimate
//! `e` satisfies `t ≤ e < 2·t` — a guaranteed factor-of-two error bound, independent
//! of the value distribution. Good enough to tell 2µs from 200µs, which is what a
//! latency trajectory needs; exact ranks would need per-value storage.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero plus one per power of two of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter. Saturates at `u64::MAX` (never wraps).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter (not registry-owned) starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        // A CAS loop instead of `fetch_add`: wrap-around on overflow would make the
        // counter lie small, which saturation exists to prevent.
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(n);
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that moves both ways, with its all-time high-water mark.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
    high_water: Arc<AtomicU64>,
}

impl Gauge {
    /// A free-standing gauge (not registry-owned) starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the current value, raising the high-water mark if exceeded.
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
        self.high_water.fetch_max(value, Ordering::Relaxed);
    }

    /// Raises the gauge to `value` only if it is higher (high-water-only update).
    pub fn raise(&self, value: u64) {
        self.value.fetch_max(value, Ordering::Relaxed);
        self.high_water.fetch_max(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The highest value ever set.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// The bucket index of a value: 0 for 0, else `floor(log2(v)) + 1`.
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The smallest value a bucket holds.
fn bucket_lower(index: usize) -> u64 {
    match index {
        0 => 0,
        i => 1u64 << (i - 1),
    }
}

/// The largest value a bucket holds.
fn bucket_upper(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A fixed-bucket log-scale histogram. See the module docs for the bucket layout and
/// the percentile error bound.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A free-standing histogram (not registry-owned) with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        // Saturating: a pinned sum beats a wrapped one (same rationale as `Counter`).
        let mut sum = self.0.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(value);
            match self
                .0
                .sum
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(observed) => sum = observed,
            }
        }
        self.0.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's state.
    ///
    /// The snapshot's `count` is derived from the bucket counts it actually read, so
    /// a snapshot is always *internally* consistent (quantiles, count and buckets
    /// agree) even when writers race it; `sum` and `max` are read after the buckets
    /// and may include observations a racing writer landed in between.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            max: self.0.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total observations (the sum of `buckets`).
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (no observations).
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Estimates the q-quantile (`0.0 ≤ q ≤ 1.0`): the upper bound of the bucket
    /// containing the rank-`ceil(q·count)` observation, clamped to the observed
    /// maximum. Returns 0 when the histogram is empty. For any true quantile `t > 0`
    /// the estimate `e` satisfies `t ≤ e < 2·t`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// The median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The arithmetic mean of observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The inclusive `(lower, upper)` value range of bucket `index`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        (bucket_lower(index), bucket_upper(index))
    }

    /// The non-empty buckets as `(lower, upper, count)` rows.
    pub fn occupied_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| (bucket_lower(index), bucket_upper(index), count))
            .collect()
    }
}

/// What kind of metric a registry name resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A saturating counter.
    Counter,
    /// A gauge with high-water tracking.
    Gauge,
    /// A log-scale histogram.
    Histogram,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> MetricKind {
        match self {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Gauge(_) => MetricKind::Gauge,
            Metric::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// A named collection of metrics. Cloning shares the underlying registry; handles
/// returned by the accessors stay live (and shared) for the registry's lifetime.
///
/// Names are dotted paths by convention (`detector.shard0.events_total`); the
/// registry itself treats them as opaque keys and snapshots them in sorted order.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind — that is a
    /// programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(counter) => counter,
            other => panic!("metric {name:?} is a {:?}, not a counter", other.kind()),
        }
    }

    /// The gauge registered under `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(gauge) => gauge,
            other => panic!("metric {name:?} is a {:?}, not a gauge", other.kind()),
        }
    }

    /// The histogram registered under `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(histogram) => histogram,
            other => panic!("metric {name:?} is a {:?}, not a histogram", other.kind()),
        }
    }

    fn get_or_insert(&self, name: &str, create: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.inner.lock().expect("metrics registry poisoned");
        metrics
            .entry(name.to_string())
            .or_insert_with(create)
            .clone()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("metrics registry poisoned").len()
    }

    /// Whether no metric has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time snapshot of every registered metric, in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            entries: metrics
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge {
                            value: g.get(),
                            high_water: g.high_water(),
                        },
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// One metric's value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value and high-water mark.
    Gauge {
        /// Current value.
        value: u64,
        /// All-time maximum.
        high_water: u64,
    },
    /// A histogram's snapshot.
    Histogram(HistogramSnapshot),
}

/// A point-in-time snapshot of a whole registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Metric name → value, in name order.
    pub entries: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// The counter value under `name`, if present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(MetricValue::Counter(value)) => Some(*value),
            _ => None,
        }
    }

    /// The gauge `(value, high_water)` under `name`, if present and a gauge.
    pub fn gauge(&self, name: &str) -> Option<(u64, u64)> {
        match self.entries.get(name) {
            Some(MetricValue::Gauge { value, high_water }) => Some((*value, *high_water)),
            _ => None,
        }
    }

    /// The histogram snapshot under `name`, if present and a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.entries.get(name) {
            Some(MetricValue::Histogram(snapshot)) => Some(snapshot),
            _ => None,
        }
    }

    /// Renders the snapshot as a JSON object: counters as numbers, gauges as
    /// `{value, high_water}`, histograms as `{count, sum, max, mean, p50, p95, p99,
    /// buckets: [[lower, upper, count], ...]}` (occupied buckets only).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(name, value)| {
                    let rendered = match value {
                        MetricValue::Counter(v) => Json::from_u64(*v),
                        MetricValue::Gauge { value, high_water } => Json::Obj(vec![
                            ("value".into(), Json::from_u64(*value)),
                            ("high_water".into(), Json::from_u64(*high_water)),
                        ]),
                        MetricValue::Histogram(h) => Json::Obj(vec![
                            ("count".into(), Json::from_u64(h.count)),
                            ("sum".into(), Json::from_u64(h.sum)),
                            ("max".into(), Json::from_u64(h.max)),
                            ("mean".into(), Json::Num(h.mean())),
                            ("p50".into(), Json::from_u64(h.p50())),
                            ("p95".into(), Json::from_u64(h.p95())),
                            ("p99".into(), Json::from_u64(h.p99())),
                            (
                                "buckets".into(),
                                Json::Arr(
                                    h.occupied_buckets()
                                        .into_iter()
                                        .map(|(lo, hi, n)| {
                                            Json::Arr(vec![
                                                Json::from_u64(lo),
                                                Json::from_u64(hi),
                                                Json::from_u64(n),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                    };
                    (name.clone(), rendered)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_saturate() {
        let counter = Counter::new();
        counter.inc();
        counter.add(41);
        assert_eq!(counter.get(), 42);
        counter.add(u64::MAX - 10);
        assert_eq!(counter.get(), u64::MAX, "saturates instead of wrapping");
        counter.inc();
        assert_eq!(counter.get(), u64::MAX, "stays pinned at the ceiling");
    }

    #[test]
    fn gauges_track_the_high_water_mark() {
        let gauge = Gauge::new();
        gauge.set(10);
        gauge.set(3);
        assert_eq!(gauge.get(), 3);
        assert_eq!(gauge.high_water(), 10);
        gauge.raise(7);
        assert_eq!(gauge.get(), 7, "raise lifts a lower value");
        gauge.raise(2);
        assert_eq!(gauge.get(), 7, "raise never lowers");
        assert_eq!(gauge.high_water(), 10);
    }

    #[test]
    fn histogram_bucket_boundaries_are_powers_of_two() {
        // Value 0 is its own bucket; bucket i >= 1 holds [2^(i-1), 2^i - 1].
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for index in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = HistogramSnapshot::bucket_bounds(index);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), index, "lower bound lands in its bucket");
            assert_eq!(bucket_index(hi), index, "upper bound lands in its bucket");
            if index > 0 {
                assert_eq!(
                    bucket_lower(index),
                    bucket_upper(index - 1).saturating_add(1),
                    "buckets tile the domain with no gaps or overlap"
                );
            }
        }
    }

    #[test]
    fn histogram_snapshot_is_exact_on_counts_and_bounded_on_quantiles() {
        let histogram = Histogram::new();
        let values: Vec<u64> = (1..=1000).collect();
        for &v in &values {
            histogram.record(v);
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 1000);
        assert_eq!(snapshot.sum, values.iter().sum::<u64>());
        assert_eq!(snapshot.max, 1000);
        assert!((snapshot.mean() - 500.5).abs() < 1e-9);
        // The factor-of-two error bound: t <= estimate < 2t for every quantile.
        for q in [0.01f64, 0.10, 0.50, 0.90, 0.95, 0.99, 1.0] {
            let rank = ((q * 1000.0).ceil() as usize).clamp(1, 1000);
            let truth = values[rank - 1];
            let estimate = snapshot.quantile(q);
            assert!(
                estimate >= truth && estimate < truth.saturating_mul(2),
                "q={q}: estimate {estimate} not within [t, 2t) of true {truth}"
            );
        }
        assert!(
            snapshot.p50() <= snapshot.p95()
                && snapshot.p95() <= snapshot.p99()
                && snapshot.p99() <= snapshot.max,
            "percentiles are monotonic and capped by the maximum"
        );
    }

    #[test]
    fn quantiles_handle_edge_shapes() {
        let empty = Histogram::new().snapshot();
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty, HistogramSnapshot::empty());

        // All-zero observations stay in bucket 0.
        let zeros = Histogram::new();
        for _ in 0..5 {
            zeros.record(0);
        }
        assert_eq!(zeros.snapshot().p99(), 0);

        // A single value: every quantile is that value (clamped to max, not the
        // bucket's upper bound).
        let single = Histogram::new();
        single.record(100);
        let snap = single.snapshot();
        assert_eq!(snap.p50(), 100);
        assert_eq!(snap.p99(), 100);
        assert_eq!(snap.occupied_buckets(), vec![(64, 127, 1)]);
    }

    #[test]
    fn snapshots_are_deterministic_under_concurrent_writers() {
        // Writers hammer one histogram + counter; every snapshot taken mid-flight must
        // be internally consistent (count == bucket sum), and after the writers join,
        // two consecutive snapshots must be identical and exact.
        let registry = MetricsRegistry::new();
        let histogram = registry.histogram("lat");
        let counter = registry.counter("events");
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 10_000;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let histogram = histogram.clone();
                let counter = counter.clone();
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        histogram.record((w as u64 + 1) * 37 + i % 1024);
                        counter.inc();
                    }
                });
            }
            for _ in 0..50 {
                let snap = histogram.snapshot();
                assert_eq!(
                    snap.count,
                    snap.buckets.iter().sum::<u64>(),
                    "mid-flight snapshot must be internally consistent"
                );
                assert!(snap.count <= WRITERS as u64 * PER_WRITER);
            }
        });
        let first = registry.snapshot();
        let second = registry.snapshot();
        assert_eq!(first, second, "quiesced snapshots are deterministic");
        assert_eq!(first.counter("events"), Some(WRITERS as u64 * PER_WRITER));
        let lat = first.histogram("lat").expect("histogram registered");
        assert_eq!(lat.count, WRITERS as u64 * PER_WRITER);
    }

    #[test]
    fn registry_shares_handles_by_name_and_rejects_kind_mismatch() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x");
        let b = registry.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(registry.snapshot().counter("x"), Some(5));
        assert_eq!(registry.len(), 1);
        let cloned = registry.clone();
        cloned.counter("x").inc();
        assert_eq!(registry.snapshot().counter("x"), Some(6), "clones share");
        let result = std::panic::catch_unwind(|| registry.gauge("x"));
        assert!(result.is_err(), "kind mismatch is a programming error");
    }

    #[test]
    fn snapshot_json_has_the_documented_shape() {
        let registry = MetricsRegistry::new();
        registry.counter("c").add(7);
        registry.gauge("g").set(3);
        registry.histogram("h").record(5);
        let json = registry.snapshot().to_json();
        assert_eq!(json.get("c").and_then(Json::as_u64), Some(7));
        assert_eq!(
            json.get("g")
                .and_then(|g| g.get("high_water"))
                .and_then(Json::as_u64),
            Some(3)
        );
        let h = json.get("h").expect("histogram entry");
        assert_eq!(h.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(h.get("p50").and_then(Json::as_u64), Some(5));
    }
}
