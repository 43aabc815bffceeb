//! The instrumentation bundle: the metric handles a detector ticks.
//!
//! A bundle is created from a [`MetricsRegistry`] with a name prefix and then
//! attached through `ShardedDetector::instrument` (one bundle per shard's
//! `Detector`) or `TenantPool::instrument`. Handles are `Arc`-backed atomics, so
//! attaching a bundle costs the engine exactly one `Option` branch per touch point
//! and never takes a lock on the hot path.
//!
//! Attaching instruments is **inert** by contract: detections are byte-identical
//! with and without them (`tests/instrumentation_parity.rs` in this crate proves
//! it across shard counts).
//!
//! ## Metric names
//!
//! With prefix `P` (e.g. `detector.` or `detector.shard0.`):
//!
//! | name                    | kind      | meaning                                     |
//! |-------------------------|-----------|---------------------------------------------|
//! | `P events_total`        | counter   | events ingested                             |
//! | `P detections_total`    | counter   | detections emitted                          |
//! | `P batches_total`       | counter   | batches processed                           |
//! | `P batch_errors_total`  | counter   | batches aborted mid-way                     |
//! | `P event_latency_ns`    | histogram | per-event processing latency                |
//! | `P batch_latency_ns`    | histogram | per-batch processing latency                |
//! | `P temporal_runs`       | gauge     | live temporal partial-match runs            |
//! | `P nodeset_runs`        | gauge     | live keyword windows                        |
//! | `P pending_static`      | gauge     | `Ntemp` anchors awaiting window close       |
//! | `P retained_edges`      | gauge     | live edges in the retention window          |
//! | `P memory_bytes`        | gauge     | estimated run-state + window memory         |
//!
//! The gauges' high-water marks give the run's peaks (memory high-water,
//! run-table occupancy peaks) for free.
//!
//! With cost attribution enabled (`enable_cost_attribution` on either engine),
//! exporting the resulting [`QueryCostReport`](obs::QueryCostReport) publishes
//! per-query counters — with global query id `q`:
//!
//! | name                     | kind    | meaning                                   |
//! |--------------------------|---------|-------------------------------------------|
//! | `query.<q>.spawned`      | counter | partial-match runs seeded for the query   |
//! | `query.<q>.advanced`     | counter | runs offered an event + anchors resolved  |
//! | `query.<q>.dropped`      | counter | runs expired or discarded unfinished      |
//! | `query.<q>.detections`   | counter | detections attributed to the query        |
//! | `query.<q>.sampled_ns`   | counter | wall time of the *sampled* operations     |
//! | `query.<q>.sampled_ops`  | counter | how many operations were clock-sampled    |
//!
//! (estimated total per-query wall time ≈ `sampled_ns × sample_interval`).
//!
//! The multi-tenant pool adds group-level series — with group index `g`,
//! `tenant.group<g>.events_total` / `tenant.group<g>.detections_total` (counters)
//! and `tenant.group<g>.tenants` (gauge) — ticked by the pool itself, one set per
//! tenant-group regardless of tenant churn (see
//! [`TenantPool::instrument`](crate::TenantPool::instrument) for the table).
//!
//! Mining is not instrumented from here: a run's per-growth-level counters are in
//! its result, `tgminer::MiningResult::stats.levels`.

use obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// The metric handles one [`Detector`](crate::Detector) ticks.
#[derive(Debug, Clone)]
pub struct DetectorInstruments {
    /// Events ingested.
    pub events_total: Counter,
    /// Detections emitted.
    pub detections_total: Counter,
    /// Batches processed (successfully or not).
    pub batches_total: Counter,
    /// Batches aborted mid-way on an invalid event.
    pub batch_errors_total: Counter,
    /// Per-event processing latency, nanoseconds.
    pub event_latency_ns: Histogram,
    /// Per-batch processing latency, nanoseconds.
    pub batch_latency_ns: Histogram,
    /// Live temporal partial-match runs (high-water = peak occupancy).
    pub temporal_runs: Gauge,
    /// Live keyword windows.
    pub nodeset_runs: Gauge,
    /// Pending `Ntemp` anchors.
    pub pending_static: Gauge,
    /// Live edges in the retention window (high-water = peak).
    pub retained_edges: Gauge,
    /// Estimated memory footprint of run state + buffered window, bytes
    /// (high-water = memory peak).
    pub memory_bytes: Gauge,
}

impl DetectorInstruments {
    /// Registers the detector metric set under `prefix` (e.g. `"detector."`).
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> Self {
        Self {
            events_total: registry.counter(&format!("{prefix}events_total")),
            detections_total: registry.counter(&format!("{prefix}detections_total")),
            batches_total: registry.counter(&format!("{prefix}batches_total")),
            batch_errors_total: registry.counter(&format!("{prefix}batch_errors_total")),
            event_latency_ns: registry.histogram(&format!("{prefix}event_latency_ns")),
            batch_latency_ns: registry.histogram(&format!("{prefix}batch_latency_ns")),
            temporal_runs: registry.gauge(&format!("{prefix}temporal_runs")),
            nodeset_runs: registry.gauge(&format!("{prefix}nodeset_runs")),
            pending_static: registry.gauge(&format!("{prefix}pending_static")),
            retained_edges: registry.gauge(&format!("{prefix}retained_edges")),
            memory_bytes: registry.gauge(&format!("{prefix}memory_bytes")),
        }
    }
}
