//! Instrumentation bundles: the metric handles a detector or pipeline ticks.
//!
//! Each bundle is created from a [`MetricsRegistry`] with a name prefix and then
//! attached through `ShardedDetector::instrument` (one bundle per shard's
//! `Detector`), `TenantPool::instrument` or `DiscoveryPipeline::instrument`. Handles are
//! `Arc`-backed atomics, so attaching a bundle costs the engine exactly one
//! `Option` branch per touch point and never takes a lock on the hot path.
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
//! With prefix `pipeline.` the [`DiscoveryPipeline`](crate::DiscoveryPipeline)
//! stages record `pipeline.{ingest,mine,compile,register,evaluate}_ns` histograms
//! plus `pipeline.traces_ingested` / `pipeline.patterns_mined` /
//! `pipeline.queries_deployed` counters, and `record_mining` exports the miner's
//! per-growth-level work as `miner.level<N>.{candidates,pruned,embeddings}`.

use obs::{Counter, Gauge, Histogram, MetricsRegistry};
use tgminer::MiningStats;

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

/// The metric handles the [`DiscoveryPipeline`](crate::DiscoveryPipeline) ticks,
/// plus the registry it exports per-growth-level mining counters into.
#[derive(Debug, Clone)]
pub struct PipelineInstruments {
    /// The registry, kept for dynamically-named per-level mining counters.
    pub registry: MetricsRegistry,
    /// Per-trace ingest latency, nanoseconds.
    pub ingest_ns: Histogram,
    /// Per-class mining latency, nanoseconds.
    pub mine_ns: Histogram,
    /// Per-class compile latency, nanoseconds.
    pub compile_ns: Histogram,
    /// Per-query hot-registration latency, nanoseconds.
    pub register_ns: Histogram,
    /// Held-out evaluation latency, nanoseconds.
    pub evaluate_ns: Histogram,
    /// Traces ingested.
    pub traces_ingested: Counter,
    /// Patterns the miner exported across classes.
    pub patterns_mined: Counter,
    /// Queries hot-registered on a detector.
    pub queries_deployed: Counter,
}

impl PipelineInstruments {
    /// Registers the pipeline metric set (fixed prefix `pipeline.`).
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            registry: registry.clone(),
            ingest_ns: registry.histogram("pipeline.ingest_ns"),
            mine_ns: registry.histogram("pipeline.mine_ns"),
            compile_ns: registry.histogram("pipeline.compile_ns"),
            register_ns: registry.histogram("pipeline.register_ns"),
            evaluate_ns: registry.histogram("pipeline.evaluate_ns"),
            traces_ingested: registry.counter("pipeline.traces_ingested"),
            patterns_mined: registry.counter("pipeline.patterns_mined"),
            queries_deployed: registry.counter("pipeline.queries_deployed"),
        }
    }

    /// Exports a mining run's work counters: the aggregate totals under `miner.*`
    /// and each growth level's frontier under
    /// `miner.level<N>.{candidates,pruned,embeddings}` — the diagnostic the
    /// query-size blowup needs (which level exploded, and how hard).
    pub fn record_mining(&self, stats: &MiningStats) {
        self.registry
            .counter("miner.patterns_processed")
            .add(stats.patterns_processed);
        self.registry
            .counter("miner.embeddings_materialized")
            .add(stats.embeddings_materialized);
        for level in &stats.levels {
            let prefix = format!("miner.level{}", level.level);
            self.registry
                .counter(&format!("{prefix}.candidates"))
                .add(level.candidates);
            self.registry
                .counter(&format!("{prefix}.pruned"))
                .add(level.pruned);
            self.registry
                .counter(&format!("{prefix}.embeddings"))
                .add(level.embeddings);
        }
    }
}
