//! # obs — observability substrate
//!
//! Hand-rolled, zero-dependency instrumentation for the streaming detection engine
//! (this environment is offline; no `prometheus`/`tracing`/`serde` are available, and
//! none are needed for the job):
//!
//! * [`metrics`] — a [`MetricsRegistry`] of atomic [`Counter`]s (saturating),
//!   [`Gauge`]s (with high-water tracking), and fixed-bucket log-scale [`Histogram`]s
//!   whose snapshots estimate p50/p95/p99 within a factor-of-two error bound.
//!   Handles are cheap `Arc`s around atomics: hot paths clone a handle once and never
//!   touch the registry (or a lock) again.
//! * [`json`] — a minimal JSON document model ([`Json`]) with a stable writer and a
//!   strict parser, enough to persist and validate machine-readable output.
//! * [`report`] — the per-shard and per-tenant-group breakdowns the engines report
//!   ([`ShardStat`], [`TenantGroupStat`]).
//! * [`profile`] — a scoped-span [`Profiler`] (thread-local span stacks, sampled
//!   timing, collapsed-stack / flamegraph text export) plus the per-query cost
//!   attribution types ([`QueryCost`], [`QueryCostReport`]) the engine fills in.
//!
//! ## Design rules
//!
//! Instrumentation must be **inert**: attaching metrics, a profiler, or cost
//! attribution may never change what a detector detects (checked by
//! `tests/instrumentation_parity.rs`), and the uninstrumented hot path pays only
//! `Option`-is-`None` branches. Lifecycle events (registrations, rebalances, log
//! rotations, quiescence) are reported by the engines' return values, accessors and
//! counters (DESIGN.md, "Lifecycle events"). All metric writers are lock-free atomics;
//! only registry lookups (construction-time) and timed-span aggregation take a lock.

pub mod json;
pub mod metrics;
pub mod profile;
pub mod report;

pub use json::{Json, JsonError};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricValue, MetricsRegistry,
    MetricsSnapshot,
};
pub use profile::{ProfileSnapshot, Profiler, QueryCost, QueryCostReport, Span, SpanStat};
pub use report::{ShardStat, TenantGroupStat};
