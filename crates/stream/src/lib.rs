//! # stream — online streaming detection engine
//!
//! The batch pipeline of this reproduction mines behavior queries offline and searches
//! them in a fully materialised monitoring graph. A production monitoring deployment
//! instead watches a *live stream* of system events and must flag behavior instances as
//! they happen. This crate provides that execution model:
//!
//! * [`CompiledQuery`] — a registered behavior query: a temporal pattern (TGMiner), a
//!   non-temporal pattern (`Ntemp`), or a keyword label set (`NodeSet`);
//! * [`Detector`] — the single-threaded matching core: queries are registered (each
//!   with its match window), events arrive one at a time or in batches, and detections
//!   are emitted as `(query, start_ts, end_ts)` intervals. It matches and nothing else;
//! * [`ShardedDetector`] — the engine for **one** stream: registered queries are
//!   partitioned over N `Detector` shards (balanced by first-edge label-pair posting
//!   frequency, [`LabelPairStats`]), each batch fans out to all shards, and per-shard
//!   detections merge back into global timestamp order. One shard is the plain
//!   single-threaded configuration;
//! * [`QueryTable`] — the registered-query state (queries, windows, the label indexes
//!   that route an event to the queries it can seed or advance, and each query's queue
//!   of in-flight runs) a `Detector` owns; it is the unit the sharded engine
//!   partitions;
//! * [`TenantPool`] — the engine for **many** streams, the *second* sharding axis: a
//!   demux front-end routing an interleaved multi-tenant stream
//!   ([`tgraph::TenantedEvent`]) to per-tenant `ShardedDetector`s grouped into hashed
//!   tenant-groups. Every tenant owns its own incremental graph, retention window, and
//!   `visible_from`, while all tenants share one compiled query set; composed with
//!   query-sharding the engine forms a 2-D grid, queries × tenant-groups;
//! * [`Engine`] — what the two engines have in common, as a trait: the unit that is
//!   logged, snapshotted and recovered (the `durable` crate is generic over it), traced
//!   and fault-injected — once, above the shards it owns;
//! * [`discovery`] — the mine→detect loop closed online: what `query` formulates from
//!   a training set ([`query::formulate_temporal`], [`query::compile()`]) is
//!   hot-registered on a running [`ShardedDetector`] ([`deploy_class`], [`deploy_all`],
//!   [`retire_deployed`]) and scored per class on held-out streams
//!   ([`score_deployed`], [`evaluate_split`]);
//! * the temporal substrate lives in [`tgraph::IncrementalGraph`], and the per-edge
//!   advance logic is shared with the offline search through [`query::matcher`].
//!
//! ## Error contracts
//!
//! Registration rejects zero windows and trivially-empty queries with a typed
//! [`RegisterError`], and reports (via [`Registration::visible_from`]) how far back a
//! mid-stream registration can actually see. Deregistration ([`Detector::deregister`],
//! [`ShardedDetector::deregister`]) drops the query's in-flight partial matches, leaves
//! every other query untouched, never reuses ids, and fails a stale or repeated id with
//! a typed [`DeregisterError`]. A batch that fails mid-way returns a
//! [`BatchError`] carrying the detections the valid prefix already produced — they are
//! real detections and are never dropped on the error path.
//!
//! ## Consistency guarantee
//!
//! Replaying a monitoring graph's edges through a [`Detector`] — or a
//! [`ShardedDetector`] with any shard count — yields, per query, exactly the intervals
//! the offline functions [`query::search_temporal`], [`query::search_static`] and
//! [`query::search_nodeset`] return on that graph (order may differ — streaming emits
//! at completion time, offline in anchor order). This holds by construction: both sides
//! drive the same state machines over the same edge order, and sharding partitions
//! queries, never the stream. `tests/stream_parity.rs` at the workspace root checks it
//! property-style on random graphs and on generated `syscall` datasets, sweeping batch
//! sizes and shard counts.
//!
//! The multi-tenant layer adds the **tenant-parity law**: for every tenant T and every
//! demux configuration (group count, shards per group, interleaving), the detections a
//! [`TenantPool`] reports for T are identical to running T's events alone through a
//! single [`Detector`] — per-tenant state is fully isolated, and the shared query set
//! replays identically on every tenant. `tests/tenant_parity.rs` enforces it
//! property-style over random interleavings.
//!
//! ## Observability
//!
//! Both engines accept the `obs` crate's inert instrumentation and hand it down to
//! what they own: metric bundles ([`instrument`]), a structured trace sink, a
//! scoped-span profiler (`set_profiler`; spans aggregate into a collapsed-stack /
//! flamegraph export), and sampled per-query cost attribution
//! (`enable_cost_attribution` / `query_cost_report`). None of it may change
//! detections — `tests/instrumentation_parity.rs` holds the whole surface to
//! byte-identical output.

pub mod detector;
pub mod discovery;
pub mod durability;
pub mod engine;
pub mod error;
pub mod instrument;
pub mod registry;
pub mod shard;
pub mod tenant;

pub use detector::{CompiledQuery, Detection, Detector, QueryId, Registration, SeedKey};
pub use discovery::{
    deploy_all, deploy_class, evaluate_split, retire_deployed, score_deployed, ClassAccuracy,
    DeployedQuery,
};
pub use durability::DurabilitySink;
pub use engine::Engine;
pub use error::{BatchError, DeregisterError, RegisterError, TenantBatchError};
pub use instrument::DetectorInstruments;
pub use registry::{QueryTable, Registered};
pub use shard::{LabelPairStats, ShardedDetector};
pub use tenant::{PoisonPolicy, QuarantinedEvent, QuiescencePolicy, TenantDetection, TenantPool};
