//! The engine surface: what a write-ahead log, a recovery routine or a test harness
//! needs from "something that detects", written once.
//!
//! There are two engines. A [`crate::ShardedDetector`] matches **one** totally ordered
//! stream; a [`crate::TenantPool`] demuxes **many** independent streams onto per-tenant
//! `ShardedDetector`s. Both own their shards outright (share-nothing), so both are the
//! place where inputs are logged, lifecycle events traced and faults injected — once,
//! above the per-shard [`crate::Detector`]s, which only match.
//!
//! [`Engine`] is that common surface: build from a shape, register / deregister,
//! feed batches, flush, report and restore visibility floors, take a durability sink.
//! `durable::Wal::attach`, `Wal::snapshot` and `durable::recover` are generic over it.
//! The impls forward to the engines' inherent methods, which stay the calls to make
//! when the engine type is known.

use crate::detector::{CompiledQuery, QueryId, Registration};
use crate::durability::DurabilitySink;
use crate::error::{DeregisterError, RegisterError};
use crate::shard::LabelPairStats;
use tgraph::TenantId;

/// A detection engine: the unit that is logged, snapshotted, recovered, traced and
/// fault-injected. See the module docs.
pub trait Engine: Sized {
    /// What the engine ingests: [`tgraph::StreamEvent`] for one stream,
    /// [`tgraph::TenantedEvent`] for many.
    type Event: Copy + 'static;
    /// What it emits, totally ordered so result sets compare as multisets.
    type Detection: Copy + Ord + std::fmt::Debug;
    /// A batch rejected part-way; carries the detections of everything processed.
    type BatchError: std::error::Error;

    /// An empty engine of `shape` — `(tenant groups, query shards per stream)` —
    /// placing queries by `stats`. Building from another engine's
    /// [`Engine::shape`] and [`Engine::stats`] reproduces its query placement, which is
    /// what lets recovery replay registrations onto the same shards.
    ///
    /// # Panics
    /// Panics if either count is zero, or if a single-stream engine is asked for more
    /// than one group.
    fn build(shape: (usize, usize), stats: LabelPairStats) -> Self;
    /// `(tenant groups, query shards per stream)`; one group for a single stream.
    fn shape(&self) -> (usize, usize);
    /// The label-pair statistics the engine places queries by.
    fn stats(&self) -> &LabelPairStats;

    /// Registers `query` to match within `window` timestamp units.
    fn register(
        &mut self,
        query: CompiledQuery,
        window: u64,
    ) -> Result<Registration, RegisterError>;
    /// Deregisters a query; its in-flight partial matches are dropped.
    fn deregister(&mut self, query: QueryId) -> Result<(), DeregisterError>;
    /// Processes a batch; detections come back in the engine's global order.
    fn on_batch(
        &mut self,
        events: &[Self::Event],
    ) -> Result<Vec<Self::Detection>, Self::BatchError>;
    /// Declares every stream finished and returns the trailing detections.
    fn flush(&mut self) -> Vec<Self::Detection>;
    /// Flushes and evicts one tenant's stream, returning its trailing detections. A
    /// single-stream engine has no tenant to evict, hence the default.
    fn quiesce(&mut self, _tenant: TenantId) -> Vec<Self::Detection> {
        Vec::new()
    }

    /// Per-stream, per-shard visibility floors (tenant 0 for a single stream) — the
    /// one piece of state replaying a horizon-pruned history cannot re-derive.
    fn visible_floors(&self) -> Vec<(TenantId, Vec<u64>)>;
    /// Restores floors reported by [`Engine::visible_floors`] in a previous process.
    /// Floors only ratchet upwards.
    ///
    /// # Panics
    /// Panics if an entry does not have one floor per shard.
    fn restore_visible_floors(&mut self, floors: &[(TenantId, Vec<u64>)]);

    /// Attaches (or with `None` detaches) the sink every later input is reported to.
    fn set_durability(&mut self, sink: Option<Box<dyn DurabilitySink>>);
}
