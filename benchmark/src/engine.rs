//! The two engine shapes the workloads drive, behind one harness-side interface.
//!
//! `ShardedDetector` takes `StreamEvent`s and `TenantPool` takes `TenantedEvent`s;
//! every pass, check and differential of this harness is otherwise identical, so the
//! passes are written once over this trait. Each method is a direct call into the
//! public API (listed in the README's pinned surface) — nothing is cached or
//! rewritten on the way.

use durable::{
    read_logged_events, read_logged_tenant_events, recover_pool, recover_sharded, DurableError,
    Recovered, Wal, WalConfig, WalRecord,
};
use obs::{MetricsRegistry, Profiler};
use std::path::{Path, PathBuf};
use stream::{
    CompiledQuery, Detection, LabelPairStats, RegisterError, Registration, ShardedDetector,
    TenantDetection, TenantPool,
};
use syscall::{StreamSource, TenantedStreamSource, TestData};
use tgraph::{StreamEvent, TenantedEvent};

/// Tenants the pool source replicates the test stream across.
pub const TENANTS: usize = 8;
/// Events taken from each tenant in turn by the round-robin interleave.
const TENANT_CHUNK: usize = 16;

pub trait Engine: Sized {
    type Event: Copy;
    type Detection: Copy + Ord + std::fmt::Debug;
    type Source;

    /// The batched replay source over `test` (for the pool: replicated across
    /// [`TENANTS`] tenants and interleaved).
    fn source(test: &TestData, batch: usize) -> Self::Source;
    fn batches(source: &Self::Source) -> std::slice::Chunks<'_, Self::Event>;
    fn event_count(source: &Self::Source) -> usize;
    /// Streams of identical content the source interleaves (1, or [`TENANTS`]).
    fn tenants() -> usize;

    /// `width` is the shard count (`ShardedDetector`) or the tenant-group count
    /// (`TenantPool`, one query shard per tenant): 1 keeps the engine on the
    /// calling thread.
    fn build(width: usize, stats: &LabelPairStats) -> Self;
    fn register(
        &mut self,
        query: CompiledQuery,
        window: u64,
    ) -> Result<Registration, RegisterError>;
    fn on_batch(&mut self, batch: &[Self::Event]) -> Result<Vec<Self::Detection>, String>;
    fn flush(&mut self) -> Vec<Self::Detection>;
    fn instrument(&mut self, registry: &MetricsRegistry);
    fn profile(&mut self, profiler: Profiler, attribution_interval: u64);

    fn attach(&mut self, wal: &Wal, stats: &LabelPairStats) -> Result<(), DurableError>;
    fn snapshot(&self, wal: &Wal) -> Result<PathBuf, DurableError>;
    fn recover(dir: &Path, config: WalConfig) -> Result<Recovered<Self>, DurableError>;
    /// The log record one delivered batch becomes.
    fn record(batch: &[Self::Event]) -> WalRecord;
    /// Decodes every logged event back out of `dir`; returns how many there were.
    fn read_log(dir: &Path) -> Result<usize, DurableError>;

    /// `(tenant, query)` of a detection (tenant 0 for the single-stream engine).
    fn key(detection: &Self::Detection) -> (u64, usize);
    /// Work split across the engine's shards or groups: `(events, detections)` each.
    fn split(&self) -> Vec<(u64, u64)>;
}

impl Engine for ShardedDetector {
    type Event = StreamEvent;
    type Detection = Detection;
    type Source = StreamSource;

    fn source(test: &TestData, batch: usize) -> StreamSource {
        StreamSource::from_test_data(test, batch)
    }
    fn batches(source: &StreamSource) -> std::slice::Chunks<'_, StreamEvent> {
        source.batches()
    }
    fn event_count(source: &StreamSource) -> usize {
        source.len()
    }
    fn tenants() -> usize {
        1
    }

    fn build(width: usize, stats: &LabelPairStats) -> Self {
        ShardedDetector::with_stats(width, stats.clone())
    }
    fn register(
        &mut self,
        query: CompiledQuery,
        window: u64,
    ) -> Result<Registration, RegisterError> {
        ShardedDetector::register(self, query, window)
    }
    #[inline]
    fn on_batch(&mut self, batch: &[StreamEvent]) -> Result<Vec<Detection>, String> {
        ShardedDetector::on_batch(self, batch).map_err(|e| e.to_string())
    }
    fn flush(&mut self) -> Vec<Detection> {
        ShardedDetector::flush(self)
    }
    fn instrument(&mut self, registry: &MetricsRegistry) {
        ShardedDetector::instrument(self, registry);
    }
    fn profile(&mut self, profiler: Profiler, attribution_interval: u64) {
        self.set_profiler(Some(profiler));
        self.enable_cost_attribution(attribution_interval);
    }

    fn attach(&mut self, wal: &Wal, stats: &LabelPairStats) -> Result<(), DurableError> {
        wal.attach_sharded(self, stats)
    }
    fn snapshot(&self, wal: &Wal) -> Result<PathBuf, DurableError> {
        wal.snapshot_sharded(self)
    }
    fn recover(dir: &Path, config: WalConfig) -> Result<Recovered<Self>, DurableError> {
        recover_sharded(dir, config)
    }
    fn record(batch: &[StreamEvent]) -> WalRecord {
        WalRecord::Batch(batch.to_vec())
    }
    fn read_log(dir: &Path) -> Result<usize, DurableError> {
        read_logged_events(dir).map(|events| events.len())
    }

    fn key(detection: &Detection) -> (u64, usize) {
        (0, detection.query)
    }
    fn split(&self) -> Vec<(u64, u64)> {
        self.shard_stats()
            .iter()
            .map(|s| (s.events, s.detections))
            .collect()
    }
}

impl Engine for TenantPool {
    type Event = TenantedEvent;
    type Detection = TenantDetection;
    type Source = TenantedStreamSource;

    fn source(test: &TestData, batch: usize) -> TenantedStreamSource {
        TenantedStreamSource::replicate_test_data(test, TENANTS, TENANT_CHUNK, batch)
    }
    fn batches(source: &TenantedStreamSource) -> std::slice::Chunks<'_, TenantedEvent> {
        source.batches()
    }
    fn event_count(source: &TenantedStreamSource) -> usize {
        source.len()
    }
    fn tenants() -> usize {
        TENANTS
    }

    fn build(width: usize, stats: &LabelPairStats) -> Self {
        TenantPool::with_stats(width, 1, stats.clone())
    }
    fn register(
        &mut self,
        query: CompiledQuery,
        window: u64,
    ) -> Result<Registration, RegisterError> {
        TenantPool::register(self, query, window)
    }
    #[inline]
    fn on_batch(&mut self, batch: &[TenantedEvent]) -> Result<Vec<TenantDetection>, String> {
        TenantPool::on_batch(self, batch).map_err(|e| e.to_string())
    }
    fn flush(&mut self) -> Vec<TenantDetection> {
        TenantPool::flush(self)
    }
    fn instrument(&mut self, registry: &MetricsRegistry) {
        TenantPool::instrument(self, registry);
    }
    fn profile(&mut self, profiler: Profiler, attribution_interval: u64) {
        self.set_profiler(Some(profiler));
        self.enable_cost_attribution(attribution_interval);
    }

    fn attach(&mut self, wal: &Wal, stats: &LabelPairStats) -> Result<(), DurableError> {
        wal.attach_pool(self, stats)
    }
    fn snapshot(&self, wal: &Wal) -> Result<PathBuf, DurableError> {
        wal.snapshot_pool(self)
    }
    fn recover(dir: &Path, config: WalConfig) -> Result<Recovered<Self>, DurableError> {
        recover_pool(dir, config)
    }
    fn record(batch: &[TenantedEvent]) -> WalRecord {
        WalRecord::TenantBatch(batch.to_vec())
    }
    fn read_log(dir: &Path) -> Result<usize, DurableError> {
        read_logged_tenant_events(dir).map(|events| events.len())
    }

    fn key(detection: &TenantDetection) -> (u64, usize) {
        (detection.tenant.0, detection.query)
    }
    fn split(&self) -> Vec<(u64, u64)> {
        self.group_stats()
            .iter()
            .map(|g| (g.events, g.detections))
            .collect()
    }
}
