//! Durability for the streaming engines: a write-ahead event log, periodic
//! snapshots, and crash recovery with detection parity.
//!
//! The engines in [`stream`] are deterministic functions of their inputs — the
//! registration sequence and the delivered event batches. So instead of serializing
//! live matcher state (partial temporal runs, open static anchors, keyword windows),
//! this crate logs the *inputs*, checksummed and length-prefixed, before the engine
//! applies them. Recovery is then load-snapshot-then-replay-suffix through the
//! ordinary engine API, and the recovered engine detects the rest of the stream
//! exactly as the uninterrupted one would have.
//!
//! There is one log surface for both engines — [`stream::ShardedDetector`] (one
//! stream; one shard is the plain configuration) and
//! [`stream::TenantPool`] (many streams): [`Wal::attach`], [`Wal::snapshot`],
//! [`recover`] and [`recover_tolerant`] are generic over [`stream::Engine`].
//!
//! ```no_run
//! use durable::{recover, Wal, WalConfig};
//! use stream::ShardedDetector;
//!
//! // Live: attach the log before registering queries or feeding events.
//! let wal = Wal::create("/var/lib/tgminer/wal", WalConfig::default())?;
//! let mut detector = ShardedDetector::new(1);
//! wal.attach(&mut detector)?;
//! // ... register queries, feed batches, occasionally wal.snapshot(&detector) ...
//!
//! // After a crash: rebuild (shard count and placement come from the log) and go on.
//! let recovered = recover::<ShardedDetector>("/var/lib/tgminer/wal", WalConfig::default())?;
//! let mut detector = recovered.engine;
//! # detector.flush();
//! # Ok::<(), durable::DurableError>(())
//! ```
//!
//! Segments are append-only and never extended after a restart (a fresh segment is
//! opened instead), so torn bytes from a crash can never swallow later records. Old
//! segments are kept by default; [`read_logged_events`] / [`read_logged_tenant_events`]
//! turn them back into replayable streams for time-travel debugging, and an opt-in
//! [`SnapshotPolicy`] with GC trades that history for bounded disk use.
//!
//! The log is also self-healing and chaos-testable: [`SyncPolicy`] controls fsync
//! cadence, [`RetryPolicy`] bounds retry-with-backoff on transient I/O errors
//! before the log enters a sticky typed degraded mode ([`wal::WalStatus`]), and
//! [`Wal::set_fault_plan`] arms a deterministic [`faults::FaultPlan`] on every I/O
//! site (`wal.append`, `wal.fsync`, `wal.rotate`, `snapshot.write`).

pub mod codec;
pub mod crc32;
pub mod error;
pub mod record;
pub mod recover;
pub mod segment;
mod snapshot;
pub mod wal;

pub use error::{DurableError, WalDamage};
pub use record::{EngineKind, InitRecord, SnapshotHeader, WalRecord};
pub use recover::{
    recover, recover_pool, recover_sharded, recover_tolerant, Recovered, RecoveredRegistration,
};
pub use wal::{RetryPolicy, SnapshotPolicy, SyncPolicy, Wal, WalConfig, WalStatus};

use segment::{file_name, FrameReader, SEGMENT};
use std::path::Path;
use tgraph::{StreamEvent, TenantedEvent};

/// Hands every record logged at `dir` to `visit`, across all segments in order.
fn for_each_logged(dir: &Path, mut visit: impl FnMut(WalRecord)) -> Result<(), DurableError> {
    for index in segment::list_indices(dir, SEGMENT)? {
        let path = dir.join(file_name(SEGMENT, index));
        let mut reader = FrameReader::open(&path)?;
        while let Some((_, _, record)) = WalRecord::read_next(&mut reader, &path)? {
            visit(record);
        }
    }
    Ok(())
}

/// Every [`StreamEvent`] ever logged at `dir`, across all segments in delivery
/// order — the full history, not just the post-snapshot suffix. Feed it back through
/// `syscall::stream::StreamSource::from_events` to re-drive any past run.
pub fn read_logged_events(dir: impl AsRef<Path>) -> Result<Vec<StreamEvent>, DurableError> {
    let mut events = Vec::new();
    for_each_logged(dir.as_ref(), |record| {
        if let WalRecord::Batch(batch) = record {
            events.extend(batch);
        }
    })?;
    Ok(events)
}

/// Every [`TenantedEvent`] ever logged at `dir`, in delivery order (the pool
/// counterpart of [`read_logged_events`]).
pub fn read_logged_tenant_events(
    dir: impl AsRef<Path>,
) -> Result<Vec<TenantedEvent>, DurableError> {
    let mut events = Vec::new();
    for_each_logged(dir.as_ref(), |record| {
        if let WalRecord::TenantBatch(batch) = record {
            events.extend(batch);
        }
    })?;
    Ok(events)
}
