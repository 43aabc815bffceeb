//! The write-ahead log: an append-only, segmented record stream plus the in-memory
//! replay tail that snapshots are cut from.
//!
//! A [`Wal`] attaches to exactly one [`stream::Engine`] — a
//! [`stream::ShardedDetector`] (one stream) or a [`stream::TenantPool`] (many) — by
//! writing the engine's own shape as the `Init` record and installing itself as the
//! engine's [`stream::DurabilitySink`]. From then on every accepted
//! registration/deregistration and every delivered event batch is framed,
//! checksummed, and appended *before* the engine applies it — so a crash at any
//! record boundary loses nothing that reached the engine.
//!
//! Appends are infallible from the engine's point of view: a transient I/O failure
//! is retried under [`RetryPolicy`] (with the partial frame truncated away first);
//! once the budget is spent the log enters a sticky **degraded** mode — the engine
//! keeps detecting, durability is suspended, and the condition surfaces through
//! [`Wal::status`], the `durable.degraded` gauge, a `wal_error` trace event, and
//! [`Wal::take_error`] (the next snapshot fails too).
//!
//! A record is encoded once ([`crate::segment::push_frame`]) and reaches the
//! unbuffered segment file in **one** `write_all` of the finished frame. Nothing waits
//! in user space between records, so "kill at a record boundary" is exactly the
//! durability granularity ([`SyncPolicy`] optionally tightens that to "kill anywhere"
//! at fsync cost), and a kill inside the write leaves a torn frame recovery names. A
//! *failed* write may have landed any prefix of the frame; `segment_bytes` advances
//! only past whole frames, so every retry first truncates the file back to it.
//!
//! The frame is encoded at the end of the replay [`Tail`] and written to the file
//! from there. The tail is only ever replayed, pruned (a batch's last timestamp sits
//! at a fixed offset) or copied into a snapshot, so the bytes the disk holds are its
//! one representation: no second copy of a batch, and once the buffer has reached its
//! steady size no allocation per logged batch.
//!
//! Every I/O site consults an optional [`faults::FaultPlan`] (`wal.append`,
//! `wal.fsync`, `wal.rotate`, `snapshot.write`) so chaos tests can drive each
//! failure path deterministically — see `tests/chaos_parity.rs`.

use crate::codec::{u32_at, u64_at};
use crate::error::DurableError;
use crate::record::{self, EngineKind, InitRecord, SnapshotHeader, WalRecord};
use crate::segment::{file_name, list_indices, push_frame, FRAME_HEADER_BYTES, SEGMENT, SNAPSHOT};
use crate::snapshot;
use faults::FaultPlan;
use obs::{Counter, Gauge, MetricsRegistry, SharedSink, TraceEvent};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use stream::{
    CompiledQuery, DurabilitySink, Engine, LabelPairStats, QueryId, ShardedDetector, TenantPool,
};
use tgraph::{StreamEvent, TenantId, TenantedEvent};

/// When the log calls `fsync` (well, `fdatasync`) on the active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Never sync explicitly: durability granularity is the OS page cache. The
    /// default — matches the pre-policy behavior.
    #[default]
    Never,
    /// Sync once every `n` appended records (n = 1 behaves like `Always`).
    EveryNRecords(u64),
    /// Sync after every appended record.
    Always,
}

/// Bounded retry-with-backoff for transient WAL I/O errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure; 0 latches on the first error.
    pub attempts: u32,
    /// Backoff before retry k is `base << (k - 1)` milliseconds…
    pub backoff_base_ms: u64,
    /// …capped here. A zero base never sleeps.
    pub backoff_cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 20,
        }
    }
}

impl RetryPolicy {
    fn backoff_ms(&self, attempt: u32) -> u64 {
        if self.backoff_base_ms == 0 {
            return 0;
        }
        self.backoff_base_ms
            .checked_shl(attempt.saturating_sub(1))
            .unwrap_or(u64::MAX)
            .min(self.backoff_cap_ms)
    }
}

/// Automatic snapshot cadence, checked by [`Wal::snapshot_due`] (callers write
/// `if wal.snapshot_due() { wal.snapshot(&engine)?; }` once per batch). The default
/// (`None`) never triggers — cadence stays the caller's choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotPolicy {
    /// Snapshot once this many records were logged since the last snapshot.
    pub every_records: Option<u64>,
    /// After each successful snapshot, delete the segment and snapshot files the
    /// new snapshot fully covers (everything below its anchor index). Trades the
    /// tolerant-recovery fallback to *older* snapshots for bounded disk use.
    pub gc: bool,
}

impl SnapshotPolicy {
    /// Snapshot every `n` logged records.
    pub fn every_records(n: u64) -> Self {
        Self {
            every_records: Some(n),
            ..Self::default()
        }
    }

    /// The same policy with post-snapshot segment GC enabled.
    pub fn with_gc(mut self) -> Self {
        self.gc = true;
        self
    }

    fn due(&self, records: u64) -> bool {
        self.every_records.is_some_and(|n| n > 0 && records >= n)
    }
}

/// Whether a [`Wal`] is still logging. Degradation is sticky for the life of the
/// handle: a hole in the log cannot be un-made, so once an append is dropped the
/// only path back to durability is a fresh `Wal` (usually after recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalStatus {
    /// Appends are reaching disk.
    Healthy,
    /// The retry budget was spent on an append; later ops are dropped (counted in
    /// [`Wal::dropped_ops`]) and the engine runs without durability.
    Degraded,
}

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the current one reaches this many bytes.
    pub max_segment_bytes: u64,
    /// When to fsync the active segment.
    pub sync: SyncPolicy,
    /// Retry budget for transient I/O errors.
    pub retry: RetryPolicy,
    /// Automatic snapshot cadence and segment GC.
    pub snapshot: SnapshotPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            max_segment_bytes: 8 * 1024 * 1024,
            sync: SyncPolicy::default(),
            retry: RetryPolicy::default(),
            snapshot: SnapshotPolicy::default(),
        }
    }
}

/// The replay tail: the framed bytes of the replayable operations (every record but
/// `Init` and the snapshot envelope) still inside the pruning horizon, back to back —
/// what the next snapshot is cut from — and the running aggregates the horizon is
/// computed from. The live log and recovery both build it through [`Tail::admit`], so there is
/// one observe and one prune.
#[derive(Debug, Default)]
pub(crate) struct Tail {
    pub(crate) frames: Vec<u8>,
    /// Frames in `frames`.
    pub(crate) ops: u64,
    /// `ops` right after the last [`Tail::prune`]; the tail is pruned again once it
    /// has doubled, so it stays bounded without any snapshot.
    pruned_ops: u64,
    /// Largest window ever registered (never shrinks — a deregistered wide query's
    /// partial matches may still be in flight when a snapshot is cut).
    max_window: u64,
    /// Last event timestamp on the single stream.
    last_ts: Option<u64>,
    /// Last event timestamp per tenant (raw ids; sorted for deterministic headers).
    tenant_last_ts: BTreeMap<u64, u64>,
}

impl Tail {
    /// An empty tail continuing from a snapshot: the header's aggregates describe
    /// the *pruned-away* history, and the ops admitted next re-advance them.
    pub(crate) fn from_header(header: &SnapshotHeader) -> Self {
        Self {
            max_window: header.max_window,
            last_ts: header.last_ts,
            tenant_last_ts: header.tenant_last_ts.iter().copied().collect(),
            ..Self::default()
        }
    }

    fn header(&self, init: InitRecord, floors: Vec<(u64, Vec<u64>)>) -> SnapshotHeader {
        let tenant_last_ts = Vec::from_iter(self.tenant_last_ts.iter().map(|(&t, &ts)| (t, ts)));
        SnapshotHeader {
            init,
            max_window: self.max_window,
            last_ts: self.last_ts,
            tenant_last_ts,
            floors,
        }
    }

    /// Appends an op's frame as read from disk (recovery) and admits it.
    pub(crate) fn push(&mut self, frame: &[u8]) {
        let start = self.frames.len();
        self.frames.extend_from_slice(frame);
        self.admit(start);
    }

    /// Admits the op whose frame starts at `start` and ends the buffer: advances the
    /// aggregates by what it carries and prunes once the tail has doubled (amortised
    /// O(1) per op).
    fn admit(&mut self, start: usize) {
        let payload = &self.frames[start + FRAME_HEADER_BYTES..];
        // (`None < Some(_)`, so `max` against an `Option` only ever advances.)
        match payload[0] {
            record::TAG_REGISTER => {
                let window = u64_at(payload, record::REGISTER_WINDOW_AT);
                self.max_window = self.max_window.max(window);
            }
            record::TAG_BATCH => {
                let last = record::stamps(payload).next_back();
                self.last_ts = self.last_ts.max(last.map(|(_, ts)| ts));
            }
            record::TAG_TENANT_BATCH => {
                for (tenant, ts) in record::stamps(payload) {
                    self.last_ts = self.last_ts.max(Some(ts));
                    let entry = self.tenant_last_ts.entry(tenant).or_insert(ts);
                    *entry = (*entry).max(ts);
                }
            }
            // Nothing else moves the horizon. In particular quiescence changes which
            // tenants are materialised, not the horizon: the evicted tenant's last_ts
            // stays, so its later batches (if it comes back) prune exactly as an
            // always-live tenant's would.
            _ => {}
        }
        self.ops += 1;
        if self.ops >= 2 * self.pruned_ops.max(1) {
            self.prune();
        }
    }

    /// Drops the ops that left the replay horizon `H = max(1, 2 × max_window)`,
    /// compacting the survivors' frames in place.
    ///
    /// Registrations and deregistrations are never pruned — they pin exact id
    /// assignment and tombstones. An event batch is dropped only when its *last*
    /// event is older than `last_ts − H` (so every event with `ts ≥ cutoff` survives:
    /// its batch's last event is at least as new). Tenant batches prune against each
    /// tenant's own `last_ts`, keeping the batch if any tenant still needs it.
    ///
    /// Runs at every snapshot cut and, between cuts, whenever the tail has doubled
    /// since the last run. Pruning between cuts is exactly what a snapshot cut at
    /// that batch boundary would have done to the tail.
    fn prune(&mut self) {
        let horizon = self.max_window.saturating_mul(2).max(1);
        let cutoff = self.last_ts.map_or(0, |last| last.saturating_sub(horizon));
        let (mut read, mut kept_bytes, mut kept) = (0, 0, 0);
        while read < self.frames.len() {
            let end = read + FRAME_HEADER_BYTES + u32_at(&self.frames, read) as usize;
            let payload = &self.frames[read + FRAME_HEADER_BYTES..end];
            let keep = match payload[0] {
                record::TAG_BATCH => record::stamps(payload)
                    .next_back()
                    .is_some_and(|(_, ts)| ts >= cutoff),
                record::TAG_TENANT_BATCH => record::stamps(payload).any(|(tenant, ts)| {
                    let last = self.tenant_last_ts.get(&tenant).copied().unwrap_or(0);
                    ts >= last.saturating_sub(horizon)
                }),
                // Only event batches age out. Quiesce ops are kept like registrations:
                // they pin *where* in the op sequence a tenant's pending detections
                // were drained, and a quiesce replayed against a not-yet-materialised
                // tenant is a no-op.
                _ => true,
            };
            if keep {
                self.frames.copy_within(read..end, kept_bytes);
                kept_bytes += end - read;
                kept += 1;
            }
            read = end;
        }
        self.frames.truncate(kept_bytes);
        self.ops = kept;
        self.pruned_ops = kept;
    }
}

/// Free-standing until [`Wal::instrument`] swaps in a registry's.
#[derive(Default)]
struct WalInstruments {
    records: Counter,
    bytes: Counter,
    rotations: Counter,
    snapshots: Counter,
    io_errors: Counter,
    retries: Counter,
    fsyncs: Counter,
    gc_segments: Counter,
    degraded: Gauge,
}

pub(crate) struct WalCore {
    dir: PathBuf,
    config: WalConfig,
    init: Option<InitRecord>,
    segment_index: u64,
    file: File,
    segment_bytes: u64,
    tail: Tail,
    error: Option<DurableError>,
    /// Why the log degraded. Sticky: set when the retry budget is first spent; never
    /// cleared (even by `take_error`) because the log already has a hole.
    degraded: Option<String>,
    dropped_ops: u64,
    /// Cumulative I/O errors, including ones a retry recovered from.
    io_errors: u64,
    records_since_sync: u64,
    records_since_snapshot: u64,
    faults: Option<FaultPlan>,
    instruments: WalInstruments,
    trace: Option<SharedSink>,
}

fn open_segment(dir: &Path, index: u64) -> std::io::Result<File> {
    let path = dir.join(file_name(SEGMENT, index));
    OpenOptions::new().create(true).append(true).open(path)
}

impl WalCore {
    fn create(dir: PathBuf, config: WalConfig) -> Result<Self, DurableError> {
        fs::create_dir_all(&dir).map_err(|e| DurableError::io(&dir, e))?;
        // Never append to an existing segment: its final record may be torn, and
        // bytes after a tear are unreachable. A fresh segment is always clean.
        let existing = list_indices(&dir, SEGMENT)?;
        let segment_index = existing.last().map_or(0, |&last| last + 1);
        let file = open_segment(&dir, segment_index)
            .map_err(|e| DurableError::io(dir.join(file_name(SEGMENT, segment_index)), e))?;
        Ok(Self {
            dir,
            config,
            init: None,
            segment_index,
            file,
            segment_bytes: 0,
            tail: Tail::default(),
            error: None,
            degraded: None,
            dropped_ops: 0,
            io_errors: 0,
            records_since_sync: 0,
            records_since_snapshot: 0,
            faults: None,
            instruments: WalInstruments::default(),
            trace: None,
        })
    }

    /// The latched/degraded failure, re-synthesized (I/O errors are not `Clone`).
    fn latched(&self) -> Option<DurableError> {
        let detail = self.degraded.as_ref()?;
        Some(DurableError::io(
            &self.dir,
            std::io::Error::other(format!("earlier append failed: {detail}")),
        ))
    }

    /// Consults the armed fault plan; an unarmed or absent plan costs one branch.
    fn fault(&self, point: &str) -> Option<std::io::Error> {
        self.faults
            .as_ref()
            .and_then(|plan| plan.fires(point))
            .map(faults::InjectedFault::into_io_error)
    }

    /// Counts and traces a failed I/O operation on `path`; returns it typed.
    fn io_failed(&mut self, path: PathBuf, e: std::io::Error, latched: bool) -> DurableError {
        self.io_errors += 1;
        self.instruments.io_errors.inc();
        self.emit(&TraceEvent::WalError {
            path: path.display().to_string(),
            detail: e.to_string(),
            latched,
        });
        DurableError::io(path, e)
    }

    fn emit(&self, event: &TraceEvent) {
        if let Some(trace) = &self.trace {
            trace.emit(event);
        }
    }

    /// Runs a fallible I/O operation — or the fault armed on `point` in its place —
    /// under the retry budget. Each failure bumps `durable.io_errors_total` and emits
    /// a `wal_error` trace event; before every retry the active segment is truncated
    /// back to the last good frame boundary (a failed `write_all` may have landed part
    /// of the frame), the backoff slept, and a `wal_retry` event emitted. The terminal
    /// failure carries `latched: true`.
    fn retry_io<T>(
        &mut self,
        point: &str,
        mut op: impl FnMut(&mut WalCore) -> std::io::Result<T>,
    ) -> Result<T, DurableError> {
        let mut attempt: u32 = 0;
        loop {
            match self.fault(point).map_or_else(|| op(self), Err) {
                Ok(value) => return Ok(value),
                Err(e) => {
                    let path = self.dir.join(file_name(SEGMENT, self.segment_index));
                    let out_of_budget = attempt >= self.config.retry.attempts;
                    let error = self.io_failed(path, e, out_of_budget);
                    if out_of_budget {
                        return Err(error);
                    }
                    attempt += 1;
                    // A failed write may have landed part of a frame; cut back to
                    // the last good boundary so the retry can't tear the history.
                    let _ = self.file.set_len(self.segment_bytes);
                    let backoff_ms = self.config.retry.backoff_ms(attempt);
                    if backoff_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                    }
                    self.instruments.retries.inc();
                    self.emit(&TraceEvent::WalRetry {
                        attempt: u64::from(attempt),
                        backoff_ms,
                    });
                }
            }
        }
    }

    /// Frames `encode`'s payload at the end of the tail buffer and writes the frame
    /// to the active segment from there, in one `write_all`. On failure the buffer is
    /// as it was; on success the frame is still at the returned offset for the caller
    /// to admit (an op) or truncate away (`Init`, which is shape, not an operation).
    fn append_frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<usize, DurableError> {
        let start = self.tail.frames.len();
        push_frame(&mut self.tail.frames, encode);
        let written = (self.tail.frames.len() - start) as u64;
        let appended = self
            .retry_io("wal.append", |core| {
                core.file.write_all(&core.tail.frames[start..])
            })
            .and_then(|()| {
                self.segment_bytes += written;
                self.records_since_snapshot += 1;
                self.instruments.records.inc();
                self.instruments.bytes.add(written);
                self.maybe_sync()
            });
        if appended.is_err() {
            self.tail.frames.truncate(start);
        }
        appended.map(|()| start)
    }

    /// Applies the [`SyncPolicy`] after a successful append.
    fn maybe_sync(&mut self) -> Result<(), DurableError> {
        let due = match self.config.sync {
            SyncPolicy::Never => false,
            SyncPolicy::Always => true,
            SyncPolicy::EveryNRecords(n) => {
                self.records_since_sync += 1;
                n > 0 && self.records_since_sync >= n
            }
        };
        if !due {
            return Ok(());
        }
        self.retry_io("wal.fsync", |core| core.file.sync_data())?;
        self.records_since_sync = 0;
        self.instruments.fsyncs.inc();
        Ok(())
    }

    fn rotate_to(&mut self, index: u64) -> Result<(), DurableError> {
        self.file = self.retry_io("wal.rotate", |core| open_segment(&core.dir, index))?;
        self.instruments.rotations.inc();
        self.emit(&TraceEvent::WalRotated {
            segment: index,
            bytes: self.segment_bytes,
        });
        self.segment_index = index;
        self.segment_bytes = 0;
        Ok(())
    }

    /// Marks the log degraded: the retry budget is spent, later ops are dropped.
    fn degrade(&mut self, error: DurableError) {
        self.degraded = Some(error.to_string());
        self.error = Some(error);
        self.instruments.degraded.set(1);
    }

    /// The sink's append path: log, track, maybe rotate. Infallible — once the
    /// retry budget is spent the log degrades and everything after is dropped (the
    /// log would have a hole; better a typed degraded state than a silent gap).
    fn log_op(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        if self.degraded.is_some() {
            self.dropped_ops += 1;
            return;
        }
        match self.append_frame(encode) {
            Ok(start) => self.tail.admit(start),
            Err(e) => return self.degrade(e),
        }
        if self.segment_bytes >= self.config.max_segment_bytes {
            if let Err(e) = self.rotate_to(self.segment_index + 1) {
                self.degrade(e);
            }
        }
    }

    fn attach(&mut self, init: InitRecord) -> Result<(), DurableError> {
        if self.init.is_some() {
            return Err(DurableError::AlreadyAttached);
        }
        if let Some(e) = self.latched() {
            return Err(e);
        }
        let record = WalRecord::Init(init.clone());
        let start = self.append_frame(|buf| record.encode_into(buf))?;
        self.tail.frames.truncate(start);
        self.init = Some(init);
        Ok(())
    }

    fn snapshot(
        &mut self,
        expected: EngineKind,
        floors: Vec<(u64, Vec<u64>)>,
    ) -> Result<PathBuf, DurableError> {
        if let Some(e) = self.latched() {
            return Err(e);
        }
        let init = self.init.clone().ok_or_else(|| DurableError::MissingInit {
            dir: self.dir.clone(),
        })?;
        if init.kind != expected {
            return Err(DurableError::EngineMismatch {
                expected,
                found: init.kind,
            });
        }
        self.tail.prune();
        let header = self.tail.header(init, floors);
        // The snapshot takes the index of the segment the log rotates to: replay is
        // "load snapshot N, then segments ≥ N". Writing the file before rotating is
        // crash-safe in both gap windows — a crash before the rename leaves the old
        // snapshot + full log, a crash before the rotation leaves a complete snapshot
        // whose segment N is simply empty.
        let new_index = self.segment_index + 1;
        if let Some(e) = self.fault("snapshot.write") {
            let path = self.dir.join(file_name(SNAPSHOT, new_index));
            return Err(self.io_failed(path, e, false));
        }
        let ops = self.tail.ops;
        let (path, bytes) = snapshot::write(&self.dir, new_index, header, &self.tail.frames, ops)?;
        self.rotate_to(new_index)?;
        self.records_since_snapshot = 0;
        self.instruments.snapshots.inc();
        self.emit(&TraceEvent::SnapshotWritten {
            segment: new_index,
            bytes,
            ops,
            io_errors: self.io_errors,
        });
        if self.config.snapshot.gc {
            self.gc_through(new_index);
        }
        Ok(path)
    }

    /// Deletes segment and snapshot files fully covered by the snapshot at
    /// `anchor`: replay is "snapshot N + segments ≥ N", so everything below the
    /// anchor is dead weight. Only ever called right after a *successful*
    /// snapshot — a failed snapshot leaves every file in place. Deletions are
    /// best-effort; a file that will not delete is simply kept.
    fn gc_through(&mut self, anchor: u64) {
        let mut deleted = 0u64;
        let mut highest = 0u64;
        for kind in [SEGMENT, SNAPSHOT] {
            let covered = list_indices(&self.dir, kind).unwrap_or_default();
            for index in covered.into_iter().filter(|&i| i < anchor) {
                let removed = fs::remove_file(self.dir.join(file_name(kind, index))).is_ok();
                if removed && kind == SEGMENT {
                    deleted += 1;
                    highest = highest.max(index);
                }
            }
        }
        if deleted > 0 {
            self.instruments.gc_segments.add(deleted);
            self.emit(&TraceEvent::WalGc {
                deleted,
                through_segment: highest,
            });
        }
    }
}

/// A handle to a write-ahead log directory. Cheap to clone (the underlying state is
/// shared); the engine holds the same state through its installed sink.
#[derive(Clone)]
pub struct Wal {
    core: Arc<Mutex<WalCore>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = self.lock();
        f.debug_struct("Wal")
            .field("dir", &core.dir)
            .field("segment_index", &core.segment_index)
            .field("tail_ops", &core.tail.ops)
            .finish()
    }
}

/// The attached engine holds a clone of the handle and reports its inputs here.
impl DurabilitySink for Wal {
    fn record_register(
        &mut self,
        id: QueryId,
        query: &CompiledQuery,
        window: u64,
        visible_from: u64,
    ) {
        self.log_record(&WalRecord::Register {
            id: id as u64,
            window,
            visible_from,
            query: query.clone(),
        });
    }

    fn record_deregister(&mut self, id: QueryId) {
        self.log_record(&WalRecord::Deregister { id: id as u64 });
    }

    fn record_events(&mut self, events: &[StreamEvent]) {
        self.lock().log_op(|buf| record::put_batch(buf, events));
    }

    fn record_tenant_events(&mut self, events: &[TenantedEvent]) {
        self.lock()
            .log_op(|buf| record::put_tenant_batch(buf, events));
    }

    fn record_quiesce(&mut self, tenant: TenantId) {
        self.log_record(&WalRecord::Quiesce { tenant: tenant.0 });
    }
}

impl Wal {
    /// Opens (creating the directory if needed) a log at `dir`. Appends always go to
    /// a fresh segment — existing segments are never extended, so prior torn bytes
    /// can never swallow new records.
    pub fn create(dir: impl Into<PathBuf>, config: WalConfig) -> Result<Self, DurableError> {
        Ok(Self {
            core: Arc::new(Mutex::new(WalCore::create(dir.into(), config)?)),
        })
    }

    /// Re-opens the log recovery just replayed, continuing from the tail it built.
    pub(crate) fn resume(
        dir: PathBuf,
        config: WalConfig,
        init: InitRecord,
        tail: Tail,
    ) -> Result<Self, DurableError> {
        let mut core = WalCore::create(dir, config)?;
        core.init = Some(init);
        core.tail = tail;
        Ok(Self {
            core: Arc::new(Mutex::new(core)),
        })
    }

    fn lock(&self) -> MutexGuard<'_, WalCore> {
        self.core
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn log_record(&self, record: &WalRecord) {
        self.lock().log_op(|buf| record.encode_into(buf));
    }

    /// Attaches this log to an engine: writes the `Init` record from the engine's own
    /// shape and [`LabelPairStats`] — exactly what recovery rebuilds it from, so query
    /// placement replays onto the same shards — and installs the log as the engine's
    /// durability sink. Attach before registering queries or feeding events — only
    /// what happens after attachment is recoverable. Fails with
    /// [`DurableError::AlreadyAttached`] if the log already has an engine.
    pub fn attach<E: Engine>(&self, engine: &mut E) -> Result<(), DurableError> {
        let (groups, shards) = engine.shape();
        self.lock().attach(InitRecord {
            kind: EngineKind::of::<E>(),
            shards: u32::try_from(shards).expect("shard count fits u32"),
            groups: u32::try_from(groups).expect("group count fits u32"),
            stats: engine.stats().pair_counts(),
        })?;
        engine.set_durability(Some(Box::new(self.clone())));
        Ok(())
    }

    /// [`Wal::attach`] under its older per-engine name. `_stats` is ignored: the log
    /// records the statistics the detector itself places queries by.
    pub fn attach_sharded(
        &self,
        detector: &mut ShardedDetector,
        _stats: &LabelPairStats,
    ) -> Result<(), DurableError> {
        self.attach(detector)
    }

    /// [`Wal::attach`] under its older per-engine name; `_stats` is ignored likewise.
    pub fn attach_pool(
        &self,
        pool: &mut TenantPool,
        _stats: &LabelPairStats,
    ) -> Result<(), DurableError> {
        self.attach(pool)
    }

    /// Cuts a snapshot of the attached engine's recovery state and rotates to a fresh
    /// segment; recovery then replays only the snapshot plus later segments. Returns
    /// the snapshot file's path. Cadence is the caller's choice — every N batches, on
    /// a timer, when [`Wal::snapshot_due`]; the log is complete without any snapshot.
    pub fn snapshot<E: Engine>(&self, engine: &E) -> Result<PathBuf, DurableError> {
        let floors = engine
            .visible_floors()
            .into_iter()
            .map(|(tenant, floors)| (tenant.0, floors))
            .collect();
        self.lock().snapshot(EngineKind::of::<E>(), floors)
    }

    /// [`Wal::snapshot`] under its older per-engine name.
    pub fn snapshot_sharded(&self, detector: &ShardedDetector) -> Result<PathBuf, DurableError> {
        self.snapshot(detector)
    }

    /// [`Wal::snapshot`] under its older per-engine name.
    pub fn snapshot_pool(&self, pool: &TenantPool) -> Result<PathBuf, DurableError> {
        self.snapshot(pool)
    }

    /// Registers the `durable.*` instruments: `records_total`, `bytes_total`,
    /// `rotations_total`, `snapshots_total`, `io_errors_total`, `retries_total`,
    /// `fsyncs_total`, `gc_segments_total`, and the `degraded` gauge (0 or 1).
    /// Counting starts at the call; the gauge reflects the current status.
    pub fn instrument(&self, registry: &MetricsRegistry) {
        let mut core = self.lock();
        let degraded = registry.gauge("durable.degraded");
        degraded.set(u64::from(core.degraded.is_some()));
        core.instruments = WalInstruments {
            records: registry.counter("durable.records_total"),
            bytes: registry.counter("durable.bytes_total"),
            rotations: registry.counter("durable.rotations_total"),
            snapshots: registry.counter("durable.snapshots_total"),
            io_errors: registry.counter("durable.io_errors_total"),
            retries: registry.counter("durable.retries_total"),
            fsyncs: registry.counter("durable.fsyncs_total"),
            gc_segments: registry.counter("durable.gc_segments_total"),
            degraded,
        };
    }

    /// Routes `wal_rotated` / `snapshot_written` / `wal_error` / `wal_retry` /
    /// `wal_gc` trace events into `sink`.
    pub fn set_trace_sink(&self, sink: SharedSink) {
        self.lock().trace = Some(sink);
    }

    /// Arms a [`FaultPlan`] on every WAL I/O site (`wal.append`, `wal.fsync`,
    /// `wal.rotate`, `snapshot.write`). Injected faults behave exactly like real
    /// I/O errors — retried, counted, and latching — but never corrupt the disk,
    /// so segments written before an injected failure stay readable.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.lock().faults = Some(plan);
    }

    /// Whether the log is still appending or has degraded. Degradation is sticky —
    /// see [`WalStatus`].
    pub fn status(&self) -> WalStatus {
        if self.lock().degraded.is_some() {
            WalStatus::Degraded
        } else {
            WalStatus::Healthy
        }
    }

    /// Operations dropped since the log degraded (0 while healthy).
    pub fn dropped_ops(&self) -> u64 {
        self.lock().dropped_ops
    }

    /// Cumulative I/O errors observed, including ones a retry recovered from.
    pub fn io_errors(&self) -> u64 {
        self.lock().io_errors
    }

    /// Whether the [`SnapshotPolicy`] cadence has tripped since the last snapshot.
    /// Always `false` for the default (manual-cadence) policy or a degraded log.
    pub fn snapshot_due(&self) -> bool {
        let core = self.lock();
        core.degraded.is_none() && core.config.snapshot.due(core.records_since_snapshot)
    }

    /// Takes the latched append failure, if any. The hot path never returns errors;
    /// they surface here, in [`Wal::status`], in the `durable.degraded` gauge, and
    /// in `wal_error` trace events. Taking the error does *not* clear degradation.
    pub fn take_error(&self) -> Option<DurableError> {
        self.lock().error.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WalRecord;
    use crate::segment::FrameReader;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tgraph::Label;

    pub(crate) fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "durable-wal-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn event(ts: u64, src: usize, dst: usize) -> StreamEvent {
        StreamEvent {
            ts,
            src,
            dst,
            src_label: Label(1),
            dst_label: Label(2),
        }
    }

    /// The ops a tail holds, decoded (its frames are laid out like a segment's).
    fn tail_ops(tail: &Tail) -> Vec<WalRecord> {
        let path = temp_dir("tail").with_extension("frames");
        fs::write(&path, &tail.frames).unwrap();
        let mut reader = FrameReader::open(&path).unwrap();
        let mut ops = Vec::new();
        while let Some((_, payload)) = reader.next().unwrap() {
            ops.push(WalRecord::decode(payload).unwrap());
        }
        fs::remove_file(path).unwrap();
        assert_eq!(ops.len() as u64, tail.ops, "the tail's op count");
        ops
    }

    fn read_all_records(dir: &Path) -> Vec<WalRecord> {
        let mut records = Vec::new();
        for index in list_indices(dir, SEGMENT).unwrap() {
            let mut reader = FrameReader::open(dir.join(file_name(SEGMENT, index))).unwrap();
            while let Some((_, payload)) = reader.next().unwrap() {
                records.push(WalRecord::decode(payload).unwrap());
            }
        }
        records
    }

    #[test]
    fn logs_init_then_ops_in_delivery_order() {
        let dir = temp_dir("order");
        let wal = Wal::create(&dir, WalConfig::default()).unwrap();
        let mut detector = ShardedDetector::new(1);
        wal.attach(&mut detector).unwrap();
        let reg = detector
            .register(
                CompiledQuery::NodeSet(tgminer::baselines::nodeset::NodeSetQuery {
                    labels: vec![Label(1), Label(2)],
                }),
                10,
            )
            .unwrap();
        let batch = [event(1, 0, 1), event(2, 2, 3)];
        detector.on_batch(&batch).unwrap();
        detector.deregister(reg.id).unwrap();

        let records = read_all_records(&dir);
        assert_eq!(records.len(), 4);
        assert!(matches!(&records[0], WalRecord::Init(init) if init.kind == EngineKind::Sharded));
        assert!(matches!(
            &records[1],
            WalRecord::Register {
                id: 0,
                window: 10,
                ..
            }
        ));
        assert!(matches!(&records[2], WalRecord::Batch(events) if events.len() == 2));
        assert!(matches!(&records[3], WalRecord::Deregister { id: 0 }));
        assert!(wal.take_error().is_none());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rotates_segments_at_the_size_threshold() {
        let dir = temp_dir("rotate");
        let wal = Wal::create(
            &dir,
            WalConfig {
                max_segment_bytes: 128,
                ..WalConfig::default()
            },
        )
        .unwrap();
        let mut detector = ShardedDetector::new(1);
        wal.attach(&mut detector).unwrap();
        for ts in 1..=20 {
            detector.on_batch(&[event(ts, 0, 1)]).unwrap();
        }
        let segments = list_indices(&dir, SEGMENT).unwrap();
        assert!(segments.len() > 1, "expected rotation, got {segments:?}");
        // Records stay intact across the rotation boundary.
        assert_eq!(read_all_records(&dir).len(), 21);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_second_attach_is_rejected() {
        let dir = temp_dir("attach");
        let wal = Wal::create(&dir, WalConfig::default()).unwrap();
        let mut detector = ShardedDetector::new(1);
        wal.attach(&mut detector).unwrap();
        let mut other = ShardedDetector::new(1);
        assert!(matches!(
            wal.attach(&mut other),
            Err(DurableError::AlreadyAttached)
        ));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn sync_policy_fsyncs_on_cadence() {
        let dir = temp_dir("fsync");
        let wal = Wal::create(
            &dir,
            WalConfig {
                sync: SyncPolicy::EveryNRecords(2),
                ..WalConfig::default()
            },
        )
        .unwrap();
        let registry = MetricsRegistry::new();
        wal.instrument(&registry);
        let mut detector = ShardedDetector::new(1);
        wal.attach(&mut detector).unwrap();
        for ts in 1..=6 {
            detector.on_batch(&[event(ts, 0, 1)]).unwrap();
        }
        // 7 records (Init + 6 batches) at one fsync per 2 records.
        assert_eq!(registry.counter("durable.fsyncs_total").get(), 3);
        assert_eq!(wal.status(), WalStatus::Healthy);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn transient_fault_is_retried_away_without_losing_records() {
        let dir = temp_dir("retry");
        let wal = Wal::create(
            &dir,
            WalConfig {
                retry: RetryPolicy {
                    attempts: 3,
                    backoff_base_ms: 0,
                    backoff_cap_ms: 0,
                },
                ..WalConfig::default()
            },
        )
        .unwrap();
        let plan = FaultPlan::new(0);
        plan.arm("wal.append", faults::FaultSchedule::OneShotAt(3));
        wal.set_fault_plan(plan);
        let sink = Arc::new(obs::CollectingSink::new());
        wal.set_trace_sink(SharedSink::from(sink.clone()));

        let mut detector = ShardedDetector::new(1);
        wal.attach(&mut detector).unwrap();
        for ts in 1..=4 {
            detector.on_batch(&[event(ts, 0, 1)]).unwrap();
        }
        assert_eq!(wal.status(), WalStatus::Healthy);
        assert_eq!(wal.io_errors(), 1);
        assert!(wal.take_error().is_none());
        // Every record reached disk exactly once despite the injected failure.
        assert_eq!(read_all_records(&dir).len(), 5);
        let events = sink.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::WalError { latched: false, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::WalRetry { attempt: 1, .. })));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn spent_retry_budget_degrades_stickily() {
        let dir = temp_dir("degrade");
        let wal = Wal::create(
            &dir,
            WalConfig {
                retry: RetryPolicy {
                    attempts: 1,
                    backoff_base_ms: 0,
                    backoff_cap_ms: 0,
                },
                ..WalConfig::default()
            },
        )
        .unwrap();
        let registry = MetricsRegistry::new();
        wal.instrument(&registry);
        let sink = Arc::new(obs::CollectingSink::new());
        wal.set_trace_sink(SharedSink::from(sink.clone()));
        let mut detector = ShardedDetector::new(1);
        wal.attach(&mut detector).unwrap();
        detector.on_batch(&[event(1, 0, 1)]).unwrap();

        let plan = FaultPlan::new(0);
        plan.arm("wal.append", faults::FaultSchedule::EveryNth(1));
        wal.set_fault_plan(plan);
        for ts in 2..=4 {
            // The engine keeps accepting batches while durability is suspended.
            detector.on_batch(&[event(ts, 0, 1)]).unwrap();
        }
        assert_eq!(wal.status(), WalStatus::Degraded);
        assert_eq!(wal.dropped_ops(), 2, "ops after the latch are dropped");
        assert_eq!(wal.io_errors(), 2, "first failure + one retry");
        assert_eq!(registry.counter("durable.io_errors_total").get(), 2);
        assert_eq!(registry.counter("durable.retries_total").get(), 1);
        assert_eq!(registry.gauge("durable.degraded").get(), 1);
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::WalError { latched: true, .. })));
        assert!(wal.take_error().is_some());
        // Taking the error does not resurrect the log: the hole is permanent.
        assert_eq!(wal.status(), WalStatus::Degraded);
        detector.on_batch(&[event(5, 0, 1)]).unwrap();
        assert_eq!(wal.dropped_ops(), 3);
        // The log on disk is the clean prefix from before the latch.
        assert_eq!(read_all_records(&dir).len(), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn snapshot_cadence_cuts_and_gc_deletes_covered_segments() {
        let dir = temp_dir("cadence");
        let wal = Wal::create(
            &dir,
            WalConfig {
                max_segment_bytes: 96,
                snapshot: SnapshotPolicy::every_records(4).with_gc(),
                ..WalConfig::default()
            },
        )
        .unwrap();
        let sink = Arc::new(obs::CollectingSink::new());
        wal.set_trace_sink(SharedSink::from(sink.clone()));
        let mut detector = ShardedDetector::new(1);
        wal.attach(&mut detector).unwrap();
        let mut snapshots = 0;
        for ts in 1..=12 {
            detector.on_batch(&[event(ts, 0, 1)]).unwrap();
            if wal.snapshot_due() {
                wal.snapshot(&detector).unwrap();
                snapshots += 1;
            }
        }
        assert!(snapshots >= 2, "cadence never tripped: {snapshots}");
        let newest_snapshot = *list_indices(&dir, SNAPSHOT).unwrap().last().unwrap();
        let segments = list_indices(&dir, SEGMENT).unwrap();
        assert!(
            segments.iter().all(|&i| i >= newest_snapshot),
            "GC left covered segments: {segments:?} vs snapshot {newest_snapshot}"
        );
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::WalGc { deleted, .. } if *deleted > 0)));
        // Kill-after-GC: the pruned log still recovers, strictly.
        let recovered =
            crate::recover::recover::<ShardedDetector>(&dir, WalConfig::default()).unwrap();
        assert!(recovered.damage.is_none());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn failed_snapshot_leaves_every_segment_in_place() {
        let dir = temp_dir("snapfault");
        let wal = Wal::create(
            &dir,
            WalConfig {
                max_segment_bytes: 96,
                snapshot: SnapshotPolicy::every_records(1).with_gc(),
                ..WalConfig::default()
            },
        )
        .unwrap();
        let plan = FaultPlan::new(0);
        plan.arm("snapshot.write", faults::FaultSchedule::EveryNth(1));
        wal.set_fault_plan(plan);
        let mut detector = ShardedDetector::new(1);
        wal.attach(&mut detector).unwrap();
        for ts in 1..=8 {
            detector.on_batch(&[event(ts, 0, 1)]).unwrap();
        }
        let before = list_indices(&dir, SEGMENT).unwrap();
        assert!(wal.snapshot_due());
        assert!(wal.snapshot(&detector).is_err());
        let after = list_indices(&dir, SEGMENT).unwrap();
        assert_eq!(before, after, "a failed snapshot must never GC");
        assert_eq!(
            wal.status(),
            WalStatus::Healthy,
            "snapshot faults don't latch"
        );
        assert_eq!(wal.io_errors(), 1);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn pruning_keeps_every_event_inside_the_horizon() {
        let dir = temp_dir("prune");
        let wal = Wal::create(&dir, WalConfig::default()).unwrap();
        let mut detector = ShardedDetector::new(1);
        wal.attach(&mut detector).unwrap();
        detector
            .register(
                CompiledQuery::NodeSet(tgminer::baselines::nodeset::NodeSetQuery {
                    labels: vec![Label(1)],
                }),
                5,
            )
            .unwrap();
        for ts in 1..=100 {
            detector.on_batch(&[event(ts, 0, 1)]).unwrap();
        }
        wal.lock().tail.prune();
        // Horizon is 2 × 5 = 10: the registration, then exactly the batches whose
        // last event is at or after 100 − 10 — the one *on* the cutoff included.
        let ops = tail_ops(&wal.lock().tail);
        assert!(matches!(ops[0], WalRecord::Register { .. }));
        let kept: Vec<WalRecord> = (90..=100)
            .map(|ts| WalRecord::Batch(vec![event(ts, 0, 1)]))
            .collect();
        assert_eq!(ops[1..], kept);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn the_tail_stays_bounded_without_a_snapshot() {
        let dir = temp_dir("bounded");
        let wal = Wal::create(&dir, WalConfig::default()).unwrap();
        let mut detector = ShardedDetector::new(1);
        wal.attach(&mut detector).unwrap();
        let query = CompiledQuery::Temporal(tgraph::pattern::TemporalPattern::single_edge(
            Label(1),
            Label(2),
        ));
        detector.register(query.clone(), 5).unwrap();
        // Horizon 2 × 5 = 10 ticks at one batch per tick: 11 batches and the
        // registration are inside it at any time.
        let in_horizon = 12;
        let mut longest = 0;
        for ts in 1..=10_000 {
            detector.on_batch(&[event(ts, 0, 1)]).unwrap();
            longest = longest.max(wal.lock().tail.ops);
        }
        assert!(
            longest <= 2 * in_horizon,
            "the tail grew to {longest} ops with {in_horizon} inside the horizon"
        );

        // A snapshot cut now holds exactly what the rule keeps: the registration and
        // the batches whose last event is at or after 10_000 − 10.
        let path = wal.snapshot(&detector).unwrap();
        let (_, ops) = snapshot::tests::load_all(&path).unwrap();
        let mut expected = vec![WalRecord::Register {
            id: 0,
            window: 5,
            visible_from: 0,
            query: query.clone(),
        }];
        expected.extend((9_990..=10_000).map(|ts| WalRecord::Batch(vec![event(ts, 0, 1)])));
        assert_eq!(ops, expected);

        // Fifty more batches, then kill: recovery replays the snapshot plus all fifty,
        // the resumed log keeps what is inside the horizon, and the engine finishes
        // the stream like one that never stopped.
        for ts in 10_001..=10_050 {
            detector.on_batch(&[event(ts, 0, 1)]).unwrap();
        }
        drop((detector, wal));
        let recovered =
            crate::recover::recover::<ShardedDetector>(&dir, WalConfig::default()).unwrap();
        assert_eq!(recovered.records_replayed, 12 + 50);
        // Recovery pruned as it went, on the same doubling rule; a cut now keeps
        // exactly what is inside the horizon.
        assert!(recovered.wal.lock().tail.ops <= 2 * in_horizon);
        recovered.wal.lock().tail.prune();
        assert_eq!(
            tail_ops(&recovered.wal.lock().tail).len() as u64,
            in_horizon
        );
        let mut uninterrupted = ShardedDetector::new(1);
        uninterrupted.register(query, 5).unwrap();
        for ts in 1..=10_050 {
            uninterrupted.on_batch(&[event(ts, 0, 1)]).unwrap();
        }
        let mut resumed = recovered.engine;
        for ts in 10_051..=10_100 {
            let expected = uninterrupted.on_batch(&[event(ts, 0, 1)]).unwrap();
            assert!(!expected.is_empty());
            assert_eq!(resumed.on_batch(&[event(ts, 0, 1)]).unwrap(), expected);
        }
        assert_eq!(resumed.flush(), uninterrupted.flush());
        fs::remove_dir_all(dir).unwrap();
    }

    /// A failed write may have landed any prefix of its frame. The retry must cut the
    /// segment back to the last whole frame first, or the bytes stay in the history.
    #[test]
    fn a_retry_truncates_a_partial_frame_away() {
        let dir = temp_dir("partial");
        let config = WalConfig {
            retry: RetryPolicy {
                attempts: 1,
                backoff_base_ms: 0,
                backoff_cap_ms: 0,
            },
            ..WalConfig::default()
        };
        let wal = Wal::create(&dir, config).unwrap();
        let mut detector = ShardedDetector::new(1);
        wal.attach(&mut detector).unwrap();
        detector.on_batch(&[event(1, 0, 1)]).unwrap();
        // What a write that died half-way leaves: bytes past `segment_bytes`.
        wal.lock().file.write_all(&[0xAB; 13]).unwrap();
        let plan = FaultPlan::new(0);
        plan.arm("wal.append", faults::FaultSchedule::OneShotAt(1));
        wal.set_fault_plan(plan);
        detector.on_batch(&[event(2, 0, 1)]).unwrap();
        assert_eq!(wal.io_errors(), 1);
        assert_eq!(wal.status(), WalStatus::Healthy);
        // Init and both batches, back to back, and nothing else in the file.
        assert_eq!(read_all_records(&dir).len(), 3);
        let size = fs::metadata(dir.join(file_name(SEGMENT, 0))).unwrap().len();
        assert_eq!(size, wal.lock().segment_bytes);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn tenant_batches_prune_against_each_tenants_own_horizon() {
        let tenant_batch = |stamps: &[(u64, u64)]| {
            WalRecord::TenantBatch(
                stamps
                    .iter()
                    .map(|&(tenant, ts)| TenantedEvent {
                        tenant: TenantId(tenant),
                        event: event(ts, 0, 1),
                    })
                    .collect(),
            )
        };
        let ops = [
            WalRecord::Register {
                id: 0,
                window: 5,
                visible_from: 0,
                query: CompiledQuery::NodeSet(tgminer::baselines::nodeset::NodeSetQuery {
                    labels: vec![Label(1)],
                }),
            },
            tenant_batch(&[(1, 10), (2, 10)]), // tenant 2 still needs it: 10 ≥ 20 − 10
            tenant_batch(&[(1, 11)]),          // one tick inside tenant 1's cutoff 22 − 10
            tenant_batch(&[(1, 12)]),          // on the cutoff: kept
            WalRecord::Quiesce { tenant: 1 },
            tenant_batch(&[(2, 9), (2, 9)]), // out of order and before 20 − 10: dropped
            tenant_batch(&[(2, 20), (1, 22)]),
        ];
        let mut tail = Tail::default();
        for op in &ops {
            let mut frame = Vec::new();
            push_frame(&mut frame, |buf| op.encode_into(buf));
            tail.push(&frame);
        }
        tail.prune();
        assert_eq!(tail.max_window, 5);
        assert_eq!(tail.last_ts, Some(22));
        assert_eq!(tail.tenant_last_ts, BTreeMap::from([(1, 22), (2, 20)]));
        let kept = [&ops[0], &ops[1], &ops[3], &ops[4], &ops[6]];
        assert_eq!(tail_ops(&tail).iter().collect::<Vec<_>>(), kept);
    }
}
