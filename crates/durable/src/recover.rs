//! Crash recovery: rebuild an engine from its log, provably identical to one that
//! never crashed.
//!
//! Recovery is replay, not deserialization: the newest usable snapshot supplies the
//! engine shape and a bounded-horizon op prefix, the log segments at or after the
//! snapshot's index supply the suffix, and every op is pushed through the ordinary
//! engine API ([`stream::Engine`]) in its original order. Registrations replay with
//! their logged ids (divergence is a typed error, never silent), event batches replay
//! with errors swallowed and detections discarded — the live run already emitted both
//! — and the snapshot's visibility floors are re-applied at the end. The result
//! detects the rest of the stream byte-for-byte like the uninterrupted engine
//! (`tests/recovery_parity.rs` proves it at 1/2/4 shards and across tenant pools).
//!
//! Strict recovery ([`recover`]) refuses damaged logs; tolerant recovery
//! ([`recover_tolerant`]) rebuilds the longest valid prefix and reports the damage —
//! it never skips *past* a damaged record, because everything after a tear is
//! unframed garbage.

use crate::error::{DurableError, WalDamage};
use crate::record::{EngineKind, InitRecord, WalRecord};
use crate::segment::{
    parse_segment_index, parse_snapshot_index, segment_file_name, snapshot_file_name, FrameReader,
};
use crate::snapshot;
use crate::wal::{TailState, Wal, WalConfig};
use std::any::Any;
use std::collections::BTreeMap;
use std::path::Path;
use stream::{Engine, LabelPairStats, QueryId, ShardedDetector, TenantPool};
use tgraph::TenantId;

/// A live registration surfaced by recovery. `visible_from` is the value the
/// *original* registration reported — a query's look-back floor is a fact about when
/// it entered the stream, not about when the process last restarted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredRegistration {
    /// The query's id — identical to the live run's (ids are never reused, so replay
    /// reassigns them deterministically).
    pub id: QueryId,
    /// The registered match window.
    pub window: u64,
    /// The original registration's look-back floor, verbatim from the log.
    pub visible_from: u64,
}

/// A recovered engine plus everything recovery learned on the way.
#[derive(Debug)]
pub struct Recovered<E> {
    /// The rebuilt engine, ready for the next batch.
    pub engine: E,
    /// The re-opened log, already attached to `engine` (appends continue in a fresh
    /// segment; nothing is ever written after torn bytes).
    pub wal: Wal,
    /// Live registrations in id order, with their original `visible_from` values.
    pub registrations: Vec<RecoveredRegistration>,
    /// Damage found by tolerant recovery (`None` under strict recovery, which fails
    /// instead). The engine reflects every record before the damage point.
    pub damage: Option<WalDamage>,
    /// Operations replayed (snapshot tail + log suffix).
    pub records_replayed: u64,
    /// Intact records tolerant recovery had to drop because they sit in segments
    /// *after* the damage point (recovery never skips past a tear). 0 under strict
    /// recovery or when the damaged segment is the last one.
    pub records_dropped: u64,
    /// Unreadable bytes at and after the damage point — the damaged frame plus the
    /// unframed remainder of its segment (and of any later damaged segment).
    pub bytes_unreadable: u64,
}

/// Everything read off disk before any engine is touched.
struct LoadedLog {
    init: InitRecord,
    /// Snapshot-time visibility floors, present iff a snapshot was used.
    floors: Option<Vec<(u64, Vec<u64>)>>,
    ops: Vec<WalRecord>,
    state: TailState,
    damage: Option<WalDamage>,
    records_dropped: u64,
    bytes_unreadable: u64,
}

fn divergence(detail: impl Into<String>) -> DurableError {
    DurableError::ReplayDivergence {
        detail: detail.into(),
    }
}

fn load_log(dir: &Path, tolerant: bool) -> Result<LoadedLog, DurableError> {
    // Newest usable snapshot first. Strict mode trusts exactly the newest snapshot
    // (a damaged one is an error to surface, not to route around); tolerant mode
    // walks back to older snapshots, and ultimately to a full-log replay.
    let mut base = None;
    for &index in crate::segment::list_indices(dir, parse_snapshot_index)?
        .iter()
        .rev()
    {
        match snapshot::load(&dir.join(snapshot_file_name(index))) {
            Ok((header, ops)) => {
                base = Some((index, header, ops));
                break;
            }
            Err(_) if tolerant => continue,
            Err(e) => return Err(e),
        }
    }

    let (first_segment, mut init, floors, mut ops, mut state) = match base {
        Some((index, header, ops)) => {
            let state = TailState::from_header(&header);
            (index, Some(header.init), Some(header.floors), ops, state)
        }
        None => (0, None, None, Vec::new(), TailState::default()),
    };
    // The snapshot header's aggregates describe the *pruned-away* history; replayed
    // ops (snapshot tail included) re-advance them from there.
    for op in &ops {
        state.observe(op);
    }

    let mut damage = None;
    let mut records_dropped = 0u64;
    let mut bytes_unreadable = 0u64;
    let indices: Vec<u64> = crate::segment::list_indices(dir, parse_segment_index)?
        .into_iter()
        .filter(|&i| i >= first_segment)
        .collect();
    'segments: for (position, &index) in indices.iter().enumerate() {
        let path = dir.join(segment_file_name(index));
        let mut reader = FrameReader::open(&path)?;
        loop {
            let (offset, payload) = match reader.next() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(found) => {
                    if tolerant {
                        // Nothing at or after a tear is trustworthy — in this
                        // segment or any later one. Account exactly for what the
                        // truncation costs: the unreadable remainder of this
                        // segment, plus every intact record in later segments.
                        damage = Some(found);
                        bytes_unreadable += reader.remaining_bytes();
                        for &later in &indices[position + 1..] {
                            let mut tail = FrameReader::open(dir.join(segment_file_name(later)))?;
                            loop {
                                match tail.next() {
                                    Ok(Some(_)) => records_dropped += 1,
                                    Ok(None) => break,
                                    Err(_) => {
                                        bytes_unreadable += tail.remaining_bytes();
                                        break;
                                    }
                                }
                            }
                        }
                        break 'segments;
                    }
                    return Err(DurableError::Damage(found));
                }
            };
            let record = WalRecord::decode(&payload).map_err(|e| DurableError::Codec {
                file: path.clone(),
                offset,
                detail: e.detail,
            })?;
            match record {
                WalRecord::Init(record) => {
                    if init.is_some() {
                        return Err(divergence(format!(
                            "duplicate Init record at {}:{offset}",
                            path.display()
                        )));
                    }
                    init = Some(record);
                }
                WalRecord::SnapshotHeader(_) | WalRecord::SnapshotFooter { .. } => {
                    return Err(DurableError::Codec {
                        file: path.clone(),
                        offset,
                        detail: "snapshot record inside a log segment".into(),
                    });
                }
                op => {
                    state.observe(&op);
                    ops.push(op);
                }
            }
        }
    }

    let init = init.ok_or_else(|| DurableError::MissingInit {
        dir: dir.to_path_buf(),
    })?;
    Ok(LoadedLog {
        init,
        floors,
        ops,
        state,
        damage,
        records_dropped,
        bytes_unreadable,
    })
}

/// A logged batch as `E`'s input, or `None` when the op is not a batch of the event
/// type `E` ingests (a tenant-tagged batch in a single-stream log, or the reverse).
fn batch_for<E: Engine>(op: &WalRecord) -> Option<&[E::Event]> {
    let batch: &dyn Any = match op {
        WalRecord::Batch(events) => events,
        WalRecord::TenantBatch(events) => events,
        _ => return None,
    };
    batch.downcast_ref::<Vec<E::Event>>().map(Vec::as_slice)
}

fn recover_engine<E: Engine>(
    dir: &Path,
    config: WalConfig,
    tolerant: bool,
) -> Result<Recovered<E>, DurableError> {
    let mut loaded = load_log(dir, tolerant)?;
    let kind = EngineKind::of::<E>();
    // A log a bare `Detector` wrote is a one-shard sharded log under an older tag.
    if loaded.init.kind == EngineKind::Detector && kind == EngineKind::Sharded {
        loaded.init.kind = kind;
    }
    if loaded.init.kind != kind {
        return Err(DurableError::EngineMismatch {
            expected: kind,
            found: loaded.init.kind,
        });
    }

    let shape = (loaded.init.groups as usize, loaded.init.shards as usize);
    let stats = LabelPairStats::from_pair_counts(loaded.init.stats.iter().copied());
    let mut engine = E::build(shape, stats);
    let mut live: BTreeMap<u64, RecoveredRegistration> = BTreeMap::new();
    for op in &loaded.ops {
        match op {
            WalRecord::Register {
                id,
                window,
                visible_from,
                query,
            } => {
                // Registrations were logged *after* live acceptance, so a replay
                // rejection — or a different assigned id — means the log and the
                // engine build disagree. Both are typed divergence, never silence.
                let assigned = engine
                    .register(query.clone(), *window)
                    .map_err(|e| divergence(format!("replaying registration {id}: {e}")))?
                    .id;
                if assigned as u64 != *id {
                    return Err(divergence(format!(
                        "replay assigned query id {assigned}, log recorded {id}"
                    )));
                }
                live.insert(
                    *id,
                    RecoveredRegistration {
                        id: assigned,
                        window: *window,
                        visible_from: *visible_from,
                    },
                );
            }
            WalRecord::Deregister { id } => {
                engine
                    .deregister(*id as QueryId)
                    .map_err(|e| divergence(format!("replaying deregistration {id}: {e}")))?;
                live.remove(id);
            }
            WalRecord::Batch(_) | WalRecord::TenantBatch(_) => {
                let events = batch_for::<E>(op)
                    .ok_or_else(|| divergence(format!("foreign batch kind in a {kind} log")))?;
                // Engine-level batch errors replay exactly as they happened live, and
                // the live run already emitted the detections.
                let _ = engine.on_batch(events);
            }
            WalRecord::Quiesce { tenant } => {
                if kind != EngineKind::Pool {
                    return Err(divergence(format!("tenant quiesce in a {kind} log")));
                }
                // Replay needs only the state change (eviction + saved floors).
                let _ = engine.quiesce(TenantId(*tenant));
            }
            shape => unreachable!("load_log keeps only operations, not {shape:?}"),
        }
    }
    // Floors restore *after* replay: restoring ratchets (never lowers), so the
    // result is the max of the snapshot-time floor and anything replay re-evicted —
    // the live engine's floor at the same point in the stream.
    if let Some(floors) = loaded.floors.take() {
        let single_stream = kind != EngineKind::Pool;
        if floors
            .iter()
            .any(|(tenant, f)| f.len() != shape.1 || (single_stream && *tenant != 0))
        {
            return Err(divergence(format!(
                "snapshot floors must cover all {} shards of a {kind} engine's streams",
                shape.1
            )));
        }
        let floors: Vec<(TenantId, Vec<u64>)> = floors
            .into_iter()
            .map(|(tenant, f)| (TenantId(tenant), f))
            .collect();
        engine.restore_visible_floors(&floors);
    }

    let records_replayed = loaded.ops.len() as u64;
    let wal = Wal::resume(
        dir.to_path_buf(),
        config,
        loaded.init,
        loaded.ops,
        loaded.state,
    )?;
    engine.set_durability(Some(Box::new(wal.clone())));

    Ok(Recovered {
        engine,
        wal,
        registrations: live.into_values().collect(),
        damage: loaded.damage,
        records_replayed,
        records_dropped: loaded.records_dropped,
        bytes_unreadable: loaded.bytes_unreadable,
    })
}

/// Rebuilds engine `E` from the log at `dir`, refusing damaged logs. The log must
/// have been written by the same kind of engine ([`DurableError::EngineMismatch`]
/// otherwise); shard and group counts come from the log, not from the caller.
pub fn recover<E: Engine>(
    dir: impl AsRef<Path>,
    config: WalConfig,
) -> Result<Recovered<E>, DurableError> {
    recover_engine(dir.as_ref(), config, false)
}

/// Rebuilds engine `E` from the longest valid log prefix, reporting any damage in
/// [`Recovered::damage`].
pub fn recover_tolerant<E: Engine>(
    dir: impl AsRef<Path>,
    config: WalConfig,
) -> Result<Recovered<E>, DurableError> {
    recover_engine(dir.as_ref(), config, true)
}

/// [`recover`] for a [`ShardedDetector`], under its older per-engine name.
pub fn recover_sharded(
    dir: impl AsRef<Path>,
    config: WalConfig,
) -> Result<Recovered<ShardedDetector>, DurableError> {
    recover(dir, config)
}

/// [`recover`] for a [`TenantPool`], under its older per-engine name.
pub fn recover_pool(
    dir: impl AsRef<Path>,
    config: WalConfig,
) -> Result<Recovered<TenantPool>, DurableError> {
    recover(dir, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SnapshotHeader;
    use crate::segment::write_frame;
    use stream::CompiledQuery;
    use tgminer::baselines::gspan::StaticPattern;
    use tgraph::{Label, StreamEvent};

    fn event(ts: u64) -> StreamEvent {
        StreamEvent {
            ts,
            src: 2 * ts as usize,
            dst: 2 * ts as usize + 1,
            src_label: Label(1),
            dst_label: Label(2),
        }
    }

    fn pair_query() -> CompiledQuery {
        CompiledQuery::Static(StaticPattern {
            labels: vec![Label(1), Label(2)],
            edges: vec![(0, 1)],
        })
    }

    /// A log directory as a bare `Detector` used to write it (kind tag 0): one
    /// registration and batches 1..=6 in segment 0, a snapshot with floors `(0, [2])`
    /// cut there, batches 7..=8 in segment 1.
    fn legacy_detector_log(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("durable-legacy-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let init = InitRecord {
            kind: EngineKind::Detector,
            shards: 1,
            groups: 1,
            stats: Vec::new(),
        };
        let mut ops = vec![WalRecord::Register {
            id: 0,
            window: 5,
            visible_from: 0,
            query: pair_query(),
        }];
        ops.extend((1..=6).map(|ts| WalRecord::Batch(vec![event(ts)])));
        let segment = |index: u64, records: Vec<WalRecord>| {
            let mut bytes = Vec::new();
            for record in records {
                write_frame(&mut bytes, &record.encode()).unwrap();
            }
            std::fs::write(dir.join(segment_file_name(index)), bytes).unwrap();
        };
        let mut first = vec![WalRecord::Init(init.clone())];
        first.extend(ops.iter().cloned());
        assert_eq!(first[0].encode()[1], 0, "the legacy kind is tag 0 on disk");
        segment(0, first);
        let header = SnapshotHeader {
            init,
            max_window: 5,
            last_ts: Some(6),
            tenant_last_ts: Vec::new(),
            floors: vec![(0, vec![2])],
        };
        snapshot::write(&dir, 1, &header, &ops).unwrap();
        segment(
            1,
            (7..=8)
                .map(|ts| WalRecord::Batch(vec![event(ts)]))
                .collect(),
        );
        dir
    }

    #[test]
    fn a_detector_kind_log_recovers_as_one_shard() {
        let dir = legacy_detector_log("one-shard");
        let recovered = recover::<ShardedDetector>(&dir, WalConfig::default()).unwrap();
        assert_eq!(recovered.engine.shard_count(), 1);
        assert_eq!(recovered.records_replayed, 9, "register + eight batches");
        assert_eq!(recovered.registrations.len(), 1);
        assert_eq!(recovered.engine.shard_visible_floors(), [2]);

        // It detects the rest of the stream like a one-shard engine that never stopped.
        let mut uninterrupted = ShardedDetector::new(1);
        uninterrupted.register(pair_query(), 5).unwrap();
        for ts in 1..=8 {
            uninterrupted.on_batch(&[event(ts)]).unwrap();
        }
        let mut engine = recovered.engine;
        let rest: Vec<StreamEvent> = (9..=20).map(event).collect();
        let mut expected = uninterrupted.on_batch(&rest).unwrap();
        expected.extend(uninterrupted.flush());
        let mut resumed = engine.on_batch(&rest).unwrap();
        resumed.extend(engine.flush());
        assert!(!expected.is_empty());
        assert_eq!(resumed, expected);

        // Nothing writes the legacy tag: the next snapshot says `Sharded`.
        let path = recovered.wal.snapshot(&engine).unwrap();
        assert_eq!(
            snapshot::load(&path).unwrap().0.init.kind,
            EngineKind::Sharded
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_detector_kind_log_is_not_a_pool_log() {
        let dir = legacy_detector_log("not-a-pool");
        assert!(matches!(
            recover::<TenantPool>(&dir, WalConfig::default()),
            Err(DurableError::EngineMismatch {
                expected: EngineKind::Pool,
                found: EngineKind::Detector,
            })
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
