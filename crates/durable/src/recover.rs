//! Crash recovery: rebuild an engine from its log, provably identical to one that
//! never crashed.
//!
//! Recovery is replay, not deserialization: the newest usable snapshot supplies the
//! engine shape and a bounded-horizon op prefix, the log segments at or after the
//! snapshot's index supply the suffix, and every op is pushed through the ordinary
//! engine API ([`stream::Engine`]) in its original order — in **one pass**: the engine
//! is built when the `Init` record (or the snapshot header) is read, each op is
//! applied as it is decoded, and its frame goes onto the resumed log's horizon-pruned
//! [`Tail`]. So recovery holds one loaded segment and the tail, never the decoded
//! history, whatever the length of the log. Registrations replay with
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
use crate::segment::{file_name, list_indices, FrameReader, SEGMENT, SNAPSHOT};
use crate::snapshot;
use crate::wal::{Tail, Wal, WalConfig};
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

fn divergence(detail: impl Into<String>) -> DurableError {
    DurableError::ReplayDivergence {
        detail: detail.into(),
    }
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

/// An engine being rebuilt: it exists from the moment the log's shape is known, and
/// every op is applied to it as it is read.
struct Replay<E> {
    engine: E,
    init: InitRecord,
    /// Snapshot-time visibility floors; none unless a snapshot was used.
    floors: Vec<(TenantId, Vec<u64>)>,
    live: BTreeMap<u64, RecoveredRegistration>,
    /// The frames of the replayed ops still inside the horizon — the resumed log's.
    tail: Tail,
    replayed: u64,
}

impl<E: Engine> Replay<E> {
    /// Builds the empty engine `init` describes, or refuses a log of another kind.
    fn start(
        mut init: InitRecord,
        floors: Vec<(u64, Vec<u64>)>,
        tail: Tail,
    ) -> Result<Self, DurableError> {
        let kind = EngineKind::of::<E>();
        // A log a bare `Detector` wrote is a one-shard sharded log under an older tag.
        if init.kind == EngineKind::Detector && kind == EngineKind::Sharded {
            init.kind = kind;
        }
        if init.kind != kind {
            return Err(DurableError::EngineMismatch {
                expected: kind,
                found: init.kind,
            });
        }
        let shards = init.shards as usize;
        let single_stream = kind != EngineKind::Pool;
        if floors
            .iter()
            .any(|(tenant, f)| f.len() != shards || (single_stream && *tenant != 0))
        {
            return Err(divergence(format!(
                "snapshot floors must cover all {shards} shards of a {kind} engine's streams"
            )));
        }
        let stats = LabelPairStats::from_pair_counts(init.stats.iter().copied());
        Ok(Self {
            engine: E::build((init.groups as usize, shards), stats),
            init,
            floors: floors.into_iter().map(|(t, f)| (TenantId(t), f)).collect(),
            live: BTreeMap::new(),
            tail,
            replayed: 0,
        })
    }

    /// Applies one op and keeps its `frame` (as stored) for the resumed log's tail.
    fn apply(&mut self, frame: &[u8], op: WalRecord) -> Result<(), DurableError> {
        let kind = self.init.kind;
        match &op {
            WalRecord::Register {
                id,
                window,
                visible_from,
                query,
            } => {
                // Registrations were logged *after* live acceptance, so a replay
                // rejection — or a different assigned id — means the log and the
                // engine build disagree. Both are typed divergence, never silence.
                let assigned = self
                    .engine
                    .register(query.clone(), *window)
                    .map_err(|e| divergence(format!("replaying registration {id}: {e}")))?
                    .id;
                if assigned as u64 != *id {
                    return Err(divergence(format!(
                        "replay assigned query id {assigned}, log recorded {id}"
                    )));
                }
                self.live.insert(
                    *id,
                    RecoveredRegistration {
                        id: assigned,
                        window: *window,
                        visible_from: *visible_from,
                    },
                );
            }
            WalRecord::Deregister { id } => {
                self.engine
                    .deregister(*id as QueryId)
                    .map_err(|e| divergence(format!("replaying deregistration {id}: {e}")))?;
                self.live.remove(id);
            }
            WalRecord::Batch(_) | WalRecord::TenantBatch(_) => {
                let events = batch_for::<E>(&op)
                    .ok_or_else(|| divergence(format!("foreign batch kind in a {kind} log")))?;
                // Engine-level batch errors replay exactly as they happened live, and
                // the live run already emitted the detections.
                let _ = self.engine.on_batch(events);
            }
            WalRecord::Quiesce { tenant } => {
                if kind != EngineKind::Pool {
                    return Err(divergence(format!("tenant quiesce in a {kind} log")));
                }
                // Replay needs only the state change (eviction + saved floors).
                let _ = self.engine.quiesce(TenantId(*tenant));
            }
            shape => unreachable!("only operations are applied, not {shape:?}"),
        }
        self.tail.push(frame);
        self.replayed += 1;
        Ok(())
    }
}

fn recover_engine<E: Engine>(
    dir: &Path,
    config: WalConfig,
    tolerant: bool,
) -> Result<Recovered<E>, DurableError> {
    // Newest usable snapshot first. Strict mode trusts exactly the newest snapshot
    // (a damaged one is an error to surface, not to route around); tolerant mode
    // walks back to older snapshots, and ultimately to a full-log replay. Only an
    // unreadable snapshot is routed around — one that reads and then disagrees with
    // the engine is as fatal as the same disagreement in a segment.
    let mut replay: Option<Replay<E>> = None;
    let mut first_segment = 0;
    for &index in list_indices(dir, SNAPSHOT)?.iter().rev() {
        let loaded = snapshot::load(
            &dir.join(file_name(SNAPSHOT, index)),
            |header| {
                let tail = Tail::from_header(&header);
                Replay::start(header.init, header.floors, tail)
            },
            Replay::apply,
        );
        match loaded {
            Ok(loaded) => {
                (replay, first_segment) = (Some(loaded), index);
                break;
            }
            Err(DurableError::Io { .. } | DurableError::Damage(_) | DurableError::Codec { .. })
                if tolerant => {}
            Err(e) => return Err(e),
        }
    }

    let missing_init = || DurableError::MissingInit {
        dir: dir.to_path_buf(),
    };
    let mut damage = None;
    let mut records_dropped = 0u64;
    let mut bytes_unreadable = 0u64;
    let indices: Vec<u64> = list_indices(dir, SEGMENT)?
        .into_iter()
        .filter(|&i| i >= first_segment)
        .collect();
    'segments: for (position, &index) in indices.iter().enumerate() {
        let path = dir.join(file_name(SEGMENT, index));
        let mut reader = FrameReader::open(&path)?;
        loop {
            let (offset, frame, record) = match WalRecord::read_next(&mut reader, &path) {
                Ok(Some(read)) => read,
                Ok(None) => break,
                Err(DurableError::Damage(found)) if tolerant => {
                    // Nothing at or after a tear is trustworthy — in this segment
                    // or any later one. Account exactly for what the truncation
                    // costs: the unreadable remainder of this segment, plus every
                    // intact record in later segments.
                    damage = Some(found);
                    bytes_unreadable += reader.remaining_bytes();
                    for &later in &indices[position + 1..] {
                        let mut later = FrameReader::open(dir.join(file_name(SEGMENT, later)))?;
                        while let Ok(Some(_)) = later.next() {
                            records_dropped += 1;
                        }
                        // Nothing at a clean end, the damaged remainder otherwise.
                        bytes_unreadable += later.remaining_bytes();
                    }
                    break 'segments;
                }
                Err(e) => return Err(e),
            };
            match record {
                WalRecord::Init(_) if replay.is_some() => {
                    return Err(divergence(format!(
                        "duplicate Init record at {}:{offset}",
                        path.display()
                    )));
                }
                WalRecord::Init(init) => {
                    replay = Some(Replay::start(init, Vec::new(), Tail::default())?);
                }
                WalRecord::SnapshotHeader(_) | WalRecord::SnapshotFooter { .. } => {
                    let detail = "snapshot record inside a log segment";
                    return Err(DurableError::codec(&path, offset, detail));
                }
                op => replay.as_mut().ok_or_else(missing_init)?.apply(frame, op)?,
            }
        }
    }

    let mut replay = replay.ok_or_else(missing_init)?;
    // Floors restore *after* replay: restoring ratchets (never lowers), so the
    // result is the max of the snapshot-time floor and anything replay re-evicted —
    // the live engine's floor at the same point in the stream.
    replay.engine.restore_visible_floors(&replay.floors);

    let wal = Wal::resume(dir.to_path_buf(), config, replay.init, replay.tail)?;
    replay.engine.set_durability(Some(Box::new(wal.clone())));

    Ok(Recovered {
        engine: replay.engine,
        wal,
        registrations: replay.live.into_values().collect(),
        damage,
        records_replayed: replay.replayed,
        records_dropped,
        bytes_unreadable,
    })
}

/// Rebuilds engine `E` from the log at `dir`, refusing damaged logs. The log must
/// have been written by the same kind of engine ([`DurableError::EngineMismatch`]
/// otherwise); shard and group counts come from the log, not from the caller.
///
/// Errors surface in log order, because the log is read once: the kind is checked
/// the moment the `Init` record (or snapshot header) is read, so a foreign log is an
/// `EngineMismatch` even when it is also damaged further on; an operation before any
/// `Init` — or a log with none — is [`DurableError::MissingInit`], a second `Init` a
/// [`DurableError::ReplayDivergence`]; damage and undecodable records are reported at
/// the frame where the scan meets them. No engine is returned with an error.
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
    use crate::snapshot::tests::{framed, load_all};
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
            std::fs::write(dir.join(file_name(SEGMENT, index)), framed(&records)).unwrap();
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
        snapshot::write(&dir, 1, header, &framed(&ops), ops.len() as u64).unwrap();
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
        assert_eq!(load_all(&path).unwrap().0.init.kind, EngineKind::Sharded);
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

    /// A fresh log directory whose segment `i` holds `segments[i]`, framed.
    fn log_of(tag: &str, segments: &[Vec<WalRecord>]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("durable-order-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (index, records) in segments.iter().enumerate() {
            std::fs::write(dir.join(file_name(SEGMENT, index as u64)), framed(records)).unwrap();
        }
        dir
    }

    fn init(kind: EngineKind) -> WalRecord {
        WalRecord::Init(InitRecord {
            kind,
            shards: 1,
            groups: 1,
            stats: Vec::new(),
        })
    }

    #[test]
    fn an_op_before_any_init_and_a_log_without_one_are_missing_init() {
        let batch = WalRecord::Batch(vec![event(1)]);
        let logs = [
            vec![vec![batch.clone(), init(EngineKind::Sharded)]],
            vec![vec![batch.clone()], vec![batch]],
            vec![vec![]],
        ];
        for (i, segments) in logs.iter().enumerate() {
            let dir = log_of(&format!("no-init-{i}"), segments);
            for tolerant in [false, true] {
                let recovered =
                    recover_engine::<ShardedDetector>(&dir, WalConfig::default(), tolerant);
                assert!(
                    matches!(recovered, Err(DurableError::MissingInit { .. })),
                    "log {i}, tolerant {tolerant}: {recovered:?}"
                );
            }
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn a_second_init_is_typed_divergence() {
        let segments = [vec![
            init(EngineKind::Sharded),
            WalRecord::Batch(vec![event(1)]),
            init(EngineKind::Sharded),
        ]];
        let dir = log_of("two-inits", &segments);
        let recovered = recover::<ShardedDetector>(&dir, WalConfig::default());
        assert!(
            matches!(&recovered, Err(DurableError::ReplayDivergence { detail }) if detail.contains("duplicate Init")),
            "{recovered:?}"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The order one-pass recovery reports in: the log's kind is checked when its
    /// `Init` is read, before the scan meets damage further on. (Two passes used to
    /// report the damage first.)
    #[test]
    fn a_foreign_log_is_an_engine_mismatch_even_when_damaged_further_on() {
        let segments = [vec![
            init(EngineKind::Pool),
            WalRecord::Batch(vec![event(1)]),
        ]];
        let dir = log_of("foreign-damaged", &segments);
        let path = dir.join(file_name(SEGMENT, 0));
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        for tolerant in [false, true] {
            let recovered = recover_engine::<ShardedDetector>(&dir, WalConfig::default(), tolerant);
            assert!(
                matches!(
                    recovered,
                    Err(DurableError::EngineMismatch {
                        expected: EngineKind::Sharded,
                        found: EngineKind::Pool,
                    })
                ),
                "tolerant {tolerant}: {recovered:?}"
            );
        }
        // The same damage in a log of the right kind is what strict recovery reports.
        let mut segment = framed(&[init(EngineKind::Sharded), WalRecord::Batch(vec![event(1)])]);
        *segment.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, segment).unwrap();
        assert!(matches!(
            recover::<ShardedDetector>(&dir, WalConfig::default()),
            Err(DurableError::Damage(WalDamage::ChecksumMismatch { .. }))
        ));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
