//! The typed log records and their stable binary payloads.
//!
//! A payload is `[tag: u8][body]`; the surrounding length + checksum frame lives in
//! [`crate::segment`]. Tags are append-only — a new record kind gets a new tag, an
//! existing encoding is never altered (old logs must stay replayable).
//!
//! | tag | record             | role                                                   |
//! |-----|--------------------|--------------------------------------------------------|
//! | 1   | `Init`             | engine shape: kind, shard/group counts, placement stats |
//! | 2   | `Register`         | accepted registration: id, window, original `visible_from`, query |
//! | 3   | `Deregister`       | accepted deregistration                                 |
//! | 4   | `Batch`            | a delivered [`StreamEvent`] batch (logged before apply) |
//! | 5   | `TenantBatch`      | a delivered [`TenantedEvent`] batch                     |
//! | 6   | `SnapshotHeader`   | snapshot files only: engine shape + replay-horizon state |
//! | 7   | `SnapshotFooter`   | snapshot files only: op count (completeness check)      |
//! | 8   | `Quiesce`          | a silent tenant was flushed and evicted (logged before) |

use crate::codec::{put_len, put_u32, put_u64, put_u8, u32_at, u64_at, CodecError, Reader};
use crate::error::DurableError;
use crate::segment::{FrameReader, FRAME_HEADER_BYTES};
use query::compile::CompiledQuery;
use std::any::TypeId;
use std::path::Path;
use stream::Engine;
use tgminer::baselines::gspan::StaticPattern;
use tgminer::baselines::nodeset::NodeSetQuery;
use tgraph::pattern::{PatternEdge, TemporalPattern};
use tgraph::{Label, StreamEvent, TenantId, TenantedEvent};

/// Which engine a log belongs to. Recovery refuses to rebuild a different kind than
/// the one that wrote the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Read-only: a bare [`stream::Detector`], from when one could carry a log of its
    /// own. Nothing writes this kind any more; such a log is record for record a
    /// one-shard [`EngineKind::Sharded`] log and recovers as one.
    Detector,
    /// A [`stream::ShardedDetector`] (one stream, query sharding).
    Sharded,
    /// A [`stream::TenantPool`] (tenant demux over sharded detectors).
    Pool,
}

impl EngineKind {
    /// The kind engine `E` logs as: a pool iff it ingests tenant-tagged events.
    pub(crate) fn of<E: Engine>() -> Self {
        if TypeId::of::<E::Event>() == TypeId::of::<TenantedEvent>() {
            EngineKind::Pool
        } else {
            EngineKind::Sharded
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            EngineKind::Detector => 0,
            EngineKind::Sharded => 1,
            EngineKind::Pool => 2,
        }
    }

    fn from_u8(value: u8) -> Result<Self, CodecError> {
        match value {
            0 => Ok(EngineKind::Detector),
            1 => Ok(EngineKind::Sharded),
            2 => Ok(EngineKind::Pool),
            other => Err(CodecError::new(format!("unknown engine kind {other}"))),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineKind::Detector => "detector",
            EngineKind::Sharded => "sharded",
            EngineKind::Pool => "pool",
        })
    }
}

/// The engine shape, written once as the log's first record. Recovery constructs the
/// replacement engine from exactly this: same kind, same shard/group counts, same
/// label-pair statistics — so greedy query→shard placement replays identically.
#[derive(Debug, Clone, PartialEq)]
pub struct InitRecord {
    /// Which engine wrote the log.
    pub kind: EngineKind,
    /// Query shards (per tenant, for a pool).
    pub shards: u32,
    /// Tenant groups (pools only). 1 otherwise.
    pub groups: u32,
    /// Serialized [`stream::LabelPairStats`] pair counts (placement cost model).
    pub stats: Vec<((Label, Label), u64)>,
}

/// The state a snapshot carries besides its replayable op tail: everything recovery
/// cannot re-derive from a horizon-pruned history.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotHeader {
    /// The engine shape (as in [`InitRecord`]).
    pub init: InitRecord,
    /// Largest window ever registered — fixes the replay horizon for later pruning.
    pub max_window: u64,
    /// Last event timestamp the engine saw (single-stream engines).
    pub last_ts: Option<u64>,
    /// Last event timestamp per tenant (pools; raw tenant ids).
    pub tenant_last_ts: Vec<(u64, u64)>,
    /// Per-shard visibility floors, keyed by raw tenant id (0 for single-tenant
    /// engines): replaying a pruned history may never re-trigger the evictions that
    /// set them live, so they are recorded and restored explicitly.
    pub floors: Vec<(u64, Vec<u64>)>,
}

/// A decoded log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// The engine shape (first record of a log).
    Init(InitRecord),
    /// An accepted registration, with the id the engine assigned and the original
    /// `visible_from` the live registration reported.
    Register {
        /// Assigned query id.
        id: u64,
        /// Match window.
        window: u64,
        /// The live registration's look-back floor — surfaced verbatim on recovery.
        visible_from: u64,
        /// The registered query.
        query: CompiledQuery,
    },
    /// An accepted deregistration.
    Deregister {
        /// The removed query id.
        id: u64,
    },
    /// A delivered single-stream event batch.
    Batch(Vec<StreamEvent>),
    /// A delivered tenant-tagged event batch.
    TenantBatch(Vec<TenantedEvent>),
    /// Snapshot files only: the non-replayable state.
    SnapshotHeader(SnapshotHeader),
    /// Snapshot files only: the number of op records that preceded it. A snapshot
    /// without a matching footer is incomplete and is not used.
    SnapshotFooter {
        /// Op records between header and footer.
        ops: u64,
    },
    /// A silent tenant was quiesced: flushed (pending detections emitted) and
    /// evicted from its group. Logged before the eviction so replay drains the
    /// same pending state at the same point in the op sequence.
    Quiesce {
        /// The evicted tenant (raw id).
        tenant: u64,
    },
}

fn get_label(reader: &mut Reader<'_>) -> Result<Label, CodecError> {
    Ok(Label(reader.u32("label")?))
}

fn put_labels(buf: &mut Vec<u8>, labels: &[Label]) {
    put_len(buf, labels.len());
    for &label in labels {
        put_u32(buf, label.0);
    }
}

fn get_labels(reader: &mut Reader<'_>) -> Result<Vec<Label>, CodecError> {
    reader.seq("labels", 4, get_label)
}

/// Encoded size of one [`StreamEvent`]: `ts`, `src`, `dst` as `u64`, two `u32` labels.
/// A [`TenantedEvent`] is its `u64` tenant id followed by the event.
const EVENT_BYTES: usize = 32;
const TENANT_BYTES: usize = 8;
const TENANTED_EVENT_BYTES: usize = TENANT_BYTES + EVENT_BYTES;

/// Payload tags of the records the replay tail reads without decoding them.
pub(crate) const TAG_REGISTER: u8 = 2;
pub(crate) const TAG_BATCH: u8 = 4;
pub(crate) const TAG_TENANT_BATCH: u8 = 5;
/// Where a `Register` payload keeps its window: after the tag and the `u64` id.
pub(crate) const REGISTER_WINDOW_AT: usize = 9;
/// Where a batch payload's events start: after the tag and the `u32` count.
const BATCH_EVENTS_AT: usize = 5;

fn event_bytes(event: &StreamEvent) -> [u8; EVENT_BYTES] {
    let mut bytes = [0; EVENT_BYTES];
    bytes[0..8].copy_from_slice(&event.ts.to_le_bytes());
    bytes[8..16].copy_from_slice(&(event.src as u64).to_le_bytes());
    bytes[16..24].copy_from_slice(&(event.dst as u64).to_le_bytes());
    bytes[24..28].copy_from_slice(&event.src_label.0.to_le_bytes());
    bytes[28..32].copy_from_slice(&event.dst_label.0.to_le_bytes());
    bytes
}

fn event_at(bytes: &[u8]) -> StreamEvent {
    let bytes: &[u8; EVENT_BYTES] = bytes.try_into().expect("one event's stride");
    StreamEvent {
        ts: u64_at(bytes, 0),
        src: u64_at(bytes, 8) as usize,
        dst: u64_at(bytes, 16) as usize,
        src_label: Label(u32_at(bytes, 24)),
        dst_label: Label(u32_at(bytes, 28)),
    }
}

/// The `Batch` payload of a borrowed slice — what the append path logs, without a
/// [`WalRecord`] in between.
pub(crate) fn put_batch(buf: &mut Vec<u8>, events: &[StreamEvent]) {
    put_u8(buf, TAG_BATCH);
    put_len(buf, events.len());
    buf.reserve(events.len() * EVENT_BYTES);
    for event in events {
        buf.extend_from_slice(&event_bytes(event));
    }
}

/// The `TenantBatch` payload of a borrowed slice (see [`put_batch`]).
pub(crate) fn put_tenant_batch(buf: &mut Vec<u8>, events: &[TenantedEvent]) {
    put_u8(buf, TAG_TENANT_BATCH);
    put_len(buf, events.len());
    buf.reserve(events.len() * TENANTED_EVENT_BYTES);
    for te in events {
        let mut entry = [0; TENANTED_EVENT_BYTES];
        entry[..TENANT_BYTES].copy_from_slice(&te.tenant.0.to_le_bytes());
        entry[TENANT_BYTES..].copy_from_slice(&event_bytes(&te.event));
        buf.extend_from_slice(&entry);
    }
}

/// `(tenant, ts)` of every event of an encoded batch, in order — tenant 0 on the
/// single stream — and nothing for any other record. `payload` must be one this
/// module encoded or [`WalRecord::decode`] accepted.
pub(crate) fn stamps(payload: &[u8]) -> impl DoubleEndedIterator<Item = (u64, u64)> + '_ {
    // `prefix`: the bytes of an entry before its event — the tenant id, or nothing.
    let (events, prefix) = match payload[0] {
        TAG_BATCH => (&payload[BATCH_EVENTS_AT..], 0),
        TAG_TENANT_BATCH => (&payload[BATCH_EVENTS_AT..], TENANT_BYTES),
        _ => (&payload[..0], 0),
    };
    events.chunks_exact(prefix + EVENT_BYTES).map(move |e| {
        (
            if prefix == 0 { 0 } else { u64_at(e, 0) },
            u64_at(e, prefix),
        )
    })
}

/// Node labels and `(src, dst)` edges — the body temporal and static queries share.
fn put_pattern(
    buf: &mut Vec<u8>,
    labels: &[Label],
    edges: impl ExactSizeIterator<Item = (usize, usize)>,
) {
    put_labels(buf, labels);
    put_len(buf, edges.len());
    for (src, dst) in edges {
        put_u32(buf, src as u32);
        put_u32(buf, dst as u32);
    }
}

type Pattern = (Vec<Label>, Vec<(usize, usize)>);

fn get_pattern(reader: &mut Reader<'_>) -> Result<Pattern, CodecError> {
    let labels = get_labels(reader)?;
    let edge = |r: &mut Reader<'_>| Ok((r.u32("edge src")? as usize, r.u32("edge dst")? as usize));
    Ok((labels, reader.seq("pattern edges", 8, edge)?))
}

fn put_query(buf: &mut Vec<u8>, query: &CompiledQuery) {
    match query {
        CompiledQuery::Temporal(pattern) => {
            put_u8(buf, 0);
            let edges = pattern.edges().iter().map(|e| (e.src, e.dst));
            put_pattern(buf, pattern.labels(), edges);
        }
        CompiledQuery::Static(pattern) => {
            put_u8(buf, 1);
            put_pattern(buf, &pattern.labels, pattern.edges.iter().copied());
        }
        CompiledQuery::NodeSet(query) => {
            put_u8(buf, 2);
            put_labels(buf, &query.labels);
        }
    }
}

fn get_query(reader: &mut Reader<'_>) -> Result<CompiledQuery, CodecError> {
    match reader.u8("query kind")? {
        0 => {
            let (labels, edges) = get_pattern(reader)?;
            let edges = edges.into_iter().map(|(src, dst)| PatternEdge { src, dst });
            let pattern = TemporalPattern::from_parts(labels, edges.collect())
                .map_err(|e| CodecError::new(format!("invalid temporal pattern: {e}")))?;
            Ok(CompiledQuery::Temporal(pattern))
        }
        1 => {
            let (labels, edges) = get_pattern(reader)?;
            Ok(CompiledQuery::Static(StaticPattern { labels, edges }))
        }
        2 => Ok(CompiledQuery::NodeSet(NodeSetQuery {
            labels: get_labels(reader)?,
        })),
        other => Err(CodecError::new(format!("unknown query kind {other}"))),
    }
}

fn put_init(buf: &mut Vec<u8>, init: &InitRecord) {
    put_u8(buf, init.kind.to_u8());
    put_u32(buf, init.shards);
    put_u32(buf, init.groups);
    put_len(buf, init.stats.len());
    for &((src, dst), count) in &init.stats {
        put_u32(buf, src.0);
        put_u32(buf, dst.0);
        put_u64(buf, count);
    }
}

fn get_init(reader: &mut Reader<'_>) -> Result<InitRecord, CodecError> {
    let kind = EngineKind::from_u8(reader.u8("engine kind")?)?;
    let shards = reader.u32("shard count")?;
    let groups = reader.u32("group count")?;
    let stats = reader.seq("stats pairs", 16, |r| {
        Ok(((get_label(r)?, get_label(r)?), r.u64("pair count")?))
    })?;
    Ok(InitRecord {
        kind,
        shards,
        groups,
        stats,
    })
}

/// A frame read back: its offset, its bytes (header included), its decoded payload.
pub(crate) type ReadFrame<'a> = (u64, &'a [u8], WalRecord);

impl WalRecord {
    /// Encodes the record payload (tag byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the record payload to `buf`.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Init(init) => {
                put_u8(buf, 1);
                put_init(buf, init);
            }
            WalRecord::Register {
                id,
                window,
                visible_from,
                query,
            } => {
                put_u8(buf, TAG_REGISTER);
                put_u64(buf, *id);
                put_u64(buf, *window);
                put_u64(buf, *visible_from);
                put_query(buf, query);
            }
            WalRecord::Deregister { id } => {
                put_u8(buf, 3);
                put_u64(buf, *id);
            }
            WalRecord::Batch(events) => put_batch(buf, events),
            WalRecord::TenantBatch(events) => put_tenant_batch(buf, events),
            WalRecord::SnapshotHeader(header) => {
                put_u8(buf, 6);
                put_init(buf, &header.init);
                put_u64(buf, header.max_window);
                match header.last_ts {
                    None => put_u8(buf, 0),
                    Some(ts) => {
                        put_u8(buf, 1);
                        put_u64(buf, ts);
                    }
                }
                put_len(buf, header.tenant_last_ts.len());
                for &(tenant, ts) in &header.tenant_last_ts {
                    put_u64(buf, tenant);
                    put_u64(buf, ts);
                }
                put_len(buf, header.floors.len());
                for (tenant, floors) in &header.floors {
                    put_u64(buf, *tenant);
                    put_len(buf, floors.len());
                    for &floor in floors {
                        put_u64(buf, floor);
                    }
                }
            }
            WalRecord::SnapshotFooter { ops } => {
                put_u8(buf, 7);
                put_u64(buf, *ops);
            }
            WalRecord::Quiesce { tenant } => {
                put_u8(buf, 8);
                put_u64(buf, *tenant);
            }
        }
    }

    /// Decodes a record payload, rejecting unknown tags, truncated fields, and
    /// trailing bytes with a typed [`CodecError`].
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut reader = Reader::new(payload);
        let record = match reader.u8("record tag")? {
            1 => WalRecord::Init(get_init(&mut reader)?),
            TAG_REGISTER => WalRecord::Register {
                id: reader.u64("query id")?,
                window: reader.u64("window")?,
                visible_from: reader.u64("visible_from")?,
                query: get_query(&mut reader)?,
            },
            3 => WalRecord::Deregister {
                id: reader.u64("query id")?,
            },
            // Batches are fixed-stride: once the count is plausible for the bytes that
            // remain (so `len × stride` is bounded by the payload), take them whole.
            TAG_BATCH => {
                let len = reader.len("batch events", EVENT_BYTES)?;
                let events = reader.take(len * EVENT_BYTES, "batch events")?;
                WalRecord::Batch(events.chunks_exact(EVENT_BYTES).map(event_at).collect())
            }
            TAG_TENANT_BATCH => {
                let len = reader.len("tenant batch events", TENANTED_EVENT_BYTES)?;
                let events = reader.take(len * TENANTED_EVENT_BYTES, "tenant batch events")?;
                let events = events
                    .chunks_exact(TENANTED_EVENT_BYTES)
                    .map(|e| TenantedEvent {
                        tenant: TenantId(u64_at(e, 0)),
                        event: event_at(&e[TENANT_BYTES..]),
                    });
                WalRecord::TenantBatch(events.collect())
            }
            6 => {
                let init = get_init(&mut reader)?;
                let max_window = reader.u64("max window")?;
                let last_ts = match reader.u8("last_ts tag")? {
                    0 => None,
                    1 => Some(reader.u64("last_ts")?),
                    other => {
                        return Err(CodecError::new(format!("bad option tag {other}")));
                    }
                };
                let tenant_last_ts = reader.seq("tenant last_ts", 16, |r| {
                    Ok((r.u64("tenant id")?, r.u64("tenant last_ts")?))
                })?;
                let floors = reader.seq("floor entries", 12, |r| {
                    let tenant = r.u64("tenant id")?;
                    Ok((tenant, r.seq("shard floors", 8, |r| r.u64("floor"))?))
                })?;
                WalRecord::SnapshotHeader(SnapshotHeader {
                    init,
                    max_window,
                    last_ts,
                    tenant_last_ts,
                    floors,
                })
            }
            7 => WalRecord::SnapshotFooter {
                ops: reader.u64("op count")?,
            },
            8 => WalRecord::Quiesce {
                tenant: reader.u64("tenant id")?,
            },
            other => return Err(CodecError::new(format!("unknown record tag {other}"))),
        };
        reader.done("record")?;
        Ok(record)
    }

    /// The next frame of `reader` (which reads `file`), whole — header included —
    /// and decoded, with its offset; `None` at a clean end of file. Damage and
    /// undecodable payloads are typed errors naming the file and the offset.
    pub(crate) fn read_next<'a>(
        reader: &'a mut FrameReader,
        file: &Path,
    ) -> Result<Option<ReadFrame<'a>>, DurableError> {
        let Some((offset, frame)) = reader.next_frame().map_err(DurableError::Damage)? else {
            return Ok(None);
        };
        let decoded = Self::decode(&frame[FRAME_HEADER_BYTES..]);
        let record = decoded.map_err(|e| DurableError::codec(file, offset, e.detail))?;
        Ok(Some((offset, frame, record)))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tgraph::generator::random_pattern;

    fn event(ts: u64) -> StreamEvent {
        StreamEvent {
            ts,
            src: 3,
            dst: 5,
            src_label: Label(1),
            dst_label: Label(2),
        }
    }

    /// One record of every kind (and of every query kind).
    pub(crate) fn one_of_each_kind() -> Vec<WalRecord> {
        let pattern = random_pattern(42, 3, 4);
        vec![
            WalRecord::Init(InitRecord {
                kind: EngineKind::Pool,
                shards: 4,
                groups: 2,
                stats: vec![((Label(1), Label(2)), 9), ((Label(2), Label(2)), 1)],
            }),
            WalRecord::Register {
                id: 7,
                window: 25,
                visible_from: 81,
                query: CompiledQuery::Temporal(pattern.clone()),
            },
            WalRecord::Register {
                id: 8,
                window: 10,
                visible_from: 0,
                query: CompiledQuery::Static(StaticPattern {
                    labels: pattern.labels().to_vec(),
                    edges: pattern.edges().iter().map(|e| (e.src, e.dst)).collect(),
                }),
            },
            WalRecord::Register {
                id: 9,
                window: 3,
                visible_from: 4,
                query: CompiledQuery::NodeSet(NodeSetQuery {
                    labels: vec![Label(3), Label(1)],
                }),
            },
            WalRecord::Deregister { id: 8 },
            WalRecord::Batch(vec![event(1), event(2), event(2)]),
            WalRecord::TenantBatch(vec![
                TenantedEvent {
                    tenant: TenantId(11),
                    event: event(5),
                },
                TenantedEvent {
                    tenant: TenantId(0),
                    event: event(5),
                },
            ]),
            WalRecord::SnapshotHeader(SnapshotHeader {
                init: InitRecord {
                    kind: EngineKind::Sharded,
                    shards: 2,
                    groups: 1,
                    stats: vec![],
                },
                max_window: 25,
                last_ts: Some(99),
                tenant_last_ts: vec![(0, 99), (11, 42)],
                floors: vec![(0, vec![81, 0])],
            }),
            WalRecord::SnapshotFooter { ops: 12 },
            WalRecord::Quiesce { tenant: 11 },
        ]
    }

    #[test]
    fn every_record_kind_round_trips() {
        for record in one_of_each_kind() {
            let decoded = WalRecord::decode(&record.encode())
                .unwrap_or_else(|e| panic!("decoding {record:?}: {e}"));
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn unknown_tags_and_truncation_are_typed_errors() {
        assert!(WalRecord::decode(&[99]).is_err());
        let encoded = WalRecord::Batch(vec![event(1)]).encode();
        assert!(WalRecord::decode(&encoded[..encoded.len() - 1]).is_err());
        let mut trailing = encoded.clone();
        trailing.push(0);
        assert!(WalRecord::decode(&trailing).is_err());
    }

    #[test]
    fn non_canonical_temporal_patterns_are_rejected() {
        // Tag 0 (temporal), 2 labels, 1 edge 1->0: node 1 visited first — not canonical.
        let mut payload = vec![0u8];
        crate::codec::put_len(&mut payload, 2);
        crate::codec::put_u32(&mut payload, 5);
        crate::codec::put_u32(&mut payload, 6);
        crate::codec::put_len(&mut payload, 1);
        crate::codec::put_u32(&mut payload, 1);
        crate::codec::put_u32(&mut payload, 0);
        let mut reader = Reader::new(&payload);
        assert!(get_query(&mut reader).is_err());
    }

    /// `len` pseudo-random bytes; the first is a valid record tag half the time, so
    /// the bodies behind the tags are reached as well.
    pub(crate) fn hostile_payload(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        let mut bytes: Vec<u8> = (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        if let Some(tag) = bytes.first_mut().filter(|_| seed.is_multiple_of(2)) {
            *tag = 1 + *tag % 8;
        }
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Arbitrary bytes decode to a record or a typed error — never a panic.
        #[test]
        fn arbitrary_payloads_never_panic(seed in 0u64..u64::MAX, len in 0usize..=160) {
            let payload = hostile_payload(seed, len);
            if let Ok(record) = WalRecord::decode(&payload) {
                proptest::prop_assert_eq!(record.encode(), payload, "decode is exact");
            }
        }
    }

    #[test]
    fn every_truncation_is_an_error_and_every_single_byte_mutation_is_typed() {
        for record in one_of_each_kind() {
            let encoded = record.encode();
            for cut in 0..encoded.len() {
                assert!(
                    WalRecord::decode(&encoded[..cut]).is_err(),
                    "{record:?} cut at {cut} decoded"
                );
            }
            for at in 0..encoded.len() {
                let mut mutated = encoded.clone();
                for value in 0..=u8::MAX {
                    mutated[at] = value;
                    // Ok (another valid record) or a typed error; reaching here is the
                    // assertion — a panic or an abort fails the test.
                    let _ = WalRecord::decode(&mutated);
                }
            }
        }
    }

    #[test]
    fn a_batch_length_of_u32_max_is_refused_before_it_sizes_anything() {
        for (tag, stride) in [
            (TAG_BATCH, EVENT_BYTES),
            (TAG_TENANT_BATCH, TENANTED_EVENT_BYTES),
        ] {
            // A whole valid event follows the lying count, so only the plausibility
            // check — not the truncation check behind it — can be what refuses it.
            let mut payload = vec![tag];
            payload.extend_from_slice(&u32::MAX.to_le_bytes());
            payload.extend_from_slice(&vec![0; stride]);
            let error = WalRecord::decode(&payload).expect_err("four billion events in 40 bytes");
            assert!(error.detail.contains("implausible"), "{error}");
            // One event too few for the count it states is refused the same way.
            let mut short = vec![tag];
            short.extend_from_slice(&2u32.to_le_bytes());
            short.extend_from_slice(&vec![0; 2 * stride - 1]);
            let error = WalRecord::decode(&short).expect_err("two events in fewer bytes");
            assert!(error.detail.contains("implausible"), "{error}");
        }
    }

    #[test]
    fn stamps_read_what_the_decoder_reads() {
        for record in one_of_each_kind() {
            let expected: Vec<(u64, u64)> = match &record {
                WalRecord::Batch(events) => events.iter().map(|e| (0, e.ts)).collect(),
                WalRecord::TenantBatch(events) => {
                    events.iter().map(|te| (te.tenant.0, te.event.ts)).collect()
                }
                _ => Vec::new(),
            };
            assert_eq!(stamps(&record.encode()).collect::<Vec<_>>(), expected);
            if let WalRecord::Register { window, .. } = record {
                assert_eq!(u64_at(&record.encode(), REGISTER_WINDOW_AT), window);
            }
        }
    }
}
