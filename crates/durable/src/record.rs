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

use crate::codec::{put_len, put_u32, put_u64, put_u8, CodecError, Reader};
use query::compile::CompiledQuery;
use std::any::TypeId;
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

fn put_label(buf: &mut Vec<u8>, label: Label) {
    put_u32(buf, label.0);
}

fn get_label(reader: &mut Reader<'_>) -> Result<Label, CodecError> {
    Ok(Label(reader.u32("label")?))
}

fn put_labels(buf: &mut Vec<u8>, labels: &[Label]) {
    put_len(buf, labels.len());
    for &label in labels {
        put_label(buf, label);
    }
}

fn get_labels(reader: &mut Reader<'_>) -> Result<Vec<Label>, CodecError> {
    let len = reader.len("labels", 4)?;
    (0..len).map(|_| get_label(reader)).collect()
}

fn put_event(buf: &mut Vec<u8>, event: &StreamEvent) {
    put_u64(buf, event.ts);
    put_u64(buf, event.src as u64);
    put_u64(buf, event.dst as u64);
    put_label(buf, event.src_label);
    put_label(buf, event.dst_label);
}

/// Encoded size of one [`StreamEvent`] (the plausibility floor for batch lengths).
const EVENT_BYTES: usize = 32;

fn get_event(reader: &mut Reader<'_>) -> Result<StreamEvent, CodecError> {
    Ok(StreamEvent {
        ts: reader.u64("event ts")?,
        src: reader.u64("event src")? as usize,
        dst: reader.u64("event dst")? as usize,
        src_label: get_label(reader)?,
        dst_label: get_label(reader)?,
    })
}

fn put_query(buf: &mut Vec<u8>, query: &CompiledQuery) {
    match query {
        CompiledQuery::Temporal(pattern) => {
            put_u8(buf, 0);
            put_labels(buf, pattern.labels());
            put_len(buf, pattern.edges().len());
            for edge in pattern.edges() {
                put_u32(buf, edge.src as u32);
                put_u32(buf, edge.dst as u32);
            }
        }
        CompiledQuery::Static(pattern) => {
            put_u8(buf, 1);
            put_labels(buf, &pattern.labels);
            put_len(buf, pattern.edges.len());
            for &(src, dst) in &pattern.edges {
                put_u32(buf, src as u32);
                put_u32(buf, dst as u32);
            }
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
            let labels = get_labels(reader)?;
            let edge_count = reader.len("pattern edges", 8)?;
            let edges = (0..edge_count)
                .map(|_| {
                    Ok(PatternEdge {
                        src: reader.u32("edge src")? as usize,
                        dst: reader.u32("edge dst")? as usize,
                    })
                })
                .collect::<Result<Vec<_>, CodecError>>()?;
            let pattern = TemporalPattern::from_parts(labels, edges)
                .map_err(|e| CodecError::new(format!("invalid temporal pattern: {e}")))?;
            Ok(CompiledQuery::Temporal(pattern))
        }
        1 => {
            let labels = get_labels(reader)?;
            let edge_count = reader.len("pattern edges", 8)?;
            let edges = (0..edge_count)
                .map(|_| {
                    Ok((
                        reader.u32("edge src")? as usize,
                        reader.u32("edge dst")? as usize,
                    ))
                })
                .collect::<Result<Vec<_>, CodecError>>()?;
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
        put_label(buf, src);
        put_label(buf, dst);
        put_u64(buf, count);
    }
}

fn get_init(reader: &mut Reader<'_>) -> Result<InitRecord, CodecError> {
    let kind = EngineKind::from_u8(reader.u8("engine kind")?)?;
    let shards = reader.u32("shard count")?;
    let groups = reader.u32("group count")?;
    let stats_len = reader.len("stats pairs", 16)?;
    let stats = (0..stats_len)
        .map(|_| {
            let src = get_label(reader)?;
            let dst = get_label(reader)?;
            let count = reader.u64("pair count")?;
            Ok(((src, dst), count))
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    Ok(InitRecord {
        kind,
        shards,
        groups,
        stats,
    })
}

impl WalRecord {
    /// Whether the record is a replayable operation — a kind that mutates engine
    /// state. `Init` and the snapshot envelope describe shape, not operations.
    pub(crate) fn is_op(&self) -> bool {
        !matches!(
            self,
            WalRecord::Init(_) | WalRecord::SnapshotHeader(_) | WalRecord::SnapshotFooter { .. }
        )
    }

    /// Encodes the record payload (tag byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            WalRecord::Init(init) => {
                put_u8(&mut buf, 1);
                put_init(&mut buf, init);
            }
            WalRecord::Register {
                id,
                window,
                visible_from,
                query,
            } => {
                put_u8(&mut buf, 2);
                put_u64(&mut buf, *id);
                put_u64(&mut buf, *window);
                put_u64(&mut buf, *visible_from);
                put_query(&mut buf, query);
            }
            WalRecord::Deregister { id } => {
                put_u8(&mut buf, 3);
                put_u64(&mut buf, *id);
            }
            WalRecord::Batch(events) => {
                put_u8(&mut buf, 4);
                put_len(&mut buf, events.len());
                for event in events {
                    put_event(&mut buf, event);
                }
            }
            WalRecord::TenantBatch(events) => {
                put_u8(&mut buf, 5);
                put_len(&mut buf, events.len());
                for te in events {
                    put_u64(&mut buf, te.tenant.0);
                    put_event(&mut buf, &te.event);
                }
            }
            WalRecord::SnapshotHeader(header) => {
                put_u8(&mut buf, 6);
                put_init(&mut buf, &header.init);
                put_u64(&mut buf, header.max_window);
                match header.last_ts {
                    None => put_u8(&mut buf, 0),
                    Some(ts) => {
                        put_u8(&mut buf, 1);
                        put_u64(&mut buf, ts);
                    }
                }
                put_len(&mut buf, header.tenant_last_ts.len());
                for &(tenant, ts) in &header.tenant_last_ts {
                    put_u64(&mut buf, tenant);
                    put_u64(&mut buf, ts);
                }
                put_len(&mut buf, header.floors.len());
                for (tenant, floors) in &header.floors {
                    put_u64(&mut buf, *tenant);
                    put_len(&mut buf, floors.len());
                    for &floor in floors {
                        put_u64(&mut buf, floor);
                    }
                }
            }
            WalRecord::SnapshotFooter { ops } => {
                put_u8(&mut buf, 7);
                put_u64(&mut buf, *ops);
            }
            WalRecord::Quiesce { tenant } => {
                put_u8(&mut buf, 8);
                put_u64(&mut buf, *tenant);
            }
        }
        buf
    }

    /// Decodes a record payload, rejecting unknown tags, truncated fields, and
    /// trailing bytes with a typed [`CodecError`].
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut reader = Reader::new(payload);
        let record = match reader.u8("record tag")? {
            1 => WalRecord::Init(get_init(&mut reader)?),
            2 => WalRecord::Register {
                id: reader.u64("query id")?,
                window: reader.u64("window")?,
                visible_from: reader.u64("visible_from")?,
                query: get_query(&mut reader)?,
            },
            3 => WalRecord::Deregister {
                id: reader.u64("query id")?,
            },
            4 => {
                let len = reader.len("batch events", EVENT_BYTES)?;
                WalRecord::Batch(
                    (0..len)
                        .map(|_| get_event(&mut reader))
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
            5 => {
                let len = reader.len("tenant batch events", EVENT_BYTES + 8)?;
                WalRecord::TenantBatch(
                    (0..len)
                        .map(|_| {
                            Ok(TenantedEvent {
                                tenant: TenantId(reader.u64("tenant id")?),
                                event: get_event(&mut reader)?,
                            })
                        })
                        .collect::<Result<Vec<_>, CodecError>>()?,
                )
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
                let tenant_len = reader.len("tenant last_ts", 16)?;
                let tenant_last_ts = (0..tenant_len)
                    .map(|_| Ok((reader.u64("tenant id")?, reader.u64("tenant last_ts")?)))
                    .collect::<Result<Vec<_>, CodecError>>()?;
                let floors_len = reader.len("floor entries", 12)?;
                let floors = (0..floors_len)
                    .map(|_| {
                        let tenant = reader.u64("tenant id")?;
                        let shard_len = reader.len("shard floors", 8)?;
                        let shard_floors = (0..shard_len)
                            .map(|_| reader.u64("floor"))
                            .collect::<Result<Vec<_>, _>>()?;
                        Ok((tenant, shard_floors))
                    })
                    .collect::<Result<Vec<_>, CodecError>>()?;
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
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn every_record_kind_round_trips() {
        let pattern = random_pattern(42, 3, 4);
        let records = vec![
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
        ];
        for record in records {
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
}
