//! Snapshot files: a header record, a replayable op tail, and a footer.
//!
//! A snapshot is not a serialized engine — it is a *bounded-horizon replay prefix*:
//! the engine shape plus every registration ever accepted (in original order,
//! interleaved with events — a query registered mid-stream must not see earlier
//! events on replay) plus the event batches still inside the replay horizon.
//! Recovery replays it through the ordinary engine API, which is what makes the
//! parity guarantee testable rather than asserted.
//!
//! Files are written to a `.tmp` sibling and atomically renamed into place, so a
//! crash mid-write never leaves a half-snapshot under the live name. The footer
//! carries the op count; a snapshot without a matching footer is incomplete and
//! treated as damaged.

use crate::error::{DurableError, WalDamage};
use crate::record::{SnapshotHeader, WalRecord};
use crate::segment::{snapshot_file_name, write_frame, FrameReader};
use std::fs;
use std::path::{Path, PathBuf};

/// Writes snapshot `index` into `dir`; returns `(path, bytes, op_count)`.
pub(crate) fn write(
    dir: &Path,
    index: u64,
    header: &SnapshotHeader,
    ops: &[WalRecord],
) -> Result<(PathBuf, u64, u64), DurableError> {
    let mut buf = Vec::new();
    write_frame(
        &mut buf,
        &WalRecord::SnapshotHeader(header.clone()).encode(),
    )
    .expect("vec write is infallible");
    for op in ops {
        write_frame(&mut buf, &op.encode()).expect("vec write is infallible");
    }
    let ops_count = ops.len() as u64;
    write_frame(
        &mut buf,
        &WalRecord::SnapshotFooter { ops: ops_count }.encode(),
    )
    .expect("vec write is infallible");

    let path = dir.join(snapshot_file_name(index));
    let tmp = dir.join(format!("{}.tmp", snapshot_file_name(index)));
    let bytes = buf.len() as u64;
    fs::write(&tmp, &buf).map_err(|e| DurableError::io(&tmp, e))?;
    fs::rename(&tmp, &path).map_err(|e| DurableError::io(&path, e))?;
    Ok((path, bytes, ops_count))
}

/// Loads a snapshot file, validating the header/footer envelope.
pub(crate) fn load(path: &Path) -> Result<(SnapshotHeader, Vec<WalRecord>), DurableError> {
    let mut reader = FrameReader::open(path)?;
    let decode_next = |reader: &mut FrameReader| -> Result<Option<(u64, WalRecord)>, DurableError> {
        match reader.next() {
            Ok(None) => Ok(None),
            Ok(Some((offset, payload))) => match WalRecord::decode(&payload) {
                Ok(record) => Ok(Some((offset, record))),
                Err(e) => Err(DurableError::Codec {
                    file: path.to_path_buf(),
                    offset,
                    detail: e.detail,
                }),
            },
            Err(damage) => Err(DurableError::Damage(damage)),
        }
    };

    let incomplete = |offset: u64| {
        DurableError::Damage(WalDamage::TornRecord {
            file: path.to_path_buf(),
            offset,
        })
    };

    let header = match decode_next(&mut reader)? {
        Some((_, WalRecord::SnapshotHeader(header))) => header,
        Some((offset, _)) => {
            return Err(DurableError::Codec {
                file: path.to_path_buf(),
                offset,
                detail: "snapshot does not start with a header record".into(),
            });
        }
        None => return Err(incomplete(0)),
    };

    let mut ops = Vec::new();
    loop {
        match decode_next(&mut reader)? {
            Some((offset, WalRecord::SnapshotFooter { ops: expected })) => {
                if expected != ops.len() as u64 {
                    return Err(DurableError::Codec {
                        file: path.to_path_buf(),
                        offset,
                        detail: format!(
                            "footer claims {expected} ops, snapshot holds {}",
                            ops.len()
                        ),
                    });
                }
                if decode_next(&mut reader)?.is_some() {
                    return Err(DurableError::Codec {
                        file: path.to_path_buf(),
                        offset,
                        detail: "records after the snapshot footer".into(),
                    });
                }
                return Ok((header, ops));
            }
            Some((_, op)) if op.is_op() => ops.push(op),
            Some((offset, _)) => {
                return Err(DurableError::Codec {
                    file: path.to_path_buf(),
                    offset,
                    detail: "non-op record inside snapshot body".into(),
                });
            }
            // Clean EOF without a footer: the writer died mid-snapshot (pre-rename
            // this can't normally happen, but a copied/truncated file can look so).
            None => return Err(incomplete(reader.file().metadata().map_or(0, |m| m.len()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EngineKind, InitRecord};
    use std::sync::atomic::{AtomicU64, Ordering};
    use tgraph::{Label, StreamEvent};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "durable-snap-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn header() -> SnapshotHeader {
        SnapshotHeader {
            init: InitRecord {
                kind: EngineKind::Detector,
                shards: 1,
                groups: 1,
                stats: vec![],
            },
            max_window: 7,
            last_ts: Some(40),
            tenant_last_ts: vec![],
            floors: vec![(0, vec![12])],
        }
    }

    fn ops() -> Vec<WalRecord> {
        vec![
            WalRecord::Deregister { id: 3 },
            WalRecord::Batch(vec![StreamEvent {
                ts: 40,
                src: 0,
                dst: 1,
                src_label: Label(1),
                dst_label: Label(2),
            }]),
        ]
    }

    #[test]
    fn snapshots_round_trip() {
        let dir = temp_dir("roundtrip");
        let (path, bytes, count) = write(&dir, 3, &header(), &ops()).unwrap();
        assert_eq!(path.file_name().unwrap(), "snapshot-000003.snap");
        assert!(bytes > 0);
        assert_eq!(count, 2);
        let (loaded_header, loaded_ops) = load(&path).unwrap();
        assert_eq!(loaded_header, header());
        assert_eq!(loaded_ops, ops());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_truncated_snapshot_is_typed_damage_not_a_panic() {
        let dir = temp_dir("truncated");
        let (path, _, _) = write(&dir, 1, &header(), &ops()).unwrap();
        let bytes = fs::read(&path).unwrap();
        // Drop the footer frame entirely (footer payload is 9 bytes + 8 header).
        fs::write(&path, &bytes[..bytes.len() - 17]).unwrap();
        assert!(matches!(
            load(&path),
            Err(DurableError::Damage(WalDamage::TornRecord { .. }))
        ));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_footer_op_count_mismatch_is_a_codec_error() {
        let dir = temp_dir("mismatch");
        let (path, _, _) = write(&dir, 1, &header(), &[]).unwrap();
        // Rewrite with a lying footer: header then footer claiming 5 ops.
        let mut buf = Vec::new();
        write_frame(&mut buf, &WalRecord::SnapshotHeader(header()).encode()).unwrap();
        write_frame(&mut buf, &WalRecord::SnapshotFooter { ops: 5 }.encode()).unwrap();
        fs::write(&path, buf).unwrap();
        assert!(matches!(load(&path), Err(DurableError::Codec { .. })));
        fs::remove_dir_all(dir).unwrap();
    }
}
