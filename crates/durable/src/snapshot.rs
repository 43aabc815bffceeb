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
//! crash mid-write never leaves a half-snapshot under the live name. When the log
//! syncs at all, the file is synced before the rename and the directory after it, so
//! the snapshot is on disk before segment GC deletes what it covers. The footer
//! carries the op count; a snapshot without a matching footer is incomplete and
//! treated as damaged.

use crate::error::{DurableError, WalDamage};
use crate::record::{SnapshotHeader, WalRecord};
use crate::segment::{file_name, push_frame, FrameReader, SNAPSHOT};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Writes snapshot `index` into `dir` — the header frame, the `ops` frames of `tail`
/// exactly as the log holds them, the footer frame — straight to the file; returns
/// its path. With `sync`, the file's data is synced before the rename and the
/// directory after it: two syncs.
pub(crate) fn write(
    dir: &Path,
    index: u64,
    header: SnapshotHeader,
    tail: &[u8],
    ops: u64,
    sync: bool,
) -> Result<PathBuf, DurableError> {
    let mut envelope = Vec::new();
    push_frame(&mut envelope, |buf| {
        WalRecord::SnapshotHeader(header).encode_into(buf)
    });
    let header_bytes = envelope.len();
    push_frame(&mut envelope, |buf| {
        WalRecord::SnapshotFooter { ops }.encode_into(buf)
    });
    let (head, foot) = envelope.split_at(header_bytes);

    let path = dir.join(file_name(SNAPSHOT, index));
    let tmp = dir.join(format!("{}.tmp", file_name(SNAPSHOT, index)));
    let written = File::create(&tmp).and_then(|mut file| {
        file.write_all(head)?;
        file.write_all(tail)?;
        file.write_all(foot)?;
        if sync {
            file.sync_data()?;
        }
        Ok(())
    });
    written.map_err(|e| DurableError::io(&tmp, e))?;
    fs::rename(&tmp, &path).map_err(|e| DurableError::io(&path, e))?;
    if sync {
        let synced = File::open(dir).and_then(|dir| dir.sync_all());
        synced.map_err(|e| DurableError::io(dir, e))?;
    }
    Ok(path)
}

/// Reads a snapshot file in one pass, validating the header/footer envelope: the
/// header goes to `start`, then every op — its frame as stored and its decoded
/// record — to `op`, in order. An error from either ends the read.
pub(crate) fn load<T>(
    path: &Path,
    start: impl FnOnce(SnapshotHeader) -> Result<T, DurableError>,
    mut op: impl FnMut(&mut T, &[u8], WalRecord) -> Result<(), DurableError>,
) -> Result<T, DurableError> {
    let mut reader = FrameReader::open(path)?;
    let codec = |offset: u64, detail: &str| DurableError::codec(path, offset, detail);
    let incomplete = |offset: u64| {
        DurableError::Damage(WalDamage::TornRecord {
            file: path.to_path_buf(),
            offset,
        })
    };

    let mut state = match WalRecord::read_next(&mut reader, path)? {
        Some((_, _, WalRecord::SnapshotHeader(header))) => start(header)?,
        Some((offset, ..)) => {
            let detail = "snapshot does not start with a header record";
            return Err(codec(offset, detail));
        }
        None => return Err(incomplete(0)),
    };
    let mut ops = 0u64;
    loop {
        match WalRecord::read_next(&mut reader, path)? {
            Some((offset, _, WalRecord::SnapshotFooter { ops: expected })) => {
                if expected != ops {
                    let detail = format!("footer claims {expected} ops, snapshot holds {ops}");
                    return Err(codec(offset, &detail));
                }
                if WalRecord::read_next(&mut reader, path)?.is_some() {
                    return Err(codec(offset, "records after the snapshot footer"));
                }
                return Ok(state);
            }
            // `Init` and a second header describe shape; the body holds operations.
            Some((offset, _, WalRecord::Init(_) | WalRecord::SnapshotHeader(_))) => {
                return Err(codec(offset, "non-op record inside snapshot body"));
            }
            Some((_, frame, record)) => {
                op(&mut state, frame, record)?;
                ops += 1;
            }
            // Clean EOF without a footer: the writer died mid-snapshot (pre-rename
            // this can't normally happen, but a copied/truncated file can look so).
            None => return Err(incomplete(path.metadata().map_or(0, |m| m.len()))),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// `ops` framed back to back, as the log's tail holds them.
    pub(crate) fn framed(ops: &[WalRecord]) -> Vec<u8> {
        let mut tail = Vec::new();
        for op in ops {
            push_frame(&mut tail, |buf| op.encode_into(buf));
        }
        tail
    }

    /// A snapshot's header and decoded ops — the whole file, for assertions.
    pub(crate) fn load_all(path: &Path) -> Result<(SnapshotHeader, Vec<WalRecord>), DurableError> {
        load(
            path,
            |header| Ok((header, Vec::new())),
            |(_, ops), _, op| {
                ops.push(op);
                Ok(())
            },
        )
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
        let path = write(&dir, 3, header(), &framed(&ops()), 2, false).unwrap();
        assert_eq!(path.file_name().unwrap(), "snapshot-000003.snap");
        let (loaded_header, loaded_ops) = load_all(&path).unwrap();
        assert_eq!(loaded_header, header());
        assert_eq!(loaded_ops, ops());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_truncated_snapshot_is_typed_damage_not_a_panic() {
        let dir = temp_dir("truncated");
        let path = write(&dir, 1, header(), &framed(&ops()), 2, false).unwrap();
        let bytes = fs::read(&path).unwrap();
        // Drop the footer frame entirely (footer payload is 9 bytes + 8 header).
        fs::write(&path, &bytes[..bytes.len() - 17]).unwrap();
        assert!(matches!(
            load_all(&path),
            Err(DurableError::Damage(WalDamage::TornRecord { .. }))
        ));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_footer_op_count_mismatch_is_a_codec_error() {
        let dir = temp_dir("mismatch");
        // A lying footer: it claims 5 ops over an empty body.
        let path = write(&dir, 1, header(), &[], 5, false).unwrap();
        assert!(matches!(load_all(&path), Err(DurableError::Codec { .. })));
        fs::remove_dir_all(dir).unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// A file of correctly framed, arbitrary payloads (so the checksums pass and
        /// the decoder and the envelope checks are what it meets) loads or is a typed
        /// error — never a panic.
        #[test]
        fn arbitrary_snapshot_files_never_panic(seed in 0u64..u64::MAX, frames in 0usize..6) {
            let dir = temp_dir("hostile");
            let path = dir.join("snapshot-000001.snap");
            let mut buf = Vec::new();
            // Start like a snapshot half the time; then anything, raw bytes included.
            if seed % 2 == 0 {
                let header = WalRecord::SnapshotHeader(header());
                push_frame(&mut buf, |buf| header.encode_into(buf));
            }
            for frame in 0..frames as u64 {
                let payload = crate::record::tests::hostile_payload(seed ^ frame, 9 + frame as usize);
                match (seed >> frame) % 4 {
                    0 => buf.extend_from_slice(&payload),
                    _ => push_frame(&mut buf, |buf| buf.extend_from_slice(&payload)),
                }
            }
            fs::write(&path, &buf).unwrap();
            if let Ok((_, ops)) = load_all(&path) {
                proptest::prop_assert!(ops.len() <= frames);
            }
            fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn every_truncation_and_single_byte_mutation_of_a_snapshot_is_typed() {
        let dir = temp_dir("mutate");
        let ops = crate::record::tests::one_of_each_kind();
        let ops: Vec<WalRecord> = ops.into_iter().skip(1).take(6).collect();
        let path = write(&dir, 1, header(), &framed(&ops), ops.len() as u64, false).unwrap();
        assert_eq!(load_all(&path).unwrap(), (header(), ops));
        let clean = fs::read(&path).unwrap();
        for cut in 0..clean.len() {
            fs::write(&path, &clean[..cut]).unwrap();
            assert!(load_all(&path).is_err(), "cut at {cut} loaded");
        }
        for at in 0..clean.len() {
            let mut mutated = clean.clone();
            mutated[at] ^= 0x20;
            fs::write(&path, &mutated).unwrap();
            assert!(
                matches!(load_all(&path), Err(DurableError::Damage(_))),
                "byte {at} flipped: every byte is under a length or a checksum"
            );
        }
        fs::remove_dir_all(dir).unwrap();
    }
}
