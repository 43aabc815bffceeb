//! Record framing and segment/snapshot file naming.
//!
//! A frame is `[len: u32 LE][crc32: u32 LE][payload]` — the length covers the payload
//! only, the CRC-32 ([`crate::crc32`]) is over the payload. Log segments are named
//! `wal-NNNNNN.log` and snapshots `snapshot-NNNNNN.snap`; the shared index ties a
//! snapshot to the segment replay resumes at. By default old segments are never
//! deleted — the full event history stays replayable for time-travel debugging
//! ([`crate::read_logged_events`]) — but an opt-in [`crate::SnapshotPolicy`] with
//! `gc` enabled deletes segments a successful snapshot fully covers.

use crate::codec::u32_at;
use crate::crc32::crc32;
use crate::error::{DurableError, WalDamage};
use std::fs;
use std::path::{Path, PathBuf};

/// Frame header size: payload length + checksum.
pub(crate) const FRAME_HEADER_BYTES: usize = 8;

/// Log segments, `wal-NNNNNN.log`: a kind of file is the `(prefix, suffix)` around
/// its index.
pub(crate) const SEGMENT: (&str, &str) = ("wal-", ".log");
/// Snapshots, `snapshot-NNNNNN.snap`, anchored to the segment of the same index.
pub(crate) const SNAPSHOT: (&str, &str) = ("snapshot-", ".snap");

/// File name of the `kind` file with `index`.
pub(crate) fn file_name((prefix, suffix): (&str, &str), index: u64) -> String {
    format!("{prefix}{index:06}{suffix}")
}

/// The indices of all `kind` files present in `dir`, ascending.
pub(crate) fn list_indices(
    dir: &Path,
    (prefix, suffix): (&str, &str),
) -> Result<Vec<u64>, DurableError> {
    let mut indices = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| DurableError::io(dir, e))? {
        let name = entry.map_err(|e| DurableError::io(dir, e))?.file_name();
        let stem = name.to_str().and_then(|name| name.strip_prefix(prefix));
        indices.extend(stem.and_then(|stem| stem.strip_suffix(suffix)?.parse::<u64>().ok()));
    }
    indices.sort_unstable();
    Ok(indices)
}

/// Appends one frame to `buf`: header space is reserved, `encode` appends the
/// payload behind it, and only then is the header sealed over the finished payload —
/// so a record is encoded once, in place, wherever its frame is going to live.
pub(crate) fn push_frame(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
    encode(buf);
    let (header, payload) = buf[start..].split_at_mut(FRAME_HEADER_BYTES);
    let len = u32::try_from(payload.len()).expect("record payload fits u32");
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Sequential frame reader over a fully-loaded file. Loading whole files keeps torn
/// detection trivial and is fine at segment scale (segments rotate at a few MiB).
pub struct FrameReader {
    file: PathBuf,
    bytes: Vec<u8>,
    pos: usize,
}

impl FrameReader {
    /// Opens `path` and reads it fully.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, DurableError> {
        let file = path.into();
        let bytes = fs::read(&file).map_err(|e| DurableError::io(&file, e))?;
        Ok(Self {
            file,
            bytes,
            pos: 0,
        })
    }

    /// Bytes not yet consumed. After [`FrameReader::next`] returns damage, this is
    /// exactly the unreadable remainder — the damaged frame and everything after it.
    pub fn remaining_bytes(&self) -> u64 {
        (self.bytes.len() - self.pos) as u64
    }

    /// The next frame as `(frame_offset, payload)`, `None` at a clean end of file.
    /// The payload is borrowed from the loaded file — nothing is copied per frame.
    ///
    /// A file ending inside a frame is a [`WalDamage::TornRecord`]; a payload whose
    /// checksum fails is a [`WalDamage::ChecksumMismatch`]. Both name this frame's
    /// byte offset — everything before it was already returned intact. (A corrupted
    /// *length* field surfaces as one of the two as well: the payload either runs
    /// past the end of the file or covers the wrong bytes.)
    ///
    /// Not an `Iterator`: damage must stop the scan, and `Result<Option<..>>` puts
    /// the error outside the item where `?` handles it naturally.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<(u64, &[u8])>, WalDamage> {
        let frame = self.next_frame()?;
        Ok(frame.map(|(offset, frame)| (offset, &frame[FRAME_HEADER_BYTES..])))
    }

    /// [`FrameReader::next`], handing out the whole frame (header included) — what
    /// recovery appends to the replay tail as it stands.
    pub(crate) fn next_frame(&mut self) -> Result<Option<(u64, &[u8])>, WalDamage> {
        let rest = &self.bytes[self.pos..];
        if rest.is_empty() {
            return Ok(None);
        }
        let offset = self.pos as u64;
        let end = rest
            .get(..FRAME_HEADER_BYTES)
            .and_then(|header| (u32_at(header, 0) as usize).checked_add(FRAME_HEADER_BYTES))
            .filter(|&end| end <= rest.len());
        let Some(end) = end else {
            return Err(WalDamage::TornRecord {
                file: self.file.clone(),
                offset,
            });
        };
        let frame = &rest[..end];
        if crc32(&frame[FRAME_HEADER_BYTES..]) != u32_at(frame, 4) {
            return Err(WalDamage::ChecksumMismatch {
                file: self.file.clone(),
                offset,
            });
        }
        self.pos += end;
        Ok(Some((offset, frame)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_file(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "durable-segment-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn write_file(payloads: &[&[u8]], tag: &str) -> PathBuf {
        let path = temp_file(tag);
        let mut buf = Vec::new();
        for payload in payloads {
            push_frame(&mut buf, |buf| buf.extend_from_slice(payload));
        }
        fs::write(&path, buf).unwrap();
        path
    }

    #[test]
    fn frames_round_trip_in_order() {
        let path = write_file(&[b"alpha", b"", b"gamma"], "roundtrip");
        let mut reader = FrameReader::open(&path).unwrap();
        assert_eq!(reader.next().unwrap().unwrap(), (0, &b"alpha"[..]));
        assert_eq!(reader.next().unwrap().unwrap(), (13, &b""[..]));
        assert_eq!(reader.next().unwrap().unwrap(), (21, &b"gamma"[..]));
        assert!(reader.next().unwrap().is_none());
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn truncation_mid_record_is_a_torn_record_at_the_frame_offset() {
        let path = write_file(&[b"alpha", b"beta"], "torn");
        let bytes = fs::read(&path).unwrap();
        // First frame is 8 + 5 = 13 bytes; cut inside the second frame's payload.
        fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let mut reader = FrameReader::open(&path).unwrap();
        assert!(reader.next().unwrap().is_some());
        match reader.next().unwrap_err() {
            WalDamage::TornRecord { offset, file } => {
                assert_eq!(offset, 13);
                assert_eq!(file, path);
            }
            other => panic!("expected torn record, got {other}"),
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn bit_flips_are_checksum_mismatches_at_the_frame_offset() {
        let path = write_file(&[b"alpha", b"beta"], "flip");
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit inside the second frame's payload (offset 13 + header 8 = 21).
        bytes[22] ^= 0x10;
        fs::write(&path, bytes).unwrap();
        let mut reader = FrameReader::open(&path).unwrap();
        assert!(reader.next().unwrap().is_some());
        match reader.next().unwrap_err() {
            WalDamage::ChecksumMismatch { offset, .. } => assert_eq!(offset, 13),
            other => panic!("expected checksum mismatch, got {other}"),
        }
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn file_names_round_trip_through_the_directory_listing() {
        assert_eq!(file_name(SEGMENT, 7), "wal-000007.log");
        assert_eq!(file_name(SNAPSHOT, 1234567), "snapshot-1234567.snap");
        let dir = temp_file("names");
        fs::create_dir_all(&dir).unwrap();
        for name in [
            "wal-000007.log",
            "wal-000002.log",
            "wal-xyz.log",
            "wal-3.log.tmp",
        ] {
            fs::write(dir.join(name), b"").unwrap();
        }
        fs::write(dir.join(file_name(SNAPSHOT, 1234567)), b"").unwrap();
        assert_eq!(list_indices(&dir, SEGMENT).unwrap(), [2, 7]);
        assert_eq!(list_indices(&dir, SNAPSHOT).unwrap(), [1234567]);
        fs::remove_dir_all(dir).unwrap();
    }

    /// Reads `path` to its end or its first damage: the frames read, and the damage.
    fn read_frames(path: &Path) -> (Vec<(u64, Vec<u8>)>, Option<WalDamage>) {
        let size = fs::metadata(path).unwrap().len();
        let mut reader = FrameReader::open(path).unwrap();
        let mut frames = Vec::new();
        let damage = loop {
            match reader.next() {
                Ok(Some((offset, payload))) => frames.push((offset, payload.to_vec())),
                Ok(None) => break None,
                Err(damage) => break Some(damage),
            }
        };
        // What was not handed out is exactly what `remaining_bytes` reports.
        let read: u64 = frames.iter().map(|(_, p)| 8 + p.len() as u64).sum();
        assert_eq!(read + reader.remaining_bytes(), size);
        assert_eq!(damage.is_none(), reader.remaining_bytes() == 0);
        (frames, damage)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Arbitrary file contents read as frames followed by typed damage (or a
        /// clean end) — never a panic, never a payload past the end of the file.
        #[test]
        fn arbitrary_files_never_panic(seed in 0u64..u64::MAX, len in 0usize..=96) {
            let path = temp_file("hostile");
            let mut bytes = crate::record::tests::hostile_payload(seed, len);
            if seed % 4 == 0 {
                // A plausible length field, so the checksum is what has to refuse it.
                bytes.splice(0..0, (len as u32 / 2).to_le_bytes());
            }
            fs::write(&path, &bytes).unwrap();
            let (frames, _) = read_frames(&path);
            proptest::prop_assert!(frames.len() <= bytes.len() / 8);
            fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn every_truncation_and_single_byte_mutation_stops_at_the_damaged_frame() {
        let payloads: [&[u8]; 4] = [b"alpha", b"", b"a longer third payload", b"d"];
        let path = write_file(&payloads, "mutate");
        let clean = fs::read(&path).unwrap();
        let (frames, damage) = read_frames(&path);
        assert_eq!(frames.len(), 4);
        assert_eq!(damage, None);
        let offsets: Vec<u64> = frames.iter().map(|(offset, _)| *offset).collect();
        let frame_of = |at: usize| offsets.iter().rposition(|&o| o as usize <= at).unwrap();

        for cut in 0..clean.len() {
            fs::write(&path, &clean[..cut]).unwrap();
            let (read, damage) = read_frames(&path);
            assert_eq!(read, frames[..frame_of(cut)], "cut at {cut}");
            match damage {
                None => assert!(offsets.contains(&(cut as u64)), "cut at {cut}"),
                Some(WalDamage::TornRecord { offset, .. }) => {
                    assert_eq!(offset, offsets[frame_of(cut)], "cut at {cut}");
                }
                Some(other) => panic!("cut at {cut}: {other}"),
            }
        }
        for at in 0..clean.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut mutated = clean.clone();
                mutated[at] ^= mask;
                fs::write(&path, &mutated).unwrap();
                let (read, damage) = read_frames(&path);
                let damaged = frame_of(at);
                assert_eq!(read, frames[..damaged], "byte {at} ^ {mask:#x}");
                let damage = damage.unwrap_or_else(|| panic!("byte {at} ^ {mask:#x} unnoticed"));
                let (WalDamage::TornRecord { offset, .. }
                | WalDamage::ChecksumMismatch { offset, .. }) = damage;
                assert_eq!(offset, offsets[damaged], "byte {at} ^ {mask:#x}");
            }
        }
        fs::remove_file(path).unwrap();
    }
}
