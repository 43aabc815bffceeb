//! Hand-rolled little-endian binary codec for record payloads.
//!
//! No serde, no varints, no framing (framing lives in [`crate::segment`]): fixed-width
//! integers plus length-prefixed sequences, read through a bounds-checked [`Reader`]
//! that turns every malformed access into a typed [`CodecError`] instead of a panic.
//! The encoded forms are a stable on-disk format — changing them invalidates existing
//! logs, so additions must append new record tags rather than altering existing ones.

use std::fmt;

/// A structurally malformed payload (truncated field, bad enum tag, trailing bytes).
/// Distinct from a checksum failure: the frame's CRC was valid, but the bytes do not
/// decode — which in practice means a version skew or a bug, not disk corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable description of what failed to decode.
    pub detail: String,
}

impl CodecError {
    pub(crate) fn new(detail: impl Into<String>) -> Self {
        Self {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed record payload: {}", self.detail)
    }
}

impl std::error::Error for CodecError {}

/// Appends a `u8`.
pub(crate) fn put_u8(buf: &mut Vec<u8>, value: u8) {
    buf.push(value);
}

/// Appends a `u32`, little-endian.
pub(crate) fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub(crate) fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Appends a sequence length as `u32` (the uniform length prefix).
///
/// # Panics
/// Panics if `len` exceeds `u32::MAX` — a single record holding four billion entries
/// is a caller bug, not a recoverable condition.
pub(crate) fn put_len(buf: &mut Vec<u8>, len: usize) {
    put_u32(buf, u32::try_from(len).expect("record sequence fits u32"));
}

/// The little-endian `u32` at `bytes[at..at + 4]`, for fixed layouts whose length
/// was checked once up front (out of bounds panics).
pub(crate) fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// The little-endian `u64` at `bytes[at..at + 8]` (see [`u32_at`]).
pub(crate) fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// A bounds-checked cursor over a record payload.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole payload.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The next `n` bytes, whole.
    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(CodecError::new(format!(
                "truncated {what}: wanted {n} bytes at offset {}, payload is {} bytes",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// Reads a `u8`.
    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, CodecError> {
        Ok(u32_at(self.take(4, what)?, 0))
    }

    /// Reads a little-endian `u64`.
    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, CodecError> {
        Ok(u64_at(self.take(8, what)?, 0))
    }

    /// Reads a sequence length (`u32`), sanity-capped against the remaining payload
    /// so a corrupt length cannot trigger a giant allocation.
    pub(crate) fn len(&mut self, what: &str, min_entry_bytes: usize) -> Result<usize, CodecError> {
        let len = self.u32(what)? as usize;
        let remaining = self.buf.len() - self.pos;
        if len.saturating_mul(min_entry_bytes.max(1)) > remaining {
            return Err(CodecError::new(format!(
                "implausible {what} length {len}: only {remaining} payload bytes remain"
            )));
        }
        Ok(len)
    }

    /// Reads a `u32`-counted sequence through `item`, the count checked by
    /// [`Reader::len`] before anything is allocated for it.
    pub(crate) fn seq<T>(
        &mut self,
        what: &str,
        min_entry_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let len = self.len(what, min_entry_bytes)?;
        (0..len).map(|_| item(self)).collect()
    }

    /// Asserts the payload was fully consumed — trailing bytes mean a skewed codec.
    pub(crate) fn done(&self, what: &str) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::new(format!(
                "{} trailing bytes after {what}",
                self.buf.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_integers() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_len(&mut buf, 3);
        for byte in [9, 8, 7] {
            put_u8(&mut buf, byte);
        }
        let mut reader = Reader::new(&buf);
        assert_eq!(reader.u8("tag").unwrap(), 7);
        assert_eq!(reader.u32("x").unwrap(), 0xDEAD_BEEF);
        assert_eq!(reader.u64("y").unwrap(), u64::MAX - 1);
        assert_eq!(reader.len("seq", 1).unwrap(), 3);
        for byte in [9, 8, 7] {
            assert_eq!(reader.u8("entry").unwrap(), byte);
        }
        reader.done("payload").unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        let mut short = Reader::new(&buf[..2]);
        assert!(short.u32("field").is_err());
        let mut long = Reader::new(&buf);
        long.u8("tag").unwrap();
        assert!(long.done("payload").is_err());
    }

    #[test]
    fn implausible_lengths_are_rejected() {
        let mut buf = Vec::new();
        put_len(&mut buf, 1_000_000);
        let mut reader = Reader::new(&buf);
        assert!(reader.len("events", 28).is_err());
    }
}
