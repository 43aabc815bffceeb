//! Typed failures for logging, snapshotting, and recovery.

use crate::record::EngineKind;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Physical damage found while scanning a log or snapshot file. Both variants name
/// the file and the byte offset of the damaged frame, so an operator can inspect or
/// truncate the log deliberately — recovery never silently skips past damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalDamage {
    /// The file ends inside a record frame (torn write: the process died while
    /// appending). Everything before `offset` is intact.
    TornRecord {
        /// The damaged file.
        file: PathBuf,
        /// Byte offset of the frame the file ends inside.
        offset: u64,
    },
    /// A frame's payload does not match its stored CRC-32 (bit rot or an external
    /// overwrite). Everything before `offset` is intact.
    ChecksumMismatch {
        /// The damaged file.
        file: PathBuf,
        /// Byte offset of the frame whose checksum failed.
        offset: u64,
    },
}

impl fmt::Display for WalDamage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalDamage::TornRecord { file, offset } => {
                write!(f, "torn record at {}:{offset}", file.display())
            }
            WalDamage::ChecksumMismatch { file, offset } => {
                write!(f, "checksum mismatch at {}:{offset}", file.display())
            }
        }
    }
}

/// Any failure in the durability layer.
#[derive(Debug)]
pub enum DurableError {
    /// An I/O operation failed.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// Physical log/snapshot damage (strict recovery stops here; tolerant recovery
    /// reports it alongside the valid-prefix engine).
    Damage(WalDamage),
    /// A frame passed its checksum but its payload does not decode — version skew or
    /// a codec bug, not disk corruption.
    Codec {
        /// The file holding the undecodable frame.
        file: PathBuf,
        /// Byte offset of the frame.
        offset: u64,
        /// What failed to decode.
        detail: String,
    },
    /// The log has no `Init` record — it was never attached to an engine.
    MissingInit {
        /// The log directory.
        dir: PathBuf,
    },
    /// The log was written by a different engine kind than the one being recovered.
    EngineMismatch {
        /// The kind the caller asked to recover.
        expected: EngineKind,
        /// The kind the log's `Init` record names.
        found: EngineKind,
    },
    /// Replay produced a different engine decision than the log records — the log
    /// and the engine build are out of sync (e.g. ids diverged).
    ReplayDivergence {
        /// What diverged.
        detail: String,
    },
    /// The log already carries an `Init` record; a second engine cannot attach.
    AlreadyAttached,
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io { path, source } => {
                write!(f, "durable I/O on {}: {source}", path.display())
            }
            DurableError::Damage(damage) => write!(f, "log damage: {damage}"),
            DurableError::Codec {
                file,
                offset,
                detail,
            } => write!(
                f,
                "undecodable record at {}:{offset}: {detail}",
                file.display()
            ),
            DurableError::MissingInit { dir } => {
                write!(f, "log at {} has no Init record", dir.display())
            }
            DurableError::EngineMismatch { expected, found } => {
                write!(f, "log was written by a {found} engine, not a {expected}")
            }
            DurableError::ReplayDivergence { detail } => {
                write!(f, "replay diverged from the log: {detail}")
            }
            DurableError::AlreadyAttached => {
                write!(f, "log already initialised by another engine")
            }
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl DurableError {
    pub(crate) fn io(path: impl Into<PathBuf>, source: io::Error) -> Self {
        DurableError::Io {
            path: path.into(),
            source,
        }
    }

    pub(crate) fn codec(file: &Path, offset: u64, detail: impl Into<String>) -> Self {
        DurableError::Codec {
            file: file.to_path_buf(),
            offset,
            detail: detail.into(),
        }
    }
}
