//! Typed errors of the log, manifest, and durable mutation paths.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

use ctxpref_core::CoreError;

/// Typed errors of the write-ahead log and its recovery path.
#[derive(Debug)]
pub enum WalError {
    /// An I/O error from the log, manifest or snapshot files.
    Io(std::io::Error),
    /// Damage that is not a torn tail: a segment record that failed its
    /// checksum (or was otherwise malformed) *with valid data following
    /// it*, or any damage in a snapshot, so bitrot or tampering, and
    /// recovery refuses to guess.
    Corrupt {
        /// The corrupt segment or snapshot file.
        path: PathBuf,
        /// Byte offset of the bad record or frame within the file.
        offset: u64,
        /// What exactly was wrong.
        reason: String,
    },
    /// A segment, manifest or snapshot written in another format
    /// version (an older build's text) which this build does not read.
    Version {
        /// The refused file.
        path: PathBuf,
        /// The format mark it carries.
        found: String,
    },
    /// The manifest file is missing, unparsable, or fails its checksum.
    Manifest {
        /// What exactly was wrong.
        reason: String,
    },
    /// Replay found a hole in a shard's LSN sequence: segments are
    /// missing or were truncated out from under the manifest.
    LsnGap {
        /// The WAL shard whose sequence broke.
        shard: usize,
        /// The LSN replay expected next.
        expected: u64,
        /// The LSN it found instead.
        found: u64,
    },
    /// A record payload failed to decode against the recovered
    /// environment and relation.
    Payload {
        /// What exactly was wrong.
        reason: String,
    },
    /// `DurableDb::create` was pointed at a directory that already
    /// holds a manifest (use `recover` instead).
    AlreadyExists {
        /// The offending directory.
        dir: PathBuf,
    },
    /// A shard's log file is in an unknown state after a failed
    /// rollback; appends to it are refused.
    Poisoned {
        /// The poisoned WAL shard.
        shard: usize,
    },
    /// The volume is out of space. The append was shed before any
    /// byte was written, so the log is unchanged and the write is
    /// safe to retry — reads keep serving, and appends resume on
    /// their own once space returns.
    DiskFull {
        /// The WAL shard that shed the write.
        shard: usize,
    },
    /// Another live `DurableDb` already owns the directory's exclusive
    /// lock. Checkpoint GC deletes files a concurrent recovery would
    /// still be reading, so a durable directory admits one owner at a
    /// time; the second opener fails fast here instead of racing.
    Locked {
        /// The already-owned directory.
        dir: PathBuf,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wal i/o error: {e}"),
            Self::Corrupt {
                path,
                offset,
                reason,
            } => {
                write!(f, "corrupt {} at offset {offset}: {reason}", path.display())
            }
            Self::Version { path, found } => write!(
                f,
                "{} is format {found:?}, which this build does not read",
                path.display()
            ),
            Self::Manifest { reason } => write!(f, "bad wal manifest: {reason}"),
            Self::LsnGap {
                shard,
                expected,
                found,
            } => {
                write!(
                    f,
                    "lsn gap in wal shard {shard}: expected {expected}, found {found}"
                )
            }
            Self::Payload { reason } => write!(f, "bad wal record payload: {reason}"),
            Self::AlreadyExists { dir } => {
                write!(f, "{} already holds a wal (use recover)", dir.display())
            }
            Self::Poisoned { shard } => {
                write!(f, "wal shard {shard} is poisoned after a failed rollback")
            }
            Self::DiskFull { shard } => {
                write!(
                    f,
                    "disk full: wal shard {shard} shed the write (retryable; nothing was logged)"
                )
            }
            Self::Locked { dir } => {
                write!(
                    f,
                    "{} is locked by another live DurableDb (checkpoint GC would race recovery)",
                    dir.display()
                )
            }
        }
    }
}

impl WalError {
    /// Whether this error is a transient disk-full shed: nothing was
    /// logged or applied, and the same write is safe to retry once
    /// space returns.
    pub fn is_disk_full(&self) -> bool {
        matches!(self, Self::DiskFull { .. })
    }
}

impl Error for WalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Errors of a durable mutation: either the log refused the append, or
/// the database rejected the operation (the op is then on the log, and
/// replay will reject it identically — rejection is deterministic).
#[derive(Debug)]
pub enum DurableError {
    /// The append (or sync) failed; the operation was rolled back and
    /// **not** applied.
    Wal(WalError),
    /// The database rejected the logged operation (unknown user,
    /// conflicting preference, …); the database is unchanged.
    Core(CoreError),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Wal(e) => write!(f, "{e}"),
            Self::Core(e) => write!(f, "{e}"),
        }
    }
}

impl Error for DurableError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Wal(e) => Some(e),
            Self::Core(e) => Some(e),
        }
    }
}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> Self {
        Self::Wal(e)
    }
}

impl From<CoreError> for DurableError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}
