//! Errors from the log.

use std::io;
use std::path::PathBuf;

/// Errors from the log.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(io::Error),
    /// A sealed (non-tail) region of the log does not decode — real
    /// corruption, not a torn tail.
    Corrupt {
        /// Offending segment file.
        segment: PathBuf,
        /// Byte offset of the first invalid frame.
        offset: u64,
        /// What was wrong with it.
        message: String,
    },
    /// The first segment starts above LSN 1: the history below `first_lsn`
    /// is not in this directory (an earlier release deleted segments that a
    /// snapshot covered), so replaying what is left would silently drop it.
    Truncated {
        /// The first segment present.
        segment: PathBuf,
        /// LSN of the first record still on disk.
        first_lsn: u64,
    },
    /// A previous append failed mid-write; the writer refuses further
    /// appends so a torn record is never buried under valid ones.
    Poisoned,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o: {e}"),
            WalError::Corrupt { segment, offset, message } => {
                write!(f, "corrupt wal segment {} at byte {offset}: {message}", segment.display())
            }
            WalError::Truncated { segment, first_lsn } => write!(
                f,
                "truncated wal: first segment {} starts at lsn {first_lsn}, not 1 \
                 (the earlier history lived in a snapshot this release cannot read)",
                segment.display()
            ),
            WalError::Poisoned => {
                f.write_str("wal writer poisoned by an earlier failed append")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}
