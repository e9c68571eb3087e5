//! Write-ahead delta log for the ingest warehouse.
//!
//! The paper's repository (Figure 1, §2) keeps, per document, a version
//! plus its sequence of completed deltas, each delta itself an XML
//! document. This crate is that repository's only durable form: the server
//! appends each first version and each completed delta here **before**
//! acknowledging the ingest, and replaying the log from LSN 1 reconstructs
//! the exact pre-crash state. Deltas are ideal log records — they are
//! small, self-describing XML, and statically verifiable
//! (`xydelta::verify`) before they touch a chain.
//!
//! Design, in one screen:
//!
//! - **Records** ([`Record`]) are opaque to this crate beyond a kind tag, a
//!   document key, and a version number; payloads are the XML the warehouse
//!   already knows how to parse. Each record is framed with a length and an
//!   FNV-1a checksum ([`record`] module).
//! - **Segments**: the log is a directory of fixed-capacity append-only
//!   files `seg-NNNNNNNN.wal`, each starting with a header that names the
//!   LSN of its first record. Sealed segments are immutable.
//! - **Group commit**: appenders write under a short mutex, then wait for
//!   durability. One appender becomes the fsync leader and flushes the
//!   whole written tail with a single `fdatasync` while the mutex stays
//!   free for more appends; followers just wait on a condvar. One fsync
//!   thus covers a batch of workers' records ([`Wal::append`]).
//! - **Torn-tail recovery**: on open, every segment is scanned
//!   record-by-record. An invalid record in the *last* segment is a torn
//!   tail from a crash mid-write — the tail is truncated and reported, not
//!   an error. An invalid record anywhere else is real corruption.
//! - **The log is complete or it is refused**: segments are never deleted,
//!   so the first one starts at LSN 1. A directory whose first segment
//!   starts later was cut short by an earlier release (which kept the
//!   missing history in a snapshot); opening it fails with
//!   [`WalError::Truncated`] instead of replaying a suffix as if it were
//!   the whole history.
//!
//! The crate is deliberately dependency-free and knows nothing about XML,
//! diffs, or HTTP: `xywarehouse::replay` interprets the records, `xyserve`
//! owns the policy (when to sync, when to compact).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod record;

pub use log::{scan, AppendOutcome, Recovery, ScanReport, SegmentReport, TornTail, Wal, WalStats};
pub use record::{decode_frame, encode_frame, fnv64, FrameError, Record};

use std::io;
use std::path::PathBuf;

/// How eagerly appends are made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSync {
    /// Group-commit fsync before every append returns (the default): an
    /// acknowledged record survives power loss.
    Always,
    /// Never fsync on append (only on segment seal and [`Wal::sync`]): an
    /// acknowledged record survives a process crash but not power loss.
    /// Appends report `durable: false`.
    None,
}

impl WalSync {
    /// Parse a CLI spelling (`always` | `none`).
    pub fn parse(s: &str) -> Option<WalSync> {
        match s {
            "always" => Some(WalSync::Always),
            "none" => Some(WalSync::None),
            _ => None,
        }
    }
}

impl std::fmt::Display for WalSync {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalSync::Always => f.write_str("always"),
            WalSync::None => f.write_str("none"),
        }
    }
}

/// Where and how a [`Wal`] writes.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Log directory (created if missing).
    pub dir: PathBuf,
    /// Durability policy for appends.
    pub sync: WalSync,
    /// Capacity at which the active segment is sealed and a new one
    /// started. Clamped to at least 4 KiB.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// A config with the default policy: sync on every append, 4 MiB
    /// segments.
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig { dir: dir.into(), sync: WalSync::Always, segment_bytes: 4 << 20 }
    }

    /// Set the durability policy.
    #[must_use]
    pub fn with_sync(mut self, sync: WalSync) -> WalConfig {
        self.sync = sync;
        self
    }

    /// Set the segment capacity (clamped to at least 4 KiB).
    #[must_use]
    pub fn with_segment_bytes(mut self, bytes: u64) -> WalConfig {
        self.segment_bytes = bytes.max(4 << 10);
        self
    }
}

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
