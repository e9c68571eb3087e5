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
//!   FNV-1a checksum (the private `record` module).
//! - **Segments**: the log is a directory of fixed-capacity append-only
//!   files `seg-NNNNNNNN.wal`, each starting with a header that names the
//!   LSN of its first record. Sealed segments are immutable.
//! - **Group commit**: appenders write under a short mutex, then wait for
//!   durability. One appender becomes the fsync leader and flushes the
//!   whole written tail with a single `fdatasync` while the mutex stays
//!   free for more appends; followers just wait on a condvar. One fsync
//!   thus covers a batch of workers' records ([`Wal::append`]).
//! - **Zero tail**: under [`WalSync::Always`] the active segment is
//!   zero-filled ahead of the writer and frames overwrite the zeros, so an
//!   fsync flushes record bytes, not a new file size. Rolling a segment
//!   and a clean close ([`Wal`]'s `Drop`) cut it back to its last frame.
//! - **Torn-tail recovery**: on open, every segment is scanned
//!   record-by-record. An invalid record in the *last* segment is a torn
//!   tail from a crash mid-write — the tail is truncated and reported, not
//!   an error; an all-zero tail there is the clean end of the log. An
//!   invalid record anywhere else is real corruption.
//! - **The log is complete or it is refused**: segments are never deleted,
//!   so the first one starts at LSN 1. A directory whose first segment
//!   starts later was cut short by an earlier release (which kept the
//!   missing history in a snapshot); opening it fails with
//!   [`WalError::Truncated`] instead of replaying a suffix as if it were
//!   the whole history.
//!
//! The crate is deliberately dependency-free and knows nothing about XML,
//! diffs, or HTTP: `xywarehouse::replay` interprets the records, `xyserve`
//! owns the policy (when to sync).

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]
#![cfg_attr(not(test), warn(clippy::todo, clippy::dbg_macro, clippy::print_stderr))]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod config;
mod error;
mod log;
mod record;

pub use config::{WalConfig, WalSync};
pub use error::WalError;
pub use log::{scan, AppendOutcome, Recovery, ScanReport, SegmentReport, TornTail, Wal, WalStats};
pub use record::{decode_frame, encode_frame, fnv64, FrameError, Record};
