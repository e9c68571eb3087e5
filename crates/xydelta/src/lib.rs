//! XyDelta — the change-representation model of the XyDiff paper.
//!
//! Section 4 of *"Detecting Changes in XML Documents"* (ICDE 2002) builds on
//! the change model of Marian et al. (VLDB 2001): every node of a versioned
//! document carries a **persistent identifier** (XID); a **delta** is a set
//! of elementary operations — subtree deletion, subtree insertion, text
//! update, and subtree move — whose positions refer to the source or target
//! document; deltas are **completed** (they carry redundant information such
//! as old *and* new values) so that any delta can be **inverted** and deltas
//! can be **aggregated**, and any version can be reconstructed from any other
//! version plus the deltas between them.
//!
//! This crate implements that model:
//!
//! - [`Xid`], [`XidMap`], [`XidDocument`] — persistent node identification
//!   (initial assignment in postfix order, §4);
//! - [`Op`], [`Delta`], [`DeltaBuilder`] — the operation set, including the
//!   attribute-specific operations of §5.2; a delta keeps everything its
//!   operations carry in one payload arena and two flat buffers;
//! - [`Delta::apply_to`], [`Delta::inverted`], [`aggregate::aggregate`] —
//!   the delta algebra;
//! - [`diff_by_xid::diff_by_xid`] — the *exact* delta between two versions
//!   whose matching is already known through shared XIDs (used by the change
//!   simulator to emit the "perfect" delta of §6.1, and as the engine of
//!   aggregation);
//! - [`version::VersionChain`] — versions-and-deltas storage with
//!   reconstruction of any past version ("querying the past", §2);
//! - [`verify::verify`] — a *static* completed-delta validator that checks
//!   the structural invariants of §4 (XID-map well-formedness, XID
//!   uniqueness, move pairing, sibling-position consistency) without
//!   applying the delta;
//! - weighted longest-increasing-subsequence machinery ([`lis`]) shared with
//!   the diff's move detection, including the paper's fixed-window heuristic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod apply;
pub mod delta;
pub mod diff_by_xid;
pub mod error;
pub mod lis;
pub mod ops;
pub mod verify;
pub mod version;
pub mod xid;
pub mod xiddoc;
pub mod xml_io;

pub use delta::{Delta, DeltaBuilder};
pub use diff_by_xid::CaptureMode;
pub use error::{ApplyError, ApplyErrorKind, DeltaParseError};
pub use ops::{Op, PayloadSide, PayloadSource, Span, SubtreePayload};
pub use verify::{verify, verify_all, VerifyError};
pub use version::VersionChain;
pub use xid::{Xid, XidMap};
pub use xiddoc::XidDocument;
