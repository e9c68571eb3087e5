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
//! - [`Delta::apply_to`], [`Delta::inverted`] — the delta algebra;
//! - [`diff_by_xid()`] — the *exact* delta between two versions
//!   whose matching is already known through shared XIDs (used by the change
//!   simulator to emit the "perfect" delta of §6.1, and as the engine of
//!   aggregation);
//! - [`VersionChain`] — versions-and-deltas storage with
//!   reconstruction of any past version ("querying the past", §2) and
//!   aggregation of any range of its deltas into one
//!   ([`VersionChain::delta_between`]);
//! - [`verify()`] — a *static* completed-delta validator that checks
//!   the structural invariants of §4 (XID-map well-formedness, XID
//!   uniqueness, move pairing, sibling-position consistency) without
//!   applying the delta;
//! - weighted longest-increasing-subsequence machinery (the private `lis`
//!   module) behind the delta builder's move detection, including the
//!   paper's fixed-window heuristic.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]
#![cfg_attr(not(test), warn(clippy::todo, clippy::dbg_macro, clippy::print_stderr))]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod apply;
mod delta;
mod diff_by_xid;
mod error;
mod lis;
mod ops;
mod verify;
mod version;
mod xid;
mod xiddoc;
pub mod xml_io;

pub use delta::{Delta, DeltaBuilder};
#[doc(hidden)]
pub use diff_by_xid::diff_matched;
pub use diff_by_xid::{diff_by_xid, diff_by_xid_with, CaptureMode};
pub use error::{ApplyError, ApplyErrorKind, DeltaParseError};
pub use ops::{Op, PayloadSide, PayloadSource, Span, SubtreePayload};
pub use verify::{verify, verify_all, VerifyError};
pub use version::VersionChain;
pub use xid::{Xid, XidMap};
pub use xiddoc::XidDocument;
