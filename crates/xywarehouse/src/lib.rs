//! The Xyleme-Change pipeline (Figure 1 of the paper).
//!
//! "When a new version of a document V(n) is received (or crawled from the
//! web), it is installed in the repository. It is then sent to the diff
//! module that also acquires the previous version V(n−1) from the
//! repository. The diff module computes a delta … appended to the existing
//! sequence of deltas for this document. The old version is then possibly
//! removed from the repository. The alerter is in charge of detecting, in
//! the document V(n) or in the delta, patterns that may interest some
//! subscriptions." (§2)
//!
//! This crate wires the pieces built elsewhere into that loop:
//!
//! - [`Repository`] — a concurrent in-memory store mapping document keys to
//!   version chains (latest snapshot + delta sequence), fed by
//!   [`Repository::load_version`] which runs the BULD diff; any past
//!   version or any delta range can be reconstructed ("querying the past");
//! - [`Subscription`] / [`Alerter`] — the monitoring side: label-path
//!   patterns over delta operations ("e.g., that a new product has been
//!   added to a catalog"), evaluated against every incoming delta;
//! - [`replay`] — rebuilding the repository from its one durable form, the
//!   `xywal` log of first versions and completed deltas.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]
#![cfg_attr(not(test), warn(clippy::todo, clippy::dbg_macro, clippy::print_stderr))]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod alerter;
pub mod replay;
mod repository;
mod subscription;

pub use alerter::{Alerter, Notification};
pub use replay::{ReplayError, ReplayStats};
pub use repository::{LoadOutcome, Repository, RepositoryError};
pub use subscription::{OpFilter, Subscription};
