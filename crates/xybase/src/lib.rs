//! Baseline diff algorithms the XyDiff paper compares against or builds on.
//!
//! Three comparators, all implemented from scratch:
//!
//! - [`diff_slices`] — the shortest-edit-script algorithm behind Unix
//!   `diff` (Myers 1986, linear-space refinement). Figure 6 of the paper
//!   reports the ratio of XyDiff delta sizes over Unix diff output sizes;
//!   [`unix_diff`] renders the classic "normal format" output so the sizes
//!   are comparable.
//! - [`diffmk_diff`] — a DiffMK-style diff: "this tool is based on the unix
//!   standard diff algorithm, and uses a list description of the XML
//!   document, thus losing the benefit of tree structure" (§3). The tree is
//!   flattened to a token list and line-diffed.
//! - [`selkow_distance`] — the quadratic dynamic-programming tree edit
//!   distance in Selkow's variant (insertions/deletions at subtree
//!   granularity), i.e. Lu's algorithm adapted to trees-with-labels,
//!   `O(|D1|·|D2|)` — the "previous algorithms run in quadratic time"
//!   comparator of the scaling experiment.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::todo, clippy::dbg_macro, clippy::print_stderr))]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod diffmk;
mod myers;
mod selkow;
mod unixdiff;

pub use diffmk::{diffmk_diff, DiffMkResult};
pub use myers::{diff_slices, Edit};
pub use selkow::{selkow_distance, SelkowResult};
pub use unixdiff::{unix_diff, unix_diff_size};
