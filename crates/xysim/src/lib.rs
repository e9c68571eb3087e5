//! Synthetic workloads for the XyDiff experiments.
//!
//! The paper's evaluation (§6) runs on (a) simulated changes over XML
//! documents — "we needed to be able to control the changes on a document
//! based on parameters of interest such as deletion rate. To do that, we
//! built a change simulator" — and (b) XML snapshots of web sites ("we
//! implemented a tool that represents a snapshot of a portion of the web as
//! a set of XML documents"). The original web corpus is not available, so
//! this crate synthesizes documents matching the statistics the paper
//! reports (average web XML ≈ 20 KB; site-metadata files of ~5 MB), per the
//! substitution policy in DESIGN.md §4.
//!
//! - [`generate`] — parameterized random documents (catalogs, address books,
//!   feeds, generic trees) of controllable size;
//! - [`simulate`] — the three-phase change simulator of §6.1, emitting the
//!   new version *and* the "perfect" delta (via shared XIDs);
//! - [`site_snapshot`] — site-metadata snapshots à la the INRIA experiment
//!   (§6.2);
//! - [`corpus`] — small fixed documents, including the paper's Figure 2
//!   catalog example, for tests and examples.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::todo, clippy::dbg_macro, clippy::print_stderr))]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod change;
pub mod corpus;
mod docgen;
mod families;
mod websnap;
mod words;

pub use change::{simulate, ChangeConfig, SimulatedChange};
pub use docgen::{dtd_for, generate, DocGenConfig, DocKind};
pub use families::{attribute_churn, shuffle_children, AttrChurnConfig, ShuffleConfig};
pub use websnap::{evolve_site, site_snapshot, SiteConfig};
