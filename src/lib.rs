//! Umbrella crate for the XyDiff reproduction workspace.
//!
//! Re-exports the public crates so examples and integration tests can use a
//! single dependency. See the individual crates for the real APIs:
//!
//! - [`xytree`] — XML substrate (parser, arena tree, serializer, DTD subset)
//! - [`xydelta`] — the XyDelta change model (XIDs, deltas, versions)
//! - [`xydiff`] — the BULD diff algorithm (the paper's contribution)
//! - [`xybase`] — baseline diff algorithms for comparison
//! - [`xysim`] — synthetic document generator and change simulator
//! - [`xywarehouse`] — the Xyleme-Change pipeline (repository + alerter)
//! - [`xyquery`] — path queries over documents, versions and deltas
//! - [`xyindex`] — full-text index maintained incrementally from deltas
//! - [`xyhtml`] — HTML XMLization so web pages can be diffed
//! - [`xyserve`] — concurrent ingestion server (Figure 1 at scale)
//! - [`xynet`] — HTTP/1.1 network front for the ingestion server
//! - [`xywal`] — write-ahead delta log (the durable store, crash recovery)

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::todo, clippy::dbg_macro, clippy::print_stderr))]

pub use xybase;
pub use xydelta;
pub use xydiff;
pub use xyhtml;
pub use xyindex;
pub use xynet;
pub use xyquery;
pub use xyserve;
pub use xysim;
pub use xytree;
pub use xywal;
pub use xywarehouse;
