//! xyserve — the concurrent ingestion server of the Xyleme-Change loop.
//!
//! The paper's Figure 1 sketches a production service: a crawler feeds
//! document snapshots to a diff module, deltas are appended to the
//! repository, and an alerter matches them against subscriptions — "the
//! versioning of tens of millions of documents per day". This crate scales
//! the single-threaded loop the other crates implement into that service
//! shape:
//!
//! - [`KeyedQueue`] — the one type that queues jobs (std
//!   `Mutex`/`Condvar` only): a strand per document key, so versions of a
//!   document run one at a time in push order while any idle worker takes
//!   the oldest ready key, with one capacity bound as the backpressure
//!   toward the crawler; it also owns the queue depth and its high water;
//! - [`IngestServer`] — a worker pool over one
//!   [`xywarehouse::Repository`], which locks per key, with a dead-letter
//!   queue for snapshots that cannot be stored; each worker runs one diff at
//!   a time, on its own thread, so the worker count is the server's
//!   parallelism;
//! - [`metrics::Metrics`] — the counters and per-phase latency histograms
//!   the ingest loop keeps. [`IngestServer::metrics_text`] renders them as
//!   a Prometheus exposition together with the queue's gauges and the
//!   write-ahead log's counters, read from their owners at scrape time.
//!
//! [`ServeConfig`]'s fields are private: its `with_*` methods are the only
//! way to set them, so new knobs never break callers, and the
//! capacity-like knobs are checked once, there, with a typed
//! [`ConfigError`]:
//!
//! ```
//! use xyserve::{IngestServer, ServeConfig};
//!
//! let server = IngestServer::start(ServeConfig::new().with_workers(2).unwrap());
//! server.submit("doc.xml", "<doc><p>v0</p></doc>").unwrap();
//! // Tracked submissions resolve to the stored version and delta size.
//! let ticket = server.submit_tracked("doc.xml", "<doc><p>v1</p></doc>").unwrap();
//! let done = ticket.wait().unwrap();
//! assert_eq!(done.version, 1);
//! let report = server.shutdown();
//! assert!(report.is_balanced());
//! assert_eq!(report.succeeded, 2);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]
#![cfg_attr(not(test), warn(clippy::todo, clippy::dbg_macro, clippy::print_stderr))]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod metrics;
mod queue;
mod server;

pub use metrics::{Counter, Gauge, Histogram, Metrics};
pub use queue::{KeyedQueue, PushError};
pub use server::{
    Completed, CompletionFn, ConfigError, DeadLetter, FaultHook, IngestOutcome,
    IngestServer, ServeConfig, ShutdownReport, StartError, SubmitError, Ticket, WalPolicy,
};
pub use xywal::WalSync;
