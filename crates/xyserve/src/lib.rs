//! xyserve — the concurrent ingestion server of the Xyleme-Change loop.
//!
//! The paper's Figure 1 sketches a production service: a crawler feeds
//! document snapshots to a diff module, deltas are appended to the
//! repository, and an alerter matches them against subscriptions — "the
//! versioning of tens of millions of documents per day". This crate scales
//! the single-threaded loop the other crates implement into that service
//! shape:
//!
//! - [`queue::KeyedQueue`] — the one type that queues jobs (std
//!   `Mutex`/`Condvar` only): a strand per document key, so versions of a
//!   document run one at a time in push order while any idle worker takes
//!   the oldest ready key, with one capacity bound as the backpressure
//!   toward the crawler;
//! - [`IngestServer`] — a worker pool over hash-sharded
//!   [`xywarehouse::Repository`] shards, with a dead-letter queue for
//!   snapshots that cannot be stored;
//! - [`metrics::Metrics`] — atomic counters, the queue-depth gauge, and
//!   per-phase latency histograms with a Prometheus text exposition.
//!
//! `ServeConfig` is `#[non_exhaustive]` and built through `with_*` methods,
//! so new knobs never break callers; the
//! capacity-like knobs validate and return a typed [`ConfigError`]:
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
#![warn(missing_docs)]

pub mod metrics;
pub mod queue;
pub mod server;

pub use metrics::{Counter, Gauge, Histogram, Metrics};
pub use queue::{KeyedQueue, PushError};
pub use server::{
    Completed, CompletionFn, ConfigError, DeadLetter, FaultHook, IngestOutcome,
    IngestServer, ServeConfig, ShutdownReport, StartError, SubmitError, Ticket, WalPolicy,
};
pub use xywal::WalSync;
