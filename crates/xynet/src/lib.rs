//! `xynet` — the HTTP/1.1 network front for the `xyserve` ingestion
//! pipeline.
//!
//! The paper's Figure 1 architecture ends at a service boundary: crawlers
//! push snapshots in, subscribers get alerts out. `xyserve` implements the
//! loop; this crate puts a wire protocol in front of it as an
//! **event-driven reactor**: one thread multiplexes every connection over
//! nonblocking sockets behind a readiness seam ([`driver::Driver`]) with
//! two backends — epoll and a deterministic in-memory simulator for
//! tests. Per-connection state
//! machines ([`machine`]) drive the incremental HTTP parser ([`http`]);
//! only complete requests reach the xyserve scheduler, so idle keep-alive
//! clients cost a file descriptor each, not a thread.
//!
//! ```no_run
//! use xynet::{NetConfig, NetServer};
//! use xyserve::ServeConfig;
//!
//! let server = NetServer::start(
//!     NetConfig::new().with_addr("127.0.0.1:8080"),
//!     ServeConfig::new().with_workers(4).expect("valid worker count"),
//! )
//! .expect("bind failed");
//! println!("listening on {}", server.local_addr());
//! // POST /ingest/{key} bodies flow through the diff pipeline; when a
//! // drain is requested (POST /admin/shutdown), finish loss-free:
//! server.wait_for_shutdown_request(std::time::Duration::MAX);
//! let report = server.shutdown();
//! assert!(report.ingest.is_balanced());
//! ```
//!
//! Design notes live in `DESIGN.md` §9 (routes, backpressure) and §15
//! (reactor architecture) at the repository root.

#![forbid(unsafe_code)]

pub mod config;
pub mod driver;
pub mod http;
mod machine;
pub mod metrics;
pub mod reactor;
mod router;
pub mod server;
pub mod sim;
pub mod sysdrv;

pub use config::NetConfig;
pub use driver::{Driver, Event, Interest, Token, Transport, Waker};
pub use metrics::HttpMetrics;
pub use reactor::{FrontHandle, Reactor};
pub use server::{NetServer, NetShutdownReport, NetStartError};
pub use sim::{SimClient, SimDriver, SimNet};
pub use sysdrv::SysDriver;
