//! The network front: an event-driven HTTP/1.1 server over an
//! [`IngestServer`].
//!
//! One reactor thread multiplexes every connection over nonblocking
//! sockets (see [`crate::reactor`]); requests are parsed incrementally by
//! per-connection state machines and only complete, ready-to-diff
//! snapshots are handed to the xyserve scheduler. The routes:
//!
//! | route                   | behaviour                                        |
//! |-------------------------|--------------------------------------------------|
//! | `POST /ingest/{key}`    | body = XML snapshot → `{version, ops, ...}` JSON |
//! | `GET /doc/{key}[/{v}]`  | reconstructed XML of version `v` (default last)  |
//! | `GET /metrics`          | Prometheus exposition (ingest + HTTP layers)     |
//! | `GET /healthz`          | `200` while serving, `503` while draining        |
//! | `POST /admin/shutdown`  | begin a loss-free drain, `202`                   |
//!
//! Backpressure is layered: a full ingest queue turns into `503` +
//! `Retry-After` via [`IngestServer::try_submit_with`] (shedding without
//! burning a per-key sequence number), too many open connections shed new
//! arrivals with the same `503`, and at `max_connections` the listener
//! itself pauses. Shutdown is loss-free — every accepted snapshot resolves
//! before the pipeline stops, and the drain is signalled to the reactor
//! through the poller's eventfd wake-up (no loopback connects).

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use xyserve::{IngestServer, ServeConfig, ShutdownReport, StartError};

use crate::config::NetConfig;
use crate::driver::Waker;
use crate::metrics::HttpMetrics;
use crate::reactor::{FrontHandle, Reactor};
use crate::sysdrv::SysDriver;

/// Error starting a [`NetServer`].
#[derive(Debug)]
pub enum NetStartError {
    /// Binding the listen socket (or creating the poller) failed.
    Bind(io::Error),
    /// Starting the ingest pipeline failed (bad config, WAL open or replay).
    Ingest(StartError),
}

impl std::fmt::Display for NetStartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetStartError::Bind(e) => write!(f, "binding listen socket: {e}"),
            NetStartError::Ingest(e) => write!(f, "starting ingest pipeline: {e}"),
        }
    }
}

impl std::error::Error for NetStartError {}

/// Accounting returned by [`NetServer::shutdown`].
#[derive(Debug)]
pub struct NetShutdownReport {
    /// The ingest pipeline's loss-free accounting.
    pub ingest: ShutdownReport,
    /// Connections the network front accepted.
    pub connections: u64,
    /// Requests served across every route.
    pub requests: u64,
}

/// State shared by the reactor and the control handles.
pub(crate) struct Shared {
    pub(crate) ingest: IngestServer,
    pub(crate) http: HttpMetrics,
    pub(crate) config: NetConfig,
    pub(crate) local_addr: SocketAddr,
    /// Set once a drain begins; new snapshots are refused from then on.
    pub(crate) draining: AtomicBool,
    /// Signals [`NetServer::wait_for_shutdown_request`].
    pub(crate) shutdown_flag: Mutex<bool>,
    pub(crate) shutdown_cv: Condvar,
    /// Wakes the reactor's poll when a drain is requested from another
    /// thread (`None` once the reactor has exited).
    pub(crate) waker: Mutex<Option<Waker>>,
}

impl Shared {
    /// Idempotently begin a loss-free drain: refuse new snapshots, wake the
    /// reactor's poll, and signal anyone blocked in
    /// `wait_for_shutdown_request`.
    pub(crate) fn begin_shutdown(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.ingest.begin_drain();
        // INVARIANT: a poisoned lock means a panicking holder; propagate.
        if let Some(waker) = self.waker.lock().unwrap().as_ref() {
            waker();
        }
        // INVARIANT: a poisoned lock means a panicking holder; propagate.
        *self.shutdown_flag.lock().unwrap() = true;
        self.shutdown_cv.notify_all();
    }

    pub(crate) fn wait_for_shutdown_request(&self, timeout: Duration) -> bool {
        // INVARIANT: a poisoned lock means a panicking holder; propagate.
        let flag = self.shutdown_flag.lock().unwrap();
        let (flag, _) = self
            .shutdown_cv
            .wait_timeout_while(flag, timeout, |requested| !*requested)
            // INVARIANT: a poisoned lock means a panicking holder; propagate.
            .unwrap();
        *flag
    }

    /// Drop the poller wake-up (after the reactor exits, so the poller's
    /// descriptors can close).
    pub(crate) fn take_waker(&self) {
        // INVARIANT: a poisoned lock means a panicking holder; propagate.
        self.waker.lock().unwrap().take();
    }
}

/// The HTTP front over an [`IngestServer`]: binds a nonblocking listener
/// and runs a [`Reactor`] on a single `xynet-reactor` thread. Dropping the
/// handle without calling [`NetServer::shutdown`] drains the same way.
pub struct NetServer {
    /// `Some` until [`NetServer::shutdown`] consumes it.
    handle: Option<FrontHandle>,
    reactor: Option<JoinHandle<Reactor<SysDriver>>>,
}

impl NetServer {
    /// Bind `net.addr`, start the ingest pipeline from `serve`, and begin
    /// accepting connections on the reactor thread.
    pub fn start(net: NetConfig, serve: ServeConfig) -> Result<NetServer, NetStartError> {
        let driver = SysDriver::bind(&net.addr).map_err(NetStartError::Bind)?;
        let mut reactor = Reactor::new(driver, net, serve)?;
        let handle = reactor.handle();
        let thread = std::thread::Builder::new()
            .name("xynet-reactor".to_string())
            .spawn(move || {
                reactor.run();
                reactor
            })
            // INVARIANT: spawn only fails on OS thread exhaustion; a server
            // that cannot start its reactor cannot run.
            .expect("spawning the reactor thread cannot fail");
        Ok(NetServer { handle: Some(handle), reactor: Some(thread) })
    }

    fn handle(&self) -> &FrontHandle {
        // INVARIANT: `handle` is only vacated by `shutdown`, which consumes
        // the handle — no method can run after it.
        self.handle.as_ref().expect("NetServer used after shutdown")
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.handle().local_addr()
    }

    /// The ingest pipeline behind the front.
    pub fn ingest(&self) -> &IngestServer {
        self.handle().ingest()
    }

    /// The HTTP-layer metric registry.
    pub fn http_metrics(&self) -> &HttpMetrics {
        self.handle().http_metrics()
    }

    /// The full Prometheus exposition: ingest families then HTTP families
    /// (exactly what `GET /metrics` serves).
    pub fn metrics_text(&self) -> String {
        self.handle().metrics_text()
    }

    /// Begin a loss-free drain without consuming the handle (the same thing
    /// `POST /admin/shutdown` does). Follow with [`NetServer::shutdown`].
    pub fn request_shutdown(&self) {
        self.handle().request_shutdown();
    }

    /// Block until a drain has been requested — by
    /// [`NetServer::request_shutdown`] or by `POST /admin/shutdown` — or
    /// until `timeout` elapses. Returns true when the drain was requested.
    pub fn wait_for_shutdown_request(&self, timeout: Duration) -> bool {
        self.handle().wait_for_shutdown_request(timeout)
    }

    /// Stop accepting, serve out every connection already accepted, drain
    /// the ingest pipeline loss-free, and return the combined accounting.
    pub fn shutdown(mut self) -> NetShutdownReport {
        self.handle().request_shutdown();
        // Release this side's FrontHandle before consuming the reactor, so
        // its accounting sees the last Arc.
        self.handle = None;
        // INVARIANT: `reactor` is only vacated here, and `self` is consumed.
        let thread = self.reactor.take().expect("NetServer used after shutdown");
        // INVARIANT: a panicking reactor is a server bug; propagate.
        let reactor = thread.join().expect("reactor thread panicked");
        reactor.into_report()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        let Some(handle) = self.handle.take() else {
            return; // shutdown() already ran
        };
        handle.request_shutdown();
        drop(handle);
        if let Some(thread) = self.reactor.take() {
            if let Ok(reactor) = thread.join() {
                // Runs the ingest pipeline's own drain via its Drop.
                drop(reactor.into_report());
            }
        }
    }
}
