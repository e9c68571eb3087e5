//! The reactor's seam to the outside world: [`Driver`] (readiness +
//! accepting) and [`Transport`] (one connection's byte stream).
//!
//! The reactor is written entirely against these two traits, so the same
//! state-machine code runs over three backends:
//!
//! - [`crate::sysdrv::SysDriver`] — real nonblocking sockets polled through
//!   the `polling` shim's epoll;
//! - [`crate::sim::SimDriver`] — a deterministic in-memory driver for the
//!   torture tests: scripted byte chunks, virtual time, no sockets;
//! - (tests may provide their own `Driver` for targeted scenarios.)
//!
//! The readiness contract is **oneshot**, matching epoll's
//! `EPOLLONESHOT`: once an event for a
//! token is delivered, that token stays dormant until the reactor re-arms
//! it with [`Driver::rearm`]. The listener obeys the same contract through
//! [`Driver::arm_accept`].

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies one registered connection inside the reactor's slot table.
pub type Token = usize;

/// The token the driver uses to report "the listener is ready to accept".
/// One below the `polling` shim's reserved `NOTIFY_KEY`, so connection
/// slots (small indices) can never collide with either.
pub(crate) const LISTENER_TOKEN: Token = usize::MAX - 1;

/// Wakes a blocked [`Driver::poll`] from any thread (completion callbacks,
/// shutdown requests). Replaces the old loopback dummy-connect trick: the
/// real driver backs this with an eventfd owned by the poller.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// What readiness a connection should be (re-)armed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the peer has bytes (or EOF / an error) to read.
    pub readable: bool,
    /// Wake when the socket can accept more outgoing bytes.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only.
    pub(crate) const READ: Interest = Interest { readable: true, writable: false };
    /// Registered but dormant (e.g. while a request is in flight on the
    /// scheduler and output is fully flushed).
    pub(crate) const NONE: Interest = Interest { readable: false, writable: false };
}

/// One delivered readiness event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registered token (`LISTENER_TOKEN` for the acceptor).
    pub token: Token,
    /// Readable now (errors and hang-ups are delivered as readable so the
    /// next `read` observes them).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
}

/// One connection's nonblocking byte stream.
///
/// Both methods follow nonblocking-socket semantics: `Ok(0)` from `read`
/// is EOF, `ErrorKind::WouldBlock` means "re-arm and wait", any other
/// error is fatal for the connection.
pub trait Transport: Send {
    /// Read up to `buf.len()` bytes.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Write up to `buf.len()` bytes, returning how many were accepted.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// A stable identity the driver can map back to its own bookkeeping
    /// (the raw fd for sockets, the connection id in the sim).
    fn id(&self) -> u64;
}

/// The event loop's backend: readiness polling plus connection intake.
pub trait Driver: Send {
    /// The bound listen address (a placeholder in the sim).
    fn local_addr(&self) -> SocketAddr;

    /// The driver's clock. Real drivers return [`Instant::now`]; the sim
    /// returns a virtual clock so idle-eviction tests are deterministic.
    fn now(&self) -> Instant;

    /// Block until readiness events arrive, the timeout elapses, or a
    /// [`Waker`] fires; deliver events into `out` (cleared first).
    fn poll(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()>;

    /// Accept one pending connection, `Ok(None)` when the backlog is empty.
    fn accept(&mut self) -> io::Result<Option<Box<dyn Transport>>>;

    /// Arm (or pause) accept readiness. Like connection interest, accept
    /// readiness is oneshot: delivery of a `LISTENER_TOKEN` event disarms
    /// it until the next `arm_accept(true)`.
    fn arm_accept(&mut self, enabled: bool) -> io::Result<()>;

    /// Register a new connection under `token` with an initial interest.
    fn register(
        &mut self,
        token: Token,
        transport: &dyn Transport,
        interest: Interest,
    ) -> io::Result<()>;

    /// Re-arm an already-registered connection (the oneshot re-subscribe).
    fn rearm(
        &mut self,
        token: Token,
        transport: &dyn Transport,
        interest: Interest,
    ) -> io::Result<()>;

    /// Remove a connection from the poll set (called before dropping the
    /// transport).
    fn deregister(&mut self, transport: &dyn Transport) -> io::Result<()>;

    /// A handle that wakes [`Driver::poll`] from any thread.
    fn waker(&self) -> Waker;
}
