//! A deterministic in-memory [`Driver`] for reactor tests — no sockets, no
//! kernel, no real clock.
//!
//! The torture harness (`tests/net_torture.rs`) scripts connections through
//! [`SimNet`]: connect, deliver bytes in arbitrary splits, half-close,
//! reset, read back what the server wrote, and advance a **virtual clock**
//! that only moves when the test says so — which makes idle-timeout and
//! slow-loris eviction exactly reproducible. The driver honours the same
//! oneshot readiness contract as the real epoll driver, so interest
//! re-arming bugs show up here first.
//!
//! [`Driver::poll`] never sleeps for long: with no deliverable event it
//! parks on a condvar for at most a few real milliseconds (completion
//! callbacks from ingest workers notify it), then reports an empty batch.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::driver::{Driver, Event, Interest, Token, Transport, Waker, LISTENER_TOKEN};

/// Longest real time one empty `poll` may block waiting for cross-thread
/// completions before reporting an empty batch.
const POLL_SLICE: Duration = Duration::from_millis(5);

/// One scripted piece of a connection's inbound stream.
enum Chunk {
    Data(Vec<u8>),
    /// Half-close: reads observe EOF, writes still succeed.
    Eof,
    /// Hard disconnect: the next read errors.
    Reset,
}

/// Server-side view of one simulated connection.
struct SimConn {
    inbound: VecDeque<Chunk>,
    outbound: Vec<u8>,
    /// Bytes the "network" accepts before the server sees `WouldBlock`;
    /// `None` is an unlimited window. Freed by [`SimClient::take_output`].
    recv_window: Option<usize>,
    /// The client hard-closed; server writes fail immediately.
    reset: bool,
    /// The server closed (deregistered) this connection.
    server_closed: bool,
}

#[derive(Default)]
struct SimState {
    clock: Duration,
    next_id: u64,
    pending_accepts: VecDeque<u64>,
    conns: HashMap<u64, SimConn>,
    /// Armed interest per reactor token (oneshot: cleared on delivery).
    armed: HashMap<Token, (u64, Interest)>,
    accept_armed: bool,
    notified: bool,
}

struct SimShared {
    state: Mutex<SimState>,
    cv: Condvar,
    /// Anchor for the virtual clock ([`Driver::now`] = `epoch + clock`).
    epoch: Instant,
}

impl SimShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, SimState> {
        // INVARIANT: a poisoned lock means a panicking holder; propagate.
        self.state.lock().unwrap()
    }

    fn wake(&self) {
        self.lock().notified = true;
        self.cv.notify_all();
    }
}

/// The test-facing half: create connections, script traffic, advance time.
#[derive(Clone)]
pub struct SimNet {
    shared: Arc<SimShared>,
}

impl SimNet {
    /// A fresh simulated network: the driver goes to [`crate::Reactor::new`],
    /// the net handle stays with the test.
    pub fn new() -> (SimDriver, SimNet) {
        let shared = Arc::new(SimShared {
            state: Mutex::new(SimState::default()),
            cv: Condvar::new(),
            epoch: Instant::now(),
        });
        (SimDriver { shared: Arc::clone(&shared) }, SimNet { shared })
    }

    /// Open a new client connection (lands in the accept backlog).
    pub fn connect(&self) -> SimClient {
        let mut state = self.shared.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.conns.insert(
            id,
            SimConn {
                inbound: VecDeque::new(),
                outbound: Vec::new(),
                recv_window: None,
                reset: false,
                server_closed: false,
            },
        );
        state.pending_accepts.push_back(id);
        drop(state);
        self.shared.wake();
        SimClient { id, shared: Arc::clone(&self.shared) }
    }

    /// Advance the virtual clock (the only way it moves).
    pub fn advance(&self, by: Duration) {
        self.shared.lock().clock += by;
        self.shared.wake();
    }
}

/// A scripted client endpoint.
#[derive(Clone)]
pub struct SimClient {
    id: u64,
    shared: Arc<SimShared>,
}

impl SimClient {
    fn with_conn<R>(&self, f: impl FnOnce(&mut SimConn) -> R) -> R {
        let mut state = self.shared.lock();
        // INVARIANT: connections are never removed from the map while a
        // SimClient is alive; only flagged closed.
        let conn = state.conns.get_mut(&self.id).expect("connection exists");
        f(conn)
    }

    /// Deliver bytes to the server (one readiness chunk; split calls to
    /// script packet boundaries).
    pub fn send(&self, bytes: &[u8]) {
        self.with_conn(|c| c.inbound.push_back(Chunk::Data(bytes.to_vec())));
        self.shared.wake();
    }

    /// Half-close the sending side (like `shutdown(SHUT_WR)`).
    pub fn finish(&self) {
        self.with_conn(|c| c.inbound.push_back(Chunk::Eof));
        self.shared.wake();
    }

    /// Hard-disconnect: queued data still delivers first, then the server's
    /// read errors; server writes fail immediately.
    pub fn reset(&self) {
        self.with_conn(|c| {
            c.inbound.push_back(Chunk::Reset);
            c.reset = true;
        });
        self.shared.wake();
    }

    /// Take everything the server has written since the last call (also
    /// frees the receive window).
    pub fn take_output(&self) -> Vec<u8> {
        self.with_conn(|c| std::mem::take(&mut c.outbound))
    }

    /// Bytes written by the server and not yet taken.
    pub fn output_len(&self) -> usize {
        self.with_conn(|c| c.outbound.len())
    }

    /// Cap how many un-taken bytes the server can write before seeing
    /// `WouldBlock` (simulates a stalled reader / tiny receive window).
    pub fn set_recv_window(&self, bytes: Option<usize>) {
        self.with_conn(|c| c.recv_window = bytes);
        self.shared.wake();
    }

    /// True once the server has closed this connection.
    pub fn server_closed(&self) -> bool {
        self.with_conn(|c| c.server_closed)
    }
}

/// Server-side transport for one simulated connection.
struct SimTransport {
    id: u64,
    shared: Arc<SimShared>,
}

impl Drop for SimTransport {
    /// Dropping the server's endpoint closes the socket, whether or not it
    /// was ever registered (shed connections are answered and dropped
    /// without registration).
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        if let Some(conn) = state.conns.get_mut(&self.id) {
            conn.server_closed = true;
        }
    }
}

impl Transport for SimTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut state = self.shared.lock();
        let Some(conn) = state.conns.get_mut(&self.id) else {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "gone"));
        };
        match conn.inbound.front_mut() {
            None => Err(io::ErrorKind::WouldBlock.into()),
            Some(Chunk::Eof) => Ok(0), // left in place: EOF is sticky
            Some(Chunk::Reset) => Err(io::ErrorKind::ConnectionReset.into()),
            Some(Chunk::Data(data)) => {
                let n = data.len().min(buf.len());
                buf[..n].copy_from_slice(&data[..n]);
                data.drain(..n);
                if data.is_empty() {
                    conn.inbound.pop_front();
                }
                Ok(n)
            }
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.shared.lock();
        let Some(conn) = state.conns.get_mut(&self.id) else {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "gone"));
        };
        if conn.reset {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let room = match conn.recv_window {
            None => buf.len(),
            Some(cap) => cap.saturating_sub(conn.outbound.len()).min(buf.len()),
        };
        if room == 0 && !buf.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        conn.outbound.extend_from_slice(&buf[..room]);
        Ok(room)
    }

    fn id(&self) -> u64 {
        self.id
    }
}

/// The reactor-facing half of [`SimNet`].
pub struct SimDriver {
    shared: Arc<SimShared>,
}

impl SimDriver {
    /// Events deliverable right now under the armed interest set. Delivery
    /// disarms (oneshot), exactly like epoll.
    fn collect(state: &mut SimState, out: &mut Vec<Event>) {
        if state.accept_armed && !state.pending_accepts.is_empty() {
            state.accept_armed = false;
            out.push(Event { token: LISTENER_TOKEN, readable: true, writable: false });
        }
        let mut delivered: Vec<Token> = Vec::new();
        for (&token, &(id, interest)) in &state.armed {
            let Some(conn) = state.conns.get(&id) else { continue };
            let readable = interest.readable && !conn.inbound.is_empty();
            let writable = interest.writable
                && !conn.reset
                && conn.recv_window.map_or(true, |cap| conn.outbound.len() < cap);
            // A reset also trips writers waiting for window.
            let writable = writable || (interest.writable && conn.reset);
            if readable || writable {
                out.push(Event { token, readable, writable });
                delivered.push(token);
            }
        }
        for token in delivered {
            if let Some(entry) = state.armed.get_mut(&token) {
                entry.1 = Interest::NONE;
            }
        }
    }
}

impl Driver for SimDriver {
    fn local_addr(&self) -> SocketAddr {
        // INVARIANT: a fixed literal address always parses.
        "127.0.0.1:0".parse().expect("literal address parses")
    }

    fn now(&self) -> Instant {
        let state = self.shared.lock();
        self.shared.epoch + state.clock
    }

    fn poll(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let slice = timeout.unwrap_or(POLL_SLICE).min(POLL_SLICE);
        let deadline = Instant::now() + slice;
        let mut state = self.shared.lock();
        loop {
            SimDriver::collect(&mut state, out);
            if !out.is_empty() || state.notified {
                state.notified = false;
                return Ok(());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(());
            }
            // INVARIANT: a poisoned lock means a panicking holder; propagate.
            let (next, _) = self.shared.cv.wait_timeout(state, left).unwrap();
            state = next;
        }
    }

    fn accept(&mut self) -> io::Result<Option<Box<dyn Transport>>> {
        let mut state = self.shared.lock();
        match state.pending_accepts.pop_front() {
            Some(id) => {
                Ok(Some(Box::new(SimTransport { id, shared: Arc::clone(&self.shared) })))
            }
            None => Ok(None),
        }
    }

    fn arm_accept(&mut self, enabled: bool) -> io::Result<()> {
        self.shared.lock().accept_armed = enabled;
        Ok(())
    }

    fn register(
        &mut self,
        token: Token,
        transport: &dyn Transport,
        interest: Interest,
    ) -> io::Result<()> {
        self.shared.lock().armed.insert(token, (transport.id(), interest));
        Ok(())
    }

    fn rearm(
        &mut self,
        token: Token,
        transport: &dyn Transport,
        interest: Interest,
    ) -> io::Result<()> {
        self.shared.lock().armed.insert(token, (transport.id(), interest));
        Ok(())
    }

    fn deregister(&mut self, transport: &dyn Transport) -> io::Result<()> {
        let mut state = self.shared.lock();
        let id = transport.id();
        state.armed.retain(|_, (conn_id, _)| *conn_id != id);
        if let Some(conn) = state.conns.get_mut(&id) {
            conn.server_closed = true;
        }
        Ok(())
    }

    fn waker(&self) -> Waker {
        let shared = Arc::clone(&self.shared);
        Arc::new(move || shared.wake())
    }
}
