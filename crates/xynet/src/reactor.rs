//! The event-driven connection engine: one thread, many connections.
//!
//! A [`Reactor`] owns every accepted connection as a slot in a token table.
//! Each slot couples a nonblocking [`Transport`] with a push-parser
//! [`ConnMachine`] and an output buffer; the loop is the classic readiness
//! shape:
//!
//! ```text
//!    poll ──► completions ──► events (read/flush) ──► accept ──► sweep
//!     ▲                                                            │
//!     └──────────────── re-arm interest (oneshot) ◄────────────────┘
//! ```
//!
//! Requests that resolve synchronously (routing, `/metrics`, `/doc`) are
//! answered in place. `POST /ingest/{key}` is handed to the xyserve
//! scheduler through [`xyserve::IngestServer::try_submit_with`]; the
//! completion callback pushes the outcome onto a queue and fires the
//! driver's [`Waker`] (an eventfd — this replaced the old loopback
//! dummy-connect wake), so a reactor blocked in `poll` resumes immediately
//! while never parking a thread per request.
//!
//! Robustness guards, all tunable through [`NetConfig`]:
//!
//! - **idle/slow-loris eviction** — a connection's `last_progress` advances
//!   only when a full response is flushed (or on accept); anything idle or
//!   trickling longer than `idle_timeout` without an in-flight request is
//!   evicted and counted in `http_evicted_connections_total`;
//! - **read/write budgets** — per-connection per-iteration byte caps, so
//!   one firehose connection cannot starve the loop;
//! - **connection-count backpressure** — above `shed_connections` new
//!   connections get an immediate `503` + `Retry-After`; at
//!   `max_connections` the listener itself is paused (and resumed at a
//!   low-water mark), visible as the `http_accept_paused` gauge.
//!
//! Stale-event safety: slots carry a generation counter, completion
//! callbacks capture `(token, generation)`, and freed slots are quarantined
//! for one iteration (`free_pending`) so an event already delivered in the
//! current batch can never alias a newly accepted connection.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use xyserve::{CompletionFn, IngestOutcome, IngestServer, ServeConfig, SubmitError};

use crate::config::NetConfig;
use crate::driver::{Driver, Event, Interest, Token, Waker, LISTENER_TOKEN};
use crate::http::{self, Limits};
use crate::machine::{ConnMachine, Step};
use crate::metrics::HttpMetrics;
use crate::router::{self, Response, Routed};
use crate::server::{NetShutdownReport, NetStartError, Shared};

/// Most connections accepted in one loop iteration, so a connect storm
/// cannot starve established connections.
const ACCEPT_BATCH: usize = 256;

/// Read chunk size; the per-iteration cap is `NetConfig::read_budget`.
const READ_CHUNK: usize = 4096;

/// Resolved ingest outcomes en route from worker threads to the reactor.
pub(crate) struct CompletionQueue {
    queue: Mutex<Vec<(Token, u64, IngestOutcome)>>,
    waker: Waker,
}

impl CompletionQueue {
    fn new(waker: Waker) -> CompletionQueue {
        CompletionQueue { queue: Mutex::new(Vec::new()), waker }
    }

    fn push(&self, token: Token, gen: u64, outcome: IngestOutcome) {
        // INVARIANT: a poisoned lock means a panicking holder; propagate.
        self.queue.lock().unwrap().push((token, gen, outcome));
        (self.waker)();
    }

    fn drain(&self) -> Vec<(Token, u64, IngestOutcome)> {
        // INVARIANT: a poisoned lock means a panicking holder; propagate.
        std::mem::take(&mut *self.queue.lock().unwrap())
    }
}

/// Where one connection is in its request/response cycle.
#[derive(Clone, Copy)]
enum ConnState {
    /// Parsing and answering requests inline.
    Ready,
    /// One request is on the scheduler; awaiting its completion callback.
    InFlight {
        /// When the request's head finished parsing (request latency).
        started: Instant,
        /// When the submission was accepted (ingest wait latency).
        waited: Instant,
        /// Close once the outcome response is flushed.
        close_after: bool,
    },
}

/// One live connection.
struct Conn {
    transport: Box<dyn crate::driver::Transport>,
    machine: ConnMachine,
    /// Serialized responses not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    /// Close as soon as `out` is fully flushed.
    close_after_flush: bool,
    /// The peer half-closed; stop arming for reads.
    eof: bool,
    /// Advanced on accept and on every fully flushed response; the idle /
    /// slow-loris eviction clock.
    last_progress: Instant,
}

struct Slot {
    conn: Option<Conn>,
    /// Bumped on close so stale completions and events cannot alias a
    /// reused slot.
    gen: u64,
}

/// The single-threaded event loop multiplexing every connection over one
/// [`Driver`]. Constructed by [`crate::NetServer`] over real sockets, or
/// directly over [`crate::sim::SimDriver`] in tests.
pub struct Reactor<D: Driver> {
    driver: D,
    shared: Arc<Shared>,
    completions: Arc<CompletionQueue>,
    events: Vec<Event>,
    slots: Vec<Slot>,
    /// Tokens free for immediate reuse.
    free: Vec<Token>,
    /// Tokens freed this iteration; promoted to `free` at iteration end.
    free_pending: Vec<Token>,
    open: usize,
    accept_paused: bool,
    drain_swept: bool,
}

impl<D: Driver> Reactor<D> {
    /// Start the ingest pipeline and wrap `driver` in a ready-to-run
    /// reactor. The listener is armed; call [`Reactor::run`] (or step with
    /// [`Reactor::turn`]) to serve.
    pub fn new(driver: D, net: NetConfig, serve: ServeConfig) -> Result<Reactor<D>, NetStartError> {
        let ingest = IngestServer::try_start(serve).map_err(NetStartError::Ingest)?;
        let shared = Arc::new(Shared {
            ingest,
            http: HttpMetrics::new(),
            local_addr: driver.local_addr(),
            config: net,
            draining: AtomicBool::new(false),
            shutdown_flag: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            waker: Mutex::new(Some(driver.waker())),
        });
        let completions = Arc::new(CompletionQueue::new(driver.waker()));
        let mut reactor = Reactor {
            driver,
            shared,
            completions,
            events: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            free_pending: Vec::new(),
            open: 0,
            accept_paused: false,
            drain_swept: false,
        };
        let _ = reactor.driver.arm_accept(true);
        Ok(reactor)
    }

    /// A cloneable control/observability handle (metrics, shutdown
    /// requests) that stays valid while the reactor runs on another thread.
    pub fn handle(&self) -> FrontHandle {
        FrontHandle { shared: Arc::clone(&self.shared) }
    }

    /// Connections currently registered.
    pub fn open_connections(&self) -> usize {
        self.open
    }

    /// Run until a drain is requested and every connection has resolved.
    pub fn run(&mut self) {
        while self.turn(None) {}
    }

    /// One loop iteration: poll (bounded by `max_wait` when given), then
    /// dispatch completions, events, accepts, and sweeps. Returns `false`
    /// once draining has finished and the loop should exit.
    pub fn turn(&mut self, max_wait: Option<Duration>) -> bool {
        let draining = self.shared.draining.load(Ordering::SeqCst);
        let mut timeout = self.poll_timeout(self.driver.now());
        if draining {
            // Keep sweeping promptly while a drain is in progress.
            let cap = Duration::from_millis(50);
            timeout = Some(timeout.map_or(cap, |t| t.min(cap)));
        }
        if let Some(cap) = max_wait {
            timeout = Some(timeout.map_or(cap, |t| t.min(cap)));
        }
        let mut events = std::mem::take(&mut self.events);
        if self.driver.poll(&mut events, timeout).is_err() {
            // A transiently failing poller must not spin the loop hot.
            std::thread::sleep(Duration::from_millis(5));
        }
        let iter_started = Instant::now();

        for (token, gen, outcome) in self.completions.drain() {
            self.handle_completion(token, gen, outcome);
        }

        let mut accept_ready = false;
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                accept_ready = true;
            }
        }
        for &ev in &events {
            if ev.token != LISTENER_TOKEN {
                self.handle_conn_event(ev);
            }
        }
        events.clear();
        self.events = events;
        if accept_ready {
            self.do_accept();
        }

        let draining = self.shared.draining.load(Ordering::SeqCst);
        if draining && !self.drain_swept {
            self.drain_swept = true;
            self.close_idle_for_drain();
        }
        self.evict_idle(self.driver.now());
        // Quarantined slots become reusable only now: no event delivered in
        // this batch can refer to a connection accepted in the next one.
        self.free.append(&mut self.free_pending);
        self.update_accept();
        self.shared.http.loop_time.observe(iter_started.elapsed());
        !(draining && self.open == 0)
    }

    /// Consume the reactor after [`Reactor::run`] exits: release the driver
    /// (closing the listener and poller), drain the ingest pipeline, and
    /// return the combined accounting.
    pub fn into_report(self) -> NetShutdownReport {
        let Reactor { driver, shared, completions, .. } = self;
        drop(driver);
        drop(completions);
        // The caller dropped every FrontHandle before joining the reactor
        // thread, and the completion callbacks only capture the queue.
        match Arc::into_inner(shared) {
            Some(shared) => {
                shared.take_waker();
                let connections = shared.http.connections.get();
                let requests = shared.http.requests_total();
                NetShutdownReport { ingest: shared.ingest.shutdown(), connections, requests }
            }
            // INVARIANT: reaching this means a FrontHandle outlived the
            // server handle — a caller bug the accounting cannot paper over.
            None => panic!("into_report with FrontHandle clones still alive"),
        }
    }

    /// Smallest duration until an idle-eviction deadline, or `None` when
    /// nothing is waiting on time.
    fn poll_timeout(&self, now: Instant) -> Option<Duration> {
        let idle = self.shared.config.idle_timeout;
        let mut next: Option<Duration> = None;
        for slot in &self.slots {
            let Some(conn) = slot.conn.as_ref() else { continue };
            if matches!(conn.state, ConnState::InFlight { .. }) {
                continue;
            }
            let Some(deadline) = conn.last_progress.checked_add(idle) else { continue };
            let left = deadline.saturating_duration_since(now).max(Duration::from_millis(1));
            next = Some(next.map_or(left, |n| n.min(left)));
        }
        next
    }

    fn alloc_slot(&mut self) -> Token {
        self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot { conn: None, gen: 0 });
            self.slots.len() - 1
        })
    }

    fn close_conn(&mut self, token: Token) {
        let Some(conn) = self.slots[token].conn.take() else { return };
        let _ = self.driver.deregister(conn.transport.as_ref());
        self.slots[token].gen += 1;
        self.shared.http.active_connections.dec();
        self.open -= 1;
        self.free_pending.push(token);
    }

    /// Re-arm `token` for the interest its state implies (oneshot refresh).
    fn arm(&mut self, token: Token) {
        let (slots, driver) = (&self.slots, &mut self.driver);
        let Some(conn) = slots[token].conn.as_ref() else { return };
        let want = Interest {
            readable: matches!(conn.state, ConnState::Ready)
                && !conn.eof
                && !conn.close_after_flush,
            writable: conn.out_pos < conn.out.len(),
        };
        if driver.rearm(token, conn.transport.as_ref(), want).is_err() {
            self.close_conn(token);
        }
    }

    fn handle_conn_event(&mut self, ev: Event) {
        if self.slots.get(ev.token).and_then(|s| s.conn.as_ref()).is_none() {
            return; // stale token: the connection closed earlier this batch
        }
        if ev.readable && !self.do_read(ev.token) {
            return;
        }
        self.finish_conn(ev.token);
    }

    /// Read up to the budget, feed the machine, and process what completed.
    /// Returns false when the connection died.
    fn do_read(&mut self, token: Token) -> bool {
        let budget = self.shared.config.read_budget;
        let mut dead = false;
        let mut progressed = false;
        {
            let Some(conn) = self.slots[token].conn.as_mut() else { return false };
            let readable_state = matches!(conn.state, ConnState::Ready)
                && !conn.eof
                && !conn.close_after_flush;
            if readable_state {
                let mut chunk = [0u8; READ_CHUNK];
                let mut total = 0usize;
                loop {
                    match conn.transport.read(&mut chunk) {
                        Ok(0) => {
                            conn.eof = true;
                            conn.machine.note_eof();
                            progressed = true;
                            break;
                        }
                        Ok(n) => {
                            conn.machine.feed(&chunk[..n]);
                            progressed = true;
                            total += n;
                            if total >= budget {
                                break; // budget spent; re-arm picks it up
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead = true; // reset mid-read: nothing to say
                            break;
                        }
                    }
                }
            }
        }
        if dead {
            self.close_conn(token);
            return false;
        }
        if progressed {
            self.process_machine(token);
        }
        true
    }

    /// Drive the state machine over whatever is buffered: route completed
    /// requests, queue responses, submit ingests, stop on `InFlight`.
    fn process_machine(&mut self, token: Token) {
        let gen = self.slots[token].gen;
        let shared = Arc::clone(&self.shared);
        loop {
            let Some(conn) = self.slots[token].conn.as_mut() else { return };
            if !matches!(conn.state, ConnState::Ready) || conn.close_after_flush {
                return;
            }
            match conn.machine.next() {
                Step::NeedRead => return,
                Step::Continue100 => {
                    let _ = http::write_continue(&mut conn.out);
                }
                Step::Close => {
                    conn.close_after_flush = true;
                    return;
                }
                Step::Fail(e) => {
                    shared.http.rejected.inc();
                    let mut resp = Response::error(e.status(), &e.to_string());
                    resp.close = true;
                    shared.http.observe_status(resp.code);
                    queue_response(conn, &resp);
                    return;
                }
                Step::Request(head, body) => {
                    let started = Instant::now();
                    let force_close =
                        shared.draining.load(Ordering::SeqCst) || !head.keep_alive;
                    match router::route(&shared, &head, body) {
                        Routed::Done(mut resp) => {
                            if force_close {
                                resp.close = true;
                            }
                            shared.http.observe_status(resp.code);
                            shared.http.request_time.observe(started.elapsed());
                            queue_response(conn, &resp);
                        }
                        Routed::Ingest { key, xml } => {
                            let queue = Arc::clone(&self.completions);
                            let done: CompletionFn = Box::new(move |outcome| {
                                queue.push(token, gen, outcome);
                            });
                            match shared.ingest.try_submit_with(&key, xml, done) {
                                Ok(()) => {
                                    conn.state = ConnState::InFlight {
                                        started,
                                        waited: Instant::now(),
                                        close_after: force_close,
                                    };
                                    return;
                                }
                                Err(SubmitError::QueueFull) => {
                                    let mut resp = router::queue_full_response(&shared);
                                    if force_close {
                                        resp.close = true;
                                    }
                                    shared.http.observe_status(resp.code);
                                    shared.http.request_time.observe(started.elapsed());
                                    queue_response(conn, &resp);
                                }
                                Err(SubmitError::ShuttingDown) => {
                                    let resp = router::draining_response();
                                    shared.http.observe_status(resp.code);
                                    shared.http.request_time.observe(started.elapsed());
                                    queue_response(conn, &resp);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// An ingest outcome arrived from a worker thread for `(token, gen)`.
    fn handle_completion(&mut self, token: Token, gen: u64, outcome: IngestOutcome) {
        let shared = Arc::clone(&self.shared);
        {
            let Some(slot) = self.slots.get_mut(token) else { return };
            if slot.gen != gen {
                return; // the connection died while the request was in flight
            }
            let Some(conn) = slot.conn.as_mut() else { return };
            let ConnState::InFlight { started, waited, close_after } = conn.state else {
                return;
            };
            shared.http.ingest_wait_time.observe(waited.elapsed());
            let mut resp = router::outcome_response(&outcome);
            if close_after || shared.draining.load(Ordering::SeqCst) {
                resp.close = true;
            }
            shared.http.observe_status(resp.code);
            shared.http.request_time.observe(started.elapsed());
            conn.state = ConnState::Ready;
            queue_response(conn, &resp);
        }
        // Pipelined requests may already be buffered behind the one that
        // was in flight.
        self.process_machine(token);
        self.finish_conn(token);
    }

    /// Flush pending output (bounded by the write budget), then close or
    /// re-arm.
    fn finish_conn(&mut self, token: Token) {
        let budget = self.shared.config.write_budget;
        let now = self.driver.now();
        let mut dead = false;
        {
            let Some(conn) = self.slots[token].conn.as_mut() else { return };
            let mut written = 0usize;
            while conn.out_pos < conn.out.len() && written < budget {
                let end = conn.out.len().min(conn.out_pos + (budget - written));
                match conn.transport.write(&conn.out[conn.out_pos..end]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out_pos += n;
                        written += n;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead && conn.out_pos >= conn.out.len() {
                if !conn.out.is_empty() {
                    conn.out.clear();
                    conn.out_pos = 0;
                    conn.last_progress = now;
                }
                if conn.close_after_flush && matches!(conn.state, ConnState::Ready) {
                    dead = true;
                }
            }
        }
        if dead {
            self.close_conn(token);
        } else {
            self.arm(token);
        }
    }

    /// Accept a bounded batch: shed above the high-water mark, register the
    /// rest.
    fn do_accept(&mut self) {
        let shared = Arc::clone(&self.shared);
        let limits = Limits {
            max_head_bytes: shared.config.max_head_bytes,
            max_body_bytes: shared.config.max_body_bytes,
        };
        for _ in 0..ACCEPT_BATCH {
            let mut transport = match self.driver.accept() {
                Ok(Some(t)) => t,
                Ok(None) => break,
                Err(_) => break, // transient (e.g. reset while in the backlog)
            };
            if shared.draining.load(Ordering::SeqCst) {
                continue; // dropped: a draining front takes no new sessions
            }
            shared.http.connections.inc();
            if self.open >= shared.config.shed_connections {
                // Backpressure by connection count: answer 503 without ever
                // registering the socket, then drop it.
                shared.http.shed.inc();
                shared.http.observe_status(503);
                let mut resp =
                    Response::error(503, "connection limit reached, retry shortly");
                resp.extra.push(("Retry-After", shared.config.retry_after_secs.to_string()));
                resp.close = true;
                let mut bytes = Vec::new();
                let _ = http::write_response(
                    &mut bytes,
                    resp.code,
                    resp.content_type,
                    &resp.body,
                    &resp.extra,
                    false,
                );
                let _ = transport.write(&bytes); // best-effort single write
                continue;
            }
            let conn = Conn {
                transport,
                machine: ConnMachine::new(limits),
                out: Vec::new(),
                out_pos: 0,
                state: ConnState::Ready,
                close_after_flush: false,
                eof: false,
                last_progress: self.driver.now(),
            };
            let token = self.alloc_slot();
            if self.driver.register(token, conn.transport.as_ref(), Interest::READ).is_err() {
                self.slots[token].gen += 1;
                self.free_pending.push(token);
                continue; // cannot watch it; the socket drops here
            }
            self.slots[token].conn = Some(conn);
            self.open += 1;
            shared.http.active_connections.inc();
        }
    }

    /// Evict connections idle past the deadline. In-flight requests are
    /// exempt — their latency belongs to the scheduler, not the client.
    fn evict_idle(&mut self, now: Instant) {
        let idle = self.shared.config.idle_timeout;
        let expired: Vec<Token> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(token, slot)| {
                let conn = slot.conn.as_ref()?;
                if matches!(conn.state, ConnState::InFlight { .. }) {
                    return None;
                }
                (now.saturating_duration_since(conn.last_progress) >= idle).then_some(token)
            })
            .collect();
        for token in expired {
            self.shared.http.evicted.inc();
            self.close_conn(token);
        }
    }

    /// On drain: connections parked between requests close immediately;
    /// anything mid-request finishes its response (forced `close`) first.
    fn close_idle_for_drain(&mut self) {
        let idle: Vec<Token> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(token, slot)| {
                let conn = slot.conn.as_ref()?;
                let parked = matches!(conn.state, ConnState::Ready)
                    && conn.machine.is_idle()
                    && conn.out_pos >= conn.out.len();
                parked.then_some(token)
            })
            .collect();
        for token in idle {
            self.close_conn(token);
        }
    }

    /// Maintain the accept gate: pause at `max_connections`, resume at the
    /// low-water mark, stay closed while draining. Also refreshes the
    /// oneshot listener arm after a delivered accept event.
    fn update_accept(&mut self) {
        if self.shared.draining.load(Ordering::SeqCst) {
            let _ = self.driver.arm_accept(false);
            self.shared.http.accept_paused.set(0);
            return;
        }
        let max = self.shared.config.max_connections;
        let low = max.saturating_sub(max / 16).saturating_sub(1).max(1);
        if self.accept_paused {
            if self.open <= low {
                self.accept_paused = false;
                self.shared.http.accept_paused.set(0);
            }
        } else if self.open >= max {
            self.accept_paused = true;
            self.shared.http.accept_paused.set(1);
        }
        let _ = self.driver.arm_accept(!self.accept_paused);
    }
}

/// Serialize `resp` onto the connection's output buffer.
fn queue_response(conn: &mut Conn, resp: &Response) {
    let _ = http::write_response(
        &mut conn.out,
        resp.code,
        resp.content_type,
        &resp.body,
        &resp.extra,
        !resp.close,
    );
    if resp.close {
        conn.close_after_flush = true;
    }
}

/// A cloneable handle onto a running reactor: metrics, the ingest pipeline,
/// and drain signalling. [`crate::NetServer`] wraps one; sim-driven tests
/// use it directly.
#[derive(Clone)]
pub struct FrontHandle {
    shared: Arc<Shared>,
}

impl FrontHandle {
    /// The bound listen address (a placeholder for the sim driver).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.shared.local_addr
    }

    /// The ingest pipeline behind the front.
    pub fn ingest(&self) -> &IngestServer {
        &self.shared.ingest
    }

    /// The HTTP-layer metric registry.
    pub fn http_metrics(&self) -> &HttpMetrics {
        &self.shared.http
    }

    /// The full Prometheus exposition (ingest families then HTTP families).
    pub fn metrics_text(&self) -> String {
        let mut out = self.shared.ingest.metrics().render();
        self.shared.http.render_into(&mut out);
        out
    }

    /// Begin a loss-free drain (what `POST /admin/shutdown` does).
    pub fn request_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until a drain has been requested or `timeout` elapses;
    /// true when the drain was requested.
    pub fn wait_for_shutdown_request(&self, timeout: Duration) -> bool {
        self.shared.wait_for_shutdown_request(timeout)
    }
}
