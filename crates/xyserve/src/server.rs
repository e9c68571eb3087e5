//! The concurrent ingestion server: Figure 1 at production scale.
//!
//! Snapshots enter through [`IngestServer::submit`], which enqueues the
//! snapshot on the bounded [`KeyedQueue`] (blocking when full — backpressure
//! toward the crawler); the queue assigns the per-key sequence number. A
//! pool of workers pops snapshots and runs the paper's loop: parse → BULD
//! diff against the stored latest → append the delta to the version chain →
//! evaluate subscriptions.
//!
//! A snapshot that cannot be stored — malformed XML, or a computed delta
//! that fails static verification — goes to the dead-letter queue at once
//! and never kills a worker. Nothing is retried: neither failure can
//! succeed on a second attempt.
//!
//! Versions of one document apply in submission order because the queue
//! hands out at most one snapshot per key at a time, in push order (see
//! [`crate::queue`]); the server adds nothing to that. Every submitted
//! snapshot ends in exactly one of {succeeded, dead-lettered}, which
//! [`ShutdownReport::is_balanced`] checks after a draining shutdown.
//!
//! Callers that need the outcome of an individual snapshot (the HTTP front
//! answering a `POST`) use [`IngestServer::submit_tracked`], whose
//! [`Ticket`] resolves to the stored version number and delta size, or to
//! the dead letter, or [`IngestServer::try_submit_with`], which never
//! blocks — a full queue comes back as [`SubmitError::QueueFull`], which the
//! network layer turns into `503 Retry-After` — and delivers the same
//! outcome through a callback.
//!
//! With a [`WalPolicy`] configured, every completed ingest is appended to a
//! [`xywal::Wal`] before it is acknowledged, and [`IngestServer::try_start`]
//! replays that log before accepting work — a restarted server resumes its
//! version chains. The log is the only durable form of the warehouse.

use crate::metrics::Metrics;
use crate::queue::{KeyedQueue, PushError};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xydelta::xml_io;
use xydiff::{Differ, DiffOptions};
use xytree::Document;
use xywal::{Record, Wal, WalError};
use xywarehouse::{Alerter, Notification, ReplayError, Repository};

/// A test seam called once per job, after the parse and before the store,
/// with the document key and per-key sequence number. It cannot fail the
/// job; tests use it to park a worker.
pub type FaultHook = Arc<dyn Fn(&str, u64) + Send + Sync>;

/// Where and how the server write-ahead-logs every completed ingest: the
/// log's own [`xywal::WalConfig`] (directory, sync mode, segment size).
///
/// With a policy configured, each worker appends the computed delta (or the
/// initial document) to a [`xywal::Wal`] **before** acknowledging the
/// ingest, so a `kill -9` after the ack loses nothing: on restart the
/// server replays the log.
pub use xywal::WalConfig as WalPolicy;

/// Log records a restart replays, then frees, at a time.
const REPLAY_BATCH: usize = 1024;

/// A rejected [`ServeConfig`] knob, reported by the fallible `with_*`
/// builders (and re-checked by [`IngestServer::try_start`] in case a caller
/// mutated the public fields directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `workers` was 0 — the server would accept work and never run it.
    ZeroWorkers,
    /// `workers` exceeded [`ServeConfig::MAX_WORKERS`].
    TooManyWorkers {
        /// The rejected worker count.
        requested: usize,
        /// The permitted maximum.
        max: usize,
    },
    /// `queue_capacity` was 0 — every submit would shed.
    ZeroQueueCapacity,
    /// `shards` was 0 — there would be nowhere to store documents.
    ZeroShards,
    /// `shards` was not a power of two, so hash partitioning would be
    /// visibly biased (and masking unavailable).
    ShardsNotPowerOfTwo {
        /// The rejected shard count.
        requested: usize,
    },
    /// `diff_threads` was 0 — every diff would have nowhere to run.
    ZeroDiffThreads,
    /// `diff_threads` exceeded [`ServeConfig::MAX_WORKERS`].
    TooManyDiffThreads {
        /// The rejected intra-diff thread count.
        requested: usize,
        /// The permitted maximum.
        max: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "workers must be at least 1"),
            ConfigError::TooManyWorkers { requested, max } => {
                write!(f, "workers = {requested} exceeds the maximum of {max}")
            }
            ConfigError::ZeroQueueCapacity => write!(f, "queue capacity must be at least 1"),
            ConfigError::ZeroShards => write!(f, "shards must be at least 1"),
            ConfigError::ShardsNotPowerOfTwo { requested } => {
                write!(f, "shards = {requested} is not a power of two")
            }
            ConfigError::ZeroDiffThreads => write!(f, "diff threads must be at least 1"),
            ConfigError::TooManyDiffThreads { requested, max } => {
                write!(f, "diff_threads = {requested} exceeds the maximum of {max}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of an [`IngestServer`].
///
/// Built with [`ServeConfig::new`] plus `with_*` methods. The struct is
/// `#[non_exhaustive]`: construct it through the builder, not a struct
/// literal, so new fields do not break downstream callers. The builders
/// for the capacity-like knobs
/// (`workers`, `queue_capacity`, `shards`, `diff_threads`) are fallible and
/// reject degenerate values with a typed [`ConfigError`] instead of
/// silently clamping; `Display` renders what the config will run with on
/// this host (one line, `key=value` pairs — `xydiff serve` and `xydiff
/// ingest` print it at startup).
#[derive(Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Queue capacity — the backpressure threshold over the pending
    /// snapshots of all keys.
    pub queue_capacity: usize,
    /// Number of repository shards (keys are hash-partitioned; must be a
    /// power of two).
    pub shards: usize,
    /// Intra-document diff parallelism: each worker's differ fans the
    /// data-parallel diff stages (phase-2 hashing, phase-3 candidate
    /// pre-verification) out over this many scoped threads
    /// ([`Differ::with_threads`]). 1 (the default) keeps diffs strictly serial
    /// and allocation-free; deltas are byte-identical at any setting.
    pub diff_threads: usize,
    /// Diff options used by every shard.
    pub diff_options: DiffOptions,
    /// Subscriptions evaluated on every ingested delta.
    pub alerter: Alerter,
    /// The per-job test seam; `None` in production.
    pub fault_hook: Option<FaultHook>,
    /// Write-ahead logging of every completed ingest; `None` keeps the
    /// server memory-only: an ack only guarantees the version is in memory.
    pub wal: Option<WalPolicy>,
    /// Background chain compaction: keep every document reconstructible
    /// within this many delta applications (0 disables the compactor).
    pub compact_chain_max: usize,
}

impl ServeConfig {
    /// Upper bound on the worker count — far above any sane pool, low
    /// enough to catch a units mistake (e.g. passing a byte size).
    pub const MAX_WORKERS: usize = 1024;

    /// The default configuration (same as [`ServeConfig::default`]).
    pub fn new() -> ServeConfig {
        ServeConfig::default()
    }

    /// Set the worker-thread count. Rejects 0 and counts above
    /// [`ServeConfig::MAX_WORKERS`]; oversubscribing the host is allowed
    /// (and flagged by the `Display` line).
    pub fn with_workers(mut self, workers: usize) -> Result<ServeConfig, ConfigError> {
        self.workers = check_workers(workers)?;
        Ok(self)
    }

    /// Set the queue capacity. Rejects 0.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Result<ServeConfig, ConfigError> {
        self.queue_capacity = check_queue_capacity(capacity)?;
        Ok(self)
    }

    /// Set the repository shard count. Rejects 0 and non-powers-of-two.
    pub fn with_shards(mut self, shards: usize) -> Result<ServeConfig, ConfigError> {
        self.shards = check_shards(shards)?;
        Ok(self)
    }

    /// Set the intra-document diff parallelism. Rejects 0 and counts above
    /// [`ServeConfig::MAX_WORKERS`]; oversubscribing the host is allowed
    /// (the result is byte-identical, only the wall-clock differs).
    pub fn with_diff_threads(mut self, threads: usize) -> Result<ServeConfig, ConfigError> {
        self.diff_threads = check_diff_threads(threads)?;
        Ok(self)
    }

    /// Check every invariant the `with_*` builders enforce — the backstop
    /// for callers that set the public fields directly.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_workers(self.workers)?;
        check_queue_capacity(self.queue_capacity)?;
        check_shards(self.shards)?;
        check_diff_threads(self.diff_threads)?;
        Ok(())
    }

    /// Set the diff options used by every shard.
    #[must_use]
    pub fn with_diff_options(mut self, opts: DiffOptions) -> ServeConfig {
        self.diff_options = opts;
        self
    }

    /// Set the alerter evaluated on every ingested delta.
    #[must_use]
    pub fn with_alerter(mut self, alerter: Alerter) -> ServeConfig {
        self.alerter = alerter;
        self
    }

    /// Install the per-job test seam (see [`FaultHook`]).
    #[must_use]
    pub fn with_fault_hook(mut self, hook: FaultHook) -> ServeConfig {
        self.fault_hook = Some(hook);
        self
    }

    /// Enable write-ahead logging under `policy`: every completed ingest is
    /// appended (and, in [`xywal::WalSync::Always`] mode, fsynced) before the
    /// ack, and the log is replayed on the next start.
    #[must_use]
    pub fn with_wal(mut self, policy: WalPolicy) -> ServeConfig {
        self.wal = Some(policy);
        self
    }

    /// Enable the background compactor: fold delta chains through
    /// checkpoints so any version reconstructs within `max` delta
    /// applications (0 disables it).
    #[must_use]
    pub fn with_compact_chain_max(mut self, max: usize) -> ServeConfig {
        self.compact_chain_max = max;
        self
    }
}

/// The `workers` rule, stated once for [`ServeConfig::with_workers`] and
/// [`ServeConfig::validate`]; the three below do the same for their knobs.
fn check_workers(workers: usize) -> Result<usize, ConfigError> {
    match workers {
        0 => Err(ConfigError::ZeroWorkers),
        n if n > ServeConfig::MAX_WORKERS => {
            Err(ConfigError::TooManyWorkers { requested: n, max: ServeConfig::MAX_WORKERS })
        }
        n => Ok(n),
    }
}

fn check_queue_capacity(capacity: usize) -> Result<usize, ConfigError> {
    if capacity == 0 {
        return Err(ConfigError::ZeroQueueCapacity);
    }
    Ok(capacity)
}

fn check_shards(shards: usize) -> Result<usize, ConfigError> {
    match shards {
        0 => Err(ConfigError::ZeroShards),
        n if !n.is_power_of_two() => Err(ConfigError::ShardsNotPowerOfTwo { requested: n }),
        n => Ok(n),
    }
}

fn check_diff_threads(threads: usize) -> Result<usize, ConfigError> {
    match threads {
        0 => Err(ConfigError::ZeroDiffThreads),
        n if n > ServeConfig::MAX_WORKERS => {
            Err(ConfigError::TooManyDiffThreads { requested: n, max: ServeConfig::MAX_WORKERS })
        }
        n => Ok(n),
    }
}

/// The operator-facing startup line: what this config runs with on this
/// host, as `key=value` pairs. `available_parallelism` is 0 when the host
/// cannot report it. `oversubscribed` is true when the threads the pool can
/// have runnable at once — every worker fanning a diff out over
/// `diff_threads` — exceed that parallelism: legal (CI runs 8 workers on 1
/// core to shake out interleavings) but worth surfacing, because it adds
/// context switching without speedup.
impl std::fmt::Display for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let available = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
        let runnable = self.workers.saturating_mul(self.diff_threads);
        write!(
            f,
            "workers={} available_parallelism={} oversubscribed={} shards={} \
             queue_capacity={} diff_threads={} mode={} wal={} compact_chain_max={}",
            self.workers,
            available,
            available > 0 && runnable > available,
            self.shards,
            self.queue_capacity,
            self.diff_threads,
            self.diff_options.mode,
            self.wal.is_some(),
            self.compact_chain_max
        )
    }
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("shards", &self.shards)
            .field("diff_threads", &self.diff_threads)
            .field("mode", &self.diff_options.mode)
            .field("fault_hook", &self.fault_hook.is_some())
            .field("wal", &self.wal)
            .field("compact_chain_max", &self.compact_chain_max)
            .finish_non_exhaustive()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            queue_capacity: 128,
            shards: 8,
            diff_threads: 1,
            diff_options: DiffOptions::default(),
            alerter: Alerter::new(),
            fault_hook: None,
            wal: None,
            compact_chain_max: 0,
        }
    }
}

/// A snapshot that could not be ingested, with the reason.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// Document key.
    pub key: String,
    /// Per-key sequence number of the failed snapshot (0 for one refused by
    /// a draining server, which never got a number).
    pub seq: u64,
    /// Human-readable failure description.
    pub error: String,
}

/// What happened to one tracked snapshot: stored, or dead-lettered.
pub type IngestOutcome = Result<Completed, DeadLetter>;

/// The success half of an [`IngestOutcome`].
#[derive(Debug, Clone)]
pub struct Completed {
    /// Document key.
    pub key: String,
    /// Per-key sequence number of the snapshot.
    pub seq: u64,
    /// Index of the stored version (0 for the first snapshot of a key).
    pub version: usize,
    /// Number of delta operations (0 for the first version).
    pub ops: usize,
    /// Alert notifications this delta fired.
    pub alerts: usize,
    /// True when the version was written to the write-ahead log (and, in
    /// [`xywal::WalSync::Always`] mode, fsynced) before this ack — i.e. it
    /// survives `kill -9`. False when no WAL is configured, when the sync
    /// mode leaves flushing to the OS, or when the append failed.
    pub durable: bool,
}

/// A handle resolving to the outcome of one tracked submission.
pub struct Ticket {
    rx: mpsc::Receiver<IngestOutcome>,
}

impl Ticket {
    /// Block until the snapshot is processed. Every accepted snapshot is
    /// guaranteed to resolve: workers deliver the outcome on success and on
    /// dead-lettering.
    pub fn wait(self) -> IngestOutcome {
        self.rx.recv().unwrap_or_else(|_| {
            // Unreachable in practice (the sender is dropped only after a
            // send), but a lost channel must not hang or panic the caller.
            Err(DeadLetter {
                key: String::new(),
                seq: 0,
                error: "server dropped before delivering an outcome".to_string(),
            })
        })
    }

    /// [`Ticket::wait`] with a timeout; `None` when it expires.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<IngestOutcome> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// Error returned by the submit family.
#[derive(Debug)]
pub enum SubmitError {
    /// The server is shutting down; the snapshot was dead-lettered.
    ShuttingDown,
    /// Non-blocking submit found the queue at capacity; the snapshot was
    /// **not** accepted (no sequence number assigned) — retry later.
    QueueFull,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
            SubmitError::QueueFull => write!(f, "ingest queue is full"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Error returned by [`IngestServer::try_start`].
#[derive(Debug)]
pub enum StartError {
    /// The configuration failed [`ServeConfig::validate`].
    Config(ConfigError),
    /// Opening the write-ahead log failed (I/O error, corruption outside
    /// the repairable tail, or a log truncated by an earlier release).
    Wal(WalError),
    /// A logged record could not be replayed into the version chains.
    Replay(ReplayError),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::Config(e) => write!(f, "invalid config: {e}"),
            StartError::Wal(e) => write!(f, "write-ahead log: {e}"),
            StartError::Replay(e) => write!(f, "wal replay: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

/// Loss-free accounting produced by [`IngestServer::shutdown`].
#[derive(Debug)]
pub struct ShutdownReport {
    /// Snapshots submitted (accepted, or refused by a draining server).
    pub submitted: u64,
    /// Snapshots fully processed.
    pub succeeded: u64,
    /// Snapshots dead-lettered (poison, a rejected delta, or shutdown race).
    pub dead_lettered: u64,
    /// Alerter notifications fired.
    pub alerts_fired: u64,
    /// The dead letters themselves.
    pub dead_letters: Vec<DeadLetter>,
    /// Notifications not yet collected via [`IngestServer::take_notifications`].
    pub notifications: Vec<Notification>,
    /// Full metrics text exposition at shutdown time.
    pub metrics_text: String,
}

impl ShutdownReport {
    /// True when every submitted snapshot is accounted for.
    pub fn is_balanced(&self) -> bool {
        self.submitted == self.succeeded + self.dead_lettered
            && self.dead_lettered == self.dead_letters.len() as u64
    }
}

/// A completion callback: invoked exactly once with the submission's
/// outcome, from whichever worker resolves it. Used by the
/// `xynet` reactor, whose event loop cannot block on a [`Ticket`]: the
/// callback records the outcome and wakes the readiness loop instead.
pub type CompletionFn = Box<dyn FnOnce(IngestOutcome) + Send + 'static>;

/// One queued snapshot; its key and sequence number travel with the queue.
struct Job {
    xml: String,
    /// Outcome delivery for tracked submissions; `None` for fire-and-forget.
    done: Option<CompletionFn>,
}

struct CompactorState {
    stop: Mutex<bool>,
    wake: Condvar,
}

struct Inner {
    shards: Vec<Repository>,
    queue: KeyedQueue<Job>,
    metrics: Metrics,
    dead: Mutex<Vec<DeadLetter>>,
    notifications: Mutex<Vec<Notification>>,
    /// The validated configuration the server was started with.
    config: ServeConfig,
    wal: Option<Wal>,
    /// Present exactly when `config.compact_chain_max > 0`.
    compactor: Option<CompactorState>,
}

/// The concurrent ingestion server. See the module docs for the design.
pub struct IngestServer {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    compactor: Option<JoinHandle<()>>,
}

impl IngestServer {
    /// Start a server with `config`, spawning its worker pool.
    ///
    /// Panics if a configured write-ahead log cannot be opened or replayed;
    /// callers with a [`WalPolicy`] should prefer [`IngestServer::try_start`].
    pub fn start(config: ServeConfig) -> IngestServer {
        // INVARIANT: the only fallible path is WAL open + replay, which
        // callers opting into persistence handle through try_start.
        IngestServer::try_start(config).expect("write-ahead log must open and replay")
    }

    /// Start a server with `config`, replaying the write-ahead log first
    /// when one is configured.
    pub fn try_start(config: ServeConfig) -> Result<IngestServer, StartError> {
        // The builders already reject these, but the fields are public —
        // re-validate so direct mutation cannot smuggle in a degenerate pool.
        config.validate().map_err(StartError::Config)?;
        let shard_count = config.shards;
        let shards: Vec<Repository> = (0..shard_count)
            .map(|_| {
                Repository::with_options(config.diff_options.clone(), config.alerter.clone())
            })
            .collect();
        let metrics = Metrics::new();
        let wal = match &config.wal {
            Some(policy) => {
                let (wal, recovery) = Wal::open(policy).map_err(StartError::Wal)?;
                // The log holds the whole history: fold every record into
                // the (empty) shards, in LSN order, freeing each batch once
                // it is applied — a restart then peaks at the chains plus
                // one batch, not the chains plus the whole log.
                let mut records = recovery.records.into_iter();
                loop {
                    let batch: Vec<(u64, Record)> = records.by_ref().take(REPLAY_BATCH).collect();
                    if batch.is_empty() {
                        break;
                    }
                    let replayed = xywarehouse::replay::apply_records(&batch, &shards, |key| {
                        shard_index(key, shard_count)
                    })
                    .map_err(StartError::Replay)?;
                    metrics.wal_replayed.add(replayed.total() as u64);
                }
                Some(wal)
            }
            None => None,
        };
        let compactor = (config.compact_chain_max > 0)
            .then(|| CompactorState { stop: Mutex::new(false), wake: Condvar::new() });
        let inner = Arc::new(Inner {
            shards,
            queue: KeyedQueue::new(config.queue_capacity),
            metrics,
            dead: Mutex::new(Vec::new()),
            notifications: Mutex::new(Vec::new()),
            config,
            wal,
            compactor,
        });
        if let Some(wal) = &inner.wal {
            inner.sync_wal_metrics(wal);
        }
        let workers = (0..inner.config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("xyserve-worker-{i}"))
                    .spawn(move || inner.worker_loop())
                    // INVARIANT: thread spawn fails only on OS resource exhaustion at
                    // startup; there is no server to run without its workers.
                    .expect("spawn worker thread")
            })
            .collect();
        let compactor = inner.compactor.is_some().then(|| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("xyserve-compactor".to_string())
                .spawn(move || inner.compactor_loop())
                // INVARIANT: thread spawn fails only on OS resource exhaustion at
                // startup; compaction cannot run without its thread.
                .expect("spawn compactor thread")
        });
        Ok(IngestServer { inner, workers, compactor })
    }

    /// The one way in: push onto the keyed queue, waiting for room when
    /// `block` is set and reporting [`SubmitError::QueueFull`] otherwise.
    /// On `Err` the job's `done` has not been and will not be invoked.
    fn enqueue(&self, key: &str, job: Job, block: bool) -> Result<(), SubmitError> {
        let inner = &self.inner;
        let pushed =
            if block { inner.queue.push(key, job) } else { inner.queue.try_push(key, job) };
        match pushed {
            Ok(_) => {
                inner.metrics.enqueued.inc();
                inner.metrics.queue_depth.set(inner.queue.len() as u64);
                Ok(())
            }
            Err(PushError::Full(_)) => Err(SubmitError::QueueFull),
            Err(PushError::Closed(_)) => {
                // The Err return owns the response, so the job's `done` is
                // dropped unused: a delivery on top would answer twice. The
                // letter is counted before the submit, so the two counters
                // never read as work still pending.
                inner.dead_letter(key, 0, "submitted during shutdown".to_string(), None);
                inner.metrics.enqueued.inc();
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Submit one snapshot of document `key`. Blocks while the queue is
    /// full. Snapshots of the same key apply in the order their submits
    /// entered the queue.
    pub fn submit(&self, key: &str, xml: impl Into<String>) -> Result<(), SubmitError> {
        self.enqueue(key, Job { xml: xml.into(), done: None }, true)
    }

    /// [`IngestServer::submit`] returning a [`Ticket`] that resolves to the
    /// snapshot's outcome (stored version + delta size, or the dead letter).
    pub fn submit_tracked(
        &self,
        key: &str,
        xml: impl Into<String>,
    ) -> Result<Ticket, SubmitError> {
        let (tx, rx) = mpsc::channel();
        // Best-effort delivery: the submitter may have stopped waiting.
        let done: CompletionFn = Box::new(move |outcome| {
            let _ = tx.send(outcome);
        });
        self.enqueue(key, Job { xml: xml.into(), done: Some(done) }, true)?;
        Ok(Ticket { rx })
    }

    /// Non-blocking submit delivering the outcome through a callback
    /// instead of a [`Ticket`]: the event-driven network front cannot park
    /// a thread per in-flight request, so workers invoke `done` (exactly
    /// once) when the snapshot resolves and the reactor wakes its loop
    /// from inside the callback.
    ///
    /// On `Err` the callback has **not** been invoked and never will be —
    /// the caller still owns the failure response. A full queue returns
    /// [`SubmitError::QueueFull`] immediately, without consuming a sequence
    /// number, so the network layer can shed load with `503 Retry-After`.
    pub fn try_submit_with(
        &self,
        key: &str,
        xml: impl Into<String>,
        done: CompletionFn,
    ) -> Result<(), SubmitError> {
        self.enqueue(key, Job { xml: xml.into(), done: Some(done) }, false)
    }

    /// The metrics registry (live counters; render at any time).
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Current snapshot of the dead-letter queue.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        locked(&self.inner.dead).clone()
    }

    /// Take every notification fired so far (the alert delivery channel).
    pub fn take_notifications(&self) -> Vec<Notification> {
        std::mem::take(&mut locked(&self.inner.notifications))
    }

    /// The shard repository holding `key` (for reads: versions, deltas).
    pub fn repository_for(&self, key: &str) -> &Repository {
        &self.inner.shards[self.inner.shard_of(key)]
    }

    /// All shard repositories (global stats).
    pub fn shards(&self) -> &[Repository] {
        &self.inner.shards
    }

    /// Total versions stored across all shards.
    pub fn total_versions(&self) -> usize {
        self.inner.shards.iter().map(Repository::total_versions).sum()
    }

    /// Block until every snapshot submitted so far is accounted for
    /// (succeeded or dead-lettered). Quiesce point for live reads; the
    /// server keeps accepting new work afterwards.
    pub fn wait_idle(&self) {
        let m = &self.inner.metrics;
        let submitted = m.enqueued.get();
        self.inner.queue.wait_idle();
        debug_assert!(
            m.succeeded.get() + m.dead_lettered.get() >= submitted,
            "queue idle with a submitted snapshot unaccounted for (a worker died mid-job?)"
        );
    }

    /// Stop accepting new snapshots while the workers keep draining what is
    /// already queued. Idempotent; [`IngestServer::shutdown`] completes the
    /// drain and joins the pool.
    pub fn begin_drain(&self) {
        self.inner.queue.close();
    }

    /// True once a drain (or shutdown) has started.
    pub fn is_draining(&self) -> bool {
        self.inner.queue.is_closed()
    }

    /// The write-ahead log, when one is configured (observability: LSNs,
    /// segment counts).
    pub fn wal(&self) -> Option<&Wal> {
        self.inner.wal.as_ref()
    }

    /// Stop accepting work, drain the queue and all in-flight chains, join
    /// every worker, and return the loss-free accounting. With a WAL
    /// configured, the log is flushed after the drain so a restart resumes
    /// exactly the drained state.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.stop();
        let m = &self.inner.metrics;
        ShutdownReport {
            submitted: m.enqueued.get(),
            succeeded: m.succeeded.get(),
            dead_lettered: m.dead_lettered.get(),
            alerts_fired: m.alerts_fired.get(),
            dead_letters: locked(&self.inner.dead).clone(),
            notifications: std::mem::take(&mut locked(&self.inner.notifications)),
            metrics_text: m.render(),
        }
    }

    /// Close the queue, let the workers drain it, stop the compactor and
    /// flush the log. Idempotent: `shutdown` runs it, then `Drop` finds
    /// nothing left to join.
    fn stop(&mut self) {
        self.inner.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.compactor.take() {
            if let Some(st) = &self.inner.compactor {
                *locked(&st.stop) = true;
                st.wake.notify_all();
            }
            let _ = h.join();
        }
        if let Some(wal) = &self.inner.wal {
            // In WalSync::None mode appended records may still be in the OS
            // cache; a clean stop flushes them.
            let _ = wal.sync();
            self.inner.sync_wal_metrics(wal);
        }
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Lock a piece of server state.
fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // INVARIANT: a poisoned lock means a holder panicked mid-update; the
    // server cannot vouch for its state, so the panic propagates.
    m.lock().unwrap()
}

/// The hash shard routing derives from.
fn key_hash(key: &str) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Hash-partition `key` over `shard_count` shards. Free function so WAL
/// replay can route before an `Inner` exists.
fn shard_index(key: &str, shard_count: usize) -> usize {
    (key_hash(key) % shard_count as u64) as usize
}

impl Inner {
    fn shard_of(&self, key: &str) -> usize {
        shard_index(key, self.shards.len())
    }

    /// A worker's differ: repository options + scratch, fanned out over
    /// `diff_threads` threads.
    fn make_differ(&self) -> Differ {
        self.shards[0].differ().with_threads(self.config.diff_threads)
    }

    fn worker_loop(&self) {
        /// Hands the key back to the queue when the job ends — also when it
        /// ends by unwinding, so a worker that dies releases its key and
        /// `wait_idle` returns (to a failing counter check) instead of
        /// blocking forever.
        struct Lease<'a>(&'a KeyedQueue<Job>, &'a str);
        impl Drop for Lease<'_> {
            fn drop(&mut self) {
                self.0.done(self.1);
            }
        }
        // One differ per worker thread, reused for every diff this worker
        // runs: it owns the options and the scratch (see xydiff::Differ),
        // so the steady-state ingest loop allocates no per-diff working
        // memory. Per-document signature caches live with the stored
        // documents; the repository threads them through
        // diff_consume_with_cache.
        let mut differ = self.make_differ();
        while let Some((key, seq, job)) = self.queue.pop() {
            self.metrics.queue_depth.set(self.queue.len() as u64);
            let _lease = Lease(&self.queue, &key);
            self.process(&key, seq, job, &mut differ);
        }
    }

    fn dead_letter(&self, key: &str, seq: u64, error: String, done: Option<CompletionFn>) {
        self.metrics.dead_lettered.inc();
        let letter = DeadLetter { key: key.to_string(), seq, error };
        if let Some(done) = done {
            done(Err(letter.clone()));
        }
        locked(&self.dead).push(letter);
    }

    /// Run one snapshot through parse → diff → store → alert, dead-lettering
    /// what cannot be stored.
    fn process(&self, key: &str, seq: u64, job: Job, differ: &mut Differ) {
        let Job { xml, done } = job;
        let started = Instant::now();
        let t_parse = Instant::now();
        let doc = match Document::parse(&xml) {
            Ok(doc) => doc,
            Err(e) => {
                self.dead_letter(key, seq, format!("parse error: {e}"), done);
                return;
            }
        };
        self.metrics.parse_time.observe(t_parse.elapsed());
        if let Some(hook) = &self.config.fault_hook {
            hook(key, seq);
        }

        let shard = &self.shards[self.shard_of(key)];
        // The first version of a key is logged as the full document; its
        // canonical serialization must be captured before the load consumes
        // the parse. Safe against racing writers of the same key: the
        // queue hands out one snapshot of a key at a time, so between this
        // check and the load no other worker can create the chain.
        let init_xml = (self.wal.is_some() && shard.version_count(key) == 0)
            .then(|| doc.to_xml());
        let out = match shard.try_load_parsed_with(key, doc, differ) {
            Ok(out) => out,
            Err(e) => {
                // A delta that fails static verification is a diff bug, not
                // an input property: dead-letter the snapshot (the version
                // was not stored, so the chain stays consistent) instead of
                // taking the worker down.
                self.dead_letter(key, seq, format!("rejected delta: {e}"), done);
                return;
            }
        };
        // Double-check in debug builds: everything the diff emitted must
        // satisfy the static delta invariants (xydelta::verify).
        debug_assert!(
            xydelta::verify(&out.delta).is_ok(),
            "stored delta fails verification for key {key}"
        );
        if out.version > 0 {
            // The initial load of a key runs no diff; recording its zero
            // duration would skew the latency statistics.
            self.metrics.diff_time.observe(out.diff_time);
            self.metrics.alert_time.observe(out.alert_time);
        }
        let alerts = out.notifications.len();
        if alerts > 0 {
            self.metrics.alerts_fired.add(alerts as u64);
            locked(&self.notifications).extend(out.notifications);
        }
        // Write-ahead: the record must be on the log (and, in Always mode,
        // fsynced via the group commit) before the ack below, so an ack
        // with durable=true survives kill -9.
        let mut durable = false;
        if let Some(wal) = &self.wal {
            let record = match init_xml {
                Some(xml) if out.version == 0 => Record::Init { key: key.to_string(), xml },
                _ => Record::Delta {
                    key: key.to_string(),
                    version: out.version as u64,
                    delta_xml: xml_io::delta_to_xml(&out.delta),
                },
            };
            let t_wal = Instant::now();
            match wal.append(&record) {
                Ok(outcome) => {
                    self.metrics.wal_append_time.observe(t_wal.elapsed());
                    durable = outcome.durable;
                }
                Err(_) => {
                    // The version is stored in memory but not logged; ack
                    // it non-durable rather than failing the ingest.
                    self.metrics.wal_append_errors.inc();
                }
            }
            self.sync_wal_metrics(wal);
        }
        self.metrics.succeeded.inc();
        self.metrics.total_time.observe(started.elapsed());
        if let Some(done) = done {
            done(Ok(Completed {
                key: key.to_string(),
                seq,
                version: out.version,
                ops: out.delta.len(),
                alerts,
                durable,
            }));
        }
    }

    /// Publish the WAL's internal counters into the metrics registry.
    fn sync_wal_metrics(&self, wal: &Wal) {
        let s = wal.stats();
        self.metrics.wal_appends.observe_total(s.appends);
        self.metrics.wal_appended_bytes.observe_total(s.appended_bytes);
        self.metrics.wal_fsyncs.observe_total(s.fsyncs);
        self.metrics.wal_fsynced_records.observe_total(s.fsynced_records);
        self.metrics.wal_segments.set(s.segments as u64);
        self.metrics.wal_fsync_batch_max.set(s.max_fsync_batch);
    }

    /// The background compactor: sweep every shard on a short cadence and
    /// fold any chain whose worst-case reconstruction exceeds the
    /// configured hop bound through checkpoints.
    fn compactor_loop(&self) {
        // INVARIANT: compactor_loop only runs when a CompactorState was built.
        let st = self.compactor.as_ref().expect("compactor state exists");
        loop {
            {
                let stop = locked(&st.stop);
                if *stop {
                    return;
                }
                // INVARIANT: a poisoned lock means a holder panicked
                // mid-update; the panic propagates.
                let wait = st.wake.wait_timeout(stop, Duration::from_millis(250)).unwrap();
                let (stop, _) = wait;
                if *stop {
                    return;
                }
            }
            let mut compacted = 0;
            for shard in &self.shards {
                compacted += shard.compact_chains(self.config.compact_chain_max);
            }
            if compacted > 0 {
                self.metrics.compactions.add(compacted as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_server(workers: usize) -> IngestServer {
        IngestServer::start(
            ServeConfig::new()
                .with_workers(workers)
                .unwrap()
                .with_queue_capacity(8)
                .unwrap()
                .with_shards(2)
                .unwrap(),
        )
    }

    #[test]
    fn single_document_versions_apply_in_order() {
        let server = tiny_server(4);
        for v in 0..20 {
            server.submit("doc", format!("<d><v>{v}</v></d>")).unwrap();
        }
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        assert_eq!(report.succeeded, 20);
        assert_eq!(report.dead_lettered, 0);
    }

    #[test]
    fn versions_match_serial_ingestion() {
        let server = tiny_server(4);
        for v in 0..10 {
            server.submit("a", format!("<d><n>{v}</n></d>")).unwrap();
            server.submit("b", format!("<e><m>{}</m></e>", v * 7)).unwrap();
        }
        server.wait_idle();
        // Reads go through the owning shard; reconstruction must agree with
        // what a serial loop would have stored.
        let repo_a = server.repository_for("a");
        for v in 0..10 {
            assert_eq!(repo_a.version_xml("a", v).unwrap(), format!("<d><n>{v}</n></d>"));
        }
        let report = server.shutdown();
        assert!(report.is_balanced());
        assert_eq!(report.succeeded, 20);
    }

    #[test]
    fn poison_documents_dead_letter_without_killing_workers() {
        let server = tiny_server(2);
        server.submit("ok", "<a><b>1</b></a>").unwrap();
        server.submit("bad", "<a><unclosed>").unwrap();
        server.submit("ok", "<a><b>2</b></a>").unwrap();
        server.submit("bad", "<a>fine now</a>").unwrap();
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        assert_eq!(report.succeeded, 3);
        assert_eq!(report.dead_lettered, 1);
        assert_eq!(report.dead_letters[0].key, "bad");
        assert!(report.dead_letters[0].error.contains("parse error"));
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let server = tiny_server(1);
        server.begin_drain();
        assert!(server.is_draining());
        let err = server.submit("doc", "<a/>");
        assert!(matches!(err, Err(SubmitError::ShuttingDown)));
        // The refused submit is accounted as a dead letter.
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        assert_eq!(report.dead_lettered, 1);
    }

    #[test]
    fn metrics_render_reflects_work() {
        let server = tiny_server(2);
        for v in 0..5 {
            server.submit("m", format!("<x><y>{v}</y></x>")).unwrap();
        }
        let report = server.shutdown();
        assert!(report.metrics_text.contains("ingest_succeeded_total 5"), "{}", report.metrics_text);
        // 5 versions of one key = 4 diffs (the initial load runs none).
        assert!(report.metrics_text.contains("ingest_diff_seconds_count 4"), "{}", report.metrics_text);
        assert!(report.metrics_text.contains("# TYPE ingest_diff_seconds histogram"));
    }

    #[test]
    fn alerts_are_collected_and_counted() {
        use xywarehouse::{OpFilter, Subscription};
        let mut alerter = Alerter::new();
        alerter.subscribe(
            Subscription::everything("watch")
                .at_path(["catalog", "product"])
                .only(OpFilter::Insert),
        );
        let server =
            IngestServer::start(ServeConfig::new().with_workers(2).unwrap().with_alerter(alerter));
        server.submit("cat", "<catalog><product/></catalog>").unwrap();
        server.submit("cat", "<catalog><product/><product/></catalog>").unwrap();
        let report = server.shutdown();
        assert_eq!(report.alerts_fired, 1, "{report:?}");
        // Exactly one notification, delivered exactly once.
        assert_eq!(report.notifications.len(), 1);
        assert_eq!(report.notifications[0].subscription, "watch");
    }

    #[test]
    fn tracked_submission_reports_version_and_ops() {
        let server = tiny_server(2);
        let t0 = server.submit_tracked("doc", "<d><v>0</v></d>").unwrap();
        let first = t0.wait().expect("first version stores");
        assert_eq!((first.version, first.ops), (0, 0), "initial load has no delta");
        let t1 = server.submit_tracked("doc", "<d><v>1</v></d>").unwrap();
        let second = t1.wait().expect("second version stores");
        assert_eq!(second.version, 1);
        assert!(second.ops > 0, "an update produces at least one op");
        let bad = server.submit_tracked("doc", "<broken").unwrap();
        let letter = bad.wait().expect_err("poison dead-letters");
        assert!(letter.error.contains("parse error"));
        assert_eq!(letter.seq, 2);
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
    }

    #[test]
    fn try_submit_full_queue_sheds_without_burning_seq() {
        // Hold the single worker inside its first job so the one queue slot
        // stays occupied for as long as the test needs.
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let entered_tx = Mutex::new(entered_tx);
        let release_rx = Mutex::new(release_rx);
        let server = IngestServer::start(
            ServeConfig::new()
                .with_workers(1)
                .unwrap()
                .with_queue_capacity(1)
                .unwrap()
                .with_fault_hook(Arc::new(move |key, _| {
                    if key == "held" {
                        entered_tx.lock().unwrap().send(()).unwrap();
                        release_rx.lock().unwrap().recv().unwrap();
                    }
                })),
        );
        server.submit("held", "<a/>").unwrap();
        entered_rx.recv().unwrap();

        let (done_tx, done_rx) = mpsc::channel();
        let callback = |tx: &mpsc::Sender<IngestOutcome>| -> CompletionFn {
            let tx = tx.clone();
            Box::new(move |outcome| tx.send(outcome).unwrap())
        };
        server.try_submit_with("doc", "<d>0</d>", callback(&done_tx)).unwrap();
        // The slot is taken: Full, the callback is dropped uninvoked, and no
        // sequence number is assigned.
        let err = server.try_submit_with("doc", "<d>shed</d>", callback(&done_tx));
        assert!(matches!(err, Err(SubmitError::QueueFull)));
        release_tx.send(()).unwrap();
        assert_eq!(done_rx.recv().unwrap().unwrap().seq, 0);
        server.try_submit_with("doc", "<d>1</d>", callback(&done_tx)).unwrap();
        assert_eq!(done_rx.recv().unwrap().unwrap().seq, 1, "the shed submit burned no seq");

        // ShuttingDown is accounted as a dead letter; the Err return owns
        // the response, so the callback is not invoked.
        server.begin_drain();
        let err = server.try_submit_with("doc", "<d>late</d>", callback(&done_tx));
        assert!(matches!(err, Err(SubmitError::ShuttingDown)));
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        assert_eq!((report.succeeded, report.dead_lettered), (3, 1));
        assert!(done_rx.try_recv().is_err(), "refused submits never call back");
    }

    /// The log alone must reconstruct everything that was acked — under a
    /// different shard count and matcher than the ones that wrote it.
    #[test]
    fn wal_only_restart_replays_every_acked_version() {
        let dir = std::env::temp_dir().join(format!("xyserve-wal-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig::new()
            .with_workers(2)
            .unwrap()
            .with_shards(2)
            .unwrap()
            .with_wal(WalPolicy::new(&dir));
        let server = IngestServer::try_start(config.clone()).unwrap();
        for v in 0..5 {
            let t = server.submit_tracked("doc", format!("<d><v>{v}</v></d>")).unwrap();
            let done = t.wait().unwrap();
            assert!(done.durable, "Always mode must ack durable");
        }
        server.submit("other", "<o/>").unwrap();
        // A third key makes the log longer than one replay batch.
        for v in 0..=REPLAY_BATCH {
            server.submit("long", format!("<l>{v}</l>")).unwrap();
        }
        let logged = 6 + REPLAY_BATCH + 1;
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        let appends = format!("ingest_wal_appends_total {logged}");
        assert!(report.metrics_text.contains(&appends), "{}", report.metrics_text);

        // Restart with a different shard count and matcher: chains re-route,
        // and replay applies the logged deltas without running any diff.
        let unordered = DiffOptions { mode: xydiff::MatchMode::Unordered, ..DiffOptions::default() };
        let server =
            IngestServer::try_start(config.with_shards(4).unwrap().with_diff_options(unordered))
                .unwrap();
        assert_eq!(server.total_versions(), logged);
        let repo = server.repository_for("doc");
        for v in 0..5 {
            assert_eq!(repo.version_xml("doc", v).unwrap(), format!("<d><v>{v}</v></d>"));
        }
        let long = server.repository_for("long");
        for v in [0, REPLAY_BATCH - 7, REPLAY_BATCH] {
            assert_eq!(long.version_xml("long", v).unwrap(), format!("<l>{v}</l>"));
        }
        assert_eq!(server.metrics().wal_replayed.get(), logged as u64);
        // Ingest continues on the replayed chains and keeps logging.
        let t = server.submit_tracked("doc", "<d><v>5</v></d>").unwrap();
        let done = t.wait().unwrap();
        assert_eq!(done.version, 5);
        assert!(done.durable);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_wal_acks_are_not_durable() {
        let server = tiny_server(1);
        let t = server.submit_tracked("doc", "<a/>").unwrap();
        assert!(!t.wait().unwrap().durable);
        drop(server);
    }

    #[test]
    fn background_compactor_bounds_chain_hops() {
        let server = IngestServer::start(
            ServeConfig::new().with_workers(2).unwrap().with_compact_chain_max(8),
        );
        for v in 0..64 {
            server.submit("doc", format!("<d><v>{v}</v></d>")).unwrap();
        }
        server.wait_idle();
        let repo = server.repository_for("doc");
        let deadline = Instant::now() + Duration::from_secs(10);
        while repo.chain_hops("doc").unwrap() > 8 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            repo.chain_hops("doc").unwrap() <= 8,
            "compactor must bound hops, got {:?} with {:?} checkpoints",
            repo.chain_hops("doc"),
            repo.chain_checkpoints("doc"),
        );
        // Compaction must not change what reconstruction returns.
        for v in [0, 7, 31, 63] {
            assert_eq!(repo.version_xml("doc", v).unwrap(), format!("<d><v>{v}</v></d>"));
        }
        let report = server.shutdown();
        assert!(report.is_balanced(), "{report:?}");
        assert!(report.metrics_text.contains("ingest_chain_compactions_total"), "{}", report.metrics_text);
    }

    #[test]
    fn degenerate_configs_are_rejected_with_typed_errors() {
        type Build = fn(ServeConfig, usize) -> Result<ServeConfig, ConfigError>;
        type Poke = fn(&mut ServeConfig, usize);
        let max = ServeConfig::MAX_WORKERS;
        let workers: (Build, Poke) = (ServeConfig::with_workers, |c, v| c.workers = v);
        let queue: (Build, Poke) = (ServeConfig::with_queue_capacity, |c, v| c.queue_capacity = v);
        let shards: (Build, Poke) = (ServeConfig::with_shards, |c, v| c.shards = v);
        let threads: (Build, Poke) = (ServeConfig::with_diff_threads, |c, v| c.diff_threads = v);
        let rules = [
            (workers, 0, ConfigError::ZeroWorkers),
            (workers, 2000, ConfigError::TooManyWorkers { requested: 2000, max }),
            (queue, 0, ConfigError::ZeroQueueCapacity),
            (shards, 0, ConfigError::ZeroShards),
            (shards, 6, ConfigError::ShardsNotPowerOfTwo { requested: 6 }),
            (threads, 0, ConfigError::ZeroDiffThreads),
            (threads, 2000, ConfigError::TooManyDiffThreads { requested: 2000, max }),
        ];
        for ((build, poke), value, want) in rules {
            assert_eq!(build(ServeConfig::new(), value).unwrap_err(), want);
            // The fields are public: validate, and try_start through it,
            // are the backstop against direct mutation.
            let mut config = ServeConfig::new();
            poke(&mut config, value);
            assert_eq!(config.validate().unwrap_err(), want);
            assert!(
                matches!(IngestServer::try_start(config), Err(StartError::Config(e)) if e == want),
                "{want:?}"
            );
        }
    }

    #[test]
    fn effective_config_reports_oversubscription() {
        let available = std::thread::available_parallelism().map_or(0, |n| n.get());
        let line = ServeConfig::new().with_workers(ServeConfig::MAX_WORKERS).unwrap().to_string();
        let keys: Vec<&str> = line.split(' ').filter_map(|kv| kv.split('=').next()).collect();
        assert_eq!(
            keys.join(" "),
            "workers available_parallelism oversubscribed shards queue_capacity diff_threads \
             mode wal compact_chain_max",
            "{line}"
        );
        assert!(line.starts_with(&format!("workers=1024 available_parallelism={available} ")), "{line}");
        // 1024 workers oversubscribe any host that can report parallelism.
        assert_eq!(line.contains("oversubscribed=true"), available > 0, "{line}");
        // One serial worker never does.
        let line = ServeConfig::new().with_workers(1).unwrap().to_string();
        assert!(line.contains("oversubscribed=false"), "{line}");
        // What can be runnable at once is workers x diff_threads: a worker
        // per core fills the host exactly until each diff fans out.
        if (1..=ServeConfig::MAX_WORKERS).contains(&available) {
            let full = ServeConfig::new().with_workers(available).unwrap();
            assert!(full.to_string().contains("oversubscribed=false"), "{full}");
            let fanned = full.with_diff_threads(2).unwrap().to_string();
            assert!(fanned.contains("diff_threads=2 "), "{fanned}");
            assert!(fanned.contains("oversubscribed=true"), "{fanned}");
        }
    }
}
