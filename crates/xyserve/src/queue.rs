//! The keyed run queue: one strand per document key.
//!
//! Every delta is computed against the stored previous version, so versions
//! of one document are inherently serial and all the parallelism is *across*
//! documents. This queue makes that its only rule: at most one job per key
//! is out with a worker at any moment, jobs of a key leave in the order they
//! were pushed, and any idle worker takes the oldest ready key.
//!
//! State, all under one mutex:
//!
//! - `lanes`: key → (`next_seq`, FIFO of pending jobs, busy flag). A lane is
//!   created by the first push of its key and kept, so `seq` counts a key's
//!   accepted pushes for the queue's whole life.
//! - `ready`: FIFO of keys that have pending work and no job out.
//! - `depth`: pending jobs over all lanes, bounded by `capacity`, and
//!   `high_water`, the largest `depth` so far (atomics written only under
//!   the lock, so a metrics scrape reads them without it); `out`: jobs
//!   popped and not yet [`KeyedQueue::done`].
//!
//! Three operations move a job through it. [`KeyedQueue::push`] /
//! [`KeyedQueue::try_push`] assign the per-key `seq` and append to the lane
//! under the lock, so a refused push consumes no sequence number and
//! same-key pushes from different threads get `seq`s in queue order.
//! [`KeyedQueue::pop`] hands the front job of the front ready key to the
//! caller and marks the key busy. [`KeyedQueue::done`] clears the mark and
//! re-appends the key at the *back* of `ready` if more work is pending, so a
//! hot key takes turns with cold ones.
//!
//! One lock is enough because a job is ≥ 100 µs of parse + diff and the
//! lock is held for a map lookup and a deque operation, three times per job.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Why a push was refused (the item rides along).
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue holds `capacity` pending jobs; the caller should shed load
    /// (the HTTP front turns this into `503 Retry-After`). Only
    /// [`KeyedQueue::try_push`] reports it; [`KeyedQueue::push`] waits.
    Full(T),
    /// The queue is closed (draining shutdown).
    Closed(T),
}

struct Lane<T> {
    /// Shared with `ready` and with every pop of this key.
    key: Arc<str>,
    next_seq: u64,
    pending: VecDeque<(u64, T)>,
    /// A job of this key is out with a worker.
    busy: bool,
}

struct State<T> {
    lanes: HashMap<Arc<str>, Lane<T>>,
    ready: VecDeque<Arc<str>>,
    out: usize,
    closed: bool,
}

/// Bounded multi-producer multi-consumer queue with per-key order. See the
/// module docs.
pub struct KeyedQueue<T> {
    state: Mutex<State<T>>,
    /// Pending jobs. Written only while `state` is locked (so `Relaxed` is
    /// ordered by the mutex); atomic so [`KeyedQueue::len`] takes no lock.
    depth: AtomicUsize,
    /// The largest `depth` ever reached; same writing rule as `depth`.
    high_water: AtomicUsize,
    capacity: usize,
    /// Poppers wait here for a ready key (or for close + drained).
    work: Condvar,
    /// Blocking pushers wait here for room, [`KeyedQueue::wait_idle`] for
    /// `depth == 0 && out == 0`.
    room: Condvar,
}

impl<T> KeyedQueue<T> {
    /// A queue admitting at most `capacity` pending jobs (minimum 1).
    pub fn new(capacity: usize) -> KeyedQueue<T> {
        KeyedQueue {
            state: Mutex::new(State {
                lanes: HashMap::new(),
                ready: VecDeque::new(),
                out: 0,
                closed: false,
            }),
            depth: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            capacity: capacity.max(1),
            work: Condvar::new(),
            room: Condvar::new(),
        }
    }

    #[allow(clippy::expect_used)]
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // INVARIANT: no code path panics while holding this lock short of a
        // broken internal condition; a poisoned queue cannot vouch for its
        // order, so the panic propagates to every caller.
        self.state.lock().expect("keyed queue lock poisoned")
    }

    #[allow(clippy::expect_used)]
    fn wait<'a>(&self, cv: &Condvar, guard: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        // INVARIANT: same lock, same reasoning as `lock`.
        cv.wait(guard).expect("keyed queue lock poisoned")
    }

    /// Append a job to `key`'s lane, waiting while the queue is at capacity.
    /// Returns the job's per-key sequence number; never reports
    /// [`PushError::Full`].
    pub fn push(&self, key: &str, item: T) -> Result<u64, PushError<T>> {
        self.enqueue(key, item, true)
    }

    /// [`KeyedQueue::push`] without waiting: a queue at capacity reports
    /// [`PushError::Full`] and assigns no sequence number.
    pub fn try_push(&self, key: &str, item: T) -> Result<u64, PushError<T>> {
        self.enqueue(key, item, false)
    }

    fn enqueue(&self, key: &str, item: T, block: bool) -> Result<u64, PushError<T>> {
        let mut s = self.lock();
        loop {
            if s.closed {
                return Err(PushError::Closed(item));
            }
            if self.len() < self.capacity {
                break;
            }
            if !block {
                return Err(PushError::Full(item));
            }
            s = self.wait(&self.room, s);
        }
        let state = &mut *s;
        if !state.lanes.contains_key(key) {
            let key: Arc<str> = Arc::from(key);
            let lane =
                Lane { key: Arc::clone(&key), next_seq: 0, pending: VecDeque::new(), busy: false };
            state.lanes.insert(key, lane);
        }
        // INVARIANT: the lane was found or inserted just above, under the lock.
        #[allow(clippy::expect_used)]
        let lane = state.lanes.get_mut(key).expect("lane exists");
        let seq = lane.next_seq;
        lane.next_seq += 1;
        lane.pending.push_back((seq, item));
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(depth, Ordering::Relaxed);
        if !lane.busy && lane.pending.len() == 1 {
            state.ready.push_back(Arc::clone(&lane.key));
            self.work.notify_one();
        }
        Ok(seq)
    }

    fn take(&self, s: &mut State<T>) -> Option<(Arc<str>, u64, T)> {
        let key = s.ready.pop_front()?;
        // INVARIANT: `ready` only holds keys of existing lanes with pending
        // work and no job out, and lanes are never removed.
        #[allow(clippy::expect_used)]
        let lane = s.lanes.get_mut(&*key).expect("ready key has a lane");
        // INVARIANT: see above — a ready lane has at least one pending job.
        #[allow(clippy::expect_used)]
        let (seq, item) = lane.pending.pop_front().expect("ready lane has a job");
        lane.busy = true;
        let depth = self.depth.fetch_sub(1, Ordering::Relaxed) - 1;
        s.out += 1;
        self.room.notify_all();
        if s.closed && depth == 0 {
            // The last job is out: poppers still waiting must see "drained".
            self.work.notify_all();
        }
        Some((key, seq, item))
    }

    /// The front job of the front ready key, with its key and per-key
    /// sequence number, waiting while no key is ready. The key stays busy —
    /// none of its later jobs is handed out — until [`KeyedQueue::done`].
    /// `None` once the queue is closed and holds no pending job.
    pub fn pop(&self) -> Option<(Arc<str>, u64, T)> {
        let mut s = self.lock();
        loop {
            if let Some(job) = self.take(&mut s) {
                return Some(job);
            }
            if s.closed && self.is_empty() {
                return None;
            }
            s = self.wait(&self.work, s);
        }
    }

    /// [`KeyedQueue::pop`] without waiting: `None` when no key is ready.
    pub fn try_pop(&self) -> Option<(Arc<str>, u64, T)> {
        self.take(&mut self.lock())
    }

    /// The job popped for `key` has finished: the key's next job, if any,
    /// becomes eligible behind every key already ready.
    pub fn done(&self, key: &str) {
        let mut s = self.lock();
        let state = &mut *s;
        // INVARIANT: `done` is only called with a key `pop` returned, and
        // lanes are never removed.
        #[allow(clippy::expect_used)]
        let lane = state.lanes.get_mut(key).expect("done for a popped key");
        debug_assert!(lane.busy, "done without a job out");
        lane.busy = false;
        state.out -= 1;
        if !lane.pending.is_empty() {
            state.ready.push_back(Arc::clone(&lane.key));
            self.work.notify_one();
        } else if state.out == 0 && self.is_empty() {
            self.room.notify_all();
        }
    }

    /// Block until no job is pending and none is out.
    pub fn wait_idle(&self) {
        let mut s = self.lock();
        while s.out > 0 || !self.is_empty() {
            s = self.wait(&self.room, s);
        }
    }

    /// Refuse new jobs and wake every waiter; pending jobs stay poppable.
    pub fn close(&self) {
        self.lock().closed = true;
        self.work.notify_all();
        self.room.notify_all();
    }

    /// Pending jobs (not counting jobs out with a worker).
    pub fn len(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// The most jobs ever pending at once.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// True when no job is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once [`KeyedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}
