//! A sharded work-stealing scheduler.
//!
//! A single queue serializes every producer and consumer on one
//! mutex/condvar pair; this scheduler splits the storage into one bounded
//! deque per worker. Producers route each job to its key's **home deque**
//! (`key_hash % workers`, the same hash family the repository shards use),
//! the owning worker pops LIFO from the back, and an idle worker steals a
//! FIFO batch from the *front* of a victim's deque — oldest jobs first, so
//! stealing drains backlog rather than racing the owner for fresh work.
//!
//! The contracts of a single bounded queue, and how they survive
//! sharding:
//!
//! - **Global backpressure.** Capacity is a single atomic budget over the
//!   *sum* of deque depths: a push reserves a slot with a CAS before it
//!   deposits, so `try_push` reports [`TryPushError::Full`] exactly when
//!   the scheduler holds `capacity` jobs, no matter how they are spread.
//! - **Loss-free drain.** [`Scheduler::close`] fans out to every deque
//!   (one flag, every condvar notified). A blocked [`Scheduler::pop`]
//!   returns `None` only when the scheduler is closed *and* the depth —
//!   which includes jobs mid-steal, because stealing never decrements it —
//!   is zero. No job can be stranded in a thief's hands at drain time.
//! - **Per-key ordering.** Same-key jobs share a home deque and stealing
//!   moves whole key-runs (a batch is extended while the next job at the
//!   victim's front belongs to the same key as the last job taken), so a
//!   key's pending versions travel together. The server's admit/advance
//!   gate remains the ordering *authority* — the scheduler only keeps runs
//!   intact so the gate rarely has to park anything.
//!
//! Every blocking decision re-checks its predicate under the `sync` mutex
//! after the atomics say "wait", which closes the classic lost-wakeup
//! window; the close flag lives in the same atomic word as the depth, so a
//! push can never reserve a slot after a drain has been observed complete.
//!
//! A [`SchedHook`] fires at every scheduling decision point (push, own-pop,
//! steal scan, steal transfer, close) while **no lock is held** — the
//! deterministic concurrency harness (`tests/sched_determinism.rs`) uses it
//! to inject seeded yields and replays whole interleavings through
//! [`Scheduler::try_push`]/[`Scheduler::try_pop`] from a single thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The item handed back by [`Scheduler::push`] when the scheduler is closed.
#[derive(Debug)]
pub struct Closed<T>(pub T);

/// Why [`Scheduler::try_push`] refused an item (the item rides along).
#[derive(Debug)]
pub enum TryPushError<T> {
    /// The scheduler is at capacity; the caller should shed load (this is
    /// the signal the HTTP front turns into `503 Retry-After`).
    Full(T),
    /// The scheduler is closed (draining shutdown).
    Closed(T),
}

/// Observer called at every scheduling decision point (no locks held).
pub type SchedHook = Arc<dyn Fn(SchedEvent) + Send + Sync>;

/// The decision points a [`SchedHook`] observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// A producer is about to deposit a job on `deque`.
    Push {
        /// Home deque the job is routed to.
        deque: usize,
    },
    /// `worker` is about to pop from its own deque.
    PopOwn {
        /// The popping worker.
        worker: usize,
    },
    /// `thief` is about to inspect `victim`'s deque for stealable work.
    StealScan {
        /// The stealing worker.
        thief: usize,
        /// The deque being inspected.
        victim: usize,
    },
    /// `thief` took `moved` jobs from `victim` (about to deposit the rest).
    Stole {
        /// The stealing worker.
        thief: usize,
        /// The deque the batch came from.
        victim: usize,
        /// Jobs in the stolen batch (first one runs immediately).
        moved: usize,
    },
    /// The scheduler was closed (drain begins).
    Close,
}

/// Outcome of one non-blocking scheduling step ([`Scheduler::try_pop`]).
#[derive(Debug)]
pub enum Steal<T> {
    /// A job to run.
    Item(T),
    /// No queued jobs anywhere (depth is zero).
    Empty,
    /// Depth is non-zero but every visible deque was empty — another worker
    /// holds jobs mid-steal. Re-scan; never sleep on this.
    Retry,
}

/// The closed flag shares the atomic word with the depth so that a slot
/// reservation and a close are totally ordered against each other.
const CLOSED_BIT: usize = 1 << (usize::BITS - 1);
const DEPTH_MASK: usize = !CLOSED_BIT;

struct Deque<T> {
    /// Front = oldest (steal end), back = newest (owner's LIFO end).
    items: Mutex<VecDeque<(u64, T)>>,
}

/// Bounded sharded work-stealing scheduler. See the module docs.
pub struct Scheduler<T> {
    deques: Vec<Deque<T>>,
    /// `CLOSED_BIT | depth`; depth counts deposited jobs *and* jobs a thief
    /// currently holds in transfer, so drain cannot complete under them.
    state: AtomicUsize,
    capacity: usize,
    steal_batch: usize,
    /// Pairs with the condvars; taken only on slow paths and for notifies.
    sync: Mutex<()>,
    not_full: Condvar,
    not_empty: Condvar,
    steals: AtomicU64,
    stolen_jobs: AtomicU64,
    hook: Option<SchedHook>,
}

impl<T> Scheduler<T> {
    /// A scheduler with one deque per worker, a global capacity over the sum
    /// of all deque depths (minimum 1), and a steal batch size (minimum 1).
    pub fn new(workers: usize, capacity: usize, steal_batch: usize) -> Scheduler<T> {
        let workers = workers.max(1);
        Scheduler {
            deques: (0..workers).map(|_| Deque { items: Mutex::new(VecDeque::new()) }).collect(),
            state: AtomicUsize::new(0),
            capacity: capacity.clamp(1, DEPTH_MASK),
            steal_batch: steal_batch.max(1),
            sync: Mutex::new(()),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            steals: AtomicU64::new(0),
            stolen_jobs: AtomicU64::new(0),
            hook: None,
        }
    }

    /// Install an observer for scheduling decision points (tests).
    #[must_use]
    pub fn with_hook(mut self, hook: SchedHook) -> Scheduler<T> {
        self.hook = Some(hook);
        self
    }

    /// Number of worker deques.
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// The home deque for a job with this key hash.
    pub fn home_of(&self, key_hash: u64) -> usize {
        (key_hash % self.deques.len() as u64) as usize
    }

    fn fire(&self, event: SchedEvent) {
        if let Some(hook) = &self.hook {
            hook(event);
        }
    }

    /// Reserve one depth slot. `Err(true)` = closed, `Err(false)` = full.
    fn try_reserve(&self) -> Result<(), bool> {
        let mut s = self.state.load(Ordering::SeqCst);
        loop {
            if s & CLOSED_BIT != 0 {
                return Err(true);
            }
            if s & DEPTH_MASK >= self.capacity {
                return Err(false);
            }
            match self.state.compare_exchange_weak(s, s + 1, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return Ok(()),
                Err(cur) => s = cur,
            }
        }
    }

    /// Deposit a reserved job on its home deque and wake one sleeper.
    fn deposit(&self, key_hash: u64, item: T) {
        let home = self.home_of(key_hash);
        self.fire(SchedEvent::Push { deque: home });
        // INVARIANT: a poisoned deque lock means a holder panicked
        // mid-update; the scheduler cannot vouch for its state, so the
        // panic propagates.
        self.deques[home].items.lock().unwrap().push_back((key_hash, item));
        // Taking `sync` before notifying closes the lost-wakeup window: a
        // popper that saw depth 0 holds `sync` until it is inside wait().
        // INVARIANT: `sync` guards no data; it cannot be poisoned mid-update.
        let _g = self.sync.lock().unwrap();
        self.not_empty.notify_one();
    }

    /// One job was taken out for processing: release its depth slot.
    fn finish_take(&self) {
        self.state.fetch_sub(1, Ordering::SeqCst);
        // INVARIANT: `sync` guards no data; it cannot be poisoned mid-update.
        let _g = self.sync.lock().unwrap();
        self.not_full.notify_one();
    }

    /// Enqueue a job on the home deque of `key_hash`, blocking while the
    /// scheduler is at capacity. Returns the job back if the scheduler was
    /// closed before space opened up.
    pub fn push(&self, key_hash: u64, item: T) -> Result<(), Closed<T>> {
        loop {
            match self.try_reserve() {
                Ok(()) => {
                    self.deposit(key_hash, item);
                    return Ok(());
                }
                Err(true) => return Err(Closed(item)),
                Err(false) => {
                    // INVARIANT: `sync` guards no data; it cannot be
                    // poisoned mid-update.
                    let guard = self.sync.lock().unwrap();
                    let s = self.state.load(Ordering::SeqCst);
                    if s & CLOSED_BIT != 0 {
                        return Err(Closed(item));
                    }
                    if s & DEPTH_MASK >= self.capacity {
                        // INVARIANT: `sync` guards no data; it cannot be
                        // poisoned mid-update.
                        drop(self.not_full.wait(guard).unwrap());
                    }
                }
            }
        }
    }

    /// Enqueue without blocking: a scheduler at capacity reports
    /// [`TryPushError::Full`] immediately (the 503 + `Retry-After` signal).
    pub fn try_push(&self, key_hash: u64, item: T) -> Result<(), TryPushError<T>> {
        match self.try_reserve() {
            Ok(()) => {
                self.deposit(key_hash, item);
                Ok(())
            }
            Err(true) => Err(TryPushError::Closed(item)),
            Err(false) => Err(TryPushError::Full(item)),
        }
    }

    /// One non-blocking scheduling step for `worker`: own deque first
    /// (LIFO), then a steal scan over the other deques (FIFO batches).
    pub fn try_pop(&self, worker: usize) -> Steal<T> {
        self.fire(SchedEvent::PopOwn { worker });
        let own = {
            // INVARIANT: a poisoned deque lock means a holder panicked
            // mid-update; the scheduler cannot vouch for its state, so the
            // panic propagates.
            self.deques[worker].items.lock().unwrap().pop_back()
        };
        if let Some((_, item)) = own {
            self.finish_take();
            return Steal::Item(item);
        }
        if self.state.load(Ordering::SeqCst) & DEPTH_MASK == 0 {
            return Steal::Empty;
        }
        let n = self.deques.len();
        for off in 1..n {
            let victim = (worker + off) % n;
            self.fire(SchedEvent::StealScan { thief: worker, victim });
            let mut batch: VecDeque<(u64, T)> = {
                // INVARIANT: a poisoned deque lock means a holder panicked
                // mid-update; the scheduler cannot vouch for its state, so
                // the panic propagates.
                let mut v = self.deques[victim].items.lock().unwrap();
                if v.is_empty() {
                    continue;
                }
                let take = self.steal_batch.min(v.len());
                let mut batch: VecDeque<(u64, T)> = v.drain(..take).collect();
                // Move the whole key-run: if the next job at the victim's
                // front continues the key of the last job taken, it travels
                // with the batch so a key's versions stay together.
                while v.front().map(|(h, _)| *h)
                    == batch.back().map(|(h, _)| *h)
                {
                    // INVARIANT: the while condition proved the front exists
                    // (both sides are Some and equal).
                    batch.push_back(v.pop_front().unwrap());
                }
                batch
            };
            self.steals.fetch_add(1, Ordering::Relaxed);
            self.stolen_jobs.fetch_add(batch.len() as u64, Ordering::Relaxed);
            self.fire(SchedEvent::Stole { thief: worker, victim, moved: batch.len() });
            // INVARIANT: the batch came from a non-empty deque, so it holds
            // at least one job.
            let (_, first) = batch.pop_front().unwrap();
            if !batch.is_empty() {
                // INVARIANT: a poisoned deque lock means a holder panicked
                // mid-update; the scheduler cannot vouch for its state, so
                // the panic propagates.
                let mut own = self.deques[worker].items.lock().unwrap();
                // Deposit at the back in reverse so the owner's LIFO pops
                // replay the stolen run in its original (FIFO) order.
                while let Some(pair) = batch.pop_back() {
                    own.push_back(pair);
                }
            }
            self.finish_take();
            return Steal::Item(first);
        }
        if self.state.load(Ordering::SeqCst) & DEPTH_MASK > 0 {
            Steal::Retry
        } else {
            Steal::Empty
        }
    }

    /// Dequeue a job for `worker`, blocking while no work exists anywhere.
    /// Returns `None` once the scheduler is closed *and* fully drained —
    /// including jobs that were mid-steal when the close happened.
    pub fn pop(&self, worker: usize) -> Option<T> {
        loop {
            match self.try_pop(worker) {
                Steal::Item(item) => return Some(item),
                Steal::Retry => {
                    // Depth says work exists but it is in a thief's hands
                    // for the duration of a batch transfer; spinning with a
                    // yield is cheaper than sleeping for that window.
                    std::thread::yield_now();
                }
                Steal::Empty => {
                    // INVARIANT: `sync` guards no data; it cannot be
                    // poisoned mid-update.
                    let guard = self.sync.lock().unwrap();
                    let s = self.state.load(Ordering::SeqCst);
                    if s & DEPTH_MASK == 0 {
                        if s & CLOSED_BIT != 0 {
                            return None;
                        }
                        // INVARIANT: `sync` guards no data; it cannot be
                        // poisoned mid-update.
                        drop(self.not_empty.wait(guard).unwrap());
                    }
                    // Depth moved since the scan: rescan immediately.
                }
            }
        }
    }

    /// Refuse new jobs and wake everyone; queued jobs remain poppable and
    /// [`Scheduler::pop`] keeps handing them out until the depth is zero.
    pub fn close(&self) {
        self.state.fetch_or(CLOSED_BIT, Ordering::SeqCst);
        self.fire(SchedEvent::Close);
        // INVARIANT: `sync` guards no data; it cannot be poisoned mid-update.
        let _g = self.sync.lock().unwrap();
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Total queued jobs across every deque (including jobs mid-steal).
    pub fn len(&self) -> usize {
        self.state.load(Ordering::SeqCst) & DEPTH_MASK
    }

    /// True when no jobs are queued anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once [`Scheduler::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.load(Ordering::SeqCst) & CLOSED_BIT != 0
    }

    /// Jobs currently sitting in `deque` (a point-in-time reading).
    pub fn depth_of(&self, deque: usize) -> usize {
        // INVARIANT: a poisoned deque lock means a holder panicked
        // mid-update; the scheduler cannot vouch for its state, so the
        // panic propagates.
        self.deques[deque].items.lock().unwrap().len()
    }

    /// Steal operations performed so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Jobs moved by steal operations so far (sum of batch sizes).
    pub fn stolen_jobs(&self) -> u64 {
        self.stolen_jobs.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn own_deque_is_lifo_others_steal_fifo() {
        let s: Scheduler<u32> = Scheduler::new(2, 16, 2);
        // Four distinct keys, all even hashes, so all home to deque 0 (and
        // no key-run extends the steal batch).
        for i in 0..4u32 {
            s.try_push(u64::from(i) * 2, i).unwrap();
        }
        // Owner pops the newest first.
        assert!(matches!(s.try_pop(0), Steal::Item(3)));
        // A thief takes the *oldest* jobs: batch of 2 from the front, runs
        // the first and keeps the second.
        assert!(matches!(s.try_pop(1), Steal::Item(0)));
        assert_eq!(s.steals(), 1);
        assert_eq!(s.stolen_jobs(), 2);
        assert_eq!(s.depth_of(1), 1, "remainder deposited on the thief's deque");
        assert!(matches!(s.try_pop(1), Steal::Item(1)));
        assert!(matches!(s.try_pop(0), Steal::Item(2)));
        assert!(matches!(s.try_pop(0), Steal::Empty));
    }

    #[test]
    fn steal_moves_whole_key_runs() {
        let s: Scheduler<u32> = Scheduler::new(2, 16, 1);
        // Key run at the front: three jobs of key 0, then one of key 2
        // (both keys home to deque 0).
        for (h, v) in [(0u64, 1u32), (0, 2), (0, 3), (2, 9)] {
            s.try_push(h, v).unwrap();
        }
        // Batch size is 1, but the run completion extends the steal to the
        // whole key-0 run.
        assert!(matches!(s.try_pop(1), Steal::Item(1)));
        assert_eq!(s.stolen_jobs(), 3, "the whole key run travelled");
        assert_eq!(s.depth_of(0), 1, "the other key stayed home");
        // The thief replays the run in order.
        assert!(matches!(s.try_pop(1), Steal::Item(2)));
        assert!(matches!(s.try_pop(1), Steal::Item(3)));
    }

    #[test]
    fn capacity_is_global_across_deques() {
        let s: Scheduler<u32> = Scheduler::new(4, 2, 1);
        s.try_push(0, 0).unwrap();
        s.try_push(1, 1).unwrap();
        // Third push hits the *global* budget even though two deques are
        // still empty.
        assert!(matches!(s.try_push(2, 2), Err(TryPushError::Full(2))));
        assert!(matches!(s.try_pop(0), Steal::Item(_)));
        s.try_push(2, 2).unwrap();
        s.close();
        assert!(matches!(s.try_push(3, 3), Err(TryPushError::Closed(3))));
    }

    #[test]
    fn close_drains_then_stops_across_threads() {
        let s: Arc<Scheduler<u32>> = Arc::new(Scheduler::new(3, 64, 2));
        for i in 0..30 {
            s.push(u64::from(i % 5), i).unwrap();
        }
        s.close();
        let workers: Vec<_> = (0..3)
            .map(|w| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = s.pop(w) {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<u32> =
            workers.into_iter().flat_map(|w| w.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<_>>());
        assert!(s.is_empty());
    }

    #[test]
    fn blocked_poppers_wake_with_none_on_close() {
        let s: Arc<Scheduler<u32>> = Arc::new(Scheduler::new(2, 4, 1));
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || s.pop(w))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        s.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let s: Arc<Scheduler<u32>> = Arc::new(Scheduler::new(1, 1, 1));
        s.push(0, 1).unwrap();
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || s2.push(0, 2).is_ok());
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(s.len(), 1, "second push must wait for space");
        assert!(matches!(s.try_pop(0), Steal::Item(1)));
        assert!(t.join().unwrap());
        assert!(matches!(s.try_pop(0), Steal::Item(2)));
    }

    #[test]
    fn hook_sees_pushes_steals_and_close() {
        use std::sync::Mutex as StdMutex;
        let events: Arc<StdMutex<Vec<SchedEvent>>> = Arc::new(StdMutex::new(Vec::new()));
        let seen = Arc::clone(&events);
        let s: Scheduler<u32> =
            Scheduler::new(2, 8, 1).with_hook(Arc::new(move |e| seen.lock().unwrap().push(e)));
        s.try_push(0, 7).unwrap();
        assert!(matches!(s.try_pop(1), Steal::Item(7)));
        s.close();
        let events = events.lock().unwrap();
        assert!(events.contains(&SchedEvent::Push { deque: 0 }));
        assert!(events.contains(&SchedEvent::PopOwn { worker: 1 }));
        assert!(events.contains(&SchedEvent::StealScan { thief: 1, victim: 0 }));
        assert!(events.contains(&SchedEvent::Stole { thief: 1, victim: 0, moved: 1 }));
        assert!(events.contains(&SchedEvent::Close));
    }
}
