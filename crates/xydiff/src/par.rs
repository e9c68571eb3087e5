//! Scoped fork-join parallelism for the diff's data-parallel phases.
//!
//! Phases 2 (subtree hashing) and 3 (candidate pre-verification) contain
//! embarrassingly parallel work over *independent top-level subtrees*: the
//! children of the root element never share descendants, so their signatures
//! and their `subtree_eq` verifications can run concurrently without any
//! shared mutable state. This module defines the narrow interface the diff
//! pipeline uses to exploit that — a [`ParallelRunner`] executes `n`
//! independent closures and joins them — without committing the crate to a
//! thread-pool implementation.
//!
//! Two implementations live here:
//!
//! - [`SerialRunner`] — the default; runs everything inline on the calling
//!   thread. The diff takes this path when `--diff-threads 1` (or when no
//!   runner is installed), and it performs *zero* additional allocation, so
//!   the steady-state no-alloc guarantee of [`crate::DiffScratch`] holds.
//! - [`StdScopeRunner`] — fork-join over [`std::thread::scope`]: the runner
//!   the server installs via [`crate::Differ::with_runner`] when
//!   `--diff-threads` is above 1, and the one the equivalence property tests
//!   run at arbitrary thread counts.
//!
//! # Determinism contract
//!
//! A runner executes `f(0)`, `f(1)`, …, `f(n-1)` exactly once each, in any
//! order and on any thread, and returns only after every invocation has
//! finished. Callers in this crate only pass *pure* closures that write
//! results into per-index slots ([`std::sync::OnceLock`] cells), then merge
//! the slots in index order on the calling thread — so the produced delta is
//! byte-identical to the serial path at every thread count (pinned by
//! `tests/parallel_equivalence.rs` and the cross-crate property suite).

#![doc = "xylint: hot-path"]

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Executes `n` independent work items and joins them; see the module docs
/// for the determinism contract.
pub trait ParallelRunner: Send + Sync + fmt::Debug {
    /// Worker parallelism this runner offers. The diff uses `threads() <= 1`
    /// to bypass parallel staging entirely (no slot buffers, no task lists).
    fn threads(&self) -> usize;

    /// Invoke `f(i)` for every `i` in `0..n`, exactly once each, in any
    /// order, possibly concurrently. Must not return before all have run.
    fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync));
}

/// The degenerate runner: everything inline, no threads, no allocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialRunner;

impl ParallelRunner for SerialRunner {
    fn threads(&self) -> usize {
        1
    }

    fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        for i in 0..n {
            f(i);
        }
    }
}

/// Fork-join runner over [`std::thread::scope`].
///
/// Spawns `min(threads, n)` scoped workers that race over a shared atomic
/// index, so a worker that drew a small item takes the next one while a
/// large item is still running — uneven items balance without a queue.
#[derive(Debug, Clone, Copy)]
pub struct StdScopeRunner {
    threads: usize,
}

impl StdScopeRunner {
    /// A runner that fans out over `threads` scoped workers (minimum 1).
    pub fn new(threads: usize) -> StdScopeRunner {
        StdScopeRunner { threads: threads.max(1) }
    }
}

impl ParallelRunner for StdScopeRunner {
    fn threads(&self) -> usize {
        self.threads
    }

    fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        let workers = self.threads.min(n);
        if workers <= 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        // ALLOC-OK: parallel staging is opt-in; the serial path (the one the
        // steady-state no-alloc test pins) never reaches this line.
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    f(i);
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn covers_all(runner: &dyn ParallelRunner, n: usize) {
        let slots: Vec<OnceLock<usize>> = (0..n).map(|_| OnceLock::new()).collect();
        runner.run(n, &|i| {
            slots[i].set(i * i).expect("each index visited exactly once");
        });
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(s.get(), Some(&(i * i)));
        }
    }

    #[test]
    fn serial_runner_visits_every_index_once() {
        covers_all(&SerialRunner, 17);
        covers_all(&SerialRunner, 0);
    }

    #[test]
    fn scoped_runner_visits_every_index_once() {
        for threads in [1, 2, 4, 8] {
            covers_all(&StdScopeRunner::new(threads), 33);
            covers_all(&StdScopeRunner::new(threads), 1);
            covers_all(&StdScopeRunner::new(threads), 0);
        }
    }

    #[test]
    fn oversubscription_beyond_item_count_is_fine() {
        covers_all(&StdScopeRunner::new(64), 3);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(StdScopeRunner::new(0).threads(), 1);
    }
}
