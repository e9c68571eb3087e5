//! Scoped fork-join parallelism for the diff's data-parallel phases.
//!
//! Phases 2 (subtree hashing) and 3 (candidate pre-verification) contain
//! embarrassingly parallel work over *independent top-level subtrees*: the
//! children of the root element never share descendants, so their signatures
//! and their `subtree_eq` verifications can run concurrently without any
//! shared mutable state. [`StdScopeRunner`] runs `n` independent closures
//! over [`std::thread::scope`] and joins them. At one thread (the default,
//! and `--diff-threads 1`) it runs them inline, and the diff skips its
//! parallel staging altogether, so the steady-state no-alloc guarantee of
//! the default path holds. [`crate::Differ::with_threads`] sizes it.
//!
//! # Determinism contract
//!
//! The runner executes `f(0)`, `f(1)`, …, `f(n-1)` exactly once each, in any
//! order and on any thread, and returns only after every invocation has
//! finished. Callers in this crate only pass *pure* closures that write
//! results into per-index slots ([`std::sync::OnceLock`] cells), then merge
//! the slots in index order on the calling thread — so the produced delta is
//! byte-identical to the serial path at every thread count (pinned by
//! `tests/diff_parallel_props.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Fork-join runner over [`std::thread::scope`].
///
/// Spawns `min(threads, n)` scoped workers that race over a shared atomic
/// index, so a worker that drew a small item takes the next one while a
/// large item is still running — uneven items balance without a queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StdScopeRunner {
    threads: usize,
}

impl Default for StdScopeRunner {
    /// One thread: everything inline.
    fn default() -> StdScopeRunner {
        StdScopeRunner::new(1)
    }
}

impl StdScopeRunner {
    /// A runner that fans out over `threads` scoped workers (minimum 1).
    pub(crate) fn new(threads: usize) -> StdScopeRunner {
        StdScopeRunner { threads: threads.max(1) }
    }

    /// Worker parallelism this runner offers. The diff uses `threads() <= 1`
    /// to bypass parallel staging entirely (no slot buffers, no task lists).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Invoke `f(i)` for every `i` in `0..n`, exactly once each, in any
    /// order, possibly concurrently; returns when all have run.
    pub(crate) fn run(&self, n: usize, f: impl Fn(usize) + Sync) {
        let workers = self.threads.min(n);
        if workers <= 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        // Parallel staging is opt-in; the one-thread path (the one
        // the steady-state no-alloc test pins) never reaches this line.
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

    fn covers_all(runner: StdScopeRunner, n: usize) {
        let slots: Vec<OnceLock<usize>> = (0..n).map(|_| OnceLock::new()).collect();
        runner.run(n, |i| {
            slots[i].set(i * i).expect("each index visited exactly once");
        });
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(s.get(), Some(&(i * i)));
        }
    }

    #[test]
    fn runner_visits_every_index_once() {
        for threads in [1, 2, 4, 8] {
            covers_all(StdScopeRunner::new(threads), 33);
            covers_all(StdScopeRunner::new(threads), 1);
            covers_all(StdScopeRunner::new(threads), 0);
        }
    }

    #[test]
    fn oversubscription_beyond_item_count_is_fine() {
        covers_all(StdScopeRunner::new(64), 3);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(StdScopeRunner::new(0).threads(), 1);
        assert_eq!(StdScopeRunner::default().threads(), 1);
    }
}
