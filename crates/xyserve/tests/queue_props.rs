//! Pointed edge cases of the keyed run queue: refusal, close/wake and the
//! capacity-1 configuration. The step-by-step model check lives in
//! `tests/sched_determinism.rs`.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use xyserve::{KeyedQueue, PushError};

/// A push racing a close never loses its item: the refused push hands the
/// item back to the caller, on the blocking and the non-blocking path alike.
#[test]
fn push_after_close_returns_the_item() {
    let q = KeyedQueue::new(8);
    q.close();
    assert!(matches!(q.push("k", "payload"), Err(PushError::Closed("payload"))));
    assert!(matches!(q.try_push("k", "other"), Err(PushError::Closed("other"))));
    assert!(q.is_closed() && q.is_empty());
}

/// Consumers blocked on an empty queue all wake with `None` when a drain
/// begins; none of them sleeps through the close.
#[test]
fn blocked_consumers_wake_with_none_on_drain() {
    let q = Arc::new(KeyedQueue::<u32>::new(8));
    let waiters: Vec<_> = (0..3)
        .map(|_| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop().map(|(_, seq, item)| (seq, item)))
        })
        .collect();
    // Best effort to let them block first; the outcome is the same if not.
    std::thread::sleep(Duration::from_millis(30));
    q.close();
    for w in waiters {
        assert_eq!(w.join().unwrap(), None);
    }
}

/// A closed queue whose last jobs all belong to one busy key: the consumers
/// waiting for that key to come back must see "drained" the moment the last
/// job is out, not sleep on.
#[test]
fn consumers_waiting_behind_a_busy_key_exit_once_it_drains() {
    let q = Arc::new(KeyedQueue::<u32>::new(8));
    for v in 0..3 {
        q.push("hot", v).unwrap();
    }
    q.close();
    let (key, seq, _) = q.pop().unwrap();
    assert_eq!(seq, 0);
    // One consumer more than jobs left: each `done` wakes one of them, so
    // the third is only ever woken by the drain itself.
    let (exit_tx, exit_rx) = mpsc::channel();
    for _ in 0..3 {
        let (q, exit_tx) = (Arc::clone(&q), exit_tx.clone());
        std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some((key, seq, _)) = q.pop() {
                got.push(seq);
                q.done(&key);
            }
            exit_tx.send(got).unwrap();
        });
    }
    // Best effort to let them block behind the busy key before it is freed.
    std::thread::sleep(Duration::from_millis(30));
    q.done(&key);
    let mut seqs = Vec::new();
    for _ in 0..3 {
        let got = exit_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a consumer slept through the drain");
        seqs.extend(got);
    }
    seqs.sort_unstable();
    assert_eq!(seqs, vec![1, 2]);
    q.wait_idle();
}

/// `try_push` discriminates the two refusal reasons: `Full` while at
/// capacity and open, `Closed` afterwards — even when the queue is both
/// full and closed (shedding load must not be mistaken for shutdown).
#[test]
fn try_push_discriminates_full_from_closed() {
    let q = KeyedQueue::new(2);
    assert_eq!(q.try_push("a", 1).unwrap(), 0);
    assert_eq!(q.try_push("b", 2).unwrap(), 0);
    assert!(matches!(q.try_push("a", 3), Err(PushError::Full(3))));
    q.close();
    // Still at capacity, but closed wins: retrying is pointless now.
    assert!(matches!(q.try_push("a", 4), Err(PushError::Closed(4))));
}

/// Capacity 1 is the tightest legal configuration: every push alternates
/// with a pop, blocking pushes wait until the single slot frees, and the
/// bound is over all keys — a job pending for one key refuses another's.
#[test]
fn capacity_one_alternates_push_and_pop() {
    let q = Arc::new(KeyedQueue::new(1));
    q.push("b", 0u32).unwrap();
    assert!(matches!(q.try_push("a", 99), Err(PushError::Full(99))));
    let consumer = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || {
            let mut popped = Vec::new();
            while let Some((key, _, item)) = q.pop() {
                popped.push(item);
                q.done(&key);
            }
            popped
        })
    };
    for i in 1..21u32 {
        q.push(if i % 2 == 0 { "a" } else { "b" }, i).unwrap();
    }
    q.close();
    // One producer, one slot: the queue can never hold two jobs, so the
    // consumer sees them in exactly the order they were pushed.
    assert_eq!(consumer.join().unwrap(), (0..21).collect::<Vec<_>>());
}

/// `wait_idle` returns only when nothing is pending and nothing is out —
/// a popped job keeps the queue busy until `done`.
#[test]
fn wait_idle_waits_for_the_job_that_is_out() {
    let q = Arc::new(KeyedQueue::new(4));
    q.push("k", ()).unwrap();
    let (key, _, ()) = q.pop().unwrap();
    assert!(q.is_empty(), "nothing pending, one job out");
    let (idle_tx, idle_rx) = mpsc::channel();
    let waiter = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || {
            q.wait_idle();
            idle_tx.send(()).unwrap();
        })
    };
    assert!(
        idle_rx.recv_timeout(Duration::from_millis(50)).is_err(),
        "idle reported while a job was out"
    );
    q.done(&key);
    idle_rx.recv().unwrap();
    waiter.join().unwrap();
}
