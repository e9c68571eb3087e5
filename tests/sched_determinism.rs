//! Deterministic schedule exploration for the keyed run queue.
//!
//! Every test here derives the whole run — dimensions, operation sequence,
//! injected yields — from a single `u64` seed via SplitMix64, and every
//! assertion message carries that seed: a CI failure line is a complete
//! reproduction recipe (`XYSCHED_SEED_START=<seed> XYSCHED_SEED_COUNT=1
//! cargo test --test sched_determinism`).
//!
//! Three layers:
//!
//! 1. A single-threaded walk of `try_push`/`try_pop`/`done`/`close`, checked
//!    after every step against a reference model that is correct by
//!    inspection (per key: the list of accepted pushes, how many of them
//!    have been popped, whether one is out).
//! 2. A multi-threaded sweep: producers and workers race over a small queue
//!    while the worker closure injects seeded yields between `pop` and
//!    `done`; the workers themselves check that no key is ever out twice
//!    and that each key's jobs arrive in `seq` order.
//! 3. An oversubscription smoke test: a full `IngestServer` with more
//!    workers than the host has cores drains loss-free.

mod common;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use common::seed_range;
use xydiff_suite::xyserve::{IngestServer, KeyedQueue, PushError, ServeConfig};

/// SplitMix64: tiny, deterministic, and good enough to scatter schedules.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

const KEYS: usize = 6;

/// The reference: what one key's lane must look like from outside.
#[derive(Default)]
struct ModelLane {
    /// Ids of the accepted pushes; the index is the `seq`.
    accepted: Vec<u64>,
    /// How many of them have been popped (always a prefix: per-key FIFO).
    popped: usize,
    /// One of them is out and not yet `done`.
    out: bool,
}

impl ModelLane {
    fn pending(&self) -> usize {
        self.accepted.len() - self.popped
    }
}

/// Pop once and check the job against the model; `None` must mean that no
/// key is eligible (pending work and nothing out).
fn checked_try_pop(q: &KeyedQueue<u64>, lanes: &mut [ModelLane], at: &str) {
    match q.try_pop() {
        Some((key, seq, id)) => {
            let lane = &mut lanes[key.parse::<usize>().unwrap()];
            assert!(!lane.out, "{at}: key {key} handed out twice");
            assert_eq!(seq as usize, lane.popped, "{at}: key {key} popped out of order");
            assert_eq!(id, lane.accepted[lane.popped], "{at}: key {key} seq {seq} carries the wrong job");
            lane.popped += 1;
            lane.out = true;
        }
        None => assert!(
            lanes.iter().all(|l| l.out || l.pending() == 0),
            "{at}: None with an eligible key"
        ),
    }
}

fn explore_single_threaded(seed: u64) {
    let mut rng = SplitMix64(seed);
    let capacity = 1 + (rng.next() % 8) as usize;
    let q: KeyedQueue<u64> = KeyedQueue::new(capacity);
    let mut lanes: Vec<ModelLane> = (0..KEYS).map(|_| ModelLane::default()).collect();
    let mut next_id = 0u64;
    let mut closed = false;
    let mut high_water = 0;

    let steps = 100 + rng.next() % 150;
    for step in 0..steps {
        let at = format!("seed {seed} step {step}");
        let depth: usize = lanes.iter().map(ModelLane::pending).sum();
        match rng.next() % 20 {
            0..=8 => {
                let k = (rng.next() % KEYS as u64) as usize;
                match q.try_push(&k.to_string(), next_id) {
                    Ok(seq) => {
                        assert!(!closed, "{at}: push accepted after close");
                        assert!(depth < capacity, "{at}: push accepted past capacity");
                        assert_eq!(
                            seq as usize,
                            lanes[k].accepted.len(),
                            "{at}: key {k} seq not dense (a refused push consumed one?)"
                        );
                        lanes[k].accepted.push(next_id);
                        next_id += 1;
                    }
                    Err(PushError::Full(_)) => {
                        assert!(!closed, "{at}: Full from a closed queue");
                        assert_eq!(depth, capacity, "{at}: Full below capacity");
                    }
                    Err(PushError::Closed(_)) => assert!(closed, "{at}: spurious Closed"),
                }
            }
            9..=14 => checked_try_pop(&q, &mut lanes, &at),
            15..=18 => {
                let out: Vec<usize> = (0..KEYS).filter(|&k| lanes[k].out).collect();
                if !out.is_empty() {
                    let k = out[(rng.next() % out.len() as u64) as usize];
                    q.done(&k.to_string());
                    lanes[k].out = false;
                }
            }
            _ => {
                if rng.next() % 4 == 0 {
                    q.close();
                    closed = true;
                }
            }
        }
        let depth: usize = lanes.iter().map(ModelLane::pending).sum();
        assert_eq!(q.len(), depth, "{at}: depth bookkeeping drifted");
        high_water = high_water.max(depth);
        assert_eq!(q.high_water(), high_water, "{at}: high water is not the largest depth");
        assert_eq!(q.is_closed(), closed, "{at}: close flag");
    }

    // Drain: hand back what is out, then the blocking `pop` must yield every
    // remaining job and report `None` exactly when nothing is pending.
    q.close();
    let at = format!("seed {seed} drain");
    for (k, lane) in lanes.iter_mut().enumerate() {
        if std::mem::take(&mut lane.out) {
            q.done(&k.to_string());
        }
    }
    while lanes.iter().any(|l| l.pending() > 0) {
        let (key, seq, id) = q.pop().unwrap_or_else(|| panic!("{at}: None with jobs pending"));
        let lane = &mut lanes[key.parse::<usize>().unwrap()];
        assert_eq!((seq as usize, id), (lane.popped, lane.accepted[lane.popped]), "{at}: key {key}");
        lane.popped += 1;
        q.done(&key);
    }
    assert!(q.pop().is_none(), "{at}: a job nobody pushed");
    assert!(q.try_pop().is_none(), "{at}: a job nobody pushed");
    // Popped is a prefix of accepted per key and nothing is pending, so the
    // multiset of pops equals the multiset of accepted pushes.
    assert_eq!(lanes.iter().map(|l| l.popped as u64).sum::<u64>(), next_id, "{at}");
    q.wait_idle();
}

#[test]
fn single_threaded_walk_against_the_model_over_seed_range() {
    for seed in seed_range("XYSCHED", 700) {
        explore_single_threaded(seed);
    }
}

/// One multi-threaded run: producers race workers over a small queue; each
/// worker yields at seeded points while it holds a job, so other workers
/// get every chance to be handed the same key.
fn explore_multi_threaded(seed: u64) {
    let mut rng = SplitMix64(seed ^ 0xDEAD_BEEF);
    let workers = 2 + (rng.next() % 3) as usize;
    let capacity = 2 + (rng.next() % 12) as usize;
    let producers = 2u64;
    let per_producer = 40u64;
    let what = format!("seed {seed}: {workers} workers / cap {capacity}");

    let q: KeyedQueue<(u64, u64)> = KeyedQueue::new(capacity);
    // Per key: "a job of this key is with a worker", and the next seq due.
    let out: Vec<AtomicBool> = (0..KEYS).map(|_| AtomicBool::new(false)).collect();
    let due: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let yields = AtomicU64::new(0);
    // A worker that saw a broken rule records it and carries on, so the run
    // still drains and the failure is reported instead of hanging the pool.
    let broken: Mutex<Option<String>> = Mutex::new(None);
    let check = |ok: bool, rule: &str, k: usize| {
        if !ok {
            broken.lock().unwrap().get_or_insert_with(|| format!("{what}: key {k} {rule}"));
        }
    };

    let mut drained: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let poppers: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut got = Vec::new();
                    while let Some((key, seq, item)) = q.pop() {
                        let k = key.parse::<usize>().unwrap();
                        check(!out[k].swap(true, Ordering::SeqCst), "out twice", k);
                        check(due[k].load(Ordering::SeqCst) == seq, "popped out of order", k);
                        for _ in 0..2 {
                            let n = yields.fetch_add(1, Ordering::Relaxed);
                            if SplitMix64(seed ^ n).next() % 3 == 0 {
                                std::thread::yield_now();
                            }
                        }
                        got.push(item);
                        due[k].store(seq + 1, Ordering::SeqCst);
                        out[k].store(false, Ordering::SeqCst);
                        q.done(&key);
                    }
                    got
                })
            })
            .collect();
        let pushers: Vec<_> = (0..producers)
            .map(|p| {
                let q = &q;
                scope.spawn(move || {
                    let mut rng = SplitMix64(seed.wrapping_add(p));
                    for i in 0..per_producer {
                        // Blocking push: backpressure stalls are part of the
                        // schedule being explored. Both producers hit every
                        // key, so same-key pushes race across threads.
                        let key = rng.next() % KEYS as u64;
                        q.push(&key.to_string(), (p, i)).unwrap();
                    }
                })
            })
            .collect();
        for p in pushers {
            p.join().unwrap();
        }
        q.wait_idle();
        q.close();
        poppers.into_iter().flat_map(|p| p.join().unwrap()).collect()
    });

    assert_eq!(broken.into_inner().unwrap(), None);
    drained.sort_unstable();
    let expect: Vec<(u64, u64)> =
        (0..producers).flat_map(|p| (0..per_producer).map(move |i| (p, i))).collect();
    assert_eq!(drained, expect, "{what}: lost or duplicated jobs");
    assert_eq!(
        due.iter().map(|d| d.load(Ordering::SeqCst)).sum::<u64>(),
        producers * per_producer,
        "{what}: per-key seqs are not dense"
    );
}

#[test]
fn multi_threaded_exploration_over_seed_range() {
    for seed in seed_range("XYSCHED", 300) {
        explore_multi_threaded(seed);
    }
}

/// A pool oversubscribed well past the host's core count (CI runs this on a
/// single-core runner) must still drain loss-free with per-key order intact.
#[test]
fn oversubscribed_pool_drains_loss_free() {
    let server = IngestServer::start(
        ServeConfig::new()
            .with_workers(8)
            .unwrap()
            .with_queue_capacity(16)
            .unwrap(),
    );
    let docs = 6;
    let versions = 10;
    for v in 0..versions {
        for d in 0..docs {
            server.submit(&format!("doc-{d}"), format!("<d><v>{v}</v></d>")).unwrap();
        }
    }
    server.wait_idle();

    let mut latest: HashMap<String, String> = HashMap::new();
    for d in 0..docs {
        let key = format!("doc-{d}");
        let repo = server.repository();
        assert_eq!(repo.version_count(&key), versions, "{key} lost versions");
        latest.insert(key.clone(), repo.latest_xml(&key).unwrap());
    }
    for (key, xml) in &latest {
        assert_eq!(xml, &format!("<d><v>{}</v></d>", versions - 1), "{key} out of order");
    }

    let report = server.shutdown();
    assert!(report.is_balanced(), "{report:?}");
    assert_eq!(report.succeeded as usize, docs * versions);
    assert_eq!(report.dead_lettered, 0);
}
