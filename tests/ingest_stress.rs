//! End-to-end stress tests for the `xyserve` ingestion pipeline: concurrent
//! ingestion must store exactly what a serial loop would, the alerter must
//! deliver every notification exactly once, and poison documents must end
//! in the dead-letter queue without disturbing anything else.

use std::collections::HashSet;
use std::sync::Arc;
use xydiff_suite::xyserve::{IngestServer, ServeConfig};
use xydiff_suite::xysim::{generate, simulate, ChangeConfig, DocGenConfig, DocKind};
use xydiff_suite::xywarehouse::{Alerter, OpFilter, Repository, Subscription};
use xydiff_suite::xydelta::XidDocument;

/// `docs` documents with `versions` snapshots each, as canonical XML.
fn corpus(docs: usize, versions: usize, nodes: usize, seed: u64) -> Vec<(String, Vec<String>)> {
    (0..docs)
        .map(|d| {
            let doc = generate(&DocGenConfig {
                kind: DocKind::Catalog,
                target_nodes: nodes,
                seed: seed + d as u64,
                id_attributes: false,
            });
            let mut cur = XidDocument::assign_initial(doc);
            let mut snaps = vec![cur.doc.to_xml()];
            for v in 1..versions {
                let step = seed ^ (d as u64 * 131 + v as u64);
                cur = simulate(&cur, &ChangeConfig::uniform(0.15, step)).new_version;
                snaps.push(cur.doc.to_xml());
            }
            (format!("doc-{d}"), snaps)
        })
        .collect()
}

/// Multi-producer, multi-worker ingestion over a small (backpressuring)
/// queue must reconstruct every stored version byte-for-byte identical to
/// a serial `Repository` ingesting the same snapshots.
#[test]
fn concurrent_ingestion_matches_serial_byte_for_byte() {
    let corpus = corpus(8, 5, 400, 2024);

    // Serial reference: one repository, versions loaded in order.
    let serial = Repository::new();
    for (key, versions) in &corpus {
        for xml in versions {
            serial.load_version(key, xml).unwrap();
        }
    }

    let server = Arc::new(IngestServer::start(
        ServeConfig::new()
            .with_workers(4)
            .unwrap()
            // Tiny on purpose: producers must hit backpressure.
            .with_queue_capacity(4)
            .unwrap()
            .with_shards(4)
            .unwrap(),
    ));

    // Four producer threads, each owning a disjoint slice of the documents
    // (per-key submission order must come from one thread).
    let corpus = Arc::new(corpus);
    let producers: Vec<_> = (0..4)
        .map(|p| {
            let server = Arc::clone(&server);
            let corpus = Arc::clone(&corpus);
            std::thread::spawn(move || {
                for (key, versions) in corpus.iter().skip(p).step_by(4) {
                    for xml in versions {
                        server.submit(key, xml.clone()).unwrap();
                    }
                }
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    server.wait_idle();

    for (key, versions) in corpus.iter() {
        let repo = server.repository_for(key);
        assert_eq!(repo.version_count(key), versions.len(), "{key}");
        for (v, snapshot) in versions.iter().enumerate() {
            let concurrent = repo.version_xml(key, v).unwrap();
            let reference = serial.version_xml(key, v).unwrap();
            assert_eq!(concurrent, reference, "{key} V({v}) diverged from serial ingestion");
            assert_eq!(&concurrent, snapshot, "{key} V({v}) diverged from the snapshot");
        }
    }

    let server = Arc::into_inner(server).expect("all producers joined");
    let report = server.shutdown();
    assert!(report.is_balanced(), "{report:?}");
    assert_eq!(report.succeeded, 8 * 5);
    assert_eq!(report.dead_lettered, 0);
}

/// Every subscription match is delivered exactly once: no notification is
/// lost in the worker pool and none is duplicated across workers.
#[test]
fn alerter_delivers_every_notification_exactly_once() {
    let mut alerter = Alerter::new();
    alerter.subscribe(
        Subscription::everything("new-products")
            .at_path(["catalog", "product"])
            .only(OpFilter::Insert),
    );
    let server = IngestServer::start(
        ServeConfig::new()
            .with_workers(4)
            .unwrap()
            .with_queue_capacity(8)
            .unwrap()
            .with_shards(4)
            .unwrap()
            .with_alerter(alerter),
    );

    // Each version of each document appends exactly one uniquely-labeled
    // product, so version v of any document fires exactly one insert alert.
    let docs = 6;
    let versions = 5;
    for v in 0..versions {
        for d in 0..docs {
            let products: String =
                (0..=v).map(|i| format!("<product>p{d}-{i}</product>")).collect();
            let xml = format!("<catalog>{products}</catalog>");
            server.submit(&format!("doc-{d}"), xml).unwrap();
        }
    }

    let report = server.shutdown();
    assert!(report.is_balanced(), "{report:?}");
    assert_eq!(report.succeeded as usize, docs * versions);

    // V(0) runs no diff, so each document alerts once per later version.
    let expected = docs * (versions - 1);
    assert_eq!(report.notifications.len(), expected, "lost or duplicated notifications");
    assert_eq!(report.alerts_fired as usize, expected);
    let unique: HashSet<(String, String)> = report
        .notifications
        .iter()
        .map(|n| (n.doc_key.clone(), n.snippet.clone()))
        .collect();
    assert_eq!(unique.len(), expected, "duplicate notifications: {:?}", report.notifications);
}

/// A corpus laced with malformed snapshots: the good work is stored, the
/// bad work is dead-lettered, and the shutdown accounting covers every
/// enqueued item.
#[test]
fn poison_corpus_is_dead_lettered_with_full_accounting() {
    let server = IngestServer::start(
        ServeConfig::new()
            .with_workers(3)
            .unwrap()
            .with_queue_capacity(8)
            .unwrap()
            .with_shards(2)
            .unwrap(),
    );

    let mut good = 0u64;
    let mut poison = 0u64;
    for v in 0..6 {
        server.submit("healthy", format!("<d><v>{v}</v></d>")).unwrap();
        good += 1;
        if v % 2 == 0 {
            // Malformed XML in the middle of another document's chain.
            server.submit("flaky", format!("<d><broken v{v}")).unwrap();
            poison += 1;
        } else {
            server.submit("flaky", format!("<d><v>{v}</v></d>")).unwrap();
            good += 1;
        }
    }
    server.wait_idle();

    // Good documents are fully stored; the poison versions are simply
    // missing from flaky's chain.
    assert_eq!(server.repository_for("healthy").version_count("healthy"), 6);
    assert_eq!(server.repository_for("flaky").version_count("flaky"), 3);

    let report = server.shutdown();
    assert!(report.is_balanced(), "{report:?}");
    assert_eq!(report.submitted, good + poison);
    assert_eq!(report.succeeded, good);
    assert_eq!(report.dead_lettered, poison);
    for dl in &report.dead_letters {
        assert_eq!(dl.key, "flaky", "unexpected dead letter: {dl:?}");
        assert!(dl.error.contains("parse error"), "{dl:?}");
    }
}

/// One hot key interleaved with cold keys over a pool larger than the key
/// count needs: the hot key's thirty versions (one malformed) must apply in
/// order while the cold keys run beside it. Every stored version is
/// byte-identical to a serial run over the same snapshots, and the poison
/// snapshot is dead-lettered exactly once.
#[test]
fn poison_in_a_hot_key_among_cold_keys_is_dead_lettered_exactly_once() {
    let cold = corpus(6, 4, 200, 77);
    let hot: Vec<String> = (0..30)
        .map(|v| if v == 13 { "<d><broken v13".to_string() } else { format!("<d><v>{v}</v></d>") })
        .collect();

    // Serial reference: the same snapshots, one key after another; the
    // malformed one is refused by the parser there too.
    let serial = Repository::new();
    for xml in &hot {
        let _ = serial.load_version("hot", xml);
    }
    for (key, versions) in &cold {
        for xml in versions {
            serial.load_version(key, xml).unwrap();
        }
    }

    let server = IngestServer::start(
        ServeConfig::new()
            .with_workers(4)
            .unwrap()
            .with_queue_capacity(64)
            .unwrap()
            .with_shards(2)
            .unwrap(),
    );
    // Five hot versions, then one version of one cold key, round and round:
    // the hot lane is never empty while the cold keys come and go.
    let mut cold_turns =
        (0..4).flat_map(|v| cold.iter().map(move |(key, versions)| (key, &versions[v])));
    for (v, xml) in hot.iter().enumerate() {
        server.submit("hot", xml.clone()).unwrap();
        if v % 5 == 4 {
            for (key, xml) in cold_turns.by_ref().take(4) {
                server.submit(key, xml.clone()).unwrap();
            }
        }
    }
    assert!(cold_turns.next().is_none(), "every cold snapshot was submitted");
    server.wait_idle();

    // The poison version is simply missing; everything after it applied.
    let keys = std::iter::once(("hot", 29)).chain(cold.iter().map(|(k, v)| (k.as_str(), v.len())));
    for (key, versions) in keys {
        let repo = server.repository_for(key);
        assert_eq!(repo.version_count(key), versions, "{key}");
        for v in 0..versions {
            assert_eq!(
                repo.version_xml(key, v).unwrap(),
                serial.version_xml(key, v).unwrap(),
                "{key} V({v}) diverged from serial ingestion"
            );
        }
    }

    let report = server.shutdown();
    assert!(report.is_balanced(), "{report:?}");
    assert_eq!(report.succeeded, 29 + 6 * 4);
    assert_eq!(report.dead_lettered, 1, "dead-lettered exactly once");
    assert_eq!(report.dead_letters.len(), 1);
    assert_eq!((report.dead_letters[0].key.as_str(), report.dead_letters[0].seq), ("hot", 13));
    assert!(report.dead_letters[0].error.contains("parse error"), "{:?}", report.dead_letters);
}

/// Two threads submitting the same key at once: the queue numbers the
/// snapshots in the order it accepted them and applies them in that order,
/// so every ack's `seq` is the index of the version it stored.
#[test]
fn concurrent_same_key_submitters_get_seqs_in_apply_order() {
    use std::sync::Barrier;
    let per_thread = 40;
    let server = IngestServer::start(
        ServeConfig::new()
            .with_workers(4)
            .unwrap()
            // Small on purpose: both submitters block on a full queue.
            .with_queue_capacity(2)
            .unwrap()
            .with_shards(2)
            .unwrap(),
    );
    let start = Barrier::new(2);
    let acks: Vec<(u64, usize, String)> = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..2)
            .map(|t| {
                let (server, start) = (&server, &start);
                scope.spawn(move || {
                    start.wait();
                    let tickets: Vec<_> = (0..per_thread)
                        .map(|i| {
                            let xml = format!("<d><t>{t}</t><i>{i}</i></d>");
                            (server.submit_tracked("shared", xml.clone()).unwrap(), xml)
                        })
                        .collect();
                    let acks: Vec<_> = tickets
                        .into_iter()
                        .map(|(ticket, xml)| {
                            let done = ticket.wait().expect("well-formed snapshots store");
                            (done.seq, done.version, xml)
                        })
                        .collect();
                    assert!(
                        acks.windows(2).all(|w| w[0].0 < w[1].0),
                        "thread {t}: one thread's submits are numbered in program order"
                    );
                    acks
                })
            })
            .collect();
        submitters.into_iter().flat_map(|s| s.join().unwrap()).collect()
    });

    let mut seqs: Vec<u64> = acks.iter().map(|a| a.0).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..2 * per_thread as u64).collect::<Vec<_>>(), "seqs are dense");
    let repo = server.repository_for("shared");
    for (seq, version, xml) in &acks {
        assert_eq!(*seq as usize, *version, "seq {seq} applied out of order");
        assert_eq!(&repo.version_xml("shared", *version).unwrap(), xml, "seq {seq}");
    }
    let report = server.shutdown();
    assert!(report.is_balanced(), "{report:?}");
}

/// Non-blocking submits racing the start of a drain: each one is answered
/// exactly once — by the `Err` return or by its callback, never both and
/// never neither — and the refused ones are dead-lettered.
#[test]
fn try_submit_racing_begin_drain_is_answered_exactly_once() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use xydiff_suite::xyserve::SubmitError;

    let threads = 3;
    let per_thread = 200;
    let server = IngestServer::start(
        ServeConfig::new().with_workers(2).unwrap().with_queue_capacity(8).unwrap(),
    );
    // One slot per submission: how often its callback ran.
    let called: Arc<Vec<AtomicUsize>> =
        Arc::new((0..threads * per_thread).map(|_| AtomicUsize::new(0)).collect());
    let accepted = AtomicUsize::new(0);
    let start = Barrier::new(threads + 1);
    let refused: Vec<Vec<bool>> = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..threads)
            .map(|t| {
                let (server, called, accepted, start) = (&server, &called, &accepted, &start);
                scope.spawn(move || {
                    start.wait();
                    (0..per_thread)
                        .map(|i| {
                            let slot = t * per_thread + i;
                            loop {
                                let called = Arc::clone(called);
                                let done = Box::new(move |_| {
                                    called[slot].fetch_add(1, Ordering::SeqCst);
                                });
                                match server.try_submit_with(&format!("k{t}"), "<d/>", done) {
                                    Ok(()) => {
                                        accepted.fetch_add(1, Ordering::SeqCst);
                                        return false;
                                    }
                                    Err(SubmitError::ShuttingDown) => return true,
                                    Err(SubmitError::QueueFull) => std::thread::yield_now(),
                                }
                            }
                        })
                        .collect()
                })
            })
            .collect();
        start.wait();
        // Close the door once the race is under way.
        while accepted.load(Ordering::SeqCst) < per_thread / 2 {
            std::thread::yield_now();
        }
        server.begin_drain();
        submitters.into_iter().map(|s| s.join().unwrap()).collect()
    });

    let report = server.shutdown();
    assert!(report.is_balanced(), "{report:?}");
    let refused: Vec<bool> = refused.into_iter().flatten().collect();
    let refusals = refused.iter().filter(|r| **r).count();
    assert!(refusals > 0 && refusals < refused.len(), "the drain must land mid-race: {refusals}");
    for (slot, was_refused) in refused.iter().enumerate() {
        let calls = called[slot].load(Ordering::SeqCst);
        assert_eq!(calls, usize::from(!was_refused), "submission {slot}: refused={was_refused}");
    }
    assert_eq!(report.dead_lettered as usize, refusals);
    assert!(report.dead_letters.iter().all(|d| d.error == "submitted during shutdown"));
}
