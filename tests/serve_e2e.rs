//! End-to-end exercise of the full network stack: concurrent HTTP clients
//! ingest versioned corpora over loopback TCP, every stored version is
//! served back byte-identical, the metrics balance, and a restart from the
//! write-ahead log serves the same documents.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use xydiff_suite::xydelta::XidDocument;
use xydiff_suite::xynet::{NetConfig, NetServer};
use xydiff_suite::xydiff::{DiffOptions, MatchMode};
use xydiff_suite::xyserve::{ServeConfig, WalPolicy};
use xydiff_suite::xysim::{generate, simulate, ChangeConfig, DocGenConfig, DocKind};

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

/// One request with `Connection: close`; returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(raw.as_bytes()).expect("write");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read");
    let status: u16 = text.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// POST one snapshot, retrying briefly on backpressure `503`s.
fn post_snapshot(addr: SocketAddr, key: &str, xml: &str) -> (u16, String) {
    for _ in 0..200 {
        let (status, body) = request(addr, "POST", &format!("/ingest/{key}"), xml);
        if status != 503 {
            return (status, body);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("{key}: backpressure never cleared");
}

/// Every client drives its own keys over its own connections; afterwards
/// every version of every document must be served back byte-identical and
/// the exposition must balance with what the clients saw.
#[test]
fn concurrent_http_clients_ingest_and_read_back_byte_identical() {
    let corpus = Arc::new(corpus(6, 4, 300, 77));
    let server = NetServer::start(
        NetConfig::new(),
        ServeConfig::new()
            .with_workers(3)
            .unwrap()
            .with_queue_capacity(8)
            .unwrap(),
    )
    .expect("start");
    let addr = server.local_addr();

    let clients: Vec<_> = (0..3)
        .map(|c| {
            let corpus = Arc::clone(&corpus);
            std::thread::spawn(move || {
                // Disjoint keys per client; versions of one key in order.
                for (key, versions) in corpus.iter().skip(c).step_by(3) {
                    for (v, xml) in versions.iter().enumerate() {
                        let (status, body) = post_snapshot(addr, key, xml);
                        assert_eq!(status, 200, "{key} v{v}: {body}");
                        assert!(body.contains(&format!("\"version\":{v}")), "{key}: {body}");
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    // Read every version back over HTTP: byte-identical to what was posted.
    for (key, versions) in corpus.iter() {
        for (v, xml) in versions.iter().enumerate() {
            let (status, body) = request(addr, "GET", &format!("/doc/{key}/{v}"), "");
            assert_eq!(status, 200, "{key} v{v}");
            assert_eq!(&body, xml, "{key} v{v} diverged over the wire");
        }
    }

    // The exposition agrees with what the clients observed.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains("ingest_succeeded_total 24"), "{metrics}");
    assert!(metrics.contains("ingest_dead_lettered_total 0"), "{metrics}");
    assert!(metrics.contains("http_requests_total{route=\"ingest\"}"), "{metrics}");

    // Drain over HTTP and account for everything.
    let (status, _) = request(addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 202);
    assert!(server.wait_for_shutdown_request(Duration::from_secs(5)));
    let report = server.shutdown();
    assert!(report.ingest.is_balanced(), "{report:?}");
    assert_eq!(report.ingest.succeeded, 24);
    assert_eq!(report.ingest.dead_lettered, 0);
}

/// The current value of a single-series metric family in an exposition.
fn metric_value(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find(|l| !l.starts_with('#') && l.starts_with(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{metrics}"))
}

/// One hot key among cold keys over HTTP: one client posts the hot key's
/// versions back to back while four others post the cold documents. Every
/// version must read back byte-identical.
#[test]
fn hot_key_among_cold_keys_reads_back_byte_identical() {
    let corpus = corpus(4, 3, 200, 55);
    let server = NetServer::start(
        NetConfig::new(),
        ServeConfig::new()
            .with_workers(4)
            .unwrap()
            .with_queue_capacity(32)
            .unwrap(),
    )
    .expect("start");
    let addr = server.local_addr();

    // Imbalanced on purpose: the hot key gets many versions.
    let hot: Vec<String> = (0..8).map(|v| format!("<d><v>{v}</v></d>")).collect();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for (v, xml) in hot.iter().enumerate() {
                let (status, body) = post_snapshot(addr, "hot", xml);
                assert_eq!(status, 200, "hot v{v}: {body}");
            }
        });
        for (key, versions) in &corpus {
            scope.spawn(move || {
                for xml in versions {
                    assert_eq!(post_snapshot(addr, key, xml).0, 200);
                }
            });
        }
    });

    for (v, xml) in hot.iter().enumerate() {
        let (status, body) = request(addr, "GET", &format!("/doc/hot/{v}"), "");
        assert_eq!(status, 200, "hot v{v}");
        assert_eq!(&body, xml, "hot v{v} diverged over the wire");
    }
    for (key, versions) in &corpus {
        for (v, xml) in versions.iter().enumerate() {
            let (status, body) = request(addr, "GET", &format!("/doc/{key}/{v}"), "");
            assert_eq!(status, 200, "{key} v{v}");
            assert_eq!(&body, xml, "{key} v{v} diverged over the wire");
        }
    }

    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(metric_value(&metrics, "ingest_succeeded_total "), (8 + 4 * 3) as f64, "{metrics}");
    assert!(metric_value(&metrics, "ingest_queue_depth_high_water ") >= 1.0, "{metrics}");

    let report = server.shutdown();
    assert!(report.ingest.is_balanced(), "{report:?}");
    assert_eq!(report.ingest.succeeded as usize, 8 + 4 * 3);
    assert_eq!(report.ingest.dead_lettered, 0);
}

fn tmp_root(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("xynet-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Drain a server that logged every ingest, then boot a fresh one from the
/// same directory under a different matcher: it must serve
/// the same versions and continue the chains where the first instance
/// stopped.
#[test]
fn restart_from_the_log_serves_the_same_versions() {
    let dir = tmp_root("restart");
    let corpus = corpus(3, 3, 200, 91);
    let serve = |mode: MatchMode| {
        ServeConfig::new()
            .with_workers(2)
            .unwrap()
            .with_diff_options(DiffOptions { mode, ..DiffOptions::default() })
            .with_wal(WalPolicy::new(&dir))
    };

    let first = NetServer::start(NetConfig::new(), serve(MatchMode::Buld)).expect("first start");
    let addr = first.local_addr();
    for (key, versions) in &corpus {
        for xml in versions {
            assert_eq!(post_snapshot(addr, key, xml).0, 200);
        }
    }
    let report = first.shutdown();
    assert!(report.ingest.is_balanced());
    assert_eq!(report.ingest.succeeded, 9);

    // Second instance: different matcher, same log.
    let second =
        NetServer::start(NetConfig::new(), serve(MatchMode::Unordered)).expect("second start");
    let addr = second.local_addr();
    for (key, versions) in &corpus {
        for (v, xml) in versions.iter().enumerate() {
            let (status, body) = request(addr, "GET", &format!("/doc/{key}/{v}"), "");
            assert_eq!(status, 200, "{key} v{v} lost across restart");
            assert_eq!(&body, xml, "{key} v{v} diverged across restart");
        }
    }
    // Chains continue where the first instance stopped.
    let (status, body) = request(addr, "POST", "/ingest/doc-0", &corpus[0].1[0]);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"version\":3"), "restored chain must continue: {body}");

    let report = second.shutdown();
    assert!(report.ingest.is_balanced());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Segment files in a log directory.
fn segment_files(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".wal"))
        .count()
}

/// A live `/metrics` scrape reads the write-ahead log's counters and the
/// queue's high water from their owners: after N acked durable ingests it
/// reports N appends and N fsynced records while the server still runs,
/// and a restarted server's first scrape, before any ingest, reports the
/// segments it replayed.
#[test]
fn live_scrape_reads_the_log_and_the_queue() {
    let dir = tmp_root("live-scrape");
    let mut policy = WalPolicy::new(&dir);
    // Small segments, so the log rolls and the segment count is not 1.
    policy.segment_bytes = 1024;
    let serve = || ServeConfig::new().with_workers(2).unwrap().with_wal(policy.clone());
    let corpus = corpus(3, 4, 60, 23);

    let first = NetServer::start(NetConfig::new(), serve()).expect("first start");
    let addr = first.local_addr();
    let mut acked = 0;
    for (key, versions) in &corpus {
        for xml in versions {
            let (status, body) = post_snapshot(addr, key, xml);
            assert_eq!(status, 200, "{key}: {body}");
            assert!(body.contains("\"durable\":true"), "{key}: {body}");
            acked += 1;
        }
        // Mid-run: every ack so far is counted, none twice.
        let (status, metrics) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert_eq!(metric_value(&metrics, "ingest_wal_appends_total "), acked as f64, "{metrics}");
        assert_eq!(
            metric_value(&metrics, "ingest_wal_fsynced_records_total "),
            acked as f64,
            "{metrics}"
        );
        assert!(metric_value(&metrics, "ingest_wal_segments ") >= 1.0, "{metrics}");
        assert!(metric_value(&metrics, "ingest_queue_depth_high_water ") >= 1.0, "{metrics}");
    }
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let segments = segment_files(&dir);
    assert!(segments > 1, "the log must have rolled: {segments} segment(s)");
    assert_eq!(metric_value(&metrics, "ingest_wal_segments "), segments as f64, "{metrics}");
    let report = first.shutdown();
    assert!(report.ingest.is_balanced(), "{report:?}");
    assert_eq!(report.ingest.succeeded as usize, acked);

    let second = NetServer::start(NetConfig::new(), serve()).expect("second start");
    let (status, metrics) = request(second.local_addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(metric_value(&metrics, "ingest_wal_replayed_total "), acked as f64, "{metrics}");
    assert_eq!(metric_value(&metrics, "ingest_wal_segments "), segments as f64, "{metrics}");
    assert_eq!(metric_value(&metrics, "ingest_wal_appends_total "), 0.0, "{metrics}");
    let report = second.shutdown();
    assert!(report.ingest.is_balanced());
    let _ = std::fs::remove_dir_all(&dir);
}
