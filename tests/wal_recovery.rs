//! Crash-point recovery properties over the write-ahead delta log.
//!
//! The durability contract says: whatever prefix of the log survives a
//! crash, `replay(empty warehouse, log prefix)` reconstructs a warehouse
//! byte-identical to the pre-crash reference truncated to that prefix.
//! The deterministic test sweeps *every* crash point — each record
//! boundary and several mid-record offsets — and the property test does
//! the same for random histories and random cut points. A third test
//! checks the last line of defence: a logged record whose frame checksum
//! holds but whose delta payload is semantically corrupt is rejected by
//! the static validator during replay, before it can reach a chain.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use xydiff_suite::xydelta::xml_io;
use xydiff_suite::xytree::Document;
use xydiff_suite::xywal::{Record, Wal, WalConfig};
use xydiff_suite::xywarehouse::{replay, ReplayError, Repository};

fn tmpdir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "xydiff-wal-recovery-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn canonical(xml: &str) -> String {
    Document::parse(xml).expect("test payload parses").to_xml()
}

/// The one segment file of a small log.
fn segment_path(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read wal dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
        .collect();
    assert_eq!(segs.len(), 1, "test log must fit one segment");
    segs.pop().expect("one segment")
}

/// Run `history` through a reference repository while logging each
/// completed version to a fresh WAL in `dir` — exactly the server's ack
/// path: `Init` with the canonical first version, then one `Delta` record
/// per ingest. Returns the reference and the segment length after each
/// append (= the record boundaries a crash can land between).
fn build_log(dir: &Path, history: &[(String, String)]) -> (Repository, Vec<u64>) {
    let reference = Repository::new();
    let (wal, recovery) = Wal::open(&WalConfig::new(dir)).expect("open fresh wal");
    assert_eq!(recovery.records.len(), 0, "fresh wal must be empty");
    let seg = segment_path(dir);
    let mut boundaries = Vec::new();
    for (key, xml) in history {
        let first = reference.version_count(key) == 0;
        let out = reference.load_version(key, xml).expect("reference ingest");
        let record = if first {
            Record::Init { key: key.clone(), xml: canonical(xml) }
        } else {
            Record::Delta {
                key: key.clone(),
                version: out.version as u64,
                delta_xml: xml_io::delta_to_xml(&out.delta),
            }
        };
        wal.append(&record).expect("append");
        boundaries.push(fs::metadata(&seg).expect("segment metadata").len());
    }
    (reference, boundaries)
}

/// Simulate a crash at byte offset `cut`: copy the segment into a fresh
/// directory, truncate it, and open the log there. Returns what recovery
/// handed back.
fn recover_at(seg: &Path, cut: u64, crash_dir: &Path) -> (Vec<(u64, Record)>, bool) {
    let dst = crash_dir.join(seg.file_name().expect("segment name"));
    fs::copy(seg, &dst).expect("copy segment");
    let file = fs::OpenOptions::new().write(true).open(&dst).expect("open copy");
    file.set_len(cut).expect("truncate copy");
    drop(file);
    let (_wal, recovery) = Wal::open(&WalConfig::new(crash_dir)).expect("open crashed wal");
    (recovery.records, recovery.torn)
}

/// Replay `records` into a fresh repository and demand byte-identical
/// agreement with the reference on every reconstructed version.
fn assert_prefix_replay(reference: &Repository, records: &[(u64, Record)]) {
    let shards = vec![Repository::new()];
    let stats = replay::apply_records(records, &shards, |_| 0).expect("replay clean prefix");
    assert_eq!(stats.total(), records.len());
    assert_eq!(stats.skipped, 0, "no snapshot, so nothing may be skipped");

    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, record) in records {
        *counts.entry(record.key()).or_default() += 1;
    }
    let repo = &shards[0];
    assert_eq!(repo.doc_count(), counts.len());
    for (key, versions) in counts {
        assert_eq!(repo.version_count(key), versions, "key {key:?}");
        for v in 0..versions {
            assert_eq!(
                repo.version_xml(key, v).expect("replayed version"),
                reference.version_xml(key, v).expect("reference version"),
                "key {key:?} version {v} must be byte-identical after replay",
            );
        }
    }
}

/// Open the log in `dir`, replay it into a fresh repository, and demand
/// that it holds exactly `history` (in LSN order), every version
/// byte-identical to the snapshot that produced it.
fn assert_log_replays_history(dir: &Path, history: &[(String, String)]) {
    let (_wal, recovery) = Wal::open(&WalConfig::new(dir)).expect("open log");
    assert!(!recovery.torn, "log must be a clean segment");
    assert_eq!(recovery.records.len(), history.len());
    let shards = vec![Repository::new()];
    let stats = replay::apply_records(&recovery.records, &shards, |_| 0).expect("replay log");
    assert_eq!(stats.total(), history.len());
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for (key, xml) in history {
        let v = *seen.entry(key.as_str()).and_modify(|v| *v += 1).or_insert(0);
        assert_eq!(
            shards[0].version_xml(key, v).expect("replayed version"),
            canonical(xml),
            "key {key:?} version {v}",
        );
    }
}

/// A small three-key history with enough shape variety that every delta
/// carries inserts, deletes and updates.
fn fixed_history() -> Vec<(String, String)> {
    let keys = ["alpha", "beta", "gamma"];
    let mut history = Vec::new();
    for round in 0..4 {
        for (k, key) in keys.iter().enumerate() {
            let items: String = (0..=round + k)
                .map(|i| format!("<item id=\"{i}\">r{round}-{}</item>", "pad".repeat(i + 1)))
                .collect();
            history.push((
                (*key).to_string(),
                format!("<doc round=\"{round}\"><list>{items}</list></doc>"),
            ));
        }
    }
    history
}

#[test]
fn every_crash_point_recovers_exactly_the_acked_prefix() {
    let dir = tmpdir("sweep");
    let history = fixed_history();
    let (reference, boundaries) = build_log(&dir, &history);
    let seg = segment_path(&dir);
    const HEADER: u64 = 16;

    // Crash points: before/inside the header, at the bare header, at every
    // record boundary, and twice inside every record.
    let mut cuts: Vec<u64> = vec![0, 1, HEADER - 1, HEADER];
    let mut prev = HEADER;
    for &b in &boundaries {
        cuts.extend([prev + 1, prev + (b - prev) / 2, b]);
        prev = b;
    }

    for cut in cuts {
        let crash_dir = tmpdir("sweep-cut");
        let (records, torn) = recover_at(&seg, cut, &crash_dir);
        let expected = boundaries.iter().filter(|&&b| b <= cut).count();
        assert_eq!(
            records.len(),
            expected,
            "cut at byte {cut} must recover exactly the {expected} fully-written records",
        );
        let clean = cut == HEADER || boundaries.contains(&cut);
        assert_eq!(torn, !clean, "cut at byte {cut}: torn must mean mid-record");
        assert_prefix_replay(&reference, &records);
        let _ = fs::remove_dir_all(&crash_dir);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_logged_delta_is_rejected_before_reaching_the_chain() {
    let dir = tmpdir("corrupt");
    let history: Vec<(String, String)> = vec![
        ("doc".into(), "<doc><a>one</a></doc>".into()),
        ("doc".into(), "<doc><a>two</a><b/></doc>".into()),
    ];
    let (reference, _) = build_log(&dir, &history);
    // A frame-valid record whose payload is semantically corrupt: the
    // update's XID and value cannot belong to any chain state.
    {
        let (wal, _) = Wal::open(&WalConfig::new(&dir)).expect("reopen wal");
        wal.append(&Record::Delta {
            key: "doc".into(),
            version: 2,
            delta_xml: "<delta><update xid=\"99\" old=\"x\" new=\"y\"/></delta>".into(),
        })
        .expect("append corrupt payload");
    }

    let (_wal, recovery) = Wal::open(&WalConfig::new(&dir)).expect("open for replay");
    assert_eq!(recovery.records.len(), 3, "checksums hold, so all frames survive");
    assert!(!recovery.torn);

    let shards = vec![Repository::new()];
    let err = replay::apply_records(&recovery.records, &shards, |_| 0)
        .expect_err("corrupt payload must fail replay");
    assert!(
        matches!(
            err,
            ReplayError::Parse { .. } | ReplayError::Invalid { .. } | ReplayError::Apply { .. }
        ),
        "got {err:?}",
    );
    // The valid prefix was applied; the corrupt record never reached the
    // chain, and what did apply is still byte-identical to the reference.
    let repo = &shards[0];
    assert_eq!(repo.version_count("doc"), 2);
    for v in 0..2 {
        assert_eq!(
            repo.version_xml("doc", v).expect("replayed"),
            reference.version_xml("doc", v).expect("reference"),
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random histories, random crash offsets: the recovered record count
    /// is exactly the number of fully-persisted appends, and replaying
    /// them reconstructs the reference prefix byte-for-byte.
    #[test]
    fn replay_matches_reference_at_random_crash_points(
        ops in proptest::collection::vec(
            (0usize..3, proptest::collection::vec("[a-z]{1,6}", 1..5)),
            1..10,
        ),
        cut_permille in 0u64..=1000,
    ) {
        let history: Vec<(String, String)> = ops
            .iter()
            .map(|(k, words)| {
                let items: String =
                    words.iter().map(|w| format!("<i>{w}</i>")).collect();
                (format!("k{k}"), format!("<doc>{items}</doc>"))
            })
            .collect();
        let dir = tmpdir("prop");
        let (reference, boundaries) = build_log(&dir, &history);
        let seg = segment_path(&dir);
        let last = *boundaries.last().expect("at least one record");
        let cut = 16 + (last - 16) * cut_permille / 1000;

        let crash_dir = tmpdir("prop-cut");
        let (records, _) = recover_at(&seg, cut, &crash_dir);
        prop_assert_eq!(
            records.len(),
            boundaries.iter().filter(|&&b| b <= cut).count(),
        );
        assert_prefix_replay(&reference, &records);
        let _ = fs::remove_dir_all(&crash_dir);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Run `history` through a bare `Differ` with the given capture mode,
/// logging Init + Delta records exactly like the server's ack path, and
/// return the raw segment bytes. With `CaptureMode::Borrowed` every delta
/// crosses the `into_owned()` boundary before serialization — the path
/// the warehouse uses in production since the zero-copy capture landed.
fn log_with_capture(
    dir: &Path,
    history: &[(String, String)],
    capture: xydiff_suite::xydelta::CaptureMode,
) -> Vec<u8> {
    use xydiff_suite::xydelta::{PayloadSource, XidDocument};
    use xydiff_suite::xydiff::Differ;

    let (wal, recovery) = Wal::open(&WalConfig::new(dir)).expect("open fresh wal");
    assert!(recovery.records.is_empty(), "fresh wal must be empty");
    let mut current: BTreeMap<String, (XidDocument, u64)> = BTreeMap::new();
    let mut differ = Differ::new().with_capture(capture);
    for (key, xml) in history {
        match current.get_mut(key) {
            None => {
                let doc = Document::parse(xml).expect("history parses");
                wal.append(&Record::Init { key: key.clone(), xml: doc.to_xml() })
                    .expect("append init");
                current.insert(key.clone(), (XidDocument::assign_initial(doc), 0));
            }
            Some((old, version)) => {
                let new = Document::parse(xml).expect("history parses");
                let result = differ.diff_consume(old, new);
                let delta = {
                    let src = PayloadSource {
                        old: &old.doc.tree,
                        new: &result.new_version.doc.tree,
                    };
                    result.delta.into_owned(&src)
                };
                xydiff_suite::xydelta::verify(&delta).expect("materialized delta verifies");
                *version += 1;
                wal.append(&Record::Delta {
                    key: key.clone(),
                    version: *version,
                    delta_xml: xml_io::delta_to_xml(&delta),
                })
                .expect("append delta");
                *old = result.new_version;
            }
        }
    }
    fs::read(segment_path(dir)).expect("read segment")
}

/// The durable format must not notice the zero-copy capture: a WAL
/// segment whose deltas came from arena-borrowed payloads materialized at
/// the `into_owned()` boundary is bit-identical to one logged from owned
/// captures, and it replays into the full history.
#[test]
fn zero_copy_deltas_log_bit_identically_and_replay() {
    let history = fixed_history();
    let owned_dir = tmpdir("owned-capture");
    let borrowed_dir = tmpdir("borrowed-capture");
    let owned = log_with_capture(&owned_dir, &history, xydiff_suite::xydelta::CaptureMode::Owned);
    let borrowed =
        log_with_capture(&borrowed_dir, &history, xydiff_suite::xydelta::CaptureMode::Borrowed);
    assert_eq!(
        owned, borrowed,
        "zero-copy capture must be invisible in the durable segment bytes"
    );

    assert_log_replays_history(&borrowed_dir, &history);
    let _ = fs::remove_dir_all(&owned_dir);
    let _ = fs::remove_dir_all(&borrowed_dir);
}

/// Backward compatibility: a segment written by the pre-zero-copy code
/// (checked in under `tests/fixtures/wal-v1/`) still opens, passes every
/// frame checksum, and replays into the exact `fixed_history()` state on
/// the current code.
#[test]
fn v1_fixture_segment_replays_on_current_code() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/wal-v1/seg-00000001.wal");
    let dir = tmpdir("fixture");
    fs::copy(&fixture, dir.join(fixture.file_name().expect("fixture name")))
        .expect("copy checked-in fixture");

    assert_log_replays_history(&dir, &fixed_history());
    let _ = fs::remove_dir_all(&dir);
}

/// "No format change", across versions. `tests/fixtures/wal-dom-codec/` is a
/// corpus (`corpus/<key>/v<N>.xml`) and the log `xydiff ingest --workers 1`
/// wrote for it at the last commit whose delta codec went through a delta
/// document (PR 16, before deltas owned one arena). Its deltas cover every
/// operation kind, entity-bearing text and attribute values, comment and PI
/// payloads, an XID-map with gaps, and `<?xy-sep?>` boundaries in a delete
/// and an insert. This code must write the same bytes for the same input,
/// under either capture mode, and replay the old log into every version.
#[test]
fn log_written_before_the_delta_arena_is_rewritten_and_replayed_bit_identically() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wal-dom-codec");
    let read = |path: PathBuf| fs::read_to_string(&path).expect("read fixture file");
    let keys = ["alpha", "beta", "gamma"];
    // Submission order of `xydiff ingest`: version i of every key before
    // version i + 1 of any.
    let mut history = Vec::new();
    for v in 0..4 {
        for key in keys {
            let path = fixture.join(format!("corpus/{key}/v{v}.xml"));
            if path.is_file() {
                history.push((key.to_string(), read(path)));
            }
        }
    }
    assert_eq!(history.len(), 11, "4 + 4 + 3 snapshots");
    let logged = fs::read(fixture.join("seg-00000001.wal")).expect("read fixture segment");

    for capture in [
        xydiff_suite::xydelta::CaptureMode::Owned,
        xydiff_suite::xydelta::CaptureMode::Borrowed,
    ] {
        let dir = tmpdir("dom-codec-rewrite");
        assert!(
            log_with_capture(&dir, &history, capture) == logged,
            "{capture:?} capture: the segment written today differs from the fixture's"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    let dir = tmpdir("dom-codec-replay");
    fs::write(dir.join("seg-00000001.wal"), &logged).expect("copy checked-in fixture");
    assert_log_replays_history(&dir, &history);
    let _ = fs::remove_dir_all(&dir);
}
