//! End-to-end tests of the `xydiff` binary: real process, real files, real
//! exit codes.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_xydiff")
}

fn tmp(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xycli-test-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    fs::write(&p, content).unwrap();
    p
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).to_string()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).to_string()
}

#[test]
fn diff_patch_revert_roundtrip_via_files() {
    let old = tmp("rt-old.xml", "<a><p>one</p><q/></a>");
    let new = tmp("rt-new.xml", "<a><q/><p>two</p></a>");
    let d = run(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert_eq!(d.status.code(), Some(1), "differing docs exit 1");
    let delta_path = tmp("rt-delta.xml", &stdout(&d));

    // `patch` emits the new version annotated with its persistent ids.
    let patched = run(&["patch", old.to_str().unwrap(), delta_path.to_str().unwrap()]);
    assert_eq!(patched.status.code(), Some(0), "{}", stderr(&patched));
    let annotated = stdout(&patched);
    assert!(annotated.starts_with("<?xydiff-xidmap ("), "{annotated}");
    assert!(annotated.contains("<a><q/><p>two</p></a>"));

    // `--plain` strips the annotation.
    let plain = run(&["patch", "--plain", old.to_str().unwrap(), delta_path.to_str().unwrap()]);
    assert_eq!(stdout(&plain).trim(), "<a><q/><p>two</p></a>");

    // `revert` on the annotated output restores the old version.
    let new_annotated = tmp("rt-new-annotated.xml", &annotated);
    let reverted = run(&["revert", "--plain", new_annotated.to_str().unwrap(), delta_path.to_str().unwrap()]);
    assert_eq!(reverted.status.code(), Some(0), "{}", stderr(&reverted));
    assert_eq!(stdout(&reverted).trim(), "<a><p>one</p><q/></a>");
}

#[test]
fn revert_without_annotation_gives_actionable_error() {
    let old = tmp("na-old.xml", "<a><p>one</p></a>");
    let new = tmp("na-new.xml", "<a><p>two</p><r/></a>");
    let d = run(&["diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    let delta_path = tmp("na-delta.xml", &stdout(&d));
    // Reverting against the *plain* new document: identifiers are lost, the
    // error must say so and point at the annotated workflow.
    let reverted = run(&["revert", new.to_str().unwrap(), delta_path.to_str().unwrap()]);
    assert_eq!(reverted.status.code(), Some(2));
    assert!(stderr(&reverted).contains("xidmap"), "{}", stderr(&reverted));
}

#[test]
fn annotated_chain_diffs_continue_across_processes() {
    // v0 --diff--> v1 --diff--> v2, where the v1 used for the second diff is
    // the *annotated* patch output: XIDs stay persistent across processes.
    let v0 = tmp("ch-v0.xml", "<log><e>a</e></log>");
    let v1 = tmp("ch-v1.xml", "<log><e>a</e><e>b</e></log>");
    let d01 = tmp("ch-d01.xml", &stdout(&run(&["diff", v0.to_str().unwrap(), v1.to_str().unwrap()])));
    let v1_annotated = tmp(
        "ch-v1-annotated.xml",
        &stdout(&run(&["patch", v0.to_str().unwrap(), d01.to_str().unwrap()])),
    );
    let v2 = tmp("ch-v2.xml", "<log><e>b</e></log>");
    let d12 = run(&["diff", "--stats", v1_annotated.to_str().unwrap(), v2.to_str().unwrap()]);
    assert_eq!(d12.status.code(), Some(1));
    assert!(stderr(&d12).contains("1 delete"), "{}", stderr(&d12));
}

#[test]
fn identical_documents_exit_zero_with_empty_delta() {
    let a = tmp("same-a.xml", "<x><y>1</y></x>");
    let b = tmp("same-b.xml", "<x><y>1</y></x>");
    let d = run(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(d.status.code(), Some(0));
    assert_eq!(stdout(&d).trim(), "<delta/>");
}

#[test]
fn quiet_and_stats_flags() {
    let a = tmp("qs-a.xml", "<x><y>1</y></x>");
    let b = tmp("qs-b.xml", "<x><y>2</y></x>");
    let d = run(&["diff", "--quiet", "--stats", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(d.status.code(), Some(1));
    assert_eq!(stdout(&d), "", "--quiet suppresses the delta");
    assert!(stderr(&d).contains("1 update"), "{}", stderr(&d));
}

#[test]
fn mode_flag_selects_the_matcher() {
    // A pure child permutation: the unordered matcher pairs the rows by
    // content and patches back to the new version, same as BULD.
    let a = tmp("mode-a.xml", "<t><r><c>one</c><k>1</k></r><r><c>two</c><k>2</k></r></t>");
    let b = tmp("mode-b.xml", "<t><r><c>two</c><k>2</k></r><r><c>one</c><k>1</k></r></t>");
    for mode in ["buld", "unordered", "similarity"] {
        let d = run(&["diff", "--mode", mode, a.to_str().unwrap(), b.to_str().unwrap()]);
        assert_eq!(d.status.code(), Some(1), "mode {mode}: {}", stderr(&d));
        let delta_path = tmp(&format!("mode-{mode}-delta.xml"), &stdout(&d));
        let patched =
            run(&["patch", "--plain", a.to_str().unwrap(), delta_path.to_str().unwrap()]);
        assert_eq!(
            stdout(&patched).trim(),
            "<t><r><c>two</c><k>2</k></r><r><c>one</c><k>1</k></r></t>",
            "mode {mode}: {}",
            stderr(&patched)
        );
    }
    let bad = run(&["diff", "--mode", "bogus", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(stderr(&bad).contains("unknown match mode"), "{}", stderr(&bad));
}

#[test]
fn pretty_output_reparses() {
    let a = tmp("pp-a.xml", "<x><gone><g/></gone></x>");
    let b = tmp("pp-b.xml", "<x/>");
    let d = run(&["diff", "--pretty", a.to_str().unwrap(), b.to_str().unwrap()]);
    let pretty = stdout(&d);
    assert!(pretty.contains("\n  <delete"), "{pretty}");
    let delta_path = tmp("pp-delta.xml", &pretty);
    let patched = run(&["patch", "--plain", a.to_str().unwrap(), delta_path.to_str().unwrap()]);
    assert_eq!(stdout(&patched).trim(), "<x/>", "{}", stderr(&patched));
}

#[test]
fn query_command() {
    let doc = tmp(
        "q.xml",
        "<cat><item id='a'><price>$5</price></item><item id='b'><price>$9</price></item></cat>",
    );
    let out = run(&["query", doc.to_str().unwrap(), "//item[@id='b']/price/text()"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout(&out).trim(), "$9");
    let none = run(&["query", doc.to_str().unwrap(), "//missing"]);
    assert_eq!(none.status.code(), Some(1), "no matches exit 1");
}

#[test]
fn htmlize_command() {
    let page = tmp("h.html", "<ul><li>a<li>b</ul>");
    let out = run(&["htmlize", page.to_str().unwrap()]);
    assert_eq!(stdout(&out).trim(), "<ul><li>a</li><li>b</li></ul>");
}

#[test]
fn html_pages_diff_through_the_cli() {
    // The §1 workflow end to end: htmlize both pages, then diff the XML.
    let p1 = tmp("page1.html", "<ul><li>camera<li>phone</ul>");
    let p2 = tmp("page2.html", "<ul><li>camera<li>tablet<li>phone</ul>");
    let x1 = tmp("page1.xml", &stdout(&run(&["htmlize", p1.to_str().unwrap()])));
    let x2 = tmp("page2.xml", &stdout(&run(&["htmlize", p2.to_str().unwrap()])));
    let d = run(&["diff", "--stats", x1.to_str().unwrap(), x2.to_str().unwrap()]);
    assert_eq!(d.status.code(), Some(1));
    assert!(stderr(&d).contains("1 insert"), "{}", stderr(&d));
}

#[test]
fn error_paths_exit_two() {
    let bad = run(&["diff", "/nonexistent-a.xml", "/nonexistent-b.xml"]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(stderr(&bad).contains("reading"));

    let malformed = tmp("bad.xml", "<a><b></a>");
    let good = tmp("good.xml", "<a/>");
    let out = run(&["diff", malformed.to_str().unwrap(), good.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("mismatched close tag"), "{}", stderr(&out));

    let nocmd = run(&["frobnicate"]);
    assert_eq!(nocmd.status.code(), Some(2));
    assert!(stderr(&nocmd).contains("usage"));

    let noargs = run(&[]);
    assert_eq!(noargs.status.code(), Some(2));

    let badflag = run(&["diff", "--bogus", "a", "b"]);
    assert_eq!(badflag.status.code(), Some(2));
    assert!(stderr(&badflag).contains("--bogus"));
}

/// `serve` and `ingest` share one parser for the pipeline flags: a missing
/// or malformed value, or one a `ServeConfig` builder rejects, is refused by
/// both with the same message, before the server binds a port or the corpus
/// is scanned.
#[test]
fn pipeline_flags_reject_bad_values_identically_in_serve_and_ingest() {
    let cases: &[(&[&str], &str)] = &[
        (&["--workers"], "--workers needs a value"),
        (&["--workers", "many"], "--workers needs a positive integer, got \"many\""),
        (&["--workers", "0"], "workers must be at least 1"),
        (&["--queue"], "--queue needs a value"),
        (&["--queue", "-1"], "--queue needs a positive integer, got \"-1\""),
        (&["--queue", "0"], "queue capacity must be at least 1"),
        (&["--shards"], "--shards needs a value"),
        (&["--shards", "3"], "shards = 3 is retired: only its former default is accepted"),
        (&["--shards", "4"], "shards = 4 is retired: only its former default is accepted"),
        // 8 is accepted: the parse goes on to the next flag's refusal.
        (&["--shards", "8", "--wal-sync", "none"], "--wal-sync needs --wal-dir"),
        (&["--diff-threads"], "--diff-threads needs a value"),
        (&["--diff-threads", "1e3"], "--diff-threads needs a positive integer, got \"1e3\""),
        (&["--diff-threads", "0"], "diff_threads = 0 is retired: only its former default"),
        (&["--diff-threads", "2"], "diff_threads = 2 is retired: only its former default"),
        (&["--diff-threads", "2000"], "diff_threads = 2000 is retired: only its former default"),
        (&["--compact-chain-max"], "--compact-chain-max needs a value"),
        (&["--compact-chain-max", "x"], "--compact-chain-max needs a positive integer, got \"x\""),
        (&["--mode"], "--mode needs a value (buld|unordered|similarity)"),
        (&["--mode", "fuzzy"], "--mode: "),
        (&["--wal-dir"], "--wal-dir needs a directory"),
        (&["--wal-sync"], "--wal-sync needs a mode (always | none)"),
        (&["--wal-sync", "sometimes"], "--wal-sync must be always or none, got \"sometimes\""),
        (&["--wal-sync", "none"], "--wal-sync needs --wal-dir"),
    ];
    for (flags, want) in cases {
        let messages = ["serve", "ingest"].map(|command| {
            let out = run(&[&[command], *flags].concat());
            assert_eq!(out.status.code(), Some(2), "{command} {flags:?}: {}", stderr(&out));
            stderr(&out)
        });
        assert_eq!(messages[0], messages[1], "{flags:?}");
        assert!(messages[0].starts_with(&format!("xydiff: {want}")), "{flags:?}: {}", messages[0]);
    }
}

#[test]
fn help_exits_zero() {
    let h = run(&["--help"]);
    assert_eq!(h.status.code(), Some(0));
    assert!(stdout(&h).contains("usage"));
}

#[test]
fn stdin_input() {
    use std::io::Write;
    use std::process::Stdio;
    let doc = tmp("stdin-doc.xml", "<a><p>x</p></a>");
    let mut child = Command::new(bin())
        .args(["query", "-", "//p/text()"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(fs::read(&doc).unwrap().as_slice())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "x");
}

#[test]
fn store_workflow_end_to_end() {
    let dir = std::env::temp_dir().join(format!("xycli-store-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = dir.to_str().unwrap();
    let v0 = tmp("st-v0.xml", "<cat><p><price>$10</price></p></cat>");
    let v1 = tmp("st-v1.xml", "<cat><p><price>$12</price></p></cat>");
    let v2 = tmp("st-v2.xml", "<cat><p><price>$12</price></p><q/></cat>");

    for (i, f) in [&v0, &v1, &v2].iter().enumerate() {
        let out = run(&["store", store, "load", "cameras.xml", f.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0), "load {i}: {}", stderr(&out));
        assert!(stderr(&out).contains(&format!("stored cameras.xml v{i}")), "{}", stderr(&out));
    }

    // Latest and past versions print exactly.
    let latest = run(&["store", store, "get", "cameras.xml"]);
    assert_eq!(stdout(&latest).trim(), "<cat><p><price>$12</price></p><q/></cat>");
    let past = run(&["store", store, "get", "cameras.xml", "0"]);
    assert_eq!(stdout(&past).trim(), "<cat><p><price>$10</price></p></cat>");

    // History summarizes the deltas.
    let hist = run(&["store", store, "history", "cameras.xml"]);
    let h = stdout(&hist);
    assert!(h.contains("v0: initial version"), "{h}");
    assert!(h.contains("v1: 1 ops"), "{h}");
    assert!(h.contains("v2: 1 ops"), "{h}");

    // Aggregated changes across the whole range.
    let ch = run(&["store", store, "changes", "cameras.xml", "0", "2"]);
    let c = stdout(&ch);
    assert!(c.contains("<update"), "{c}");
    assert!(c.contains("<insert"), "{c}");

    // Key listing.
    let keys = run(&["store", store, "keys"]);
    assert_eq!(stdout(&keys).trim(), "cameras.xml (3 versions)");

    // Error paths.
    let bad = run(&["store", store, "get", "nope.xml"]);
    assert_eq!(bad.status.code(), Some(2));
    let bad = run(&["store", store, "changes", "cameras.xml", "2", "9"]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(stderr(&bad).contains("out of bounds"));
    let bad = run(&["store", store, "frob"]);
    assert_eq!(bad.status.code(), Some(2));
    let _ = fs::remove_dir_all(&dir);
}

/// `ingest --workers --wal-dir` followed by `wal inspect`: the WAL the
/// concurrent zero-copy ingest pipeline writes — every delta crossed the
/// `into_owned()` materialization boundary before logging — must parse,
/// pass the static validator, and report a healthy log.
#[test]
fn ingest_writes_inspectable_wal() {
    let dir = std::env::temp_dir().join(format!("xycli-ingest-wal-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let corpus = dir.join("corpus");
    let wal = dir.join("wal");
    for (key, versions) in [
        ("alpha", ["<d><a>1</a></d>", "<d><a>2</a><b>new</b></d>", "<d><b>new</b></d>"]),
        ("beta", ["<d><x/></d>", "<d><x/><y p=\"q\">t</y></d>", "<d><y p=\"q\">t</y><z/></d>"]),
    ] {
        let kd = corpus.join(key);
        fs::create_dir_all(&kd).unwrap();
        for (i, xml) in versions.into_iter().enumerate() {
            fs::write(kd.join(format!("v{i}.xml")), xml).unwrap();
        }
    }

    let wal_s = wal.to_str().unwrap();
    let ingest = run(&[
        "ingest",
        "--workers",
        "4",
        "--wal-dir",
        wal_s,
        "--quiet",
        corpus.to_str().unwrap(),
    ]);
    assert!(
        ingest.status.success(),
        "ingest failed: {}{}",
        stdout(&ingest),
        stderr(&ingest)
    );
    assert!(stderr(&ingest).contains("6 stored"), "{}", stderr(&ingest));

    let inspect = run(&["wal", "inspect", wal_s]);
    let out = stdout(&inspect);
    assert!(inspect.status.success(), "wal inspect unhealthy:\n{out}{}", stderr(&inspect));
    assert!(out.contains("status    ok"), "{out}");
    // 2 Init records + 4 zero-copy deltas, all payload-verified.
    assert!(out.contains("records   6 across 2 keys"), "{out}");
    for key in ["alpha", "beta"] {
        assert!(out.contains(key), "missing {key} chain in report:\n{out}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The CLI store and the server's log are one format: versions written by
/// an `IngestServer` are read back by `xydiff store`, versions written by
/// `store load` land in the same chain, and the history is not bounded by
/// a file-name width — 10 050 versions of one key survive a server restart
/// and come back through `store get`.
#[test]
fn store_reads_a_10_050_version_server_log() {
    use xyserve::{IngestServer, ServeConfig, WalPolicy, WalSync};
    const VERSIONS: usize = 10_050;
    let dir = std::env::temp_dir().join(format!("xycli-store-long-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let doc = |v: usize| format!("<feed><tick>{v}</tick></feed>");
    let config = || {
        ServeConfig::new()
            .with_workers(2)
            .unwrap()
            // The clean shutdown below flushes the log once.
            .with_wal(WalPolicy::new(&dir).with_sync(WalSync::None))
    };

    let server = IngestServer::try_start(config()).unwrap();
    for v in 0..VERSIONS {
        server.submit("hot", doc(v)).unwrap();
    }
    let report = server.shutdown();
    assert!(report.is_balanced(), "{report:?}");
    assert_eq!(report.succeeded as usize, VERSIONS);

    let server = IngestServer::try_start(config()).unwrap();
    let repo = server.repository();
    assert_eq!(repo.version_count("hot"), VERSIONS);
    for v in [0, 999, 1000, 9999, 10_000, VERSIONS - 1] {
        assert_eq!(repo.version_xml("hot", v).unwrap(), doc(v), "version {v} after restart");
    }
    drop(server);

    let store = dir.to_str().unwrap();
    let last = run(&["store", store, "get", "hot", "10049"]);
    assert_eq!(last.status.code(), Some(0), "{}", stderr(&last));
    assert_eq!(stdout(&last).trim(), doc(VERSIONS - 1));
    let next = tmp("long-next.xml", &doc(VERSIONS));
    let load = run(&["store", store, "load", "hot", next.to_str().unwrap()]);
    assert!(stderr(&load).contains("stored hot v10050 (1 ops"), "{}", stderr(&load));
    let keys = run(&["store", store, "keys"]);
    assert_eq!(stdout(&keys).trim(), "hot (10051 versions)");
    let _ = fs::remove_dir_all(&dir);
}

/// Directories an earlier release wrote are refused loudly, never read as
/// if they were complete: the chain-directory store layout, and a log whose
/// first segments were deleted once a snapshot covered them.
#[test]
fn directories_from_the_old_formats_are_refused() {
    let dir = std::env::temp_dir().join(format!("xycli-old-formats-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let chains = dir.join("chains");
    fs::create_dir_all(chains.join("doc-00000")).unwrap();
    fs::write(chains.join("manifest.txt"), "doc-00000\n").unwrap();
    fs::write(chains.join("doc-00000/key.txt"), "k").unwrap();
    fs::write(chains.join("doc-00000/v0.xml"), "<a/>").unwrap();
    let v1 = tmp("old-v1.xml", "<a><b/></a>");
    for args in [
        vec!["store", chains.to_str().unwrap(), "get", "k"],
        vec!["store", chains.to_str().unwrap(), "load", "k", v1.to_str().unwrap()],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("chain-directory store (manifest.txt"), "{}", stderr(&out));
    }
    assert!(!chains.join("seg-00000001.wal").exists(), "a refused store is left untouched");

    // A segment whose header says its first record is LSN 41.
    let log = dir.join("log");
    fs::create_dir_all(&log).unwrap();
    let mut header = b"XYWALOG1".to_vec();
    header.extend_from_slice(&41u64.to_le_bytes());
    fs::write(log.join("seg-00000003.wal"), header).unwrap();
    fs::write(log.join("WATERMARK"), "40\n").unwrap();
    for args in [
        vec!["wal", "inspect", log.to_str().unwrap()],
        vec!["store", log.to_str().unwrap(), "keys"],
        vec!["serve", "--addr", "127.0.0.1:0", "--wal-dir", log.to_str().unwrap()],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("starts at lsn 41, not 1"), "{args:?}: {}", stderr(&out));
    }
    let _ = fs::remove_dir_all(&dir);
}
