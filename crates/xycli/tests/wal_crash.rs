//! Kill-9 crash-recovery harness: the durability contract, end to end.
//!
//! Spawns the real `xydiff serve` binary with a WAL, hammers it with
//! `POST /ingest/{key}` from a client thread, and SIGKILLs the process
//! mid-stream — no drain, no warning. Every ingest the server *acked as
//! durable* before the kill must survive: a restarted server on the same
//! WAL directory serves every acked `(key, version)` byte-identically.
//! Un-acked in-flight requests may be lost (that is the contract). The
//! killed log must inspect healthy as it lies, its zero-filled room read as
//! the clean end of the log, and it must stay healthy once restarted.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xytree::Document;

/// A spawned `xydiff serve` child. Holding `stdin` open matters: the
/// server treats stdin EOF as a drain request, and this harness wants the
/// only shutdown paths to be SIGKILL or an explicit `/admin/shutdown`.
struct Server {
    child: Child,
    addr: SocketAddr,
    _stdin: ChildStdin,
}

fn xydiff() -> &'static str {
    env!("CARGO_BIN_EXE_xydiff")
}

fn spawn_server(wal_dir: &Path) -> Server {
    let mut child = Command::new(xydiff())
        .args(["serve", "--addr", "127.0.0.1:0", "--quiet", "--wal-dir"])
        .arg(wal_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xydiff serve");
    let stdin = child.stdin.take().expect("child stdin");
    let stderr = child.stderr.take().expect("child stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its address")
            .expect("read server stderr");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            let addr = rest.split_whitespace().next().expect("announced address");
            break addr.parse().expect("parse announced address");
        }
    };
    // Keep draining stderr so the child can never block on a full pipe.
    std::thread::spawn(move || for _ in lines.by_ref() {});
    Server { child, addr, _stdin: stdin }
}

/// One `Connection: close` HTTP exchange. Returns `None` on any socket
/// error — which the crash test treats as "not acked".
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    stream.set_write_timeout(Some(Duration::from_secs(10))).ok()?;
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(raw.as_bytes()).ok()?;
    stream.shutdown(std::net::Shutdown::Write).ok()?;
    let mut text = String::new();
    stream.read_to_string(&mut text).ok()?;
    let code: u16 = text.split(' ').nth(1)?.parse().ok()?;
    Some((code, text))
}

fn response_body(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or("")
}

/// Pull `"field":N` out of the ack JSON without a JSON parser.
fn json_u64(body: &str, field: &str) -> Option<u64> {
    let rest = body.split(&format!("\"{field}\":")).nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Run `xydiff wal inspect` on `dir`: whether it exited 0, and its report.
fn inspect(dir: &Path) -> (bool, String) {
    let out = Command::new(xydiff())
        .args(["wal", "inspect"])
        .arg(dir)
        .output()
        .expect("run wal inspect");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

fn tmp_wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("xydiff-wal-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The payload for `key` at logical sequence `n` — distinct text every
/// version so each ingest produces a real delta.
fn payload(key: &str, n: usize) -> String {
    format!(
        "<doc><key>{key}</key><n>{n}</n><body>{}</body></doc>",
        format!("{n:04}-").repeat(24),
    )
}

#[test]
fn kill_nine_loses_no_acked_ingests() {
    let wal_dir = tmp_wal_dir("kill9");
    let mut server = spawn_server(&wal_dir);
    let addr = server.addr;

    // Hammer the server from a client thread, recording every ingest the
    // server acked as durable: (key, assigned version, submitted xml).
    let acked: Arc<Mutex<Vec<(String, u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let acked = Arc::clone(&acked);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let keys = ["alpha", "beta", "gamma"];
            for n in 0.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let key = keys[n % keys.len()];
                let xml = payload(key, n);
                let Some((code, text)) = http(addr, "POST", &format!("/ingest/{key}"), &xml)
                else {
                    break; // the server was killed mid-request
                };
                let body = response_body(&text);
                if code == 200 && body.contains("\"durable\":true") {
                    let version = json_u64(body, "version").expect("ack carries a version");
                    acked.lock().unwrap().push((key.to_string(), version, xml));
                }
            }
        })
    };

    // Wait for a healthy pile of durable acks, then SIGKILL the server
    // while the hammer thread is still mid-stream.
    let deadline = Instant::now() + Duration::from_secs(60);
    while acked.lock().unwrap().len() < 25 {
        assert!(Instant::now() < deadline, "server never acked 25 ingests");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.child.kill().expect("SIGKILL the server");
    server.child.wait().expect("reap the killed server");
    stop.store(true, Ordering::Relaxed);
    hammer.join().expect("join hammer thread");

    let acked = Arc::try_unwrap(acked).expect("hammer thread is done").into_inner().unwrap();
    assert!(acked.len() >= 25, "expected at least 25 durable acks, got {}", acked.len());

    // The killed writer never closed its segment, so the zeros it filled
    // ahead of itself are still there: the log reads as ending cleanly
    // after its last record, with no torn tail to repair.
    let (healthy, stdout) = inspect(&wal_dir);
    assert!(healthy, "wal inspect after SIGKILL:\n{stdout}");
    assert!(!stdout.contains("TORN TAIL"), "unexpected torn tail:\n{stdout}");

    // Restart on the same WAL directory: replay must resurrect every
    // acked version, byte-identical to the canonical form of what the
    // client submitted.
    let mut server = spawn_server(&wal_dir);
    for (key, version, xml) in &acked {
        let (code, text) = http(server.addr, "GET", &format!("/doc/{key}/{version}"), "")
            .expect("readback request");
        assert_eq!(code, 200, "acked {key} v{version} lost after crash: {text}");
        let expected = Document::parse(xml).expect("payload parses").to_xml();
        assert_eq!(
            response_body(&text),
            expected,
            "acked {key} v{version} not byte-identical after replay",
        );
    }

    // The recovered server keeps ingesting on the same chains.
    let (key0, last_version, _) = acked.iter().rfind(|(k, ..)| k == "alpha").expect("alpha acked");
    let xml = payload(key0, 999_999);
    let (code, text) =
        http(server.addr, "POST", &format!("/ingest/{key0}"), &xml).expect("post-crash ingest");
    assert_eq!(code, 200, "post-crash ingest failed: {text}");
    let version = json_u64(response_body(&text), "version").expect("ack carries a version");
    assert!(version > *last_version, "post-crash ingest must extend the chain");

    // Clean drain, then the log must be healthy: `Wal::open` repaired any
    // tail the kill tore.
    let (code, _) = http(server.addr, "POST", "/admin/shutdown", "").expect("request drain");
    assert_eq!(code, 202, "drain must be accepted");
    let status = server.child.wait().expect("wait for drained server");
    assert!(status.success(), "drained server must exit cleanly: {status:?}");

    let (healthy, stdout) = inspect(&wal_dir);
    assert!(healthy, "wal inspect found an unhealthy log after recovery:\n{stdout}");
    assert!(stdout.contains("status    ok"), "unexpected inspect report:\n{stdout}");
    assert!(!stdout.contains("preallocated"), "a drained log ends at its last record:\n{stdout}");

    let _ = std::fs::remove_dir_all(&wal_dir);
}
