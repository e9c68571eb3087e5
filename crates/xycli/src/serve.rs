//! `xydiff serve` — run the HTTP ingestion server.
//!
//! Binds the `xynet` network front over an `xyserve` pipeline and blocks
//! until a drain is requested: `POST /admin/shutdown`, or EOF on stdin
//! (`Ctrl-D`, or the supervisor closing the pipe — the portable stand-in
//! for signal handling in a `forbid(unsafe_code)` workspace). Shutdown is
//! loss-free: every accepted snapshot resolves before the process exits,
//! and with `--wal-dir` every acknowledged version is in the log and is
//! replayed on the next start.
//!
//! Exit codes: 0 clean drain, 2 usage/startup error.

use crate::usage;
use std::process::ExitCode;
use std::time::Duration;
use xydiff::MatchMode;
use xynet::{NetConfig, NetServer};
use xyserve::{ServeConfig, WalPolicy, WalSync};

pub(crate) fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut net = NetConfig::new().with_addr("127.0.0.1:8080");
    let mut serve = ServeConfig::new();
    let mut wal_dir = None;
    let mut wal_sync = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                let v = it.next().ok_or("--addr needs a value (e.g. 127.0.0.1:8080)")?;
                net = net.with_addr(v.clone());
            }
            "--workers" => {
                serve = serve
                    .with_workers(flag_value(&mut it, "--workers")?)
                    .map_err(|e| e.to_string())?;
            }
            "--queue" => {
                serve = serve
                    .with_queue_capacity(flag_value(&mut it, "--queue")?)
                    .map_err(|e| e.to_string())?;
            }
            "--shards" => {
                serve = serve
                    .with_shards(flag_value(&mut it, "--shards")?)
                    .map_err(|e| e.to_string())?;
            }
            "--diff-threads" => {
                serve = serve
                    .with_diff_threads(flag_value(&mut it, "--diff-threads")?)
                    .map_err(|e| e.to_string())?;
            }
            "--max-body" => net = net.with_max_body_bytes(flag_value(&mut it, "--max-body")?),
            "--idle-timeout" => {
                let secs = flag_value(&mut it, "--idle-timeout")? as u64;
                net = net.with_idle_timeout(Duration::from_secs(secs));
            }
            "--max-conns" => {
                net = net.with_max_connections(flag_value(&mut it, "--max-conns")?);
            }
            "--shed-conns" => {
                net = net.with_shed_connections(flag_value(&mut it, "--shed-conns")?);
            }
            "--read-budget" => {
                net = net.with_read_budget(flag_value(&mut it, "--read-budget")?);
            }
            "--write-budget" => {
                net = net.with_write_budget(flag_value(&mut it, "--write-budget")?);
            }
            "--mode" => {
                let v = it.next().ok_or("--mode needs a value (buld|unordered|similarity)")?;
                serve =
                    serve.with_mode(v.parse::<MatchMode>().map_err(|e| format!("--mode: {e}"))?);
            }
            "--wal-dir" => {
                let v = it.next().ok_or("--wal-dir needs a directory")?;
                wal_dir = Some(v.clone());
            }
            "--wal-sync" => {
                let v = it.next().ok_or("--wal-sync needs a mode (always | none)")?;
                wal_sync = Some(
                    WalSync::parse(v)
                        .ok_or_else(|| format!("--wal-sync must be always or none, got {v:?}"))?,
                );
            }
            "--compact-chain-max" => {
                serve = serve.with_compact_chain_max(flag_value(&mut it, "--compact-chain-max")?);
            }
            "--quiet" => quiet = true,
            other => return Err(format!("unknown flag {other:?} for serve\n{}", usage())),
        }
    }
    if let Some(dir) = wal_dir {
        let mut policy = WalPolicy::new(dir);
        if let Some(sync) = wal_sync {
            policy = policy.with_sync(sync);
        }
        serve = serve.with_wal(policy);
    } else if wal_sync.is_some() {
        return Err("--wal-sync needs --wal-dir".to_string());
    }

    let effective = serve.effective();
    let server = NetServer::start(net, serve).map_err(|e| e.to_string())?;
    eprintln!(
        "xydiff serve: listening on http://{} ({} reactor)",
        server.local_addr(),
        server.backend(),
    );
    eprintln!("xydiff serve: {effective}");
    eprintln!("xydiff serve: POST /admin/shutdown (or close stdin) to drain");

    // Wake the waiter when stdin reaches EOF. The thread is deliberately
    // not joined: if the drain came over HTTP instead, it stays parked in
    // `read_line` and the process exit reaps it.
    let stdin_watch = {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        std::thread::spawn(move || {
            let mut line = String::new();
            loop {
                line.clear();
                match std::io::stdin().read_line(&mut line) {
                    Ok(0) | Err(_) => break, // EOF or a broken pipe
                    Ok(_) => {}
                }
            }
            let _ = tx.send(());
        });
        rx
    };

    loop {
        if server.wait_for_shutdown_request(Duration::from_millis(200)) {
            break;
        }
        if stdin_watch.try_recv().is_ok() {
            server.request_shutdown();
            break;
        }
    }

    eprintln!("xydiff serve: draining…");
    let report = server.shutdown();
    eprintln!(
        "xydiff serve: served {} requests on {} connections; {} snapshots stored, {} dead-lettered",
        report.requests,
        report.connections,
        report.ingest.succeeded,
        report.ingest.dead_lettered,
    );
    if !report.ingest.is_balanced() {
        return Err("shutdown accounting is unbalanced (bug)".to_string());
    }
    if !quiet {
        print!("{}", report.ingest.metrics_text);
    }
    Ok(ExitCode::SUCCESS)
}

fn flag_value<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<usize, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<usize>().map_err(|_| format!("{flag} needs a positive integer, got {v:?}"))
}
