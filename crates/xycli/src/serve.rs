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

use crate::pipeline::{flag_value, PipelineFlags};
use crate::usage;
use std::process::ExitCode;
use std::time::Duration;
use xynet::{NetConfig, NetServer};

pub(crate) fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut net = NetConfig::new().with_addr("127.0.0.1:8080");
    let mut pipeline = PipelineFlags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if pipeline.accept(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--addr" => {
                let v = it.next().ok_or("--addr needs a value (e.g. 127.0.0.1:8080)")?;
                net = net.with_addr(v.clone());
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
            other => return Err(format!("unknown flag {other:?} for serve\n{}", usage())),
        }
    }
    let quiet = pipeline.quiet;
    let serve = pipeline.into_config()?;

    let banner = serve.to_string();
    let server = NetServer::start(net, serve).map_err(|e| e.to_string())?;
    eprintln!("xydiff serve: listening on http://{}", server.local_addr());
    eprintln!("xydiff serve: {banner}");
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
