//! The server under test as a child process, observed only from outside:
//! its CLI flags, its stderr banner, its sockets, and `/proc/<pid>`.

use crate::http::Conn;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Clients (and server workers): one process generates all load, with at
/// most one client thread per core, capped at four.
pub fn client_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4)
}

/// Durability flags of one workload's server.
#[derive(Debug, Clone)]
pub enum WalMode {
    /// No `--wal-dir`: acks are not durable.
    Off,
    /// `--wal-dir DIR --wal-sync always`.
    Always(PathBuf),
    /// `--wal-dir DIR --wal-sync none`.
    NoSync(PathBuf),
}

/// The fixed server configuration every workload runs under, plus the
/// per-workload flags.
pub fn serve_args(workers: usize, wal: &WalMode, compact_chain_max: usize) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--shards",
        "8",
        "--queue",
        "128",
        "--diff-threads",
        "1",
        "--mode",
        "buld",
        "--quiet",
        "--workers",
    ]
    .map(String::from)
    .to_vec();
    args.push(workers.to_string());
    match wal {
        WalMode::Off => {}
        WalMode::Always(dir) | WalMode::NoSync(dir) => {
            let sync = if matches!(wal, WalMode::Always(_)) {
                "always"
            } else {
                "none"
            };
            args.extend(["--wal-dir".to_string(), dir.display().to_string()]);
            args.extend(["--wal-sync".to_string(), sync.to_string()]);
        }
    }
    if compact_chain_max > 0 {
        args.extend([
            "--compact-chain-max".to_string(),
            compact_chain_max.to_string(),
        ]);
    }
    args
}

/// CPU and memory of a process as `/proc` reports them.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcUsage {
    /// utime + stime, seconds.
    pub cpu_s: f64,
    /// `VmHWM`: the resident-set high-water mark, bytes.
    pub peak_rss_bytes: u64,
}

/// Kernel clock ticks per second. `USER_HZ` is 100 on every Linux ABI this
/// repository builds for; reading it properly needs `sysconf`, which needs
/// libc, which this offline build does not have.
const USER_HZ: f64 = 100.0;

/// utime + stime of `pid` (all threads, living and dead), in seconds.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// One `kB` field of `/proc/<pid>/status`, in bytes.
pub fn status_bytes(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

pub fn usage(pid: u32) -> Option<ProcUsage> {
    Some(ProcUsage {
        cpu_s: cpu_seconds(pid)?,
        peak_rss_bytes: status_bytes(pid, "VmHWM:")?,
    })
}

/// A running `xydiff serve`. Dropping it kills and reaps the child and
/// joins the stderr drain, so no process or thread outlives the benchmark.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn → first `200` from `/healthz` (includes WAL recovery).
    pub ready_after: Duration,
    // Held open: the server treats stdin EOF as a drain request.
    _stdin: ChildStdin,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stderr = child.stderr.take().expect("stderr was piped");
        let mut lines = BufReader::new(stderr).lines();
        let mut seen = String::new();
        let announced = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.split("listening on http://").nth(1) {
                        let addr = rest.split_whitespace().next().unwrap_or("");
                        break addr
                            .parse::<SocketAddr>()
                            .map_err(|e| format!("{addr:?}: {e}"));
                    }
                    seen.push_str(&line);
                    seen.push('\n');
                }
                _ => break Err(format!("server exited before listening:\n{seen}")),
            }
        };
        // Keep draining stderr so the child can never block on a full pipe.
        let drain = std::thread::spawn(move || for _ in lines.by_ref() {});
        // From here on the child is owned by a `Server`, so every error path
        // below kills and reaps it on drop.
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ready_after: Duration::ZERO,
            _stdin: stdin,
            drain: Some(drain),
        };
        server.addr = announced?;
        let (healthy, _) = Conn::connect(server.addr)
            .and_then(|mut c| c.get("/healthz"))
            .map_err(|e| format!("healthz: {e}"))?;
        if healthy.status != 200 {
            return Err(format!("healthz answered {}", healthy.status));
        }
        server.ready_after = started.elapsed();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn usage(&self) -> ProcUsage {
        usage(self.pid()).unwrap_or_default()
    }

    /// `GET /metrics`, raw.
    pub fn metrics_text(&self) -> Option<String> {
        let (response, _) = Conn::connect(self.addr).ok()?.get("/metrics").ok()?;
        (response.status == 200).then(|| String::from_utf8_lossy(&response.body).into_owned())
    }

    /// SIGKILL and reap: the crash the `recover` workload recovers from, and
    /// the cheapest way to end every other run (nothing is drained).
    pub fn kill(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
