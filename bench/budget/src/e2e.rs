//! The end-to-end driver: the four workloads, run against a real
//! `xydiff serve` child over loopback HTTP, every output checked.
//!
//! Nothing here links a product crate: the server is reached through its
//! command line, its sockets and `/proc`. Load comes from this one process,
//! `C = min(cores, 4)` closed-loop keep-alive clients — closed because a
//! crawler connection waits for its durable ack before it sends the next
//! snapshot. Request counts are fixed by `--seconds` before the run starts
//! (a size, not a deadline), so two builds of the server do identical work.

use crate::child::{self, client_count, serve_args, ProcUsage, Server, WalMode};
use crate::corpus::{key, Corpus, Shape, Slot};
use crate::http::{parse_ack, Conn};
use crate::prom::Scrape;
use crate::stats::{fnv64, median, mix_seed, summarize, SplitMix, Summary};
use std::net::SocketAddr;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, in the order they run.
pub const WORKLOADS: [&str; 4] = ["crawl-small", "crawl-large", "hot-history", "recover"];

pub const CRAWL_SMALL: Shape = Shape {
    docs: 300,
    target_nodes: 110,
    nominal_bytes: 3_000,
    versions: 40,
    rate: 0.04,
};
pub const CRAWL_LARGE: Shape = Shape {
    docs: 48,
    target_nodes: 4000,
    nominal_bytes: 100_000,
    versions: 16,
    rate: 0.01,
};
/// `hot-history` keys; the version count is preload + timed, see [`Sizes`].
pub const HOT_HISTORY: Shape = Shape {
    docs: 16,
    target_nodes: 110,
    nominal_bytes: 3_000,
    versions: 0,
    rate: 0.02,
};

/// Reads per write on `hot-history`.
const READS_PER_WRITE: usize = 8;
/// `(key, version)` pairs read back after an ingest run, beside every key's
/// latest version.
const READBACK_SAMPLE: usize = 200;

/// Checkpoint spacing of the `hot-history` server.
pub const HOT_COMPACT_CHAIN_MAX: usize = 64;

/// Request counts for a run of `--seconds S`: per second asked, the number
/// of requests the first baseline completed in a second on the 2-core
/// sandbox, so a run takes about `S` seconds there. The counts depend on
/// `S` alone — never on how fast the server turns out to be.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `crawl-small` ingests (whole version rows of 300).
    pub crawl_small: usize,
    /// `crawl-large` ingests (whole version rows of 48).
    pub crawl_large: usize,
    /// `hot-history` versions per key loaded in set-up.
    pub hot_preload: usize,
    /// `hot-history` versions per key written (with 8 reads each) while timed.
    pub hot_timed: usize,
    /// `recover` log length in versions (whole rows of 300).
    pub recover_log: usize,
    /// `recover` cold restarts.
    pub recover_restarts: usize,
}

impl Sizes {
    pub fn for_seconds(seconds: usize) -> Sizes {
        let s = seconds.max(1);
        let rows = |per_second: usize, docs: usize| (per_second * s).div_ceil(docs).max(2) * docs;
        Sizes {
            crawl_small: rows(1800, CRAWL_SMALL.docs),
            crawl_large: rows(307, CRAWL_LARGE.docs),
            hot_preload: 600,
            hot_timed: (45 * s / 2).max(2),
            recover_log: rows(810, CRAWL_SMALL.docs),
            recover_restarts: (9 * s / 20).max(3),
        }
    }
}

/// Everything one end-to-end run measured. `None` marks a metric the
/// workload has no operation for.
#[derive(Debug, Default)]
pub struct E2e {
    pub clients: usize,
    pub fingerprint: u64,
    pub corpus_bytes: u64,
    pub setup_s: f64,
    pub setup_reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub ingest_docs_per_s: Option<f64>,
    pub ack: Option<Summary>,
    pub read_docs_per_s: Option<f64>,
    pub read: Option<Summary>,
    pub recover_versions_per_s: Option<f64>,
    pub restarts: usize,
    /// The workload's primary operations per second, and their median
    /// latency: acked ingests on `crawl-*`, reads (and, in the rate, the
    /// writes beside them) on `hot-history`, recovered versions and the
    /// reads that follow a restart on `recover`.
    pub ops_per_s: f64,
    pub op: Summary,
    pub cpu_ms_per_op: f64,
    pub peak_rss_mb: f64,
    pub wal_bytes_per_doc_byte: Option<f64>,
    /// Generator CPU seconds per wall second of the timed section.
    pub loadgen_cpu_share: f64,
    /// Server CPU seconds per wall second of the timed section.
    pub server_cpu_share: f64,
    /// `GET /metrics` of the server at the end of the timed section.
    pub scrape: Option<Scrape>,
}

impl E2e {
    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The run is void when the generator, not the server, was the busier
    /// process: the numbers would describe this file, not the product.
    pub fn generator_bound(&self) -> bool {
        self.loadgen_cpu_share > self.server_cpu_share
    }
}

/// Where a run finds the server binary and may write.
#[derive(Debug, Clone)]
pub struct Env {
    pub server_bin: PathBuf,
    pub work_dir: PathBuf,
}

impl Env {
    /// A fresh, empty directory under the work dir.
    pub fn scratch(&self, name: &str) -> PathBuf {
        let dir = self.work_dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work directory");
        dir
    }
}

pub fn run(workload: &str, seed: u64, sizes: &Sizes, env: &Env) -> Result<E2e, String> {
    let out = match workload {
        "crawl-small" => crawl(CRAWL_SMALL, sizes.crawl_small, seed, env),
        "crawl-large" => crawl(CRAWL_LARGE, sizes.crawl_large, seed, env),
        "hot-history" => hot_history(seed, sizes, env),
        "recover" => recover(seed, sizes, env),
        other => Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    };
    let _ = std::fs::remove_dir_all(&env.work_dir);
    out
}

// ------------------------------------------------------------ primitives

/// Failures and attempts of one phase, merged across clients.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Length and FNV-64 of a snapshot: what a read is checked against.
type Digest = (usize, u64);

fn digest(xml: &str) -> Digest {
    (xml.len(), fnv64(xml.as_bytes()))
}

/// What one phase of requests did, merged across clients.
#[derive(Debug, Default)]
struct Phase {
    tally: Tally,
    ack_ms: Vec<f64>,
    read_ms: Vec<f64>,
    body_bytes: u64,
    wall_s: f64,
    /// CPU seconds the server and this process spent over the phase.
    server_cpu_s: f64,
    own_cpu_s: f64,
}

/// Reads interleaved with the writes of a phase (`hot-history`).
struct ReadMix<'a> {
    per_write: usize,
    /// Readable versions per key: `0..versions`.
    versions: usize,
    digests: &'a [Vec<Digest>],
    seed: u64,
}

fn own_cpu_seconds() -> f64 {
    child::cpu_seconds(std::process::id()).unwrap_or(0.0)
}

/// Send requests `range` of the corpus stream from `clients` closed-loop
/// connections; client `c` owns the documents `d ≡ c (mod clients)`, so each
/// key's versions arrive in order without any coordination.
fn ingest_phase(
    server: &Server,
    corpus: &Corpus,
    range: Range<usize>,
    clients: usize,
    durable: bool,
    reads: Option<&ReadMix<'_>>,
) -> Phase {
    let addr = server.addr;
    let (own_before, server_before) = (own_cpu_seconds(), server.usage().cpu_s);
    let started = Instant::now();
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let range = range.clone();
                scope.spawn(move || client(addr, corpus, range, c, clients, durable, reads))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut phase = Phase {
        wall_s: started.elapsed().as_secs_f64(),
        server_cpu_s: server.usage().cpu_s - server_before,
        own_cpu_s: own_cpu_seconds() - own_before,
        ..Phase::default()
    };
    for part in parts {
        phase.tally.add(part.tally);
        phase.ack_ms.extend(part.ack_ms);
        phase.read_ms.extend(part.read_ms);
        phase.body_bytes += part.body_bytes;
    }
    phase
}

fn client(
    addr: SocketAddr,
    corpus: &Corpus,
    range: Range<usize>,
    me: usize,
    clients: usize,
    durable: bool,
    reads: Option<&ReadMix<'_>>,
) -> Phase {
    let mut phase = Phase::default();
    let mine: Vec<Slot> = range
        .map(|i| corpus.slot(i))
        .filter(|s| s.doc % clients == me)
        .collect();
    let per_slot = 1 + reads.map_or(0, |r| r.per_write) as u64;
    let mut rng = SplitMix::new(mix_seed(&[reads.map_or(0, |r| r.seed), me as u64]));
    let Ok(mut conn) = Conn::connect(addr) else {
        phase.tally = Tally {
            attempted: mine.len() as u64 * per_slot,
            failed: mine.len() as u64 * per_slot,
        };
        return phase;
    };
    for (done, slot) in mine.iter().enumerate() {
        let body = corpus.body(*slot);
        match conn.post(
            &format!("/ingest/{}", key(slot.doc, slot.epoch)),
            body.as_bytes(),
        ) {
            Ok((response, took)) => {
                let ack = parse_ack(&response.body);
                let ok = response.status == 200
                    && ack.is_some_and(|a| a.version == slot.version && a.durable == durable);
                phase.tally.check(ok);
                phase.ack_ms.push(took.as_secs_f64() * 1e3);
                phase.body_bytes += body.len() as u64;
            }
            Err(_) => {
                // The connection is gone: everything still owed on it failed.
                let owed = (mine.len() - done) as u64 * per_slot;
                phase.tally.add(Tally {
                    attempted: owed,
                    failed: owed,
                });
                return phase;
            }
        }
        let Some(mix) = reads else { continue };
        for _ in 0..mix.per_write {
            let (d, v) = (rng.below(corpus.docs()), rng.below(mix.versions));
            match conn.get(&format!("/doc/{}/{v}", key(d, 0))) {
                Ok((response, took)) => {
                    let ok = response.status == 200
                        && (response.body.len(), fnv64(&response.body)) == mix.digests[d][v];
                    phase.tally.check(ok);
                    phase.read_ms.push(took.as_secs_f64() * 1e3);
                }
                Err(_) => phase.tally.check(false),
            }
        }
    }
    phase
}

/// Every key's latest version, then `sample` seeded `(key, version)` pairs,
/// must read back byte-identical to what was sent. `rows` is the number of
/// whole version rows that were ingested. Returns the tally and the sampled
/// reads' latencies (ms): those are uniform over the stored versions on
/// every seed, where the latest-version reads are all zero-hop.
fn readback(
    addr: SocketAddr,
    corpus: &Corpus,
    rows: usize,
    sample: usize,
    seed: u64,
) -> (Tally, Vec<f64>) {
    let (mut tally, mut sampled_ms) = (Tally::default(), Vec::with_capacity(sample));
    let Ok(mut conn) = Conn::connect(addr) else {
        tally.check(false);
        return (tally, sampled_ms);
    };
    let versions = corpus.versions();
    // Versions stored for the keys of epoch `e`.
    let stored = |e: usize| rows.saturating_sub(e * versions).min(versions);
    let epochs = rows.div_ceil(versions);
    let mut expect = |path: String, d: usize, v: usize, latest: bool| match conn.get(&path) {
        Ok((response, took)) => {
            let ok = response.status == 200
                && (!latest || response.version == Some(v))
                && response.body == corpus.snapshots[d][v].as_bytes();
            tally.check(ok);
            if !latest {
                sampled_ms.push(took.as_secs_f64() * 1e3);
            }
        }
        Err(_) => tally.check(false),
    };
    for e in 0..epochs {
        for d in 0..corpus.docs() {
            // No version in the path: the server picks the latest and names
            // it in `X-Version`, which also checks the version count.
            expect(format!("/doc/{}", key(d, e)), d, stored(e) - 1, true);
        }
    }
    let mut rng = SplitMix::new(mix_seed(&[seed, 0x5ead]));
    for _ in 0..sample {
        let (e, d) = (rng.below(epochs), rng.below(corpus.docs()));
        let v = rng.below(stored(e));
        expect(format!("/doc/{}/{v}", key(d, e)), d, v, false);
    }
    (tally, sampled_ms)
}

fn mb(usage: ProcUsage) -> f64 {
    usage.peak_rss_bytes as f64 / (1024.0 * 1024.0)
}

fn scrape(server: &Server) -> Option<Scrape> {
    server.metrics_text().map(|text| Scrape::parse(&text))
}

fn per_second(count: usize, seconds: f64) -> f64 {
    count as f64 / seconds.max(1e-9)
}

/// Run `once` `reps` times, keep the last product, report the median time.
fn timed_setup<T>(
    reps: usize,
    mut once: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take()); // end the previous server before the next starts
        let t = Instant::now();
        last = Some(once()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let product = last.ok_or("setup must run at least once")?;
    Ok((product, median(&mut times).expect("reps >= 1")))
}

/// The fields every workload fills the same way.
fn common(corpus: &Corpus, setup: (f64, usize), tally: Tally, timed: &Phase) -> E2e {
    E2e {
        clients: client_count(),
        fingerprint: corpus.fingerprint,
        corpus_bytes: corpus.bytes,
        setup_s: setup.0,
        setup_reps: setup.1,
        attempted: tally.attempted,
        failed: tally.failed,
        loadgen_cpu_share: timed.own_cpu_s / timed.wall_s.max(1e-9),
        server_cpu_share: timed.server_cpu_s / timed.wall_s.max(1e-9),
        ..E2e::default()
    }
}

// ------------------------------------------------------------- workloads

/// `crawl-small` / `crawl-large`: `requests` durable ingests of a fresh
/// corpus, version-major, epoch after epoch; then the readback.
fn crawl(shape: Shape, requests: usize, seed: u64, env: &Env) -> Result<E2e, String> {
    const SETUP_REPS: usize = 3;
    let clients = client_count();
    let ((corpus, server, wal_dir), setup_s) = timed_setup(SETUP_REPS, || {
        let corpus = shape.generate(seed)?;
        let wal_dir = env.scratch("wal");
        let args = serve_args(clients, &WalMode::Always(wal_dir.clone()), 0);
        Ok((corpus, Server::spawn(&env.server_bin, &args)?, wal_dir))
    })?;
    let rows = requests / corpus.docs();
    let phase = ingest_phase(
        &server,
        &corpus,
        0..rows * corpus.docs(),
        clients,
        true,
        None,
    );
    let scrape = scrape(&server);
    let wal_bytes = child::dir_bytes(&wal_dir);
    let (checked, _) = readback(server.addr, &corpus, rows, READBACK_SAMPLE, seed);
    let peak_rss_mb = mb(server.usage());
    server.kill();
    let mut tally = phase.tally;
    tally.add(checked);
    let acked = phase.ack_ms.len();
    let ack = summarize(&phase.ack_ms);
    Ok(E2e {
        ingest_docs_per_s: Some(per_second(acked, phase.wall_s)),
        ack: Some(ack),
        ops_per_s: per_second(acked, phase.wall_s),
        op: ack,
        cpu_ms_per_op: phase.server_cpu_s * 1e3 / acked.max(1) as f64,
        peak_rss_mb,
        wal_bytes_per_doc_byte: Some(wal_bytes as f64 / phase.body_bytes.max(1) as f64),
        scrape,
        ..common(&corpus, (setup_s, SETUP_REPS), tally, &phase)
    })
}

/// `hot-history`: few keys, long chains, eight reads of old versions beside
/// every write, no WAL, background compaction every 64 versions.
fn hot_history(seed: u64, sizes: &Sizes, env: &Env) -> Result<E2e, String> {
    let clients = client_count();
    let shape = Shape {
        versions: sizes.hot_preload + sizes.hot_timed,
        ..HOT_HISTORY
    };
    let preload = shape.docs * sizes.hot_preload;
    // Set up once: the preload is seconds of server work, steady by its length.
    let ((corpus, digests, server, loaded), setup_s) = timed_setup(1, || {
        let corpus = shape.generate(seed)?;
        let digests: Vec<Vec<Digest>> = corpus
            .snapshots
            .iter()
            .map(|versions| {
                versions[..sizes.hot_preload]
                    .iter()
                    .map(|x| digest(x))
                    .collect()
            })
            .collect();
        let server = Server::spawn(
            &env.server_bin,
            &serve_args(clients, &WalMode::Off, HOT_COMPACT_CHAIN_MAX),
        )?;
        let loaded = ingest_phase(&server, &corpus, 0..preload, clients, false, None);
        Ok((corpus, digests, server, loaded))
    })?;
    let mix = ReadMix {
        per_write: READS_PER_WRITE,
        versions: sizes.hot_preload,
        digests: &digests,
        seed,
    };
    let phase = ingest_phase(
        &server,
        &corpus,
        preload..shape.docs * shape.versions,
        clients,
        false,
        Some(&mix),
    );
    let scrape = scrape(&server);
    let (checked, _) = readback(server.addr, &corpus, shape.versions, READBACK_SAMPLE, seed);
    let peak_rss_mb = mb(server.usage());
    server.kill();
    let mut tally = loaded.tally;
    tally.add(phase.tally);
    tally.add(checked);
    let (writes, reads) = (phase.ack_ms.len(), phase.read_ms.len());
    let read = summarize(&phase.read_ms);
    Ok(E2e {
        ingest_docs_per_s: Some(per_second(writes, phase.wall_s)),
        ack: Some(summarize(&phase.ack_ms)),
        read_docs_per_s: Some(per_second(reads, phase.wall_s)),
        read: Some(read),
        ops_per_s: per_second(writes + reads, phase.wall_s),
        op: read,
        cpu_ms_per_op: phase.server_cpu_s * 1e3 / (writes + reads).max(1) as f64,
        peak_rss_mb,
        scrape,
        ..common(&corpus, (setup_s, 1), tally, &phase)
    })
}

/// `recover`: build a log without fsync, SIGKILL the server, then time cold
/// restarts on that log; each restart is checked before the next kill.
fn recover(seed: u64, sizes: &Sizes, env: &Env) -> Result<E2e, String> {
    let clients = client_count();
    let rows = sizes.recover_log / CRAWL_SMALL.docs;
    let wal_dir = env.work_dir.join("wal");
    let args = serve_args(clients, &WalMode::NoSync(wal_dir.clone()), 0);
    // Set up once: the log build is seconds of server work, steady by its length.
    let ((corpus, built, scrape), setup_s) = timed_setup(1, || {
        let corpus = CRAWL_SMALL.generate(seed)?;
        env.scratch("wal");
        let server = Server::spawn(&env.server_bin, &args)?;
        let built = ingest_phase(
            &server,
            &corpus,
            0..rows * corpus.docs(),
            clients,
            false,
            None,
        );
        // The only server of this workload that ingests: its `/metrics` are
        // what the ledger scrapes.
        let scrape = scrape(&server);
        server.kill();
        Ok((corpus, built, scrape))
    })?;
    let versions = built.ack_ms.len();
    let wal_bytes = child::dir_bytes(&wal_dir);

    let mut tally = built.tally;
    let (mut restart_s, mut cpu_s, mut rss_mb, mut read_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut timed = Phase {
        own_cpu_s: -own_cpu_seconds(),
        ..Phase::default()
    };
    let started = Instant::now();
    for _ in 0..sizes.recover_restarts {
        let server = Server::spawn(&env.server_bin, &args)?;
        restart_s.push(server.ready_after.as_secs_f64());
        // Read before the readback, so this is the recovery's CPU alone.
        cpu_s.push(server.usage().cpu_s);
        let (checked, sampled_ms) = readback(server.addr, &corpus, rows, READBACK_SAMPLE, seed);
        tally.add(checked);
        read_ms.extend(sampled_ms);
        rss_mb.push(mb(server.usage()));
        server.kill();
    }
    timed.wall_s = started.elapsed().as_secs_f64();
    timed.own_cpu_s += own_cpu_seconds();
    timed.server_cpu_s = cpu_s.iter().sum();

    let restart = median(&mut restart_s).expect("at least three restarts");
    let read = summarize(&read_ms);
    Ok(E2e {
        // The readback is one serial connection: reads per second of its own time.
        read_docs_per_s: Some(per_second(read_ms.len(), read_ms.iter().sum::<f64>() / 1e3)),
        read: Some(read),
        recover_versions_per_s: Some(per_second(versions, restart)),
        restarts: restart_s.len(),
        ops_per_s: per_second(versions, restart),
        op: read,
        cpu_ms_per_op: median(&mut cpu_s).expect("at least three restarts") * 1e3
            / versions.max(1) as f64,
        peak_rss_mb: median(&mut rss_mb).expect("at least three restarts"),
        wal_bytes_per_doc_byte: Some(wal_bytes as f64 / built.body_bytes.max(1) as f64),
        scrape,
        ..common(&corpus, (setup_s, 1), tally, &timed)
    })
}

/// The `(workload, shape)` pairs whose canary fingerprints `BENCHMARK.json`
/// records. `recover` replays the `crawl-small` stream and has none of its own.
pub fn shapes() -> [(&'static str, Shape); 3] {
    [
        ("crawl-small", CRAWL_SMALL),
        ("crawl-large", CRAWL_LARGE),
        ("hot-history", HOT_HISTORY),
    ]
}
