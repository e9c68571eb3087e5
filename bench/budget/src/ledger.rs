//! The per-layer ledger: the traced run.
//!
//! Single-threaded and in-process, it replays a seeded sample of a
//! workload's request stream through each layer's public functions (the
//! calls are in `layers.rs`) with a span around each call, and measures the
//! enclosing layers by subtraction over the same stream with one request in
//! flight: an in-process `IngestServer` minus the stage sum is `xyserve`,
//! a child server over HTTP minus the in-process server is `xynet`. A few
//! numbers only the running server knows are scraped from the `/metrics` of
//! a short untraced run at full client count.
//!
//! Per-document figures are medians in µs. A layer's share is its median
//! stage time over the median one-client ack; medians do not add up, so the
//! shares leave a remainder, `unattributed.share`, which the ledger bounds.

use crate::child::{client_count, serve_args, Server, WalMode};
use crate::corpus::{key, Corpus, Shape};
use crate::e2e::{self, Env, Sizes, CRAWL_LARGE, CRAWL_SMALL, HOT_COMPACT_CHAIN_MAX, HOT_HISTORY};
use crate::http::Conn;
use crate::layers::{self, InProcessServer, PlainIngest, TracedIngest};
use crate::prom::Scrape;
use crate::stats::{median, mix_seed, SplitMix};
use crate::trace::Recorder;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Every per-layer metric, in print order: (name, unit).
pub const PER_LAYER: [(&str, &str); 49] = [
    ("xynet.overhead_us", "us"),
    ("xynet.healthz_rtt_us", "us"),
    ("xynet.request_mean_us", "us"),
    ("xynet.loop_iter_mean_us", "us"),
    ("xynet.share", "share"),
    ("xyserve.overhead_us", "us"),
    ("xyserve.queue_wait_us", "us"),
    ("xyserve.steals_per_kdoc", "1/kdoc"),
    ("xyserve.queue_high_water", "count"),
    ("xyserve.share", "share"),
    ("xytree.parse_us", "us"),
    ("xytree.serialize_us", "us"),
    ("xytree.resident_bytes_per_node", "B"),
    ("xytree.share", "share"),
    ("xydiff.phase1_us", "us"),
    ("xydiff.phase2_us", "us"),
    ("xydiff.phase3_us", "us"),
    ("xydiff.phase4_us", "us"),
    ("xydiff.phase5_us", "us"),
    ("xydiff.total_us", "us"),
    ("xydiff.ops_per_doc", "count"),
    ("xydiff.cache_hit_share", "share"),
    ("xydiff.share", "share"),
    ("xydelta.own_us", "us"),
    ("xydelta.verify_us", "us"),
    ("xydelta.store_us", "us"),
    ("xydelta.encode_us", "us"),
    ("xydelta.decode_us", "us"),
    ("xydelta.reconstruct_us", "us"),
    ("xydelta.reconstruct_hops", "count"),
    ("xydelta.delta_bytes_per_doc_byte", "B/B"),
    ("xydelta.share", "share"),
    ("xywarehouse.alert_us", "us"),
    ("xywarehouse.alert16_us", "us"),
    ("xywarehouse.load_us", "us"),
    ("xywarehouse.version_xml_us", "us"),
    ("xywarehouse.replay_us_per_version", "us"),
    ("xywarehouse.compact_ms", "ms"),
    ("xywarehouse.stage_sum_error", "share"),
    ("xywarehouse.share", "share"),
    ("xywal.append_us", "us"),
    ("xywal.append_nosync_us", "us"),
    ("xywal.open_scan_ms", "ms"),
    ("xywal.bytes_per_version", "B"),
    ("xywal.appends_per_fsync", "count"),
    ("xywal.share", "share"),
    ("unattributed.share", "share"),
    ("loadgen.cpu_share", "share"),
    ("trace.overhead_share", "share"),
];

/// Ledger self-checks: the traced parts must explain the one-call time …
const MAX_STAGE_SUM_ERROR: f64 = 0.10;
/// … and the layers together must explain the one-client ack.
const MAX_UNATTRIBUTED: f64 = 0.15;

/// `(key, version)` pairs the read-side measurements sample.
const READ_SAMPLE: usize = 300;
/// `/healthz` round trips timed on the one-client connection.
const HEALTHZ_PROBES: usize = 500;
/// Parsed documents held for the resident-size measurement.
const RESIDENT_DOCS: usize = 200;

pub struct Ledger {
    /// The values of [`PER_LAYER`], in order. `None`: a scraped family the
    /// server does not export.
    pub values: Vec<Option<f64>>,
    /// Self-checks that did not hold; any makes the run invalid.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: usize,
    pub recorder: Recorder,
}

/// Metric values by name; a layer that does no work on a workload keeps 0.
struct Values(HashMap<&'static str, Option<f64>>);

impl Values {
    fn zeroed() -> Values {
        Values(
            PER_LAYER
                .iter()
                .map(|(name, _)| (*name, Some(0.0)))
                .collect(),
        )
    }

    fn set(&mut self, name: &'static str, value: Option<f64>) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().flatten().unwrap_or(0.0)
    }

    fn in_order(&self) -> Vec<Option<f64>> {
        PER_LAYER.iter().map(|(name, _)| self.0[name]).collect()
    }
}

fn med(mut values: Vec<f64>) -> Option<f64> {
    median(&mut values)
}

/// Median duration (µs) of the spans called `name`, 0 when there are none.
fn stage(rec: &Recorder, name: &str) -> f64 {
    med(rec.micros_of(name)).unwrap_or(0.0)
}

fn total(values: &[f64]) -> f64 {
    values.iter().sum()
}

pub fn run(workload: &'static str, seed: u64, seconds: usize, env: &Env) -> Result<Ledger, String> {
    let hot = Shape {
        versions: 400,
        ..HOT_HISTORY
    };
    let plan = match workload {
        "crawl-small" => Plan {
            shape: CRAWL_SMALL,
            docs: 60,
            logged: true,
            compact: 0,
        },
        "crawl-large" => Plan {
            shape: CRAWL_LARGE,
            docs: 24,
            logged: true,
            compact: 0,
        },
        "hot-history" => Plan {
            shape: hot,
            docs: 4,
            logged: false,
            compact: HOT_COMPACT_CHAIN_MAX,
        },
        "recover" => Plan {
            shape: CRAWL_SMALL,
            docs: RECOVER_DOCS,
            logged: true,
            compact: 0,
        },
        other => return Err(format!("unknown workload {other:?}")),
    };
    let out = ingest_ledger(workload, &plan, seed, seconds, env).and_then(|mut run| {
        if workload == "recover" {
            recover_ledger(&mut run, env)?;
        }
        self_checks(&run.v, &mut run.problems);
        Ok(Ledger {
            values: run.v.in_order(),
            problems: run.problems,
            attempted: run.attempted,
            failed: run.failed,
            spans: run.rec.len(),
            recorder: run.rec,
        })
    });
    let _ = std::fs::remove_dir_all(&env.work_dir);
    out
}

/// The sample of one workload's stream the ledger replays.
struct Plan {
    shape: Shape,
    /// Documents of the workload's corpus in the sample (all their versions).
    docs: usize,
    /// Whether the workload's server logs to a WAL (fsync always). The log
    /// calls are measured either way; they enter the shares only if it does.
    logged: bool,
    compact: usize,
}

/// A ledger in the making.
struct Run {
    v: Values,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    rec: Recorder,
    corpus: Corpus,
    keys: Vec<String>,
    /// The log the traced replay wrote.
    log_dir: PathBuf,
}

/// The short untraced run at full client count: the scraped metrics, the
/// generator's CPU share, and the run's own output checks.
fn untraced(
    workload: &'static str,
    seed: u64,
    seconds: usize,
    env: &Env,
    v: &mut Values,
    problems: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let e = e2e::run(
        workload,
        seed,
        &Sizes::for_seconds((seconds / 4).max(2)),
        env,
    )?;
    v.set("loadgen.cpu_share", Some(e.loadgen_cpu_share));
    if e.generator_bound() {
        problems.push(format!(
            "the generator used more CPU ({:.2}) than the server ({:.2})",
            e.loadgen_cpu_share, e.server_cpu_share
        ));
    }
    if let Some(s) = &e.scrape {
        scraped(s, v);
    }
    Ok((e.attempted, e.failed))
}

/// The metrics only the running server knows. A family it does not export
/// yields `None`, not a failure.
fn scraped(s: &Scrape, v: &mut Values) {
    let micros = |family: &str| s.mean_seconds(family).map(|x| x * 1e6);
    v.set("xynet.request_mean_us", micros("http_request_seconds"));
    v.set(
        "xynet.loop_iter_mean_us",
        micros("http_loop_iteration_seconds"),
    );
    let wait = micros("http_ingest_wait_seconds");
    let process = micros("ingest_process_seconds");
    v.set(
        "xyserve.queue_wait_us",
        wait.zip(process).map(|(w, p)| w - p),
    );
    let docs = s.get("ingest_succeeded_total").filter(|d| *d > 0.0);
    v.set(
        "xyserve.steals_per_kdoc",
        s.get("ingest_steals_total")
            .zip(docs)
            .map(|(st, d)| st * 1e3 / d),
    );
    v.set(
        "xyserve.queue_high_water",
        s.get("ingest_queue_depth_high_water"),
    );
    let fsyncs = s.get("ingest_wal_fsyncs_total");
    let fsynced = s.get("ingest_wal_fsynced_records_total");
    // No WAL, no fsyncs: the layer did nothing, which is 0, not "unknown".
    v.set(
        "xywal.appends_per_fsync",
        fsynced
            .zip(fsyncs)
            .map(|(r, f)| if f > 0.0 { r / f } else { 0.0 }),
    );
}

fn ingest_ledger(
    workload: &'static str,
    plan: &Plan,
    seed: u64,
    seconds: usize,
    env: &Env,
) -> Result<Run, String> {
    let mut v = Values::zeroed();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) =
        untraced(workload, seed, seconds, env, &mut v, &mut problems)?;
    let mut check = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };

    let corpus = Shape {
        docs: plan.docs,
        ..plan.shape
    }
    .generate(seed)?;
    let keys: Vec<String> = (0..corpus.docs()).map(|d| key(d, 0)).collect();
    let stream: Vec<(&str, &str)> = (0..corpus.docs() * corpus.versions())
        .map(|i| corpus.slot(i))
        .map(|slot| (keys[slot.doc].as_str(), corpus.body(slot)))
        .collect();
    let body_bytes: usize = stream.iter().map(|(_, xml)| xml.len()).sum();
    let requests = stream.len() as f64;
    let clients = client_count();
    let wal_dir = |name: &str| plan.logged.then(|| env.scratch(name));

    // Four ways through the same stream, one request in flight, request by
    // request: the child server over HTTP, an in-process server, the traced
    // calls, and the warehouse's one-call entry point. They take turns
    // within each request, because what is subtracted
    // must have been measured under the same conditions: run as four
    // passes, heap layout and cache state differ between the passes by more
    // than the overheads being measured.
    let wal_mode = wal_dir("wal-http").map_or(WalMode::Off, WalMode::Always);
    let server = Server::spawn(
        &env.server_bin,
        &serve_args(clients, &wal_mode, plan.compact),
    )?;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let in_process = InProcessServer::start(clients, wal_dir("wal-serve").as_deref(), plan.compact);
    let mut rec = Recorder::new();
    let log_dir = env.scratch("wal-traced");
    let mut traced = TracedIngest::new(&log_dir, plan.logged);
    let mut plain = PlainIngest::new(wal_dir("wal-plain").as_deref(), true);
    let (mut http_us, mut wait_us) = (
        Vec::with_capacity(stream.len()),
        Vec::with_capacity(stream.len()),
    );
    let (mut ops, mut delta_bytes, mut wal_bytes) = (0usize, 0usize, 0u64);
    for (i, (k, xml)) in stream.iter().enumerate() {
        // Each in-thread path runs right after a blocking exchange with a
        // server, as a worker that has just been handed a request does, and
        // the two swap places every request so neither always follows the
        // same server.
        let order = if i % 2 == 0 {
            [0, 2, 1, 3]
        } else {
            [0, 3, 1, 2]
        };
        for path in order {
            match path {
                0 => {
                    let (response, took) = conn
                        .post(&format!("/ingest/{k}"), xml.as_bytes())
                        .map_err(|e| format!("post: {e}"))?;
                    check(response.status == 200);
                    http_us.push(took.as_secs_f64() * 1e6);
                }
                1 => wait_us.push(in_process.ingest(k, xml)),
                2 => {
                    let facts = traced.ingest(&mut rec, i as u32, k, xml);
                    ops += facts.ops;
                    delta_bytes += facts.delta_bytes;
                    wal_bytes += facts.wal_bytes;
                }
                _ => plain.ingest(k, xml),
            }
        }
    }
    in_process.shutdown();
    let mut healthz_us = Vec::with_capacity(HEALTHZ_PROBES);
    for _ in 0..HEALTHZ_PROBES {
        let (response, took) = conn.get("/healthz").map_err(|e| format!("healthz: {e}"))?;
        check(response.status == 200);
        healthz_us.push(took.as_secs_f64() * 1e6);
    }
    drop(conn);
    server.kill();

    // Stage medians and the shares they make of the one-client ack.
    let ack = med(http_us).ok_or("empty sample stream")?;
    let wait = med(wait_us).unwrap_or(0.0);
    let stage_sum = med(rec.child_sums("ingest")).unwrap_or(0.0);
    let (parse, diff) = (stage(&rec, "xytree.parse"), stage(&rec, "xydiff.diff"));
    let (own, verify, store) = (
        stage(&rec, "xydelta.into_owned"),
        stage(&rec, "xydelta.verify"),
        stage(&rec, "xydelta.store"),
    );
    let (encode, alert, append) = (
        stage(&rec, "xydelta.encode"),
        stage(&rec, "xywarehouse.alert"),
        stage(&rec, "xywal.append"),
    );
    let logged = |micros: f64| if plan.logged { micros } else { 0.0 };
    let shares = [
        ("xynet.share", (ack - wait).max(0.0)),
        ("xyserve.share", (wait - stage_sum).max(0.0)),
        ("xytree.share", parse),
        ("xydiff.share", diff),
        ("xydelta.share", own + verify + store + logged(encode)),
        ("xywarehouse.share", alert),
        ("xywal.share", logged(append)),
    ];
    let mut attributed = 0.0;
    for (name, micros) in shares {
        v.set(name, Some(micros / ack));
        attributed += micros / ack;
    }
    v.set("unattributed.share", Some(1.0 - attributed));
    v.set("xynet.overhead_us", Some(ack - wait));
    v.set("xynet.healthz_rtt_us", med(healthz_us));
    v.set("xyserve.overhead_us", Some(wait - stage_sum));
    v.set("xytree.parse_us", Some(parse));
    for (metric, span) in [
        ("xydiff.phase1_us", "xydiff.phase1"),
        ("xydiff.phase2_us", "xydiff.phase2"),
        ("xydiff.phase3_us", "xydiff.phase3"),
        ("xydiff.phase4_us", "xydiff.phase4"),
        ("xydiff.phase5_us", "xydiff.phase5"),
    ] {
        v.set(metric, Some(stage(&rec, span)));
    }
    v.set("xydiff.total_us", Some(diff));
    v.set("xydiff.ops_per_doc", Some(ops as f64 / requests));
    let (hits, misses) = keys
        .iter()
        .map(|k| plain.cache_counters(k))
        .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
    v.set(
        "xydiff.cache_hit_share",
        Some(hits as f64 / ((hits + misses).max(1)) as f64),
    );
    v.set("xydelta.own_us", Some(own));
    v.set("xydelta.verify_us", Some(verify));
    v.set("xydelta.store_us", Some(store));
    v.set("xydelta.encode_us", Some(encode));
    v.set(
        "xydelta.delta_bytes_per_doc_byte",
        Some(delta_bytes as f64 / body_bytes.max(1) as f64),
    );
    v.set("xywarehouse.alert_us", Some(alert));
    v.set(
        "xywarehouse.alert16_us",
        med(layers::alert16_micros(stream.iter().copied())),
    );
    v.set("xywal.append_us", Some(append));
    v.set("xywal.bytes_per_version", Some(wal_bytes as f64 / requests));

    // The traced parts against the one call they take apart, and the traced
    // request against the untraced one: per request (the two ran within a
    // millisecond of each other), then the median ratio over the requests.
    const LOAD_PARTS: [&str; 5] = [
        "xydiff.diff",
        "xydelta.into_owned",
        "xydelta.verify",
        "xywarehouse.alert",
        "xydelta.store",
    ];
    let median_ratio = |traced: Vec<f64>, plain: Vec<f64>| {
        med(traced
            .iter()
            .zip(&plain)
            .map(|(t, p)| t / p.max(1e-3))
            .collect())
        .unwrap_or(0.0)
    };
    let times = &plain.times;
    v.set("xywarehouse.load_us", med(times.load.clone()));
    let parts_to_load = median_ratio(rec.sums_by_request(&LOAD_PARTS), times.load.clone());
    v.set(
        "xywarehouse.stage_sum_error",
        Some((parts_to_load - 1.0).abs()),
    );
    let log_calls = plan.logged.then_some(["xydelta.encode", "xywal.append"]);
    let timed_by_both: Vec<&str> = LOAD_PARTS
        .into_iter()
        .chain(["xytree.parse"])
        .chain(log_calls.into_iter().flatten())
        .collect();
    let log = times.log.iter().copied().chain(std::iter::repeat(0.0));
    let plain_request = times
        .parse
        .iter()
        .zip(&times.load)
        .zip(log)
        .map(|((p, l), w)| p + l + w)
        .collect();
    let traced_to_plain = median_ratio(rec.sums_by_request(&timed_by_both), plain_request);
    v.set("trace.overhead_share", Some(traced_to_plain - 1.0));

    // The read side, on the chains the replays built.
    v.set(
        "xywarehouse.compact_ms",
        Some(plain.compact_millis(HOT_COMPACT_CHAIN_MAX)),
    );
    if plan.compact > 0 {
        traced.compact(plan.compact);
    }
    let mut rng = SplitMix::new(mix_seed(&[seed, 0x1ed9e5]));
    let (mut version_xml_us, mut hops) = (Vec::new(), 0usize);
    for i in 0..READ_SAMPLE {
        let (d, ver) = (rng.below(corpus.docs()), rng.below(corpus.versions()));
        let (xml, took) = plain.version_xml(&keys[d], ver);
        check(xml == corpus.snapshots[d][ver]);
        version_xml_us.push(took);
        hops += traced.reconstruct(&mut rec, (stream.len() + i) as u32, &keys[d], ver);
    }
    v.set("xywarehouse.version_xml_us", med(version_xml_us));
    v.set(
        "xydelta.reconstruct_us",
        Some(stage(&rec, "xydelta.reconstruct")),
    );
    v.set(
        "xydelta.reconstruct_hops",
        Some(hops as f64 / READ_SAMPLE as f64),
    );
    v.set("xytree.serialize_us", Some(stage(&rec, "xytree.serialize")));
    v.set("xytree.resident_bytes_per_node", resident(&corpus, env));

    // The log side: decode, append without fsync, and a recovery of the log
    // the traced replay wrote.
    v.set(
        "xydelta.decode_us",
        med(layers::decode_micros(&traced.records)),
    );
    let nosync = layers::append_nosync_micros(&env.scratch("wal-nosync"), &traced.records);
    v.set("xywal.append_nosync_us", med(nosync));
    drop(traced);
    let recovery = layers::recover(&log_dir);
    v.set("xywal.open_scan_ms", Some(recovery.open_scan_ms));
    let per_version = recovery.replay_ms * 1e3 / recovery.versions.max(1) as f64;
    v.set("xywarehouse.replay_us_per_version", Some(per_version));

    Ok(Run {
        v,
        problems,
        attempted,
        failed,
        rec,
        corpus,
        keys,
        log_dir,
    })
}

/// Run `budget --probe <kind> <dir>` — a fresh copy of this program — and
/// read back the two numbers it prints. What a fresh process measures is
/// what a freshly started server pays: its heap starts empty, where this
/// process's allocator would hand out memory freed earlier.
fn probe(kind: &str, dir: &Path) -> Option<(f64, f64)> {
    let out = std::process::Command::new(std::env::current_exe().ok()?)
        .args(["--probe", kind])
        .arg(dir)
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    let pair = (fields.next()?.ok()?, fields.next()?.ok()?);
    out.status.success().then_some(pair)
}

/// Resident bytes per tree node: `VmRSS` growth of a fresh process while it
/// holds the first [`RESIDENT_DOCS`] snapshots parsed, over their node count.
fn resident(corpus: &Corpus, env: &Env) -> Option<f64> {
    let dir = env.scratch("resident");
    let snapshots = corpus.snapshots.iter().flatten().take(RESIDENT_DOCS);
    for (i, xml) in snapshots.enumerate() {
        std::fs::write(dir.join(format!("{i:04}.xml")), xml).ok()?;
    }
    let (bytes, nodes) = probe("resident", &dir)?;
    (nodes > 0.0).then(|| bytes / nodes)
}

fn self_checks(v: &Values, problems: &mut Vec<String>) {
    let error = v.get("xywarehouse.stage_sum_error");
    if error > MAX_STAGE_SUM_ERROR {
        problems.push(format!(
            "xywarehouse.stage_sum_error {error:.3} exceeds {MAX_STAGE_SUM_ERROR}"
        ));
    }
    let rest = v.get("unattributed.share");
    if rest.abs() > MAX_UNATTRIBUTED {
        problems.push(format!(
            "unattributed.share {rest:.3} exceeds {MAX_UNATTRIBUTED}"
        ));
    }
}

/// Documents of the `crawl-small` corpus in the log the `recover` ledger
/// takes apart, and how often each of the three recoveries is timed on it.
const RECOVER_DOCS: usize = 90;
const RECOVER_BATCH: usize = 7;
const RECOVER_BATCHES: usize = 3;
/// The spans that together do what `apply_records` does in one call.
const REPLAY_PARTS: [&str; 5] = [
    "xytree.parse_init",
    "xydelta.install",
    "xydelta.decode",
    "xydelta.verify_replayed",
    "xydelta.apply",
];

/// `recover`: the per-document figures describe how the log was built (the
/// `crawl-small` stream); the shares take apart one cold restart, not one
/// ack. The log the traced replay wrote is recovered three ways: by a child
/// server (the whole), by the library's two calls (scan, replay), and call
/// by call under spans.
fn recover_ledger(run: &mut Run, env: &Env) -> Result<(), String> {
    let Run {
        v,
        rec,
        corpus,
        keys,
        log_dir,
        attempted,
        failed,
        ..
    } = run;
    let versions = (corpus.docs() * corpus.versions()) as f64;

    // Recoveries of the same log, turn about: by a child server (the whole,
    // checked), by the library's two calls, and call by call under spans.
    // Turn about because the machine's speed drifts by the minute, and
    // because a recovery allocates the whole store, so whichever ran on a
    // heap another had already grown would look faster than it is. Only the
    // first traced recovery's spans are kept.
    let args = serve_args(client_count(), &WalMode::NoSync(log_dir.clone()), 0);
    let latest = corpus.versions() - 1;
    let parts_of = |rec: &Recorder| {
        REPLAY_PARTS
            .iter()
            .map(|name| total(&rec.micros_of(name)))
            .sum::<f64>()
    };
    // One round: ratios between recoveries that ran within a second of each
    // other, because the machine's speed drifts by more between rounds than
    // the differences being measured.
    struct Round {
        /// Fresh-process scan + replay over the child's restart.
        explained: f64,
        /// The scan's part of scan + replay.
        scan: f64,
        /// Traced stages over the one-call replay, both in this process.
        traced: f64,
        open_scan_ms: f64,
        replay_ms: f64,
    }
    let mut rounds: Vec<Round> = Vec::new();
    let mut one_round = |first: bool| -> Result<Round, String> {
        let server = Server::spawn(&env.server_bin, &args)?;
        let restart_ms = server.ready_after.as_secs_f64() * 1e3;
        let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        for (d, k) in keys.iter().enumerate() {
            let (response, _) = conn
                .get(&format!("/doc/{k}"))
                .map_err(|e| format!("get: {e}"))?;
            *attempted += 1;
            *failed += u64::from(
                response.status != 200
                    || response.version != Some(latest)
                    || response.body != corpus.snapshots[d][latest].as_bytes(),
            );
        }
        drop(conn);
        server.kill();
        // The library's two calls, in a fresh process (comparable with the
        // child's restart) and in this one (comparable with the traced calls).
        let (fresh_scan_ms, fresh_replay_ms) =
            probe("recover", log_dir).ok_or("recover probe failed")?;
        let here = layers::recover(log_dir);
        let parts_us = if first {
            layers::traced_recover(rec, log_dir);
            parts_of(rec)
        } else {
            let mut discarded = Recorder::new();
            layers::traced_recover(&mut discarded, log_dir);
            parts_of(&discarded)
        };
        Ok(Round {
            explained: (fresh_scan_ms + fresh_replay_ms) / restart_ms,
            scan: fresh_scan_ms / (fresh_scan_ms + fresh_replay_ms),
            traced: parts_us / (here.replay_ms * 1e3),
            open_scan_ms: here.open_scan_ms,
            replay_ms: here.replay_ms,
        })
    };
    // Rounds come in batches; another batch is added while the medians over
    // all rounds so far still fail a self-check. A recovery of this log lasts
    // a third of a second and the sandbox's disturbances last seconds, so
    // one batch is sometimes all disturbance.
    let over =
        |rounds: &[Round], f: fn(&Round) -> f64| med(rounds.iter().map(f).collect()).unwrap_or(0.0);
    let (explained, scan, traced) = loop {
        for _ in 0..RECOVER_BATCH {
            rounds.push(one_round(rounds.is_empty())?);
        }
        let (e, t) = (over(&rounds, |r| r.explained), over(&rounds, |r| r.traced));
        let consistent =
            (1.0 - e).abs() <= MAX_UNATTRIBUTED && (t - 1.0).abs() <= MAX_STAGE_SUM_ERROR;
        if consistent || rounds.len() >= RECOVER_BATCH * RECOVER_BATCHES {
            break (e, over(&rounds, |r| r.scan), t);
        }
    };
    v.set(
        "xywal.open_scan_ms",
        Some(over(&rounds, |r| r.open_scan_ms)),
    );
    let replay_us = over(&rounds, |r| r.replay_ms) * 1e3;
    v.set(
        "xywarehouse.replay_us_per_version",
        Some(replay_us / versions),
    );
    v.set("xywarehouse.stage_sum_error", Some((traced - 1.0).abs()));
    v.set("trace.overhead_share", Some(traced - 1.0));

    // The replay's share of a restart, split by the traced recovery:
    // what its stages cover is theirs, what they do not is the warehouse's.
    let replay = explained * (1.0 - scan);
    let staged = replay * traced.min(1.0);
    let tree = total(&rec.micros_of("xytree.parse_init")) / parts_of(rec);
    let shares = [
        ("xynet.share", 0.0),
        ("xyserve.share", 0.0),
        ("xydiff.share", 0.0),
        ("xywal.share", explained * scan),
        ("xytree.share", staged * tree),
        ("xydelta.share", staged * (1.0 - tree)),
        ("xywarehouse.share", replay - staged),
    ];
    let mut attributed = 0.0;
    for (name, share) in shares {
        v.set(name, Some(share));
        attributed += share;
    }
    v.set("unattributed.share", Some(1.0 - attributed));
    Ok(())
}
