//! `budget`: the whole-loop benchmark of the XyDiff warehouse.
//!
//! Four workloads against a real `xydiff serve` child, end-to-end metrics
//! measured from outside the process with tracing off, and — as a separate
//! run — a per-layer ledger that replays the same request streams through
//! each layer's public functions. See `bench/README.md`.
//!
//! ```text
//! budget --seed N [--workload W] [--seconds S] [--trace [0|1]] [--aa]
//! ```

mod child;
mod corpus;
mod e2e;
mod http;
mod json;
mod layers;
mod ledger;
mod prom;
mod report;
mod stats;
mod trace;

use e2e::{Env, Sizes, WORKLOADS};
use json::Json;
use report::{end_to_end_values, print_table, result_line, worsening, END_TO_END};
use std::path::PathBuf;
use std::process::ExitCode;

/// `--seconds` when none is given: the manifest's `run_seconds`.
const DEFAULT_SECONDS: usize = 20;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: usize,
    trace: bool,
    aa: bool,
    env: Env,
}

fn usage() -> String {
    format!(
        "usage: budget [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] [--aa]\n\
         \x20             [--server-bin PATH] [--work-dir DIR]\n\
         run from the repository root, after `cargo build --release -p xycli`",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 11,
        seconds: DEFAULT_SECONDS,
        trace: false,
        aa: false,
        env: Env {
            server_bin: PathBuf::from(&target).join("release/xydiff"),
            work_dir: PathBuf::from(&target).join(format!("budget-work/{}", std::process::id())),
        },
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}\n{}", usage()));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS.iter().find(|w| **w == name);
                args.workloads =
                    vec![known.ok_or(format!("unknown workload {name:?}\n{}", usage()))?];
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--server-bin" => args.env.server_bin = PathBuf::from(value("a path")?),
            "--work-dir" => args.env.work_dir = PathBuf::from(value("a directory")?),
            "--aa" => args.aa = true,
            // The driver passes `--trace 0|1`; by hand a bare `--trace` turns it on.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Check `BENCHMARK.json` against this binary: the recorded canary
/// fingerprints must be the ones the generator produces today, and the
/// manifest's metric lists and bounds must be the ones compiled in here.
fn check_manifest() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let manifest = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let named = |list: &str, name: &str| -> Option<&Json> {
        manifest
            .get(list)?
            .items()
            .iter()
            .find(|m| m.get("name").and_then(Json::text) == Some(name))
    };
    for (workload, shape) in e2e::shapes() {
        let computed = format!("fnv64:{:016x}", shape.canary_fingerprint()?);
        let why = named("workloads", workload)
            .and_then(|w| w.get("why"))
            .and_then(Json::text)
            .unwrap_or("");
        if !why.contains(&computed) {
            return Err(format!(
                "corpus fingerprint mismatch on {workload}: the generator now yields {computed}, \
                 BENCHMARK.json records {why:?}; the yardstick changed"
            ));
        }
    }
    let listed = |list: &str| manifest.get(list).map_or(0, |l| l.items().len());
    let expected = END_TO_END.iter().filter(|s| s.in_manifest);
    if listed("end_to_end") != expected.clone().count()
        || listed("per_layer") != ledger::PER_LAYER.len()
    {
        return Err("BENCHMARK.json lists other metrics than this binary reports".to_string());
    }
    for spec in expected {
        let entry = named("end_to_end", spec.name);
        let bound = entry.and_then(|m| m.get("bound")).and_then(Json::number);
        let unit = entry.and_then(|m| m.get("unit")).and_then(Json::text);
        if bound != Some(spec.bound) || unit != Some(spec.unit) {
            return Err(format!(
                "BENCHMARK.json disagrees with this binary on {}",
                spec.name
            ));
        }
    }
    for (name, _) in ledger::PER_LAYER {
        if named("per_layer", name).is_none() {
            return Err(format!(
                "BENCHMARK.json does not list per-layer metric {name}"
            ));
        }
    }
    Ok(())
}

/// One untraced run of one workload: table, then the driver's result line.
/// Returns the values for `--aa` and whether the run counts.
fn end_to_end(workload: &'static str, args: &Args) -> Result<([report::Value; 15], bool), String> {
    let sizes = Sizes::for_seconds(args.seconds);
    let e = e2e::run(workload, args.seed, &sizes, &args.env)?;
    let values = end_to_end_values(&e);
    println!(
        "# {workload}: seed {} seconds {} clients {} corpus {} bytes fingerprint fnv64:{:016x}",
        args.seed, args.seconds, e.clients, e.corpus_bytes, e.fingerprint
    );
    print_table(
        workload,
        END_TO_END
            .iter()
            .zip(values)
            .map(|(s, v)| (s.name, s.unit, v)),
    );
    println!(
        "{workload:<12} loadgen.cpu_share {:.4} server.cpu_share {:.4}{}",
        e.loadgen_cpu_share,
        e.server_cpu_share,
        if e.generator_bound() {
            "  INVALID: the generator was the bottleneck"
        } else {
            ""
        }
    );
    let correct = e.failed == 0 && !e.generator_bound();
    let listed = END_TO_END.iter().zip(values).filter(|(s, _)| s.in_manifest);
    println!(
        "{}",
        result_line(
            correct,
            e.attempted,
            e.failed,
            listed.map(|(s, v)| (s.name, s.unit, v.value))
        )
    );
    Ok((values, correct))
}

/// Where the traced runs' spans are written when the benchmark ends.
const TRACE_FILE: &str = "BENCH_budget_trace.json";

/// One traced run of one workload: the per-layer ledger. The spans go to
/// `runs`, to be written out once every workload has run.
fn traced(
    workload: &'static str,
    args: &Args,
    runs: &mut Vec<(&'static str, trace::Recorder)>,
) -> Result<bool, String> {
    let ledger = ledger::run(workload, args.seed, args.seconds, &args.env)?;
    println!(
        "# {workload}: per-layer ledger, seed {} ({} spans for {TRACE_FILE})",
        args.seed, ledger.spans
    );
    print_table(
        workload,
        ledger::PER_LAYER
            .iter()
            .zip(&ledger.values)
            .map(|((name, unit), v)| {
                (
                    *name,
                    *unit,
                    report::Value {
                        value: *v,
                        samples: None,
                    },
                )
            }),
    );
    for problem in &ledger.problems {
        println!("{workload:<12} INVALID: {problem}");
    }
    let correct = ledger.failed == 0 && ledger.problems.is_empty();
    let metrics = ledger::PER_LAYER
        .iter()
        .zip(&ledger.values)
        .map(|((name, unit), v)| (*name, *unit, *v));
    println!(
        "{}",
        result_line(correct, ledger.attempted, ledger.failed, metrics)
    );
    runs.push((workload, ledger.recorder));
    Ok(correct)
}

/// `--aa`: the full set twice, back to back, on the same seed; every metric
/// of every workload must agree within its own bound.
fn a_a(args: &Args) -> Result<bool, String> {
    let mut sets = Vec::new();
    for pass in 1..=2 {
        println!("# A/A pass {pass}");
        let mut set = Vec::new();
        for &workload in &args.workloads {
            set.push(end_to_end(workload, args)?);
        }
        sets.push(set);
    }
    println!("# A/A: second pass against first, worsening as a share of the first");
    let mut ok = true;
    for (w, &workload) in args.workloads.iter().enumerate() {
        let ((first, ok1), (second, ok2)) = (&sets[0][w], &sets[1][w]);
        ok &= ok1 & ok2;
        for (i, spec) in END_TO_END.iter().enumerate() {
            let (Some(a), Some(b)) = (first[i].value, second[i].value) else {
                continue;
            };
            // Either pass may be the slower one; an A/A difference has no sign.
            let worse = worsening(spec, a, b).abs();
            let verdict = if worse <= spec.bound { "ok" } else { "EXCEEDS" };
            ok &= worse <= spec.bound;
            println!(
                "{workload:<12} {:<24} {a:>16.6} {b:>16.6} {:>8.4} bound {:<5} {verdict}",
                spec.name, worse, spec.bound
            );
        }
    }
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, String> {
    check_manifest()?;
    if !args.env.server_bin.is_file() {
        return Err(format!(
            "no server binary at {}\n{}",
            args.env.server_bin.display(),
            usage()
        ));
    }
    if args.aa {
        return a_a(args);
    }
    let mut ok = true;
    let mut runs = Vec::new();
    for &workload in &args.workloads {
        ok &= if args.trace {
            traced(workload, args, &mut runs)?
        } else {
            end_to_end(workload, args)?.1
        };
    }
    if args.trace {
        trace::write_file(std::path::Path::new(TRACE_FILE), &runs)
            .map_err(|e| format!("{TRACE_FILE}: {e}"))?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // Two of the ledger's measurements run in a fresh copy of this program
    // (see `ledger::probe`); each prints two numbers.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, kind, dir] = raw.as_slice() {
        if flag == "--probe" {
            let dir = std::path::Path::new(dir);
            let measured = match kind.as_str() {
                "resident" => {
                    layers::resident_probe(dir).map(|(bytes, nodes)| (bytes as f64, nodes as f64))
                }
                "recover" => Some(layers::recover(dir)).map(|r| (r.open_scan_ms, r.replay_ms)),
                _ => None,
            };
            return match measured {
                Some((a, b)) => {
                    println!("{a} {b}");
                    ExitCode::SUCCESS
                }
                None => ExitCode::from(2),
            };
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("budget: {message}");
            ExitCode::from(2)
        }
    }
}
