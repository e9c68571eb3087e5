//! Shared workloads and reporting helpers for the experiment harness.
//!
//! The `repro` binary (`cargo run -p xybench --release --bin repro -- all`)
//! regenerates every figure of the paper, timings included. DESIGN.md §3
//! maps each experiment id (E1–E8) to its regenerator.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::todo, clippy::dbg_macro, clippy::print_stderr))]
#![warn(missing_docs)]

use xydelta::XidDocument;
use xysim::{generate, simulate, ChangeConfig, DocGenConfig, DocKind, SimulatedChange};
use xytree::Document;

/// Approximate serialized bytes per node for the catalog generator; used to
/// translate byte targets into node targets.
pub const CATALOG_BYTES_PER_NODE: usize = 18;

/// Generate a catalog document of roughly `bytes` serialized bytes.
pub fn sized_catalog(bytes: usize, seed: u64) -> Document {
    generate(&DocGenConfig {
        kind: DocKind::Catalog,
        target_nodes: (bytes / CATALOG_BYTES_PER_NODE).max(16),
        seed,
        id_attributes: false,
    })
}

/// A versioned pair: old document (with XIDs) and a simulated change at the
/// given uniform per-node rate.
pub fn pair_at_rate(bytes: usize, rate: f64, seed: u64) -> (XidDocument, SimulatedChange) {
    let old = XidDocument::assign_initial(sized_catalog(bytes, seed));
    let sim = simulate(&old, &ChangeConfig::uniform(rate, seed.wrapping_mul(31).wrapping_add(7)));
    (old, sim)
}

/// True when the environment flag `name` (`XYBENCH_FAST`, `XYBENCH_GATE`)
/// is on: set, non-empty and not `0`.
pub fn env_flag(name: &str) -> bool {
    flag_on(std::env::var_os(name))
}

/// The rule [`env_flag`] applies to a flag's value.
fn flag_on(value: Option<std::ffi::OsString>) -> bool {
    value.is_some_and(|v| !v.is_empty() && v != "0")
}

/// True when `XYBENCH_FAST` is on ([`env_flag`]): benches shrink their
/// corpora so the CI perf-smoke job finishes in seconds.
pub fn fast_mode() -> bool {
    env_flag("XYBENCH_FAST")
}

/// Where a `BENCH_*.json` file should land: `$XYBENCH_OUT` or the current
/// directory.
pub fn bench_out_path(file: &str) -> std::path::PathBuf {
    match std::env::var_os("XYBENCH_OUT") {
        Some(dir) => std::path::PathBuf::from(dir).join(file),
        None => std::path::PathBuf::from(file),
    }
}

/// A `kB` field of `/proc/self/status`, in bytes (`None` off Linux).
fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`; `None`
/// elsewhere).
pub fn peak_rss_bytes() -> Option<u64> {
    status_bytes("VmHWM:")
}

/// What a parsed document costs to keep, per tree node: parse `copies`
/// copies of every text, hold them all, and divide the growth of the
/// resident set (`VmRSS`) by the nodes held. Call it before the process has
/// freed much memory — growth into recycled pages does not show.
pub fn resident_bytes_per_node(texts: &[String], copies: usize) -> Option<f64> {
    let before = status_bytes("VmRSS:")?;
    let held: Vec<Document> = (0..copies)
        .flat_map(|_| texts.iter())
        .map(|xml| Document::parse(xml).expect("the corpus serializes to well-formed XML"))
        .collect();
    let after = status_bytes("VmRSS:")?;
    let nodes: usize = held.iter().map(Document::node_count).sum();
    Some(after.saturating_sub(before) as f64 / nodes.max(1) as f64)
}

/// Extract `"docs_per_sec": <number>` from a checked-in baseline JSON file
/// (hand-rolled so the workspace stays dependency-free).
pub fn baseline_docs_per_sec(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    json_number(&text, "docs_per_sec")
}

/// Per-phase mean micros (`phase1`..`phase5`, `total`) from a checked-in
/// baseline JSON, in that order. Reads the *first* occurrence of each key,
/// which is the `phase_micros` (mean) object — the BENCH writer emits the
/// p50/p99 objects after it.
pub fn baseline_phase_micros(path: &str) -> Option<Vec<(&'static str, f64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let keys = ["phase1", "phase2", "phase3", "phase4", "phase5", "total"];
    let out: Vec<(&'static str, f64)> =
        keys.iter().filter_map(|k| json_number(&text, k).map(|v| (*k, v))).collect();
    (!out.is_empty()).then_some(out)
}

/// Find `"key": <number>` in a JSON text. Good enough for the flat BENCH
/// files this workspace writes; not a general JSON parser.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Least-squares slope of `ln y` against `ln x` — the growth exponent used
/// to check the near-linearity claims (slope ≈ 1 ⇒ linear, ≈ 2 ⇒ quadratic).
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Human-readable byte count.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1_000_000 {
        format!("{:.1} MB", b as f64 / 1e6)
    } else if b >= 1_000 {
        format!("{:.1} KB", b as f64 / 1e3)
    } else {
        format!("{b} B")
    }
}

/// Human-readable duration in microseconds/milliseconds/seconds.
pub fn fmt_dur(d: std::time::Duration) -> String {
    let us = d.as_micros();
    if us >= 1_000_000 {
        format!("{:.2} s", d.as_secs_f64())
    } else if us >= 1_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{us} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flag_is_on_when_set_non_empty_and_not_zero() {
        let value = |v: &str| Some(std::ffi::OsString::from(v));
        assert!(!flag_on(None));
        assert!(!flag_on(value("")));
        assert!(!flag_on(value("0")));
        assert!(flag_on(value("1")));
    }

    #[test]
    fn sized_catalog_hits_byte_target() {
        for target in [10_000usize, 100_000] {
            let doc = sized_catalog(target, 1);
            let actual = doc.to_xml().len();
            assert!(
                actual > target / 3 && actual < target * 3,
                "target {target} gave {actual}"
            );
        }
    }

    #[test]
    fn slope_detects_linear_and_quadratic() {
        let linear: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((log_log_slope(&linear) - 1.0).abs() < 1e-9);
        let quad: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((log_log_slope(&quad) - 2.0).abs() < 1e-9);
        assert!(log_log_slope(&[(1.0, 1.0)]).is_nan());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2_048), "2.0 KB");
        assert_eq!(fmt_bytes(5_200_000), "5.2 MB");
        assert_eq!(fmt_dur(std::time::Duration::from_micros(250)), "250 µs");
        assert_eq!(fmt_dur(std::time::Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_dur(std::time::Duration::from_secs(3)), "3.00 s");
    }

    #[test]
    fn json_number_extracts_flat_keys() {
        let text = "{\n  \"bench\": \"diff\",\n  \"docs_per_sec\": 123.45,\n  \"n\": 7\n}";
        assert_eq!(json_number(text, "docs_per_sec"), Some(123.45));
        assert_eq!(json_number(text, "n"), Some(7.0));
        assert_eq!(json_number(text, "missing"), None);
    }

    #[test]
    fn pair_at_rate_is_consistent() {
        let (old, sim) = pair_at_rate(20_000, 0.1, 3);
        let mut replay = old.clone();
        sim.perfect_delta.apply_to(&mut replay).unwrap();
        assert_eq!(replay.doc.to_xml(), sim.new_version.doc.to_xml());
    }
}
