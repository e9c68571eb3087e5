//! Metric definitions and the two output forms: a table for people, one
//! JSON line for the driver.

use crate::e2e::E2e;

/// One metric's fixed properties.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen before a change
    /// counts as a regression. Zero means the value must repeat exactly.
    pub bound: f64,
    /// Listed in `BENCHMARK.json`, which takes only metrics that every
    /// workload has an operation for. The others are printed, and checked
    /// by `--aa`, on the workloads they apply to.
    pub in_manifest: bool,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    in_manifest: bool,
) -> Spec {
    Spec {
        name,
        unit,
        higher_is_better,
        bound,
        in_manifest,
    }
}

/// The end-to-end metrics, in print order: the twelve named ones, then the
/// three that restate each workload's primary operation under one name so
/// that every workload has them (see [`Spec::in_manifest`]).
///
/// The timing bounds are what an A/A comparison on the 2-core sandbox
/// supports, not what one would like: its cores and its disk drift by ±10%
/// over minutes, ten same-code runs spread (quartile to quartile) by up to
/// 20% of their median, and slicing runs or keeping only their quietest
/// seconds did not narrow that. Memory and byte counts do not depend on the
/// machine's mood and keep tight bounds (`peak_rss_mb` has 0.15 because on
/// `hot-history` it depends on how far the background compactor got). A p99
/// has differed by a third between two back-to-back runs, so the p99s get
/// 0.5 and `op_p99_ms` stays out of the manifest, whose bounds end at 0.25.
pub const END_TO_END: [Spec; 15] = [
    spec("setup_s", "s", false, 0.25, true),
    spec("ingest_docs_per_s", "1/s", true, 0.25, false),
    spec("ack_p50_ms", "ms", false, 0.25, false),
    spec("ack_p99_ms", "ms", false, 0.5, false),
    spec("read_docs_per_s", "1/s", true, 0.25, false),
    spec("read_p50_ms", "ms", false, 0.25, false),
    spec("read_p99_ms", "ms", false, 0.5, false),
    spec("recover_versions_per_s", "1/s", true, 0.25, false),
    spec("cpu_ms_per_op", "ms", false, 0.25, true),
    spec("peak_rss_mb", "MB", false, 0.15, true),
    spec("wal_bytes_per_doc_byte", "B/B", false, 0.0, false),
    spec("failed_ops_share", "share", false, 0.0, false),
    spec("ops_per_s", "1/s", true, 0.25, true),
    spec("op_p50_ms", "ms", false, 0.25, true),
    spec("op_p99_ms", "ms", false, 0.5, false),
];

/// A measured value with the number of samples behind it, where that is
/// meaningful. `None` is "this workload has no such operation".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: Option<f64>,
    pub samples: Option<usize>,
}

fn plain(value: f64) -> Value {
    Value {
        value: Some(value),
        samples: None,
    }
}

fn counted(value: Option<f64>, samples: usize) -> Value {
    Value {
        value,
        samples: Some(samples),
    }
}

/// The values of [`END_TO_END`], in the same order.
pub fn end_to_end_values(e: &E2e) -> [Value; 15] {
    let none = Value {
        value: None,
        samples: None,
    };
    let acks = e.ack.map_or(0, |a| a.count);
    let reads = e.read.map_or(0, |r| r.count);
    [
        counted(Some(e.setup_s), e.setup_reps),
        e.ingest_docs_per_s.map_or(none, |v| counted(Some(v), acks)),
        e.ack.map_or(none, |a| counted(a.p50, a.count)),
        e.ack.map_or(none, |a| counted(a.p99, a.count)),
        e.read_docs_per_s.map_or(none, |v| counted(Some(v), reads)),
        e.read.map_or(none, |r| counted(r.p50, r.count)),
        e.read.map_or(none, |r| counted(r.p99, r.count)),
        e.recover_versions_per_s
            .map_or(none, |v| counted(Some(v), e.restarts)),
        plain(e.cpu_ms_per_op),
        plain(e.peak_rss_mb),
        e.wal_bytes_per_doc_byte.map_or(none, plain),
        counted(Some(e.failed_ops_share()), e.attempted as usize),
        plain(e.ops_per_s),
        counted(e.op.p50, e.op.count),
        counted(e.op.p99, e.op.count),
    ]
}

/// Print one workload's metrics: name, value with all its digits, unit, and
/// the sample count where there is one.
pub fn print_table(
    workload: &str,
    rows: impl Iterator<Item = (&'static str, &'static str, Value)>,
) {
    for (name, unit, v) in rows {
        let value = v.value.map_or("null".to_string(), |x| format!("{x}"));
        let samples = v.samples.map_or(String::new(), |n| format!("  n={n}"));
        println!("{workload:<12} {name:<34} {value:>22} {unit:<6}{samples}");
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. A metric without a value (a scrape that found no such family)
/// is reported as 0, since the driver takes numbers only.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'static str, &'static str, Option<f64>)>,
) -> String {
    let body: Vec<String> = metrics
        .map(|(name, unit, value)| {
            let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it got better).
pub fn worsening(spec: &Spec, first: f64, second: f64) -> f64 {
    if first == second {
        return 0.0;
    }
    let change = (second - first) / first.abs().max(f64::MIN_POSITIVE);
    if spec.higher_is_better {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn result_line_is_the_contract_object() {
        let line = result_line(
            true,
            1000,
            0,
            [("latency_ms", "ms", Some(1.2034)), ("gone", "us", None)].into_iter(),
        );
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::number), Some(1000.0));
        assert_eq!(doc.get("failed").and_then(Json::number), Some(0.0));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("latency_ms")
                .unwrap()
                .get("value")
                .and_then(Json::number),
            Some(1.2034)
        );
        assert_eq!(
            m.get("latency_ms")
                .unwrap()
                .get("unit")
                .and_then(Json::text),
            Some("ms")
        );
        assert_eq!(
            m.get("gone").unwrap().get("value").and_then(Json::number),
            Some(0.0)
        );
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = END_TO_END[2];
        let higher = END_TO_END[1];
        assert!((worsening(&lower, 1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((worsening(&higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(&higher, 100.0, 110.0) < 0.0);
        assert_eq!(worsening(&lower, 0.0, 0.0), 0.0);
    }
}
