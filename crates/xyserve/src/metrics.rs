//! Lock-free operational metrics with a Prometheus text exposition.
//!
//! Atomic counters, gauges, and power-of-two-bucket latency histograms for
//! the per-phase timings the paper's Figure 1 loop goes through (parse,
//! diff, store+alert). The registry holds only what the ingest loop itself
//! counts: queue depth and its high water belong to the
//! [`crate::KeyedQueue`], the write-ahead log's counters to
//! [`xywal::Wal::stats`], and both are read when the exposition is rendered
//! ([`crate::IngestServer::metrics_text`] is what `GET /metrics` serves).
//! The [`expo`] helpers let other layers (the HTTP front in `xynet`) append
//! their own metric families to the same scrape in the same format.
//!
//! The exposition follows the Prometheus conventions: every family carries
//! `# HELP`/`# TYPE` lines, counters end in `_total`, and histograms are
//! exposed in *seconds* as cumulative `_bucket{le="…"}` series with `_sum`
//! and `_count`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xywal::WalStats;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the current value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add one (for gauges tracking an active count).
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one, saturating at zero.
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count: bucket 0 holds observations of at most 1 µs, bucket `i`
/// holds `(2^(i-1), 2^i]` µs, and the last bucket is unbounded.
/// 2^30 µs ≈ 18 minutes, far beyond any diff.
const BUCKETS: usize = 32;

/// A latency histogram over microseconds, with power-of-two buckets whose
/// upper bounds are *inclusive* (so the Prometheus `le` semantics of the
/// exposition are exact).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        let bucket = if us <= 1 {
            0
        } else {
            ((64 - (us - 1).leading_zeros()) as usize).min(BUCKETS - 1)
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(us, Ordering::Relaxed);
        self.max_micros.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in microseconds.
    pub(crate) fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Non-cumulative bucket counts (index `i` covers `(2^(i-1), 2^i]` µs;
    /// index 0 covers `[0, 1]` µs; the last bucket is unbounded).
    pub(crate) fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// Prometheus text-exposition writers, shared by every metric-bearing layer
/// (the ingest loop here, the HTTP front in `xynet`).
pub mod expo {
    use super::Histogram;
    use std::fmt::Write;

    /// Append `# HELP`/`# TYPE` header lines for a metric family.
    // INVARIANT: writing to a String cannot fail.
    #[allow(clippy::unwrap_used)]
    pub(crate) fn header(out: &mut String, name: &str, help: &str, kind: &str) {
        writeln!(out, "# HELP {name} {help}").unwrap();
        writeln!(out, "# TYPE {name} {kind}").unwrap();
    }

    /// Append one counter family (`name` must already end in `_total`).
    // INVARIANT: writing to a String cannot fail.
    #[allow(clippy::unwrap_used)]
    pub fn counter(out: &mut String, name: &str, help: &str, value: u64) {
        debug_assert!(name.ends_with("_total"), "counter {name} must end in _total");
        header(out, name, help, "counter");
        writeln!(out, "{name} {value}").unwrap();
    }

    /// Append one counter family whose series carry a label, e.g.
    /// `http_responses_total{code="200"} 7`. Zero-valued series are kept so
    /// scrapes always see the full label set.
    // INVARIANT: writing to a String cannot fail.
    #[allow(clippy::unwrap_used)]
    pub fn labeled_counter(
        out: &mut String,
        name: &str,
        help: &str,
        label: &str,
        series: &[(String, u64)],
    ) {
        debug_assert!(name.ends_with("_total"), "counter {name} must end in _total");
        header(out, name, help, "counter");
        for (value, count) in series {
            writeln!(out, "{name}{{{label}=\"{value}\"}} {count}").unwrap();
        }
    }

    /// Append one gauge family.
    // INVARIANT: writing to a String cannot fail.
    #[allow(clippy::unwrap_used)]
    pub fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
        header(out, name, help, "gauge");
        writeln!(out, "{name} {value}").unwrap();
    }

    /// Append one histogram family in seconds (`name` should end in
    /// `_seconds`): cumulative `_bucket{le="…"}` series with exact `le`
    /// semantics (the histogram's µs buckets have inclusive upper bounds),
    /// then `_sum` and `_count`.
    // INVARIANT: writing to a String cannot fail.
    #[allow(clippy::unwrap_used)]
    pub fn histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
        header(out, name, help, "histogram");
        let counts = h.bucket_counts();
        let mut cumulative = 0u64;
        for (i, c) in counts.iter().enumerate().take(counts.len() - 1) {
            cumulative += c;
            let le = (1u64 << i) as f64 / 1e6;
            writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}").unwrap();
        }
        writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count()).unwrap();
        writeln!(out, "{name}_sum {}", h.sum_micros() as f64 / 1e6).unwrap();
        writeln!(out, "{name}_count {}", h.count()).unwrap();
    }
}

/// The ingest server's metric registry.
#[derive(Debug)]
pub struct Metrics {
    /// Snapshots accepted into the queue.
    pub enqueued: Counter,
    /// Snapshots whose processing finished successfully.
    pub succeeded: Counter,
    /// Snapshots given up on and moved to the dead-letter queue.
    pub dead_lettered: Counter,
    /// Subscription notifications fired by the alerter.
    pub alerts_fired: Counter,
    /// XML parse time per snapshot.
    pub parse_time: Histogram,
    /// BULD diff time per snapshot (from the repository's stats hook).
    pub diff_time: Histogram,
    /// Alerter evaluation time per snapshot.
    pub alert_time: Histogram,
    /// End-to-end processing time per snapshot (parse through store).
    pub total_time: Histogram,
    /// WAL append attempts that failed (the ingest was acked non-durable).
    pub wal_append_errors: Counter,
    /// Records applied during startup replay.
    pub wal_replayed: Counter,
    /// WAL append latency (enqueue through group-commit durability).
    pub wal_append_time: Histogram,
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            enqueued: Counter::default(),
            succeeded: Counter::default(),
            dead_lettered: Counter::default(),
            alerts_fired: Counter::default(),
            parse_time: Histogram::default(),
            diff_time: Histogram::default(),
            alert_time: Histogram::default(),
            total_time: Histogram::default(),
            wal_append_errors: Counter::default(),
            wal_replayed: Counter::default(),
            wal_append_time: Histogram::default(),
            started: Instant::now(),
        }
    }
}

impl Metrics {
    /// A fresh registry; the uptime clock starts now.
    pub(crate) fn new() -> Metrics {
        Metrics::default()
    }

    /// Seconds since the registry was created.
    pub(crate) fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Successfully processed documents per second of uptime.
    pub(crate) fn docs_per_sec(&self) -> f64 {
        let t = self.uptime_secs();
        if t <= 0.0 {
            0.0
        } else {
            self.succeeded.get() as f64 / t
        }
    }

    /// Prometheus text exposition of every counter, gauge, and histogram,
    /// with the queue's current depth and high water and the write-ahead
    /// log's counters (all zero without a log) read by the caller from
    /// their owners.
    pub(crate) fn render(
        &self,
        queue_depth: usize,
        queue_high_water: usize,
        wal: WalStats,
    ) -> String {
        let mut out = String::new();
        expo::counter(
            &mut out,
            "ingest_enqueued_total",
            "Snapshots accepted into the ingest queue.",
            self.enqueued.get(),
        );
        expo::counter(
            &mut out,
            "ingest_succeeded_total",
            "Snapshots fully processed and stored.",
            self.succeeded.get(),
        );
        expo::counter(
            &mut out,
            "ingest_dead_lettered_total",
            "Snapshots moved to the dead-letter queue.",
            self.dead_lettered.get(),
        );
        expo::counter(
            &mut out,
            "ingest_alerts_fired_total",
            "Subscription notifications fired by the alerter.",
            self.alerts_fired.get(),
        );
        expo::gauge(
            &mut out,
            "ingest_queue_depth",
            "Snapshots currently waiting in the ingest queue.",
            queue_depth as f64,
        );
        expo::gauge(
            &mut out,
            "ingest_queue_depth_high_water",
            "Highest queue depth observed since start.",
            queue_high_water as f64,
        );
        expo::gauge(
            &mut out,
            "ingest_uptime_seconds",
            "Seconds since the metrics registry was created.",
            self.uptime_secs(),
        );
        expo::gauge(
            &mut out,
            "ingest_docs_per_sec",
            "Successfully processed snapshots per second of uptime.",
            self.docs_per_sec(),
        );
        expo::histogram(
            &mut out,
            "ingest_parse_seconds",
            "XML parse time per snapshot.",
            &self.parse_time,
        );
        expo::histogram(
            &mut out,
            "ingest_diff_seconds",
            "BULD diff time per snapshot.",
            &self.diff_time,
        );
        expo::histogram(
            &mut out,
            "ingest_alert_seconds",
            "Alerter evaluation time per snapshot.",
            &self.alert_time,
        );
        expo::histogram(
            &mut out,
            "ingest_process_seconds",
            "End-to-end processing time per snapshot (parse through store).",
            &self.total_time,
        );
        expo::counter(
            &mut out,
            "ingest_wal_appends_total",
            "Records appended to the write-ahead log.",
            wal.appends,
        );
        expo::counter(
            &mut out,
            "ingest_wal_appended_bytes_total",
            "Bytes appended to the write-ahead log.",
            wal.appended_bytes,
        );
        expo::counter(
            &mut out,
            "ingest_wal_fsyncs_total",
            "Fsync calls issued by the write-ahead log.",
            wal.fsyncs,
        );
        expo::counter(
            &mut out,
            "ingest_wal_fsynced_records_total",
            "Records made durable by WAL fsyncs (group-commit throughput).",
            wal.fsynced_records,
        );
        expo::counter(
            &mut out,
            "ingest_wal_append_errors_total",
            "WAL append attempts that failed (ingest acked non-durable).",
            self.wal_append_errors.get(),
        );
        expo::counter(
            &mut out,
            "ingest_wal_replayed_total",
            "WAL records consumed during startup replay.",
            self.wal_replayed.get(),
        );
        expo::gauge(
            &mut out,
            "ingest_wal_segments",
            "Live WAL segment files.",
            wal.segments as f64,
        );
        expo::gauge(
            &mut out,
            "ingest_wal_fsync_batch_max",
            "Largest record batch a single fsync has made durable.",
            wal.max_fsync_batch as f64,
        );
        expo::histogram(
            &mut out,
            "ingest_wal_append_seconds",
            "WAL append latency (enqueue through group-commit durability).",
            &self.wal_append_time,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let m = Metrics::new();
        m.enqueued.add(3);
        m.enqueued.inc();
        assert_eq!(m.enqueued.get(), 4);
        let g = Gauge::default();
        g.set(2);
        assert_eq!(g.get(), 2);
        g.inc();
        assert_eq!(g.get(), 3);
        g.dec();
        g.dec();
        g.dec();
        g.dec();
        assert_eq!(g.get(), 0, "dec saturates at zero");
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(3));
        h.observe(Duration::from_micros(5));
        h.observe(Duration::from_micros(100));
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_micros(), 108);
    }

    #[test]
    fn histogram_bucket_bounds_are_inclusive() {
        let h = Histogram::default();
        // Exactly 2^4 µs must land in the bucket whose le is 16 µs.
        h.observe(Duration::from_micros(16));
        let counts = h.bucket_counts();
        assert_eq!(counts[4], 1, "{counts:?}");
        // 2^4 + 1 µs spills into the next bucket.
        let h = Histogram::default();
        h.observe(Duration::from_micros(17));
        let counts = h.bucket_counts();
        assert_eq!(counts[5], 1, "{counts:?}");
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let m = Metrics::new();
        m.succeeded.inc();
        m.alerts_fired.add(2);
        m.total_time.observe(Duration::from_millis(1));
        let wal = WalStats { appends: 4, segments: 2, ..WalStats::default() };
        let text = m.render(1, 3, wal);
        for needle in [
            "# TYPE ingest_enqueued_total counter",
            "# HELP ingest_succeeded_total",
            "ingest_succeeded_total 1",
            "ingest_alerts_fired_total 2",
            "# TYPE ingest_queue_depth gauge",
            "ingest_queue_depth 1\n",
            "ingest_queue_depth_high_water 3\n",
            "ingest_wal_appends_total 4\n",
            "ingest_wal_segments 2\n",
            "# TYPE ingest_process_seconds histogram",
            "ingest_process_seconds_bucket{le=\"+Inf\"} 1",
            "ingest_process_seconds_sum 0.001",
            "ingest_process_seconds_count 1",
            "ingest_docs_per_sec",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Histogram buckets are cumulative: the 1 ms observation must be
        // counted in every bucket from le=0.001024 upward.
        assert!(text.contains("ingest_process_seconds_bucket{le=\"0.001024\"} 1"), "{text}");
        // Counters never expose a bare (non-_total) name.
        for line in text.lines().filter(|l| l.starts_with("# TYPE")) {
            let mut parts = line.split_whitespace().skip(2);
            let (name, kind) = (parts.next().unwrap(), parts.next().unwrap());
            if kind == "counter" {
                assert!(name.ends_with("_total"), "counter {name} must end in _total");
            }
        }
    }

    #[test]
    fn zero_duration_observation_is_counted() {
        let h = Histogram::default();
        h.observe(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum_micros(), 0);
        let text = {
            let mut s = String::new();
            expo::histogram(&mut s, "t_seconds", "test", &h);
            s
        };
        assert!(text.contains("t_seconds_bucket{le=\"0.000001\"} 1"), "{text}");
    }

    #[test]
    fn labeled_counter_renders_every_series() {
        let mut out = String::new();
        expo::labeled_counter(
            &mut out,
            "http_responses_total",
            "Responses by status code.",
            "code",
            &[("200".to_string(), 5), ("404".to_string(), 0)],
        );
        assert!(out.contains("http_responses_total{code=\"200\"} 5"));
        assert!(out.contains("http_responses_total{code=\"404\"} 0"));
        assert!(out.contains("# TYPE http_responses_total counter"));
    }
}
