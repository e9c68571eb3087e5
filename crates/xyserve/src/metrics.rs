//! Lock-free operational metrics with a Prometheus text exposition.
//!
//! Atomic counters, a gauge with a high-water mark for queue depth, and
//! power-of-two-bucket latency histograms for the per-phase timings the
//! paper's Figure 1 loop goes through (parse, diff, store+alert).
//! [`Metrics::render`] produces the exposition `GET /metrics` serves, and
//! the [`expo`] helpers let other layers (the HTTP front in `xynet`) append
//! their own metric families to the same scrape in the same format.
//!
//! The exposition follows the Prometheus conventions: every family carries
//! `# HELP`/`# TYPE` lines, counters end in `_total`, and histograms are
//! exposed in *seconds* as cumulative `_bucket{le="…"}` series with `_sum`
//! and `_count`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sync this counter to an externally maintained monotone total (e.g. a
    /// counter owned by the write-ahead log). `fetch_max` keeps the counter
    /// monotone even when several workers observe the total concurrently.
    pub fn observe_total(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable value that also remembers the highest value it ever held.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    high_water: AtomicU64,
}

impl Gauge {
    /// Set the current value, updating the high-water mark.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Add one (for gauges tracking an active count).
    pub fn inc(&self) {
        let v = self.value.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Subtract one, saturating at zero.
    pub fn dec(&self) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest value ever set.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
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
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Mean observation in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros().checked_div(self.count()).unwrap_or(0)
    }

    /// Largest observation in microseconds.
    pub fn max_micros(&self) -> u64 {
        self.max_micros.load(Ordering::Relaxed)
    }

    /// Non-cumulative bucket counts (index `i` covers `(2^(i-1), 2^i]` µs;
    /// index 0 covers `[0, 1]` µs; the last bucket is unbounded).
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Inclusive upper bound (µs) of the smallest bucket that contains the
    /// `q`-quantile — a coarse percentile good enough for dashboards.
    pub fn quantile_bound_micros(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((n as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return 1u64 << (i as u32).min(63);
            }
        }
        self.max_micros()
    }
}

/// Prometheus text-exposition writers, shared by every metric-bearing layer
/// (the ingest loop here, the HTTP front in `xynet`).
pub mod expo {
    use super::Histogram;
    use std::fmt::Write;

    /// Append `# HELP`/`# TYPE` header lines for a metric family.
    pub fn header(out: &mut String, name: &str, help: &str, kind: &str) {
        // INVARIANT: writing to a String cannot fail.
        writeln!(out, "# HELP {name} {help}").unwrap();
        // INVARIANT: writing to a String cannot fail.
        writeln!(out, "# TYPE {name} {kind}").unwrap();
    }

    /// Append one counter family (`name` must already end in `_total`).
    pub fn counter(out: &mut String, name: &str, help: &str, value: u64) {
        debug_assert!(name.ends_with("_total"), "counter {name} must end in _total");
        header(out, name, help, "counter");
        // INVARIANT: writing to a String cannot fail.
        writeln!(out, "{name} {value}").unwrap();
    }

    /// Append one counter family whose series carry a label, e.g.
    /// `http_responses_total{code="200"} 7`. Zero-valued series are kept so
    /// scrapes always see the full label set.
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
            // INVARIANT: writing to a String cannot fail.
            writeln!(out, "{name}{{{label}=\"{value}\"}} {count}").unwrap();
        }
    }

    /// Append one gauge family.
    pub fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
        header(out, name, help, "gauge");
        // INVARIANT: writing to a String cannot fail.
        writeln!(out, "{name} {value}").unwrap();
    }

    /// Append one histogram family in seconds (`name` should end in
    /// `_seconds`): cumulative `_bucket{le="…"}` series with exact `le`
    /// semantics (the histogram's µs buckets have inclusive upper bounds),
    /// then `_sum` and `_count`.
    pub fn histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
        header(out, name, help, "histogram");
        let counts = h.bucket_counts();
        let mut cumulative = 0u64;
        for (i, c) in counts.iter().enumerate().take(counts.len() - 1) {
            cumulative += c;
            let le = (1u64 << i) as f64 / 1e6;
            // INVARIANT: writing to a String cannot fail.
            writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}").unwrap();
        }
        // INVARIANT: writing to a String cannot fail.
        writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count()).unwrap();
        // INVARIANT: writing to a String cannot fail.
        writeln!(out, "{name}_sum {}", h.sum_micros() as f64 / 1e6).unwrap();
        // INVARIANT: writing to a String cannot fail.
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
    /// Snapshots pending in the queue (with high-water mark).
    pub queue_depth: Gauge,
    /// XML parse time per snapshot.
    pub parse_time: Histogram,
    /// BULD diff time per snapshot (from the repository's stats hook).
    pub diff_time: Histogram,
    /// Alerter evaluation time per snapshot.
    pub alert_time: Histogram,
    /// End-to-end processing time per snapshot (parse through store).
    pub total_time: Histogram,
    /// Records appended to the write-ahead log.
    pub wal_appends: Counter,
    /// Bytes appended to the write-ahead log (frames, not payloads).
    pub wal_appended_bytes: Counter,
    /// Fsync calls issued by the write-ahead log.
    pub wal_fsyncs: Counter,
    /// Records made durable by those fsyncs (group-commit throughput).
    pub wal_fsynced_records: Counter,
    /// WAL append attempts that failed (the ingest was acked non-durable).
    pub wal_append_errors: Counter,
    /// Records applied during startup replay.
    pub wal_replayed: Counter,
    /// Version chains folded through checkpoint compaction.
    pub compactions: Counter,
    /// Live WAL segment files (with high-water mark).
    pub wal_segments: Gauge,
    /// Largest record batch a single fsync has made durable.
    pub wal_fsync_batch_max: Gauge,
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
            queue_depth: Gauge::default(),
            parse_time: Histogram::default(),
            diff_time: Histogram::default(),
            alert_time: Histogram::default(),
            total_time: Histogram::default(),
            wal_appends: Counter::default(),
            wal_appended_bytes: Counter::default(),
            wal_fsyncs: Counter::default(),
            wal_fsynced_records: Counter::default(),
            wal_append_errors: Counter::default(),
            wal_replayed: Counter::default(),
            compactions: Counter::default(),
            wal_segments: Gauge::default(),
            wal_fsync_batch_max: Gauge::default(),
            wal_append_time: Histogram::default(),
            started: Instant::now(),
        }
    }
}

impl Metrics {
    /// A fresh registry; the uptime clock starts now.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Seconds since the registry was created.
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Successfully processed documents per second of uptime.
    pub fn docs_per_sec(&self) -> f64 {
        let t = self.uptime_secs();
        if t <= 0.0 {
            0.0
        } else {
            self.succeeded.get() as f64 / t
        }
    }

    /// Prometheus text exposition of every counter, gauge, and histogram.
    pub fn render(&self) -> String {
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
            self.queue_depth.get() as f64,
        );
        expo::gauge(
            &mut out,
            "ingest_queue_depth_high_water",
            "Highest queue depth observed since start.",
            self.queue_depth.high_water() as f64,
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
            self.wal_appends.get(),
        );
        expo::counter(
            &mut out,
            "ingest_wal_appended_bytes_total",
            "Bytes appended to the write-ahead log.",
            self.wal_appended_bytes.get(),
        );
        expo::counter(
            &mut out,
            "ingest_wal_fsyncs_total",
            "Fsync calls issued by the write-ahead log.",
            self.wal_fsyncs.get(),
        );
        expo::counter(
            &mut out,
            "ingest_wal_fsynced_records_total",
            "Records made durable by WAL fsyncs (group-commit throughput).",
            self.wal_fsynced_records.get(),
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
        expo::counter(
            &mut out,
            "ingest_chain_compactions_total",
            "Version chains folded through checkpoint compaction.",
            self.compactions.get(),
        );
        expo::gauge(
            &mut out,
            "ingest_wal_segments",
            "Live WAL segment files.",
            self.wal_segments.get() as f64,
        );
        expo::gauge(
            &mut out,
            "ingest_wal_fsync_batch_max",
            "Largest record batch a single fsync has made durable.",
            self.wal_fsync_batch_max.get() as f64,
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
        m.queue_depth.set(7);
        m.queue_depth.set(2);
        assert_eq!(m.queue_depth.get(), 2);
        assert_eq!(m.queue_depth.high_water(), 7);
        m.queue_depth.inc();
        assert_eq!(m.queue_depth.get(), 3);
        m.queue_depth.dec();
        m.queue_depth.dec();
        m.queue_depth.dec();
        m.queue_depth.dec();
        assert_eq!(m.queue_depth.get(), 0, "dec saturates at zero");
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(3));
        h.observe(Duration::from_micros(5));
        h.observe(Duration::from_micros(100));
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean_micros(), 36);
        assert_eq!(h.max_micros(), 100);
        // p50 lands in the (2,4] µs bucket, p99 must cover the 100 µs sample.
        assert!(h.quantile_bound_micros(0.5) <= 8);
        assert!(h.quantile_bound_micros(0.99) >= 100);
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
        let text = m.render();
        for needle in [
            "# TYPE ingest_enqueued_total counter",
            "# HELP ingest_succeeded_total",
            "ingest_succeeded_total 1",
            "ingest_alerts_fired_total 2",
            "# TYPE ingest_queue_depth gauge",
            "ingest_queue_depth_high_water",
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
        assert_eq!(h.mean_micros(), 0);
        let text = {
            let mut s = String::new();
            expo::histogram(&mut s, "t_seconds", "test", &h);
            s
        };
        assert!(text.contains("t_seconds_bucket{le=\"0.000001\"} 1"), "{text}");
    }

    #[test]
    fn observe_total_is_monotone() {
        let c = Counter::default();
        c.observe_total(5);
        assert_eq!(c.get(), 5);
        // A stale (smaller) total observed late never winds the counter back.
        c.observe_total(3);
        assert_eq!(c.get(), 5);
        c.observe_total(9);
        assert_eq!(c.get(), 9);
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
