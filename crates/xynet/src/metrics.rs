//! HTTP-layer metrics, appended to the ingest pipeline's exposition.
//!
//! The ingest loop owns its own registry ([`xyserve::Metrics`]); this one
//! covers what only the network front can see — connections, per-route and
//! per-status request counts, and the end-to-end request latency including
//! time spent waiting on the ingest ticket. Both render through the shared
//! [`xyserve::metrics::expo`] writers, so `GET /metrics` is one consistent
//! Prometheus document.

use xyserve::metrics::{expo, Counter, Gauge, Histogram};

/// Routes the server distinguishes in `http_requests_total{route=...}`.
const ROUTES: &[&str] = &["ingest", "metrics", "healthz", "doc", "admin", "other"];

/// Statuses the server emits, pre-allocated so counting stays lock-free.
const STATUSES: &[u16] = &[200, 202, 400, 404, 405, 411, 413, 422, 431, 501, 503];

/// Metric registry for the HTTP layer.
#[derive(Debug, Default)]
pub struct HttpMetrics {
    /// Connections accepted.
    pub connections: Counter,
    /// Connections currently being served.
    pub active_connections: Gauge,
    /// Connections evicted by the reactor's idle/slow-loris deadline.
    pub evicted: Counter,
    /// Connections shed at accept with `503` (above `shed_connections`).
    pub shed: Counter,
    /// 1 while the listener is paused at the `max_connections` high-water
    /// mark, 0 otherwise.
    pub accept_paused: Gauge,
    /// Requests that failed before a route was resolved (parse errors).
    pub rejected: Counter,
    /// Requests per route, indexed like [`ROUTES`].
    routes: [Counter; 6],
    /// Responses per status, indexed like [`STATUSES`]; last slot = other.
    statuses: [Counter; 12],
    /// Wall-clock request latency: first head byte to response written,
    /// including the wait for the ingest outcome.
    pub request_time: Histogram,
    /// Time `POST /ingest` spent waiting for its pipeline outcome (submit
    /// to completion callback).
    pub ingest_wait_time: Histogram,
    /// Time each readiness-loop iteration spent processing (poll wait
    /// excluded): the reactor's saturation signal.
    pub loop_time: Histogram,
}

impl HttpMetrics {
    /// A zeroed registry.
    pub fn new() -> HttpMetrics {
        HttpMetrics::default()
    }

    /// Count one request against its route family (unknown routes land in
    /// `other`).
    pub fn observe_route(&self, route: &str) {
        let i = ROUTES.iter().position(|r| *r == route).unwrap_or(ROUTES.len() - 1);
        self.routes[i].inc();
    }

    /// Count one response by status code.
    pub fn observe_status(&self, code: u16) {
        let i = STATUSES.iter().position(|s| *s == code).unwrap_or(STATUSES.len());
        self.statuses[i].inc();
    }

    /// Responses recorded for `code` so far.
    pub fn status_count(&self, code: u16) -> u64 {
        let i = STATUSES.iter().position(|s| *s == code).unwrap_or(STATUSES.len());
        self.statuses[i].get()
    }

    /// Requests recorded for `route` so far.
    pub fn route_count(&self, route: &str) -> u64 {
        let i = ROUTES.iter().position(|r| *r == route).unwrap_or(ROUTES.len() - 1);
        self.routes[i].get()
    }

    /// Total requests received across every route.
    pub fn requests_total(&self) -> u64 {
        self.routes.iter().map(Counter::get).sum()
    }

    /// Append this registry's families to a Prometheus exposition.
    pub fn render_into(&self, out: &mut String) {
        expo::counter(
            out,
            "http_connections_total",
            "Connections accepted by the network front.",
            self.connections.get(),
        );
        expo::gauge(
            out,
            "http_active_connections",
            "Connections currently being served.",
            self.active_connections.get() as f64,
        );
        expo::counter(
            out,
            "http_evicted_connections_total",
            "Connections evicted by the idle/slow-loris deadline.",
            self.evicted.get(),
        );
        expo::counter(
            out,
            "http_shed_connections_total",
            "Connections shed at accept with 503 (connection-count backpressure).",
            self.shed.get(),
        );
        expo::gauge(
            out,
            "http_accept_paused",
            "1 while the listener is paused at the connection high-water mark.",
            self.accept_paused.get() as f64,
        );
        expo::counter(
            out,
            "http_rejected_requests_total",
            "Requests rejected before routing (malformed or over limits).",
            self.rejected.get(),
        );
        let routes: Vec<(String, u64)> = ROUTES
            .iter()
            .zip(&self.routes)
            .map(|(r, c)| ((*r).to_string(), c.get()))
            .collect();
        expo::labeled_counter(
            out,
            "http_requests_total",
            "Requests received, by route.",
            "route",
            &routes,
        );
        let statuses: Vec<(String, u64)> = STATUSES
            .iter()
            .map(|s| s.to_string())
            .chain(["other".to_string()])
            .zip(self.statuses.iter().map(Counter::get))
            .collect();
        expo::labeled_counter(
            out,
            "http_responses_total",
            "Responses sent, by status code.",
            "code",
            &statuses,
        );
        expo::histogram(
            out,
            "http_request_seconds",
            "Request latency from head read to response written.",
            &self.request_time,
        );
        expo::histogram(
            out,
            "http_ingest_wait_seconds",
            "Time POST /ingest spent waiting for the pipeline outcome.",
            &self.ingest_wait_time,
        );
        expo::histogram(
            out,
            "http_loop_iteration_seconds",
            "Readiness-loop iteration processing time (poll wait excluded).",
            &self.loop_time,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn render_emits_every_family_with_headers() {
        let m = HttpMetrics::new();
        m.connections.inc();
        m.active_connections.set(1);
        m.observe_route("ingest");
        m.observe_route("nonsense");
        m.observe_status(200);
        m.observe_status(599);
        m.request_time.observe(Duration::from_micros(750));
        m.ingest_wait_time.observe(Duration::from_micros(20));
        m.evicted.inc();
        m.shed.inc();
        m.accept_paused.set(1);
        m.loop_time.observe(Duration::from_micros(5));

        let mut out = String::new();
        m.render_into(&mut out);
        assert!(out.contains("# TYPE http_connections_total counter"), "{out}");
        assert!(out.contains("http_connections_total 1"));
        assert!(out.contains("http_active_connections 1"));
        assert!(out.contains("http_evicted_connections_total 1"));
        assert!(out.contains("http_shed_connections_total 1"));
        assert!(out.contains("http_accept_paused 1"));
        assert!(out.contains("http_loop_iteration_seconds_count 1"));
        assert!(out.contains("http_requests_total{route=\"ingest\"} 1"));
        assert!(out.contains("http_requests_total{route=\"other\"} 1"));
        assert!(out.contains("http_responses_total{code=\"200\"} 1"));
        assert!(out.contains("http_responses_total{code=\"other\"} 1"));
        assert!(out.contains("# TYPE http_request_seconds histogram"));
        assert!(out.contains("http_request_seconds_count 1"));
        assert!(out.contains("http_ingest_wait_seconds_count 1"));
    }

    #[test]
    fn counts_are_queryable_for_tests() {
        let m = HttpMetrics::new();
        m.observe_status(503);
        m.observe_status(503);
        m.observe_route("metrics");
        assert_eq!(m.status_count(503), 2);
        assert_eq!(m.status_count(200), 0);
        assert_eq!(m.route_count("metrics"), 1);
    }
}
