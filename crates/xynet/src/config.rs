//! Network-layer configuration.

use std::time::Duration;

/// Configuration for [`crate::NetServer`]: where to listen and how the HTTP
/// layer behaves. The ingestion pipeline behind it is configured separately
/// via [`xyserve::ServeConfig`].
///
/// Construct with [`NetConfig::new`] and the `with_*` builders; the struct is
/// `#[non_exhaustive]` so fields can be added without breaking callers.
///
/// ```
/// use xynet::NetConfig;
/// let config = NetConfig::new()
///     .with_addr("127.0.0.1:0")
///     .with_max_connections(2048)
///     .with_idle_timeout(std::time::Duration::from_secs(30));
/// assert_eq!(config.addr, "127.0.0.1:0");
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct NetConfig {
    /// Listen address, e.g. `"127.0.0.1:8080"`. Port 0 picks a free port
    /// (the bound address is available via [`crate::NetServer::local_addr`]).
    pub addr: String,
    /// Largest accepted request body; larger `Content-Length` gets `413`.
    pub max_body_bytes: usize,
    /// Largest accepted request head (request line + headers); `431` beyond.
    pub max_head_bytes: usize,
    /// `Retry-After` value (seconds) sent with backpressure `503`s.
    pub retry_after_secs: u64,
    /// Reactor eviction deadline: a connection that completes no response
    /// for this long — idle keep-alive, a slow-loris trickling its head,
    /// or a peer not reading its response — is closed and counted in
    /// `http_evicted_connections_total`. Requests waiting on the scheduler
    /// are exempt.
    pub idle_timeout: Duration,
    /// Hard cap on open connections: at this many, the listener pauses
    /// (`http_accept_paused` gauge) and resumes once the count falls to a
    /// low-water mark (1/16 below the cap).
    pub max_connections: usize,
    /// Soft cap: above this many open connections, new arrivals are
    /// answered `503` + `Retry-After` and closed without being registered.
    pub shed_connections: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_body_bytes: 4 << 20,
            max_head_bytes: 8 << 10,
            retry_after_secs: 1,
            idle_timeout: Duration::from_secs(10),
            max_connections: 8192,
            shed_connections: 8192 - 8192 / 8,
        }
    }
}

impl NetConfig {
    /// The default configuration: loopback on a free port, 4 MiB body
    /// limit, 8 KiB head limit, 10 s idle timeout, 8192-connection cap with
    /// shedding from 7168.
    pub fn new() -> NetConfig {
        NetConfig::default()
    }

    /// Set the listen address.
    #[must_use]
    pub fn with_addr(mut self, addr: impl Into<String>) -> NetConfig {
        self.addr = addr.into();
        self
    }

    /// Set the request-body size limit enforced with `413`.
    #[must_use]
    pub fn with_max_body_bytes(mut self, bytes: usize) -> NetConfig {
        self.max_body_bytes = bytes;
        self
    }

    /// Set the request-head size limit enforced with `431`.
    #[must_use]
    pub fn with_max_head_bytes(mut self, bytes: usize) -> NetConfig {
        self.max_head_bytes = bytes;
        self
    }

    /// Set the `Retry-After` seconds sent with backpressure `503`s.
    #[must_use]
    pub fn with_retry_after_secs(mut self, secs: u64) -> NetConfig {
        self.retry_after_secs = secs;
        self
    }

    /// Set the reactor's idle/slow-loris eviction deadline (minimum 1 ms).
    #[must_use]
    pub fn with_idle_timeout(mut self, timeout: Duration) -> NetConfig {
        self.idle_timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Set the open-connection hard cap (minimum 8). Also re-derives
    /// `shed_connections` to 1/8 below the cap; call
    /// [`NetConfig::with_shed_connections`] *after* this to override.
    #[must_use]
    pub fn with_max_connections(mut self, max: usize) -> NetConfig {
        self.max_connections = max.max(8);
        self.shed_connections = self.max_connections - self.max_connections / 8;
        self
    }

    /// Set the connection-count shed threshold (clamped to the hard cap).
    #[must_use]
    pub fn with_shed_connections(mut self, shed: usize) -> NetConfig {
        self.shed_connections = shed.max(1).min(self.max_connections);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose_and_clamp() {
        let c = NetConfig::new()
            .with_addr("0.0.0.0:9000")
            .with_max_body_bytes(123)
            .with_max_head_bytes(456)
            .with_retry_after_secs(7);
        assert_eq!(c.addr, "0.0.0.0:9000");
        assert_eq!(c.max_body_bytes, 123);
        assert_eq!(c.max_head_bytes, 456);
        assert_eq!(c.retry_after_secs, 7);
    }

    #[test]
    fn reactor_knobs_clamp_and_derive() {
        let c = NetConfig::new()
            .with_idle_timeout(Duration::ZERO)
            .with_max_connections(0);
        assert_eq!(c.idle_timeout, Duration::from_millis(1));
        assert_eq!(c.max_connections, 8);
        assert_eq!(c.shed_connections, 7, "shed re-derives from the cap");

        let c = NetConfig::new().with_max_connections(1000).with_shed_connections(4000);
        assert_eq!(c.shed_connections, 1000, "shed clamps to the cap");
        let defaults = NetConfig::new();
        assert_eq!(defaults.shed_connections, 7168);
    }
}
