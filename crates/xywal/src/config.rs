//! Where and how the log writes: the durability policy and the log's
//! configuration.

use std::path::PathBuf;

/// How eagerly appends are made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSync {
    /// Group-commit fsync before every append returns (the default): an
    /// acknowledged record survives power loss.
    Always,
    /// Never fsync on append (only on segment seal and [`Wal::sync`](crate::Wal::sync)): an
    /// acknowledged record survives a process crash but not power loss.
    /// Appends report `durable: false`.
    None,
}

impl WalSync {
    /// Parse a CLI spelling (`always` | `none`).
    pub fn parse(s: &str) -> Option<WalSync> {
        match s {
            "always" => Some(WalSync::Always),
            "none" => Some(WalSync::None),
            _ => None,
        }
    }
}

impl std::fmt::Display for WalSync {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalSync::Always => f.write_str("always"),
            WalSync::None => f.write_str("none"),
        }
    }
}

/// Where and how a [`Wal`](crate::Wal) writes.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Log directory (created if missing).
    pub dir: PathBuf,
    /// Durability policy for appends.
    pub sync: WalSync,
    /// Capacity at which the active segment is sealed and a new one
    /// started.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// A config with the default policy: sync on every append, 4 MiB
    /// segments.
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig { dir: dir.into(), sync: WalSync::Always, segment_bytes: 4 << 20 }
    }

    /// Set the durability policy.
    #[must_use]
    pub fn with_sync(mut self, sync: WalSync) -> WalConfig {
        self.sync = sync;
        self
    }
}
