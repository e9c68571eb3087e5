//! The ingest-pipeline flags `xydiff serve` and `xydiff ingest` share,
//! parsed in one place: `--workers --queue --mode --wal-dir --wal-sync
//! --compact-chain-max --quiet`. Two retired flags accept only the value
//! they always had, which sets nothing, and refuse any other:
//! `--shards 8` (the store locks per key) and `--diff-threads 1` (a diff
//! runs on one thread; `--workers` sets how many documents are diffed at
//! once).

use xydiff::DiffOptions;
use xyserve::{ConfigError, ServeConfig, WalPolicy, WalSync};

/// The pipeline flags seen so far on one command line.
#[derive(Default)]
pub(crate) struct PipelineFlags {
    config: ServeConfig,
    wal_dir: Option<String>,
    wal_sync: Option<WalSync>,
    /// `--quiet`: suppress the startup line and the metrics dump.
    pub(crate) quiet: bool,
}

impl PipelineFlags {
    /// Consume `flag` — and its value from `it` — when it is a pipeline
    /// flag; `Ok(false)` leaves it to the calling command. A count goes
    /// through its `ServeConfig` builder, so a value the builder rejects is
    /// refused here, with the builder's [`ConfigError`] message.
    pub(crate) fn accept<'a>(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        type Build = fn(ServeConfig, usize) -> Result<ServeConfig, ConfigError>;
        let mut count = |build: Build| -> Result<(), String> {
            let value = flag_value(it, flag)?;
            let config = std::mem::take(&mut self.config);
            self.config = build(config, value).map_err(|e| e.to_string())?;
            Ok(())
        };
        match flag {
            "--workers" => count(ServeConfig::with_workers)?,
            "--queue" => count(ServeConfig::with_queue_capacity)?,
            "--shards" => count(ServeConfig::with_shards)?,
            "--diff-threads" => count(ServeConfig::with_diff_threads)?,
            "--compact-chain-max" => count(|c, max| Ok(c.with_compact_chain_max(max)))?,
            "--mode" => {
                let v = it.next().ok_or("--mode needs a value (buld|unordered|similarity)")?;
                let mode = v.parse().map_err(|e| format!("--mode: {e}"))?;
                let opts = DiffOptions { mode, ..DiffOptions::default() };
                self.config = std::mem::take(&mut self.config).with_diff_options(opts);
            }
            "--wal-dir" => {
                let v = it.next().ok_or("--wal-dir needs a directory")?;
                self.wal_dir = Some(v.clone());
            }
            "--wal-sync" => {
                let v = it.next().ok_or("--wal-sync needs a mode (always | none)")?;
                self.wal_sync = Some(
                    WalSync::parse(v)
                        .ok_or_else(|| format!("--wal-sync must be always or none, got {v:?}"))?,
                );
            }
            "--quiet" => self.quiet = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The configuration the flags describe, the WAL policy folded in.
    pub(crate) fn into_config(self) -> Result<ServeConfig, String> {
        let Some(dir) = self.wal_dir else {
            return match self.wal_sync {
                Some(_) => Err("--wal-sync needs --wal-dir".to_string()),
                None => Ok(self.config),
            };
        };
        let mut policy = WalPolicy::new(dir);
        if let Some(sync) = self.wal_sync {
            policy = policy.with_sync(sync);
        }
        Ok(self.config.with_wal(policy))
    }
}

/// The non-negative integer following `flag`.
pub(crate) fn flag_value<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<usize, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<usize>().map_err(|_| format!("{flag} needs a positive integer, got {v:?}"))
}
