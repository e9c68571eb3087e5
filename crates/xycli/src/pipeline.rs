//! The ingest-pipeline flags `xydiff serve` and `xydiff ingest` share,
//! parsed in one place: `--workers --queue --shards --diff-threads --mode
//! --wal-dir --wal-sync --compact-chain-max --quiet`.

use xyserve::{ServeConfig, WalPolicy, WalSync};

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
    /// flag; `Ok(false)` leaves it to the calling command.
    pub(crate) fn accept<'a>(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        let config = &mut self.config;
        match flag {
            "--workers" => config.workers = flag_value(it, flag)?,
            "--queue" => config.queue_capacity = flag_value(it, flag)?,
            "--shards" => config.shards = flag_value(it, flag)?,
            "--diff-threads" => config.diff_threads = flag_value(it, flag)?,
            "--compact-chain-max" => config.compact_chain_max = flag_value(it, flag)?,
            "--mode" => {
                let v = it.next().ok_or("--mode needs a value (buld|unordered|similarity)")?;
                config.diff_options.mode = v.parse().map_err(|e| format!("--mode: {e}"))?;
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

    /// The configuration the flags describe: range rules checked by
    /// [`ServeConfig::validate`], the WAL policy folded in.
    pub(crate) fn into_config(self) -> Result<ServeConfig, String> {
        self.config.validate().map_err(|e| e.to_string())?;
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
