//! `xydiff wal inspect` — read-only inspection of a write-ahead delta log.
//!
//! Prints the segment layout and per-key chain activity, and verifies
//! every record: the frame checksums already held
//! (or `scan` would have reported the record as torn/corrupt), so what is
//! checked here is the *payload* — initial documents must parse, deltas
//! must parse and pass the static validator (`xydelta::verify`).
//!
//! Exit codes: 0 log healthy, 1 torn tail or invalid payloads found,
//! 2 usage/IO error, corruption in a sealed segment, or a log that does not
//! start at LSN 1 (the error names the first LSN found).

use crate::usage;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use xydelta::xml_io;
use xytree::Document;
use xywal::{scan, Record};

pub(crate) fn cmd_wal(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("inspect") => {
            let [dir] = &args[1..] else {
                return Err(format!("wal inspect needs exactly one directory\n{}", usage()));
            };
            inspect(Path::new(dir))
        }
        Some(other) => Err(format!("unknown wal subcommand {other:?}\n{}", usage())),
        None => Err(format!("wal needs a subcommand (inspect)\n{}", usage())),
    }
}

/// Per-key accounting accumulated over the scan.
#[derive(Default)]
struct KeyInfo {
    inits: usize,
    deltas: usize,
    first_lsn: u64,
    last_lsn: u64,
    last_version: u64,
    bad_payloads: usize,
}

fn inspect(dir: &Path) -> Result<ExitCode, String> {
    let report = scan(dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    println!("wal {}", dir.display());
    println!("  segments  {}", report.segments.len());
    for seg in &report.segments {
        let name = seg.path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        match seg.last_lsn() {
            Some(last) => println!(
                "    {name}: lsn {}..={} ({} records, {} bytes)",
                seg.first_lsn, last, seg.records, seg.bytes
            ),
            None => println!("    {name}: empty (next lsn {})", seg.first_lsn),
        }
    }
    if let Some(torn) = &report.torn {
        let name = torn.segment.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        println!(
            "  TORN TAIL in {name}: {} valid bytes, {} lost ({})",
            torn.valid_bytes, torn.lost_bytes, torn.reason
        );
    }

    let mut keys: BTreeMap<&str, KeyInfo> = BTreeMap::new();
    let mut bad = 0usize;
    for (lsn, record) in &report.records {
        let info = keys.entry(record.key()).or_default();
        if info.first_lsn == 0 {
            info.first_lsn = *lsn;
        }
        info.last_lsn = *lsn;
        let payload_ok = match record {
            Record::Init { xml, .. } => {
                info.inits += 1;
                info.last_version = 0;
                Document::parse(xml).is_ok()
            }
            Record::Delta { version, delta_xml, .. } => {
                info.deltas += 1;
                info.last_version = *version;
                xml_io::parse_delta(delta_xml)
                    .ok()
                    .is_some_and(|d| xydelta::verify(&d).is_ok())
            }
        };
        if !payload_ok {
            info.bad_payloads += 1;
            bad += 1;
            println!("  INVALID payload at lsn {lsn} (key {:?})", record.key());
        }
    }

    println!("  records   {} across {} keys", report.records.len(), keys.len());
    for (key, info) in &keys {
        print!(
            "    {key:?}: {} init + {} deltas, lsn {}..={}, latest version {}",
            info.inits, info.deltas, info.first_lsn, info.last_lsn, info.last_version
        );
        if info.bad_payloads > 0 {
            print!(", {} INVALID", info.bad_payloads);
        }
        println!();
    }

    let healthy = report.torn.is_none() && bad == 0;
    println!("  status    {}", if healthy { "ok" } else { "UNHEALTHY" });
    Ok(if healthy { ExitCode::SUCCESS } else { ExitCode::from(1) })
}
