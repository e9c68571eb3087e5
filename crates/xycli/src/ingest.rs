//! `xydiff ingest` — run a directory of versioned snapshots through the
//! concurrent ingestion server.
//!
//! Corpus layout: each subdirectory of DIR is one document (key = directory
//! name) whose `*.xml` files, sorted by name, are successive versions; an
//! `*.xml` file directly in DIR is a single-version document keyed by its
//! file name. Snapshots of one document are submitted in order, documents
//! are interleaved round-robin so the worker pool actually overlaps work.
//!
//! Exit codes: 0 all snapshots stored, 1 some snapshots dead-lettered,
//! 2 usage/input error.

use crate::pipeline::PipelineFlags;
use crate::usage;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xyserve::IngestServer;

pub(crate) fn cmd_ingest(args: &[String]) -> Result<ExitCode, String> {
    let mut pipeline = PipelineFlags::default();
    let mut dir = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if pipeline.accept(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            f if !f.starts_with("--") => {
                if dir.replace(PathBuf::from(f)).is_some() {
                    return Err(format!("ingest takes one directory\n{}", usage()));
                }
            }
            other => return Err(format!("unknown flag {other:?} for ingest")),
        }
    }
    let quiet = pipeline.quiet;
    let config = pipeline.into_config()?;
    let Some(dir) = dir else {
        return Err(format!("ingest needs a corpus directory\n{}", usage()));
    };
    let corpus = scan_corpus(&dir)?;
    if corpus.is_empty() {
        return Err(format!("{}: no .xml snapshots found", dir.display()));
    }

    if !quiet {
        eprintln!("xydiff ingest: {config}");
    }
    let server = IngestServer::start(config);
    // Round-robin across documents: version i of every document before
    // version i+1 of any, so concurrent chains genuinely interleave.
    let mut round = 0;
    loop {
        let mut any = false;
        for (key, versions) in &corpus {
            if let Some(path) = versions.get(round) {
                any = true;
                let xml = std::fs::read_to_string(path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?;
                server
                    .submit(key, xml)
                    .map_err(|e| format!("submitting {}: {e}", path.display()))?;
            }
        }
        if !any {
            break;
        }
        round += 1;
    }

    let report = server.shutdown();
    eprintln!(
        "ingested {} snapshots of {} documents: {} stored, {} dead-lettered, {} alerts",
        report.submitted,
        corpus.len(),
        report.succeeded,
        report.dead_lettered,
        report.alerts_fired,
    );
    for dl in &report.dead_letters {
        eprintln!("dead-letter: {} v{}: {}", dl.key, dl.seq, dl.error);
    }
    if !report.is_balanced() {
        return Err("shutdown accounting is unbalanced (bug)".to_string());
    }
    if !quiet {
        print!("{}", report.metrics_text);
    }
    Ok(if report.dead_lettered == 0 { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

/// Collect `(key, ordered snapshot paths)` pairs, sorted by key so output
/// and submission order are deterministic.
fn scan_corpus(dir: &Path) -> Result<Vec<(String, Vec<PathBuf>)>, String> {
    let mut corpus = Vec::new();
    for entry in list_sorted(dir)? {
        let name = entry
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("{}: non-UTF-8 file name", entry.display()))?
            .to_string();
        if entry.is_dir() {
            let versions: Vec<PathBuf> = list_sorted(&entry)?
                .into_iter()
                .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "xml"))
                .collect();
            if !versions.is_empty() {
                corpus.push((name, versions));
            }
        } else if entry.extension().is_some_and(|e| e == "xml") {
            corpus.push((name, vec![entry]));
        }
    }
    Ok(corpus)
}

fn list_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .map(|r| r.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reading {}: {e}", dir.display()))?;
    paths.sort();
    Ok(paths)
}
