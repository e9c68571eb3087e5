//! `xydiff store` — the Figure 1 pipeline as a directory-backed CLI store.
//!
//! The directory is a write-ahead log in the server's own format (`xywal`
//! segments): each invocation starts an in-process [`IngestServer`] over
//! it, which replays the log, and `load` goes through the server's write
//! path, which appends the new version before acknowledging it. A shell
//! session *is* a warehouse session, and `xydiff serve --wal-dir DIR` and
//! `xydiff wal inspect DIR` read the same files:
//!
//! ```text
//! xydiff store ./repo load cameras.xml crawl-monday.xml
//! xydiff store ./repo load cameras.xml crawl-friday.xml   # runs the diff
//! xydiff store ./repo history cameras.xml
//! xydiff store ./repo get cameras.xml 0                   # querying the past
//! xydiff store ./repo changes cameras.xml 0 1             # the delta
//! ```

use crate::{read_input, usage};
use std::path::Path;
use std::process::ExitCode;
use xyserve::{IngestServer, ServeConfig, WalPolicy};

pub(crate) fn cmd_store(args: &[String]) -> Result<ExitCode, String> {
    let [dir, action, rest @ ..] = args else {
        return Err(format!("store needs DIR and an action\n{}", usage()));
    };
    let dir = Path::new(dir);
    match action.as_str() {
        "load" => store_load(dir, rest),
        "get" => store_get(dir, rest),
        "history" => store_history(dir, rest),
        "changes" => store_changes(dir, rest),
        "keys" => store_keys(dir),
        other => Err(format!("unknown store action {other:?}\n{}", usage())),
    }
}

/// Start a server over the log at `dir`, replaying it. A missing directory
/// is refused: only `load` creates one, before calling this.
fn open_store(dir: &Path) -> Result<IngestServer, String> {
    if dir.join("manifest.txt").exists() {
        return Err(format!(
            "{}: this is a chain-directory store (manifest.txt, doc-*/v0.xml) written by an \
             earlier release; a store is now a write-ahead log directory and that layout is \
             no longer read",
            dir.display()
        ));
    }
    if !dir.is_dir() {
        return Err(format!("no store at {}", dir.display()));
    }
    // INVARIANT: 1 is a valid worker count.
    let config =
        ServeConfig::new().with_workers(1).expect("one worker").with_wal(WalPolicy::new(dir));
    IngestServer::try_start(config).map_err(|e| format!("opening store {}: {e}", dir.display()))
}

fn store_load(dir: &Path, rest: &[String]) -> Result<ExitCode, String> {
    let [key, file] = rest else {
        return Err(format!("store load needs KEY FILE.xml\n{}", usage()));
    };
    let xml = read_input(file)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let server = open_store(dir)?;
    let done = server
        .submit_tracked(key, xml)
        .map_err(|e| e.to_string())?
        .wait()
        .map_err(|letter| format!("loading {file} as {key}: {}", letter.error))?;
    if !done.durable {
        return Err(format!(
            "loading {file} as {key}: the log append failed, v{} is not stored",
            done.version
        ));
    }
    let c = match done.version {
        0 => Default::default(),
        v => server
            .repository_for(key)
            .delta_between(key, v - 1, v)
            .map_err(|e| e.to_string())?
            .counts(),
    };
    eprintln!(
        "stored {key} v{} ({} ops: {} delete, {} insert, {} update, {} move, {} attr)",
        done.version,
        c.total(),
        c.deletes,
        c.inserts,
        c.updates,
        c.moves,
        c.attr_ops
    );
    Ok(ExitCode::SUCCESS)
}

fn store_get(dir: &Path, rest: &[String]) -> Result<ExitCode, String> {
    let (key, version) = match rest {
        [key] => (key, None),
        [key, v] => (
            key,
            Some(v.parse::<usize>().map_err(|_| format!("bad version {v:?}"))?),
        ),
        _ => return Err(format!("store get needs KEY [VERSION]\n{}", usage())),
    };
    let server = open_store(dir)?;
    let repo = server.repository_for(key);
    let xml = match version {
        None => repo.latest_xml(key),
        Some(v) => repo.version_xml(key, v),
    }
    .map_err(|e| e.to_string())?;
    println!("{xml}");
    Ok(ExitCode::SUCCESS)
}

fn store_history(dir: &Path, rest: &[String]) -> Result<ExitCode, String> {
    let [key] = rest else {
        return Err(format!("store history needs KEY\n{}", usage()));
    };
    let server = open_store(dir)?;
    let repo = server.repository_for(key);
    let count = repo.version_count(key);
    if count == 0 {
        return Err(format!("no document stored under {key:?}"));
    }
    println!("v0: initial version");
    for i in 1..count {
        let delta = repo.delta_between(key, i - 1, i).map_err(|e| e.to_string())?;
        let c = delta.counts();
        println!(
            "v{i}: {} ops ({} delete, {} insert, {} update, {} move, {} attr), {} bytes",
            c.total(),
            c.deletes,
            c.inserts,
            c.updates,
            c.moves,
            c.attr_ops,
            delta.size_bytes()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn store_changes(dir: &Path, rest: &[String]) -> Result<ExitCode, String> {
    let [key, from, to] = rest else {
        return Err(format!("store changes needs KEY FROM TO\n{}", usage()));
    };
    let from: usize = from.parse().map_err(|_| format!("bad version {from:?}"))?;
    let to: usize = to.parse().map_err(|_| format!("bad version {to:?}"))?;
    let server = open_store(dir)?;
    let repo = server.repository_for(key);
    if from > to || to >= repo.version_count(key) {
        return Err(format!(
            "version range {from}..{to} out of bounds for {key:?} ({} versions)",
            repo.version_count(key)
        ));
    }
    let delta = repo.delta_between(key, from, to).map_err(|e| e.to_string())?;
    println!("{}", xydelta::xml_io::delta_to_xml_pretty(&delta));
    Ok(ExitCode::SUCCESS)
}

fn store_keys(dir: &Path) -> Result<ExitCode, String> {
    let server = open_store(dir)?;
    let mut keys: Vec<(String, usize)> = server
        .shards()
        .iter()
        .flat_map(|repo| {
            repo.keys().into_iter().map(move |key| {
                let count = repo.version_count(&key);
                (key, count)
            })
        })
        .collect();
    keys.sort();
    for (key, count) in &keys {
        println!("{key} ({count} versions)");
    }
    Ok(if keys.is_empty() { ExitCode::from(1) } else { ExitCode::SUCCESS })
}
