//! `xydiff` — the command-line front end of the reproduction.
//!
//! ```text
//! xydiff diff OLD.xml NEW.xml            compute a delta (XML on stdout)
//! xydiff diff --pretty OLD.xml NEW.xml   …pretty-printed
//! xydiff diff --stats OLD.xml NEW.xml    …plus op counts and timings on stderr
//! xydiff patch DOC.xml DELTA.xml         apply a delta (new version on stdout)
//! xydiff revert DOC.xml DELTA.xml        apply an inverted delta
//! xydiff verify DELTA.xml                statically validate a delta
//! xydiff query DOC.xml PATH              evaluate a path expression
//! xydiff htmlize PAGE.html               XMLize an HTML page
//! xydiff analyze --schema S.dtd …        static query/schema analysis
//! xydiff store DIR load KEY FILE.xml     ingest a version into a log directory
//! xydiff store DIR get|history|changes…  query the stored history
//! xydiff ingest [--workers N] DIR        concurrent ingestion of a corpus
//! xydiff serve [--addr HOST:PORT] …      run the HTTP ingestion server
//! xydiff wal inspect DIR                 inspect a write-ahead delta log
//! ```
//!
//! Exit codes: 0 success, 1 documents differ (for `diff`) or no matches
//! (for `query`), 2 usage/input error.
//!
//! Persistent identifiers: `patch` output starts with an
//! `<?xydiff-xidmap (…)?>` processing instruction recording the document's
//! XID assignment; `diff`, `patch` and `revert` all accept annotated input,
//! which is what makes cross-process delta chains (and `revert`) possible.

mod analyze;
mod ingest;
mod pipeline;
mod serve;
mod store;
mod wal;

use std::io::Read;
use std::process::ExitCode;
use xydelta::{xml_io, XidDocument};
use xydiff::{diff, DiffOptions, MatchMode};
use xytree::Document;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("xydiff: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    match command.as_str() {
        "diff" => cmd_diff(rest),
        "patch" => cmd_patch(rest, false),
        "revert" => cmd_patch(rest, true),
        "verify" => cmd_verify(rest),
        "query" => cmd_query(rest),
        "htmlize" => cmd_htmlize(rest),
        "analyze" => analyze::cmd_analyze(rest),
        "store" => store::cmd_store(rest),
        "ingest" => ingest::cmd_ingest(rest),
        "serve" => serve::cmd_serve(rest),
        "wal" => wal::cmd_wal(rest),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

pub(crate) fn usage() -> String {
    "usage:\n  \
     xydiff diff [--pretty] [--stats] [--quiet] [--no-moves-window]\n  \
       \u{20}      [--mode buld|unordered|similarity] OLD.xml NEW.xml\n  \
     xydiff patch [--plain] DOC.xml DELTA.xml   (output carries an xidmap annotation)\n  \
     xydiff revert [--plain] DOC.xml DELTA.xml  (DOC must carry its xidmap)\n  \
     xydiff verify [--all] DELTA.xml      statically validate a completed delta\n  \
     xydiff query DOC.xml PATH\n  \
     xydiff htmlize PAGE.html\n  \
     xydiff analyze --schema S.dtd [--against NEW.dtd] [--root NAME] [--deny]\n  \
       \u{20}      [--queries FILE] [--delta DELTA.xml]\n  \
       \u{20}                              static satisfiability / schema-change\n  \
       \u{20}                              impact / delta typechecking (xyschema)\n  \
     xydiff store DIR load KEY FILE.xml   ingest a new version (runs the diff;\n  \
       \u{20}                              DIR is a write-ahead log, as --wal-dir)\n  \
     xydiff store DIR get KEY [VERSION]   print a stored version\n  \
     xydiff store DIR history KEY         list versions with delta summaries\n  \
     xydiff store DIR changes KEY FROM TO print the aggregated delta\n  \
     xydiff store DIR keys                list stored documents\n  \
     xydiff ingest [--workers N] [--queue N] [--quiet] DIR\n  \
       \u{20}      [--mode buld|unordered|similarity]\n  \
       \u{20}      [--wal-dir DIR] [--wal-sync always|none] [--compact-chain-max N]\n  \
       \u{20}                              ingest a snapshot corpus concurrently\n  \
       \u{20}                              (DIR/key/*.xml sorted = versions; metrics on stdout)\n  \
     xydiff serve [--addr HOST:PORT] [--workers N] [--queue N]\n  \
       \u{20}      [--max-body BYTES]\n  \
       \u{20}      [--idle-timeout SECS] [--max-conns N] [--shed-conns N]\n  \
       \u{20}      [--mode buld|unordered|similarity]\n  \
       \u{20}      [--wal-dir DIR] [--wal-sync always|none] [--compact-chain-max N]\n  \
       \u{20}      [--quiet]\n  \
       \u{20}                              run the HTTP ingestion server\n  \
       \u{20}                              (POST /ingest/KEY, GET /metrics|/healthz|/doc/KEY;\n  \
       \u{20}                              drain via POST /admin/shutdown or stdin EOF)\n  \
     xydiff wal inspect DIR               print segments and chains; verify every\n  \
       \u{20}                              logged record"
        .to_string()
}

/// Read a file, or stdin when the path is `-`.
pub(crate) fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn parse_doc(path: &str) -> Result<Document, String> {
    let content = read_input(path)?;
    Document::parse(&content).map_err(|e| format!("{path}: {e}"))
}

/// Load a document with its persistent identifiers: an `<?xydiff-xidmap?>`
/// annotation (written by `xydiff patch`) restores the exact assignment;
/// plain documents get the deterministic initial (postfix) numbering.
fn parse_xid_doc(path: &str) -> Result<XidDocument, String> {
    let content = read_input(path)?;
    match XidDocument::parse_annotated(&content).map_err(|e| format!("{path}: {e}"))? {
        Some(doc) => Ok(doc),
        None => Ok(XidDocument::assign_initial(
            Document::parse(&content).map_err(|e| format!("{path}: {e}"))?,
        )),
    }
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut pretty = false;
    let mut stats = false;
    let mut quiet = false;
    let mut exact_lis = false;
    let mut mode = MatchMode::default();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pretty" => pretty = true,
            "--stats" => stats = true,
            "--quiet" => quiet = true,
            "--no-moves-window" => exact_lis = true,
            "--mode" => {
                let v = it.next().ok_or("--mode needs a value (buld|unordered|similarity)")?;
                mode = v.parse::<MatchMode>().map_err(|e| format!("--mode: {e}"))?;
            }
            f if !f.starts_with("--") => files.push(f),
            other => return Err(format!("unknown flag {other:?} for diff")),
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        return Err(format!("diff needs exactly two files\n{}", usage()));
    };
    let old = parse_xid_doc(old_path)?;
    let new = parse_doc(new_path)?;
    let opts = DiffOptions { exact_lis, mode, ..Default::default() };
    let result = diff(&old, &new, &opts);
    if stats {
        let c = result.delta.counts();
        eprintln!(
            "nodes: {} -> {} ({} matched); ops: {} delete, {} insert, {} update, {} move, {} attr; {} bytes; {:?}",
            result.stats.old_nodes,
            result.stats.new_nodes,
            result.stats.matched_nodes,
            c.deletes,
            c.inserts,
            c.updates,
            c.moves,
            c.attr_ops,
            result.delta.size_bytes(),
            result.timings.total(),
        );
    }
    if !quiet {
        if pretty {
            print!("{}", xml_io::delta_to_xml_pretty(&result.delta));
        } else {
            println!("{}", xml_io::delta_to_xml(&result.delta));
        }
    }
    Ok(if result.delta.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_patch(args: &[String], invert: bool) -> Result<ExitCode, String> {
    let mut plain = false;
    let mut files = Vec::new();
    for a in args {
        match a.as_str() {
            "--plain" => plain = true,
            f if !f.starts_with("--") => files.push(f),
            other => return Err(format!("unknown flag {other:?} for patch/revert")),
        }
    }
    let [doc_path, delta_path] = files.as_slice() else {
        return Err(format!("patch/revert need DOC.xml DELTA.xml\n{}", usage()));
    };
    let doc = parse_xid_doc(doc_path)?;
    let delta_xml = read_input(delta_path)?;
    let delta = xml_io::parse_delta(&delta_xml).map_err(|e| format!("{delta_path}: {e}"))?;
    let delta = if invert { delta.inverted() } else { delta };
    let mut target = doc;
    delta.apply_to(&mut target).map_err(|e| {
        let hint = if invert {
            "\nhint: `revert` needs the document's persistent identifiers; \
             use the annotated output of `xydiff patch` (it embeds an \
             <?xydiff-xidmap?> annotation), or diff in the other direction"
        } else {
            ""
        };
        format!("delta does not apply to {doc_path}: {e}{hint}")
    })?;
    // Annotated by default so the output can be patched/reverted further;
    // --plain strips the identifiers.
    if plain {
        println!("{}", target.doc.to_xml());
    } else {
        println!("{}", target.to_annotated_xml());
    }
    Ok(ExitCode::SUCCESS)
}

/// `xydiff verify [--all] DELTA.xml` — run the static completed-delta
/// validator without applying the delta to anything. Exit 0 when every
/// invariant holds, 1 with diagnostics on stderr otherwise.
fn cmd_verify(args: &[String]) -> Result<ExitCode, String> {
    let mut all = false;
    let mut files = Vec::new();
    for a in args {
        match a.as_str() {
            "--all" => all = true,
            f if !f.starts_with("--") => files.push(f),
            other => return Err(format!("unknown flag {other:?} for verify")),
        }
    }
    let [delta_path] = files.as_slice() else {
        return Err(format!("verify needs exactly one delta file\n{}", usage()));
    };
    let delta_xml = read_input(delta_path)?;
    let delta = xml_io::parse_delta(&delta_xml).map_err(|e| format!("{delta_path}: {e}"))?;
    if all {
        let errors = xydelta::verify_all(&delta);
        if errors.is_empty() {
            println!("{delta_path}: ok ({} ops)", delta.ops.len());
            return Ok(ExitCode::SUCCESS);
        }
        for e in &errors {
            eprintln!("{delta_path}: {e}");
        }
        eprintln!("{delta_path}: {} invariant violation(s)", errors.len());
        Ok(ExitCode::from(1))
    } else {
        match xydelta::verify(&delta) {
            Ok(()) => {
                println!("{delta_path}: ok ({} ops)", delta.ops.len());
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => {
                eprintln!("{delta_path}: {e}");
                Ok(ExitCode::from(1))
            }
        }
    }
}

fn cmd_query(args: &[String]) -> Result<ExitCode, String> {
    let [doc_path, path_expr] = args else {
        return Err(format!("query needs DOC.xml PATH\n{}", usage()));
    };
    let doc = parse_doc(doc_path)?;
    let results = xyquery::query(&doc, path_expr).map_err(|e| e.to_string())?;
    for r in &results {
        println!("{r}");
    }
    Ok(if results.is_empty() { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn cmd_htmlize(args: &[String]) -> Result<ExitCode, String> {
    let [page] = args else {
        return Err(format!("htmlize needs one file\n{}", usage()));
    };
    let html = read_input(page)?;
    println!("{}", xyhtml::htmlize(&html).to_xml());
    Ok(ExitCode::SUCCESS)
}
