//! The adapter: every call from the benchmark into a product crate's Rust
//! API lives in this file.
//!
//! The end-to-end driver talks to the server through its CLI and HTTP only;
//! the corpus generator and the per-layer ledger need library calls, and
//! they get them here. When an entry point is renamed, merged or removed,
//! this is the one file to re-point.
//!
//! Layer names are crate names. Each traced function performs the product's
//! own sequence of public calls — the one `xyserve`'s worker runs for an
//! ingest, the one `IngestServer::try_start` runs for a recovery — with a
//! span around each call.

use crate::trace::Recorder;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};
use xydelta::xml_io::{delta_to_xml, parse_delta};
use xydelta::{PayloadSource, VersionChain, XidDocument};
use xydiff::{DiffOptions, Differ, SignatureCache};
use xyserve::{IngestServer, ServeConfig, WalPolicy};
use xysim::{ChangeConfig, DocGenConfig, DocKind};
use xytree::Document;
use xywal::{Record, Wal, WalConfig, WalSync};
use xywarehouse::{Alerter, Repository, Subscription};

// ---------------------------------------------------------------- corpus

/// The document families the corpus cycles through.
const KINDS: [DocKind; 4] = [
    DocKind::Catalog,
    DocKind::AddressBook,
    DocKind::Feed,
    DocKind::Generic,
];

/// A generated base document, kept in the form the change simulator edits.
pub struct Base(XidDocument);

impl Base {
    /// Base document `index` of a corpus: families round-robin, about
    /// `target_nodes` tree nodes.
    pub fn generate(index: usize, target_nodes: usize, seed: u64) -> Base {
        let doc = xysim::generate(&DocGenConfig {
            kind: KINDS[index % KINDS.len()],
            target_nodes,
            seed,
            id_attributes: false,
        });
        Base(XidDocument::assign_initial(doc))
    }

    pub fn xml(&self) -> String {
        self.0.doc.to_xml()
    }

    /// One simulated edit of *this* base (not of a previous edit), every
    /// operation at per-node probability `rate`.
    pub fn edited_xml(&self, rate: f64, seed: u64) -> String {
        xysim::simulate(&self.0, &ChangeConfig::uniform(rate, seed))
            .new_version
            .doc
            .to_xml()
    }
}

// ---------------------------------------------------------------- ingest

fn wal_config(dir: &Path, fsync: bool) -> WalConfig {
    WalConfig::new(dir).with_sync(if fsync {
        WalSync::Always
    } else {
        WalSync::None
    })
}

fn open_wal(dir: &Path, fsync: bool) -> Wal {
    Wal::open(&wal_config(dir, fsync))
        .expect("open benchmark WAL")
        .0
}

/// Sixteen fixed subscriptions over the labels the four families use: a
/// stand-in for a deployment that has subscribers (the CLI server has none).
fn sixteen_subscriptions() -> Alerter {
    let mut alerter = Alerter::new();
    let queries = [
        "//product",
        "//price",
        "//name",
        "//description",
        "//person",
        "//email",
        "//city",
        "//entry",
        "//summary",
        "//title",
        "//link",
        "//stock",
    ];
    for (i, q) in queries.iter().enumerate() {
        alerter.subscribe(Subscription::everything(format!("q{i}")).at_query(q));
    }
    for (i, needle) in ["alpha", "market", "north", "2002"].iter().enumerate() {
        alerter.subscribe(Subscription::everything(format!("c{i}")).containing(*needle));
    }
    alerter
}

struct Stored {
    chain: VersionChain,
    cache: SignatureCache,
}

/// What one traced ingest produced, for the exact (count) metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestFacts {
    pub ops: usize,
    /// Bytes of the delta's XML form (0 for a first version).
    pub delta_bytes: usize,
    /// WAL frame bytes (0 without a WAL).
    pub wal_bytes: u64,
}

/// The ingest path of `xyserve`'s worker, call by call, single-threaded,
/// with a span around each call.
///
/// The log calls (serialize the first version, encode a delta, append) are
/// always made, so that what they cost on this stream is always measured;
/// when the workload's server runs without a log (`logged` false) their
/// spans are recorded beside the request — no parent — and enter no share.
pub struct TracedIngest {
    differ: Differ,
    alerter: Alerter,
    docs: HashMap<String, Stored>,
    wal: Wal,
    logged: bool,
    /// Every record appended, kept so they can be decoded and logged again.
    pub records: Vec<Record>,
}

impl TracedIngest {
    pub fn new(wal_dir: &Path, logged: bool) -> TracedIngest {
        TracedIngest {
            differ: Differ::new()
                .with_options(DiffOptions::default())
                .with_capture(xydelta::CaptureMode::Borrowed),
            alerter: Alerter::new(),
            docs: HashMap::new(),
            wal: open_wal(wal_dir, true),
            logged,
            records: Vec::new(),
        }
    }

    /// Ingest one snapshot under a root span called `ingest`.
    pub fn ingest(
        &mut self,
        rec: &mut Recorder,
        request: u32,
        key: &str,
        xml: &str,
    ) -> IngestFacts {
        let root = rec.open("ingest", None, request);
        let p = Some(root);
        let log_parent = p.filter(|_| self.logged);
        let mut facts = IngestFacts::default();
        let doc = rec.time("xytree.parse", p, request, || {
            Document::parse(xml).expect("corpus parses")
        });
        let record = match self.docs.get_mut(key) {
            None => {
                let xml = rec.time("xytree.serialize_init", log_parent, request, || {
                    doc.to_xml()
                });
                rec.time("xydelta.store", p, request, || {
                    let chain = VersionChain::new(XidDocument::assign_initial(doc));
                    let cache = SignatureCache::new();
                    self.docs.insert(key.to_string(), Stored { chain, cache });
                });
                Record::Init {
                    key: key.to_string(),
                    xml,
                }
            }
            Some(stored) => {
                let Stored { chain, cache } = stored;
                let diff_span = rec.open("xydiff.diff", p, request);
                let result = self
                    .differ
                    .diff_consume_with_cache(chain.latest(), doc, cache);
                rec.close(diff_span);
                let t = result.timings;
                rec.subdivide(
                    diff_span,
                    &[
                        ("xydiff.phase1", t.phase1.as_nanos() as u64),
                        ("xydiff.phase2", t.phase2.as_nanos() as u64),
                        ("xydiff.phase3", t.phase3.as_nanos() as u64),
                        ("xydiff.phase4", t.phase4.as_nanos() as u64),
                        ("xydiff.phase5", t.phase5.as_nanos() as u64),
                    ],
                );
                let new_version = result.new_version;
                let borrowed = result.delta;
                let delta = rec.time("xydelta.into_owned", p, request, || {
                    borrowed.into_owned(&PayloadSource {
                        old: &chain.latest().doc.tree,
                        new: &new_version.doc.tree,
                    })
                });
                rec.time("xydelta.verify", p, request, || {
                    xydelta::verify(&delta).expect("delta verifies")
                });
                rec.time("xywarehouse.alert", p, request, || {
                    self.alerter
                        .evaluate(key, &delta, chain.latest(), &new_version)
                });
                facts.ops = delta.len();
                let version = chain.latest_index() as u64 + 1;
                // The repository stores a clone and hands the delta on to the
                // WAL; the clone is part of the store's cost.
                rec.time("xydelta.store", p, request, || {
                    chain.push_version(new_version, delta.clone())
                });
                let delta_xml = rec.time("xydelta.encode", log_parent, request, || {
                    delta_to_xml(&delta)
                });
                facts.delta_bytes = delta_xml.len();
                Record::Delta {
                    key: key.to_string(),
                    version,
                    delta_xml,
                }
            }
        };
        let outcome = rec.time("xywal.append", log_parent, request, || {
            self.wal.append(&record).expect("WAL append")
        });
        facts.wal_bytes = outcome.bytes;
        self.records.push(record);
        rec.close(root);
        facts
    }

    /// Materialise checkpoints the way the server's background compactor
    /// does for `--compact-chain-max every`.
    pub fn compact(&mut self, every: usize) {
        for stored in self.docs.values_mut() {
            stored
                .chain
                .compact(every)
                .expect("compaction applies its own deltas");
        }
    }

    /// Reconstruct version `v` of `key` under a span; returns the number of
    /// delta applications it took.
    pub fn reconstruct(&self, rec: &mut Recorder, request: u32, key: &str, v: usize) -> usize {
        let chain = &self.docs[key].chain;
        let doc = rec.time("xydelta.reconstruct", None, request, || {
            chain.version(v).expect("version exists")
        });
        rec.time("xytree.serialize", None, request, || doc.doc.to_xml());
        chain.reconstruct_hops(v)
    }
}

/// `Alerter::evaluate` µs per delta of `stream` against sixteen subscriptions.
/// A pass of its own: evaluating queries over whole documents between two
/// stages of the traced replay would evict what the next stage is about to
/// read, and the ledger would charge that to the wrong layer.
pub fn alert16_micros<'a>(stream: impl Iterator<Item = (&'a str, &'a str)>) -> Vec<f64> {
    let alerter = sixteen_subscriptions();
    let mut differ = Differ::new();
    let mut latest: HashMap<&str, XidDocument> = HashMap::new();
    let mut times = Vec::new();
    for (key, xml) in stream {
        let doc = Document::parse(xml).expect("corpus parses");
        let new = match latest.get(key) {
            None => XidDocument::assign_initial(doc),
            Some(old) => {
                let result = differ.diff_consume(old, doc);
                let t = Instant::now();
                std::hint::black_box(alerter.evaluate(
                    key,
                    &result.delta,
                    old,
                    &result.new_version,
                ));
                times.push(micros(t.elapsed()));
                result.new_version
            }
        };
        latest.insert(key, new);
    }
    times
}

/// Append `records` to a fresh log at `dir` without fsync; per-append µs.
pub fn append_nosync_micros(dir: &Path, records: &[Record]) -> Vec<f64> {
    let wal = open_wal(dir, false);
    records
        .iter()
        .map(|r| {
            let t = Instant::now();
            wal.append(r).expect("WAL append");
            micros(t.elapsed())
        })
        .collect()
}

/// Decode every delta record again; per-record µs.
pub fn decode_micros(records: &[Record]) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| match r {
            Record::Delta { delta_xml, .. } => Some(delta_xml),
            Record::Init { .. } => None,
        })
        .map(|xml| {
            let t = Instant::now();
            std::hint::black_box(parse_delta(xml).expect("own encoding decodes"));
            micros(t.elapsed())
        })
        .collect()
}

/// Per-request times of the untraced reference run, µs.
#[derive(Debug, Default)]
pub struct PlainTimes {
    pub parse: Vec<f64>,
    /// `Repository::try_load_parsed_with` as one call.
    pub load: Vec<f64>,
    /// `delta_to_xml` + `Wal::append` (empty without a WAL).
    pub log: Vec<f64>,
}

/// The same ingest path as [`TracedIngest`], but through the warehouse's own
/// entry point and with no spans: the reference the traced sum is checked
/// against, and the store the read-side measurements run on.
pub struct PlainIngest {
    repo: Repository,
    differ: Differ,
    wal: Option<Wal>,
    pub times: PlainTimes,
}

impl PlainIngest {
    pub fn new(wal_dir: Option<&Path>, fsync: bool) -> PlainIngest {
        let repo = Repository::with_options(DiffOptions::default(), Alerter::new());
        let differ = repo.differ();
        PlainIngest {
            repo,
            differ,
            wal: wal_dir.map(|dir| open_wal(dir, fsync)),
            times: PlainTimes::default(),
        }
    }

    pub fn ingest(&mut self, key: &str, xml: &str) {
        let t = Instant::now();
        let doc = Document::parse(xml).expect("corpus parses");
        self.times.parse.push(micros(t.elapsed()));
        let init_xml =
            (self.wal.is_some() && self.repo.version_count(key) == 0).then(|| doc.to_xml());
        let t = Instant::now();
        let out = self
            .repo
            .try_load_parsed_with(key, doc, &mut self.differ)
            .expect("delta verifies");
        self.times.load.push(micros(t.elapsed()));
        if let Some(wal) = &self.wal {
            let t = Instant::now();
            let record = match init_xml {
                Some(xml) => Record::Init {
                    key: key.to_string(),
                    xml,
                },
                None => Record::Delta {
                    key: key.to_string(),
                    version: out.version as u64,
                    delta_xml: delta_to_xml(&out.delta),
                },
            };
            wal.append(&record).expect("WAL append");
            self.times.log.push(micros(t.elapsed()));
        }
    }

    /// `compact_chains(every)` over everything stored, milliseconds.
    pub fn compact_millis(&self, every: usize) -> f64 {
        let t = Instant::now();
        self.repo.compact_chains(every);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// `Repository::version_xml`, µs, with the bytes for checking.
    pub fn version_xml(&self, key: &str, v: usize) -> (String, f64) {
        let t = Instant::now();
        let xml = self.repo.version_xml(key, v).expect("stored version");
        (xml, micros(t.elapsed()))
    }

    pub fn cache_counters(&self, key: &str) -> (u64, u64) {
        self.repo.cache_counters(key)
    }
}

/// An in-process `IngestServer` with the child server's configuration,
/// driven with one request in flight.
pub struct InProcessServer(IngestServer);

impl InProcessServer {
    pub fn start(
        workers: usize,
        wal_dir: Option<&Path>,
        compact_chain_max: usize,
    ) -> InProcessServer {
        let mut config = ServeConfig::new()
            .with_workers(workers)
            .and_then(|c| c.with_shards(8))
            .and_then(|c| c.with_queue_capacity(128))
            .and_then(|c| c.with_diff_threads(1))
            .expect("the fixed server configuration is valid")
            .with_compact_chain_max(compact_chain_max);
        if let Some(dir) = wal_dir {
            config = config.with_wal(WalPolicy::new(dir).with_sync(WalSync::Always));
        }
        InProcessServer(IngestServer::start(config))
    }

    /// Submit → outcome, µs.
    pub fn ingest(&self, key: &str, xml: &str) -> f64 {
        // The HTTP front owns the body as a String before it submits; that
        // copy is the front's cost, not the pipeline's.
        let body = xml.to_string();
        let t = Instant::now();
        let ticket = self.0.submit_tracked(key, body).expect("server accepts");
        ticket.wait().expect("ingest succeeds");
        micros(t.elapsed())
    }

    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

// -------------------------------------------------------------- recovery

/// What an in-process recovery of the log at `dir` cost.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryTimes {
    /// `Wal::open`: scan, checksum, frame decode, tail repair.
    pub open_scan_ms: f64,
    /// `xywarehouse::replay::apply_records` as one call.
    pub replay_ms: f64,
    pub versions: usize,
}

/// Recover the log at `dir` the way `IngestServer::try_start` does.
pub fn recover(dir: &Path) -> RecoveryTimes {
    let t = Instant::now();
    let (_wal, recovery) = Wal::open(&wal_config(dir, false)).expect("open log");
    let open_scan_ms = t.elapsed().as_secs_f64() * 1e3;
    let shards: Vec<Repository> = (0..8).map(|_| Repository::new()).collect();
    let t = Instant::now();
    let route = |key: &str| key.bytes().map(usize::from).sum::<usize>() % shards.len();
    let stats =
        xywarehouse::replay::apply_records(&recovery.records, &shards, route).expect("log replays");
    let replay_ms = t.elapsed().as_secs_f64() * 1e3;
    RecoveryTimes {
        open_scan_ms,
        replay_ms,
        versions: stats.total(),
    }
}

/// The same recovery, call by call with a span around each: parse or decode
/// the payload, verify it, apply it to the chain.
pub fn traced_recover(rec: &mut Recorder, dir: &Path) -> usize {
    let root = rec.open("recover", None, 0);
    let p = Some(root);
    let (_wal, recovery) = rec.time("xywal.open_scan", p, 0, || {
        Wal::open(&wal_config(dir, false)).expect("open log")
    });
    let mut chains: HashMap<String, VersionChain> = HashMap::new();
    for (i, (_lsn, record)) in recovery.records.iter().enumerate() {
        let request = i as u32 + 1;
        match record {
            Record::Init { key, xml } => {
                let doc = rec.time("xytree.parse_init", p, request, || {
                    Document::parse(xml).expect("init parses")
                });
                rec.time("xydelta.install", p, request, || {
                    chains.insert(
                        key.clone(),
                        VersionChain::new(XidDocument::assign_initial(doc)),
                    );
                });
            }
            Record::Delta { key, delta_xml, .. } => {
                let delta = rec.time("xydelta.decode", p, request, || {
                    parse_delta(delta_xml).expect("delta decodes")
                });
                rec.time("xydelta.verify_replayed", p, request, || {
                    xydelta::verify(&delta).expect("delta verifies")
                });
                let chain = chains.get_mut(key).expect("init precedes deltas");
                rec.time("xydelta.apply", p, request, || {
                    chain.push_delta(delta).expect("delta applies")
                });
            }
        }
    }
    rec.close(root);
    recovery.records.len()
}

// ------------------------------------------------------------------ tree

/// Read every file of `dir`, then parse them all and hold the documents:
/// (`VmRSS` growth over the parse, total node count). Meant for a fresh
/// process, where the growth is the documents' resident size.
pub fn resident_probe(dir: &Path) -> Option<(u64, usize)> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .map(|e| e.path())
        .collect();
    paths.sort();
    let texts: Vec<String> = paths
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .collect();
    let rss = || crate::child::status_bytes(std::process::id(), "VmRSS:");
    let before = rss()?;
    let held: Vec<Document> = texts
        .iter()
        .filter_map(|xml| Document::parse(xml).ok())
        .collect();
    let after = rss()?;
    let nodes = held
        .iter()
        .map(|d| d.tree.subtree_size(d.tree.root()))
        .sum();
    Some((after.saturating_sub(before), nodes))
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
