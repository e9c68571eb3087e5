//! The version repository: the storage half of Figure 1.
//!
//! Keyed by document identifier (URL in Xyleme), each entry is a
//! [`VersionChain`]: the latest snapshot plus the forward delta sequence.
//! Loading a new version runs the BULD diff against the stored latest,
//! appends the delta, replaces the snapshot ("the old version is then
//! possibly removed from the repository"), and hands the delta to the
//! alerter.

use crate::alerter::{Alerter, Notification};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use xydelta::{ApplyError, Delta, VersionChain, XidDocument};
use xydiff::{Differ, DiffOptions, SignatureCache};
use xytree::{Document, ParseError};

/// Errors surfaced by repository operations.
#[derive(Debug)]
pub enum RepositoryError {
    /// The submitted XML does not parse.
    Parse(ParseError),
    /// No document is stored under the given key.
    UnknownDocument(String),
    /// The requested version index does not exist.
    UnknownVersion {
        /// Document key.
        key: String,
        /// Requested version.
        version: usize,
        /// Number of stored versions.
        available: usize,
    },
    /// Delta replay failed while reconstructing a version (storage
    /// corruption — should never happen).
    Reconstruct(ApplyError),
    /// The freshly computed delta failed static verification
    /// ([`xydelta::verify()`]); the version was NOT stored. Indicates a diff
    /// bug or memory corruption, never a property of the input document.
    InvalidDelta(xydelta::VerifyError),
}

impl fmt::Display for RepositoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepositoryError::Parse(e) => write!(f, "document does not parse: {e}"),
            RepositoryError::UnknownDocument(k) => write!(f, "no document stored under {k:?}"),
            RepositoryError::UnknownVersion { key, version, available } => write!(
                f,
                "document {key:?} has {available} versions, version {version} requested"
            ),
            RepositoryError::Reconstruct(e) => write!(f, "version reconstruction failed: {e}"),
            RepositoryError::InvalidDelta(e) => {
                write!(f, "computed delta failed static verification: {e}")
            }
        }
    }
}

impl std::error::Error for RepositoryError {}

impl From<ParseError> for RepositoryError {
    fn from(e: ParseError) -> Self {
        RepositoryError::Parse(e)
    }
}

/// What loading one version produced.
#[derive(Debug)]
pub struct LoadOutcome {
    /// Index of the freshly stored version (0 for the first load).
    pub version: usize,
    /// The computed delta (empty for the first load or an unchanged doc).
    pub delta: Delta,
    /// Subscription hits raised by this delta.
    pub notifications: Vec<Notification>,
    /// Wall-clock time spent in the BULD diff for this load.
    pub diff_time: std::time::Duration,
    /// Wall-clock time spent evaluating subscriptions.
    pub alert_time: std::time::Duration,
}

/// One stored document: its version chain plus the signature cache carried
/// between ingests (see [`SignatureCache`] for the coherence rule — every
/// diff leaves it describing the version it stored, so the *old* side of
/// the next diff takes over those signatures instead of re-hashing the tree).
struct StoredDoc {
    chain: VersionChain,
    cache: SignatureCache,
}

/// A concurrent store of versioned documents.
///
/// Each key has its own lock. The map lock is held only to find a key's
/// entry or to insert its first version; everything else takes that key's
/// lock alone. A load holds its key's write lock through the diff, verify,
/// alert and push, so it never waits on, nor holds up, another key's load
/// or read.
pub struct Repository {
    entries: RwLock<HashMap<String, Arc<RwLock<StoredDoc>>>>,
    opts: DiffOptions,
    alerter: Alerter,
    /// The checkpoint interval of every chain this repository creates or
    /// installs (see [`VersionChain::set_checkpoint_every`]); 0 keeps none.
    checkpoint_every: usize,
}

/// Shared access through `lock`. A poisoned lock (a thread panicked while
/// holding it) is entered anyway — the non-poisoning policy this store has
/// always had: the map and each chain stay structurally valid, and handing
/// one writer's panic to every later reader helps nobody.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive access through `lock`; same poison policy as [`read_lock`].
fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

impl Repository {
    /// An empty repository with default diff options and no subscriptions.
    pub fn new() -> Repository {
        Repository::with_options(DiffOptions::default(), Alerter::new())
    }

    /// An empty repository with explicit diff options and an alerter.
    pub fn with_options(opts: DiffOptions, alerter: Alerter) -> Repository {
        Repository { entries: RwLock::new(HashMap::new()), opts, alerter, checkpoint_every: 0 }
    }

    /// Checkpoint every chain this repository creates or installs every
    /// `every` versions ([`VersionChain::set_checkpoint_every`]), so each
    /// stored version reconstructs within `every / 2` delta applications
    /// as soon as its load returns. 0, the default, keeps no checkpoints.
    #[must_use]
    pub fn with_checkpoint_every(mut self, every: usize) -> Repository {
        self.checkpoint_every = every;
        self
    }

    /// A fresh entry whose chain starts at `initial` under this
    /// repository's checkpoint interval. The signature cache starts cold.
    fn new_entry(&self, initial: XidDocument) -> Arc<RwLock<StoredDoc>> {
        let mut chain = VersionChain::new(initial);
        chain.set_checkpoint_every(self.checkpoint_every);
        Arc::new(RwLock::new(StoredDoc { chain, cache: SignatureCache::new() }))
    }

    /// `key`'s entry, found under the map's read lock, which is released
    /// before the caller takes the entry's own lock.
    fn entry(&self, key: &str) -> Option<Arc<RwLock<StoredDoc>>> {
        read_lock(&self.entries).get(key).cloned()
    }

    /// Every entry, collected under the map's read lock.
    fn all_entries(&self) -> Vec<Arc<RwLock<StoredDoc>>> {
        read_lock(&self.entries).values().cloned().collect()
    }

    /// `key`'s entry, or [`RepositoryError::UnknownDocument`].
    fn known(&self, key: &str) -> Result<Arc<RwLock<StoredDoc>>, RepositoryError> {
        self.entry(key).ok_or_else(|| RepositoryError::UnknownDocument(key.to_string()))
    }

    /// Install a new version of document `key` (the Figure 1 ingest path).
    ///
    /// The first load of a key creates version 0 with an empty delta; later
    /// loads diff against the stored latest.
    pub fn load_version(&self, key: &str, xml: &str) -> Result<LoadOutcome, RepositoryError> {
        let doc = Document::parse(xml)?;
        Ok(self.load_parsed(key, doc))
    }

    /// Install an already-parsed new version of document `key`.
    ///
    /// Parsing — the only fallible part and a large share of the work —
    /// happens before any lock is taken.
    #[allow(clippy::expect_used)]
    pub(crate) fn load_parsed(&self, key: &str, doc: Document) -> LoadOutcome {
        let mut differ = self.differ();
        self.try_load_parsed_with(key, doc, &mut differ)
            // INVARIANT: the only fallible step is static delta verification,
            // and every delta the BULD diff emits verifies (pinned by the
            // diff_deltas_verify property test); a failure here is a diff bug
            // for which no not-stored fallback exists on this infallible API.
            .expect("BULD diff produced a delta that fails static verification")
    }

    /// A [`Differ`] configured with this repository's diff options — what a
    /// long-lived ingest worker should hold and pass to every
    /// [`Repository::try_load_parsed_with`] call.
    ///
    /// The differ uses borrowed (zero-copy) payload capture: insert/delete
    /// payloads reference the diffed documents' arenas instead of cloning
    /// each subtree, and [`Repository::try_load_parsed_with`] materializes
    /// them (`Delta::into_owned`) in one step before the delta is verified,
    /// alerted on, or stored — so everything past the load call observes
    /// plain owned deltas, bit-identical to the pre-zero-copy format.
    pub fn differ(&self) -> Differ {
        Differ::new()
            .with_options(self.opts.clone())
            .with_capture(xydelta::CaptureMode::Borrowed)
    }

    /// Install an already-parsed new version of `key`, using the caller's
    /// [`Differ`] and surfacing delta-verification failures.
    ///
    /// The differ contributes the diff options and the reusable scratch
    /// (long-lived workers hold one differ each, making steady-state ingest
    /// free of per-diff structural allocation); the repository contributes
    /// the per-document signature cache. Every computed delta is checked by
    /// the static validator ([`xydelta::verify()`]) before the version is
    /// stored. On failure the repository is left unchanged — the bad delta
    /// is neither appended to the chain nor handed to the alerter — and the
    /// caller decides what to do with the document (xyserve routes it to the
    /// dead-letter queue).
    pub fn try_load_parsed_with(
        &self,
        key: &str,
        doc: Document,
        differ: &mut Differ,
    ) -> Result<LoadOutcome, RepositoryError> {
        let (stored, doc) = match self.entry(key) {
            Some(stored) => (stored, doc),
            None => {
                let initial = XidDocument::assign_initial(doc);
                let mut entries = write_lock(&self.entries);
                match entries.get(key) {
                    // Another load inserted the key's first version since
                    // the lookup: this snapshot diffs against it.
                    Some(stored) => (Arc::clone(stored), initial.doc),
                    None => {
                        entries.insert(key.to_string(), self.new_entry(initial));
                        return Ok(LoadOutcome {
                            version: 0,
                            delta: Delta::new(),
                            notifications: Vec::new(),
                            diff_time: std::time::Duration::ZERO,
                            alert_time: std::time::Duration::ZERO,
                        });
                    }
                }
            }
        };
        let mut stored = write_lock(&stored);
        let StoredDoc { chain, cache } = &mut *stored;
        let t0 = std::time::Instant::now();
        // The consuming entry point moves `doc` into the produced version
        // (no whole-document clone), and a borrowed-capture differ skips the
        // per-subtree payload clones too.
        let result = differ.diff_consume_with_cache(chain.latest(), doc, cache);
        // Materialize any borrowed payloads while both source documents are
        // still in scope. This is the into_owned boundary: verification,
        // alerting, the WAL, and the chain all see owned deltas only.
        let delta = {
            let src = xydelta::PayloadSource {
                old: &chain.latest().doc.tree,
                new: &result.new_version.doc.tree,
            };
            result.delta.into_owned(&src)
        };
        xydelta::verify(&delta).map_err(RepositoryError::InvalidDelta)?;
        let diff_time = t0.elapsed();
        let t1 = std::time::Instant::now();
        let notifications = self.alerter.evaluate(key, &delta, chain.latest(), &result.new_version);
        let alert_time = t1.elapsed();
        let version = chain.latest_index() + 1;
        chain.push_version(result.new_version, delta.clone());
        Ok(LoadOutcome { version, delta, notifications, diff_time, alert_time })
    }

    /// Serialized latest version of `key`.
    pub fn latest_xml(&self, key: &str) -> Result<String, RepositoryError> {
        let stored = self.known(key)?;
        let xml = read_lock(&stored).chain.latest().doc.to_xml();
        Ok(xml)
    }

    /// Cumulative signature-cache (hits, misses) for `key`, `(0, 0)` when the
    /// key is unknown (observability hook).
    pub fn cache_counters(&self, key: &str) -> (u64, u64) {
        self.entry(key).map_or((0, 0), |s| read_lock(&s).cache.counters())
    }

    /// Serialized version `i` of `key`, reconstructed through inverse deltas
    /// ("querying the past").
    pub fn version_xml(&self, key: &str, version: usize) -> Result<String, RepositoryError> {
        let stored = self.known(key)?;
        let chain = &read_lock(&stored).chain;
        if version > chain.latest_index() {
            return Err(RepositoryError::UnknownVersion {
                key: key.to_string(),
                version,
                available: chain.version_count(),
            });
        }
        let doc = chain.version(version).map_err(RepositoryError::Reconstruct)?;
        Ok(doc.doc.to_xml())
    }

    /// Number of stored versions of `key` (0 when unknown).
    pub fn version_count(&self, key: &str) -> usize {
        self.entry(key).map_or(0, |s| read_lock(&s).chain.version_count())
    }

    /// The aggregated delta between two versions of `key`.
    pub fn delta_between(
        &self,
        key: &str,
        from: usize,
        to: usize,
    ) -> Result<Delta, RepositoryError> {
        let stored = self.known(key)?;
        let delta = read_lock(&stored).chain.delta_between(from, to);
        delta.map_err(RepositoryError::Reconstruct)
    }

    /// All stored document keys.
    pub fn keys(&self) -> Vec<String> {
        read_lock(&self.entries).keys().cloned().collect()
    }

    /// Number of stored documents (stats hook for serving layers).
    pub fn doc_count(&self) -> usize {
        read_lock(&self.entries).len()
    }

    /// Total stored versions across all documents (stats hook).
    pub fn total_versions(&self) -> usize {
        self.all_entries().iter().map(|s| read_lock(s).chain.version_count()).sum()
    }

    /// Install a replayed first version under `key`, replacing any
    /// existing entry (recovery support). The chain takes this repository's
    /// checkpoint interval, so replayed deltas checkpoint it as they go. The
    /// signature cache starts cold — misses fall back to local hashing and
    /// the first ingest re-warms it.
    pub(crate) fn install_chain(&self, key: String, initial: XidDocument) {
        let entry = self.new_entry(initial);
        write_lock(&self.entries).insert(key, entry);
    }

    /// Append a WAL-replayed delta to `key`'s chain (recovery support). No
    /// diff runs — the delta was computed before the crash and the caller
    /// has already re-verified it.
    pub(crate) fn append_replayed_delta(
        &self,
        key: &str,
        delta: Delta,
    ) -> Result<(), RepositoryError> {
        let stored = self.known(key)?;
        let pushed = write_lock(&stored).chain.push_delta(delta);
        pushed.map_err(RepositoryError::Reconstruct)
    }

    /// Compact every chain whose worst-case reconstruction cost exceeds
    /// `every` hops, materialising checkpoints so any version is reachable
    /// within a bounded number of delta applications. Returns the number of
    /// chains compacted.
    ///
    /// Each chain is compacted under its own key's write lock, so
    /// concurrent ingest of every other key runs on during the sweep.
    pub fn compact_chains(&self, every: usize) -> usize {
        let mut compacted = 0;
        for stored in self.all_entries() {
            let mut stored = write_lock(&stored);
            if stored.chain.needs_compaction(every) && stored.chain.compact(every).is_ok() {
                compacted += 1;
            }
        }
        compacted
    }

    /// Worst-case delta applications needed to reconstruct any version of
    /// `key` (`None` when the key is unknown).
    pub fn chain_hops(&self, key: &str) -> Option<usize> {
        self.entry(key).map(|s| read_lock(&s).chain.max_reconstruct_hops())
    }

    /// Number of materialised checkpoints on `key`'s chain (`None` when the
    /// key is unknown).
    pub fn chain_checkpoints(&self, key: &str) -> Option<usize> {
        self.entry(key).map(|s| read_lock(&s).chain.checkpoint_count())
    }
}

impl Default for Repository {
    fn default() -> Self {
        Repository::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscription::{OpFilter, Subscription};

    #[test]
    fn first_load_is_version_zero() {
        let repo = Repository::new();
        let out = repo.load_version("doc", "<a><b>1</b></a>").unwrap();
        assert_eq!(out.version, 0);
        assert!(out.delta.is_empty());
        assert_eq!(repo.version_count("doc"), 1);
        assert_eq!(repo.latest_xml("doc").unwrap(), "<a><b>1</b></a>");
    }

    #[test]
    fn subsequent_loads_append_versions() {
        let repo = Repository::new();
        repo.load_version("doc", "<a><b>1</b></a>").unwrap();
        let out = repo.load_version("doc", "<a><b>2</b></a>").unwrap();
        assert_eq!(out.version, 1);
        assert_eq!(out.delta.counts().updates, 1);
        assert_eq!(repo.version_count("doc"), 2);
        assert_eq!(repo.latest_xml("doc").unwrap(), "<a><b>2</b></a>");
        assert_eq!(repo.version_xml("doc", 0).unwrap(), "<a><b>1</b></a>");
    }

    #[test]
    fn querying_the_past_across_many_versions() {
        let repo = Repository::new();
        for i in 0..6 {
            repo.load_version("doc", &format!("<log><n>{i}</n></log>")).unwrap();
        }
        for i in 0..6 {
            assert_eq!(
                repo.version_xml("doc", i).unwrap(),
                format!("<log><n>{i}</n></log>")
            );
        }
        let agg = repo.delta_between("doc", 1, 4).unwrap();
        assert_eq!(agg.counts().updates, 1, "updates must aggregate: {}", agg.describe());
    }

    #[test]
    fn unknown_keys_and_versions_error() {
        let repo = Repository::new();
        assert!(matches!(
            repo.latest_xml("nope"),
            Err(RepositoryError::UnknownDocument(_))
        ));
        repo.load_version("doc", "<a/>").unwrap();
        assert!(matches!(
            repo.version_xml("doc", 5),
            Err(RepositoryError::UnknownVersion { .. })
        ));
        assert_eq!(repo.version_count("nope"), 0);
    }

    #[test]
    fn malformed_xml_is_rejected() {
        let repo = Repository::new();
        assert!(matches!(
            repo.load_version("doc", "<a><b></a>"),
            Err(RepositoryError::Parse(_))
        ));
        assert_eq!(repo.version_count("doc"), 0);
    }

    #[test]
    fn alerter_is_wired_into_ingest() {
        let mut alerter = Alerter::new();
        alerter.subscribe(
            Subscription::everything("new-products")
                .at_path(["catalog", "product"])
                .only(OpFilter::Insert),
        );
        let repo = Repository::with_options(DiffOptions::default(), alerter);
        repo.load_version("cat", "<catalog><product><name>a</name></product></catalog>")
            .unwrap();
        let out = repo
            .load_version(
                "cat",
                "<catalog><product><name>a</name></product>\
                 <product><name>b</name></product></catalog>",
            )
            .unwrap();
        assert_eq!(out.notifications.len(), 1);
        assert_eq!(out.notifications[0].subscription, "new-products");
    }

    #[test]
    fn concurrent_loads_on_distinct_keys() {
        let repo = Arc::new(Repository::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let repo = Arc::clone(&repo);
            handles.push(std::thread::spawn(move || {
                let key = format!("doc-{t}");
                for v in 0..10 {
                    repo.load_version(&key, &format!("<d><v>{v}</v></d>")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(repo.keys().len(), 8);
        for t in 0..8 {
            assert_eq!(repo.version_count(&format!("doc-{t}")), 10);
            assert_eq!(
                repo.version_xml(&format!("doc-{t}"), 3).unwrap(),
                "<d><v>3</v></d>"
            );
        }
    }

    /// Eight first loads of one key race to insert it: one inserts version
    /// 0, and each of the others diffs against what is stored by then.
    #[test]
    fn concurrent_first_loads_of_one_key_each_store_one_version() {
        let repo = Arc::new(Repository::new());
        let start = Arc::new(std::sync::Barrier::new(8));
        let inputs: Vec<String> = (0..8).map(|t| format!("<d><v>{t}</v></d>")).collect();
        let handles: Vec<_> = inputs
            .iter()
            .cloned()
            .map(|xml| {
                let (repo, start) = (Arc::clone(&repo), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    repo.load_version("doc", &xml).unwrap().version
                })
            })
            .collect();
        let mut versions: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        versions.sort_unstable();
        assert_eq!(versions, (0..8).collect::<Vec<_>>());
        assert_eq!(repo.version_count("doc"), 8);
        let stored: Vec<String> = (0..8).map(|v| repo.version_xml("doc", v).unwrap()).collect();
        for xml in &inputs {
            assert_eq!(stored.iter().filter(|s| *s == xml).count(), 1, "{xml} in {stored:?}");
        }
    }

    #[test]
    fn identical_reload_creates_empty_delta_version() {
        let repo = Repository::new();
        repo.load_version("doc", "<a/>").unwrap();
        let out = repo.load_version("doc", "<a/>").unwrap();
        assert_eq!(out.version, 1);
        assert!(out.delta.is_empty());
    }
}
