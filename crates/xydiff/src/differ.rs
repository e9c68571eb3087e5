//! The unified diff entry point: options + working memory in one value.
//!
//! [`Differ`] owns the [`DiffOptions`] and the reusable working memory of the
//! pipeline (its scratch), so callers configure once and then call
//! [`Differ::diff`] per document pair:
//!
//! ```
//! use xydelta::XidDocument;
//! use xydiff::Differ;
//!
//! let v0 = XidDocument::parse_initial("<cat><p>1</p></cat>").unwrap();
//! let v1 = xytree::Document::parse("<cat><p>one</p></cat>").unwrap();
//!
//! let mut differ = Differ::new();
//! let result = differ.diff(&v0, &v1);
//! assert_eq!(result.delta.counts().updates, 1);
//! ```
//!
//! A long-lived worker holds one `Differ` and reuses it for every diff it
//! runs; the scratch keeps its capacity across calls, so the steady state
//! performs no per-diff structural allocation.
//!
//! A [`SignatureCache`] describes one specific stored version, so it lives
//! with the document, not with the differ: stores keep one *scratch* per
//! worker but one *cache* per document, and pass the cache by reference to
//! [`Differ::diff_consume_with_cache`].

use crate::config::DiffOptions;
use crate::info::SignatureCache;
use crate::mode::MatchMode;
use crate::report::DiffResult;
use crate::scratch::DiffScratch;
use xydelta::CaptureMode;
use xydelta::XidDocument;
use xytree::Document;

/// Builder-style diff engine owning options and scratch. See the module
/// docs for the design.
///
/// The matcher is selected with [`Differ::with_mode`] (or by setting
/// [`DiffOptions::mode`]).
#[derive(Debug, Default)]
pub struct Differ {
    opts: DiffOptions,
    scratch: DiffScratch,
    capture: CaptureMode,
}

impl Differ {
    /// A differ with default [`DiffOptions`] and empty working memory.
    pub fn new() -> Differ {
        Differ::default()
    }

    /// Replace the diff options (builder style).
    #[must_use]
    pub fn with_options(mut self, opts: DiffOptions) -> Differ {
        self.opts = opts;
        self
    }

    /// Select the matcher every diff from this differ runs (builder style).
    /// Shorthand for setting [`DiffOptions::mode`].
    #[must_use]
    pub fn with_mode(mut self, mode: MatchMode) -> Differ {
        self.opts.mode = mode;
        self
    }

    /// Select how insert/delete payloads are captured (builder style).
    ///
    /// [`CaptureMode::Owned`] (the default) clones each payload subtree into
    /// the delta — the right choice when the delta outlives the diffed
    /// documents. [`CaptureMode::Borrowed`] records arena references
    /// instead, deferring the copy to [`xydelta::Delta::into_owned`] (or to
    /// [`xydelta::xml_io::delta_to_xml_with`], which serializes straight
    /// from the sources) — the zero-copy fast path for callers like the
    /// warehouse that hold both documents while consuming the delta.
    #[must_use]
    pub fn with_capture(mut self, capture: CaptureMode) -> Differ {
        self.capture = capture;
        self
    }

    /// The matcher every diff from this differ runs.
    pub fn mode(&self) -> MatchMode {
        self.opts.mode
    }

    /// The options every [`Differ::diff`] call uses.
    pub fn options(&self) -> &DiffOptions {
        &self.opts
    }

    /// Mutable access to the options (for reconfiguring between diffs).
    pub fn options_mut(&mut self) -> &mut DiffOptions {
        &mut self.opts
    }

    /// Diff an XID-carrying old version against a plain new document.
    ///
    /// The scratch is reused across calls; results are byte-identical to a
    /// fresh-memory diff (pinned by the golden-equivalence suite).
    pub fn diff(&mut self, old: &XidDocument, new: &Document) -> DiffResult {
        self.run(old, new.clone(), None)
    }

    /// [`Differ::diff`] consuming the new document.
    ///
    /// Identical output, one subtree-sized copy less: the reference-taking
    /// entry points clone `new` so phase 5 can move it into the produced
    /// version, while this one moves the caller's document straight through.
    /// Ingestion pipelines that parse each incoming version themselves (and
    /// have no further use for the parse) should always take this path.
    pub fn diff_consume(&mut self, old: &XidDocument, new: Document) -> DiffResult {
        self.run(old, new, None)
    }

    /// [`Differ::diff_consume`] with an external per-document cache — the
    /// warehouse steady-state entry point (no clone, cached old side).
    ///
    /// The differ contributes options + scratch; `cache` must describe `old`
    /// (or be empty/cold — a cache describing any other state, or filled by
    /// a mode that folds children the other way, misses) and is refreshed
    /// to describe the produced version before returning. Every mode reads
    /// and refreshes it.
    pub fn diff_consume_with_cache(
        &mut self,
        old: &XidDocument,
        new: Document,
        cache: &mut SignatureCache,
    ) -> DiffResult {
        self.run(old, new, Some(cache))
    }

    /// The one body behind the three entry points; `cache` is the caller's
    /// per-document cache, when it keeps one.
    fn run(
        &mut self,
        old: &XidDocument,
        new: Document,
        cache: Option<&mut SignatureCache>,
    ) -> DiffResult {
        let Differ { opts, scratch, capture } = self;
        crate::diff_core(old, new, opts, scratch, cache, *capture)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (XidDocument, Document) {
        let old = XidDocument::parse_initial("<a><b>1</b><c>2</c></a>").unwrap();
        let new = Document::parse("<a><b>1</b><c>three</c></a>").unwrap();
        (old, new)
    }

    #[test]
    fn differ_matches_free_function() {
        let (old, new) = pair();
        let free = crate::diff(&old, &new, &DiffOptions::default());
        let mut differ = Differ::new();
        let owned = differ.diff(&old, &new);
        assert_eq!(
            xydelta::xml_io::delta_to_xml(&free.delta),
            xydelta::xml_io::delta_to_xml(&owned.delta)
        );
    }

    #[test]
    fn reused_differ_is_deterministic() {
        let (old, new) = pair();
        let mut differ = Differ::new();
        let first = xydelta::xml_io::delta_to_xml(&differ.diff(&old, &new).delta);
        for _ in 0..5 {
            let again = xydelta::xml_io::delta_to_xml(&differ.diff(&old, &new).delta);
            assert_eq!(first, again);
        }
    }

    #[test]
    fn external_cache_follows_a_version_chain() {
        let mut differ = Differ::new();
        let mut cache = SignatureCache::new();
        let mut cur = XidDocument::parse_initial("<log><e>0</e></log>").unwrap();
        for v in 1..5 {
            let next = Document::parse(&format!("<log><e>{v}</e></log>")).unwrap();
            let r = differ.diff_consume_with_cache(&cur, next, &mut cache);
            assert_eq!(r.delta.counts().updates, 1);
            cur = r.new_version;
        }
        let (hits, _misses) = cache.counters();
        assert!(hits > 0, "warm chain must hit the cache");
    }

    #[test]
    fn external_cache_matches_uncached() {
        let (old, new) = pair();
        let mut differ = Differ::new();
        let plain = xydelta::xml_io::delta_to_xml(&differ.diff(&old, &new).delta);
        let mut cache = SignatureCache::new();
        let cached = xydelta::xml_io::delta_to_xml(
            &differ.diff_consume_with_cache(&old, new.clone(), &mut cache).delta,
        );
        assert_eq!(plain, cached);
    }

    #[test]
    fn mode_selection_routes_to_each_matcher() {
        let old = XidDocument::parse_initial("<t><a>1</a><b>2</b></t>").unwrap();
        let new = Document::parse("<t><b>2</b><a>1</a></t>").unwrap();
        for mode in MatchMode::all() {
            let mut differ = Differ::new().with_mode(mode);
            assert_eq!(differ.mode(), mode);
            let r = differ.diff(&old, &new);
            let mut replay = old.clone();
            r.delta.apply_to(&mut replay).unwrap();
            assert_eq!(replay.doc.to_xml(), new.to_xml(), "mode {mode}");
            xydelta::verify(&r.delta).unwrap_or_else(|e| panic!("mode {mode}: {e}"));
        }
    }

    #[test]
    fn options_are_configurable() {
        let differ = Differ::new().with_options(DiffOptions { exact_lis: true, ..Default::default() });
        assert!(differ.options().exact_lis);
        let mut differ = differ;
        differ.options_mut().exact_lis = false;
        assert!(!differ.options().exact_lis);
    }
}
