//! XyDiff — the BULD change-detection algorithm for XML documents.
//!
//! This crate is the primary contribution of *"Detecting Changes in XML
//! Documents"* (Cobéna, Abiteboul, Marian; ICDE 2002): a diff that runs in
//! `O(n log n)` worst-case time and linear memory, supports **move**
//! operations, and trades a small amount of delta minimality for speed.
//!
//! BULD stands for **B**ottom-**U**p, **L**azy-**D**own propagation:
//! matchings found between identical subtrees are propagated *up* to their
//! ancestors eagerly (bounded by subtree weight) and *down* to descendants
//! only lazily (unique-label children immediately; everything else waits for
//! later queue pops or the final peephole pass).
//!
//! # The five phases (§5.2)
//!
//! 1. **ID attributes** — nodes uniquely identified by a DTD-declared ID
//!    attribute are matched by ID value (and barred from any other match),
//!    then one bottom-up + top-down propagation pass runs.
//! 2. **Signatures & weights** — every subtree gets a content hash and a
//!    weight (`1 + Σ weight(children)` for elements, `1 + log |text|` for
//!    text); a priority queue holds the new document's subtrees by weight.
//! 3. **Heaviest-first matching** — pop the heaviest unmatched subtree, find
//!    same-signature candidates in the old document, pick the candidate
//!    whose ancestors agree with already-matched ancestors (look-up depth
//!    `1 + log n · W/W₀`), match the whole subtree, propagate to same-label
//!    ancestors, and enqueue the children of unmatched elements.
//! 4. **Structural propagation** — bottom-up (adopt the parent of the
//!    heaviest matched-children group) and top-down (match unique same-label
//!    children of matched parents) peephole passes.
//! 5. **Delta construction** — matched nodes inherit XIDs, unmatched nodes
//!    are inserts/deletes, text changes are updates, parent changes are
//!    moves, and within-parent permutations are repaired with a weighted
//!    largest order-preserving subsequence (exact or the paper's fixed-window
//!    heuristic).
//!
//! # Quick start
//!
//! ```
//! use xydelta::XidDocument;
//! use xydiff::{diff, DiffOptions};
//!
//! let v0 = XidDocument::parse_initial("<cat><p>1</p><p>2</p></cat>").unwrap();
//! let v1 = xytree::Document::parse("<cat><p>1</p><p>two</p></cat>").unwrap();
//! let result = diff(&v0, &v1, &DiffOptions::default());
//! assert_eq!(result.delta.counts().updates, 1);
//!
//! // The delta is correct by construction: applying it to v0 yields v1.
//! let mut replay = v0.clone();
//! result.delta.apply_to(&mut replay).unwrap();
//! assert_eq!(replay.doc.to_xml(), v1.to_xml());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buld;
pub mod config;
pub mod differ;
pub mod info;
pub mod matching;
pub mod mode;
pub mod par;
pub mod phase1;
pub mod phase5;
pub mod propagate;
pub mod report;
pub mod scratch;
pub mod similarity;
pub mod unordered;

pub use config::DiffOptions;
pub use differ::Differ;
pub use info::SignatureCache;
pub use matching::Matching;
pub use mode::{MatchMode, ParseMatchModeError};
pub use par::{ParallelRunner, SerialRunner, StdScopeRunner};
pub use report::{DiffResult, DiffStats, PhaseTimings};
pub use scratch::DiffScratch;

use std::time::Instant;
use xydelta::diff_by_xid::CaptureMode;
use xydelta::XidDocument;
use xytree::Document;

/// Diff an XID-carrying old version against a plain new document.
///
/// Returns the delta, the new version with inherited/fresh XIDs, per-phase
/// timings, and matching statistics. The new document is cloned into the
/// result (the diff itself never mutates its inputs).
///
/// The matcher is selected by [`DiffOptions::mode`].
///
/// This is a thin convenience wrapper that allocates fresh working memory
/// per call; long-running callers should hold a [`Differ`] (which owns the
/// options, the reusable scratch, and an optional signature cache) and call
/// [`Differ::diff`] instead.
pub fn diff(old: &XidDocument, new: &Document, opts: &DiffOptions) -> DiffResult {
    let mut scratch = DiffScratch::new();
    diff_dispatch(old, new.clone(), opts, &mut scratch, None, CaptureMode::Owned, &SerialRunner)
}

/// Route a diff to the matcher selected by [`DiffOptions::mode`].
///
/// The BULD arm uses the full machinery (scratch, cache, parallel runner);
/// the unordered and similarity arms take only the scratch's matching and
/// ignore `cache` and `runner` (an installed per-document cache is simply
/// left untouched — it misses safely if the caller later switches back to
/// BULD). All arms honor `capture` and the phase-5 LIS settings, so every
/// mode supports the zero-copy warehouse path.
pub(crate) fn diff_dispatch(
    old: &XidDocument,
    new: Document,
    opts: &DiffOptions,
    scratch: &mut DiffScratch,
    cache: Option<&mut SignatureCache>,
    capture: CaptureMode,
    runner: &dyn par::ParallelRunner,
) -> DiffResult {
    match opts.mode {
        MatchMode::Buld => diff_core(old, new, opts, scratch, cache, capture, runner),
        MatchMode::Unordered => {
            unordered::diff_core_unordered(old, new, opts, &mut scratch.matching, capture)
        }
        MatchMode::Similarity => {
            similarity::diff_core_similarity(old, new, opts, &mut scratch.matching, capture)
        }
    }
}

/// The prologue every matcher shares: size `matching` for both arenas and
/// pair the document roots, which always correspond.
pub(crate) fn start_matching(matching: &mut Matching, old: &XidDocument, new: &Document) {
    matching.reset(old.doc.tree.arena_len(), new.tree.arena_len());
    matching.add(old.doc.tree.root(), new.tree.root());
}

/// The epilogue every matcher shares — phase 5: matched nodes inherit XIDs
/// (`new` moves into the produced version), the delta is built from the two
/// XID-carrying versions, and the node counts close the statistics.
pub(crate) fn finish(
    old: &XidDocument,
    new: Document,
    matching: &Matching,
    opts: &DiffOptions,
    capture: CaptureMode,
    mut stats: DiffStats,
    mut timings: PhaseTimings,
) -> DiffResult {
    stats.old_nodes = old.doc.tree.subtree_size(old.doc.tree.root());
    let t = Instant::now();
    let new_version = phase5::inherit_xids(old, new, matching);
    let lis_window = if opts.exact_lis { None } else { Some(opts.lis_window) };
    let delta = xydelta::diff_by_xid::diff_by_xid_captured(old, &new_version, lis_window, capture);
    timings.phase5 = t.elapsed();
    stats.new_nodes = new_version.doc.tree.subtree_size(new_version.doc.tree.root());
    stats.matched_nodes = matching.matched_count();
    DiffResult { delta, new_version, timings, stats }
}

/// The whole pipeline, owning the new document.
///
/// This is the zero-copy core every public entry point funnels into: the
/// reference-taking wrappers clone at the API boundary, the consuming
/// entry points ([`Differ::diff_consume`] and friends) pass the parse result
/// straight through, so phase 5 inherits XIDs *into* the caller's document
/// instead of a clone of it. `capture` selects how insert/delete payloads
/// are captured (see [`CaptureMode`]); `runner` hosts the data-parallel
/// stages of phases 2 and 3.
pub(crate) fn diff_core(
    old: &XidDocument,
    new: Document,
    opts: &DiffOptions,
    scratch: &mut DiffScratch,
    mut cache: Option<&mut SignatureCache>,
    capture: CaptureMode,
    runner: &dyn par::ParallelRunner,
) -> DiffResult {
    let mut stats = DiffStats::default();
    let mut timings = PhaseTimings::default();

    let old_tree = &old.doc.tree;
    let new_tree = &new.tree;
    // Split borrows: the infos stay shared references through phases 1–4
    // while the matching and BULD state are mutated.
    let DiffScratch { old_info, new_info, matching, buld } = scratch;
    start_matching(matching, old, &new);

    // Phase 2 runs first here: the propagation pass that closes phase 1
    // needs the weights (the paper reports "phase 1 + phase 2" as one curve
    // in Figure 4, so the grouping is faithful).
    let t = Instant::now();
    match cache.as_deref_mut() {
        Some(c) => info::analyze_xid_cached(old, c, old_info),
        None => info::analyze_into(old_tree, old_info),
    }
    info::analyze_into_with(new_tree, new_info, runner);
    timings.phase2 = t.elapsed();
    let new_info_buf = new_info;
    let (old_info, new_info) = (&*old_info, &*new_info_buf);

    // Phase 1: ID-attribute matching (+ one propagation pass).
    let t = Instant::now();
    if opts.use_id_attributes {
        phase1::match_by_id(&old.doc, &new, matching, &mut stats);
        if stats.id_matches > 0 {
            propagate::propagation_pass(old_tree, new_tree, new_info, matching, &mut stats);
        }
    }
    timings.phase1 = t.elapsed();

    // Phase 3: BULD matching loop.
    let t = Instant::now();
    buld::run_with(
        old_tree, new_tree, old_info, new_info, matching, opts, &mut stats, buld, runner,
    );
    timings.phase3 = t.elapsed();

    // Phase 4: structural propagation to fixpoint (bounded passes).
    let t = Instant::now();
    if opts.enable_propagation {
        for _ in 0..opts.propagation_passes {
            let changed =
                propagate::propagation_pass(old_tree, new_tree, new_info, matching, &mut stats);
            if changed == 0 {
                break;
            }
        }
    }
    timings.phase4 = t.elapsed();

    let result = finish(old, new, matching, opts, capture, stats, timings);

    // Hand the next ingest of this document a warm cache: `new_version`
    // wraps the same tree (same NodeIds), so the new side's records index it
    // directly and change hands as they are.
    if let Some(c) = cache {
        c.store(&result.new_version, new_info_buf);
    }
    result
}

/// Convenience wrapper: assign initial XIDs to `old` and diff.
pub fn diff_documents(old: &Document, new: &Document, opts: &DiffOptions) -> DiffResult {
    let old_x = XidDocument::assign_initial(old.clone());
    diff(&old_x, new, opts)
}

/// Convenience wrapper over XML strings with default options.
pub fn diff_str(old_xml: &str, new_xml: &str) -> Result<DiffResult, xytree::ParseError> {
    let old = Document::parse(old_xml)?;
    let new = Document::parse(new_xml)?;
    Ok(diff_documents(&old, &new, &DiffOptions::default()))
}
