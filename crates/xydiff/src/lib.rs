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
//!    ancestors, and enqueue the children of unmatched elements. A subtree
//!    matched whole, every pair by that one match, is *settled*.
//! 4. **Structural propagation** — bottom-up (adopt the parent of the
//!    heaviest matched-children group) and top-down (match unique same-label
//!    children of matched parents) peephole walks; one pass reaches the
//!    fixpoint.
//! 5. **Delta construction** — matched nodes inherit XIDs, unmatched nodes
//!    are inserts/deletes, text changes are updates, parent changes are
//!    moves, and within-parent permutations are repaired with a weighted
//!    largest order-preserving subsequence (exact or the paper's fixed-window
//!    heuristic). The delta is built from the matching in one walk
//!    (`xydelta::diff_matched`).
//!
//! Nothing inside a settled subtree can be unmatched or changed, so phases
//! 4 and 5 do not descend below one: after hashing, a diff costs the nodes
//! outside settled subtrees plus the operations it emits, not the document
//! (§5.1's *lazy down*; DESIGN.md §2 states the rule).
//!
//! # One pipeline, three matchers
//!
//! [`DiffOptions::mode`] picks what runs between phase 2 and phase 5:
//! BULD's phases 1, 3 and 4 (the default), an X-Diff-style matcher that
//! pairs children by signature multiset, or a LaDiff-style matcher that
//! pairs leaves by textual similarity. Every mode runs the same phase 2
//! (the unordered matcher folds children into a signature as an
//! order-insensitive sum) and the same phase 5, so every mode's delta is
//! correct by construction.
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
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]
#![cfg_attr(not(test), warn(clippy::todo, clippy::dbg_macro, clippy::print_stderr))]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod buld;
mod config;
mod differ;
mod info;
mod matching;
mod mode;
mod phase1;
mod phase5;
mod propagate;
mod report;
mod scratch;
mod similarity;
mod unordered;

pub use config::DiffOptions;
pub use differ::Differ;
pub use info::SignatureCache;
pub use mode::{MatchMode, ParseMatchModeError};
pub use report::{DiffResult, DiffStats, PhaseTimings};

use matching::Matching;
use scratch::DiffScratch;
use std::time::Instant;
use xydelta::CaptureMode;
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
/// options and the reusable working memory) and call [`Differ::diff`]
/// instead.
pub fn diff(old: &XidDocument, new: &Document, opts: &DiffOptions) -> DiffResult {
    let mut scratch = DiffScratch::new();
    diff_core(old, new.clone(), opts, &mut scratch, None, CaptureMode::Owned)
}

/// The prologue every matcher shares: size `matching` for both arenas and
/// pair the document roots, which always correspond.
fn start_matching(matching: &mut Matching, old: &XidDocument, new: &Document) {
    matching.reset(old.doc.tree.arena_len(), new.tree.arena_len());
    matching.add(old.doc.tree.root(), new.tree.root());
}

/// The epilogue every matcher shares — phase 5: matched nodes inherit XIDs
/// (`new` moves into the produced version), the delta is built from the
/// matching itself (`xydelta::diff_matched`, pruned at the
/// settled subtrees), and the matching closes the statistics. `stats`
/// arrives with the node counts of phase 2.
fn finish(
    old: &XidDocument,
    new: Document,
    matching: &Matching,
    opts: &DiffOptions,
    capture: CaptureMode,
    mut stats: DiffStats,
    mut timings: PhaseTimings,
) -> DiffResult {
    let t = Instant::now();
    let new_version = phase5::inherit_xids(old, new, matching);
    let lis_window = if opts.exact_lis { None } else { Some(opts.lis_window) };
    let (new_of_old, old_of_new, settled) = matching.as_slices();
    let delta = xydelta::diff_matched(
        old,
        &new_version,
        new_of_old,
        old_of_new,
        settled,
        lis_window,
        capture,
    );
    timings.phase5 = t.elapsed();
    stats.matched_nodes = matching.matched_count();
    DiffResult { delta, new_version, timings, stats }
}

/// The one pipeline, for every [`MatchMode`], owning the new document.
///
/// Phase 2 hashes both sides into the scratch (the old side from `cache`
/// when it describes `old`), folding children in order for BULD and
/// similarity and commutatively for the unordered matcher. The mode's
/// matcher then runs: BULD's phases 1, 3 and 4, the unordered multiset
/// pairing, or similarity's leaf and vote passes. Phase 5 ([`finish`])
/// builds the delta, and the new side's records go into `cache` for the
/// next diff of this document.
///
/// This is the zero-copy core every public entry point funnels into: the
/// reference-taking wrappers clone at the API boundary, the consuming
/// entry points ([`Differ::diff_consume`] and friends) pass the parse result
/// straight through, so phase 5 inherits XIDs *into* the caller's document
/// instead of a clone of it. `capture` selects how insert/delete payloads
/// are captured (see [`CaptureMode`]).
pub(crate) fn diff_core(
    old: &XidDocument,
    new: Document,
    opts: &DiffOptions,
    scratch: &mut DiffScratch,
    mut cache: Option<&mut SignatureCache>,
    capture: CaptureMode,
) -> DiffResult {
    let mut stats = DiffStats::default();
    let mut timings = PhaseTimings::default();

    let old_tree = &old.doc.tree;
    let new_tree = &new.tree;
    // Split borrows: the infos stay shared references through the matcher
    // while the matching and BULD state are mutated.
    let DiffScratch { old_info, new_info, labels, matching, buld } = scratch;
    start_matching(matching, old, &new);

    // Phase 2 runs first for BULD too: the propagation pass that closes
    // phase 1 needs the weights (the paper reports "phase 1 + phase 2" as
    // one curve in Figure 4, so the grouping is faithful).
    let t = Instant::now();
    let c = cache.as_deref_mut();
    if opts.mode == MatchMode::Unordered {
        info::analyze_pair::<true>(old, new_tree, c, labels, old_info, new_info);
    } else {
        info::analyze_pair::<false>(old, new_tree, c, labels, old_info, new_info);
    }
    timings.phase2 = t.elapsed();
    stats.old_nodes = old_info.node_count;
    stats.new_nodes = new_info.node_count;
    let new_info_buf = new_info;
    let (old_info, new_info) = (&*old_info, &*new_info_buf);

    match opts.mode {
        MatchMode::Buld => {
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
                old_tree, new_tree, old_info, new_info, matching, opts, &mut stats, buld,
            );
            timings.phase3 = t.elapsed();

            // Phase 4: structural propagation — one pass is the fixpoint.
            let t = Instant::now();
            if opts.enable_propagation {
                propagate::propagation_pass(old_tree, new_tree, new_info, matching, &mut stats);
            }
            timings.phase4 = t.elapsed();
        }
        MatchMode::Unordered => {
            let t = Instant::now();
            unordered::run_matching(old_tree, new_tree, old_info, new_info, matching, &mut stats);
            timings.phase3 = t.elapsed();
        }
        MatchMode::Similarity => {
            similarity::run(old_tree, new_tree, new_info, matching, &mut stats, &mut timings);
        }
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use xydelta::diff_by_xid;
    use xydelta::xml_io;
    use xytree::{PrunedPostOrder, PrunedPreOrder};
    use xytree::NodeId;

    /// `<catalog>` of `sections` sections of ten distinct products,
    /// `<product><name>…</name><desc>…</desc></product>`: 51 nodes a
    /// section. `edit` rewrites the description of one product.
    fn catalog(sections: usize, doctype: &str, edit: Option<(usize, usize)>) -> String {
        let mut xml = format!("{doctype}<catalog>");
        for s in 0..sections {
            xml.push_str("<section>");
            for p in 0..10 {
                let id = if (s, p) == (50, 7) { " id='p50-7'" } else { "" };
                let desc = if edit == Some((s, p)) { "rewritten" } else { "as shipped" };
                xml.push_str(&format!(
                    "<product{id}><name>item {s}-{p}</name><desc>{desc} {s}-{p}</desc></product>"
                ));
            }
            xml.push_str("</section>");
        }
        xml.push_str("</catalog>");
        xml
    }

    /// The `p`-th product of the `s`-th section.
    fn product(tree: &xytree::Tree, s: usize, p: usize) -> NodeId {
        let catalog = tree.root_element().unwrap();
        tree.child_at(tree.child_at(catalog, s).unwrap(), p).unwrap()
    }

    /// What the pruned walks of phases 4 (both) and 5 (pre-order) visit
    /// under `m`'s settled marks.
    fn visits(tree: &xytree::Tree, m: &Matching) -> (BTreeSet<NodeId>, BTreeSet<NodeId>) {
        let settled = |v| m.is_settled(v);
        let (mut pre, mut post) = (BTreeSet::new(), BTreeSet::new());
        let mut walk = PrunedPreOrder::new(tree.root());
        while let Some(v) = walk.next(tree, settled) {
            assert!(pre.insert(v), "pre-order visits a node twice");
        }
        let mut walk = PrunedPostOrder::new(tree, tree.root(), settled);
        while let Some(v) = walk.next(tree, settled) {
            assert!(post.insert(v), "post-order visits a node twice");
        }
        (pre, post)
    }

    /// Nodes inside settled subtrees.
    fn settled_nodes(tree: &xytree::Tree, m: &Matching) -> usize {
        tree.descendants(tree.root())
            .filter(|&v| m.is_settled(v) || tree.ancestors(v).any(|a| m.is_settled(a)))
            .count()
    }

    /// The settling cost rule: one text update in a 10 712-node document.
    /// Phase 3 matches everything else in whole subtrees and settles them,
    /// and phases 4–5 then visit the changed node's ancestors and their
    /// children — 225 nodes — not the document.
    #[test]
    fn one_update_settles_the_document_and_the_walks_follow_the_change() {
        let old = XidDocument::parse_initial(&catalog(210, "", None)).unwrap();
        let new = Document::parse(&catalog(210, "", Some((100, 4)))).unwrap();
        let mut scratch = DiffScratch::new();
        let opts = DiffOptions::default();
        let r = diff_core(&old, new, &opts, &mut scratch, None, CaptureMode::Owned);
        let (m, tree) = (&scratch.matching, &r.new_version.doc.tree);
        assert!(r.stats.new_nodes >= 10_000, "{} nodes", r.stats.new_nodes);
        assert_eq!(r.delta.counts().updates, 1);
        assert_eq!(r.delta.len(), 1, "{}", r.delta.describe());
        let settled = settled_nodes(tree, m);
        let total = r.stats.new_nodes;
        assert!(20 * settled >= 19 * total, "phase 3 settled {settled} of {total} nodes");
        // All but the path to the change: document, catalog, section,
        // product, description, text.
        assert_eq!(settled, r.stats.new_nodes - 6);

        let changed = tree.first_child(tree.child_at(product(tree, 100, 4), 1).unwrap()).unwrap();
        let mut expected: BTreeSet<NodeId> =
            tree.ancestors(changed).flat_map(|a| tree.children(a)).collect();
        expected.insert(tree.root());
        let (pre, post) = visits(tree, m);
        assert_eq!(pre.len(), 225);
        assert_eq!(pre, expected, "phase 5 and top-down walks");
        assert_eq!(post, expected, "bottom-up walk");

        let oracle = xml_io::delta_to_xml(&diff_by_xid(&old, &r.new_version));
        assert_eq!(xml_io::delta_to_xml(&r.delta), oracle);
    }

    /// A pair made before phase 3 — here by hand, where phase 1 makes ID
    /// matches — inside a subtree phase 3 then matches whole: that call did
    /// not add every pair, so nothing there is settled and the walks look
    /// inside, and the delta is still the oracle's.
    #[test]
    fn an_earlier_match_inside_a_whole_subtree_prevents_the_mark() {
        let old = XidDocument::parse_initial(&catalog(210, "", None)).unwrap();
        let new = Document::parse(&catalog(210, "", Some((100, 4)))).unwrap();
        let opts = DiffOptions::default();
        let mut m = Matching::new(0, 0);
        start_matching(&mut m, &old, &new);
        let (o_tree, n_tree) = (&old.doc.tree, &new.tree);
        m.add(product(o_tree, 30, 2), product(n_tree, 30, 2));
        let (old_info, new_info) = (info::analyze(o_tree), info::analyze(n_tree));
        let (old_nodes, new_nodes) = (old_info.node_count, new_info.node_count);
        let mut stats = DiffStats { old_nodes, new_nodes, ..Default::default() };
        let scratch = &mut buld::BuldScratch::default();
        buld::run_with(o_tree, n_tree, &old_info, &new_info, &mut m, &opts, &mut stats, scratch);
        let section = n_tree.child_at(n_tree.root_element().unwrap(), 30).unwrap();
        assert!(m.is_matched_new(section), "the section still matches whole");
        assert!(n_tree.descendants(section).all(|v| !m.is_settled(v)), "nothing settled inside");
        assert!(m.is_settled(n_tree.child_at(n_tree.root_element().unwrap(), 31).unwrap()));
        while propagate::propagation_pass(o_tree, n_tree, &new_info, &mut m, &mut stats) > 0 {}

        let (pre, _) = visits(n_tree, &m);
        let entered = n_tree.descendants(section).all(|v| pre.contains(&v));
        assert!(entered, "the walk must enter the section");
        let r = finish(&old, new, &m, &opts, CaptureMode::Owned, stats, PhaseTimings::default());
        assert_eq!(r.delta.len(), 1, "{}", r.delta.describe());
        let oracle = xml_io::delta_to_xml(&diff_by_xid(&old, &r.new_version));
        assert_eq!(xml_io::delta_to_xml(&r.delta), oracle);
    }

    /// The same through phase 1 itself: the new version declares `id` an
    /// ID and the old one does not, so the ID-carrying product finds no
    /// partner and is barred from matching; the section around it matches
    /// whole without it, unsettled, and the delta is still the oracle's.
    #[test]
    fn a_forbidden_node_inside_a_whole_subtree_prevents_the_mark() {
        let dtd = "<!DOCTYPE catalog [<!ATTLIST product id ID #IMPLIED>]>";
        let old = XidDocument::parse_initial(&catalog(60, "", None)).unwrap();
        let new = Document::parse(&catalog(60, dtd, Some((10, 4)))).unwrap();
        let mut scratch = DiffScratch::new();
        let opts = DiffOptions::default();
        let r = diff_core(&old, new, &opts, &mut scratch, None, CaptureMode::Owned);
        let (m, tree) = (&scratch.matching, &r.new_version.doc.tree);
        let section = tree.child_at(tree.root_element().unwrap(), 50).unwrap();
        assert!(!m.is_matched_new(product(tree, 50, 7)), "the ID-carrying product is barred");
        assert!(tree.descendants(section).all(|v| !m.is_settled(v)));
        assert!(r.delta.counts().inserts > 0 && r.delta.counts().deletes > 0);
        let oracle = xml_io::delta_to_xml(&diff_by_xid(&old, &r.new_version));
        assert_eq!(xml_io::delta_to_xml(&r.delta), oracle);
    }
}
