//! An X-Diff-style **unordered** matcher — children pair by subtree
//! signature *multiset*, not by position.
//!
//! "Most existing work … including our BULD algorithm, models an XML
//! document as an ordered tree." For data-centric XML the order of sibling
//! elements is frequently incidental (a database export re-emitting rows in
//! a different order has not *changed*), and an ordered matcher pays for
//! that with spurious operations. X-Diff (Wang, DeWitt, Cai: *X-Diff: An
//! Effective Change Detection Algorithm for XML Documents*, ICDE 2003)
//! treats the document as an unordered tree and matches subtrees by
//! content, which this module reproduces in the XyDiff pipeline:
//!
//! 1. **Commutative signatures** — every subtree gets a hash in which the
//!    children's contribution is an order-insensitive sum, so two subtrees
//!    whose descendants are permutations of each other hash identically at
//!    every level (the analogue of X-Diff's `XHash`).
//! 2. **Multiset pairing** — starting from the matched roots, the children
//!    of every matched pair are grouped by signature; equal-signature
//!    subtrees pair off in occurrence order and match recursively, wholesale.
//! 3. **Bucket fallback** — leftover (changed) children are bucketed by
//!    label and node type; within a bucket a deterministic min-cost
//!    assignment pairs the elements whose child-signature multisets overlap
//!    most (the bounded analogue of X-Diff's minimum-cost bipartite
//!    matching), and text/comment/PI leftovers pair in occurrence order
//!    (becoming updates).
//! 4. **Shared delta construction** — the matching feeds the same phase-5
//!    XID inheritance and [`xydelta::diff_by_xid`] delta builder as BULD,
//!    so unordered deltas are valid, verify-clean, and reproduce the new
//!    document *byte-for-byte* — element order included. "Unordered" is a
//!    property of the matching, not of the delta: a pure permutation of
//!    identical children costs only move operations, never delete + insert.
//!
//! Like X-Diff — and unlike BULD — this matcher only pairs nodes whose
//! parents are paired, so a subtree that moved to a different parent is
//! reported as delete + insert rather than a move. That is the documented
//! trade-off of the unordered model, not a defect.

use crate::config::DiffOptions;
use crate::matching::Matching;
use crate::report::{DiffResult, DiffStats, PhaseTimings};
use std::time::Instant;
use xydelta::diff_by_xid::CaptureMode;
use xydelta::XidDocument;
use xytree::hash::{fast_map, FastHashMap, Fnv64};
use xytree::{Document, NodeId, NodeKind, Tree};

/// Cost-matrix budget for the label-bucket fallback: a bucket of `o` old ×
/// `n` new changed subtrees runs min-cost assignment only while `o · n`
/// stays within this bound, and degrades to occurrence-order pairing beyond
/// it (the X-Diff `O(n²)` worst case, capped).
const MAX_BUCKET_PAIRS: usize = 4096;

/// Minimum fraction of combined children two changed elements must share
/// (by subtree-signature multiset) to be paired by the fallback; below it
/// the pair is left unmatched (delete + insert). 0 accepts any same-label
/// pair.
const MIN_CHILD_OVERLAP: f64 = 0.0;

/// Domain-separation seeds for the commutative signature. Deliberately
/// distinct from the ordered signature seeds in `info.rs`: an ordered and
/// an unordered signature must never collide by construction.
mod seed {
    /// Document-root signature seed.
    pub const DOCUMENT: u64 = 0x0D0C_0D0C;
    /// Element signature seed (name + sorted attributes folded in).
    pub const ELEMENT: u64 = 0x0E1E_0E1E;
    /// Text-node signature seed.
    pub const TEXT: u64 = 0x07E7_07E7;
    /// Comment signature seed.
    pub const COMMENT: u64 = 0x0C03_0C03;
    /// Processing-instruction signature seed.
    pub const PI: u64 = 0x0091_0091;
}

/// SplitMix64 finalizer: decorrelates child signatures before the
/// commutative (wrapping-add) fold, so that e.g. `{a, a}` and `{b, c}` with
/// `b + c = 2a` do not collide structurally.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Compute the commutative subtree signature for every attached node.
///
/// One post-order pass; the returned vector is indexed by
/// [`NodeId::index`]. Detached arena slots keep signature 0 (never read —
/// matching only walks attached children).
pub fn unordered_signatures(tree: &Tree) -> Vec<u64> {
    let mut sigs = vec![0u64; tree.arena_len()];
    for node in tree.post_order(tree.root()) {
        let mut h;
        match tree.kind(node) {
            NodeKind::Document => {
                h = Fnv64::with_seed(seed::DOCUMENT);
            }
            NodeKind::Element(e) => {
                h = Fnv64::with_seed(seed::ELEMENT);
                h.update(e.name.as_bytes());
                h.update(&[0]);
                // Attributes are already a set: fold in name order, exactly
                // as the ordered signature does.
                let mut fold = |a: &xytree::Attr| {
                    h.update(a.name.as_bytes());
                    h.update(&[1]);
                    h.update(a.value.as_bytes());
                    h.update(&[2]);
                };
                if e.attrs.windows(2).all(|w| w[0].name <= w[1].name) {
                    for a in e.attrs {
                        fold(a);
                    }
                } else {
                    let mut idx: Vec<usize> = (0..e.attrs.len()).collect();
                    idx.sort_by(|&a, &b| e.attrs[a].name.cmp(&e.attrs[b].name));
                    for i in idx {
                        fold(&e.attrs[i]);
                    }
                }
            }
            NodeKind::Text(t) => {
                h = Fnv64::with_seed(seed::TEXT);
                h.update(t.as_bytes());
            }
            NodeKind::Comment(c) => {
                h = Fnv64::with_seed(seed::COMMENT);
                h.update(c.as_bytes());
            }
            NodeKind::Pi { target, data } => {
                h = Fnv64::with_seed(seed::PI);
                h.update(target.as_bytes());
                h.update(&[0]);
                h.update(data.as_bytes());
            }
        }
        // The children's contribution is a wrapping sum of mixed child
        // signatures: commutative, so sibling order cannot influence it.
        let mut children_sum = 0u64;
        for c in tree.children(node) {
            children_sum = children_sum.wrapping_add(mix(sigs[c.index()]));
        }
        h.update_u64(children_sum);
        sigs[node.index()] = h.value();
    }
    sigs
}

/// The bucket key for changed (leftover) children: node type + label.
/// Only same-kind, same-label nodes are candidates for fallback pairing.
///
/// Comments and PIs are deliberately excluded: a leftover comment/PI has
/// different content by construction (identical ones paired by signature),
/// and the shared delta builder only expresses content changes as updates
/// for *text* nodes — pairing a changed comment would silently drop the
/// change. They become delete + insert instead.
#[derive(PartialEq, Eq, Hash)]
enum BucketKey<'t> {
    Element(&'t str),
    Text,
}

fn bucket_key<'t>(tree: &'t Tree, node: NodeId) -> Option<BucketKey<'t>> {
    match tree.kind(node) {
        NodeKind::Element(e) => Some(BucketKey::Element(e.name.as_str())),
        NodeKind::Text(_) => Some(BucketKey::Text),
        NodeKind::Comment(_) | NodeKind::Pi { .. } | NodeKind::Document => None,
    }
}

/// How many of `old`'s children pair with `new`'s by signature multiset
/// (the size of the multiset intersection), plus both child counts.
fn child_overlap(
    old_tree: &Tree,
    new_tree: &Tree,
    old_sigs: &[u64],
    new_sigs: &[u64],
    o: NodeId,
    n: NodeId,
    counts: &mut FastHashMap<u64, usize>,
) -> (usize, usize, usize) {
    counts.clear();
    let mut old_n = 0usize;
    for c in old_tree.children(o) {
        *counts.entry(old_sigs[c.index()]).or_insert(0) += 1;
        old_n += 1;
    }
    let mut shared = 0usize;
    let mut new_n = 0usize;
    for c in new_tree.children(n) {
        new_n += 1;
        if let Some(slot) = counts.get_mut(&new_sigs[c.index()]) {
            if *slot > 0 {
                *slot -= 1;
                shared += 1;
            }
        }
    }
    (shared, old_n, new_n)
}

/// Run the unordered matching from the (pre-matched) roots down.
///
/// Invariant maintained throughout: a node is only matched when its parent
/// is matched, and every `Matching::add` pairs two available nodes.
fn run_matching<'t>(
    old_tree: &'t Tree,
    new_tree: &'t Tree,
    old_sigs: &[u64],
    new_sigs: &[u64],
    matching: &mut Matching,
    stats: &mut DiffStats,
) {
    let mut work: Vec<(NodeId, NodeId)> = vec![(old_tree.root(), new_tree.root())];
    // Scratch maps, reused across work items.
    let mut by_sig: FastHashMap<u64, Vec<NodeId>> = fast_map();
    let mut overlap_counts: FastHashMap<u64, usize> = fast_map();

    while let Some((po, pn)) = work.pop() {
        // --- Step 1: equal-signature pairing, occurrence order. ---
        by_sig.clear();
        for oc in old_tree.children(po) {
            if matching.available_old(oc) {
                // Occurrence order: push back, consume from the front.
                by_sig.entry(old_sigs[oc.index()]).or_default().push(oc);
            }
        }
        // Cursors into each group (front-consumption without a deque).
        let mut cursors: FastHashMap<u64, usize> = fast_map();
        let mut leftover_new: Vec<NodeId> = Vec::new();
        for nc in new_tree.children(pn) {
            if !matching.available_new(nc) {
                continue;
            }
            let sig = new_sigs[nc.index()];
            let paired = match by_sig.get(&sig) {
                Some(group) => {
                    let cur = cursors.entry(sig).or_insert(0);
                    if *cur < group.len() {
                        let oc = group[*cur];
                        *cur += 1;
                        Some(oc)
                    } else {
                        None
                    }
                }
                None => None,
            };
            if let Some(oc) = paired {
                matching.add(oc, nc);
                stats.signature_matches += 1;
                work.push((oc, nc));
            } else {
                leftover_new.push(nc);
            }
        }
        if leftover_new.is_empty() {
            continue;
        }

        // --- Step 2: bucket fallback over the changed children. ---
        let mut old_buckets: FastHashMap<BucketKey<'t>, Vec<NodeId>> = fast_map();
        for oc in old_tree.children(po) {
            if matching.available_old(oc) {
                if let Some(key) = bucket_key(old_tree, oc) {
                    old_buckets.entry(key).or_default().push(oc);
                }
            }
        }
        let mut new_buckets: FastHashMap<BucketKey<'t>, Vec<NodeId>> = fast_map();
        for &nc in &leftover_new {
            if let Some(key) = bucket_key(new_tree, nc) {
                new_buckets.entry(key).or_default().push(nc);
            }
        }
        // Deterministic bucket order: new children occurrence order decides
        // (iterate leftover_new, process each key once).
        let mut processed: Vec<BucketKey<'t>> = Vec::new();
        for &first_nc in &leftover_new {
            let Some(key) = bucket_key(new_tree, first_nc) else { continue };
            if processed.contains(&key) {
                continue;
            }
            if let (Some(olds), Some(news)) = (old_buckets.get(&key), new_buckets.get(&key)) {
                let pairs = pair_bucket(
                    old_tree,
                    new_tree,
                    old_sigs,
                    new_sigs,
                    olds,
                    news,
                    matches!(key, BucketKey::Element(_)),
                    &mut overlap_counts,
                );
                for (oc, nc) in pairs {
                    if matching.can_match(oc, nc) {
                        matching.add(oc, nc);
                        stats.propagation_matches += 1;
                        work.push((oc, nc));
                    }
                }
            }
            processed.push(key);
        }
    }
}

/// Pair one label/type bucket of changed children.
///
/// Elements use a deterministic greedy min-cost assignment on child-multiset
/// overlap while `|old| · |new|` fits [`MAX_BUCKET_PAIRS`] (and
/// occurrence-order zip beyond it); non-elements always zip in occurrence
/// order (text pairs become updates).
#[allow(clippy::too_many_arguments)]
fn pair_bucket(
    old_tree: &Tree,
    new_tree: &Tree,
    old_sigs: &[u64],
    new_sigs: &[u64],
    olds: &[NodeId],
    news: &[NodeId],
    elements: bool,
    overlap_counts: &mut FastHashMap<u64, usize>,
) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    if !elements || olds.len() * news.len() > MAX_BUCKET_PAIRS {
        // Occurrence-order zip: the deterministic O(n) degradation.
        for (&oc, &nc) in olds.iter().zip(news.iter()) {
            out.push((oc, nc));
        }
        return out;
    }
    // Score every pair; greedily take the best-overlapping ones. Ties break
    // on occurrence indices, so the result is deterministic.
    let mut scored: Vec<(usize, usize, usize)> = Vec::with_capacity(olds.len() * news.len());
    for (oi, &oc) in olds.iter().enumerate() {
        for (ni, &nc) in news.iter().enumerate() {
            let (shared, o_n, n_n) = child_overlap(
                old_tree, new_tree, old_sigs, new_sigs, oc, nc, overlap_counts,
            );
            let total = o_n + n_n;
            let frac = if total == 0 { 1.0 } else { 2.0 * shared as f64 / total as f64 };
            if frac < MIN_CHILD_OVERLAP {
                continue;
            }
            // Cost = symmetric difference of the child multisets; lower is
            // better. Childless same-label pairs cost 0 (attr/update diffs).
            let cost = total - 2 * shared;
            scored.push((cost, oi, ni));
        }
    }
    scored.sort_unstable();
    let mut old_used = vec![false; olds.len()];
    let mut new_used = vec![false; news.len()];
    for (_, oi, ni) in scored {
        if !old_used[oi] && !new_used[ni] {
            old_used[oi] = true;
            new_used[ni] = true;
            out.push((olds[oi], news[ni]));
        }
    }
    out
}

/// The unordered pipeline core: signatures, multiset matching, shared
/// phase-5 delta construction. Owns the new document (zero-copy like
/// [`crate::diff_core`]); `capture` selects payload capture exactly as in
/// the BULD core.
pub(crate) fn diff_core_unordered(
    old: &XidDocument,
    new: Document,
    opts: &DiffOptions,
    matching: &mut Matching,
    capture: CaptureMode,
) -> DiffResult {
    let mut stats = DiffStats::default();
    let mut timings = PhaseTimings::default();
    let old_tree = &old.doc.tree;
    let new_tree = &new.tree;

    let t = Instant::now();
    let old_sigs = unordered_signatures(old_tree);
    let new_sigs = unordered_signatures(new_tree);
    timings.phase2 = t.elapsed();

    let t = Instant::now();
    crate::start_matching(matching, old, &new);
    run_matching(old_tree, new_tree, &old_sigs, &new_sigs, matching, &mut stats);
    timings.phase3 = t.elapsed();

    (stats.old_nodes, stats.new_nodes) = crate::count_nodes(old, &new);
    crate::finish(old, new, matching, opts, capture, stats, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::MatchMode;
    use crate::DiffOptions;

    fn run(old_xml: &str, new_xml: &str) -> DiffResult {
        let old = XidDocument::parse_initial(old_xml).unwrap();
        let new = Document::parse(new_xml).unwrap();
        let opts = DiffOptions { mode: MatchMode::Unordered, ..Default::default() };
        let r = crate::diff(&old, &new, &opts);
        let mut replay = old.clone();
        r.delta.apply_to(&mut replay).expect("unordered delta applies");
        assert_eq!(replay.doc.to_xml(), new.to_xml(), "correctness holds for any matcher");
        xydelta::verify(&r.delta).expect("unordered delta verifies");
        r
    }

    #[test]
    fn commutative_signatures_ignore_sibling_order() {
        let a = Document::parse("<r><a>1</a><b>2</b><c/></r>").unwrap();
        let b = Document::parse("<r><c/><b>2</b><a>1</a></r>").unwrap();
        let sa = unordered_signatures(&a.tree);
        let sb = unordered_signatures(&b.tree);
        assert_eq!(sa[a.tree.root().index()], sb[b.tree.root().index()]);

        let c = Document::parse("<r><a>1</a><b>2</b></r>").unwrap();
        let sc = unordered_signatures(&c.tree);
        assert_ne!(sa[a.tree.root().index()], sc[c.tree.root().index()]);
    }

    #[test]
    fn nested_permutations_share_signatures() {
        let a = Document::parse("<r><g><x>1</x><y>2</y></g><g><x>3</x></g></r>").unwrap();
        let b = Document::parse("<r><g><x>3</x></g><g><y>2</y><x>1</x></g></r>").unwrap();
        let sa = unordered_signatures(&a.tree);
        let sb = unordered_signatures(&b.tree);
        assert_eq!(sa[a.tree.root().index()], sb[b.tree.root().index()]);
    }

    #[test]
    fn identical_documents_produce_empty_delta() {
        let r = run("<a><p>one</p><q>two</q></a>", "<a><p>one</p><q>two</q></a>");
        assert!(r.delta.is_empty(), "{}", r.delta.describe());
    }

    #[test]
    fn pure_permutation_costs_no_structural_ops() {
        let r = run(
            "<cat><p>one</p><q>two</q><s>three</s></cat>",
            "<cat><s>three</s><p>one</p><q>two</q></cat>",
        );
        let c = r.delta.counts();
        assert_eq!((c.deletes, c.inserts, c.updates), (0, 0, 0), "{}", r.delta.describe());
        assert!(c.moves >= 1, "order must still be repaired: {}", r.delta.describe());
    }

    #[test]
    fn changed_subtree_pairs_through_bucket_fallback() {
        // The <p>-element changed its text, so its subtree signature differs;
        // the bucket fallback must still pair it (update, not delete+insert).
        let r = run(
            "<cat><p><t>alpha</t><u>keep</u></p><q>x</q></cat>",
            "<cat><q>x</q><p><t>beta</t><u>keep</u></p></cat>",
        );
        let c = r.delta.counts();
        assert_eq!(c.updates, 1, "{}", r.delta.describe());
        assert_eq!((c.deletes, c.inserts), (0, 0), "{}", r.delta.describe());
    }

    #[test]
    fn bucket_assignment_picks_best_overlap() {
        // Two same-label rows changed; each should pair with the old row
        // sharing most children, not the first in document order.
        let old = "<t>\
            <row><a>1</a><b>2</b><c>3</c><id>one</id></row>\
            <row><a>4</a><b>5</b><c>6</c><id>two</id></row>\
        </t>";
        let new = "<t>\
            <row><a>4</a><b>5</b><c>6</c><id>TWO</id></row>\
            <row><a>1</a><b>2</b><c>3</c><id>ONE</id></row>\
        </t>";
        let r = run(old, new);
        let c = r.delta.counts();
        assert_eq!(c.updates, 2, "both ids update in place: {}", r.delta.describe());
        assert_eq!((c.deletes, c.inserts), (0, 0), "{}", r.delta.describe());
    }

    #[test]
    fn cross_parent_move_degrades_to_delete_insert() {
        // Documented trade-off: parents must match for children to match.
        let r = run(
            "<a><x><item>payload</item></x><y/></a>",
            "<a><x/><y><item>payload</item></y></a>",
        );
        let c = r.delta.counts();
        assert_eq!(c.moves, 0, "{}", r.delta.describe());
        assert!(c.deletes >= 1 && c.inserts >= 1, "{}", r.delta.describe());
    }

    #[test]
    fn duplicate_children_permute_cheaply() {
        // All-identical children: occurrence-order pairing keeps relative
        // order, so a "shuffle" of indistinguishable rows is free.
        let r = run(
            "<t><r>same</r><r>same</r><r>same</r></t>",
            "<t><r>same</r><r>same</r><r>same</r></t>",
        );
        assert!(r.delta.is_empty());
    }

    #[test]
    fn changed_comments_replace_rather_than_silently_match() {
        // A changed comment cannot be expressed as an update by the delta
        // builder; the matcher must leave it unmatched (delete + insert),
        // or the replay would drop the content change.
        let r = run("<root><!--x--><b/></root>", "<root><!--y--><b/></root>");
        let c = r.delta.counts();
        assert!(c.deletes >= 1 && c.inserts >= 1, "{}", r.delta.describe());
    }

    #[test]
    fn attribute_changes_survive_unordered_matching() {
        let r = run(
            "<t><row k=\"1\"><c>x</c></row></t>",
            "<t><row k=\"2\"><c>x</c></row></t>",
        );
        let c = r.delta.counts();
        assert!(c.attr_ops >= 1, "{}", r.delta.describe());
        assert_eq!((c.deletes, c.inserts), (0, 0), "{}", r.delta.describe());
    }
}
