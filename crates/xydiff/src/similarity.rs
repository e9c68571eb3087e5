//! A LaDiff-inspired similarity matcher — the §3 comparator.
//!
//! "Perhaps the closest in spirit to our algorithm is LaDiff or MH-Diff
//! [Chawathe et al.]. It introduces a matching criteria to compare nodes,
//! and the overall matching between both versions of the document is decided
//! on this base." Where BULD matches *identical* subtrees by hash signature
//! and propagates, LaDiff matches **leaves by textual similarity** and
//! internal nodes by the **fraction of matched descendants** they share.
//!
//! This module implements that matching philosophy (leaf similarity via a
//! word-level Dice coefficient, internal nodes by majority vote over matched
//! children with a ratio threshold) and then reuses the shared delta
//! construction, so the two matchers are compared on equal footing: same
//! change model, same move detection, different matchings. It exists as a
//! baseline — quality and cost comparisons live in the `xybench` harness —
//! not as the production path.

use crate::info::TreeInfo;
use crate::matching::Matching;
use crate::report::{DiffStats, PhaseTimings};
use std::time::Instant;
use xytree::{fast_map, FastHashMap};
use xytree::{NodeId, NodeKind, Tree};

/// Minimum Dice similarity for two text leaves to match (LaDiff's `f`).
const LEAF_THRESHOLD: f64 = 0.5;

/// Minimum fraction of an element's children that must point at the same
/// old parent (LaDiff's `t` over common descendants).
const PARENT_RATIO: f64 = 0.5;

/// Candidates examined per leaf before giving up (cost bound).
const MAX_LEAF_CANDIDATES: usize = 64;

/// Bottom-up passes over the element structure.
const PASSES: usize = 2;

/// The similarity matcher: leaves by similarity (timed as phase 3), then
/// internal nodes by a vote weighted with the new side's phase-2 weights,
/// and the children of matched pairs by unique label (timed as phase 4).
pub(crate) fn run(
    old_tree: &Tree,
    new_tree: &Tree,
    new_info: &TreeInfo,
    matching: &mut Matching,
    stats: &mut DiffStats,
    timings: &mut PhaseTimings,
) {
    // --- Leaf matching by similarity. ---
    let t = Instant::now();
    match_leaves(old_tree, new_tree, matching, stats);
    timings.phase3 = t.elapsed();

    // --- Internal nodes by matched-children vote, then children alignment
    // (LaDiff matches internal nodes by shared descendants and aligns the
    // children of matched parents when generating its edit script; the
    // unique-label alignment below is that second half). ---
    let t = Instant::now();
    for _ in 0..PASSES {
        let mut changed = match_internal(old_tree, new_tree, new_info, matching, stats);
        for n in new_tree.descendants(new_tree.root()) {
            if let Some(o) = matching.old_of_new(n) {
                changed += align_unique_element_children(old_tree, new_tree, matching, o, n, stats);
            }
        }
        if changed == 0 {
            break;
        }
    }
    timings.phase4 = t.elapsed();
}

/// Word-level Dice similarity of two strings.
fn dice(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    let wa: Vec<&str> = a.split_whitespace().collect();
    let wb: Vec<&str> = b.split_whitespace().collect();
    if wa.is_empty() || wb.is_empty() {
        return 0.0;
    }
    let mut counts: FastHashMap<&str, isize> = fast_map();
    for w in &wa {
        *counts.entry(w).or_insert(0) += 1;
    }
    let mut common = 0usize;
    for w in &wb {
        if let Some(c) = counts.get_mut(w) {
            if *c > 0 {
                *c -= 1;
                common += 1;
            }
        }
    }
    2.0 * common as f64 / (wa.len() + wb.len()) as f64
}

/// The grouping key for leaves: the enclosing element's label.
fn leaf_group(tree: &Tree, leaf: NodeId) -> &str {
    tree.parent(leaf).and_then(|p| tree.name(p)).unwrap_or("#root")
}

fn match_leaves(
    old: &Tree,
    new: &Tree,
    matching: &mut Matching,
    stats: &mut DiffStats,
) {
    // Old text leaves grouped by enclosing label.
    let mut groups: FastHashMap<&str, Vec<NodeId>> = fast_map();
    for n in old.descendants(old.root()) {
        if old.kind(n).is_text() {
            groups.entry(leaf_group(old, n)).or_default().push(n);
        }
    }
    for n in new.descendants(new.root()) {
        if !new.kind(n).is_text() || !matching.available_new(n) {
            continue;
        }
        let NodeKind::Text(content) = new.kind(n) else { continue };
        let Some(cands) = groups.get(leaf_group(new, n)) else { continue };
        let mut best: Option<(f64, NodeId)> = None;
        let mut examined = 0usize;
        for &c in cands {
            if !matching.available_old(c) {
                continue;
            }
            examined += 1;
            if examined > MAX_LEAF_CANDIDATES {
                break;
            }
            let NodeKind::Text(old_content) = old.kind(c) else { continue };
            let s = dice(old_content, content);
            if s >= LEAF_THRESHOLD && best.map_or(true, |(bs, _)| s > bs) {
                best = Some((s, c));
                if s == 1.0 {
                    break;
                }
            }
        }
        if let Some((_, c)) = best {
            matching.add(c, n);
            stats.signature_matches += 1; // counted as "content matches"
        }
    }
}

/// Align children of a matched pair by unique element label — elements only:
/// text leaves match exclusively through the similarity threshold, which is
/// the point of this matcher.
fn align_unique_element_children(
    old: &Tree,
    new: &Tree,
    matching: &mut Matching,
    po: NodeId,
    pn: NodeId,
    stats: &mut DiffStats,
) -> usize {
    let unique_by_label = |tree: &Tree, parent: NodeId, avail: &dyn Fn(NodeId) -> bool| {
        let mut map: FastHashMap<String, Option<NodeId>> = fast_map();
        for c in tree.children(parent) {
            if !avail(c) {
                continue;
            }
            if let Some(name) = tree.name(c) {
                map.entry(name.to_string())
                    .and_modify(|slot| *slot = None)
                    .or_insert(Some(c));
            }
        }
        map
    };
    let old_unique = unique_by_label(old, po, &|c| matching.available_old(c));
    let new_unique = unique_by_label(new, pn, &|c| matching.available_new(c));
    let mut added = 0;
    for (label, slot) in new_unique {
        let Some(nc) = slot else { continue };
        let Some(Some(oc)) = old_unique.get(&label).copied() else { continue };
        if matching.can_match(oc, nc) {
            matching.add(oc, nc);
            stats.propagation_matches += 1;
            added += 1;
        }
    }
    added
}

fn match_internal(
    old: &Tree,
    new: &Tree,
    new_info: &TreeInfo,
    matching: &mut Matching,
    stats: &mut DiffStats,
) -> usize {
    let mut added = 0;
    let mut votes: FastHashMap<NodeId, f64> = fast_map();
    for n in new.post_order(new.root()) {
        if !new.kind(n).is_element() || !matching.available_new(n) {
            continue;
        }
        votes.clear();
        let mut total = 0.0;
        for c in new.children(n) {
            let w = new_info.weight(c);
            total += w;
            if let Some(oc) = matching.old_of_new(c) {
                if let Some(po) = old.parent(oc) {
                    *votes.entry(po).or_insert(0.0) += w;
                }
            }
        }
        let Some((&po, &vote)) = votes
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1).then_with(|| b.0.cmp(a.0)))
        else {
            continue;
        };
        // LaDiff's common-descendant ratio, here over child weight.
        let old_total: f64 = old.children(po).count().max(1) as f64;
        let new_total = total.max(1.0);
        let ratio = vote / new_total.max(old_total);
        if ratio >= PARENT_RATIO
            && matching.available_old(po)
            && old.name(po) == new.name(n)
        {
            matching.add(po, n);
            stats.propagation_matches += 1;
            added += 1;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::MatchMode;
    use crate::report::DiffResult;
    use crate::Differ;
    use xydelta::XidDocument;
    use xytree::Document;

    fn run(old_xml: &str, new_xml: &str) -> DiffResult {
        let old = XidDocument::parse_initial(old_xml).unwrap();
        let new = Document::parse(new_xml).unwrap();
        let mut differ = Differ::new().with_mode(MatchMode::Similarity);
        let r = differ.diff(&old, &new);
        let mut replay = old.clone();
        r.delta.apply_to(&mut replay).expect("similarity delta applies");
        assert_eq!(replay.doc.to_xml(), new.to_xml(), "correctness holds for any matcher");
        r
    }

    #[test]
    fn dice_similarity_behaves() {
        assert_eq!(dice("a b c", "a b c"), 1.0);
        assert!(dice("the quick brown fox", "the quick red fox") > 0.7);
        assert_eq!(dice("alpha beta", "gamma delta"), 0.0);
        assert_eq!(dice("", "x"), 0.0);
        // Multiset semantics: repeated words only pair up as often as they
        // occur on both sides.
        assert!((dice("a a b", "a c c") - (2.0 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn identical_documents_match_fully() {
        let r = run("<a><p>one two</p><q>three</q></a>", "<a><p>one two</p><q>three</q></a>");
        assert!(r.delta.is_empty(), "{}", r.delta.describe());
    }

    #[test]
    fn similar_text_becomes_update_not_replace() {
        let r = run(
            "<a><p>the quick brown fox jumps</p></a>",
            "<a><p>the quick red fox jumps</p></a>",
        );
        let c = r.delta.counts();
        assert_eq!(c.updates, 1, "{}", r.delta.describe());
        assert_eq!((c.deletes, c.inserts), (0, 0));
    }

    #[test]
    fn dissimilar_text_is_replaced() {
        let r = run(
            "<a><p>alpha beta gamma</p></a>",
            "<a><p>one two three</p></a>",
        );
        let c = r.delta.counts();
        assert_eq!(c.updates, 0, "below the threshold nothing matches: {}", r.delta.describe());
        assert!(c.deletes >= 1 && c.inserts >= 1);
    }

    #[test]
    fn moves_are_detected_through_leaf_anchors() {
        let r = run(
            "<a><x><item>distinctive payload text</item></x><y/></a>",
            "<a><x/><y><item>distinctive payload text</item></y></a>",
        );
        let c = r.delta.counts();
        assert!(c.moves >= 1, "{}", r.delta.describe());
        assert_eq!(c.deletes + c.inserts, 0, "{}", r.delta.describe());
    }

    #[test]
    fn correctness_on_simulated_changes() {
        use xysim::{generate, simulate, ChangeConfig, DocGenConfig, DocKind};
        for seed in 0..3 {
            let doc = generate(&DocGenConfig {
                kind: DocKind::Catalog,
                target_nodes: 400,
                seed,
                id_attributes: false,
            });
            let old = XidDocument::assign_initial(doc);
            let sim = simulate(&old, &ChangeConfig::uniform(0.1, seed));
            let mut differ = Differ::new().with_mode(MatchMode::Similarity);
            let r = differ.diff(&old, &sim.new_version.doc);
            let mut replay = old.clone();
            r.delta.apply_to(&mut replay).unwrap();
            assert_eq!(replay.doc.to_xml(), sim.new_version.doc.to_xml(), "seed {seed}");
        }
    }

    #[test]
    fn buld_beats_similarity_on_structure_heavy_changes() {
        // Structure-only churn (no distinctive text): signatures shine,
        // similarity has few anchors.
        use xysim::{generate, simulate, ChangeConfig, DocGenConfig, DocKind};
        let doc = generate(&DocGenConfig {
            kind: DocKind::Catalog,
            target_nodes: 800,
            seed: 5,
            id_attributes: false,
        });
        let old = XidDocument::assign_initial(doc);
        let sim = simulate(&old, &ChangeConfig { p_delete: 0.05, p_update: 0.0, p_insert: 0.0, p_move: 0.25, seed: 2 });
        let buld = crate::diff(&old, &sim.new_version.doc, &crate::DiffOptions::default());
        let simi = Differ::new()
            .with_mode(MatchMode::Similarity)
            .diff(&old, &sim.new_version.doc);
        assert!(
            buld.delta.size_bytes() <= simi.delta.size_bytes(),
            "BULD {} B should not lose to similarity {} B on move-heavy change",
            buld.delta.size_bytes(),
            simi.delta.size_bytes()
        );
    }
}
