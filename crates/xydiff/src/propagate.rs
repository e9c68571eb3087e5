//! The bottom-up / top-down propagation pass (used after phase 1 and as
//! phase 4), plus the unique-child immediate propagation shared with phase 3.
//!
//! §5.3: "The simple bottom-up and top-down pass … focuses on a fixed set of
//! features that have a constant time and space cost for each (child) node,
//! so that their overall cost is linear in time and space:
//!
//! 1. *propagate to parent*: consider that node i is not matched. If it has
//!    [children] matched … we will prefer the parent i′ of the larger
//!    (weight) set of children …
//! 2. *propagate to children*: if a node is matched, and both it and its
//!    matching have a unique [child] with a given label, then these two
//!    children will be matched."

#![doc = "xylint: hot-path"]

use crate::info::TreeInfo;
use crate::matching::Matching;
use crate::report::DiffStats;
use xytree::hash::{fast_map, FastHashMap};
use xytree::{NodeId, NodeKind, Tree};

/// One bottom-up then top-down pass. Returns the number of matches added.
pub fn propagation_pass(
    old: &Tree,
    new: &Tree,
    new_info: &TreeInfo,
    matching: &mut Matching,
    stats: &mut DiffStats,
) -> usize {
    let mut added = 0usize;

    // --- Bottom-up: propagate to parent. ---
    // Post-order so that matches made at one level feed the next level up
    // within the same pass.
    let mut parent_votes: FastHashMap<NodeId, f64> = fast_map();
    for v in new.post_order(new.root()) {
        if !matching.available_new(v) || !new.kind(v).is_element() {
            continue;
        }
        parent_votes.clear();
        for c in new.children(v) {
            if let Some(oc) = matching.old_of_new(c) {
                if let Some(po) = old.parent(oc) {
                    *parent_votes.entry(po).or_insert(0.0) += new_info.weight(c);
                }
            }
        }
        // Prefer the old parent backed by the largest matched weight.
        let best = parent_votes
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(&po, _)| po);
        if let Some(po) = best {
            if matching.available_old(po) && old.name(po) == new.name(v) {
                matching.add(po, v);
                stats.propagation_matches += 1;
                added += 1;
            }
        }
    }

    // --- Top-down: propagate to children. ---
    for v in new.descendants(new.root()) {
        if let Some(ov) = matching.old_of_new(v) {
            added += match_unique_children(old, new, matching, ov, v, stats);
        }
    }

    added
}

/// Child-matching key: unique-label elements, the (single) text child, and
/// content-identical comments/PIs. Text children match regardless of content
/// (that is what turns a changed string into an *update* instead of a
/// delete+insert); comments and PIs have no update operation in the change
/// model, so they only match on equal content.
#[derive(PartialEq, Eq, Hash, Clone)]
enum ChildKey<'a> {
    Elem(&'a str),
    Text,
    Comment(&'a str),
    Pi(&'a str, &'a str),
}

fn child_key(kind: NodeKind<'_>) -> Option<ChildKey<'_>> {
    match kind {
        NodeKind::Element(e) => Some(ChildKey::Elem(e.name.as_str())),
        NodeKind::Text(_) => Some(ChildKey::Text),
        NodeKind::Comment(c) => Some(ChildKey::Comment(c)),
        NodeKind::Pi { target, data } => Some(ChildKey::Pi(target, data)),
        NodeKind::Document => None,
    }
}

/// If both `po` (old) and `pn` (new) have exactly one available child with a
/// given key, match those children ("when both parents have a single child
/// with a given label, we propagate the match immediately", §5.1). Returns
/// the number of pairs matched.
pub fn match_unique_children(
    old: &Tree,
    new: &Tree,
    matching: &mut Matching,
    po: NodeId,
    pn: NodeId,
    stats: &mut DiffStats,
) -> usize {
    // `None` marks a duplicated key.
    let mut old_unique: FastHashMap<ChildKey<'_>, Option<NodeId>> = fast_map();
    for c in old.children(po) {
        if !matching.available_old(c) {
            continue;
        }
        if let Some(k) = child_key(old.kind(c)) {
            old_unique
                .entry(k)
                .and_modify(|slot| *slot = None)
                .or_insert(Some(c));
        }
    }
    if old_unique.is_empty() {
        return 0;
    }
    let mut new_unique: FastHashMap<ChildKey<'_>, Option<NodeId>> = fast_map();
    for c in new.children(pn) {
        if !matching.available_new(c) {
            continue;
        }
        if let Some(k) = child_key(new.kind(c)) {
            new_unique
                .entry(k)
                .and_modify(|slot| *slot = None)
                .or_insert(Some(c));
        }
    }
    let mut added = 0;
    for (k, slot) in new_unique {
        let Some(nc) = slot else { continue };
        let Some(Some(oc)) = old_unique.get(&k).copied() else { continue };
        if matching.can_match(oc, nc) {
            matching.add(oc, nc);
            stats.propagation_matches += 1;
            added += 1;
        }
    }
    // Deliberately non-recursive: descending further here would pre-empt
    // signature matches still waiting in the phase-3 queue (e.g. it would
    // glue Figure 2's Discount/Product(tx123) to the *moved-in* zy456
    // product, hiding the move). The top-down pass of phase 4 visits the
    // new document in pre-order, so chains of unique children still resolve
    // within one pass — after all signature evidence is in.
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::analyze;
    use xytree::Document;

    struct Fixture {
        old: Document,
        new: Document,
        matching: Matching,
        stats: DiffStats,
    }

    fn fixture(old: &str, new: &str) -> Fixture {
        let old = Document::parse(old).unwrap();
        let new = Document::parse(new).unwrap();
        let mut matching = Matching::new(old.tree.arena_len(), new.tree.arena_len());
        matching.add(old.tree.root(), new.tree.root());
        Fixture { old, new, matching, stats: DiffStats::default() }
    }

    fn by_label(d: &Document, l: &str) -> NodeId {
        d.tree
            .descendants(d.tree.root())
            .find(|&n| d.tree.name(n) == Some(l))
            .unwrap()
    }

    #[test]
    fn top_down_matches_unique_labels() {
        let mut f = fixture("<a><x/><y/></a>", "<a><y/><x/></a>");
        // Pre-match the roots.
        f.matching.add(by_label(&f.old, "a"), by_label(&f.new, "a"));
        let info = analyze(&f.new.tree);
        let added =
            propagation_pass(&f.old.tree, &f.new.tree, &info, &mut f.matching, &mut f.stats);
        assert_eq!(added, 2);
        assert_eq!(
            f.matching.old_of_new(by_label(&f.new, "x")),
            Some(by_label(&f.old, "x"))
        );
    }

    #[test]
    fn duplicate_labels_are_not_matched_top_down() {
        let mut f = fixture("<a><p/><p/></a>", "<a><p/><p/></a>");
        f.matching.add(by_label(&f.old, "a"), by_label(&f.new, "a"));
        let info = analyze(&f.new.tree);
        let added =
            propagation_pass(&f.old.tree, &f.new.tree, &info, &mut f.matching, &mut f.stats);
        assert_eq!(added, 0, "ambiguous children must stay unmatched");
    }

    #[test]
    fn bottom_up_adopts_parent_of_matched_children() {
        let mut f = fixture("<a><sec><p1/><p2/></sec></a>", "<a><sec><p1/><p2/></sec></a>");
        // Match the leaves only; the pass should lift the match to <sec>,
        // then <a> via the votes, then top-down has nothing left.
        f.matching.add(by_label(&f.old, "p1"), by_label(&f.new, "p1"));
        f.matching.add(by_label(&f.old, "p2"), by_label(&f.new, "p2"));
        let info = analyze(&f.new.tree);
        propagation_pass(&f.old.tree, &f.new.tree, &info, &mut f.matching, &mut f.stats);
        assert!(f.matching.is_matched_new(by_label(&f.new, "sec")));
        assert!(f.matching.is_matched_new(by_label(&f.new, "a")));
    }

    #[test]
    fn bottom_up_prefers_heavier_children_group() {
        // New <sec> has children matched to two different old parents; the
        // heavier group (big subtree under old <s1>) must win.
        let mut f = fixture(
            "<a><s1><big><x1/><x2/><x3/></big></s1><s2><small/></s2></a>",
            "<a><sec><big><x1/><x2/><x3/></big><small/></sec></a>",
        );
        f.matching.add(by_label(&f.old, "big"), by_label(&f.new, "big"));
        f.matching.add(by_label(&f.old, "small"), by_label(&f.new, "small"));
        // Rename mismatch: old parents are s1/s2, new is sec — no label
        // agreement, so no match at all.
        let info = analyze(&f.new.tree);
        let before = f.matching.matched_count();
        propagation_pass(&f.old.tree, &f.new.tree, &info, &mut f.matching, &mut f.stats);
        // sec cannot match s1 (different label).
        assert!(!f.matching.is_matched_new(by_label(&f.new, "sec")));
        assert!(f.matching.matched_count() >= before);
    }

    #[test]
    fn bottom_up_respects_label_equality() {
        let mut f = fixture("<a><old><k/></old></a>", "<a><new><k/></new></a>");
        f.matching.add(by_label(&f.old, "k"), by_label(&f.new, "k"));
        let info = analyze(&f.new.tree);
        propagation_pass(&f.old.tree, &f.new.tree, &info, &mut f.matching, &mut f.stats);
        assert!(
            !f.matching.is_matched_new(by_label(&f.new, "new")),
            "renamed parents must not match"
        );
    }

    #[test]
    fn unique_text_child_matches_across_content_change() {
        let mut f = fixture("<p>old text</p>", "<p>new text</p>");
        f.matching.add(by_label(&f.old, "p"), by_label(&f.new, "p"));
        let info = analyze(&f.new.tree);
        propagation_pass(&f.old.tree, &f.new.tree, &info, &mut f.matching, &mut f.stats);
        let old_t = f.old.tree.first_child(by_label(&f.old, "p")).unwrap();
        let new_t = f.new.tree.first_child(by_label(&f.new, "p")).unwrap();
        assert_eq!(f.matching.old_of_new(new_t), Some(old_t));
    }

    #[test]
    fn changed_comments_do_not_match() {
        let mut f = fixture("<p><!--one--></p>", "<p><!--two--></p>");
        f.matching.add(by_label(&f.old, "p"), by_label(&f.new, "p"));
        let info = analyze(&f.new.tree);
        propagation_pass(&f.old.tree, &f.new.tree, &info, &mut f.matching, &mut f.stats);
        let new_c = f.new.tree.first_child(by_label(&f.new, "p")).unwrap();
        assert!(
            !f.matching.is_matched_new(new_c),
            "comments have no update op, so different content must not match"
        );
    }

    #[test]
    fn identical_comments_match() {
        let mut f = fixture("<p><!--same--></p>", "<p><!--same--></p>");
        f.matching.add(by_label(&f.old, "p"), by_label(&f.new, "p"));
        let info = analyze(&f.new.tree);
        propagation_pass(&f.old.tree, &f.new.tree, &info, &mut f.matching, &mut f.stats);
        let new_c = f.new.tree.first_child(by_label(&f.new, "p")).unwrap();
        assert!(f.matching.is_matched_new(new_c));
    }

    #[test]
    fn paper_discount_example() {
        // §5.1: "the node Discount has not been matched yet because the
        // content of its subtree has completely changed. But in the
        // optimization phase, we see that it is the only subtree of node
        // Category with this label, so we match it."
        let mut f = fixture(
            "<Category><Discount><a/></Discount></Category>",
            "<Category><Discount><b/></Discount></Category>",
        );
        f.matching.add(by_label(&f.old, "Category"), by_label(&f.new, "Category"));
        let info = analyze(&f.new.tree);
        propagation_pass(&f.old.tree, &f.new.tree, &info, &mut f.matching, &mut f.stats);
        assert!(f.matching.is_matched_new(by_label(&f.new, "Discount")));
    }
}
