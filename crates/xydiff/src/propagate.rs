//! The bottom-up / top-down propagation pass (used after phase 1 and as
//! phase 4), plus the unique-child immediate propagation shared with phase 3.
//!
//! §5.3: "The simple bottom-up and top-down pass … focuses on a fixed set of
//! features that have a constant time and space cost for each (child) node,
//! so that their overall cost is linear in time and space:
//!
//! 1. *propagate to parent*: consider that node i is not matched. If it has
//!    \[children\] matched … we will prefer the parent i′ of the larger
//!    (weight) set of children …
//! 2. *propagate to children*: if a node is matched, and both it and its
//!    matching have a unique \[child\] with a given label, then these two
//!    children will be matched."

#![doc = "xylint: hot-path"]

use crate::info::TreeInfo;
use crate::matching::Matching;
use crate::report::DiffStats;
use xytree::hash::{fast_map, FastHashMap};
use xytree::traversal::{PrunedPostOrder, PrunedPreOrder};
use xytree::{NodeId, NodeKind, Tree};

/// One bottom-up then top-down pass. Returns the number of matches added.
///
/// One pass reaches the fixpoint — a second would add nothing — so phase 4
/// runs one. Bottom-up matches only the node it visits, in post-order, so
/// every unmatched node has seen its children's matches by its turn, bar
/// those the top-down half adds later; and those are children of *matched*
/// nodes, which never vote. Top-down at a matched `v` matches children of
/// `v` and of its partner only, which nothing later in the pass touches,
/// and matching a uniquely keyed pair changes no other key's count. So a
/// second pass would find at every node exactly what the first left there
/// (the test `a_second_pass_adds_nothing` checks it on simulated pairs).
///
/// Both walks skip the interior of settled subtrees ([`Matching::is_settled`]):
/// every node there is matched, and so is every child of its partner, so
/// neither rule can fire below a settled node. A pass therefore costs the
/// nodes outside settled subtrees, not the document.
pub(crate) fn propagation_pass(
    old: &Tree,
    new: &Tree,
    new_info: &TreeInfo,
    matching: &mut Matching,
    stats: &mut DiffStats,
) -> usize {
    let mut added = 0usize;

    // --- Bottom-up: propagate to parent. ---
    // Post-order so that matches made at one level feed the next level up
    // within the same pass. Settled marks only change in phase 3, so the
    // walk may read them while the pass adds matches.
    let mut parent_votes: FastHashMap<NodeId, f64> = fast_map();
    let mut walk = PrunedPostOrder::new(new, new.root(), |v| matching.is_settled(v));
    while let Some(v) = walk.next(new, |v| matching.is_settled(v)) {
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
    // A settled node's children and its partner's are all matched already.
    let mut walk = PrunedPreOrder::new(new.root());
    while let Some(v) = walk.next(new, |v| matching.is_settled(v)) {
        match matching.old_of_new(v) {
            Some(ov) if !matching.is_settled(v) => {
                added += match_unique_children(old, new, matching, ov, v, stats);
            }
            _ => {}
        }
    }

    added
}

/// Child-matching key: unique-label elements, the (single) text child, and
/// content-identical comments/PIs. Text children match regardless of content
/// (that is what turns a changed string into an *update* instead of a
/// delete+insert); comments and PIs have no update operation in the change
/// model, so they only match on equal content. Labels compare by [`Symbol`]
/// id: equal ids are equal labels, and no text is resolved.
///
/// [`Symbol`]: xytree::Symbol
#[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy)]
enum ChildKey<'a> {
    Elem(u32),
    Text,
    Comment(&'a str),
    Pi(&'a str, &'a str),
}

fn child_key(kind: NodeKind<'_>) -> Option<ChildKey<'_>> {
    match kind {
        NodeKind::Element(e) => Some(ChildKey::Elem(e.name.id())),
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
///
/// The available children of both sides go into a table the matching keeps
/// for reuse, sorted by key with the old ones first; a key is unique on both
/// sides exactly when its run is one old child then one new child. Which
/// pairs match does not depend on the order they are found in, since
/// matching a pair changes no other key's count.
pub(crate) fn match_unique_children(
    old: &Tree,
    new: &Tree,
    matching: &mut Matching,
    po: NodeId,
    pn: NodeId,
    stats: &mut DiffStats,
) -> usize {
    // Phase 4 asks this of every matched parent outside the settled
    // subtrees, and most have no unmatched child left.
    if !new.children(pn).any(|c| matching.available_new(c)) {
        return 0;
    }
    let mut table = std::mem::take(&mut matching.child_table);
    table.clear();
    table.extend(old.children(po).filter(|&c| matching.available_old(c)).map(|c| (false, c)));
    table.extend(new.children(pn).filter(|&c| matching.available_new(c)).map(|c| (true, c)));
    let key = |&(is_new, c): &(bool, NodeId)| {
        let tree = if is_new { new } else { old };
        (child_key(tree.kind(c)), is_new)
    };
    table.sort_unstable_by_key(key);
    let mut added = 0;
    let mut run = 0;
    while run < table.len() {
        let k = key(&table[run]).0;
        let end = run + table[run..].iter().take_while(|e| key(e).0 == k).count();
        if let (Some(_), [(false, oc), (true, nc)]) = (k, &table[run..end]) {
            matching.add(*oc, *nc);
            added += 1;
        }
        run = end;
    }
    matching.child_table = table;
    stats.propagation_matches += added;
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

    /// Phase 4 runs one pass because a second cannot add a match (the
    /// argument is on [`propagation_pass`]); check it on simulated pairs of
    /// every family, with and without ID attributes and phase-3 unique-child
    /// propagation, from light edits to heavy ones.
    #[test]
    fn a_second_pass_adds_nothing() {
        use crate::{buld, phase1, DiffOptions};
        use xydelta::XidDocument;
        use xysim::{generate, shuffle_children, simulate, ChangeConfig, DocGenConfig, DocKind};
        use DocKind::{AddressBook, Catalog, Feed, Generic, Grid};
        let mut first_added = 0;
        for (k, kind) in [Catalog, AddressBook, Feed, Generic, Grid].into_iter().enumerate() {
            for seed in 0..6u64 {
                let ids = seed % 2 == 0;
                let doc_seed = seed * 7 + k as u64;
                let cfg =
                    DocGenConfig { kind, target_nodes: 150, seed: doc_seed, id_attributes: ids };
                let base = XidDocument::assign_initial(generate(&cfg));
                let mut edits: Vec<_> = [0.01, 0.1, 0.4]
                    .into_iter()
                    .map(|rate| simulate(&base, &ChangeConfig::uniform(rate, seed ^ 0x5eed)))
                    .collect();
                edits.push(shuffle_children(&base, &xysim::ShuffleConfig { p_shuffle: 0.5, seed }));
                let unique = seed % 3 != 0;
                let opts = DiffOptions { enable_unique_child_propagation: unique, ..Default::default() };
                for edit in &edits {
                    let (old, new) = (&base.doc, &edit.new_version.doc);
                    let (o, n) = (&old.tree, &new.tree);
                    let (old_info, new_info) = (analyze(o), analyze(n));
                    let mut m = Matching::new(o.arena_len(), n.arena_len());
                    m.add(o.root(), n.root());
                    let mut stats = DiffStats::default();
                    phase1::match_by_id(old, new, &mut m, &mut stats);
                    if stats.id_matches > 0 {
                        propagation_pass(o, n, &new_info, &mut m, &mut stats);
                    }
                    let scratch = &mut buld::BuldScratch::default();
                    let runner = &Default::default();
                    buld::run_with(
                        o, n, &old_info, &new_info, &mut m, &opts, &mut stats, scratch, runner,
                    );
                    let mut pass = || propagation_pass(o, n, &new_info, &mut m, &mut stats);
                    first_added += pass();
                    assert_eq!(pass(), 0, "a second pass matched more");
                }
            }
        }
        assert!(first_added > 0, "the first passes must have had work to do");
    }
}
