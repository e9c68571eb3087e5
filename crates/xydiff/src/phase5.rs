//! Phase 5, step 0: persistent-identifier inheritance.
//!
//! "Matched nodes in the new document thereby obtain their (persistent)
//! identifiers from their matching in the previous version. New persistent
//! identifiers are assigned to unmatched nodes." (§4)
//!
//! The delta itself (inserts/deletes/updates/moves, §5.2 phase 5 steps 1–3)
//! is then built from the [`Matching`] directly, not re-derived from the
//! XIDs: `crate::finish` hands its partner arrays and settled marks to
//! `xydelta::diff_by_xid::diff_matched`, with the configured
//! order-preserving-subsequence strategy, and that walk does not enter the
//! subtrees phase 3 matched whole. The XIDs assigned here are still the
//! whole matching, so [`xydelta::diff_by_xid::diff_by_xid`] over the old and
//! the produced version — the same core, without the settled marks —
//! reproduces the delta byte for byte; the tests use it as the oracle.

use crate::matching::Matching;
use xydelta::{Xid, XidDocument};
use xytree::traversal::PrunedPostOrder;
use xytree::{Document, NodeId};

/// Build the new version's [`XidDocument`]: matched nodes inherit the old
/// version's XIDs, unmatched nodes receive fresh ones in postfix order.
///
/// Matched nodes are read off the matching in slot order; only the fresh
/// ones need the postfix walk, which therefore skips the interior of
/// settled subtrees (all matched).
pub(crate) fn inherit_xids(
    old: &XidDocument,
    new_doc: Document,
    matching: &Matching,
) -> XidDocument {
    let mut next = old.next_xid_value();
    let tree = &new_doc.tree;
    let settled = |n| matching.is_settled(n);
    let mut fresh: Vec<(NodeId, Xid)> = Vec::new();
    let mut walk = PrunedPostOrder::new(tree, tree.root(), settled);
    while let Some(n) = walk.next(tree, settled) {
        if !matching.is_matched_new(n) {
            fresh.push((n, Xid(next)));
            next += 1;
        }
    }
    let (_, old_of_new, _) = matching.as_slices();
    let inherited = old_of_new.iter().enumerate().filter_map(|(i, o)| {
        let xid = old
            .xid((*o)?)
            // INVARIANT: the matching only relates nodes of the old
            // document, whose XID assignment is total.
            .expect("matched old node must carry an XID");
        Some((NodeId::from_index(i), xid))
    });
    XidDocument::with_assignment(new_doc, inherited.chain(fresh), next)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_nodes_inherit_unmatched_get_fresh() {
        let old = XidDocument::parse_initial("<a><keep/><gone/></a>").unwrap();
        let new = Document::parse("<a><keep/><fresh/></a>").unwrap();
        let mut m = Matching::new(old.doc.tree.arena_len(), new.tree.arena_len());
        let find = |d: &xytree::Tree, l: &str| {
            d.descendants(d.root()).find(|&n| d.name(n) == Some(l)).unwrap()
        };
        m.add(old.doc.tree.root(), new.tree.root());
        m.add(find(&old.doc.tree, "a"), find(&new.tree, "a"));
        m.add(find(&old.doc.tree, "keep"), find(&new.tree, "keep"));
        let old_keep_xid = old.xid(find(&old.doc.tree, "keep")).unwrap();
        let old_next = old.next_xid_value();

        let newv = inherit_xids(&old, new, &m);
        newv.validate().unwrap();
        let keep = find(&newv.doc.tree, "keep");
        let fresh = find(&newv.doc.tree, "fresh");
        assert_eq!(newv.xid(keep), Some(old_keep_xid));
        assert!(newv.xid(fresh).unwrap().value() >= old_next, "fresh XID must be new");
        assert_eq!(
            newv.xid(newv.doc.tree.root()),
            old.xid(old.doc.tree.root()),
            "document roots share their XID"
        );
    }

    #[test]
    fn fresh_xids_are_postfix_ordered() {
        let old = XidDocument::parse_initial("<a/>").unwrap();
        let new = Document::parse("<a><p><q/></p></a>").unwrap();
        let mut m = Matching::new(old.doc.tree.arena_len(), new.tree.arena_len());
        m.add(old.doc.tree.root(), new.tree.root());
        let newv = inherit_xids(&old, new, &m);
        let find = |l: &str| {
            let t = &newv.doc.tree;
            t.descendants(t.root()).find(|&n| t.name(n) == Some(l)).unwrap()
        };
        // Postfix: q before p before a.
        assert!(newv.xid(find("q")).unwrap() < newv.xid(find("p")).unwrap());
        assert!(newv.xid(find("p")).unwrap() < newv.xid(find("a")).unwrap());
    }
}
