//! Exact delta computation between two versions whose node matching is
//! already known through shared XIDs.
//!
//! Given the matching, "there are only few deltas that can describe the
//! corresponding changes. The differences between these deltas essentially
//! come from move operations that reorder a subsequence of child nodes for a
//! given parent" (§4). This module materializes that canonical delta:
//!
//! - XIDs present only in the old version → maximal deleted subtrees;
//! - XIDs present only in the new version → maximal inserted subtrees;
//! - matched nodes with different parent XIDs → cross-parent moves;
//! - matched children permuted within one parent → within-parent moves for
//!   everything outside a heaviest order-preserving subsequence;
//! - matched text nodes with different content → updates;
//! - matched elements with different attribute sets → attribute operations.
//!
//! It is used three ways: as the back end of delta **aggregation**, as the
//! change simulator's **perfect delta** generator (§6.1 — "the result of the
//! change simulator is … a delta representing the exact changes that
//! occurred"), and in tests as an oracle for the BULD diff (feeding BULD's
//! matching through it must reproduce BULD's delta).

use crate::delta::{Delta, DeltaBuilder};
use crate::lis::{chunked_heaviest_increasing_by, heaviest_increasing_subsequence_by};
use crate::ops::{Op, PayloadSide};
use crate::xid::Xid;
use crate::xiddoc::XidDocument;
use xytree::hash::{fast_map_with_capacity, FastHashMap};
use xytree::NodeId;

/// How delete/insert operations capture their subtree content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CaptureMode {
    /// Copy the captured nodes into the delta's payload arena (the classic
    /// path; deltas are self-contained immediately).
    #[default]
    Owned,
    /// Record [`SubtreePayload::Borrowed`](crate::SubtreePayload::Borrowed)
    /// references into the diffed
    /// documents — no node is cloned at capture time. The caller owns the
    /// [`Delta::into_owned`](crate::Delta::into_owned) boundary before the
    /// delta outlives the source documents.
    Borrowed,
}

/// Compute the exact delta transforming `old` into `new`, with the optimal
/// (exact) order-preserving-subsequence computation for within-parent moves.
///
/// Both documents must share an XID space (matched nodes carry equal XIDs);
/// in particular their document roots must match. Panics if they do not —
/// that is a caller bug, not a data condition.
pub fn diff_by_xid(old: &XidDocument, new: &XidDocument) -> Delta {
    diff_by_xid_with(old, new, None)
}

/// Like [`diff_by_xid`], but with the paper's fixed-window heuristic for the
/// largest order-preserving subsequence when `lis_window` is `Some(w)`
/// (§5.2: "cutting it into smaller subsequences with a maximum length
/// (e.g. 50)"). `None` selects the exact `O(s log s)` algorithm.
pub fn diff_by_xid_with(old: &XidDocument, new: &XidDocument, lis_window: Option<usize>) -> Delta {
    diff_by_xid_captured(old, new, lis_window, CaptureMode::Owned)
}

/// Like [`diff_by_xid_with`], with an explicit [`CaptureMode`] for the
/// delete/insert payloads. The emitted operations are identical between the
/// two modes up to payload representation — serializing a borrowed delta
/// against its [`PayloadSource`](crate::ops::PayloadSource) yields the same
/// bytes as the owned delta.
pub fn diff_by_xid_captured(
    old: &XidDocument,
    new: &XidDocument,
    lis_window: Option<usize>,
    capture: CaptureMode,
) -> Delta {
    let o = &old.doc.tree;
    let n = &new.doc.tree;
    assert_eq!(
        old.xid(o.root()),
        new.xid(n.root()),
        "diff_by_xid requires matching document roots"
    );

    let mut ops = DeltaBuilder::new();
    let borrow_as = |side| (capture == CaptureMode::Borrowed).then_some(side);

    // Resolve the XID matching into direct NodeId↔NodeId arrays up front:
    // the walks below probe "is this node matched / where is its partner"
    // several times per node, and an array load beats a hash lookup on that
    // budget (one hash probe per node here instead of ~6 spread over the
    // walks).
    let mut new_of_old: Vec<Option<NodeId>> = vec![None; o.arena_len()];
    let mut old_of_new: Vec<Option<NodeId>> = vec![None; n.arena_len()];
    // XIDs are dense (allocated sequentially per document chain), so when the
    // span is proportionate to the node count a direct array indexed by XID
    // value replaces the per-node hash probe. Long version chains can leave
    // the live XID range sparse; fall back to the hash map there rather than
    // allocate a table proportional to every XID ever issued.
    let xid_span = new.next_xid_value() as usize;
    if xid_span <= 4 * (o.arena_len() + n.arena_len()) {
        let mut node_of_xid: Vec<Option<NodeId>> = vec![None; xid_span];
        for (new_node, xid) in new.iter() {
            node_of_xid[xid.value() as usize] = Some(new_node);
        }
        for (old_node, xid) in old.iter() {
            if let Some(new_node) = node_of_xid
                .get(xid.value() as usize)
                .copied()
                .flatten()
            {
                new_of_old[old_node.index()] = Some(new_node);
                old_of_new[new_node.index()] = Some(old_node);
            }
        }
    } else {
        for (old_node, xid) in old.iter() {
            if let Some(new_node) = new.node(xid) {
                new_of_old[old_node.index()] = Some(new_node);
                old_of_new[new_node.index()] = Some(old_node);
            }
        }
    }

    // Child positions and subtree sizes, O(n) each. The walks below emit one
    // op per changed node, and each op wants the node's position among its
    // siblings (`Tree::child_index` is O(position)) or its subtree weight
    // (`Tree::subtree_size` is O(subtree)); under a wide parent — thousands
    // of products in a catalog — paying those per op is quadratic.
    let pos_old = child_positions(o);
    let pos_new = child_positions(n);


    // A delete/insert op is emitted for every unmatched node whose parent
    // *is* matched. The captured subtree excludes matched descendants (they
    // are covered by move ops) — and any unmatched region nested below such
    // a matched descendant gets its own op, because its parent is matched.
    // The traversal therefore visits the whole tree: unmatched subtrees can
    // alternate with matched ones at any depth (a move into an insert into a
    // move …).
    for node in o.descendants(o.root()) {
        let Some(parent) = o.parent(node) else { continue };
        if new_of_old[node.index()].is_some() {
            continue;
        }
        // INVARIANT: every node of a XidDocument carries an XID; assignment is
        // total at construction (assign_initial / apply) and never partial.
        let xid = old.xid(node).expect("old node without XID");
        if new_of_old[parent.index()].is_none() {
            continue; // covered by the ancestor's delete op
        }
        // INVARIANT: every node of a XidDocument carries an XID; assignment is
        // total at construction (assign_initial / apply) and never partial.
        let parent_xid = old.xid(parent).expect("parent without XID");
        let (subtree, xid_map) = ops.capture_payload(
            old,
            node,
            &|d| new_of_old[d.index()].is_some(),
            borrow_as(PayloadSide::Old),
        );
        ops.push(Op::Delete {
            xid,
            parent: parent_xid,
            pos: pos_old[node.index()],
            subtree,
            xid_map,
        });
    }


    // --- Insertions: the exact mirror image. ---
    for node in n.descendants(n.root()) {
        let Some(parent) = n.parent(node) else { continue };
        if old_of_new[node.index()].is_some() {
            continue;
        }
        // INVARIANT: every node of a XidDocument carries an XID; assignment is
        // total at construction (assign_initial / apply) and never partial.
        let xid = new.xid(node).expect("new node without XID");
        if old_of_new[parent.index()].is_none() {
            continue; // covered by the ancestor's insert op
        }
        // INVARIANT: every node of a XidDocument carries an XID; assignment is
        // total at construction (assign_initial / apply) and never partial.
        let parent_xid = new.xid(parent).expect("parent without XID");
        let (subtree, xid_map) = ops.capture_payload(
            new,
            node,
            &|d| old_of_new[d.index()].is_some(),
            borrow_as(PayloadSide::New),
        );
        ops.push(Op::Insert {
            xid,
            parent: parent_xid,
            pos: pos_new[node.index()],
            subtree,
            xid_map,
        });
    }


    // --- Matched-node comparisons: moves, updates, attributes. ---
    // Walk matched nodes of the new document (every XID in both).
    for new_node in n.descendants(n.root()) {
        let Some(old_node) = old_of_new[new_node.index()] else { continue };
        // INVARIANT: every node of a XidDocument carries an XID; assignment is
        // total at construction (assign_initial / apply) and never partial.
        let xid = new.xid(new_node).expect("new node without XID");
        // Cross-parent move?
        if new_node != n.root() {
            let new_parent_xid = n.parent(new_node).and_then(|p| new.xid(p));
            let old_parent_xid = o.parent(old_node).and_then(|p| old.xid(p));
            if let (Some(npx), Some(opx)) = (new_parent_xid, old_parent_xid) {
                if npx != opx {
                    ops.push(Op::Move {
                        xid,
                        from_parent: opx,
                        from_pos: pos_old[old_node.index()],
                        to_parent: npx,
                        to_pos: pos_new[new_node.index()],
                    });
                }
            }
        }
        // Content update?
        match (o.kind(old_node), n.kind(new_node)) {
            (xytree::NodeKind::Text(a), xytree::NodeKind::Text(b)) if a != b => {
                ops.update(xid, a, b);
            }
            (xytree::NodeKind::Element(ea), xytree::NodeKind::Element(eb)) => {
                diff_attrs(xid, ea, eb, &mut ops);
            }
            _ => {}
        }
    }


    // --- Within-parent reorders. ---
    // For every matched parent pair, the children that are matched *and*
    // stayed under this parent form the same set on both sides; everything
    // outside a heaviest order-preserving subsequence of their permutation
    // becomes a same-parent move (Figure 3).
    for new_parent in n.descendants(n.root()) {
        let Some(old_parent) = old_of_new[new_parent.index()] else { continue };
        // Fast path, no allocation: the stable children (matched and still
        // under this parent on both sides) keep their relative order for any
        // parent whose child list was only edited/extended/trimmed, which is
        // almost every parent. Compare the old-side sequence against the new
        // side's partners directly.
        let order_preserved = {
            let old_side = o.children(old_parent).filter(|&oc| {
                new_of_old[oc.index()].is_some_and(|nc| n.parent(nc) == Some(new_parent))
            });
            let new_side = n.children(new_parent).filter_map(|c| {
                let oc = old_of_new[c.index()]?;
                (o.parent(oc) == Some(old_parent)).then_some(oc)
            });
            old_side.eq(new_side)
        };
        if order_preserved {
            continue;
        }
        // INVARIANT: every node of a XidDocument carries an XID; assignment is
        // total at construction (assign_initial / apply) and never partial.
        let pxid = new.xid(new_parent).expect("new node without XID");
        // Stable children in new order, with their position in the *new*
        // child list and subtree weight.
        let stable_new: Vec<(Xid, NodeId)> = n
            .children(new_parent)
            .filter_map(|c| {
                let oc = old_of_new[c.index()]?;
                // Stayed under the same parent?
                let cx = new.xid(c)?;
                (o.parent(oc) == Some(old_parent)).then_some((cx, c))
            })
            .collect();
        if stable_new.len() < 2 {
            continue;
        }
        let mut new_rank: FastHashMap<Xid, u64> = fast_map_with_capacity(stable_new.len());
        for (rank, (cx, _)) in stable_new.iter().enumerate() {
            new_rank.insert(*cx, rank as u64);
        }
        // Same set in old order.
        let stable_old: Vec<(Xid, NodeId)> = o
            .children(old_parent)
            .filter_map(|c| {
                let cx = old.xid(c)?;
                new_rank.contains_key(&cx).then_some((cx, c))
            })
            .collect();
        debug_assert_eq!(stable_old.len(), stable_new.len());
        let perm: Vec<u64> = stable_old.iter().map(|(cx, _)| new_rank[cx]).collect();
        let weights: Vec<u64> =
            stable_old.iter().map(|&(_, oc)| o.subtree_size(oc) as u64).collect();
        let kept = match lis_window {
            Some(w) => chunked_heaviest_increasing_by(&perm, w, |i| weights[i]),
            None => heaviest_increasing_subsequence_by(&perm, |i| weights[i]),
        };
        let kept_set: std::collections::HashSet<usize> = kept.into_iter().collect();
        for (i, &(cx, oc)) in stable_old.iter().enumerate() {
            if kept_set.contains(&i) {
                continue;
            }
            let nc = stable_new[perm[i] as usize].1;
            ops.push(Op::Move {
                xid: cx,
                from_parent: pxid,
                from_pos: pos_old[oc.index()],
                to_parent: pxid,
                to_pos: pos_new[nc.index()],
            });
        }
    }

    let mut delta = ops.finish();
    delta.canonicalize();
    delta
}

/// Position of every attached node among its siblings, indexed by arena slot
/// (detached slots keep 0 and are never consulted).
fn child_positions(tree: &xytree::Tree) -> Vec<usize> {
    let mut pos = vec![0usize; tree.arena_len()];
    for node in tree.descendants(tree.root()) {
        for (i, c) in tree.children(node).enumerate() {
            pos[c.index()] = i;
        }
    }
    pos
}

fn diff_attrs(
    xid: Xid,
    old: xytree::Element<'_>,
    new: xytree::Element<'_>,
    ops: &mut DeltaBuilder,
) {
    for (i, a) in old.attrs.iter().enumerate() {
        match new.attr_sym(a.name) {
            None => ops.attr_delete(xid, a.name, &a.value, i),
            Some(v) if v != a.value => ops.attr_update(xid, a.name, &a.value, v),
            Some(_) => continue,
        };
    }
    for (i, a) in new.attrs.iter().enumerate() {
        if old.attr_sym(a.name).is_none() {
            ops.attr_insert(xid, a.name, &a.value, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build old/new pairs by applying tree edits to a clone while keeping
    /// XIDs, then check that diff_by_xid's delta (a) has the expected shape
    /// and (b) transforms old into new.
    fn check_roundtrip(old: &XidDocument, new: &XidDocument) -> Delta {
        let delta = diff_by_xid(old, new);
        let mut replay = old.clone();
        delta.apply_to(&mut replay).expect("delta must apply");
        assert_eq!(
            replay.doc.to_xml(),
            new.doc.to_xml(),
            "applying the delta must reproduce the new version"
        );
        // And the inverse must restore the old version — as a copied
        // delta and read in place off the stored ops, node for node.
        let mut back = replay.clone();
        delta.inverted().apply_to(&mut back).expect("inverse must apply");
        assert_eq!(back.doc.to_xml(), old.doc.to_xml());
        let mut in_place = replay;
        crate::apply::apply_inverse(&delta, &mut in_place).expect("in-place inverse must apply");
        assert_eq!(in_place.doc.to_xml(), old.doc.to_xml());
        let xids = |d: &XidDocument| -> Vec<Option<Xid>> {
            d.doc.tree.descendants(d.doc.tree.root()).map(|n| d.xid(n)).collect()
        };
        assert_eq!(xids(&in_place), xids(&back));
        delta
    }

    fn node_by_label(d: &XidDocument, label: &str) -> NodeId {
        d.doc
            .tree
            .descendants(d.doc.tree.root())
            .find(|&n| d.doc.tree.name(n) == Some(label))
            .unwrap_or_else(|| panic!("no <{label}>"))
    }

    #[test]
    fn identical_documents_empty_delta() {
        let old = XidDocument::parse_initial("<a><b/>text</a>").unwrap();
        let new = old.clone();
        let delta = check_roundtrip(&old, &new);
        assert!(delta.is_empty());
    }

    #[test]
    fn pure_deletion() {
        let old = XidDocument::parse_initial("<a><b><c/></b><k/></a>").unwrap();
        let mut new = old.clone();
        let b = node_by_label(&new, "b");
        new.doc.tree.detach(b);
        for n in new.doc.tree.post_order(b).collect::<Vec<_>>() {
            new.clear_xid(n);
        }
        let delta = check_roundtrip(&old, &new);
        let c = delta.counts();
        assert_eq!((c.deletes, c.inserts, c.moves, c.updates), (1, 0, 0, 0));
        // The delete is maximal: one op covering b and c.
        assert!(matches!(delta.ops[0], Op::Delete { .. }));
        assert_eq!(delta.ops[0].carried_nodes(), 2);
    }

    #[test]
    fn pure_insertion() {
        let old = XidDocument::parse_initial("<a><k/></a>").unwrap();
        let mut new = old.clone();
        let a = node_by_label(&new, "a");
        let b = new.doc.tree.new_element("b");
        let t = new.doc.tree.new_text("hi");
        new.doc.tree.append_child(b, t);
        new.doc.tree.append_child(a, b);
        new.assign_fresh_subtree(b);
        let delta = check_roundtrip(&old, &new);
        let c = delta.counts();
        assert_eq!((c.deletes, c.inserts, c.moves, c.updates), (0, 1, 0, 0));
    }

    #[test]
    fn text_update() {
        let old = XidDocument::parse_initial("<a><p>old</p></a>").unwrap();
        let mut new = old.clone();
        let p = node_by_label(&new, "p");
        let t = new.doc.tree.first_child(p).unwrap();
        new.doc.tree.set_text(t, "new");
        let delta = check_roundtrip(&old, &new);
        assert_eq!(delta.counts().updates, 1);
    }

    #[test]
    fn cross_parent_move() {
        let old = XidDocument::parse_initial("<a><x><m>v</m></x><y/></a>").unwrap();
        let mut new = old.clone();
        let m = node_by_label(&new, "m");
        let y = node_by_label(&new, "y");
        new.doc.tree.detach(m);
        new.doc.tree.append_child(y, m);
        let delta = check_roundtrip(&old, &new);
        let c = delta.counts();
        assert_eq!((c.deletes, c.inserts, c.moves, c.updates), (0, 0, 1, 0));
    }

    #[test]
    fn within_parent_permutation_minimal_moves() {
        let old = XidDocument::parse_initial("<a><c1/><c2/><c3/><c4/><c5/></a>").unwrap();
        let mut new = old.clone();
        // Move c1 to the end: new order c2 c3 c4 c5 c1 — one move suffices.
        let c1 = node_by_label(&new, "c1");
        let a = node_by_label(&new, "a");
        new.doc.tree.detach(c1);
        new.doc.tree.append_child(a, c1);
        let delta = check_roundtrip(&old, &new);
        assert_eq!(delta.counts().moves, 1, "LIS must yield a single move");
    }

    #[test]
    fn swap_needs_one_move() {
        let old = XidDocument::parse_initial("<a><l><x/></l><r/></a>").unwrap();
        let mut new = old.clone();
        let l = node_by_label(&new, "l");
        let r = node_by_label(&new, "r");
        new.doc.tree.detach(r);
        new.doc.tree.insert_child_at(node_by_label(&new, "a"), 0, r);
        let _ = (l, );
        let delta = check_roundtrip(&old, &new);
        assert_eq!(delta.counts().moves, 1);
    }

    #[test]
    fn weighted_lis_moves_the_light_node() {
        // Old: big(5 nodes) then small(1 node). New: small then big.
        // The optimal set of moves relocates the *small* node.
        let old = XidDocument::parse_initial(
            "<a><big><b1/><b2/><b3/><b4/></big><small/></a>",
        )
        .unwrap();
        let mut new = old.clone();
        let small = node_by_label(&new, "small");
        let a = node_by_label(&new, "a");
        new.doc.tree.detach(small);
        new.doc.tree.insert_child_at(a, 0, small);
        let delta = check_roundtrip(&old, &new);
        assert_eq!(delta.counts().moves, 1);
        match &delta.ops.iter().find(|o| matches!(o, Op::Move { .. })).unwrap() {
            Op::Move { xid, .. } => {
                assert_eq!(*xid, new.xid(node_by_label(&new, "small")).unwrap());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn move_out_of_deleted_subtree() {
        let old = XidDocument::parse_initial("<a><dying><keep/><junk/></dying><safe/></a>")
            .unwrap();
        let mut new = old.clone();
        let dying = node_by_label(&new, "dying");
        let keep = node_by_label(&new, "keep");
        let safe = node_by_label(&new, "safe");
        new.doc.tree.detach(keep);
        new.doc.tree.append_child(safe, keep);
        new.doc.tree.detach(dying);
        for n in new.doc.tree.post_order(dying).collect::<Vec<_>>() {
            new.clear_xid(n);
        }
        let delta = check_roundtrip(&old, &new);
        let c = delta.counts();
        assert_eq!((c.deletes, c.moves), (1, 1));
        // The delete op must not carry the moved-out <keep>.
        match *delta.ops.iter().find(|o| matches!(o, Op::Delete { .. })).unwrap() {
            Op::Delete { xid_map, subtree, .. } => {
                assert_eq!(xid_map.len(), 2); // dying + junk
                let (tree, root) = delta.payload(subtree);
                let labels: Vec<_> = tree.descendants(root).filter_map(|x| tree.name(x)).collect();
                assert_eq!(labels, ["dying", "junk"]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn attribute_changes() {
        let old = XidDocument::parse_initial("<a k=\"1\" gone=\"g\"/>").unwrap();
        let mut new = old.clone();
        let a = node_by_label(&new, "a");
        new.doc.tree.set_attr(a, "k", "2");
        new.doc.tree.remove_attr(a, "gone");
        new.doc.tree.set_attr(a, "fresh", "f");
        let delta = check_roundtrip(&old, &new);
        assert_eq!(delta.counts().attr_ops, 3);
    }

    #[test]
    fn combined_change_set_roundtrips() {
        let old = XidDocument::parse_initial(
            "<cat><sec><p1>a</p1><p2>b</p2></sec><sec2><p3>c</p3></sec2></cat>",
        )
        .unwrap();
        let mut new = old.clone();
        // update p1's text
        let p1 = node_by_label(&new, "p1");
        let t1 = new.doc.tree.first_child(p1).unwrap();
        new.doc.tree.set_text(t1, "A!");
        // move p3 under sec
        let p3 = node_by_label(&new, "p3");
        let sec = node_by_label(&new, "sec");
        new.doc.tree.detach(p3);
        new.doc.tree.insert_child_at(sec, 0, p3);
        // delete p2
        let p2 = node_by_label(&new, "p2");
        new.doc.tree.detach(p2);
        for n in new.doc.tree.post_order(p2).collect::<Vec<_>>() {
            new.clear_xid(n);
        }
        // insert p4 under sec2
        let sec2 = node_by_label(&new, "sec2");
        let p4 = new.doc.tree.new_element("p4");
        new.doc.tree.append_child(sec2, p4);
        new.assign_fresh_subtree(p4);
        let delta = check_roundtrip(&old, &new);
        let c = delta.counts();
        assert_eq!((c.deletes, c.inserts, c.moves, c.updates), (1, 1, 1, 1));
    }

    #[test]
    fn borrowed_capture_is_byte_identical_to_owned() {
        // Same scenario as move_out_of_deleted_subtree: deletes with excluded
        // (moved-out) descendants are the hardest case for borrowed capture.
        let old = XidDocument::parse_initial("<a><dying><keep/><junk/></dying><safe/></a>")
            .unwrap();
        let mut new = old.clone();
        let dying = node_by_label(&new, "dying");
        let keep = node_by_label(&new, "keep");
        let safe = node_by_label(&new, "safe");
        new.doc.tree.detach(keep);
        new.doc.tree.append_child(safe, keep);
        new.doc.tree.detach(dying);
        for n in new.doc.tree.post_order(dying).collect::<Vec<_>>() {
            new.clear_xid(n);
        }
        // And an insert so the New payload side is exercised too.
        let p = new.doc.tree.new_element("fresh");
        new.doc.tree.append_child(safe, p);
        new.assign_fresh_subtree(p);

        let owned = diff_by_xid(&old, &new);
        let borrowed = diff_by_xid_captured(&old, &new, None, CaptureMode::Borrowed);
        assert!(borrowed
            .ops
            .iter()
            .any(|op| matches!(op, Op::Delete { subtree, .. } if subtree.is_borrowed())));
        let src = crate::ops::PayloadSource { old: &old.doc.tree, new: &new.doc.tree };
        let owned_xml = crate::xml_io::delta_to_xml(&owned);
        assert_eq!(crate::xml_io::delta_to_xml_with(&borrowed, &src), owned_xml);
        let materialized = borrowed.into_owned(&src);
        assert!(materialized.ops.iter().all(|op| match op {
            Op::Delete { subtree, .. } | Op::Insert { subtree, .. } => !subtree.is_borrowed(),
            _ => true,
        }));
        assert_eq!(crate::xml_io::delta_to_xml(&materialized), owned_xml);
        // The materialized delta behaves exactly like the owned one.
        let mut replay = old.clone();
        materialized.apply_to(&mut replay).unwrap();
        assert_eq!(replay.doc.to_xml(), new.doc.to_xml());
    }
}
