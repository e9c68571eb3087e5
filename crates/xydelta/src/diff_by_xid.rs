//! Exact delta computation between two versions whose node matching is
//! already known — as shared XIDs, or as the matcher's own arrays.
//!
//! Given the matching, "there are only few deltas that can describe the
//! corresponding changes. The differences between these deltas essentially
//! come from move operations that reorder a subsequence of child nodes for a
//! given parent" (§4). This module materializes that canonical delta:
//!
//! - old nodes without a partner → maximal deleted subtrees;
//! - new nodes without a partner → maximal inserted subtrees;
//! - matched nodes whose parents are not partners → cross-parent moves;
//! - matched children permuted within one parent → within-parent moves for
//!   everything outside a heaviest order-preserving subsequence;
//! - matched text nodes with different content → updates;
//! - matched elements with different attribute sets → attribute operations.
//!
//! One core builds every delta: `diff_matched` takes the matching as two
//! arrays indexed by arena slot, which is how the diff's matchers hold it,
//! and is phase 5 of all three of them. [`diff_by_xid`] and its variants
//! resolve the matching from the XIDs the two versions share into the same
//! arrays and call the same core; they are the back end of delta
//! **aggregation**, the change simulator's **perfect delta** generator
//! (§6.1 — "the result of the change simulator is … a delta representing the
//! exact changes that occurred"), and the **oracle** of the diff: the new
//! version a diff produces carries its matching as inherited XIDs, so
//! `diff_by_xid(old, &result.new_version)` must reproduce the diff's delta
//! byte for byte (`tests/mode_oracle.rs` checks it in every mode).
//!
//! # Cost rule
//!
//! The core is one pre-order walk of the new tree that does not descend
//! below a *settled* node — the root of a subtree matched whole to an
//! identical old subtree, where no operation can originate (§5.1). At each
//! node it visits it reads the node's children and, if the node has a
//! partner, the partner's children: inserts, moves in, updates and
//! attribute operations come from the first list, deletes from the second,
//! and the two are compared for a reorder. So a delta costs the nodes
//! outside settled subtrees and their partners' children, plus the
//! captured payload nodes — with two exceptions that are paid per
//! operation, not per node: a cross-parent move records the positions of
//! its old siblings in a map (once per old parent, on the first move out of
//! it), and a reordered parent weighs its stable children by subtree size.
//! Nothing is sized by the whole old arena. Without settled marks
//! ([`diff_by_xid`]) the walk is the whole new tree.

#![doc = "xylint: hot-path"]

use crate::delta::{Delta, DeltaBuilder};
use crate::lis::{chunked_heaviest_increasing_by, heaviest_increasing_subsequence_by};
use crate::ops::{Op, PayloadSide};
use crate::xid::Xid;
use crate::xiddoc::XidDocument;
use xytree::hash::{fast_map, FastHashMap};
use xytree::traversal::PrunedPreOrder;
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

    // Resolve the XID matching into the NodeId↔NodeId arrays the core
    // reads. XIDs are dense (allocated sequentially per document chain), so
    // when the span is proportionate to the node count a direct array
    // indexed by XID value replaces the per-node hash probe. Long version
    // chains can leave the live XID range sparse; fall back to the hash map
    // there rather than allocate a table proportional to every XID ever
    // issued.
    // ALLOC-OK: two arrays per call; the diff's phase 5 passes its own.
    let mut new_of_old: Vec<Option<NodeId>> = vec![None; o.arena_len()];
    // ALLOC-OK: as above.
    let mut old_of_new: Vec<Option<NodeId>> = vec![None; n.arena_len()];
    let xid_span = new.next_xid_value() as usize;
    if xid_span <= 4 * (o.arena_len() + n.arena_len()) {
        // ALLOC-OK: one table per call, as above.
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
    diff_matched(old, new, &new_of_old, &old_of_new, &[], lis_window, capture)
}

/// The delta transforming `old` into `new` under a given node matching —
/// the one core behind every delta this crate and the diff build (see the
/// module docs for what it emits and what it costs).
///
/// `new_of_old` and `old_of_new` are the matching as partner arrays indexed
/// by arena slot, a bijection between attached nodes that pairs the two
/// document roots; partners must carry the same XID, and a node without a
/// partner one the other version has never used — which is what the diff's
/// XID inheritance produces. `settled` marks, by new-side slot, roots of
/// subtrees matched whole to identical old subtrees; the walk does not
/// descend below them. An empty (or short) slice marks nothing.
/// `lis_window` and `capture` are as in [`diff_by_xid_captured`].
///
/// Hidden from the documented API: a settled mark is a promise the walk
/// cannot check — a subtree marked with an unpartnered node inside would
/// lose that node's operations. The diff's phase 5 is the one caller that
/// passes marks, and they come from the matcher that made the pairs; every
/// other caller goes through [`diff_by_xid`] and its variants.
///
/// # Panics
///
/// If the document roots are not partners — a caller bug.
#[doc(hidden)]
pub fn diff_matched(
    old: &XidDocument,
    new: &XidDocument,
    new_of_old: &[Option<NodeId>],
    old_of_new: &[Option<NodeId>],
    settled: &[bool],
    lis_window: Option<usize>,
    capture: CaptureMode,
) -> Delta {
    let n = &new.doc.tree;
    assert_eq!(
        old_of_new[n.root().index()],
        Some(old.doc.tree.root()),
        "the document roots must be partners"
    );
    let is_settled = |v: NodeId| settled.get(v.index()).copied().unwrap_or(false);
    let mut core = Core {
        old,
        new,
        new_of_old,
        old_of_new,
        capture,
        ops: DeltaBuilder::new(),
        old_pos: fast_map(),
    };
    // A settled node's children are its partner's, in order and unchanged:
    // it is yielded (its parent has already looked at it) and skipped.
    let mut walk = PrunedPreOrder::new(n.root());
    while let Some(parent) = walk.next(n, is_settled) {
        if is_settled(parent) {
            continue;
        }
        core.visit(parent, lis_window, is_settled);
    }
    let mut delta = core.ops.finish();
    delta.canonicalize();
    delta
}

/// The XID of a node of `doc`.
fn xid(doc: &XidDocument, node: NodeId) -> Xid {
    // INVARIANT: every attached node of a XidDocument carries an XID;
    // assignment is total at construction (assign_initial / apply / the
    // diff's inheritance) and never partial.
    doc.xid(node).expect("attached node without XID")
}

/// What the walk of `diff_matched` reads and writes.
struct Core<'a> {
    old: &'a XidDocument,
    new: &'a XidDocument,
    new_of_old: &'a [Option<NodeId>],
    old_of_new: &'a [Option<NodeId>],
    capture: CaptureMode,
    ops: DeltaBuilder,
    /// Position of old nodes among their siblings, filled one old parent at
    /// a time, on the first cross-parent move out of it.
    old_pos: FastHashMap<NodeId, usize>,
}

/// A cursor over the children of an old parent: the next one to look at
/// and its position.
struct OldChildren {
    next: Option<NodeId>,
    pos: usize,
}

impl Core<'_> {
    fn borrow_as(&self, side: PayloadSide) -> Option<PayloadSide> {
        (self.capture == CaptureMode::Borrowed).then_some(side)
    }

    /// Every operation read off the children of `parent` and, when it has a
    /// partner, the partner's children — one pass over each list:
    ///
    /// - a new child without a partner is an insert (if `parent` has one;
    ///   otherwise `parent`'s own insert carries it);
    /// - a partnered one whose old parent is not `parent`'s partner moved in;
    /// - a partnered one outside a settled subtree may have changed content
    ///   (update, attribute operations);
    /// - an old child without a partner is a delete, whose captured subtree
    ///   excludes partnered descendants (moves cover them) — an unpartnered
    ///   region nested below one gets its own op, when the walk visits that
    ///   descendant's partner;
    /// - the *stable* children, partnered and under this pair on both sides,
    ///   are checked to keep their relative order as the two lists go by
    ///   (no allocation: almost every parent's list was only edited,
    ///   extended or trimmed); when they do not, [`Core::reorder`] repairs it.
    fn visit(
        &mut self,
        parent: NodeId,
        lis_window: Option<usize>,
        is_settled: impl Fn(NodeId) -> bool,
    ) {
        let (o, n) = (&self.old.doc.tree, &self.new.doc.tree);
        let old_parent = self.old_of_new[parent.index()];
        let mut old = OldChildren { next: old_parent.and_then(|op| o.first_child(op)), pos: 0 };
        let mut in_order = true;
        for (pos, c) in n.children(parent).enumerate() {
            let Some(oc) = self.old_of_new[c.index()] else {
                if old_parent.is_some() {
                    let old_of_new = self.old_of_new;
                    let borrow = self.borrow_as(PayloadSide::New);
                    let (subtree, xid_map) = self.ops.capture_payload(
                        self.new,
                        c,
                        &|d| old_of_new[d.index()].is_some(),
                        borrow,
                    );
                    self.ops.push(Op::Insert {
                        xid: xid(self.new, c),
                        parent: xid(self.new, parent),
                        pos,
                        subtree,
                        xid_map,
                    });
                }
                continue;
            };
            // Only the old root has no parent, and it partners the new root.
            let from = o.parent(oc);
            match (from, old_parent) {
                (Some(from), Some(op)) if from == op => {
                    // Stable: the old children up to `oc` must hold no other
                    // stable child, which would come later in new order.
                    in_order = in_order && self.old_children_until(&mut old, oc, op, parent);
                }
                (Some(from), _) => {
                    let from_pos = self.old_position(oc, from);
                    self.ops.push(Op::Move {
                        xid: xid(self.new, c),
                        from_parent: xid(self.old, from),
                        from_pos,
                        to_parent: xid(self.new, parent),
                        to_pos: pos,
                    });
                }
                (None, _) => {}
            }
            if is_settled(c) {
                continue;
            }
            match (o.kind(oc), n.kind(c)) {
                (xytree::NodeKind::Text(a), xytree::NodeKind::Text(b)) if a != b => {
                    self.ops.update(xid(self.new, c), a, b);
                }
                (xytree::NodeKind::Element(ea), xytree::NodeKind::Element(eb)) => {
                    diff_attrs(xid(self.new, c), ea, eb, &mut self.ops);
                }
                _ => {}
            }
        }
        let Some(op) = old_parent else { return };
        // The old children after the last stable one — or after the one that
        // broke the order. A stable one among them broke it too.
        while let Some(x) = old.next {
            in_order &= !self.old_child(&mut old, x, op, parent);
        }
        if !in_order {
            self.reorder(op, parent, lis_window);
        }
    }

    /// Take old children from `old` up to and including `oc`, the partner
    /// of a stable new child; false if a stable child comes first (or `oc`
    /// is already behind), the order having changed.
    fn old_children_until(
        &mut self,
        old: &mut OldChildren,
        oc: NodeId,
        op: NodeId,
        parent: NodeId,
    ) -> bool {
        while let Some(x) = old.next {
            let stable = self.old_child(old, x, op, parent);
            if x == oc {
                return true;
            }
            if stable {
                return false;
            }
        }
        false
    }

    /// Take `x`, the next of `op`'s children: a delete if it has no partner.
    /// Returns whether it is stable (its partner is a child of `parent`).
    fn old_child(&mut self, old: &mut OldChildren, x: NodeId, op: NodeId, parent: NodeId) -> bool {
        let (o, n) = (&self.old.doc.tree, &self.new.doc.tree);
        old.next = o.next_sibling(x);
        let pos = old.pos;
        old.pos += 1;
        match self.new_of_old[x.index()] {
            Some(c) => n.parent(c) == Some(parent),
            None => {
                let new_of_old = self.new_of_old;
                let borrow = self.borrow_as(PayloadSide::Old);
                let matched = |d: NodeId| new_of_old[d.index()].is_some();
                let (subtree, xid_map) = self.ops.capture_payload(self.old, x, &matched, borrow);
                self.ops.push(Op::Delete {
                    xid: xid(self.old, x),
                    parent: xid(self.old, op),
                    pos,
                    subtree,
                    xid_map,
                });
                false
            }
        }
    }

    /// Within-parent moves under a partnered pair whose stable children
    /// changed their relative order: everything outside a heaviest
    /// order-preserving subsequence of their permutation becomes a
    /// same-parent move (Figure 3).
    fn reorder(&mut self, old_parent: NodeId, parent: NodeId, lis_window: Option<usize>) {
        let (o, n) = (&self.old.doc.tree, &self.new.doc.tree);
        let (new_of_old, old_of_new) = (self.new_of_old, self.old_of_new);
        // The partner of a stable child, seen from either side.
        let stays_old =
            |oc: NodeId| new_of_old[oc.index()].filter(|&c| n.parent(c) == Some(parent));
        let stays_new =
            |c: NodeId| old_of_new[c.index()].filter(|&oc| o.parent(oc) == Some(old_parent));
        // Stable children with their positions, in each side's order.
        // ALLOC-OK: per reordered parent, like the LIS below.
        let stable_new: Vec<(NodeId, usize)> = n
            .children(parent)
            .enumerate()
            .filter(|&(_, c)| stays_new(c).is_some())
            .map(|(pos, c)| (c, pos))
            .collect();
        if stable_new.len() < 2 {
            return;
        }
        // ALLOC-OK: per reordered parent.
        let stable_old: Vec<(NodeId, usize, NodeId)> = o
            .children(old_parent)
            .enumerate()
            .filter_map(|(pos, oc)| Some((oc, pos, stays_old(oc)?)))
            .collect();
        debug_assert_eq!(stable_old.len(), stable_new.len());
        // Each old-order child's rank in new order, found by node.
        // ALLOC-OK: per reordered parent.
        let mut rank_of: Vec<(NodeId, u64)> =
            stable_new.iter().enumerate().map(|(rank, &(c, _))| (c, rank as u64)).collect();
        rank_of.sort_unstable();
        // ALLOC-OK: per reordered parent.
        let perm: Vec<u64> = stable_old
            .iter()
            .map(|&(_, _, c)| {
                let at = rank_of.binary_search_by_key(&c, |&(d, _)| d);
                // INVARIANT: both stable lists hold the same partnered pairs.
                rank_of[at.expect("stable on both sides")].1
            })
            .collect();
        // ALLOC-OK: per reordered parent.
        let weights: Vec<u64> =
            stable_old.iter().map(|&(oc, ..)| o.subtree_size(oc) as u64).collect();
        let kept = match lis_window {
            Some(w) => chunked_heaviest_increasing_by(&perm, w, |i| weights[i]),
            None => heaviest_increasing_subsequence_by(&perm, |i| weights[i]),
        };
        // ALLOC-OK: per reordered parent.
        let mut moves = vec![true; stable_old.len()];
        for i in kept {
            moves[i] = false;
        }
        let pxid = xid(self.new, parent);
        for (i, &(oc, from_pos, _)) in stable_old.iter().enumerate() {
            if moves[i] {
                self.ops.push(Op::Move {
                    xid: xid(self.old, oc),
                    from_parent: pxid,
                    from_pos,
                    to_parent: pxid,
                    to_pos: stable_new[perm[i] as usize].1,
                });
            }
        }
    }

    /// Position of `oc` among the children of `parent`, its old parent;
    /// the first query under a parent records all of its children's.
    fn old_position(&mut self, oc: NodeId, parent: NodeId) -> usize {
        if let Some(&pos) = self.old_pos.get(&oc) {
            return pos;
        }
        let children = self.old.doc.tree.children(parent);
        // ALLOC-OK: grows with the old parents that moves leave, per operation.
        self.old_pos.extend(children.enumerate().map(|(pos, c)| (c, pos)));
        self.old_pos[&oc]
    }
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
