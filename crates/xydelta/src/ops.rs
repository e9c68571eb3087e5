//! The elementary operations of a delta (§4 of the paper).
//!
//! "The delta is a set of the following elementary operations: (i) the
//! deletion of subtrees; (ii) the insertion of subtrees; (iii) an update of
//! the value of a text node or an attribute; and (iv) a move of a node or a
//! part of a subtree."
//!
//! All operations are **completed**: a delete stores the deleted subtree, an
//! update stores the old *and* the new value, a move stores both endpoints —
//! so every operation can be inverted without consulting either version.
//!
//! Positions are 0-based child indexes here (the paper's examples print them
//! 1-based; the XML serialization in [`crate::xml_io`] follows the paper).
//! Delete/move-source positions refer to the **old** document, insert/
//! move-target positions to the **new** document.

use crate::xid::{Xid, XidMap};
use xytree::{NodeId, Tree};

/// Which diffed document a borrowed payload references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadSide {
    /// The old version (delete captures point here).
    Old,
    /// The new version (insert captures point here).
    New,
}

/// Resolves borrowed payloads against the pair of documents a diff ran over.
///
/// The referenced trees must be the exact, unmodified documents the diff was
/// computed from; node ids in borrowed payloads index their arenas directly.
#[derive(Debug, Clone, Copy)]
pub struct PayloadSource<'a> {
    /// Tree of the old version.
    pub old: &'a Tree,
    /// Tree of the new version.
    pub new: &'a Tree,
}

impl<'a> PayloadSource<'a> {
    /// The tree a borrowed payload's side refers to.
    pub fn tree_for(&self, side: PayloadSide) -> &'a Tree {
        match side {
            PayloadSide::Old => self.old,
            PayloadSide::New => self.new,
        }
    }
}

/// The content carried by a delete/insert operation.
///
/// `Owned` is the classic representation: a standalone tree whose document
/// root has the captured node as its single child. The zero-copy diff path
/// records `Borrowed` instead: the captured node's id in the source document
/// plus the sorted maximal descendants excluded because they moved out
/// (covered by move ops). A borrowed payload is an arena-borrowed slice in
/// spirit — no nodes are cloned at capture time — and is only meaningful
/// while the diffed documents are alive and unmodified. Deltas that outlive
/// that scope (WAL append, XML serialization, version-chain storage) must
/// cross the [`Delta::into_owned`](crate::Delta::into_owned) boundary first.
#[derive(Debug, Clone)]
pub enum SubtreePayload {
    /// A standalone captured tree (the pre-zero-copy representation).
    Owned(Tree),
    /// A reference into one of the diffed documents.
    Borrowed {
        /// Which document the captured node lives in.
        side: PayloadSide,
        /// Root of the captured subtree in that document.
        node: NodeId,
        /// Maximal moved-out descendants, sorted ascending so serialization
        /// and materialization can binary-search while walking.
        excluded: Vec<NodeId>,
    },
}

impl SubtreePayload {
    /// True for payloads that still borrow from a source document.
    pub fn is_borrowed(&self) -> bool {
        matches!(self, SubtreePayload::Borrowed { .. })
    }

    /// The owned captured tree.
    ///
    /// # Panics
    ///
    /// Panics on a borrowed payload. Every consumer of stored, parsed,
    /// applied or aggregated deltas operates past the `into_owned()`
    /// boundary, so reaching this with a borrow is a caller bug, not a data
    /// condition.
    pub fn tree(&self) -> &Tree {
        match self {
            SubtreePayload::Owned(t) => t,
            SubtreePayload::Borrowed { .. } => {
                // INVARIANT: deltas leaving the diff cross Delta::into_owned
                // before storage/serialization/application, so stored-delta
                // consumers never observe a borrowed payload.
                panic!("borrowed subtree payload used outside its source documents' scope")
            }
        }
    }

    /// Materialize an owned standalone tree, resolving borrows via `src`.
    /// Owned payloads pass through untouched.
    pub fn into_owned(self, src: &PayloadSource<'_>) -> SubtreePayload {
        match self {
            owned @ SubtreePayload::Owned(_) => owned,
            SubtreePayload::Borrowed { side, node, excluded } => {
                SubtreePayload::Owned(materialize(src.tree_for(side), node, &excluded))
            }
        }
    }
}

impl From<Tree> for SubtreePayload {
    fn from(tree: Tree) -> Self {
        SubtreePayload::Owned(tree)
    }
}

/// An elementary change operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// Deletion of the subtree rooted at `xid`.
    Delete {
        /// Root of the deleted subtree.
        xid: Xid,
        /// Parent it is deleted from.
        parent: Xid,
        /// 0-based position among the parent's children in the old document.
        pos: usize,
        /// The deleted content: owned, a standalone tree whose document root
        /// has the deleted node as its single child; borrowed, a slice of
        /// the old document. Nodes that *moved out* of the subtree are not
        /// part of it.
        subtree: SubtreePayload,
        /// Postfix-ordered XIDs of `subtree`'s nodes.
        xid_map: XidMap,
    },
    /// Insertion of a subtree rooted at `xid`.
    Insert {
        /// Root of the inserted subtree.
        xid: Xid,
        /// Parent it is inserted under.
        parent: Xid,
        /// 0-based final position among the parent's children in the new
        /// document.
        pos: usize,
        /// The inserted content (same representation as `Delete::subtree`,
        /// borrowing from the new document instead).
        subtree: SubtreePayload,
        /// Postfix-ordered XIDs assigned to `subtree`'s nodes.
        xid_map: XidMap,
    },
    /// Update of a text node's content.
    Update {
        /// The text node.
        xid: Xid,
        /// Content in the old version.
        old: String,
        /// Content in the new version.
        new: String,
    },
    /// Move of a subtree, possibly within the same parent (the paper's
    /// `move(m, n, o, p, q)`: node `o` moves from being the `n`-th child of
    /// `m` to being the `q`-th child of `p`).
    Move {
        /// The moved node.
        xid: Xid,
        /// Parent in the old document.
        from_parent: Xid,
        /// 0-based position in the old document.
        from_pos: usize,
        /// Parent in the new document.
        to_parent: Xid,
        /// 0-based final position in the new document.
        to_pos: usize,
    },
    /// A new attribute on an existing element (§5.2: attributes get
    /// dedicated update operations instead of XIDs).
    AttrInsert {
        /// The owning element.
        element: Xid,
        /// Attribute name.
        name: String,
        /// Attribute value in the new version.
        value: String,
        /// 0-based position in the element's attribute list in the new
        /// version. Attribute order carries no meaning, but recording it
        /// keeps reconstructed versions byte-identical to the originals.
        pos: usize,
    },
    /// Removal of an attribute from an existing element.
    AttrDelete {
        /// The owning element.
        element: Xid,
        /// Attribute name.
        name: String,
        /// Value it had in the old version (for inversion).
        old: String,
        /// 0-based position in the old version's attribute list, so the
        /// inverse insert restores the attribute where it was.
        pos: usize,
    },
    /// Change of an attribute's value.
    AttrUpdate {
        /// The owning element.
        element: Xid,
        /// Attribute name.
        name: String,
        /// Old value.
        old: String,
        /// New value.
        new: String,
    },
}

impl Op {
    /// The XID the operation is anchored at (the node for tree ops, the
    /// owning element for attribute ops).
    pub fn anchor(&self) -> Xid {
        match *self {
            Op::Delete { xid, .. }
            | Op::Insert { xid, .. }
            | Op::Update { xid, .. }
            | Op::Move { xid, .. } => xid,
            Op::AttrInsert { element, .. }
            | Op::AttrDelete { element, .. }
            | Op::AttrUpdate { element, .. } => element,
        }
    }

    /// A short operation-kind name (used for subscription filters and
    /// reporting).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Op::Delete { .. } => "delete",
            Op::Insert { .. } => "insert",
            Op::Update { .. } => "update",
            Op::Move { .. } => "move",
            Op::AttrInsert { .. } => "attr-insert",
            Op::AttrDelete { .. } => "attr-delete",
            Op::AttrUpdate { .. } => "attr-update",
        }
    }

    /// The inverse operation (delta algebra, §4: "a delta specifies both the
    /// transformation from the old to the new version, but the inverse
    /// transformation as well").
    pub fn inverted(&self) -> Op {
        match self.clone() {
            Op::Delete { xid, parent, pos, subtree, xid_map } => {
                Op::Insert { xid, parent, pos, subtree, xid_map }
            }
            Op::Insert { xid, parent, pos, subtree, xid_map } => {
                Op::Delete { xid, parent, pos, subtree, xid_map }
            }
            Op::Update { xid, old, new } => Op::Update { xid, old: new, new: old },
            Op::Move { xid, from_parent, from_pos, to_parent, to_pos } => Op::Move {
                xid,
                from_parent: to_parent,
                from_pos: to_pos,
                to_parent: from_parent,
                to_pos: from_pos,
            },
            Op::AttrInsert { element, name, value, pos } => {
                Op::AttrDelete { element, name, old: value, pos }
            }
            Op::AttrDelete { element, name, old, pos } => {
                Op::AttrInsert { element, name, value: old, pos }
            }
            Op::AttrUpdate { element, name, old, new } => {
                Op::AttrUpdate { element, name, old: new, new: old }
            }
        }
    }

    /// Number of nodes carried by the operation's stored subtree (0 for ops
    /// without one). Used in delta-size accounting. For borrowed payloads the
    /// XID-map already enumerates exactly the captured nodes.
    pub fn carried_nodes(&self) -> usize {
        match self {
            Op::Delete { subtree, xid_map, .. } | Op::Insert { subtree, xid_map, .. } => {
                match subtree {
                    SubtreePayload::Owned(t) => t.subtree_size(t.root()).saturating_sub(1),
                    SubtreePayload::Borrowed { .. } => xid_map.len(),
                }
            }
            _ => 0,
        }
    }

    /// Materialize any borrowed payload via `src`; other ops pass through.
    pub fn into_owned(self, src: &PayloadSource<'_>) -> Op {
        match self {
            Op::Delete { xid, parent, pos, subtree, xid_map } => {
                Op::Delete { xid, parent, pos, subtree: subtree.into_owned(src), xid_map }
            }
            Op::Insert { xid, parent, pos, subtree, xid_map } => {
                Op::Insert { xid, parent, pos, subtree: subtree.into_owned(src), xid_map }
            }
            other => other,
        }
    }

    /// The root node label of a stored subtree, or the update's node, for
    /// human-readable summaries.
    pub fn summary(&self) -> String {
        match self {
            Op::Delete { subtree, xid, .. } => {
                format!("delete {} (xid {xid})", payload_label(subtree))
            }
            Op::Insert { subtree, xid, .. } => {
                format!("insert {} (xid {xid})", payload_label(subtree))
            }
            Op::Update { xid, old, new } => {
                format!("update xid {xid}: {old:?} -> {new:?}")
            }
            Op::Move { xid, from_parent, to_parent, .. } => {
                format!("move xid {xid}: parent {from_parent} -> {to_parent}")
            }
            Op::AttrInsert { element, name, value, .. } => {
                format!("attr-insert {name}={value:?} on xid {element}")
            }
            Op::AttrDelete { element, name, .. } => {
                format!("attr-delete {name} on xid {element}")
            }
            Op::AttrUpdate { element, name, old, new } => {
                format!("attr-update {name} on xid {element}: {old:?} -> {new:?}")
            }
        }
    }
}

/// Root-label text for human-readable summaries; borrowed payloads cannot be
/// resolved without their source, so they describe themselves instead.
fn payload_label(payload: &SubtreePayload) -> String {
    match payload {
        SubtreePayload::Owned(t) => t
            .first_child(t.root())
            .map(|c| t.kind(c).to_string())
            .unwrap_or_else(|| "?".into()),
        SubtreePayload::Borrowed { .. } => "[borrowed subtree]".into(),
    }
}

/// Build the standalone-subtree representation used by delete/insert ops:
/// a fresh tree whose document root has a copy of `node` as its single
/// child, **excluding** descendants for which `exclude` returns true (those
/// are nodes that moved out of the subtree and are covered by move ops).
pub fn capture_subtree(
    src: &Tree,
    node: xytree::NodeId,
    exclude: &dyn Fn(xytree::NodeId) -> bool,
) -> Tree {
    // The maximal excluded roots, in the form the tree's own copy takes.
    let mut excluded = Vec::new();
    let mut stack = vec![node];
    while let Some(n) = stack.pop() {
        for c in src.children(n) {
            if exclude(c) {
                excluded.push(c);
            } else {
                stack.push(c);
            }
        }
    }
    excluded.sort_unstable();
    materialize(src, node, &excluded)
}

/// A standalone tree holding a copy of `node`'s subtree minus the subtrees
/// rooted at `excluded` (sorted), under its document root.
pub(crate) fn materialize(src: &Tree, node: xytree::NodeId, excluded: &[xytree::NodeId]) -> Tree {
    let mut t = Tree::new();
    let copied = t.copy_subtree_from_excluding(src, node, excluded);
    let root = t.root();
    t.append_child(root, copied);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use xytree::Document;

    #[test]
    fn op_size_is_pinned() {
        // A stored delta is a `Vec<Op>`: every operation pays for the largest.
        assert!(std::mem::size_of::<Op>() <= 88, "{}", std::mem::size_of::<Op>());
    }

    #[test]
    fn inversion_is_an_involution() {
        let doc = Document::parse("<x/>").unwrap();
        let ops = vec![
            Op::Delete {
                xid: Xid(1),
                parent: Xid(2),
                pos: 0,
                subtree: doc.tree.clone().into(),
                xid_map: XidMap::new(vec![Xid(1)]),
            },
            Op::Update { xid: Xid(3), old: "a".into(), new: "b".into() },
            Op::Move { xid: Xid(4), from_parent: Xid(5), from_pos: 1, to_parent: Xid(6), to_pos: 2 },
            Op::AttrInsert { element: Xid(7), name: "n".into(), value: "v".into(), pos: 0 },
            Op::AttrUpdate { element: Xid(8), name: "n".into(), old: "o".into(), new: "w".into() },
        ];
        for op in ops {
            let back = op.inverted().inverted();
            assert_eq!(back.kind_name(), op.kind_name());
            assert_eq!(back.anchor(), op.anchor());
        }
    }

    #[test]
    fn delete_inverts_to_insert() {
        let doc = Document::parse("<x/>").unwrap();
        let d = Op::Delete {
            xid: Xid(1),
            parent: Xid(2),
            pos: 3,
            subtree: doc.tree.into(),
            xid_map: XidMap::new(vec![Xid(1)]),
        };
        match d.inverted() {
            Op::Insert { xid, parent, pos, .. } => {
                assert_eq!((xid, parent, pos), (Xid(1), Xid(2), 3));
            }
            other => panic!("expected insert, got {}", other.kind_name()),
        }
    }

    #[test]
    fn move_inverts_endpoints() {
        let m = Op::Move { xid: Xid(1), from_parent: Xid(2), from_pos: 3, to_parent: Xid(4), to_pos: 5 };
        match m.inverted() {
            Op::Move { from_parent, from_pos, to_parent, to_pos, .. } => {
                assert_eq!((from_parent, from_pos, to_parent, to_pos), (Xid(4), 5, Xid(2), 3));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn capture_subtree_excludes_moved_out_nodes() {
        let doc = Document::parse("<a><keep/><gone/><keep2/></a>").unwrap();
        let a = doc.root_element().unwrap();
        let gone = doc.tree.child_at(a, 1).unwrap();
        let captured = capture_subtree(&doc.tree, a, &|n| n == gone);
        let root_elem = captured.first_child(captured.root()).unwrap();
        let names: Vec<_> = captured
            .children(root_elem)
            .map(|c| captured.name(c).unwrap().to_string())
            .collect();
        assert_eq!(names, ["keep", "keep2"]);
    }

    #[test]
    fn carried_nodes_counts_subtree() {
        let doc = Document::parse("<a><b/><c>t</c></a>").unwrap();
        let op = Op::Insert {
            xid: Xid(1),
            parent: Xid(2),
            pos: 0,
            subtree: doc.tree.into(),
            xid_map: XidMap::default(),
        };
        assert_eq!(op.carried_nodes(), 4); // a, b, c, t
        let up = Op::Update { xid: Xid(1), old: String::new(), new: String::new() };
        assert_eq!(up.carried_nodes(), 0);
    }

    #[test]
    fn borrowed_payload_materializes_like_capture() {
        let doc = Document::parse("<a><keep/><gone/><keep2/></a>").unwrap();
        let a = doc.root_element().unwrap();
        let gone = doc.tree.child_at(a, 1).unwrap();
        let owned = capture_subtree(&doc.tree, a, &|n| n == gone);
        let borrowed = SubtreePayload::Borrowed {
            side: PayloadSide::New,
            node: a,
            excluded: vec![gone],
        };
        assert!(borrowed.is_borrowed());
        let src = PayloadSource { old: &doc.tree, new: &doc.tree };
        let materialized = borrowed.into_owned(&src);
        assert!(!materialized.is_borrowed());
        let (m, o) = (materialized.tree(), &owned);
        let (mr, or) = (
            m.first_child(m.root()).unwrap(),
            o.first_child(o.root()).unwrap(),
        );
        assert!(m.subtree_eq(mr, o, or), "materialized tree must match capture");
    }

    #[test]
    fn borrowed_carried_nodes_uses_xid_map() {
        let op = Op::Delete {
            xid: Xid(3),
            parent: Xid(9),
            pos: 0,
            subtree: SubtreePayload::Borrowed {
                side: PayloadSide::Old,
                node: NodeId::from_index(0),
                excluded: Vec::new(),
            },
            xid_map: XidMap::new(vec![Xid(1), Xid(2), Xid(3)]),
        };
        assert_eq!(op.carried_nodes(), 3);
        assert!(op.summary().contains("[borrowed subtree]"));
    }
}
