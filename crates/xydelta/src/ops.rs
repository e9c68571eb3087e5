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
//! An [`Op`] is a fixed-size record. Everything of variable size — the
//! stored subtrees, their XID-maps, old and new values — lives in buffers of
//! the [`Delta`](crate::Delta) that holds the operation, and the operation
//! refers to it by handle ([`SubtreePayload`], [`Span`]). A handle means
//! something only to the delta that issued it; read it through
//! [`Delta::payload`](crate::Delta::payload),
//! [`Delta::xid_map`](crate::Delta::xid_map) and
//! [`Delta::text`](crate::Delta::text).
//!
//! Positions are 0-based child indexes here (the paper's examples print them
//! 1-based; the XML serialization in [`crate::xml_io`] follows the paper).
//! Delete/move-source positions refer to the **old** document, insert/
//! move-target positions to the **new** document.

use crate::xid::Xid;
use std::ops::Range;
use xytree::{NodeId, Symbol, Tree};

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

/// A run of one of the owning delta's buffers: the bytes of a value in its
/// text buffer, or the XIDs of one subtree in its XID buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The run of `len` items that starts at `start`.
    pub(crate) fn new(start: usize, len: usize) -> Span {
        // INVARIANT: like the tree arena's own offsets, a delta's buffers
        // are u32-indexed; 4 Gi XIDs or bytes in one delta is outside the
        // design range.
        let word = |n: usize| u32::try_from(n).expect("delta buffer exceeds u32 range");
        Span { start: word(start), len: word(len) }
    }

    /// Number of items (bytes or XIDs) in the run.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True for the empty run.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// The content carried by a delete/insert operation.
///
/// `Stored` is the self-contained form: the root of a detached subtree in
/// the owning delta's payload arena, one tree shared by every payload of the
/// delta. The zero-copy diff path records `Borrowed` instead: the delta
/// notes the captured node's id in the source document plus the sorted
/// maximal descendants excluded because they moved out (covered by move
/// ops), and the payload is that note's index. A borrowed payload is an
/// arena-borrowed slice in spirit — no nodes are cloned at capture time —
/// and is only meaningful while the diffed documents are alive and
/// unmodified. Deltas that outlive that scope (WAL append, XML
/// serialization, version-chain storage) must cross the
/// [`Delta::into_owned`](crate::Delta::into_owned) boundary first.
#[derive(Debug, Clone, Copy)]
pub enum SubtreePayload {
    /// Root of the captured subtree in the owning delta's payload arena.
    Stored(NodeId),
    /// A reference into one of the diffed documents, by its index among the
    /// owning delta's borrowed captures.
    Borrowed(u32),
}

impl SubtreePayload {
    /// True for payloads that still borrow from a source document.
    pub fn is_borrowed(&self) -> bool {
        matches!(self, SubtreePayload::Borrowed(_))
    }
}

/// An elementary change operation.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Deletion of the subtree rooted at `xid`.
    Delete {
        /// Root of the deleted subtree.
        xid: Xid,
        /// Parent it is deleted from.
        parent: Xid,
        /// 0-based position among the parent's children in the old document.
        pos: usize,
        /// The deleted content. Nodes that *moved out* of the subtree are
        /// not part of it.
        subtree: SubtreePayload,
        /// Postfix-ordered XIDs of `subtree`'s nodes, in the delta's XID
        /// buffer.
        xid_map: Span,
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
        /// Postfix-ordered XIDs assigned to `subtree`'s nodes, in the
        /// delta's XID buffer.
        xid_map: Span,
    },
    /// Update of a text node's content.
    Update {
        /// The text node.
        xid: Xid,
        /// Content in the old version, in the delta's text buffer.
        old: Span,
        /// Content in the new version, in the delta's text buffer.
        new: Span,
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
        name: Symbol,
        /// Attribute value in the new version, in the delta's text buffer.
        value: Span,
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
        name: Symbol,
        /// Value it had in the old version (for inversion), in the delta's
        /// text buffer.
        old: Span,
        /// 0-based position in the old version's attribute list, so the
        /// inverse insert restores the attribute where it was.
        pos: usize,
    },
    /// Change of an attribute's value.
    AttrUpdate {
        /// The owning element.
        element: Xid,
        /// Attribute name.
        name: Symbol,
        /// Old value, in the delta's text buffer.
        old: Span,
        /// New value, in the delta's text buffer.
        new: Span,
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
    /// transformation as well"). Its handles refer to the same delta's
    /// buffers: an inverted delete *is* the insert of the same payload.
    pub fn inverted(&self) -> Op {
        match *self {
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

    /// Number of nodes carried by the operation's subtree (0 for ops without
    /// one): the XID-map enumerates exactly the captured nodes.
    pub fn carried_nodes(&self) -> usize {
        match self {
            Op::Delete { xid_map, .. } | Op::Insert { xid_map, .. } => xid_map.len(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaBuilder;
    use xytree::Document;

    #[test]
    fn op_size_is_pinned() {
        // A stored delta is a `Vec<Op>`: every operation pays for the largest.
        assert!(std::mem::size_of::<Op>() <= 48, "{}", std::mem::size_of::<Op>());
    }

    #[test]
    fn inversion_is_an_involution() {
        let doc = Document::parse("<x/>").unwrap();
        let mut b = DeltaBuilder::new();
        b.delete(Xid(1), Xid(2), 0, &doc.tree, doc.root_element().unwrap(), &[Xid(1)])
            .update(Xid(3), "a", "b")
            .push(Op::Move { xid: Xid(4), from_parent: Xid(5), from_pos: 1, to_parent: Xid(6), to_pos: 2 })
            .attr_insert(Xid(7), "n", "v", 0)
            .attr_update(Xid(8), "n", "o", "w");
        for op in b.finish().ops {
            let back = op.inverted().inverted();
            assert_eq!(back.kind_name(), op.kind_name());
            assert_eq!(back.anchor(), op.anchor());
        }
    }

    #[test]
    fn delete_inverts_to_insert() {
        let doc = Document::parse("<x/>").unwrap();
        let mut b = DeltaBuilder::new();
        b.delete(Xid(1), Xid(2), 3, &doc.tree, doc.root_element().unwrap(), &[Xid(1)]);
        match b.finish().ops[0].inverted() {
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
    fn carried_nodes_counts_subtree() {
        let doc = Document::parse("<a><b/><c>t</c></a>").unwrap();
        let mut b = DeltaBuilder::new();
        b.insert(Xid(4), Xid(9), 0, &doc.tree, doc.root_element().unwrap(), &[Xid(1), Xid(2), Xid(3), Xid(4)])
            .update(Xid(1), "", "");
        let delta = b.finish();
        assert_eq!(delta.ops[0].carried_nodes(), 4); // a, b, c, t
        assert_eq!(delta.ops[1].carried_nodes(), 0);
    }
}
