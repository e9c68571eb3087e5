//! The [`Delta`] container, its buffers, and the [`DeltaBuilder`] that fills
//! them.
//!
//! # Layout and its cost rule
//!
//! A warehouse keeps every delta of every document resident, so what a
//! stored delta costs is the constant that decides how much history fits in
//! memory. A delta is a vector of fixed-size [`Op`]s plus — unless it is
//! empty or made of moves alone — one block of buffers the operations point
//! into:
//!
//! - the **payload arena**, a single [`Tree`] whose detached subtrees are
//!   the contents of the delta's inserts and deletes (32 B per node, all
//!   character data in one buffer);
//! - the **XID buffer**, the postfix XID-maps of those subtrees back to back;
//! - the **text buffer**, old and new values of updates and attribute
//!   operations back to back.
//!
//! So a stored delta costs `size_of::<Op>() × ops + 32 B × payload nodes +
//! 8 B × payload nodes + text`, in a fixed number of allocations however
//! many operations it has, and cloning it copies a handful of buffers. The
//! buffers are only ever appended to while a [`DeltaBuilder`] (or
//! [`Delta::into_owned`]) fills them; a finished delta never changes them.

use crate::apply;
use crate::error::ApplyError;
use crate::ops::{Op, PayloadSide, PayloadSource, Span, SubtreePayload};
use crate::xid::{parse_compact_into, Xid, XidMapParseError};
use crate::xiddoc::XidDocument;
use xytree::{NodeId, Symbol, Tree};

/// A set of elementary operations describing the changes between two
/// consecutive versions of a document (§4).
///
/// Operationally the delta is a *set*: [`Delta::apply_to`] is phased (moves
/// detach, deletes, inserts/re-inserts, updates, attributes) so the order of
/// `ops` does not affect the result.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// The operations. Their handles refer to this delta's buffers: an
    /// operation taken from another delta is meaningless here (moves, which
    /// carry no handle, excepted).
    pub ops: Vec<Op>,
    /// What the operations' handles point into; `None` while no operation
    /// needed a buffer, so the empty delta owns nothing.
    store: Option<Box<Store>>,
}

/// The variable-size content of a delta's operations (see the module docs).
#[derive(Debug, Clone, Default)]
struct Store {
    /// Every stored payload is a detached subtree of this tree.
    tree: Tree,
    xids: Vec<Xid>,
    text: String,
    /// What the borrowed payloads refer to; empty in a self-contained delta.
    borrowed: Vec<Borrowed>,
}

/// A capture still to be copied out of one of the diffed documents.
#[derive(Debug, Clone)]
struct Borrowed {
    /// Which document the captured node lives in.
    side: PayloadSide,
    /// Root of the captured subtree in that document.
    node: NodeId,
    /// Maximal moved-out descendants, sorted ascending so the copy can
    /// binary-search while walking.
    excluded: Vec<NodeId>,
}

/// Per-kind operation counts, for reporting and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Subtree deletions.
    pub deletes: usize,
    /// Subtree insertions.
    pub inserts: usize,
    /// Text updates.
    pub updates: usize,
    /// Subtree moves.
    pub moves: usize,
    /// Attribute insertions/deletions/updates.
    pub attr_ops: usize,
}

impl OpCounts {
    /// Total operations.
    pub fn total(&self) -> usize {
        self.deletes + self.inserts + self.updates + self.moves + self.attr_ops
    }
}

impl Delta {
    /// An empty delta (identity transformation).
    pub fn new() -> Delta {
        Delta::default()
    }

    /// The delta `fill` builds: `Delta::build(|b| { b.update(xid, "a", "b"); })`.
    pub fn build(fill: impl FnOnce(&mut DeltaBuilder)) -> Delta {
        let mut builder = DeltaBuilder::new();
        fill(&mut builder);
        builder.finish()
    }

    /// True when the delta performs no changes.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    fn store(&self) -> &Store {
        // INVARIANT: every handle is issued by a builder call that creates
        // the store first; a handle without one came from another delta.
        self.store.as_deref().expect("handle does not belong to this delta")
    }

    /// The value a text handle of one of this delta's operations stands for.
    pub fn text(&self, span: Span) -> &str {
        &self.store().text[span.range()]
    }

    /// The postfix-ordered XIDs an `xid_map` handle of one of this delta's
    /// operations stands for.
    pub fn xid_map(&self, span: Span) -> &[Xid] {
        &self.store().xids[span.range()]
    }

    /// The stored subtree of one of this delta's inserts or deletes: the
    /// payload arena and the subtree's root in it. The arena is shared by
    /// all payloads of the delta, so walk down from the root only.
    ///
    /// # Panics
    ///
    /// Panics on a borrowed payload. Every consumer of stored, parsed,
    /// applied or aggregated deltas operates past the `into_owned()`
    /// boundary, so reaching this with a borrow is a caller bug, not a data
    /// condition.
    pub fn payload(&self, payload: SubtreePayload) -> (&Tree, NodeId) {
        match payload {
            SubtreePayload::Stored(node) => (&self.store().tree, node),
            SubtreePayload::Borrowed(_) => {
                // INVARIANT: deltas leaving the diff cross Delta::into_owned
                // before storage/serialization/application, so stored-delta
                // consumers never observe a borrowed payload.
                panic!("borrowed subtree payload used outside its source documents' scope")
            }
        }
    }

    /// Copy the borrowed capture `index` of this delta out of `src` into
    /// `into`; returns the copy's (detached) root.
    pub(crate) fn copy_borrowed(&self, index: u32, src: &PayloadSource<'_>, into: &mut Tree) -> NodeId {
        self.store().borrowed[index as usize].copy(src, into)
    }

    /// Per-kind operation counts.
    pub fn counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for op in &self.ops {
            match op {
                Op::Delete { .. } => c.deletes += 1,
                Op::Insert { .. } => c.inserts += 1,
                Op::Update { .. } => c.updates += 1,
                Op::Move { .. } => c.moves += 1,
                Op::AttrInsert { .. } | Op::AttrDelete { .. } | Op::AttrUpdate { .. } => {
                    c.attr_ops += 1;
                }
            }
        }
        c
    }

    /// The inverse delta: applying `self` then `self.inverted()` restores the
    /// original version (§4: completed deltas are invertible).
    pub fn inverted(&self) -> Delta {
        Delta { ops: self.ops.iter().map(Op::inverted).collect(), store: self.store.clone() }
    }

    /// Apply to a document in place. See [`crate::apply`] for the phased
    /// semantics. On error the document may be partially modified; callers
    /// that need atomicity should apply to a clone.
    pub fn apply_to(&self, doc: &mut XidDocument) -> Result<(), ApplyError> {
        apply::apply(self, doc)
    }

    /// Serialized size in bytes of the compact XML form — the quality metric
    /// of Figures 5 and 6 ("delta's sizes are expressed in bytes").
    pub fn size_bytes(&self) -> usize {
        crate::xml_io::delta_to_xml(self).len()
    }

    /// Copy every borrowed payload out of `src` into this delta's payload
    /// arena, making the delta self-contained. This is the explicit boundary
    /// a delta produced with
    /// [`CaptureMode::Borrowed`](crate::diff_by_xid::CaptureMode) must cross
    /// before it outlives the diffed documents — version-chain storage, WAL
    /// append, XML serialization, application, inversion into stored state.
    pub fn into_owned(mut self, src: &PayloadSource<'_>) -> Delta {
        let Some(store) = self.store.as_deref_mut().filter(|s| !s.borrowed.is_empty()) else {
            return self;
        };
        // One node per mapped XID is what the copies below add.
        store.tree.reserve(store.xids.len());
        for op in &mut self.ops {
            let (Op::Delete { subtree, .. } | Op::Insert { subtree, .. }) = op else { continue };
            if let SubtreePayload::Borrowed(index) = *subtree {
                let copied = store.borrowed[index as usize].copy(src, &mut store.tree);
                *subtree = SubtreePayload::Stored(copied);
            }
        }
        store.borrowed = Vec::new();
        self
    }

    /// Give back the buffers' unused capacity: for a delta that was built
    /// to be kept (a clone is exactly sized as it is).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.ops.shrink_to_fit();
        if let Some(store) = self.store.as_deref_mut() {
            store.tree.shrink_to_fit();
            store.xids.shrink_to_fit();
            store.text.shrink_to_fit();
        }
    }

    /// True when any operation still borrows from the diffed documents.
    pub fn has_borrowed_payloads(&self) -> bool {
        self.ops.iter().any(|op| match op {
            Op::Delete { subtree, .. } | Op::Insert { subtree, .. } => subtree.is_borrowed(),
            _ => false,
        })
    }

    /// Sort operations into a canonical order (kind, anchor xid, positions)
    /// for deterministic serialization and comparison in tests.
    pub fn canonicalize(&mut self) {
        self.ops.sort_by(|a, b| {
            let ka = op_rank(a);
            let kb = op_rank(b);
            ka.cmp(&kb).then_with(|| a.anchor().cmp(&b.anchor()))
        });
    }

    /// Human-readable multi-line summary.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for op in &self.ops {
            s.push_str(&self.summary(op));
            s.push('\n');
        }
        s
    }

    /// One line for `op`: the root node label of a stored subtree, or the
    /// update's node and values.
    fn summary(&self, op: &Op) -> String {
        // Borrowed payloads cannot be resolved without their source, so they
        // describe themselves instead.
        let label = |payload: SubtreePayload| match payload {
            SubtreePayload::Stored(node) => self.store().tree.kind(node).to_string(),
            SubtreePayload::Borrowed(_) => "[borrowed subtree]".to_string(),
        };
        match *op {
            Op::Delete { subtree, xid, .. } => format!("delete {} (xid {xid})", label(subtree)),
            Op::Insert { subtree, xid, .. } => format!("insert {} (xid {xid})", label(subtree)),
            Op::Update { xid, old, new } => {
                format!("update xid {xid}: {:?} -> {:?}", self.text(old), self.text(new))
            }
            Op::Move { xid, from_parent, to_parent, .. } => {
                format!("move xid {xid}: parent {from_parent} -> {to_parent}")
            }
            Op::AttrInsert { element, name, value, .. } => {
                format!("attr-insert {name}={:?} on xid {element}", self.text(value))
            }
            Op::AttrDelete { element, name, .. } => {
                format!("attr-delete {name} on xid {element}")
            }
            Op::AttrUpdate { element, name, old, new } => format!(
                "attr-update {name} on xid {element}: {:?} -> {:?}",
                self.text(old),
                self.text(new)
            ),
        }
    }
}

impl Borrowed {
    fn copy(&self, src: &PayloadSource<'_>, into: &mut Tree) -> NodeId {
        into.copy_subtree_from_excluding(src.tree_for(self.side), self.node, &self.excluded)
    }
}

/// Postfix walk below `node` collecting the XIDs of captured nodes and the
/// maximal excluded roots (children for which `excluded` holds; their
/// descendants are not visited).
fn collect_xids_postfix(
    doc: &XidDocument,
    node: NodeId,
    excluded: &dyn Fn(NodeId) -> bool,
    excluded_roots: &mut Vec<NodeId>,
    out: &mut Vec<Xid>,
) {
    for c in doc.doc.tree.children(node) {
        if excluded(c) {
            excluded_roots.push(c);
            continue;
        }
        collect_xids_postfix(doc, c, excluded, excluded_roots, out);
    }
    // INVARIANT: every node of a XidDocument carries an XID; assignment is
    // total at construction (assign_initial / apply) and never partial.
    out.push(doc.xid(node).expect("captured node without XID"));
}

fn op_rank(op: &Op) -> u8 {
    match op {
        Op::Delete { .. } => 0,
        Op::Move { .. } => 1,
        Op::Insert { .. } => 2,
        Op::Update { .. } => 3,
        Op::AttrInsert { .. } => 4,
        Op::AttrDelete { .. } => 5,
        Op::AttrUpdate { .. } => 6,
    }
}

/// Builds a [`Delta`]: every call appends one operation and copies what the
/// operation carries — subtree, XID-map, values — into the delta's buffers.
///
/// ```
/// use xydelta::{DeltaBuilder, Op, Xid};
///
/// let stored = xytree::Document::parse("<b><c/></b>").unwrap();
/// let mut b = DeltaBuilder::new();
/// b.insert(Xid(9), Xid(1), 0, &stored.tree, stored.root_element().unwrap(), &[Xid(8), Xid(9)])
///     .update(Xid(3), "old", "new")
///     .push(Op::Move { xid: Xid(4), from_parent: Xid(1), from_pos: 1, to_parent: Xid(5), to_pos: 0 });
/// let delta = b.finish();
/// assert_eq!(delta.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct DeltaBuilder(Delta);

impl DeltaBuilder {
    /// A builder holding the empty delta.
    pub fn new() -> DeltaBuilder {
        DeltaBuilder::default()
    }

    fn store(&mut self) -> &mut Store {
        self.0.store.get_or_insert_with(Box::default)
    }

    /// Copy `value` into the text buffer.
    fn text(&mut self, value: &str) -> Span {
        let text = &mut self.store().text;
        text.push_str(value);
        Span::new(text.len() - value.len(), value.len())
    }

    /// Append the XIDs of a compact XID-map string to the XID buffer.
    pub(crate) fn parse_xid_map(&mut self, compact: &str) -> Result<Span, XidMapParseError> {
        let xids = &mut self.store().xids;
        let start = xids.len();
        parse_compact_into(compact, xids)?;
        Ok(Span::new(start, xids.len() - start))
    }

    /// The payload arena, for a producer that builds detached subtrees in
    /// it and makes [`SubtreePayload::Stored`] handles of their roots.
    pub(crate) fn arena(&mut self) -> &mut Tree {
        &mut self.store().tree
    }

    /// The payload and XID-map of a delete/insert of `doc`'s subtree at
    /// `node`, excluding descendants for which `matched` holds (those exist
    /// in the other version and are handled by moves). With `borrow_as` the
    /// payload stays a reference into that side's document — no node is
    /// copied — else the captured nodes are copied into the payload arena.
    pub(crate) fn capture_payload(
        &mut self,
        doc: &XidDocument,
        node: NodeId,
        matched: &dyn Fn(NodeId) -> bool,
        borrow_as: Option<PayloadSide>,
    ) -> (SubtreePayload, Span) {
        let Store { tree, xids, borrowed, .. } = self.store();
        let first_xid = xids.len();
        let mut excluded = Vec::new();
        collect_xids_postfix(doc, node, matched, &mut excluded, xids);
        excluded.sort_unstable();
        let subtree = match borrow_as {
            Some(side) => {
                // INVARIANT: like the tree arena's ids, captures are
                // u32-indexed; a delta has at most one per document node.
                let index = u32::try_from(borrowed.len()).expect("capture index exceeds u32");
                borrowed.push(Borrowed { side, node, excluded });
                SubtreePayload::Borrowed(index)
            }
            None => SubtreePayload::Stored(tree.copy_subtree_from_excluding(
                &doc.doc.tree,
                node,
                &excluded,
            )),
        };
        (subtree, Span::new(first_xid, xids.len() - first_xid))
    }

    /// Append an operation as it is: a move, which carries no handle, or an
    /// operation whose handles this builder issued.
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.0.ops.push(op);
        self
    }

    fn subtree_op(&mut self, src: &Tree, node: NodeId, xids: &[Xid]) -> (SubtreePayload, Span) {
        let subtree = SubtreePayload::Stored(self.arena().copy_subtree_from(src, node));
        let buffer = &mut self.store().xids;
        buffer.extend_from_slice(xids);
        (subtree, Span::new(buffer.len() - xids.len(), xids.len()))
    }

    /// Append the insertion of a copy of `src`'s subtree at `node`, whose
    /// nodes carry `xids` in postfix order, as child `pos` of `parent`.
    pub fn insert(
        &mut self,
        xid: Xid,
        parent: Xid,
        pos: usize,
        src: &Tree,
        node: NodeId,
        xids: &[Xid],
    ) -> &mut Self {
        let (subtree, xid_map) = self.subtree_op(src, node, xids);
        self.push(Op::Insert { xid, parent, pos, subtree, xid_map })
    }

    /// Append the deletion of child `pos` of `parent`, storing a copy of
    /// `src`'s subtree at `node` (postfix XIDs `xids`) as what was deleted.
    pub fn delete(
        &mut self,
        xid: Xid,
        parent: Xid,
        pos: usize,
        src: &Tree,
        node: NodeId,
        xids: &[Xid],
    ) -> &mut Self {
        let (subtree, xid_map) = self.subtree_op(src, node, xids);
        self.push(Op::Delete { xid, parent, pos, subtree, xid_map })
    }

    /// Append a text update.
    pub fn update(&mut self, xid: Xid, old: &str, new: &str) -> &mut Self {
        let (old, new) = (self.text(old), self.text(new));
        self.push(Op::Update { xid, old, new })
    }

    /// Append an attribute insertion.
    pub fn attr_insert(
        &mut self,
        element: Xid,
        name: impl Into<Symbol>,
        value: &str,
        pos: usize,
    ) -> &mut Self {
        let value = self.text(value);
        self.push(Op::AttrInsert { element, name: name.into(), value, pos })
    }

    /// Append an attribute deletion.
    pub fn attr_delete(
        &mut self,
        element: Xid,
        name: impl Into<Symbol>,
        old: &str,
        pos: usize,
    ) -> &mut Self {
        let old = self.text(old);
        self.push(Op::AttrDelete { element, name: name.into(), old, pos })
    }

    /// Append an attribute value change.
    pub fn attr_update(
        &mut self,
        element: Xid,
        name: impl Into<Symbol>,
        old: &str,
        new: &str,
    ) -> &mut Self {
        let (old, new) = (self.text(old), self.text(new));
        self.push(Op::AttrUpdate { element, name: name.into(), old, new })
    }

    /// The finished delta.
    pub fn finish(self) -> Delta {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xytree::Document;

    #[test]
    fn counts_and_total() {
        let mut b = DeltaBuilder::new();
        b.update(Xid(1), "a", "b")
            .push(Op::Move { xid: Xid(2), from_parent: Xid(3), from_pos: 0, to_parent: Xid(3), to_pos: 1 })
            .attr_insert(Xid(4), "n", "v", 0);
        let d = b.finish();
        let c = d.counts();
        assert_eq!(c.updates, 1);
        assert_eq!(c.moves, 1);
        assert_eq!(c.attr_ops, 1);
        assert_eq!(c.total(), 3);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn empty_delta() {
        let d = DeltaBuilder::new().finish();
        assert!(d.is_empty());
        assert_eq!(d.counts().total(), 0);
        assert!(d.store.is_none(), "the empty delta owns no buffers");
    }

    #[test]
    fn canonicalize_orders_by_kind_then_xid() {
        let mut b = DeltaBuilder::new();
        b.attr_insert(Xid(1), "n", "v", 0).update(Xid(9), "", "").update(Xid(2), "", "");
        let mut d = b.finish();
        d.canonicalize();
        let kinds: Vec<_> = d.ops.iter().map(|o| (o.kind_name(), o.anchor())).collect();
        assert_eq!(
            kinds,
            vec![("update", Xid(2)), ("update", Xid(9)), ("attr-insert", Xid(1))]
        );
    }

    #[test]
    fn inverted_twice_has_same_shape() {
        let mut b = DeltaBuilder::new();
        b.update(Xid(1), "x", "y");
        let d = b.finish();
        let dd = d.inverted().inverted();
        assert_eq!(dd.len(), 1);
        match dd.ops[0] {
            Op::Update { old, new, .. } => {
                assert_eq!(dd.text(old), "x");
                assert_eq!(dd.text(new), "y");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn describe_mentions_every_op() {
        let mut b = DeltaBuilder::new();
        b.update(Xid(1), "a", "b").attr_delete(Xid(2), "k", "v", 0);
        let text = b.finish().describe();
        assert!(text.contains("update"));
        assert!(text.contains("attr-delete"));
    }

    #[test]
    fn payloads_share_one_arena() {
        let doc = Document::parse("<r><a>one</a><b><c/>two</b></r>").unwrap();
        let r = doc.root_element().unwrap();
        let (a, bb) = (doc.tree.child_at(r, 0).unwrap(), doc.tree.child_at(r, 1).unwrap());
        let mut b = DeltaBuilder::new();
        b.delete(Xid(2), Xid(9), 0, &doc.tree, a, &[Xid(1), Xid(2)])
            .insert(Xid(5), Xid(9), 1, &doc.tree, bb, &[Xid(3), Xid(4), Xid(5)]);
        let delta = b.finish();
        let roots: Vec<_> = delta
            .ops
            .iter()
            .map(|op| match *op {
                Op::Delete { subtree, xid_map, .. } | Op::Insert { subtree, xid_map, .. } => {
                    let (tree, node) = delta.payload(subtree);
                    assert_eq!(tree.parent(node), None, "a payload is a detached subtree");
                    assert_eq!(tree.subtree_size(node), delta.xid_map(xid_map).len());
                    (tree as *const Tree, tree.name(node).unwrap().to_string())
                }
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(roots[0].0, roots[1].0, "one arena for every payload");
        assert_eq!((roots[0].1.as_str(), roots[1].1.as_str()), ("a", "b"));
        assert!(delta.describe().contains("delete <a> (xid 2)"), "{}", delta.describe());
    }
}
