//! Arena-based ordered tree.
//!
//! Nodes live in a `Vec` and are addressed by [`NodeId`] indices; sibling
//! order is kept in an intrusive doubly-linked list. This gives the three
//! properties the diff pipeline needs:
//!
//! 1. **Stable identifiers** — a `NodeId` stays valid for the life of the
//!    tree, across arbitrary detach/insert mutations, so matchings and XID
//!    tables can be plain `Vec`s indexed by node.
//! 2. **O(1) structural edits** — detach, insert-before, append are pointer
//!    swaps, so applying a delta is linear in the number of operations.
//! 3. **Addressable detached subtrees** — a deleted subtree stays in the
//!    arena; completed deltas can still serialize it for the inverse
//!    operation.
//!
//! # Layout and its cost rule
//!
//! The warehouse keeps the latest version of every document resident, and
//! for every stored delta one tree — the payload arena, whose detached
//! subtrees are what the delta's inserts and deletes carry — so the per-node
//! constant, not the asymptotics, decides what fits in memory:
//!
//! - A node is one **32-byte slot**: five 4-byte links ([`NodeId`] wraps a
//!   `NonZeroU32`, so `Option<NodeId>` has no separate tag), a kind tag, and
//!   two 4-byte payload words.
//! - **Text and comment bytes** live in one buffer per tree; the slot holds
//!   `(offset, len)`. The parser copies character data straight from its
//!   input into that buffer — no per-node allocation.
//! - An **element** slot holds its interned label and, when it has
//!   attributes, the index of its list in an out-of-line table. Processing
//!   instructions (rare) are out of line as well.
//!
//! So a tree costs `32 B × slots + text bytes + 24 B per attribute-bearing
//! element (+ its attributes)`, in a handful of allocations however many
//! nodes it has — and a stored delta `32 B × payload nodes + text +
//! size_of::<Op>() × ops` (plus 8 B per payload node for its XIDs), in a
//! fixed number of allocations however many operations it has
//! (`xydelta::delta`). Nothing is reclaimed in place: detached subtrees keep their
//! slots, and replaced text ([`Tree::set_text`]) leaves its old bytes behind.
//! Long-lived mutated trees ask [`Tree::is_sparse`] and rebuild through
//! [`Tree::compacted`].

use crate::intern::Symbol;
use crate::node::{Attr, Element, NodeKind};
use crate::traversal::{Ancestors, Children, Descendants, PostOrder};
use std::num::NonZeroU32;

/// Index of a node within a [`Tree`] arena.
///
/// Only meaningful together with the tree that created it. The raw index is
/// exposed ([`NodeId::index`]) so callers can maintain dense side tables
/// (e.g. one XID per slot) keyed by node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(NonZeroU32);

impl NodeId {
    /// The arena slot of this node.
    #[inline]
    pub fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }

    /// Rebuild a `NodeId` from a slot index previously obtained via
    /// [`NodeId::index`]. Using an index that was never handed out yields a
    /// node id that panics on use.
    #[inline]
    pub fn from_index(index: usize) -> NodeId {
        let raw = u32::try_from(index).ok().and_then(|i| NonZeroU32::new(i.wrapping_add(1)));
        // INVARIANT: arena slots are u32-indexed; an index from
        // NodeId::index always fits back.
        NodeId(raw.expect("node index exceeds u32 range"))
    }
}

/// What a slot's payload words mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    /// No payload.
    Document,
    /// `a` = label ([`Symbol`] id), `b` = 1-based index into
    /// `Rare::attr_lists` (0: no attributes).
    Element,
    /// `a`, `b` = offset and length of the content in `Side::text`.
    Text,
    /// Like `Text`.
    Comment,
    /// `a` = index into `Rare::pis`.
    Pi,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    parent: Option<NodeId>,
    prev_sibling: Option<NodeId>,
    next_sibling: Option<NodeId>,
    first_child: Option<NodeId>,
    last_child: Option<NodeId>,
    tag: Tag,
    a: u32,
    b: u32,
}

impl Slot {
    fn detached(tag: Tag, a: u32, b: u32) -> Slot {
        Slot {
            parent: None,
            prev_sibling: None,
            next_sibling: None,
            first_child: None,
            last_child: None,
            tag,
            a,
            b,
        }
    }
}

/// Everything a tree owns besides its slots. Boxed so that a [`Tree`] stays
/// four words.
#[derive(Debug, Clone, Default)]
struct Side {
    /// Content of every text and comment node, back to back.
    text: String,
    /// Bytes of `text` no slot refers to any more (left by `set_text`).
    text_slack: usize,
    /// Attribute lists and processing instructions, allocated on first use.
    rare: Option<Box<Rare>>,
}

#[derive(Debug, Clone, Default)]
struct Rare {
    attr_lists: Vec<Vec<Attr>>,
    pis: Vec<(Box<str>, Box<str>)>,
}

/// An ordered tree of XML nodes backed by an arena.
///
/// Every tree owns exactly one [`NodeKind::Document`] node, created by
/// [`Tree::new`], which is the permanent root. All other nodes are created
/// detached and linked in with the insertion methods.
#[derive(Debug, Clone)]
pub struct Tree {
    slots: Vec<Slot>,
    side: Box<Side>,
}

impl Default for Tree {
    fn default() -> Self {
        Tree::new()
    }
}

/// Narrow a buffer offset or table index to a payload word.
fn word(n: usize) -> u32 {
    // INVARIANT: like node indices, per-tree text offsets are u32; a tree
    // holding 4 GiB of character data is outside the arena's design range.
    u32::try_from(n).expect("tree payload exceeds u32 range")
}

impl Tree {
    /// A tree containing only the document root.
    pub fn new() -> Tree {
        Tree::with_capacity(1)
    }

    /// A tree with a capacity hint for the expected node count.
    pub fn with_capacity(nodes: usize) -> Tree {
        let mut slots = Vec::with_capacity(nodes.max(1));
        slots.push(Slot::detached(Tag::Document, 0, 0));
        Tree { slots, side: Box::default() }
    }

    /// Make room for `nodes` more nodes without reallocating.
    pub fn reserve(&mut self, nodes: usize) {
        self.slots.reserve_exact(nodes);
    }

    /// The document root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(NonZeroU32::MIN)
    }

    /// Number of arena slots in use (live **and** detached nodes).
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn data(&self, id: NodeId) -> &Slot {
        &self.slots[id.index()]
    }

    #[inline]
    fn data_mut(&mut self, id: NodeId) -> &mut Slot {
        &mut self.slots[id.index()]
    }

    #[inline]
    fn span(&self, start: u32, len: u32) -> &str {
        &self.side.text[start as usize..start as usize + len as usize]
    }

    fn rare(&self) -> &Rare {
        // INVARIANT: a slot only refers to an attribute list or a PI after
        // `rare_mut` created the table that holds it.
        self.side.rare.as_deref().expect("slot refers to a table that was never created")
    }

    fn rare_mut(&mut self) -> &mut Rare {
        self.side.rare.get_or_insert_with(Box::default)
    }

    #[inline]
    fn attrs_of(&self, slot: &Slot) -> &[Attr] {
        match slot.b {
            0 => &[],
            i => &self.rare().attr_lists[i as usize - 1],
        }
    }

    /// The attribute list of element `id`, created on first use.
    fn attrs_mut(&mut self, id: NodeId) -> &mut Vec<Attr> {
        assert_eq!(self.data(id).tag, Tag::Element, "attribute edit on a non-element node");
        if self.data(id).b == 0 {
            let lists = &mut self.rare_mut().attr_lists;
            lists.push(Vec::new());
            let i = word(lists.len());
            self.data_mut(id).b = i;
        }
        let i = self.data(id).b as usize - 1;
        &mut self.rare_mut().attr_lists[i]
    }

    // ------------------------------------------------------------------
    // Payload access
    // ------------------------------------------------------------------

    /// A view of the payload of `id`.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind<'_> {
        let slot = self.data(id);
        match slot.tag {
            Tag::Document => NodeKind::Document,
            Tag::Element => NodeKind::Element(Element {
                name: Symbol::from_id(slot.a),
                attrs: self.attrs_of(slot),
            }),
            Tag::Text => NodeKind::Text(self.span(slot.a, slot.b)),
            Tag::Comment => NodeKind::Comment(self.span(slot.a, slot.b)),
            Tag::Pi => {
                let (target, data) = &self.rare().pis[slot.a as usize];
                NodeKind::Pi { target, data }
            }
        }
    }

    /// Element label of `id`, if it is an element.
    #[inline]
    pub fn name(&self, id: NodeId) -> Option<&str> {
        let slot = self.data(id);
        (slot.tag == Tag::Element).then(|| Symbol::from_id(slot.a).as_str())
    }

    /// Text content of `id`, if it is a text node.
    #[inline]
    pub fn text(&self, id: NodeId) -> Option<&str> {
        let slot = self.data(id);
        (slot.tag == Tag::Text).then(|| self.span(slot.a, slot.b))
    }

    /// A view of the element payload of `id`, if it is an element.
    #[inline]
    pub fn element(&self, id: NodeId) -> Option<Element<'_>> {
        self.kind(id).as_element()
    }

    /// Attribute `name` of element `id`.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        self.element(id).and_then(|e| e.attr(name))
    }

    /// Replace the content of text node `id`. The old bytes stay in the
    /// tree's buffer (see [`Tree::is_sparse`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a text node.
    pub fn set_text(&mut self, id: NodeId, text: &str) {
        self.rewrite_text(id, false, text);
    }

    /// Append `more` to the content of text node `id` — how parsers merge
    /// adjacent runs of character data. In place when the node's content is
    /// the last thing in the buffer, which is the case while parsing.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a text node.
    pub fn append_text(&mut self, id: NodeId, more: &str) {
        self.rewrite_text(id, true, more);
    }

    /// Make the content of text node `id` its old content (if `keep`) plus
    /// `more`: in place when its span ends the buffer, else at the buffer's
    /// end, leaving the old span behind as slack.
    fn rewrite_text(&mut self, id: NodeId, keep: bool, more: &str) {
        let slot = &mut self.slots[id.index()];
        assert_eq!(slot.tag, Tag::Text, "text edit on a non-text node");
        let (start, len) = (slot.a as usize, slot.b as usize);
        let kept = if keep { len } else { 0 };
        let side = &mut *self.side;
        let mut at = start;
        if start + len == side.text.len() {
            side.text.truncate(start + kept);
        } else {
            at = side.text.len();
            let old = side.text[start..start + kept].to_owned();
            side.text.push_str(&old);
            side.text_slack += len;
        }
        side.text.push_str(more);
        slot.a = word(at);
        slot.b = word(kept + more.len());
    }

    /// Set (insert or overwrite) an attribute of element `id`. Returns the
    /// previous value.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an element.
    pub fn set_attr(
        &mut self,
        id: NodeId,
        name: impl Into<Symbol>,
        value: impl Into<String>,
    ) -> Option<String> {
        let (name, value) = (name.into(), value.into());
        let attrs = self.attrs_mut(id);
        match attrs.iter_mut().find(|a| a.name == name) {
            Some(a) => Some(std::mem::replace(&mut a.value, value)),
            None => {
                attrs.push(Attr { name, value });
                None
            }
        }
    }

    /// Insert an attribute at `pos` in the attribute list of element `id`
    /// (clamped to the list length). Attribute order is semantically
    /// irrelevant, but delta application uses this to keep reconstructed
    /// versions byte-identical to the originals. Callers ensure no attribute
    /// of that name exists.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an element.
    pub fn insert_attr_at(
        &mut self,
        id: NodeId,
        pos: usize,
        name: impl Into<Symbol>,
        value: impl Into<String>,
    ) {
        let attrs = self.attrs_mut(id);
        let pos = pos.min(attrs.len());
        attrs.insert(pos, Attr { name: name.into(), value: value.into() });
    }

    /// Remove an attribute of element `id`. Returns its value if it existed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an element.
    pub fn remove_attr(&mut self, id: NodeId, name: &str) -> Option<String> {
        let attrs = self.attrs_mut(id);
        let idx = attrs.iter().position(|a| a.name == name)?;
        Some(attrs.remove(idx).value)
    }

    // ------------------------------------------------------------------
    // Navigation
    // ------------------------------------------------------------------

    /// Parent of `id` (`None` for the root and for detached nodes).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).parent
    }

    /// First child of `id`.
    #[inline]
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).first_child
    }

    /// Last child of `id`.
    #[inline]
    pub fn last_child(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).last_child
    }

    /// Next sibling of `id`.
    #[inline]
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).next_sibling
    }

    /// Previous sibling of `id`.
    #[inline]
    pub fn prev_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).prev_sibling
    }

    /// Iterator over the children of `id`, in order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children::new(self, id)
    }

    /// Number of children of `id`. O(children).
    pub fn children_count(&self, id: NodeId) -> usize {
        self.children(id).count()
    }

    /// The `idx`-th child of `id` (0-based). O(idx).
    pub fn child_at(&self, id: NodeId, idx: usize) -> Option<NodeId> {
        self.children(id).nth(idx)
    }

    /// Position of `id` among its siblings (0-based). O(position).
    ///
    /// Returns 0 for a detached node or the root.
    pub fn child_index(&self, id: NodeId) -> usize {
        let mut i = 0;
        let mut cur = id;
        while let Some(prev) = self.prev_sibling(cur) {
            i += 1;
            cur = prev;
        }
        i
    }

    /// Pre-order iterator over `id` and all its descendants.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants::new(self, id)
    }

    /// Post-order iterator over `id` and all its descendants (children before
    /// parents — the order XIDs are assigned in, §4).
    pub fn post_order(&self, id: NodeId) -> PostOrder<'_> {
        PostOrder::new(self, id)
    }

    /// Iterator over the ancestors of `id`, starting at its parent.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors::new(self, id)
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.descendants(id).count()
    }

    /// Depth of `id`: 0 for the root, 1 for its children, etc.
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).count()
    }

    /// True if `id` is reachable from the root (not detached).
    pub fn is_attached(&self, id: NodeId) -> bool {
        if id == self.root() {
            return true;
        }
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            if p == self.root() {
                return true;
            }
            cur = p;
        }
        false
    }

    /// Concatenation of all text-node content below `id`, in document order.
    pub fn deep_text(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants(id) {
            if let Some(t) = self.text(n) {
                out.push_str(t);
            }
        }
        out
    }

    /// The root element of the document, if any (skipping comments and PIs at
    /// the top level).
    pub fn root_element(&self) -> Option<NodeId> {
        self.children(self.root()).find(|&c| self.kind(c).is_element())
    }

    /// First child element of `id` with label `name`.
    pub fn child_element(&self, id: NodeId, name: &str) -> Option<NodeId> {
        self.children(id).find(|&c| self.name(c) == Some(name))
    }

    /// All child elements of `id` with label `name`.
    pub fn child_elements<'a>(
        &'a self,
        id: NodeId,
        name: &'a str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.children(id).filter(move |&c| self.name(c) == Some(name))
    }

    // ------------------------------------------------------------------
    // Construction & mutation
    // ------------------------------------------------------------------

    fn push_slot(&mut self, tag: Tag, a: u32, b: u32) -> NodeId {
        let id = NodeId::from_index(self.slots.len());
        self.slots.push(Slot::detached(tag, a, b));
        id
    }

    fn push_span(&mut self, tag: Tag, content: &str) -> NodeId {
        let start = word(self.side.text.len());
        self.side.text.push_str(content);
        self.push_slot(tag, start, word(content.len()))
    }

    /// Allocate a detached node with a copy of the given payload.
    ///
    /// # Panics
    ///
    /// Panics on [`NodeKind::Document`].
    pub fn new_node(&mut self, kind: NodeKind<'_>) -> NodeId {
        match kind {
            // INVARIANT: documented precondition — the root is the only
            // document node a tree ever has.
            NodeKind::Document => panic!("a tree has exactly one document node"),
            NodeKind::Element(e) => self.new_element_with(e.name, e.attrs.to_vec()),
            NodeKind::Text(t) => self.push_span(Tag::Text, t),
            NodeKind::Comment(c) => self.push_span(Tag::Comment, c),
            NodeKind::Pi { target, data } => {
                let pis = &mut self.rare_mut().pis;
                pis.push((target.into(), data.into()));
                let i = word(pis.len() - 1);
                self.push_slot(Tag::Pi, i, 0)
            }
        }
    }

    /// Allocate a detached element node that takes ownership of `attrs`.
    pub(crate) fn new_element_with(&mut self, name: Symbol, attrs: Vec<Attr>) -> NodeId {
        let mut list = 0;
        if !attrs.is_empty() {
            let lists = &mut self.rare_mut().attr_lists;
            lists.push(attrs);
            list = word(lists.len());
        }
        self.push_slot(Tag::Element, name.id(), list)
    }

    /// Allocate a detached element node.
    pub fn new_element(&mut self, name: impl Into<Symbol>) -> NodeId {
        self.new_element_with(name.into(), Vec::new())
    }

    /// Allocate a detached text node.
    pub fn new_text(&mut self, text: impl AsRef<str>) -> NodeId {
        self.push_span(Tag::Text, text.as_ref())
    }

    fn assert_insertable(&self, parent: NodeId, child: NodeId) {
        assert_ne!(child, self.root(), "cannot attach the document root");
        assert!(
            self.data(child).parent.is_none(),
            "node is already attached; detach it first"
        );
        // Cycle guard: parent must not live inside child's subtree.
        let mut cur = Some(parent);
        while let Some(c) = cur {
            assert_ne!(c, child, "cannot attach a node under its own descendant");
            cur = self.parent(c);
        }
    }

    /// Attach `child` as the last child of `parent`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        self.assert_insertable(parent, child);
        self.link_last(parent, child);
    }

    /// [`Tree::append_child`] for a `child` this module just allocated: a
    /// fresh node is detached and has no descendants, so the attach checks
    /// (one ancestor walk per call) cannot fail.
    pub(crate) fn link_last(&mut self, parent: NodeId, child: NodeId) {
        let old_last = self.data(parent).last_child;
        self.data_mut(child).parent = Some(parent);
        self.data_mut(child).prev_sibling = old_last;
        self.data_mut(child).next_sibling = None;
        match old_last {
            Some(last) => self.data_mut(last).next_sibling = Some(child),
            None => self.data_mut(parent).first_child = Some(child),
        }
        self.data_mut(parent).last_child = Some(child);
    }

    /// Attach `child` as the first child of `parent`.
    pub fn prepend_child(&mut self, parent: NodeId, child: NodeId) {
        self.assert_insertable(parent, child);
        let old_first = self.data(parent).first_child;
        self.data_mut(child).parent = Some(parent);
        self.data_mut(child).prev_sibling = None;
        self.data_mut(child).next_sibling = old_first;
        match old_first {
            Some(first) => self.data_mut(first).prev_sibling = Some(child),
            None => self.data_mut(parent).last_child = Some(child),
        }
        self.data_mut(parent).first_child = Some(child);
    }

    /// Attach `new` immediately before `sibling` (which must be attached).
    pub fn insert_before(&mut self, sibling: NodeId, new: NodeId) {
        let parent = self
            .parent(sibling)
            // INVARIANT: documented precondition — `sibling` is attached.
            .expect("insert_before target must have a parent");
        self.assert_insertable(parent, new);
        let prev = self.data(sibling).prev_sibling;
        self.data_mut(new).parent = Some(parent);
        self.data_mut(new).prev_sibling = prev;
        self.data_mut(new).next_sibling = Some(sibling);
        self.data_mut(sibling).prev_sibling = Some(new);
        match prev {
            Some(p) => self.data_mut(p).next_sibling = Some(new),
            None => self.data_mut(parent).first_child = Some(new),
        }
    }

    /// Attach `new` immediately after `sibling` (which must be attached).
    pub fn insert_after(&mut self, sibling: NodeId, new: NodeId) {
        match self.next_sibling(sibling) {
            Some(next) => self.insert_before(next, new),
            None => {
                let parent = self
                    .parent(sibling)
                    // INVARIANT: documented precondition — `sibling` is attached.
                    .expect("insert_after target must have a parent");
                self.append_child(parent, new);
            }
        }
    }

    /// Attach `child` so that it becomes the `idx`-th child of `parent`
    /// (0-based). `idx` is clamped to the current child count.
    pub fn insert_child_at(&mut self, parent: NodeId, idx: usize, child: NodeId) {
        match self.child_at(parent, idx) {
            Some(at) => self.insert_before(at, child),
            None => self.append_child(parent, child),
        }
    }

    /// Unlink `id` from its parent. The subtree below `id` stays intact and
    /// addressable; `id` can be re-attached later. No-op if already detached.
    pub fn detach(&mut self, id: NodeId) {
        assert_ne!(id, self.root(), "cannot detach the document root");
        let (parent, prev, next) = {
            let d = self.data(id);
            (d.parent, d.prev_sibling, d.next_sibling)
        };
        let Some(parent) = parent else { return };
        match prev {
            Some(p) => self.data_mut(p).next_sibling = next,
            None => self.data_mut(parent).first_child = next,
        }
        match next {
            Some(n) => self.data_mut(n).prev_sibling = prev,
            None => self.data_mut(parent).last_child = prev,
        }
        let d = self.data_mut(id);
        d.parent = None;
        d.prev_sibling = None;
        d.next_sibling = None;
    }

    // ------------------------------------------------------------------
    // Cross-tree operations
    // ------------------------------------------------------------------

    /// Deep-copy the subtree rooted at `src_node` of `src` into this tree,
    /// returning the id of the copied root (detached).
    pub fn copy_subtree_from(&mut self, src: &Tree, src_node: NodeId) -> NodeId {
        self.copy_subtree_from_excluding(src, src_node, &[])
    }

    /// Like [`Tree::copy_subtree_from`], but skipping every subtree whose
    /// root appears in `excluded` (sorted ascending; binary-searched per
    /// child). This is how borrowed delta payloads materialize: the excluded
    /// ids are the moved-out descendants covered by move operations.
    pub fn copy_subtree_from_excluding(
        &mut self,
        src: &Tree,
        src_node: NodeId,
        excluded: &[NodeId],
    ) -> NodeId {
        debug_assert!(excluded.windows(2).all(|w| w[0] < w[1]), "excluded ids must be sorted");
        let new_root = self.new_node(src.kind_for_copy(src_node));
        // Document-order walk over sibling links, no per-node buffer: `at`
        // is the source node whose children are being copied under `copy`,
        // `next` the next of those children to look at.
        let (mut at, mut copy) = (src_node, new_root);
        let mut next = src.first_child(at);
        loop {
            match next {
                Some(c) if excluded.binary_search(&c).is_ok() => next = src.next_sibling(c),
                Some(c) => {
                    let child = self.new_node(src.kind_for_copy(c));
                    self.link_last(copy, child);
                    (at, copy) = (c, child);
                    next = src.first_child(c);
                }
                None if at == src_node => return new_root,
                None => {
                    next = src.next_sibling(at);
                    // INVARIANT: below `src_node` every node has a parent.
                    at = src.parent(at).expect("walk stays inside the copied subtree");
                    // INVARIANT: each copy was linked under its parent's copy.
                    copy = self.parent(copy).expect("copies mirror the source's parent links");
                }
            }
        }
    }

    fn kind_for_copy(&self, id: NodeId) -> NodeKind<'_> {
        // A document node can only be copied as the content below it; callers
        // never pass the root, but guard anyway by turning it into an element
        // placeholder — in practice `extract_subtree` handles the root case.
        match self.kind(id) {
            NodeKind::Document => NodeKind::Element(Element::new("#document")),
            k => k,
        }
    }

    /// Clone the subtree rooted at `id` into a fresh standalone tree whose
    /// document root has the copied node as its single child.
    pub fn extract_subtree(&self, id: NodeId) -> Tree {
        let mut t = Tree::with_capacity(self.subtree_size(id) + 1);
        let copied = t.copy_subtree_from(self, id);
        let root = t.root();
        t.link_last(root, copied);
        t
    }

    /// Whether this tree carries more garbage than content, given that
    /// `live_nodes` of its slots are still in use: dead slots (detached for
    /// good, which only the caller can know) outnumber live ones, or replaced
    /// text outweighs the text still referenced. O(1); the cue to swap the
    /// tree for its [`Tree::compacted`] copy.
    pub fn is_sparse(&self, live_nodes: usize) -> bool {
        self.slots.len() > 2 * live_nodes || 2 * self.side.text_slack > self.side.text.len()
    }

    /// A dense copy of everything reachable from the root, in exactly-sized
    /// buffers. The copy has the same shape, so walking both trees in
    /// document order pairs every surviving node with its new id.
    pub fn compacted(&self) -> Tree {
        let mut t = Tree::with_capacity(self.subtree_size(self.root()));
        t.side.text.reserve(self.side.text.len() - self.side.text_slack);
        let root = t.root();
        for c in self.children(self.root()) {
            let copied = t.copy_subtree_from(self, c);
            t.link_last(root, copied);
        }
        t.shrink_to_fit();
        t
    }

    /// Give back unused capacity; for trees that are built once and kept.
    pub fn shrink_to_fit(&mut self) {
        self.slots.shrink_to_fit();
        self.side.text.shrink_to_fit();
        if let Some(rare) = &mut self.side.rare {
            rare.attr_lists.shrink_to_fit();
            rare.pis.shrink_to_fit();
        }
    }

    /// Structural equality of two subtrees (labels, attributes as sets, text,
    /// children order). Document nodes compare equal to each other.
    ///
    /// Implemented as a lockstep pre-order walk over the first-child,
    /// next-sibling and parent links of both trees — no stack, no
    /// allocation: the diff's phase-3 candidate verification calls this on
    /// every accept, and it must not overflow on pathologically deep
    /// documents either. The two walks stay at the same depth, so when one
    /// climbs back to `a` the other is back at `b`.
    pub fn subtree_eq(&self, a: NodeId, other: &Tree, b: NodeId) -> bool {
        let (mut x, mut y) = (a, b);
        loop {
            if !node_payload_eq(self.kind(x), other.kind(y)) {
                return false;
            }
            match (self.first_child(x), other.first_child(y)) {
                (Some(cx), Some(cy)) => {
                    (x, y) = (cx, cy);
                    continue;
                }
                (None, None) => {}
                _ => return false,
            }
            // A leaf pair: climb to the nearest pair of next siblings.
            loop {
                if x == a {
                    return true;
                }
                match (self.next_sibling(x), other.next_sibling(y)) {
                    (Some(sx), Some(sy)) => {
                        (x, y) = (sx, sy);
                        break;
                    }
                    (None, None) => {
                        // INVARIANT: below `a` (and `b`) every node has a
                        // parent, and the walk never climbs above them.
                        x = self.parent(x).expect("walk stays inside the compared subtree");
                        // INVARIANT: as above, in the other tree.
                        y = other.parent(y).expect("walk stays inside the compared subtree");
                    }
                    _ => return false,
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Invariant checking (used by property tests)
    // ------------------------------------------------------------------

    /// Check the intrusive-list invariants of the whole arena. Returns a
    /// description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        for (i, d) in self.slots.iter().enumerate() {
            let id = NodeId::from_index(i);
            if let Some(fc) = d.first_child {
                if self.data(fc).parent != Some(id) {
                    return Err(format!("first_child of {i} has wrong parent"));
                }
                if self.data(fc).prev_sibling.is_some() {
                    return Err(format!("first_child of {i} has a prev_sibling"));
                }
            }
            if let Some(lc) = d.last_child {
                if self.data(lc).parent != Some(id) {
                    return Err(format!("last_child of {i} has wrong parent"));
                }
                if self.data(lc).next_sibling.is_some() {
                    return Err(format!("last_child of {i} has a next_sibling"));
                }
            }
            if d.first_child.is_some() != d.last_child.is_some() {
                return Err(format!("node {i}: first/last child disagree"));
            }
            // Walk the child list and check back-links.
            let mut prev: Option<NodeId> = None;
            let mut cur = d.first_child;
            let mut steps = 0usize;
            while let Some(c) = cur {
                if self.data(c).parent != Some(id) {
                    return Err(format!("child {} of {} has wrong parent", c.index(), i));
                }
                if self.data(c).prev_sibling != prev {
                    return Err(format!("child {} of {} has wrong prev link", c.index(), i));
                }
                prev = Some(c);
                cur = self.data(c).next_sibling;
                steps += 1;
                if steps > self.slots.len() {
                    return Err(format!("cycle in child list of node {i}"));
                }
            }
            if prev != d.last_child {
                return Err(format!("node {i}: last_child does not terminate the list"));
            }
        }
        Ok(())
    }
}

/// Compare node payloads the way the diff does: element attributes are a set,
/// everything else is literal.
fn node_payload_eq(a: NodeKind<'_>, b: NodeKind<'_>) -> bool {
    match (a, b) {
        (NodeKind::Document, NodeKind::Document) => true,
        (NodeKind::Element(x), NodeKind::Element(y)) => {
            x.name == y.name
                && x.attrs.len() == y.attrs.len()
                && x.attrs.iter().all(|ax| y.attr_sym(ax.name) == Some(ax.value.as_str()))
        }
        (NodeKind::Text(x), NodeKind::Text(y)) => x == y,
        (NodeKind::Comment(x), NodeKind::Comment(y)) => x == y,
        (
            NodeKind::Pi { target: t1, data: d1 },
            NodeKind::Pi { target: t2, data: d2 },
        ) => t1 == t2 && d1 == d2,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Tree, NodeId, NodeId, NodeId, NodeId) {
        // <a><b/>text<c/></a>
        let mut t = Tree::new();
        let a = t.new_element("a");
        let root = t.root();
        t.append_child(root, a);
        let b = t.new_element("b");
        t.append_child(a, b);
        let txt = t.new_text("text");
        t.append_child(a, txt);
        let c = t.new_element("c");
        t.append_child(a, c);
        (t, a, b, txt, c)
    }

    #[test]
    fn navigation_links() {
        let (t, a, b, txt, c) = small();
        assert_eq!(t.first_child(a), Some(b));
        assert_eq!(t.last_child(a), Some(c));
        assert_eq!(t.next_sibling(b), Some(txt));
        assert_eq!(t.prev_sibling(c), Some(txt));
        assert_eq!(t.parent(txt), Some(a));
        assert_eq!(t.children(a).collect::<Vec<_>>(), vec![b, txt, c]);
        assert_eq!(t.children_count(a), 3);
        assert_eq!(t.child_at(a, 1), Some(txt));
        assert_eq!(t.child_at(a, 3), None);
        assert_eq!(t.child_index(c), 2);
        assert_eq!(t.child_index(b), 0);
        t.validate().unwrap();
    }

    #[test]
    fn detach_middle_and_reattach() {
        let (mut t, a, b, txt, c) = small();
        t.detach(txt);
        assert_eq!(t.children(a).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(t.parent(txt), None);
        assert!(!t.is_attached(txt));
        t.validate().unwrap();
        t.insert_child_at(a, 0, txt);
        assert_eq!(t.children(a).collect::<Vec<_>>(), vec![txt, b, c]);
        t.validate().unwrap();
    }

    #[test]
    fn detach_first_and_last() {
        let (mut t, a, b, txt, c) = small();
        t.detach(b);
        assert_eq!(t.first_child(a), Some(txt));
        t.detach(c);
        assert_eq!(t.last_child(a), Some(txt));
        assert_eq!(t.children(a).collect::<Vec<_>>(), vec![txt]);
        t.validate().unwrap();
    }

    #[test]
    fn detach_is_idempotent() {
        let (mut t, a, _b, txt, _c) = small();
        t.detach(txt);
        t.detach(txt);
        assert_eq!(t.children_count(a), 2);
        t.validate().unwrap();
    }

    #[test]
    fn insert_before_and_after() {
        let (mut t, a, b, txt, _c) = small();
        let x = t.new_element("x");
        t.insert_before(b, x);
        assert_eq!(t.child_at(a, 0), Some(x));
        let y = t.new_element("y");
        t.insert_after(txt, y);
        assert_eq!(t.child_index(y), 3);
        t.validate().unwrap();
    }

    #[test]
    fn insert_child_at_clamps() {
        let (mut t, a, ..) = small();
        let x = t.new_element("x");
        t.insert_child_at(a, 99, x);
        assert_eq!(t.last_child(a), Some(x));
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_attach_panics() {
        let (mut t, a, b, ..) = small();
        t.append_child(a, b);
    }

    #[test]
    #[should_panic(expected = "descendant")]
    fn cycle_panics() {
        let (mut t, a, b, ..) = small();
        t.detach(a); // a now detached, b still its child
        t.append_child(b, a);
    }

    #[test]
    fn subtree_size_and_depth() {
        let (t, a, b, ..) = small();
        assert_eq!(t.subtree_size(a), 4);
        assert_eq!(t.subtree_size(t.root()), 5);
        assert_eq!(t.depth(t.root()), 0);
        assert_eq!(t.depth(a), 1);
        assert_eq!(t.depth(b), 2);
    }

    #[test]
    fn deep_text_concatenates() {
        let (mut t, _a, b, ..) = small();
        let inner = t.new_text("deep");
        t.append_child(b, inner);
        assert_eq!(t.deep_text(t.root()), "deeptext");
    }

    #[test]
    fn extract_and_graft() {
        let (t, a, ..) = small();
        let sub = t.extract_subtree(a);
        let sub_root_elem = sub.root_element().unwrap();
        assert_eq!(sub.name(sub_root_elem), Some("a"));
        assert_eq!(sub.subtree_size(sub.root()), 5);
        assert!(t.subtree_eq(a, &sub, sub_root_elem));
    }

    #[test]
    fn copy_subtree_preserves_order() {
        let (t, a, ..) = small();
        let mut dst = Tree::new();
        let copied = dst.copy_subtree_from(&t, a);
        let root = dst.root();
        dst.append_child(root, copied);
        let names: Vec<_> = dst
            .descendants(copied)
            .map(|n| dst.kind(n).to_string())
            .collect();
        assert_eq!(names, ["<a>", "<b>", "\"text\"", "<c>"]);
        dst.validate().unwrap();
    }

    #[test]
    fn subtree_eq_detects_attr_set_equality() {
        let mut t1 = Tree::new();
        let e1 = t1.new_element("e");
        t1.set_attr(e1, "a", "1");
        t1.set_attr(e1, "b", "2");
        let r1 = t1.root();
        t1.append_child(r1, e1);

        let mut t2 = Tree::new();
        let e2 = t2.new_element("e");
        t2.set_attr(e2, "b", "2");
        t2.set_attr(e2, "a", "1");
        let r2 = t2.root();
        t2.append_child(r2, e2);

        assert!(t1.subtree_eq(e1, &t2, e2), "attribute order must not matter");
        t2.set_attr(e2, "a", "9");
        assert!(!t1.subtree_eq(e1, &t2, e2));
    }

    #[test]
    fn subtree_eq_child_count_mismatch() {
        let (t1, a1, ..) = small();
        let (mut t2, a2, _b2, txt2, _c2) = small();
        t2.detach(txt2);
        assert!(!t1.subtree_eq(a1, &t2, a2));
    }

    #[test]
    fn root_element_skips_comments() {
        let mut t = Tree::new();
        let c = t.new_node(NodeKind::Comment("hi"));
        let root = t.root();
        t.append_child(root, c);
        let e = t.new_element("e");
        t.append_child(root, e);
        assert_eq!(t.root_element(), Some(e));
    }

    #[test]
    fn child_element_lookup() {
        let (mut t, a, ..) = small();
        assert!(t.child_element(a, "b").is_some());
        assert!(t.child_element(a, "zz").is_none());
        let b2 = t.new_element("b");
        t.append_child(a, b2);
        assert_eq!(t.child_elements(a, "b").count(), 2);
    }

    #[test]
    fn copy_subtree_excluding_skips_listed_roots() {
        let (t, a, b, txt, _c) = small();
        let mut excluded = vec![b, txt];
        excluded.sort_unstable();
        let mut dst = Tree::new();
        let copied = dst.copy_subtree_from_excluding(&t, a, &excluded);
        let names: Vec<_> = dst.children(copied).filter_map(|c| dst.name(c)).collect();
        assert_eq!(names, ["c"]);
        // An empty exclusion list degenerates to copy_subtree_from.
        let mut dst2 = Tree::new();
        let full = dst2.copy_subtree_from_excluding(&t, a, &[]);
        assert!(dst2.subtree_eq(full, &t, a));
    }

    #[test]
    fn slot_layout_is_pinned() {
        // The cost rule in the module docs: what a resident node costs.
        assert_eq!(std::mem::size_of::<Option<NodeId>>(), 4);
        assert!(std::mem::size_of::<Slot>() <= 32, "{}", std::mem::size_of::<Slot>());
        assert!(std::mem::size_of::<Tree>() <= 32, "{}", std::mem::size_of::<Tree>());
    }

    #[test]
    fn text_edits_track_slack() {
        let (mut t, _a, _b, txt, _c) = small();
        // The only span, at the buffer's tail: rewritten in place.
        t.set_text(txt, "longer text");
        assert_eq!(t.text(txt), Some("longer text"));
        t.append_text(txt, "!");
        assert_eq!(t.text(txt), Some("longer text!"));
        assert!(!t.is_sparse(5));
        // A second span behind it: the first can now only move.
        let other = t.new_text("tail");
        t.set_text(txt, "moved once, leaving twelve bytes behind");
        t.append_text(other, " grows in place");
        assert_eq!(t.text(txt), Some("moved once, leaving twelve bytes behind"));
        assert_eq!(t.text(other), Some("tail grows in place"));
        for _ in 0..8 {
            t.append_text(txt, ".");
            t.append_text(other, ".");
        }
        assert!(t.is_sparse(6), "relocated text must count as garbage");
        let dense = t.compacted();
        assert!(!dense.is_sparse(5));
        assert!(dense.subtree_eq(dense.root(), &t, t.root()));
    }

    #[test]
    fn compacted_drops_detached_subtrees_and_keeps_document_order() {
        let (mut t, a, b, txt, c) = small();
        t.set_attr(c, "k", "v");
        let pi = t.new_node(NodeKind::Pi { target: "go", data: "fast" });
        t.insert_before(b, pi);
        t.detach(b);
        assert!(!t.is_sparse(5) && t.is_sparse(2));
        let dense = t.compacted();
        assert_eq!(dense.arena_len(), 5, "root, a, pi, text, c");
        dense.validate().unwrap();
        assert!(dense.subtree_eq(dense.root(), &t, t.root()));
        let pairs: Vec<_> = t.descendants(t.root()).zip(dense.descendants(dense.root())).collect();
        assert_eq!(pairs.len(), 5);
        assert_eq!(pairs[0].0, t.root());
        assert_eq!(pairs[1].0, a);
        assert_eq!(pairs[3].0, txt);
        assert_eq!(dense.attr(pairs[4].1, "k"), Some("v"));
    }

    #[test]
    fn attribute_setters_roundtrip() {
        let mut t = Tree::new();
        let e = t.new_element("product");
        assert_eq!(t.attr(e, "id"), None);
        assert_eq!(t.remove_attr(e, "id"), None);
        assert_eq!(t.set_attr(e, "id", "p1"), None);
        assert_eq!(t.set_attr(e, "id", "p2"), Some("p1".to_string()));
        t.set_attr(e, "z", "last");
        t.insert_attr_at(e, 1, "mid", "m");
        t.insert_attr_at(e, 99, "end", "clamped");
        let names: Vec<_> = t.element(e).unwrap().attrs.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["id", "mid", "z", "end"]);
        assert_eq!(t.remove_attr(e, "mid"), Some("m".to_string()));
        assert!(!t.element(e).unwrap().has_attr("mid"));
    }

    #[test]
    fn subtree_eq_survives_deep_trees() {
        let build = |depth: usize, leaf: &str| {
            let mut t = Tree::new();
            let mut cur = t.root();
            for _ in 0..depth {
                let e = t.new_element("d");
                t.append_child(cur, e);
                cur = e;
            }
            let l = t.new_text(leaf);
            t.append_child(cur, l);
            t
        };
        let a = build(50_000, "same");
        let b = build(50_000, "same");
        assert!(a.subtree_eq(a.root(), &b, b.root()));
        let c = build(50_000, "diff");
        assert!(!a.subtree_eq(a.root(), &c, c.root()));
    }
}
