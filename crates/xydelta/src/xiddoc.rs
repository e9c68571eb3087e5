//! A document together with its persistent-identifier assignment.

use crate::xid::{Xid, XidMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use xytree::hash::{fast_map_with_capacity, FastHashMap};
use xytree::{Document, NodeId};

/// The processing-instruction target used to embed XID maps in serialized
/// documents.
pub const XIDMAP_PI_TARGET: &str = "xydiff-xidmap";

/// Error from [`XidDocument::parse_annotated`].
#[derive(Debug)]
pub enum AnnotatedParseError {
    /// The XML itself does not parse.
    Xml(xytree::ParseError),
    /// The annotation is present but inconsistent with the document.
    Map(String),
}

impl std::fmt::Display for AnnotatedParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnnotatedParseError::Xml(e) => write!(f, "{e}"),
            AnnotatedParseError::Map(m) => write!(f, "bad xidmap annotation: {m}"),
        }
    }
}

impl std::error::Error for AnnotatedParseError {}

fn parse_for_annotation(xml: &str) -> Result<Document, AnnotatedParseError> {
    Document::parse(xml).map_err(AnnotatedParseError::Xml)
}

/// Source of [`XidDocument::stamp`] values. Relaxed: a stamp is an identity,
/// it publishes no other data.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A [`Document`] whose nodes carry persistent identifiers (XIDs).
///
/// The initial version of a document gets XIDs `1..=n` in postfix order
/// (§4). Later versions are produced by the diff (matched nodes inherit the
/// old version's XIDs, new nodes get fresh ones) or by applying a delta.
///
/// Attributes do **not** get XIDs — per §5.2 "we do not provide persistent
/// identifiers to attributes"; an attribute is addressed by its element's XID
/// plus its label.
#[derive(Debug)]
pub struct XidDocument {
    /// The underlying document.
    pub doc: Document,
    /// XID value of each arena slot, 8 bytes per slot: 0 — never a valid
    /// XID — marks unassigned and detached slots.
    xid_of: Vec<u64>,
    /// Number of assigned slots. Every attached node carries an XID and a
    /// deleted subtree gives its XIDs up, so this is the live node count.
    assigned: usize,
    /// Reverse index, built lazily on the first [`XidDocument::node`] query.
    /// The diff hot path builds one `XidDocument` per version and only walks
    /// the forward array, so constructing the per-version hash map eagerly
    /// would be pure overhead there. Once built (or once a mutator needs the
    /// displacement lookup), it is kept incrementally in sync.
    by_xid: OnceLock<FastHashMap<Xid, NodeId>>,
    /// Next fresh XID value.
    next: u64,
    /// See [`XidDocument::stamp`].
    stamp: u64,
}

/// A clone is a new document state of its own: it gets a fresh
/// [`XidDocument::stamp`], so side tables built for the original are never
/// mistaken for the copy's once the two diverge.
impl Clone for XidDocument {
    fn clone(&self) -> XidDocument {
        XidDocument {
            doc: self.doc.clone(),
            xid_of: self.xid_of.clone(),
            assigned: self.assigned,
            by_xid: self.by_xid.clone(),
            next: self.next,
            stamp: fresh_stamp(),
        }
    }
}

impl XidDocument {
    /// Assign initial XIDs (postfix positions, starting at 1) to every node
    /// of `doc`, including the document node itself (which therefore always
    /// has the largest XID).
    pub fn assign_initial(doc: Document) -> XidDocument {
        let mut xid_of = vec![0; doc.tree.arena_len()];
        let mut next = 1u64;
        for node in doc.tree.post_order(doc.tree.root()) {
            xid_of[node.index()] = next;
            next += 1;
        }
        let assigned = (next - 1) as usize;
        XidDocument { doc, xid_of, assigned, by_xid: OnceLock::new(), next, stamp: fresh_stamp() }
    }

    /// Wrap a document with an explicit XID assignment (used by the diff when
    /// propagating identifiers to a new version). `next` must be larger than
    /// every assigned XID.
    pub fn with_assignment(
        doc: Document,
        assignment: impl IntoIterator<Item = (NodeId, Xid)>,
        next: u64,
    ) -> XidDocument {
        let mut xid_of = vec![0; doc.tree.arena_len()];
        for (node, xid) in assignment {
            debug_assert!(xid.0 < next, "assigned XID {xid} not below next={next}");
            if node.index() >= xid_of.len() {
                xid_of.resize(node.index() + 1, 0);
            }
            xid_of[node.index()] = xid.0;
        }
        let assigned = xid_of.iter().filter(|&&x| x != 0).count();
        XidDocument { doc, xid_of, assigned, by_xid: OnceLock::new(), next, stamp: fresh_stamp() }
    }

    /// Parse XML and assign initial XIDs.
    pub fn parse_initial(xml: &str) -> Result<XidDocument, xytree::ParseError> {
        Ok(Self::assign_initial(Document::parse(xml)?))
    }

    /// Identity of this document *state*: unique per process, given afresh
    /// by every constructor, clone, delta application and dense rebuild. A
    /// table keyed by this document's node ids (the diff's signature cache)
    /// records the stamp it was computed under and is valid exactly while the
    /// stamps agree. Editing `doc.tree` directly does not change the stamp;
    /// whoever does that owns the tables that describe the tree.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Mark the start of an in-place content change (delta application).
    pub(crate) fn restamp(&mut self) {
        self.stamp = fresh_stamp();
    }

    /// The XID of `node`, if assigned.
    #[inline]
    pub fn xid(&self, node: NodeId) -> Option<Xid> {
        match self.xid_of.get(node.index()) {
            Some(&x) if x != 0 => Some(Xid(x)),
            _ => None,
        }
    }

    /// The node currently carrying `xid`, if any.
    #[inline]
    pub fn node(&self, xid: Xid) -> Option<NodeId> {
        self.reverse().get(&xid).copied()
    }

    /// The reverse index, materialized from the forward array on first use.
    fn reverse(&self) -> &FastHashMap<Xid, NodeId> {
        self.by_xid.get_or_init(|| {
            let mut m = fast_map_with_capacity(self.assigned);
            m.extend(self.iter().map(|(n, x)| (x, n)));
            m
        })
    }

    /// The next fresh XID value (not yet assigned).
    pub fn next_xid_value(&self) -> u64 {
        self.next
    }

    /// Allocate a fresh XID (monotonically increasing).
    pub fn fresh_xid(&mut self) -> Xid {
        let x = Xid(self.next);
        self.next += 1;
        x
    }

    /// Assign `xid` to `node`, replacing any previous assignment of either.
    pub fn set_xid(&mut self, node: NodeId, xid: Xid) {
        assert_ne!(xid.0, 0, "XID 0 is reserved");
        // The displacement lookup ("who holds `xid` now?") needs the reverse
        // index; materialize it so the update below keeps it in sync.
        self.reverse();
        // INVARIANT: reverse() on the line above materializes the index.
        let by_xid = self.by_xid.get_mut().expect("reverse index materialized");
        if node.index() >= self.xid_of.len() {
            self.xid_of.resize(node.index() + 1, 0);
        }
        match std::mem::replace(&mut self.xid_of[node.index()], xid.0) {
            0 => self.assigned += 1,
            old => {
                by_xid.remove(&Xid(old));
            }
        }
        if let Some(displaced) = by_xid.insert(xid, node) {
            self.xid_of[displaced.index()] = 0;
            self.assigned -= 1;
        }
        self.next = self.next.max(xid.0 + 1);
    }

    /// Remove the XID of `node` (e.g. after its subtree is deleted).
    pub fn clear_xid(&mut self, node: NodeId) {
        if let Some(x) = self.xid(node) {
            if let Some(by_xid) = self.by_xid.get_mut() {
                by_xid.remove(&x);
            }
            self.xid_of[node.index()] = 0;
            self.assigned -= 1;
        }
    }

    /// Rebuild the arena densely, remapping the XID table, when the tree
    /// reports more garbage than content ([`xytree::Tree::is_sparse`]): a
    /// version kept across many applied deltas would otherwise carry every
    /// subtree ever deleted from it and every text it ever held. O(1) when
    /// there is nothing to shed. Node ids change; XIDs do not.
    pub(crate) fn shed_garbage(&mut self) {
        let old = &self.doc.tree;
        if !old.is_sparse(self.assigned) {
            return;
        }
        let dense = old.compacted();
        let mut xid_of = vec![0; dense.arena_len()];
        for (o, n) in old.descendants(old.root()).zip(dense.descendants(dense.root())) {
            xid_of[n.index()] = self.xid_of[o.index()];
        }
        self.assigned = xid_of.iter().filter(|&&x| x != 0).count();
        self.xid_of = xid_of;
        self.doc.tree = dense;
        self.by_xid = OnceLock::new();
        self.stamp = fresh_stamp();
    }

    /// Assign fresh XIDs to every node of the subtree rooted at `node` that
    /// does not have one yet, in postfix order.
    pub fn assign_fresh_subtree(&mut self, node: NodeId) {
        let nodes: Vec<NodeId> = self.doc.tree.post_order(node).collect();
        for n in nodes {
            if self.xid(n).is_none() {
                let x = self.fresh_xid();
                self.set_xid(n, x);
            }
        }
    }

    /// The [`XidMap`] (postfix-ordered XIDs) of the subtree rooted at `node`.
    ///
    /// Panics in debug builds if any node of the subtree lacks an XID.
    pub fn xid_map_of(&self, node: NodeId) -> XidMap {
        let xids: Vec<Xid> = self
            .doc
            .tree
            .post_order(node)
            .map(|n| {
                self.xid(n)
                    // INVARIANT: XID assignment is total over the document
                    // tree; a subtree of it cannot contain a gap.
                    .expect("every node in an XID-mapped subtree must carry an XID")
            })
            .collect();
        XidMap::new(xids)
    }

    /// Iterate `(node, xid)` for all assigned nodes, in arena-slot order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Xid)> + '_ {
        self.xid_of
            .iter()
            .enumerate()
            .filter(|(_, &x)| x != 0)
            .map(|(i, &x)| (NodeId::from_index(i), Xid(x)))
    }

    /// Serialize with the persistent identifiers embedded: a processing
    /// instruction `<?xydiff-xidmap (…)?>` precedes the root element,
    /// carrying the postfix-ordered XID map of the whole document (§4
    /// discusses "the definition and storage of our persistent
    /// identifiers"). [`XidDocument::parse_annotated`] restores the exact
    /// assignment, so annotated files can flow through external storage
    /// without losing node identity.
    pub fn to_annotated_xml(&self) -> String {
        let map = self.xid_map_of(self.doc.tree.root());
        format!(
            "<?{} {}?>{}",
            XIDMAP_PI_TARGET,
            map.to_compact_string(),
            self.doc.to_xml()
        )
    }

    /// Parse a document written by [`XidDocument::to_annotated_xml`]. When
    /// the annotation is absent, returns `Ok(None)` so callers can fall back
    /// to [`XidDocument::assign_initial`].
    pub fn parse_annotated(xml: &str) -> Result<Option<XidDocument>, AnnotatedParseError> {
        let mut doc = crate::xiddoc::parse_for_annotation(xml)?;
        // The annotation is a top-level PI (a child of the document node).
        let root = doc.tree.root();
        let pi = doc.tree.children(root).find_map(|c| match doc.tree.kind(c) {
            xytree::NodeKind::Pi { target, data } if target == XIDMAP_PI_TARGET => Some((c, data)),
            _ => None,
        });
        let Some((pi_node, data)) = pi else { return Ok(None) };
        let map: XidMap = data
            .trim()
            .parse()
            .map_err(|e| AnnotatedParseError::Map(format!("{e}")))?;
        doc.tree.detach(pi_node);
        let nodes: Vec<NodeId> = doc.tree.post_order(doc.tree.root()).collect();
        if nodes.len() != map.len() {
            return Err(AnnotatedParseError::Map(format!(
                "xidmap covers {} nodes but the document has {}",
                map.len(),
                nodes.len()
            )));
        }
        let next = map.xids().iter().map(|x| x.0).max().unwrap_or(0) + 1;
        Ok(Some(XidDocument::with_assignment(
            doc,
            nodes.into_iter().zip(map.xids().iter().copied()),
            next,
        )))
    }

    /// Check that the forward and reverse indexes agree and that every
    /// attached node has an XID. For tests.
    pub fn validate(&self) -> Result<(), String> {
        for (node, x) in self.iter() {
            if self.node(x) != Some(node) {
                return Err(format!("xid {x} reverse index mismatch at slot {}", node.index()));
            }
            if x.0 >= self.next {
                return Err(format!("xid {x} >= next {}", self.next));
            }
        }
        if self.iter().count() != self.assigned {
            return Err(format!("assigned count {} out of step", self.assigned));
        }
        for (&x, &n) in self.reverse() {
            if self.xid(n) != Some(x) {
                return Err(format!("forward index mismatch for xid {x}"));
            }
        }
        for n in self.doc.tree.descendants(self.doc.tree.root()) {
            if self.xid(n).is_none() {
                return Err(format!("attached node {n:?} has no XID"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_assignment_is_postfix() {
        // <a><b/><c>t</c></a>: postfix order is b, t, c, a, #document.
        let xd = XidDocument::parse_initial("<a><b/><c>t</c></a>").unwrap();
        let a = xd.doc.root_element().unwrap();
        let b = xd.doc.tree.child_at(a, 0).unwrap();
        let c = xd.doc.tree.child_at(a, 1).unwrap();
        let t = xd.doc.tree.first_child(c).unwrap();
        assert_eq!(xd.xid(b), Some(Xid(1)));
        assert_eq!(xd.xid(t), Some(Xid(2)));
        assert_eq!(xd.xid(c), Some(Xid(3)));
        assert_eq!(xd.xid(a), Some(Xid(4)));
        assert_eq!(xd.xid(xd.doc.tree.root()), Some(Xid(5)));
        assert_eq!(xd.next_xid_value(), 6);
        xd.validate().unwrap();
    }

    #[test]
    fn reverse_lookup() {
        let xd = XidDocument::parse_initial("<a><b/></a>").unwrap();
        let a = xd.doc.root_element().unwrap();
        assert_eq!(xd.node(Xid(2)), Some(a));
        assert_eq!(xd.node(Xid(99)), None);
    }

    #[test]
    fn fresh_xids_are_monotone() {
        let mut xd = XidDocument::parse_initial("<a/>").unwrap();
        let x1 = xd.fresh_xid();
        let x2 = xd.fresh_xid();
        assert!(x2 > x1);
        assert!(x1.0 >= 3); // a + document = 2 initial xids
    }

    #[test]
    fn set_xid_replaces_both_directions() {
        let mut xd = XidDocument::parse_initial("<a><b/></a>").unwrap();
        let a = xd.doc.root_element().unwrap();
        let b = xd.doc.tree.first_child(a).unwrap();
        // Take a's XID for b.
        let xa = xd.xid(a).unwrap();
        xd.set_xid(b, xa);
        assert_eq!(xd.node(xa), Some(b));
        assert_eq!(xd.xid(a), None);
        xd.clear_xid(b);
        assert_eq!(xd.node(xa), None);
    }

    #[test]
    fn xid_map_of_subtree() {
        let xd = XidDocument::parse_initial("<a><b><c/><d/></b></a>").unwrap();
        let a = xd.doc.root_element().unwrap();
        let b = xd.doc.tree.first_child(a).unwrap();
        // postfix: c=1, d=2, b=3, a=4, doc=5; subtree at b -> (1-3)
        assert_eq!(xd.xid_map_of(b).to_compact_string(), "(1-3)");
    }

    #[test]
    fn assign_fresh_subtree_fills_gaps() {
        let mut xd = XidDocument::parse_initial("<a/>").unwrap();
        let a = xd.doc.root_element().unwrap();
        let b = xd.doc.tree.new_element("b");
        let c = xd.doc.tree.new_text("t");
        xd.doc.tree.append_child(b, c);
        xd.doc.tree.append_child(a, b);
        xd.assign_fresh_subtree(b);
        assert!(xd.xid(b).is_some());
        assert!(xd.xid(c).is_some());
        // Postfix: text before element.
        assert!(xd.xid(c).unwrap() < xd.xid(b).unwrap());
        xd.validate().unwrap();
    }

    #[test]
    fn annotated_roundtrip_preserves_assignment() {
        let mut xd = XidDocument::parse_initial("<a><b>t</b><c/></a>").unwrap();
        // Perturb the assignment so it is NOT the initial postfix numbering.
        let c = xd.doc.tree.child_at(xd.doc.root_element().unwrap(), 1).unwrap();
        xd.set_xid(c, Xid(77));
        let xml = xd.to_annotated_xml();
        assert!(xml.starts_with("<?xydiff-xidmap ("), "{xml}");
        let back = XidDocument::parse_annotated(&xml).unwrap().expect("annotated");
        back.validate().unwrap();
        assert_eq!(back.doc.to_xml(), xd.doc.to_xml(), "the PI must not remain in the tree");
        let c2 = back.doc.tree.child_at(back.doc.root_element().unwrap(), 1).unwrap();
        assert_eq!(back.xid(c2), Some(Xid(77)));
        assert_eq!(back.next_xid_value(), 78);
    }

    #[test]
    fn unannotated_input_returns_none() {
        assert!(XidDocument::parse_annotated("<a/>").unwrap().is_none());
    }

    #[test]
    fn corrupt_annotation_is_rejected() {
        // Map length disagrees with the node count.
        let r = XidDocument::parse_annotated("<?xydiff-xidmap (1-9)?><a/>");
        assert!(matches!(r, Err(AnnotatedParseError::Map(_))));
        let r = XidDocument::parse_annotated("<?xydiff-xidmap garbage?><a/>");
        assert!(matches!(r, Err(AnnotatedParseError::Map(_))));
    }

    #[test]
    fn validate_catches_missing_xid_on_attached_node() {
        let mut xd = XidDocument::parse_initial("<a/>").unwrap();
        let a = xd.doc.root_element().unwrap();
        let b = xd.doc.tree.new_element("b");
        xd.doc.tree.append_child(a, b);
        assert!(xd.validate().is_err());
    }
}
