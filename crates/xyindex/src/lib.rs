//! Full-text indexing with structural postings, maintained from deltas.
//!
//! §2 of the paper: "In Xyleme, we maintain a full-text index over a large
//! volume of XML documents. To support queries using the structure of data,
//! we store structural information for every indexed word of the document.
//! We are considering the possibility to use the diff to maintain such
//! indexes." — this crate implements exactly that possibility: a
//! [`DocumentIndex`] built from a version can be kept in sync with the
//! document by feeding it the delta stream ([`DocumentIndex::apply_delta`]),
//! and the incremental result is identical to a full rebuild (property
//! tested against the change simulator).
//!
//! Postings are structural: every word maps to the set of text nodes (by
//! persistent XID, so postings survive versions) that contain it, each
//! posting carrying the label of the enclosing element — enough to answer
//! "documents where *camera* occurs inside a `<title>`".
//!
//! ```
//! use xydelta::XidDocument;
//! use xyindex::DocumentIndex;
//!
//! let doc = XidDocument::parse_initial(
//!     "<catalog><title>digital cameras</title><note>film cameras</note></catalog>",
//! ).unwrap();
//! let index = DocumentIndex::build(&doc);
//! assert_eq!(index.postings("cameras").len(), 2);
//! assert_eq!(index.postings_under("cameras", "title").len(), 1);
//! assert!(index.postings("tripod").is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod tokenize;

pub use tokenize::tokenize;

use std::collections::BTreeMap;
use xydelta::{Delta, Op, Xid, XidDocument};
use xytree::hash::{fast_map, FastHashMap};
use xytree::{NodeId, NodeKind, Tree};

/// One occurrence record: a word occurs in the text node `text_node`, which
/// sits under an element labeled `parent_label`, `count` times.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Posting {
    /// Persistent identifier of the text node.
    pub text_node: Xid,
    /// Label of the enclosing element (`#root` for top-level text).
    pub parent_label: String,
    /// Occurrences of the word within the node.
    pub count: u32,
}

/// A full-text index over one versioned document.
#[derive(Debug, Clone, Default)]
pub struct DocumentIndex {
    /// word → (text-node xid → (parent label, count)).
    by_word: FastHashMap<String, BTreeMap<Xid, (String, u32)>>,
    /// text-node xid → the words it contributes (for removal).
    by_node: FastHashMap<Xid, Vec<String>>,
}

impl DocumentIndex {
    /// An empty index.
    pub fn new() -> DocumentIndex {
        DocumentIndex::default()
    }

    /// Index every text node of `doc`.
    pub fn build(doc: &XidDocument) -> DocumentIndex {
        let mut idx = DocumentIndex::new();
        let t = &doc.doc.tree;
        for n in t.descendants(t.root()) {
            if let NodeKind::Text(content) = t.kind(n) {
                let xid = doc.xid(n).expect("attached node carries an XID");
                let label = parent_label(t, n);
                idx.add_text(xid, &label, content);
            }
        }
        idx
    }

    /// Postings for `word` (case-insensitive), ordered by text-node XID.
    pub fn postings(&self, word: &str) -> Vec<Posting> {
        let needle = word.to_lowercase();
        self.by_word
            .get(&needle)
            .map(|m| {
                m.iter()
                    .map(|(&xid, (label, count))| Posting {
                        text_node: xid,
                        parent_label: label.clone(),
                        count: *count,
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Postings for `word` restricted to text under elements labeled
    /// `label` — the "structural information" query of §2.
    pub fn postings_under(&self, word: &str, label: &str) -> Vec<Posting> {
        self.postings(word)
            .into_iter()
            .filter(|p| p.parent_label == label)
            .collect()
    }

    /// True when `word` occurs anywhere.
    pub fn contains(&self, word: &str) -> bool {
        self.by_word
            .get(&word.to_lowercase())
            .is_some_and(|m| !m.is_empty())
    }

    /// Number of distinct indexed words.
    pub fn word_count(&self) -> usize {
        self.by_word.values().filter(|m| !m.is_empty()).count()
    }

    /// Total `(word, text node)` posting pairs.
    pub fn posting_count(&self) -> usize {
        self.by_word.values().map(BTreeMap::len).sum()
    }

    /// Maintain the index across one version step: `delta` transforms the
    /// version this index reflects into `new`. After the call the index is
    /// identical to `DocumentIndex::build(new)`.
    ///
    /// Work is proportional to the *changed* text, not the document — the
    /// paper's motivation for diff-driven index maintenance.
    pub fn apply_delta(&mut self, delta: &Delta, new: &XidDocument) {
        for op in &delta.ops {
            match op {
                Op::Delete { subtree, xid_map, .. } => {
                    // Indexing runs on stored (owned) deltas past the
                    // into_owned boundary.
                    let (tree, root) = delta.payload(*subtree);
                    let xids = delta.xid_map(*xid_map);
                    self.walk_stored(tree, root, xids, &mut |idx, xid, _node, _label, _text| {
                        idx.remove_node(xid);
                    });
                }
                Op::Insert { subtree, xid_map, parent, .. } => {
                    let (tree, root) = delta.payload(*subtree);
                    // A stored subtree's root has no parent in the payload
                    // arena: a text node inserted directly under `parent`
                    // must take its label from the *target* element in the
                    // new version.
                    let target_label = new
                        .node(*parent)
                        .and_then(|n| new.doc.tree.name(n))
                        .unwrap_or("#root")
                        .to_string();
                    let xids = delta.xid_map(*xid_map);
                    self.walk_stored(tree, root, xids, &mut |idx, xid, node, label, text| {
                        let label = if node == root { target_label.clone() } else { label };
                        idx.add_text(xid, &label, text);
                    });
                }
                Op::Update { xid, new: new_text, .. } => {
                    self.remove_node(*xid);
                    let label = new
                        .node(*xid)
                        .map(|n| parent_label(&new.doc.tree, n))
                        .unwrap_or_else(|| "#root".to_string());
                    self.add_text(*xid, &label, delta.text(*new_text));
                }
                Op::Move { xid, .. } => {
                    // Structural info changes only when the moved node is a
                    // text node (its enclosing element changed).
                    if let Some(n) = new.node(*xid) {
                        if let NodeKind::Text(content) = new.doc.tree.kind(n) {
                            let label = parent_label(&new.doc.tree, n);
                            self.remove_node(*xid);
                            self.add_text(*xid, &label, content);
                        }
                    }
                }
                Op::AttrInsert { .. } | Op::AttrDelete { .. } | Op::AttrUpdate { .. } => {}
            }
        }
    }

    /// Walk the stored op subtree at `root` in postfix order, pairing nodes
    /// with their XIDs from the op's XID-map, and invoke `f` on every text
    /// node.
    fn walk_stored(
        &mut self,
        tree: &Tree,
        root: NodeId,
        xids: &[Xid],
        f: &mut dyn FnMut(&mut Self, Xid, NodeId, String, &str),
    ) {
        debug_assert_eq!(tree.subtree_size(root), xids.len(), "op XID-map must cover its subtree");
        for (n, &xid) in tree.post_order(root).zip(xids) {
            if let NodeKind::Text(content) = tree.kind(n) {
                let label = parent_label(tree, n);
                f(self, xid, n, label, content);
            }
        }
    }

    fn add_text(&mut self, xid: Xid, label: &str, content: &str) {
        let mut words: Vec<String> = Vec::new();
        let mut counts: FastHashMap<String, u32> = fast_map();
        for w in tokenize(content) {
            *counts.entry(w).or_insert(0) += 1;
        }
        for (w, c) in counts {
            self.by_word
                .entry(w.clone())
                .or_default()
                .insert(xid, (label.to_string(), c));
            words.push(w);
        }
        if !words.is_empty() {
            self.by_node.insert(xid, words);
        }
    }

    fn remove_node(&mut self, xid: Xid) {
        let Some(words) = self.by_node.remove(&xid) else { return };
        for w in words {
            if let Some(m) = self.by_word.get_mut(&w) {
                m.remove(&xid);
                if m.is_empty() {
                    self.by_word.remove(&w);
                }
            }
        }
    }

    /// Structural equality with another index (used to check incremental ==
    /// rebuilt).
    pub fn same_as(&self, other: &DocumentIndex) -> bool {
        if self.posting_count() != other.posting_count() {
            return false;
        }
        self.by_word.iter().all(|(w, m)| {
            other
                .by_word
                .get(w)
                .is_some_and(|om| om == m)
        })
    }
}

/// Label of the element enclosing `node` (its parent), or `#root`.
fn parent_label(tree: &Tree, node: NodeId) -> String {
    tree.parent(node)
        .and_then(|p| tree.name(p))
        .unwrap_or("#root")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xd(xml: &str) -> XidDocument {
        XidDocument::parse_initial(xml).unwrap()
    }

    #[test]
    fn build_indexes_all_text() {
        let d = xd("<a><t>hello world</t><u>hello again</u></a>");
        let idx = DocumentIndex::build(&d);
        assert_eq!(idx.postings("hello").len(), 2);
        assert_eq!(idx.postings("world").len(), 1);
        assert_eq!(idx.postings("nothing").len(), 0);
        assert!(idx.contains("AGAIN"), "lookups are case-insensitive");
        assert_eq!(idx.word_count(), 3); // hello, world, again
    }

    #[test]
    fn postings_carry_structure() {
        let d = xd("<cat><title>digital camera</title><desc>camera body</desc></cat>");
        let idx = DocumentIndex::build(&d);
        assert_eq!(idx.postings_under("camera", "title").len(), 1);
        assert_eq!(idx.postings_under("camera", "desc").len(), 1);
        assert_eq!(idx.postings_under("camera", "price").len(), 0);
    }

    #[test]
    fn counts_repeated_words() {
        let d = xd("<a><t>spam spam spam egg</t></a>");
        let idx = DocumentIndex::build(&d);
        assert_eq!(idx.postings("spam")[0].count, 3);
        assert_eq!(idx.postings("egg")[0].count, 1);
    }

    #[test]
    fn empty_document_empty_index() {
        let d = xd("<a/>");
        let idx = DocumentIndex::build(&d);
        assert_eq!(idx.word_count(), 0);
        assert_eq!(idx.posting_count(), 0);
    }
}
