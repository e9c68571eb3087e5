//! Phase 2: subtree signatures and weights.
//!
//! "In one traversal of each tree, we compute the signature of each node of
//! the old and new documents. The signature is a hash value computed using
//! the node's content, and its children signatures. Thus it uniquely
//! represents the content of the entire subtree rooted at that node. A
//! weight is computed simultaneously for each node. It is the size of the
//! content for text nodes and the sum of the weights of children for element
//! nodes." (§5.2)
//!
//! Weight choices follow §5.2 "Tuning": elements weigh
//! `1 + Σ weight(children)` (the weight "must be no less than the sum of its
//! children" and "grow in O(n)"), text nodes weigh `1 + log(length(text))`
//! ("when the text is large … it should have more weight than a simple
//! word").

#![doc = "xylint: hot-path"]

use crate::par::ParallelRunner;
use std::sync::OnceLock;
use xydelta::XidDocument;
use xytree::hash::Fnv64;
use xytree::{NodeId, NodeKind, Tree};

/// Domain-separation seeds so that, e.g., a text node `"a"` and an element
/// `<a/>` can never share a signature.
mod seed {
    /// Seed for the document root node.
    pub const DOCUMENT: u64 = 0xD0C;
    /// Seed for element nodes.
    pub const ELEMENT: u64 = 0xE1E;
    /// Seed for text nodes.
    pub const TEXT: u64 = 0x7E7;
    /// Seed for comment nodes.
    pub const COMMENT: u64 = 0xC03;
    /// Seed for processing instructions.
    pub const PI: u64 = 0x91;
}

/// Per-node signature/weight record.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeInfo {
    /// Content hash of the whole subtree rooted here.
    pub signature: u64,
    /// The paper's weight (drives the priority queue and the look-up depth).
    pub weight: f64,
    /// Node count of the subtree (cheap exact size, used for statistics and
    /// as the LIS move weight).
    pub size: u32,
}

/// Signatures and weights for every attached node of a tree, one array per
/// field, each indexed by arena slot: phase 3 probes signatures and sizes
/// far more often than weights, and 20 bytes per node is what a
/// [`SignatureCache`] keeps resident per stored document.
#[derive(Debug, Clone, Default)]
pub struct TreeInfo {
    signatures: Vec<u64>,
    weights: Vec<f64>,
    sizes: Vec<u32>,
    /// Total weight of the document (W₀ in the paper's depth bound).
    pub total_weight: f64,
    /// Number of attached nodes.
    pub node_count: usize,
}

impl TreeInfo {
    /// Info record of `node`.
    #[inline]
    pub fn get(&self, node: NodeId) -> NodeInfo {
        let i = node.index();
        NodeInfo { signature: self.signatures[i], weight: self.weights[i], size: self.sizes[i] }
    }

    /// Subtree signature of `node`.
    #[inline]
    pub fn signature(&self, node: NodeId) -> u64 {
        self.signatures[node.index()]
    }

    /// Weight of `node`.
    #[inline]
    pub fn weight(&self, node: NodeId) -> f64 {
        self.weights[node.index()]
    }

    /// Subtree node count of `node`.
    #[inline]
    pub fn size(&self, node: NodeId) -> u32 {
        self.sizes[node.index()]
    }

    #[inline]
    fn set(&mut self, node: NodeId, info: NodeInfo) {
        let i = node.index();
        self.signatures[i] = info.signature;
        self.weights[i] = info.weight;
        self.sizes[i] = info.size;
    }

    /// Zeroed records for `slots` arena slots, keeping the allocations.
    fn reset(&mut self, slots: usize) {
        self.signatures.clear();
        self.signatures.resize(slots, 0);
        self.weights.clear();
        self.weights.resize(slots, 0.0);
        self.sizes.clear();
        self.sizes.resize(slots, 0);
    }

    /// Give back capacity beyond twice the length.
    fn trim(&mut self) {
        if self.signatures.capacity() > 2 * self.signatures.len() {
            self.signatures.shrink_to_fit();
            self.weights.shrink_to_fit();
            self.sizes.shrink_to_fit();
        }
    }

    /// Fill in every attached node of `tree` in post-order: from `staged`
    /// where it has a record, by hashing otherwise.
    fn fill(&mut self, tree: &Tree, staged: impl Fn(NodeId) -> Option<NodeInfo>) {
        self.reset(tree.arena_len());
        let mut node_count = 0usize;
        for node in tree.post_order(tree.root()) {
            node_count += 1;
            let info = staged(node).unwrap_or_else(|| compute_node(tree, node, |c| self.get(c)));
            self.set(node, info);
        }
        self.total_weight = self.weight(tree.root());
        self.node_count = node_count;
    }
}

/// One post-order traversal computing signature + weight for each node.
pub fn analyze(tree: &Tree) -> TreeInfo {
    let mut out = TreeInfo::default();
    analyze_into(tree, &mut out);
    out
}

/// [`analyze`] into a caller-owned [`TreeInfo`], reusing its allocation.
/// This is the [`crate::DiffScratch`] reuse path: a long-lived worker runs
/// thousands of diffs without growing the heap.
pub fn analyze_into(tree: &Tree, out: &mut TreeInfo) {
    out.fill(tree, |_| None);
}

/// [`analyze_into`] with the subtree hashing fanned out over `runner`.
///
/// Shards are the children of the root element — disjoint subtrees, so each
/// shard's post-order hash depends only on nodes the same worker computed.
/// Workers publish per-node records through [`OnceLock`] cells; a serial
/// finishing pass then walks the whole tree in post-order, copying published
/// records and computing the few stragglers (document node, root element,
/// top-level comments/PIs) whose children span shards. Hashing is pure, so
/// the result equals [`analyze_into`] exactly, at every thread count.
///
/// With a serial runner (or fewer than two shards) this delegates to
/// [`analyze_into`] without allocating the staging buffer, preserving the
/// steady-state no-alloc guarantee of the default path.
pub fn analyze_into_with(tree: &Tree, out: &mut TreeInfo, runner: &dyn ParallelRunner) {
    let shards: Vec<NodeId> = root_element_of(tree)
        .map(|re| tree.children(re).collect())
        .unwrap_or_default();
    if runner.threads() <= 1 || shards.len() < 2 {
        analyze_into(tree, out);
        return;
    }
    // ALLOC-OK: parallel staging is opt-in; the serial bypass above keeps the
    // default path allocation-free.
    let slots: Vec<OnceLock<NodeInfo>> = (0..tree.arena_len()).map(|_| OnceLock::new()).collect();
    runner.run(shards.len(), &|i| {
        for node in tree.post_order(shards[i]) {
            let info = compute_node(tree, node, |c| {
                // INVARIANT: post-order within one shard — a node's children
                // were published by this same worker before the node itself.
                *slots[c.index()].get().expect("children published before their parent")
            });
            let _ = slots[node.index()].set(info);
        }
    });
    out.fill(tree, |node| slots[node.index()].get().copied());
}

/// The root element (first element child of the document node), if any.
fn root_element_of(tree: &Tree) -> Option<NodeId> {
    tree.children(tree.root()).find(|&n| matches!(tree.kind(n), NodeKind::Element(_)))
}

/// Signature/weight/size of one node, with the records of its children
/// (post-order predecessors) supplied by `child`.
fn compute_node(tree: &Tree, node: NodeId, child: impl Fn(NodeId) -> NodeInfo) -> NodeInfo {
    let mut h;
    let mut weight;
    let mut size = 1u32;
    match tree.kind(node) {
        NodeKind::Document => {
            h = Fnv64::with_seed(seed::DOCUMENT);
            weight = 1.0;
        }
        NodeKind::Element(e) => {
            h = Fnv64::with_seed(seed::ELEMENT);
            h.update(e.name.as_bytes());
            h.update(&[0]);
            // Attributes are a set: hash them in name order. Parsers and
            // builders keep attributes in a stable order, so they are almost
            // always already sorted — check first and skip the index buffer.
            let mut fold = |a: &xytree::Attr| {
                h.update(a.name.as_bytes());
                h.update(&[1]);
                h.update(a.value.as_bytes());
                h.update(&[2]);
            };
            if e.attrs.windows(2).all(|w| w[0].name <= w[1].name) {
                for a in e.attrs {
                    fold(a);
                }
            } else {
                let mut idx: Vec<usize> = (0..e.attrs.len()).collect();
                idx.sort_by(|&a, &b| e.attrs[a].name.cmp(&e.attrs[b].name));
                for i in idx {
                    fold(&e.attrs[i]);
                }
            }
            weight = 1.0;
        }
        NodeKind::Text(t) => {
            h = Fnv64::with_seed(seed::TEXT);
            h.update(t.as_bytes());
            weight = text_weight(t.len());
        }
        NodeKind::Comment(c) => {
            h = Fnv64::with_seed(seed::COMMENT);
            h.update(c.as_bytes());
            weight = text_weight(c.len());
        }
        NodeKind::Pi { target, data } => {
            h = Fnv64::with_seed(seed::PI);
            h.update(target.as_bytes());
            h.update(&[0]);
            h.update(data.as_bytes());
            weight = text_weight(target.len() + data.len());
        }
    }
    // Children were visited first (post-order): fold their signatures in
    // order and add their weights.
    for c in tree.children(node) {
        let ci = child(c);
        h.update_u64(ci.signature);
        weight += ci.weight;
        size += ci.size;
    }
    NodeInfo { signature: h.value(), weight, size }
}

/// The phase-2 records of one stored document version, carried to the next
/// diff of that document.
///
/// In a warehouse, the *old* side of every diff is a document the system
/// itself produced one ingest earlier — its signatures were all computed
/// then, as the *new* side of that diff. The cache keeps those arrays,
/// indexed by node like the [`TreeInfo`] they were: at the end of a diff the
/// new side's arrays are swapped in (the buffer they replace goes back to
/// the [`crate::DiffScratch`]), and the next diff swaps them out again as
/// its old side instead of re-hashing the old tree. Nothing is copied,
/// probed or rebuilt per node.
///
/// **Coherence**: the cache records the [`XidDocument::stamp`] of the version
/// it describes and is used only for a document carrying that stamp — the
/// very value the diff produced, moved but not cloned, applied to or rebuilt
/// since. Anything else (a foreign document, a chain recovered from a log, a
/// clone) misses as a whole and is hashed locally; a miss is always safe.
/// The one case the stamp cannot see is an edit made directly through
/// `XidDocument::doc`: whoever does that must [`SignatureCache::clear`].
#[derive(Debug, Clone, Default)]
pub struct SignatureCache {
    info: TreeInfo,
    /// Stamp of the version `info` describes; 0 (never issued) when empty.
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl SignatureCache {
    /// An empty cache.
    pub fn new() -> SignatureCache {
        SignatureCache::default()
    }

    /// Number of cached subtree records.
    pub fn len(&self) -> usize {
        if self.stamp == 0 {
            0
        } else {
            self.info.node_count
        }
    }

    /// True when no records are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take over `info`, the records of `doc` (indices must refer to
    /// `doc.doc.tree`); `info` receives the retired buffers in exchange.
    pub(crate) fn store(&mut self, doc: &XidDocument, info: &mut TreeInfo) {
        std::mem::swap(&mut self.info, info);
        self.stamp = doc.stamp();
        // A worker's scratch grows to the largest document it has seen; a
        // small document's cache must not keep buffers of that size.
        self.info.trim();
    }

    /// Cumulative (hits, misses), in nodes, over the cache's lifetime.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// [`analyze`] for an XID-carrying document: when `cache` holds the records
/// of exactly this document state they are swapped into `out` (the cache is
/// left empty until the diff stores the next version's), otherwise the tree
/// is hashed. See the [`SignatureCache`] coherence rule.
pub fn analyze_xid_cached(doc: &XidDocument, cache: &mut SignatureCache, out: &mut TreeInfo) {
    if cache.stamp == doc.stamp() {
        std::mem::swap(&mut cache.info, out);
        cache.stamp = 0;
        cache.hits += out.node_count as u64;
    } else {
        analyze_into(&doc.doc.tree, out);
        cache.misses += out.node_count as u64;
    }
}

/// Text-node weight: `1 + log(length)` (§5.2), with `log 0 := 0`.
fn text_weight(len: usize) -> f64 {
    1.0 + (len.max(1) as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xytree::Document;

    fn info_of(xml: &str) -> (Document, TreeInfo) {
        let d = Document::parse(xml).unwrap();
        let i = analyze(&d.tree);
        (d, i)
    }

    #[test]
    fn identical_subtrees_share_signatures() {
        let (d, i) = info_of("<a><p><q>t</q></p><p><q>t</q></p></a>");
        let a = d.root_element().unwrap();
        let p1 = d.tree.child_at(a, 0).unwrap();
        let p2 = d.tree.child_at(a, 1).unwrap();
        assert_eq!(i.signature(p1), i.signature(p2));
        assert_ne!(i.signature(p1), i.signature(a));
    }

    #[test]
    fn content_difference_changes_signature() {
        let (d1, i1) = info_of("<a><p>x</p></a>");
        let (d2, i2) = info_of("<a><p>y</p></a>");
        let p1 = d1.tree.child_at(d1.root_element().unwrap(), 0).unwrap();
        let p2 = d2.tree.child_at(d2.root_element().unwrap(), 0).unwrap();
        assert_ne!(i1.signature(p1), i2.signature(p2));
    }

    #[test]
    fn attribute_order_does_not_change_signature() {
        let (d1, i1) = info_of(r#"<a x="1" y="2"/>"#);
        let (d2, i2) = info_of(r#"<a y="2" x="1"/>"#);
        let e1 = d1.root_element().unwrap();
        let e2 = d2.root_element().unwrap();
        assert_eq!(i1.signature(e1), i2.signature(e2));
    }

    #[test]
    fn attribute_value_changes_signature() {
        let (d1, i1) = info_of(r#"<a x="1"/>"#);
        let (d2, i2) = info_of(r#"<a x="2"/>"#);
        assert_ne!(
            i1.signature(d1.root_element().unwrap()),
            i2.signature(d2.root_element().unwrap())
        );
    }

    #[test]
    fn child_order_changes_signature() {
        let (d1, i1) = info_of("<a><b/><c/></a>");
        let (d2, i2) = info_of("<a><c/><b/></a>");
        assert_ne!(
            i1.signature(d1.root_element().unwrap()),
            i2.signature(d2.root_element().unwrap())
        );
    }

    #[test]
    fn text_vs_element_domain_separated() {
        // <a>b</a> vs <a><b/></a>
        let (d1, i1) = info_of("<a>b</a>");
        let (d2, i2) = info_of("<a><b/></a>");
        assert_ne!(
            i1.signature(d1.root_element().unwrap()),
            i2.signature(d2.root_element().unwrap())
        );
    }

    #[test]
    fn element_weight_exceeds_children_sum() {
        let (d, i) = info_of("<a><p>hello world</p><q>more text here</q></a>");
        let a = d.root_element().unwrap();
        let sum: f64 = d.tree.children(a).map(|c| i.weight(c)).sum();
        assert!(i.weight(a) > sum, "paper: weight must be no less than children sum");
    }

    #[test]
    fn long_text_outweighs_short_text() {
        let (d, i) = info_of("<a><p>x</p><p>a much longer description of the product</p></a>");
        let a = d.root_element().unwrap();
        let short = d.tree.first_child(d.tree.child_at(a, 0).unwrap()).unwrap();
        let long = d.tree.first_child(d.tree.child_at(a, 1).unwrap()).unwrap();
        assert!(i.weight(long) > i.weight(short));
        // But only logarithmically.
        assert!(i.weight(long) < i.weight(short) * 6.0);
    }

    #[test]
    fn total_weight_and_count() {
        let (d, i) = info_of("<a><b/><c>t</c></a>");
        assert_eq!(i.node_count, 5);
        assert_eq!(i.total_weight, i.weight(d.tree.root()));
        assert_eq!(i.get(d.tree.root()).size, 5);
    }

    #[test]
    fn parallel_analysis_matches_serial_exactly() {
        use crate::par::{SerialRunner, StdScopeRunner};
        let mut xml = String::from("<cat>");
        for i in 0..20 {
            xml.push_str(&format!("<p a=\"{i}\"><q>text {i}</q><r/></p>"));
        }
        xml.push_str("</cat>");
        let d = Document::parse(&xml).unwrap();
        let serial = analyze(&d.tree);
        for threads in [1usize, 2, 4, 8] {
            let mut par = TreeInfo::default();
            let runner = StdScopeRunner::new(threads);
            analyze_into_with(&d.tree, &mut par, &runner);
            assert_eq!(par.node_count, serial.node_count);
            assert_eq!(par.total_weight, serial.total_weight);
            for n in d.tree.post_order(d.tree.root()) {
                assert_eq!(par.signature(n), serial.signature(n), "threads={threads}");
                assert_eq!(par.weight(n), serial.weight(n));
                assert_eq!(par.get(n).size, serial.get(n).size);
            }
        }
        // Serial runner takes the bypass and still matches.
        let mut bypass = TreeInfo::default();
        analyze_into_with(&d.tree, &mut bypass, &SerialRunner);
        assert_eq!(bypass.signature(d.tree.root()), serial.signature(d.tree.root()));
    }

    #[test]
    fn parallel_analysis_handles_shardless_documents() {
        // No root element children (and no root element at all) must not
        // panic — both delegate to the serial path.
        for xml in ["<only/>", "<a>just text</a>"] {
            let d = Document::parse(xml).unwrap();
            let serial = analyze(&d.tree);
            let mut par = TreeInfo::default();
            analyze_into_with(&d.tree, &mut par, &crate::par::StdScopeRunner::new(4));
            assert_eq!(par.signature(d.tree.root()), serial.signature(d.tree.root()));
        }
    }

    #[test]
    fn weight_grows_linearly_not_faster() {
        // A chain of n elements must have weight Θ(n).
        let mut xml = String::new();
        for _ in 0..100 {
            xml.push_str("<d>");
        }
        for _ in 0..100 {
            xml.push_str("</d>");
        }
        let (d, i) = info_of(&xml);
        let w = i.weight(d.root_element().unwrap());
        assert!((100.0..=101.0).contains(&w));
    }
}
