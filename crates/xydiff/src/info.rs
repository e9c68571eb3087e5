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
//!
//! Every mode runs this phase. BULD and similarity fold a node's children
//! in order; the unordered matcher folds them as a wrapping sum of mixed
//! child signatures, so that sibling order cannot change a signature (the
//! analogue of X-Diff's `XHash`). The fold is a const parameter, so each
//! loop is compiled for one fold and branches on none. Both folds give the
//! same weights and sizes.
//!
//! Cost rule: a node costs one [`WordHash`] fold per eight bytes of its
//! text (or attribute value), one per child and one per attribute, plus one
//! label-table read per label. A label's own hash is computed once per
//! symbol per worker, not per occurrence.

use xydelta::XidDocument;
use xytree::WordHash;
use xytree::{NodeId, NodeKind, Symbol, Tree};

/// Domain-separation seeds so that, e.g., a text node `"a"` and an element
/// `<a/>` can never share a signature.
mod seed {
    /// Seed for the document root node.
    pub(crate) const DOCUMENT: u64 = 0xD0C;
    /// Seed for element nodes.
    pub(crate) const ELEMENT: u64 = 0xE1E;
    /// Seed for text nodes.
    pub(crate) const TEXT: u64 = 0x7E7;
    /// Seed for comment nodes.
    pub(crate) const COMMENT: u64 = 0xC03;
    /// Seed for processing instructions.
    pub(crate) const PI: u64 = 0x91;
}

/// Per-node signature/weight record.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeInfo {
    /// Content hash of the whole subtree rooted here.
    pub(crate) signature: u64,
    /// The paper's weight (drives the priority queue and the look-up depth).
    pub(crate) weight: f64,
    /// Node count of the subtree (cheap exact size, used for statistics and
    /// as the LIS move weight).
    pub(crate) size: u32,
}

/// Signatures and weights for every attached node of a tree, one array per
/// field, each indexed by arena slot: phase 3 probes signatures and sizes
/// far more often than weights, and 20 bytes per node is what a
/// [`SignatureCache`] keeps resident per stored document.
#[derive(Debug, Clone, Default)]
pub(crate) struct TreeInfo {
    signatures: Vec<u64>,
    weights: Vec<f64>,
    sizes: Vec<u32>,
    /// Total weight of the document (W₀ in the paper's depth bound).
    pub(crate) total_weight: f64,
    /// Number of attached nodes.
    pub(crate) node_count: usize,
    /// Which fold filled the signatures: true for the commutative one.
    commutative: bool,
}

impl TreeInfo {
    /// Info record of `node`.
    #[inline]
    pub(crate) fn get(&self, node: NodeId) -> NodeInfo {
        let i = node.index();
        NodeInfo { signature: self.signatures[i], weight: self.weights[i], size: self.sizes[i] }
    }

    /// Subtree signature of `node`.
    #[inline]
    pub(crate) fn signature(&self, node: NodeId) -> u64 {
        self.signatures[node.index()]
    }

    /// Weight of `node`.
    #[inline]
    pub(crate) fn weight(&self, node: NodeId) -> f64 {
        self.weights[node.index()]
    }

    /// Subtree node count of `node`.
    #[inline]
    pub(crate) fn size(&self, node: NodeId) -> u32 {
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
}

/// Hash and text of every label a worker has hashed, indexed by
/// [`Symbol::id`].
///
/// A symbol's text never changes, so an entry is filled the first time its
/// label is seen and is never stale: phase 2 resolves a label through the
/// global interner (and its lock) at most once per distinct label per
/// table. Part of [`crate::DiffScratch`].
#[derive(Debug, Default)]
pub(crate) struct LabelTable {
    slots: Vec<Option<(u64, &'static str)>>,
}

impl LabelTable {
    /// Hash and text of `label`, filling its entry on first sight.
    #[inline]
    fn get(&mut self, label: Symbol) -> (u64, &'static str) {
        let i = label.id() as usize;
        if let Some(Some(entry)) = self.slots.get(i) {
            return *entry;
        }
        self.fill(label)
    }

    #[cold]
    fn fill(&mut self, label: Symbol) -> (u64, &'static str) {
        let i = label.id() as usize;
        if i >= self.slots.len() {
            // Grows once per label id past every earlier one; a
            // warm table never resizes.
            self.slots.resize(i + 1, None);
        }
        let text = label.as_str();
        let entry = (WordHash::hash_bytes(text.as_bytes()), text);
        self.slots[i] = Some(entry);
        entry
    }
}

/// The ordered analysis of `tree` in fresh memory.
#[cfg(test)]
pub(crate) fn analyze(tree: &Tree) -> TreeInfo {
    let mut out = TreeInfo::default();
    analyze_into::<false>(tree, &mut LabelTable::default(), &mut out);
    out
}

/// Phase 2 of one diff: the old side from `cache` when it describes `old`
/// (see [`analyze_xid_cached`]), the new side hashed.
pub(crate) fn analyze_pair<const COMMUTATIVE: bool>(
    old: &XidDocument,
    new: &Tree,
    cache: Option<&mut SignatureCache>,
    labels: &mut LabelTable,
    old_info: &mut TreeInfo,
    new_info: &mut TreeInfo,
) {
    match cache {
        Some(c) => analyze_xid_cached::<COMMUTATIVE>(old, c, labels, old_info),
        None => analyze_into::<COMMUTATIVE>(&old.doc.tree, labels, old_info),
    }
    analyze_into::<COMMUTATIVE>(new, labels, new_info);
}

/// One post-order traversal into a caller-owned [`TreeInfo`] with
/// caller-owned label hashes, reusing both: a long-lived worker runs
/// thousands of diffs without growing the heap.
pub(crate) fn analyze_into<const COMMUTATIVE: bool>(
    tree: &Tree,
    labels: &mut LabelTable,
    out: &mut TreeInfo,
) {
    out.reset(tree.arena_len());
    let mut node_count = 0usize;
    for node in tree.post_order(tree.root()) {
        node_count += 1;
        let info = compute_node::<COMMUTATIVE>(tree, node, labels, out);
        out.set(node, info);
    }
    out.total_weight = out.weight(tree.root());
    out.node_count = node_count;
    out.commutative = COMMUTATIVE;
}

/// SplitMix64 finalizer: decorrelates child signatures before the
/// commutative (wrapping-add) fold, so that e.g. `{a, a}` and `{b, c}` with
/// `b + c = 2a` do not collide structurally.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Signature/weight/size of one node, with the records of its children
/// (post-order predecessors) read from `done`.
fn compute_node<const COMMUTATIVE: bool>(
    tree: &Tree,
    node: NodeId,
    labels: &mut LabelTable,
    done: &TreeInfo,
) -> NodeInfo {
    let mut h;
    let mut weight;
    let mut size = 1u32;
    match tree.kind(node) {
        NodeKind::Document => {
            h = WordHash::with_seed(seed::DOCUMENT);
            weight = 1.0;
        }
        NodeKind::Element(e) => {
            h = WordHash::with_seed(seed::ELEMENT);
            h.fold(labels.get(e.name).0);
            // Attributes are a set: hash them in name order. Parsers and
            // builders keep attributes in a stable order, so they are almost
            // always already sorted — check first and skip the index buffer.
            let mut sorted = true;
            let mut prev = "";
            for a in e.attrs {
                let name = labels.get(a.name).1;
                sorted &= prev <= name;
                prev = name;
            }
            let mut fold = |labels: &mut LabelTable, a: &xytree::Attr| {
                h.fold(labels.get(a.name).0);
                h.update(a.value.as_bytes());
            };
            if sorted {
                for a in e.attrs {
                    fold(labels, a);
                }
            } else {
                // Out-of-order attributes only; the sortedness
                // check above keeps ordinary elements off this path.
                let mut idx: Vec<usize> = (0..e.attrs.len()).collect();
                idx.sort_by_key(|&i| labels.get(e.attrs[i].name).1);
                for i in idx {
                    fold(labels, &e.attrs[i]);
                }
            }
            weight = 1.0;
        }
        NodeKind::Text(t) => {
            h = WordHash::with_seed(seed::TEXT);
            h.update(t.as_bytes());
            weight = text_weight(t.len());
        }
        NodeKind::Comment(c) => {
            h = WordHash::with_seed(seed::COMMENT);
            h.update(c.as_bytes());
            weight = text_weight(c.len());
        }
        NodeKind::Pi { target, data } => {
            h = WordHash::with_seed(seed::PI);
            h.update(target.as_bytes());
            h.update(data.as_bytes());
            weight = text_weight(target.len() + data.len());
        }
    }
    // Children were visited first (post-order). The ordered fold takes
    // their signatures in order, one fold each; the commutative fold sums
    // them mixed and folds the sum once. Either adds their weights.
    let mut sum = 0u64;
    for c in tree.children(node) {
        let ci = done.get(c);
        if COMMUTATIVE {
            sum = sum.wrapping_add(mix(ci.signature));
        } else {
            h.fold(ci.signature);
        }
        weight += ci.weight;
        size += ci.size;
    }
    if COMMUTATIVE {
        h.fold(sum);
    }
    NodeInfo { signature: h.value(), weight, size }
}

/// The phase-2 records of one stored document version, carried to the next
/// diff of that document.
///
/// In a warehouse, the *old* side of every diff is a document the system
/// itself produced one ingest earlier — its signatures were all computed
/// then, as the *new* side of that diff. The cache keeps those arrays,
/// indexed by node: at the end of a diff the new side's arrays are swapped
/// in (the buffer they replace goes back to the differ's working memory),
/// and the next diff swaps them out again as its old side instead of
/// re-hashing the old tree. Nothing is copied, probed or rebuilt per node.
///
/// **Coherence**: the cache records the [`XidDocument::stamp`] of the version
/// it describes and is used only for a document carrying that stamp — the
/// very value the diff produced, moved but not cloned, applied to or rebuilt
/// since. It also records which child fold filled it, and a diff in a mode
/// that folds the other way misses. Anything else (a foreign document, a
/// chain recovered from a log, a clone) misses as a whole and is hashed
/// locally; a miss is always safe. The one case the stamp cannot see is an
/// edit made directly through `XidDocument::doc`: whoever does that must
/// replace the cache with [`SignatureCache::new`].
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

/// [`analyze_into`] for an XID-carrying document: when `cache` holds the
/// records of exactly this document state, folded this way, they are
/// swapped into `out` (the cache is left empty until the diff stores the
/// next version's), otherwise the tree is hashed. See the
/// [`SignatureCache`] coherence rule.
fn analyze_xid_cached<const COMMUTATIVE: bool>(
    doc: &XidDocument,
    cache: &mut SignatureCache,
    labels: &mut LabelTable,
    out: &mut TreeInfo,
) {
    if cache.stamp == doc.stamp() && cache.info.commutative == COMMUTATIVE {
        std::mem::swap(&mut cache.info, out);
        cache.stamp = 0;
        cache.hits += out.node_count as u64;
    } else {
        analyze_into::<COMMUTATIVE>(&doc.doc.tree, labels, out);
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

    /// `tree` analyzed with the commutative fold.
    fn commutative(tree: &Tree) -> TreeInfo {
        let mut out = TreeInfo::default();
        analyze_into::<true>(tree, &mut LabelTable::default(), &mut out);
        out
    }

    #[test]
    fn both_folds_give_equal_weights_and_sizes() {
        let d = Document::parse(r#"<r k="v"><a>1</a><b>two words</b><c/><!--n--><a>1</a></r>"#)
            .unwrap();
        let (ordered, unordered) = (analyze(&d.tree), commutative(&d.tree));
        assert_eq!(ordered.node_count, unordered.node_count);
        assert_eq!(ordered.total_weight, unordered.total_weight);
        for n in d.tree.post_order(d.tree.root()) {
            assert_eq!(ordered.weight(n), unordered.weight(n));
            assert_eq!(ordered.size(n), unordered.size(n));
            assert_ne!(ordered.signature(n), unordered.signature(n));
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

    fn root_signature(xml: &str) -> u64 {
        let (d, i) = info_of(xml);
        i.signature(d.root_element().unwrap())
    }

    #[test]
    fn attribute_value_boundaries_change_signature() {
        assert_ne!(root_signature(r#"<a x="ab" y="c"/>"#), root_signature(r#"<a x="a" y="bc"/>"#));
        assert_ne!(root_signature(r#"<a x="ab"/>"#), root_signature(r#"<a xa="b"/>"#));
    }

    #[test]
    fn trailing_nul_changes_text_signature() {
        // XML cannot carry a NUL, so build the text node directly.
        let text_sig = |t: &str| {
            let mut tree = Tree::new();
            let node = tree.new_text(t);
            let root = tree.root();
            tree.append_child(root, node);
            analyze(&tree).signature(node)
        };
        assert_ne!(text_sig("ab"), text_sig("ab\0"));
        assert_ne!(text_sig(""), text_sig("\0"));
        assert_eq!(text_sig("ab"), text_sig("ab"));
    }

    #[test]
    fn warm_and_fresh_scratch_give_the_same_signatures() {
        // The warm table has met every label of the corpus, in another
        // order, before it hashes the probe documents.
        let corpus = [
            r#"<z q="1"><y/><x>t</x></z>"#,
            r#"<cat><p a="1" b="2"><q>text</q></p><r/></cat>"#,
            r#"<cat><r b="2" a="1"/><?pi data?><!-- c --></cat>"#,
        ];
        let mut warm = crate::DiffScratch::new();
        for xml in corpus.iter().rev().chain(&corpus) {
            let d = Document::parse(xml).unwrap();
            analyze_into::<false>(&d.tree, &mut warm.labels, &mut warm.new_info);
        }
        for xml in corpus {
            let d = Document::parse(xml).unwrap();
            let mut fresh = crate::DiffScratch::new();
            analyze_into::<false>(&d.tree, &mut fresh.labels, &mut fresh.new_info);
            analyze_into::<false>(&d.tree, &mut warm.labels, &mut warm.old_info);
            for n in d.tree.post_order(d.tree.root()) {
                assert_eq!(warm.old_info.signature(n), fresh.new_info.signature(n), "{xml}");
            }
        }
    }
}
