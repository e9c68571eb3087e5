//! Phase 3: the BULD matching loop.
//!
//! "We remove the heaviest subtree of the queue … and construct a list of
//! candidates, e.g. nodes in the old document that have the same signature.
//! From these, we get the best candidate …, and match both nodes. If there
//! is no matching and the node is an element, its children are added to the
//! queue. If there are many candidates, the best candidate is one whose
//! parent matches the reference node's parent, if any. If no candidate is
//! accepted, we look one level higher. The number of levels we accept to
//! consider depends on the node weight. When a candidate is accepted, we
//! match the pair of subtrees and their ancestors as long as they have the
//! same label. The number of ancestors that we match depends on the node
//! weight." (§5.2)
//!
//! Two details keep the loop `O(n log n)` (§5.3):
//!
//! - Every candidate list keeps a **cursor** past candidates that are
//!   permanently consumed (matched/forbidden), so repeated pops over a
//!   signature with thousands of occurrences stay amortized linear.
//! - A **secondary index keyed by (signature, old parent)** finds "the first
//!   candidate with a matching parent in constant time" when the candidate
//!   list is long — the paper's device for the `d → 0` regime (e.g. the
//!   repeated manufacturer name in a product catalog).
//!
//! The loop allocates nothing per candidate: verification
//! ([`Tree::subtree_eq`]) walks sibling and parent links, and the unique-child
//! propagation sorts children in a table the [`Matching`] keeps for reuse.

#![doc = "xylint: hot-path"]

use crate::config::DiffOptions;
use crate::info::TreeInfo;
use crate::matching::Matching;
use crate::par::{ParallelRunner, SerialRunner};
use crate::propagate::match_unique_children;
use crate::report::DiffStats;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::OnceLock;
use xytree::hash::SigHashMap;
use xytree::{NodeId, NodeKind, Tree};

/// How many leading candidates per top-level seed the parallel
/// pre-verification pass checks. The serial loop's first probe for each seed
/// scans candidates front-to-back, so warming the head of each list converts
/// the most likely `subtree_eq` walks into memo hits.
const PREVERIFY_CANDIDATES: usize = 4;

/// Reusable phase-3 state: the old-document candidate index, the
/// heaviest-first priority queue, and the memo filled by the parallel
/// pre-verification pass. The three tables are keyed by signatures and node
/// ids, so they hash with one fold per key word ([`SigHashMap`]). Part of
/// [`crate::DiffScratch`]; a fresh value per diff is equivalent, reuse just
/// keeps the table and vector allocations warm.
#[derive(Debug, Default)]
pub struct BuldScratch {
    index: CandidateIndex,
    heap: BinaryHeap<Entry>,
    /// `(old candidate, new node) → subtree_eq` results computed ahead of the
    /// serial loop. `subtree_eq` is pure, so consulting the memo instead of
    /// re-walking cannot change any accept/reject decision.
    eq_memo: SigHashMap<(NodeId, NodeId), bool>,
}

/// Run the phase-3 matching loop, extending `matching` in place.
pub fn run(
    old: &Tree,
    new: &Tree,
    old_info: &TreeInfo,
    new_info: &TreeInfo,
    matching: &mut Matching,
    opts: &DiffOptions,
    stats: &mut DiffStats,
) {
    let mut scratch = BuldScratch::default();
    run_with(old, new, old_info, new_info, matching, opts, stats, &mut scratch, &SerialRunner);
}

/// [`run`] with caller-owned scratch, reusing its allocations, and a runner
/// for the candidate pre-verification pass (serial runners skip it).
#[allow(clippy::too_many_arguments)]
pub fn run_with(
    old: &Tree,
    new: &Tree,
    old_info: &TreeInfo,
    new_info: &TreeInfo,
    matching: &mut Matching,
    opts: &DiffOptions,
    stats: &mut DiffStats,
    scratch: &mut BuldScratch,
    runner: &dyn ParallelRunner,
) {
    let BuldScratch { index, heap, eq_memo } = scratch;
    index.rebuild(old, old_info, opts.max_candidates_scan);
    heap.clear();
    eq_memo.clear();
    if runner.threads() > 1 {
        preverify_top_level(old, new, old_info, new_info, index, eq_memo, runner);
    }
    let n_total = old_info.node_count + new_info.node_count;
    let w0 = new_info.total_weight;

    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Entry>, seq: &mut u64, node: NodeId| {
        heap.push(Entry { weight: new_info.weight(node), seq: *seq, node });
        *seq += 1;
    };
    // "To start, the queue only contains the root of the entire new
    // document."
    push(heap, &mut seq, new.root());

    while let Some(Entry { node: v, .. }) = heap.pop() {
        let enqueue_children = |heap: &mut BinaryHeap<Entry>, seq: &mut u64| {
            for c in new.children(v) {
                push(heap, seq, c);
            }
        };
        if !matching.available_new(v) {
            // Already matched (pre-matched root, ID match, or a propagation
            // that ran ahead of the queue) or forbidden: the node itself is
            // decided, but its children may still need signature matching —
            // e.g. the content below an ID-matched element, which can have
            // changed arbitrarily. Every node enters the queue at most once,
            // so this keeps the O(n log n) bound.
            enqueue_children(heap, &mut seq);
            continue;
        }
        let sig = new_info.signature(v);
        let chosen =
            index.select(old, new, v, sig, matching, old_info, new_info, eq_memo, opts, n_total, w0);
        match chosen {
            Some(c) => {
                let matched = match_subtrees(old, new, c, v, matching);
                stats.signature_matches += matched;
                propagate_up(old, new, c, v, matching, new_info, opts, n_total, w0, stats);
            }
            None => enqueue_children(heap, &mut seq),
        }
    }
}

/// Parallel candidate pre-verification: for every child of the new root
/// element (the heaviest subtrees the queue will pop first), verify the
/// leading same-signature candidates concurrently and memoize the results,
/// so the serial matching loop replays memo hits instead of walking
/// subtrees. Only size-compatible pairs are queued — a size mismatch already
/// proves inequality, so those pairs never reach `subtree_eq` on the serial
/// path either.
fn preverify_top_level(
    old: &Tree,
    new: &Tree,
    old_info: &TreeInfo,
    new_info: &TreeInfo,
    index: &CandidateIndex,
    eq_memo: &mut SigHashMap<(NodeId, NodeId), bool>,
    runner: &dyn ParallelRunner,
) {
    let Some(root_elem) =
        new.children(new.root()).find(|&n| matches!(new.kind(n), NodeKind::Element(_)))
    else {
        return;
    };
    // ALLOC-OK: pre-verification only runs with a parallel runner installed;
    // the serial path (the steady-state no-alloc one) never reaches here.
    let mut tasks: Vec<(NodeId, NodeId)> = Vec::new();
    for v in new.children(root_elem) {
        let Some(&slot) = index.by_sig.get(&new_info.signature(v)) else { continue };
        let size = new_info.size(v);
        tasks.extend(
            index.lists[slot]
                .nodes
                .iter()
                .filter(|&&c| old_info.size(c) == size)
                .take(PREVERIFY_CANDIDATES)
                .map(|&c| (c, v)),
        );
    }
    if tasks.len() < 2 {
        return;
    }
    let slots: Vec<OnceLock<bool>> = (0..tasks.len()).map(|_| OnceLock::new()).collect();
    runner.run(tasks.len(), &|i| {
        let (c, v) = tasks[i];
        let _ = slots[i].set(old.subtree_eq(c, new, v));
    });
    for (i, &(c, v)) in tasks.iter().enumerate() {
        if let Some(&eq) = slots[i].get() {
            eq_memo.insert((c, v), eq);
        }
    }
}

/// Priority-queue entry: heavier first, FIFO among equal weights ("when
/// several nodes have the same weight, the first subtree inserted in the
/// queue is chosen").
#[derive(Debug)]
struct Entry {
    weight: f64,
    seq: u64,
    node: NodeId,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.weight
            .total_cmp(&other.weight)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Candidate lists per signature, with consumed-prefix cursors, plus the
/// parent-keyed secondary index.
#[derive(Debug, Default)]
struct CandidateIndex {
    by_sig: SigHashMap<u64, usize>,
    lists: Vec<CandidateList>,
    by_sig_parent: SigHashMap<(u64, NodeId), Vec<NodeId>>,
}

#[derive(Debug)]
struct CandidateList {
    nodes: Vec<NodeId>,
    cursor: usize,
}

impl CandidateIndex {
    /// Repopulate for a new old-document, keeping table and list capacity.
    /// List slots are recycled in place via a live counter; slots beyond it
    /// are stale leftovers from a bigger earlier diff, unreachable because
    /// `by_sig` was cleared, and kept only for their capacity.
    fn rebuild(&mut self, old: &Tree, old_info: &TreeInfo, parent_index_threshold: usize) {
        let CandidateIndex { by_sig, lists, by_sig_parent } = self;
        by_sig.clear();
        by_sig_parent.clear();
        if by_sig.capacity() == 0 {
            by_sig.reserve(old_info.node_count);
        }
        let mut live = 0usize;
        // Document order, so "first candidate" ties break deterministically.
        for o in old.descendants(old.root()) {
            if o == old.root() {
                continue;
            }
            let sig = old_info.signature(o);
            let slot = *by_sig.entry(sig).or_insert_with(|| {
                if live < lists.len() {
                    lists[live].nodes.clear();
                    lists[live].cursor = 0;
                } else {
                    // ALLOC-OK: a list slot past every earlier diff's count;
                    // a warm scratch recycles them all.
                    lists.push(CandidateList { nodes: Vec::new(), cursor: 0 });
                }
                live += 1;
                live - 1
            });
            lists[slot].nodes.push(o);
        }
        // Parent groups are built only for signatures whose list is long
        // enough that `select` could ever consult them: it takes the indexed
        // path only when the live suffix exceeds the scan bound, and the live
        // suffix is a subset of the full list. In the common case (almost all
        // signatures occur a handful of times) this skips one hash insert per
        // node. Each group stays in document order because each signature's
        // node list is.
        for (&sig, &slot) in by_sig.iter() {
            let nodes = &lists[slot].nodes;
            if nodes.len() <= parent_index_threshold {
                continue;
            }
            for &o in nodes {
                if let Some(p) = old.parent(o) {
                    by_sig_parent.entry((sig, p)).or_default().push(o);
                }
            }
        }
    }

    /// Choose the best old-document candidate for new node `v`, or `None`.
    #[allow(clippy::too_many_arguments)]
    fn select(
        &mut self,
        old: &Tree,
        new: &Tree,
        v: NodeId,
        sig: u64,
        matching: &Matching,
        old_info: &TreeInfo,
        new_info: &TreeInfo,
        eq_memo: &SigHashMap<(NodeId, NodeId), bool>,
        opts: &DiffOptions,
        n_total: usize,
        w0: f64,
    ) -> Option<NodeId> {
        let slot = *self.by_sig.get(&sig)?;
        // Advance the cursor past permanently consumed candidates.
        {
            let list = &mut self.lists[slot];
            while list.cursor < list.nodes.len()
                && !matching.available_old(list.nodes[list.cursor])
            {
                list.cursor += 1;
            }
            if list.cursor >= list.nodes.len() {
                return None;
            }
        }
        let list = &self.lists[slot];
        let live = &list.nodes[list.cursor..];
        // Verification with two fast outs before the subtree walk: exact
        // subtree sizes from the phase-2 analysis (equal signatures with
        // unequal sizes are a hash collision — O(1) reject), then the memo
        // filled by the parallel pre-verification pass. Both are pure
        // restatements of what `subtree_eq` would conclude, so the chosen
        // candidate is identical with or without them.
        let v_size = new_info.size(v);
        let accepts = |c: NodeId| {
            matching.available_old(c)
                && old_info.size(c) == v_size
                && match eq_memo.get(&(c, v)) {
                    Some(&eq) => eq,
                    None => old.subtree_eq(c, new, v),
                }
        };

        // Single candidate: "the first matchings are clear".
        if live.len() == 1 {
            return accepts(live[0]).then_some(live[0]);
        }

        let d = opts.lookup_depth(n_total, new_info.weight(v), w0);

        // Level-by-level ancestor guidance.
        let mut anc_new = v;
        for level in 1..=d {
            let Some(p) = new.parent(anc_new) else { break };
            anc_new = p;
            let Some(target) = matching.old_of_new(anc_new) else { continue };
            if level == 1 && live.len() > opts.max_candidates_scan {
                // Constant-time path via the parent index.
                if let Some(group) = self.by_sig_parent.get(&(sig, target)) {
                    if let Some(&c) = group.iter().find(|&&c| accepts(c)) {
                        return Some(c);
                    }
                }
            } else {
                // Bounded prefix scan (the cursor guarantees the prefix is
                // not full of consumed candidates).
                for &c in live.iter().take(opts.max_candidates_scan.max(64)) {
                    if ancestor_at(old, c, level) == Some(target) && accepts(c) {
                        return Some(c);
                    }
                }
            }
        }
        // No ancestor evidence: fall back to the first acceptable candidate
        // (document order).
        live.iter().copied().find(|&c| accepts(c))
    }
}

fn ancestor_at(tree: &Tree, node: NodeId, level: usize) -> Option<NodeId> {
    let mut cur = node;
    for _ in 0..level {
        cur = tree.parent(cur)?;
    }
    Some(cur)
}

/// Match every corresponding node of two content-identical subtrees.
/// Descendant pairs already matched or forbidden (e.g. via IDs) are skipped.
///
/// When no pair had to be skipped the whole subtree now corresponds node
/// for node, and `v` is settled: phases 4 and 5 need not look below it.
/// A skipped pair (an ID match inside, a forbidden node) leaves nothing
/// marked, so those phases walk the subtree as before.
fn match_subtrees(
    old: &Tree,
    new: &Tree,
    o: NodeId,
    v: NodeId,
    matching: &mut Matching,
) -> usize {
    let mut count = 0;
    let mut whole = true;
    for (oc, nc) in old.descendants(o).zip(new.descendants(v)) {
        if matching.can_match(oc, nc) {
            matching.add(oc, nc);
            count += 1;
        } else {
            whole = false;
        }
    }
    if whole {
        matching.settle(v);
    }
    count
}

/// "Match their ancestors as long as they have the same label", up to the
/// weight-bounded depth, matching unique-label children of each newly
/// matched ancestor pair on the way (the immediate part of lazy-down).
#[allow(clippy::too_many_arguments)]
fn propagate_up(
    old: &Tree,
    new: &Tree,
    o: NodeId,
    v: NodeId,
    matching: &mut Matching,
    new_info: &TreeInfo,
    opts: &DiffOptions,
    n_total: usize,
    w0: f64,
    stats: &mut DiffStats,
) {
    let levels = opts.lookup_depth(n_total, new_info.weight(v), w0);
    let mut po = old.parent(o);
    let mut pn = new.parent(v);
    for _ in 0..levels {
        let (Some(co), Some(cn)) = (po, pn) else { break };
        if !matching.can_match(co, cn) {
            break;
        }
        // Same label (elements) or same kind (the document pair is
        // pre-matched, so this is effectively elements only).
        let compatible = match (old.kind(co), new.kind(cn)) {
            (xytree::NodeKind::Element(a), xytree::NodeKind::Element(b)) => a.name == b.name,
            _ => false,
        };
        if !compatible {
            break;
        }
        matching.add(co, cn);
        stats.propagation_matches += 1;
        if opts.enable_unique_child_propagation {
            // match_unique_children updates the counter itself.
            match_unique_children(old, new, matching, co, cn, stats);
        }
        po = old.parent(co);
        pn = new.parent(cn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::analyze;
    use xytree::Document;

    fn run_buld(old_xml: &str, new_xml: &str, opts: &DiffOptions) -> (Document, Document, Matching, DiffStats) {
        let old = Document::parse(old_xml).unwrap();
        let new = Document::parse(new_xml).unwrap();
        let old_info = analyze(&old.tree);
        let new_info = analyze(&new.tree);
        let mut matching = Matching::new(old.tree.arena_len(), new.tree.arena_len());
        matching.add(old.tree.root(), new.tree.root());
        let mut stats = DiffStats::default();
        run(&old.tree, &new.tree, &old_info, &new_info, &mut matching, opts, &mut stats);
        (old, new, matching, stats)
    }

    fn by_label(d: &Document, l: &str) -> NodeId {
        d.tree.descendants(d.tree.root()).find(|&n| d.tree.name(n) == Some(l)).unwrap()
    }

    #[test]
    fn identical_documents_fully_match() {
        let xml = "<a><b>t1</b><c><d/>t2</c></a>";
        let (old, _new, m, s) = run_buld(xml, xml, &DiffOptions::default());
        let total = old.tree.subtree_size(old.tree.root());
        assert_eq!(m.matched_count(), total);
        assert_eq!(s.signature_matches, total - 1); // all but the pre-matched root
    }

    #[test]
    fn moved_subtree_matches_by_signature() {
        let (old, new, m, _s) = run_buld(
            "<a><x><sub><k1/><k2/>payload</sub></x><y/></a>",
            "<a><x/><y><sub><k1/><k2/>payload</sub></y></a>",
            &DiffOptions::default(),
        );
        assert_eq!(
            m.old_of_new(by_label(&new, "sub")),
            Some(by_label(&old, "sub")),
            "the identical subtree must match across the move"
        );
    }

    #[test]
    fn heavy_subtree_forces_ancestor_match() {
        // §5.1: "a large subtree may force the matching of its ancestors up
        // to the root". The wrapper labels agree, the heavy payload matches
        // by signature, ancestors follow.
        let payload = "<p><q>lots and lots of text content here</q><r>more text</r></p>";
        let (old, new, m, _s) = run_buld(
            &format!("<root><wrap>{payload}</wrap></root>"),
            &format!("<root><wrap>{payload}<extra/></wrap></root>"),
            &DiffOptions::default(),
        );
        assert!(m.is_matched_new(by_label(&new, "wrap")));
        assert!(m.is_matched_new(by_label(&new, "root")));
        assert_eq!(m.old_of_new(by_label(&new, "p")), Some(by_label(&old, "p")));
    }

    #[test]
    fn candidate_choice_follows_matched_parent() {
        // Two identical <item>x</item> under different parents; the one
        // whose parent matches must be chosen.
        let old_xml = "<a><left><item>x</item><anchor>AAAAAAAAAA</anchor></left><right><item>x</item><anchor2>BBBBBBBBBB</anchor2></right></a>";
        let new_xml = "<a><left><item>x</item><anchor>AAAAAAAAAA</anchor></left><right><item>x</item><anchor2>BBBBBBBBBB</anchor2></right></a>";
        let (old, new, m, _s) = run_buld(old_xml, new_xml, &DiffOptions::default());
        // The left item matches the left item, not the right one.
        let old_left_item = old.tree.child_at(by_label(&old, "left"), 0).unwrap();
        let new_left_item = new.tree.child_at(by_label(&new, "left"), 0).unwrap();
        assert_eq!(m.old_of_new(new_left_item), Some(old_left_item));
    }

    #[test]
    fn children_enqueued_when_parent_unmatched() {
        // The root element label changed, so the top subtree never matches,
        // but the children still match individually.
        let (old, new, m, _s) = run_buld(
            "<oldroot><a>one</a><b>two</b></oldroot>",
            "<newroot><a>one</a><b>two</b></newroot>",
            &DiffOptions::default(),
        );
        assert_eq!(m.old_of_new(by_label(&new, "a")), Some(by_label(&old, "a")));
        assert_eq!(m.old_of_new(by_label(&new, "b")), Some(by_label(&old, "b")));
        assert!(!m.is_matched_new(by_label(&new, "newroot")));
    }

    #[test]
    fn unique_child_propagation_matches_changed_price() {
        // The paper's Figure 2 narrative: Name/zy456 matches, parent Product
        // is matched by propagation, then the Price children match as unique
        // labels although their content differs.
        let (old, new, m, _s) = run_buld(
            "<Product><Name>zy456</Name><Price>$799</Price></Product>",
            "<Product><Name>zy456</Name><Price>$699</Price></Product>",
            &DiffOptions::default(),
        );
        assert_eq!(
            m.old_of_new(by_label(&new, "Price")),
            Some(by_label(&old, "Price"))
        );
        // The price *text* is left for phase 4 (lazy down): one propagation
        // pass matches it, enabling an update op instead of delete+insert.
        let info = analyze(&new.tree);
        let mut m = m;
        let mut stats = DiffStats::default();
        crate::propagate::propagation_pass(&old.tree, &new.tree, &info, &mut m, &mut stats);
        let old_t = old.tree.first_child(by_label(&old, "Price")).unwrap();
        let new_t = new.tree.first_child(by_label(&new, "Price")).unwrap();
        assert_eq!(m.old_of_new(new_t), Some(old_t));
    }

    #[test]
    fn disabling_unique_child_propagation_is_lazier() {
        let opts = DiffOptions {
            enable_unique_child_propagation: false,
            ..Default::default()
        };
        let (_old, new, m, _s) = run_buld(
            "<Product><Name>zy456</Name><Price>$799</Price></Product>",
            "<Product><Name>zy456</Name><Price>$699</Price></Product>",
            &opts,
        );
        // Without the immediate propagation (and without phase 4, which this
        // test does not run), the changed Price stays unmatched.
        assert!(!m.is_matched_new(by_label(&new, "Price")));
    }

    #[test]
    fn repeated_identical_nodes_all_match() {
        // Exercises the candidate-cursor path: many identical siblings.
        let items = "<i/>".repeat(200);
        let (_old, new, m, _s) = run_buld(
            &format!("<list>{items}</list>"),
            &format!("<list>{items}</list>"),
            &DiffOptions { max_candidates_scan: 4, ..Default::default() },
        );
        let list = by_label(&new, "list");
        assert!(new.tree.children(list).all(|c| m.is_matched_new(c)));
    }

    #[test]
    fn parent_index_resolves_repeated_text() {
        // "multiple occurrences of a short text node in a large document,
        // e.g. the product manufacturer for every product in a catalog"
        // (§5.3). Each ACME text must match the one under its own product.
        let mut old = String::from("<catalog>");
        let mut new = String::from("<catalog>");
        for i in 0..30 {
            old.push_str(&format!("<product><name>item{i}</name><maker>ACME</maker></product>"));
            new.push_str(&format!("<product><name>item{i}</name><maker>ACME</maker></product>"));
        }
        old.push_str("</catalog>");
        new.push_str("</catalog>");
        let (old, new, m, _s) = run_buld(&old, &new, &DiffOptions { max_candidates_scan: 2, ..Default::default() });
        // Every maker text matches, and matches *within the same product*.
        for (op, np) in old
            .tree
            .child_elements(by_label(&old, "catalog"), "product")
            .zip(new.tree.child_elements(by_label(&new, "catalog"), "product"))
        {
            let om = old.tree.child_element(op, "maker").unwrap();
            let nm = new.tree.child_element(np, "maker").unwrap();
            let ot = old.tree.first_child(om).unwrap();
            let nt = new.tree.first_child(nm).unwrap();
            assert_eq!(m.old_of_new(nt), Some(ot), "maker text must match within its product");
        }
    }

    #[test]
    fn empty_documents_do_nothing() {
        let (_o, _n, m, s) = run_buld("<a/>", "<b/>", &DiffOptions::default());
        assert_eq!(m.matched_count(), 1); // roots only
        assert_eq!(s.signature_matches, 0);
    }
}
