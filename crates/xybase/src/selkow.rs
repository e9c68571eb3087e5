//! Quadratic tree edit distance: Selkow's variant via Lu's algorithm (§3).
//!
//! "Lu's algorithm uses another edit based distance. The idea is, when a
//! node in subtree D1 matches with a node in subtree D2, to use the string
//! edit algorithm to match their respective children. In Selkow's variant,
//! insertion and deletion are restricted to the leaves of the tree. Thus,
//! applying Lu's algorithm in the case of Selkow's variant results in a time
//! complexity of O(|D1|·|D2|)."
//!
//! This is the scaling comparator of experiment E4 (DESIGN.md): it computes
//! a minimum edit script under subtree-granularity insert/delete + text
//! update, with the classic `O(|D1|·|D2|)` dynamic program over every pair
//! of same-path children sequences — no signatures, no weights, no moves.
//!
//! Costs (in nodes, so they are comparable to XyDiff op accounting):
//! deleting or inserting a subtree costs its node count; updating a text
//! node costs 1; matching identical content costs 0.

use xytree::{Document, NodeId, NodeKind, Tree};

/// Result of the quadratic tree diff.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelkowResult {
    /// Total edit cost (node-count units).
    pub cost: u64,
    /// Number of `(old node, new node)` pairs the DP examined — the measured
    /// work, used by the scaling benchmark to show the quadratic growth.
    pub pairs_examined: u64,
}

/// Compute the Selkow-variant edit distance between two documents.
pub fn selkow_distance(old: &Document, new: &Document) -> SelkowResult {
    let mut ctx = Ctx {
        old: &old.tree,
        new: &new.tree,
        old_sizes: subtree_sizes(&old.tree),
        new_sizes: subtree_sizes(&new.tree),
        pairs: 0,
    };
    let cost = ctx.dist(old.tree.root(), new.tree.root());
    SelkowResult { cost, pairs_examined: ctx.pairs }
}

struct Ctx<'a> {
    old: &'a Tree,
    new: &'a Tree,
    old_sizes: Vec<u64>,
    new_sizes: Vec<u64>,
    pairs: u64,
}

impl Ctx<'_> {
    /// Edit distance between the subtrees rooted at `o` and `n`.
    fn dist(&mut self, o: NodeId, n: NodeId) -> u64 {
        self.pairs += 1;
        match (self.old.kind(o), self.new.kind(n)) {
            (NodeKind::Document, NodeKind::Document) => self.children_dist(o, n),
            (NodeKind::Element(a), NodeKind::Element(b)) => {
                if a.name != b.name {
                    // Roots cannot be substituted: replace whole subtrees.
                    return self.old_sizes[o.index()] + self.new_sizes[n.index()];
                }
                // Attribute differences cost 1 each (set comparison).
                let mut cost = 0;
                for at in a.attrs {
                    match b.attr(&at.name) {
                        Some(v) if v == at.value => {}
                        _ => cost += 1,
                    }
                }
                for bt in b.attrs {
                    if a.attr(&bt.name).is_none() {
                        cost += 1;
                    }
                }
                cost + self.children_dist(o, n)
            }
            (NodeKind::Text(a), NodeKind::Text(b)) => u64::from(a != b),
            (NodeKind::Comment(a), NodeKind::Comment(b)) => u64::from(a != b),
            (
                NodeKind::Pi { target: t1, data: d1 },
                NodeKind::Pi { target: t2, data: d2 },
            ) => u64::from(t1 != t2 || d1 != d2),
            // Kind mismatch: replace whole subtrees.
            _ => self.old_sizes[o.index()] + self.new_sizes[n.index()],
        }
    }

    /// String-edit DP over the two children sequences (Lu's algorithm), with
    /// subtree-sized insert/delete costs and recursive substitution cost.
    fn children_dist(&mut self, o: NodeId, n: NodeId) -> u64 {
        let oc: Vec<NodeId> = self.old.children(o).collect();
        let nc: Vec<NodeId> = self.new.children(n).collect();
        if oc.is_empty() {
            return nc.iter().map(|&c| self.new_sizes[c.index()]).sum();
        }
        if nc.is_empty() {
            return oc.iter().map(|&c| self.old_sizes[c.index()]).sum();
        }
        // dp[j] = cost of transforming oc[..i] into nc[..j].
        let mut dp: Vec<u64> = Vec::with_capacity(nc.len() + 1);
        dp.push(0);
        for &c in &nc {
            dp.push(dp.last().unwrap() + self.new_sizes[c.index()]);
        }
        for &ocur in &oc {
            let del = self.old_sizes[ocur.index()];
            let mut prev_diag = dp[0];
            dp[0] += del;
            for (j, &ncur) in nc.iter().enumerate() {
                let ins = self.new_sizes[ncur.index()];
                let subst = prev_diag + self.dist(ocur, ncur);
                let delete = dp[j + 1] + del;
                let insert = dp[j] + ins;
                prev_diag = dp[j + 1];
                dp[j + 1] = subst.min(delete).min(insert);
            }
        }
        dp[nc.len()]
    }
}

fn subtree_sizes(tree: &Tree) -> Vec<u64> {
    let mut sizes = vec![0u64; tree.arena_len()];
    for n in tree.post_order(tree.root()) {
        let children_sum: u64 = tree.children(n).map(|c| sizes[c.index()]).sum();
        sizes[n.index()] = 1 + children_sum;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(xml: &str) -> Document {
        Document::parse(xml).unwrap()
    }

    #[test]
    fn identical_documents_cost_zero() {
        let a = d("<a><b>t</b><c x=\"1\"/></a>");
        let r = selkow_distance(&a, &a);
        assert_eq!(r.cost, 0);
        assert!(r.pairs_examined > 0);
    }

    #[test]
    fn text_update_costs_one() {
        let r = selkow_distance(&d("<a><b>old</b></a>"), &d("<a><b>new</b></a>"));
        assert_eq!(r.cost, 1);
    }

    #[test]
    fn leaf_insertion_costs_its_size() {
        let r = selkow_distance(&d("<a><b/></a>"), &d("<a><b/><c>t</c></a>"));
        assert_eq!(r.cost, 2); // <c> + its text
    }

    #[test]
    fn subtree_deletion_costs_node_count() {
        let r = selkow_distance(&d("<a><big><x/><y/><z/></big><k/></a>"), &d("<a><k/></a>"));
        assert_eq!(r.cost, 4); // big + x + y + z
    }

    #[test]
    fn label_mismatch_replaces_subtrees() {
        let r = selkow_distance(&d("<a><old><x/></old></a>"), &d("<a><new><x/></new></a>"));
        assert_eq!(r.cost, 4); // delete <old><x/> (2) + insert <new><x/> (2)
    }

    #[test]
    fn attribute_changes_cost_one_each() {
        // Children make whole-subtree replacement (cost 6) more expensive
        // than the three attribute edits.
        let r = selkow_distance(
            &d("<a x=\"1\" y=\"2\"><k/><l/></a>"),
            &d("<a x=\"9\" z=\"3\"><k/><l/></a>"),
        );
        // x updated (1), y deleted (1), z inserted (1).
        assert_eq!(r.cost, 3);
    }

    #[test]
    fn replacing_a_leaf_element_beats_attribute_edits() {
        // On childless elements the children-DP may prefer delete+insert
        // (cost 2) over three attribute operations.
        let r = selkow_distance(&d("<a x=\"1\" y=\"2\"/>"), &d("<a x=\"9\" z=\"3\"/>"));
        assert_eq!(r.cost, 2);
    }

    #[test]
    fn move_costs_delete_plus_insert() {
        // No move op in this model: relocation is paid twice. XyDiff's delta
        // for the same change is a single move op.
        let old = d("<a><p><m>text</m></p><q/></a>");
        let new = d("<a><p/><q><m>text</m></q></a>");
        let r = selkow_distance(&old, &new);
        assert_eq!(r.cost, 4); // <m>+text deleted (2) and inserted (2)
    }

    #[test]
    fn permuted_children_cost_more_than_xydiff_moves() {
        let old = d("<a><c1>x</c1><c2>y</c2><c3>z</c3></a>");
        let new = d("<a><c3>z</c3><c1>x</c1><c2>y</c2></a>");
        let r = selkow_distance(&old, &new);
        assert_eq!(r.cost, 4, "one rotation = delete c3 + insert c3 (2 nodes each)");
    }

    #[test]
    fn work_grows_quadratically() {
        // Same-label children forests make the DP examine ~|D1|·|D2| pairs.
        let make = |k: usize| {
            let body: String = (0..k).map(|i| format!("<item><v>{i}</v></item>")).collect();
            d(&format!("<list>{body}</list>"))
        };
        let small = selkow_distance(&make(10), &make(10)).pairs_examined;
        let large = selkow_distance(&make(40), &make(40)).pairs_examined;
        // 4x nodes should be ~16x pairs; allow slack but require >8x.
        assert!(
            large > small * 8,
            "expected quadratic growth: {small} -> {large}"
        );
    }

    #[test]
    fn distance_is_symmetric_for_these_costs() {
        let a = d("<a><b>t</b><c/></a>");
        let b = d("<a><c/><d>u</d></a>");
        let ab = selkow_distance(&a, &b).cost;
        let ba = selkow_distance(&b, &a).cost;
        assert_eq!(ab, ba);
    }
}
