//! Delta aggregation (composition).
//!
//! "We can aggregate and inverse deltas" (§4). Aggregation composes
//! `d1 : v1 → v2` with `d2 : v2 → v3` into a single delta `v1 → v3`.
//! Because deltas rely on persistent XIDs, the composition is computed
//! exactly: replay both deltas on a scratch copy of `v1`, then take the
//! XID-matched diff between `v1` and the resulting `v3`. This cancels
//! transient operations (a node inserted by `d1` and deleted by `d2`
//! vanishes entirely; two updates collapse into one) and re-minimizes the
//! within-parent move sets.

use crate::delta::Delta;
use crate::diff_by_xid::diff_by_xid;
use crate::error::ApplyError;
use crate::xiddoc::XidDocument;

/// Compose `first: base → v2` with `second: v2 → v3` into one delta
/// `base → v3`.
pub fn aggregate(base: &XidDocument, first: &Delta, second: &Delta) -> Result<Delta, ApplyError> {
    let mut scratch = base.clone();
    first.apply_to(&mut scratch)?;
    second.apply_to(&mut scratch)?;
    Ok(diff_by_xid(base, &scratch))
}

/// Compose an arbitrary chain of deltas over `base`.
pub fn aggregate_chain(base: &XidDocument, deltas: &[Delta]) -> Result<Delta, ApplyError> {
    let mut scratch = base.clone();
    for d in deltas {
        d.apply_to(&mut scratch)?;
    }
    Ok(diff_by_xid(base, &scratch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;
    use crate::xid::Xid;
    use xytree::Document;

    fn find(d: &XidDocument, label: &str) -> Xid {
        let n = d
            .doc
            .tree
            .descendants(d.doc.tree.root())
            .find(|&n| d.doc.tree.name(n) == Some(label))
            .unwrap();
        d.xid(n).unwrap()
    }

    fn update(xid: Xid, old: &str, new: &str) -> Delta {
        Delta::build(|b| {
            b.update(xid, old, new);
        })
    }

    fn one_move(xid: Xid, from_parent: Xid, to_parent: Xid) -> Delta {
        Delta::build(|b| {
            b.push(Op::Move { xid, from_parent, from_pos: 0, to_parent, to_pos: 0 });
        })
    }

    #[test]
    fn two_updates_collapse_to_one() {
        let base = XidDocument::parse_initial("<a><p>v0</p></a>").unwrap();
        let p_node = base.node(find(&base, "p")).unwrap();
        let txt = base.xid(base.doc.tree.first_child(p_node).unwrap()).unwrap();
        let agg = aggregate(&base, &update(txt, "v0", "v1"), &update(txt, "v1", "v2")).unwrap();
        assert_eq!(agg.len(), 1);
        match agg.ops[0] {
            Op::Update { old, new, .. } => {
                assert_eq!((agg.text(old), agg.text(new)), ("v0", "v2"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn insert_then_delete_cancels() {
        let mut base = XidDocument::parse_initial("<a/>").unwrap();
        let a = find(&base, "a");
        let stored = Document::parse("<tmp/>").unwrap();
        let tmp = stored.root_element().unwrap();
        let x = base.fresh_xid();
        let d1 = Delta::build(|b| {
            b.insert(x, a, 0, &stored.tree, tmp, &[x]);
        });
        let d2 = Delta::build(|b| {
            b.delete(x, a, 0, &stored.tree, tmp, &[x]);
        });
        let agg = aggregate(&base, &d1, &d2).unwrap();
        assert!(agg.is_empty(), "insert∘delete must cancel, got {}", agg.describe());
    }

    #[test]
    fn aggregate_equals_sequential_application() {
        let base = XidDocument::parse_initial("<a><x><m/></x><y/></a>").unwrap();
        let m = find(&base, "m");
        let x = find(&base, "x");
        let y = find(&base, "y");
        let a = find(&base, "a");
        let d1 = one_move(m, x, y);
        let d2 = one_move(m, y, a);
        // Sequential.
        let mut seq = base.clone();
        d1.apply_to(&mut seq).unwrap();
        d2.apply_to(&mut seq).unwrap();
        // Aggregated.
        let agg = aggregate(&base, &d1, &d2).unwrap();
        let mut once = base.clone();
        agg.apply_to(&mut once).unwrap();
        assert_eq!(once.doc.to_xml(), seq.doc.to_xml());
        assert_eq!(agg.counts().moves, 1, "move∘move should stay one move");
    }

    #[test]
    fn chain_of_three() {
        let base = XidDocument::parse_initial("<a><p>0</p></a>").unwrap();
        let p_node = base.node(find(&base, "p")).unwrap();
        let txt = base.xid(base.doc.tree.first_child(p_node).unwrap()).unwrap();
        let deltas = [update(txt, "0", "1"), update(txt, "1", "2"), update(txt, "2", "3")];
        let agg = aggregate_chain(&base, &deltas).unwrap();
        let mut v = base.clone();
        agg.apply_to(&mut v).unwrap();
        assert_eq!(v.doc.to_xml(), "<a><p>3</p></a>");
        assert_eq!(agg.len(), 1);
    }

    #[test]
    fn empty_chain_is_identity() {
        let base = XidDocument::parse_initial("<a/>").unwrap();
        let agg = aggregate_chain(&base, &[]).unwrap();
        assert!(agg.is_empty());
    }
}
