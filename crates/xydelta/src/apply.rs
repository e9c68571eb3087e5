//! Phased delta application.
//!
//! A delta is a *set* of operations (§4), so application cannot depend on op
//! order. We apply in five phases chosen so that recorded positions are
//! meaningful at the moment they are used:
//!
//! 1. **Detach moves** — every moved subtree is unlinked (old positions are
//!    thereby consumed before deletions disturb them).
//! 2. **Deletes** — deleted subtrees are unlinked and their XIDs retired.
//!    Nodes that moved *out* of a deleted subtree were already detached in
//!    phase 1, so they survive.
//! 3. **Inserts & re-inserts** — inserted subtrees and detached moved
//!    subtrees are placed at their final positions in the new version,
//!    ascending per parent. Because the children that stay put keep their
//!    relative order, inserting at ascending final indexes reproduces the
//!    exact child sequence. Targets that depend on other inserts (a move
//!    into a freshly inserted subtree) are resolved by fixpoint iteration.
//! 4. **Text updates** — verified against the stored old value (completed
//!    deltas carry it precisely so that stale application fails loudly).
//! 5. **Attribute operations** — likewise verified.

use crate::delta::Delta;
use crate::error::{ApplyError, ApplyErrorKind};
use crate::ops::Op;
use crate::xid::Xid;
use crate::xiddoc::XidDocument;
use xytree::{NodeId, Symbol, Tree};

/// Apply `delta` to `doc` in place. On error the document may be left
/// partially modified; apply to a clone when atomicity matters.
pub(crate) fn apply(delta: &Delta, doc: &mut XidDocument) -> Result<(), ApplyError> {
    apply_read(delta, false, doc)
}

/// Apply the inverse of `delta` to `doc` in place — the same result and
/// errors as `delta.inverted().apply_to(doc)`, without the copy of the
/// delta's buffers that `inverted()` makes. Walking a version chain
/// backwards does this once per hop.
pub(crate) fn apply_inverse(delta: &Delta, doc: &mut XidDocument) -> Result<(), ApplyError> {
    apply_read(delta, true, doc)
}

/// Apply `delta`, or with `inverse` its inverse: an [`Op`] is a record of
/// handles, so reading it backwards ([`Op::inverted`]) copies nothing (§4: a
/// completed delta holds its own inverse).
fn apply_read(delta: &Delta, inverse: bool, doc: &mut XidDocument) -> Result<(), ApplyError> {
    let ops =
        || delta.ops.iter().map(|op| if inverse { op.inverted() } else { *op }).enumerate();
    doc.restamp();
    // Phase 1: detach moved subtrees.
    for (i, op) in ops() {
        if let Op::Move { xid, .. } = op {
            let node = doc
                .node(xid)
                .ok_or_else(|| ApplyError::at(i, ApplyErrorKind::UnknownXid { xid, op: "move" }))?;
            if node == doc.doc.tree.root() {
                // A foreign/mismatched delta can resolve to the document
                // node; that is bad data, not a caller bug.
                return Err(ApplyError::at(
                    i,
                    ApplyErrorKind::MalformedOp("move targets the document root"),
                ));
            }
            doc.doc.tree.detach(node);
        }
    }

    // Phase 2: deletes.
    for (i, op) in ops() {
        if let Op::Delete { xid, .. } = op {
            let node = doc.node(xid).ok_or_else(|| {
                ApplyError::at(i, ApplyErrorKind::UnknownXid { xid, op: "delete" })
            })?;
            if node == doc.doc.tree.root() {
                return Err(ApplyError::at(
                    i,
                    ApplyErrorKind::MalformedOp("delete targets the document root"),
                ));
            }
            doc.doc.tree.detach(node);
            let subtree: Vec<NodeId> = doc.doc.tree.post_order(node).collect();
            for n in subtree {
                doc.clear_xid(n);
            }
        }
    }

    // Phase 3: inserts and move re-attachments, by fixpoint over target
    // parents.
    let mut pending: Vec<Placement<'_>> = Vec::new();
    for (i, op) in ops() {
        match op {
            Op::Insert { parent, pos, subtree, xid_map, .. } => {
                // Application happens past the into_owned boundary;
                // `payload()` enforces that borrowed payloads never get here.
                let (tree, node) = delta.payload(subtree);
                pending.push(Placement {
                    op_index: i,
                    parent,
                    pos,
                    what: What::Graft { tree, node, xids: delta.xid_map(xid_map) },
                });
            }
            Op::Move { xid, to_parent, to_pos, .. } => {
                let node = doc.node(xid).ok_or_else(|| {
                    ApplyError::at(i, ApplyErrorKind::UnknownXid { xid, op: "move" })
                })?;
                pending.push(Placement {
                    op_index: i,
                    parent: to_parent,
                    pos: to_pos,
                    what: What::Reattach(node),
                });
            }
            _ => {}
        }
    }
    // Placements under one parent must be applied together, in ascending
    // final position: inserting at ascending indexes into the parent's
    // surviving children (which keep their relative order) reproduces the
    // exact child sequence. Applying a parent's placements piecemeal across
    // passes could interleave wrongly when another placement attaches the
    // parent midway through a pass, so each pass applies whole parent-groups
    // whose parent is attached at the moment the group is reached.
    pending.sort_by(|a, b| a.parent.cmp(&b.parent).then(a.pos.cmp(&b.pos)));
    while !pending.is_empty() {
        let mut progressed = false;
        let mut still_pending: Vec<Placement<'_>> = Vec::with_capacity(pending.len());
        let mut i = 0;
        while i < pending.len() {
            let mut j = i + 1;
            while j < pending.len() && pending[j].parent == pending[i].parent {
                j += 1;
            }
            let ready = doc
                .node(pending[i].parent)
                .is_some_and(|p| doc.doc.tree.is_attached(p));
            if ready {
                for placement in &pending[i..j] {
                    place(doc, placement)?;
                }
                progressed = true;
            } else {
                still_pending.extend(pending[i..j].iter().cloned());
            }
            i = j;
        }
        if !progressed && !still_pending.is_empty() {
            return Err(ApplyError::new(ApplyErrorKind::UnresolvableTargets {
                remaining: still_pending.len(),
            }));
        }
        pending = still_pending;
    }

    // Phase 4: text updates.
    for (i, op) in ops() {
        if let Op::Update { xid, old, new } = op {
            let (old, new) = (delta.text(old), delta.text(new));
            let node = doc.node(xid).ok_or_else(|| {
                ApplyError::at(i, ApplyErrorKind::UnknownXid { xid, op: "update" })
            })?;
            match doc.doc.tree.text(node) {
                Some(t) if t == old => doc.doc.tree.set_text(node, new),
                Some(t) => {
                    return Err(ApplyError::at(
                        i,
                        ApplyErrorKind::StaleUpdate {
                            xid,
                            expected: old.to_string(),
                            found: t.to_string(),
                        },
                    ))
                }
                None => return Err(ApplyError::at(i, ApplyErrorKind::NotAText(xid))),
            }
        }
    }

    // Phase 5: attribute operations. Deletes and updates go first (keyed by
    // name); inserts are then applied per element in ascending final
    // position, so the surviving attributes — which keep their relative
    // order — interleave into the exact new attribute sequence (the same
    // argument as phase 3's child placement).
    let mut attr_inserts: Vec<(Xid, usize, Symbol, &str, usize)> = Vec::new();
    for (i, op) in ops() {
        let (element, name, old, new) = match op {
            Op::AttrDelete { element, name, old, .. } => (element, name, old, None),
            Op::AttrUpdate { element, name, old, new } => {
                (element, name, old, Some(delta.text(new)))
            }
            Op::AttrInsert { element, name, value, pos } => {
                attr_inserts.push((element, pos, name, delta.text(value), i));
                continue;
            }
            _ => continue,
        };
        let old = delta.text(old);
        let kind = if new.is_some() { "attr-update" } else { "attr-delete" };
        let e = element_of(doc, element, kind, i)?;
        let elem = doc
            .doc
            .tree
            .element(e)
            .ok_or_else(|| ApplyError::at(i, ApplyErrorKind::NotAnElement(element)))?;
        match (elem.attr_sym(name), new) {
            (Some(v), Some(new)) if v == old => {
                doc.doc.tree.set_attr(e, name, new);
            }
            (Some(v), None) if v == old => {
                doc.doc.tree.remove_attr(e, &name);
            }
            (found, new) => {
                let problem = match (found.is_some(), new.is_some()) {
                    (true, true) => "attribute to update has a different value",
                    (false, true) => "attribute to update is missing",
                    (true, false) => "attribute to delete has a different value",
                    (false, false) => "attribute to delete is missing",
                };
                return Err(ApplyError::at(
                    i,
                    ApplyErrorKind::AttrConflict { element, name: name.to_string(), problem },
                ));
            }
        }
    }
    attr_inserts.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    for (element, pos, name, value, i) in attr_inserts {
        let e = element_of(doc, element, "attr-insert", i)?;
        let elem = doc
            .doc
            .tree
            .element(e)
            .ok_or_else(|| ApplyError::at(i, ApplyErrorKind::NotAnElement(element)))?;
        if elem.attr_sym(name).is_some() {
            return Err(ApplyError::at(
                i,
                ApplyErrorKind::AttrConflict {
                    element,
                    name: name.to_string(),
                    problem: "attribute to insert already exists",
                },
            ));
        }
        // Positions are fidelity hints over a semantically unordered set
        // (§5.2), so out-of-range values clamp instead of erroring.
        doc.doc.tree.insert_attr_at(e, pos, name, value);
    }
    Ok(())
}

#[derive(Clone)]
struct Placement<'a> {
    op_index: usize,
    parent: Xid,
    pos: usize,
    what: What<'a>,
}

#[derive(Clone)]
enum What<'a> {
    Graft { tree: &'a Tree, node: NodeId, xids: &'a [Xid] },
    Reattach(NodeId),
}

fn element_of(
    doc: &XidDocument,
    xid: Xid,
    op: &'static str,
    op_index: usize,
) -> Result<NodeId, ApplyError> {
    doc.node(xid)
        .ok_or_else(|| ApplyError::at(op_index, ApplyErrorKind::UnknownXid { xid, op }))
}

fn place(doc: &mut XidDocument, placement: &Placement<'_>) -> Result<(), ApplyError> {
    #[allow(clippy::expect_used)]
    let parent_node = doc
        .node(placement.parent)
        // INVARIANT: the fixpoint loop only dispatches parent-groups whose
        // parent already resolved and is attached.
        .expect("caller checked parent resolves");
    let count = doc.doc.tree.children_count(parent_node);
    if placement.pos > count {
        return Err(ApplyError::at(
            placement.op_index,
            ApplyErrorKind::PositionOutOfRange {
                parent: placement.parent,
                pos: placement.pos,
                len: count,
            },
        ));
    }
    match &placement.what {
        What::Reattach(node) => {
            doc.doc.tree.insert_child_at(parent_node, placement.pos, *node);
        }
        What::Graft { tree, node, xids } => {
            let copied = doc.doc.tree.copy_subtree_from(tree, *node);
            doc.doc.tree.insert_child_at(parent_node, placement.pos, copied);
            // Bind the op's XIDs to the grafted nodes, postfix order.
            let nodes: Vec<NodeId> = doc.doc.tree.post_order(copied).collect();
            if nodes.len() != xids.len() {
                return Err(ApplyError::at(
                    placement.op_index,
                    ApplyErrorKind::MalformedOp(
                        "insert op XID-map length differs from subtree size",
                    ),
                ));
            }
            for (n, &x) in nodes.iter().zip(*xids) {
                doc.set_xid(*n, x);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xytree::Document;

    fn xd(xml: &str) -> XidDocument {
        XidDocument::parse_initial(xml).unwrap()
    }

    fn xid_of_label(d: &XidDocument, label: &str) -> Xid {
        let n = d
            .doc
            .tree
            .descendants(d.doc.tree.root())
            .find(|&n| d.doc.tree.name(n) == Some(label))
            .unwrap_or_else(|| panic!("no element <{label}>"));
        d.xid(n).unwrap()
    }

    #[test]
    fn update_text() {
        let mut d = xd("<a><p>old</p></a>");
        let p = d.doc.tree.child_at(d.doc.root_element().unwrap(), 0).unwrap();
        let txt = d.xid(d.doc.tree.first_child(p).unwrap()).unwrap();
        Delta::build(|b| {
            b.update(txt, "old", "new");
        })
        .apply_to(&mut d)
        .unwrap();
        assert_eq!(d.doc.to_xml(), "<a><p>new</p></a>");
    }

    #[test]
    fn stale_update_rejected() {
        let mut d = xd("<a><p>current</p></a>");
        let p = d.doc.tree.child_at(d.doc.root_element().unwrap(), 0).unwrap();
        let txt = d.xid(d.doc.tree.first_child(p).unwrap()).unwrap();
        let err = Delta::build(|b| {
            b.update(txt, "other", "new");
        })
        .apply_to(&mut d)
        .unwrap_err();
        assert!(matches!(err.kind, ApplyErrorKind::StaleUpdate { .. }));
    }

    #[test]
    fn delete_subtree_retires_xids() {
        let mut d = xd("<a><b><c/></b><k/></a>");
        let b_xid = xid_of_label(&d, "b");
        let c_xid = xid_of_label(&d, "c");
        let a_xid = xid_of_label(&d, "a");
        let b_node = d.node(b_xid).unwrap();
        let map = d.xid_map_of(b_node);
        let delta = Delta::build(|b| {
            b.delete(b_xid, a_xid, 0, &d.doc.tree, b_node, map.xids());
        });
        delta.apply_to(&mut d).unwrap();
        assert_eq!(d.doc.to_xml(), "<a><k/></a>");
        assert_eq!(d.node(b_xid), None);
        assert_eq!(d.node(c_xid), None);
        d.validate().unwrap();
    }

    #[test]
    fn insert_subtree_binds_xids() {
        let mut d = xd("<a><k/></a>");
        let a_xid = xid_of_label(&d, "a");
        let ins_doc = Document::parse("<b><c/>t</b>").unwrap();
        // Postfix order of <b><c/>t</b>: c, t, b — allocate 3 fresh xids.
        let xids = [d.fresh_xid(), d.fresh_xid(), d.fresh_xid()];
        let b_xid = xids[2];
        Delta::build(|b| {
            b.insert(b_xid, a_xid, 0, &ins_doc.tree, ins_doc.root_element().unwrap(), &xids);
        })
        .apply_to(&mut d)
        .unwrap();
        assert_eq!(d.doc.to_xml(), "<a><b><c/>t</b><k/></a>");
        let b_node = d.node(b_xid).unwrap();
        assert_eq!(d.doc.tree.name(b_node), Some("b"));
        d.validate().unwrap();
    }

    #[test]
    fn move_between_parents() {
        let mut d = xd("<a><x><m/></x><y/></a>");
        let m = xid_of_label(&d, "m");
        let x = xid_of_label(&d, "x");
        let y = xid_of_label(&d, "y");
        Delta::build(|b| {
            b.push(Op::Move { xid: m, from_parent: x, from_pos: 0, to_parent: y, to_pos: 0 });
        })
        .apply_to(&mut d)
        .unwrap();
        assert_eq!(d.doc.to_xml(), "<a><x/><y><m/></y></a>");
    }

    #[test]
    fn reorder_within_parent() {
        let mut d = xd("<a><p1/><p2/><p3/></a>");
        let p3 = xid_of_label(&d, "p3");
        let a = xid_of_label(&d, "a");
        Delta::build(|b| {
            b.push(Op::Move { xid: p3, from_parent: a, from_pos: 2, to_parent: a, to_pos: 0 });
        })
        .apply_to(&mut d)
        .unwrap();
        assert_eq!(d.doc.to_xml(), "<a><p3/><p1/><p2/></a>");
    }

    #[test]
    fn move_into_inserted_subtree_resolves() {
        let mut d = xd("<a><m/></a>");
        let a = xid_of_label(&d, "a");
        let m = xid_of_label(&d, "m");
        let ins_doc = Document::parse("<box/>").unwrap();
        let box_xid = d.fresh_xid();
        Delta::build(|b| {
            // Move listed before the insert it depends on: fixpoint must cope.
            b.push(Op::Move { xid: m, from_parent: a, from_pos: 0, to_parent: box_xid, to_pos: 0 })
                .insert(box_xid, a, 0, &ins_doc.tree, ins_doc.root_element().unwrap(), &[box_xid]);
        })
        .apply_to(&mut d)
        .unwrap();
        assert_eq!(d.doc.to_xml(), "<a><box><m/></box></a>");
    }

    #[test]
    fn unresolvable_target_detected() {
        let mut d = xd("<a><m/></a>");
        let a = xid_of_label(&d, "a");
        let m = xid_of_label(&d, "m");
        let err = Delta::build(|b| {
            b.push(Op::Move { xid: m, from_parent: a, from_pos: 0, to_parent: Xid(999), to_pos: 0 });
        })
        .apply_to(&mut d)
        .unwrap_err();
        assert!(matches!(err.kind, ApplyErrorKind::UnresolvableTargets { remaining: 1 }));
    }

    #[test]
    fn move_out_of_deleted_subtree_survives() {
        let mut d = xd("<a><dying><keep/></dying><safe/></a>");
        let a = xid_of_label(&d, "a");
        let dying = xid_of_label(&d, "dying");
        let keep = xid_of_label(&d, "keep");
        let safe = xid_of_label(&d, "safe");
        // What the delete stores: <dying> without the node that moved out.
        let stored = Document::parse("<dying/>").unwrap();
        Delta::build(|b| {
            b.delete(dying, a, 0, &stored.tree, stored.root_element().unwrap(), &[dying])
                .push(Op::Move { xid: keep, from_parent: dying, from_pos: 0, to_parent: safe, to_pos: 0 });
        })
        .apply_to(&mut d)
        .unwrap();
        assert_eq!(d.doc.to_xml(), "<a><safe><keep/></safe></a>");
        assert!(d.node(keep).is_some(), "moved-out node keeps its XID");
        assert_eq!(d.node(dying), None);
    }

    #[test]
    fn multiple_inserts_same_parent_ascending_positions() {
        let mut d = xd("<a><s1/><s2/></a>");
        let a = xid_of_label(&d, "a");
        let doc = Document::parse("<i><i0/><i2/><i4/></i>").unwrap();
        let child = |i| doc.tree.child_at(doc.root_element().unwrap(), i).unwrap();
        let (x0, x2, x4) = (d.fresh_xid(), d.fresh_xid(), d.fresh_xid());
        // Final layout: i0 s1 i2 s2 i4 — ops given out of order.
        Delta::build(|b| {
            b.insert(x4, a, 4, &doc.tree, child(2), &[x4])
                .insert(x0, a, 0, &doc.tree, child(0), &[x0])
                .insert(x2, a, 2, &doc.tree, child(1), &[x2]);
        })
        .apply_to(&mut d)
        .unwrap();
        assert_eq!(d.doc.to_xml(), "<a><i0/><s1/><i2/><s2/><i4/></a>");
    }

    #[test]
    fn attr_ops_roundtrip() {
        let mut d = xd("<a k=\"1\" gone=\"x\"/>");
        let a = xid_of_label(&d, "a");
        Delta::build(|b| {
            b.attr_update(a, "k", "1", "2").attr_delete(a, "gone", "x", 1).attr_insert(a, "fresh", "f", 1);
        })
        .apply_to(&mut d)
        .unwrap();
        assert_eq!(d.doc.tree.attr(d.node(a).unwrap(), "k"), Some("2"));
        assert_eq!(d.doc.tree.attr(d.node(a).unwrap(), "gone"), None);
        assert_eq!(d.doc.tree.attr(d.node(a).unwrap(), "fresh"), Some("f"));
    }

    #[test]
    fn attr_conflicts_detected() {
        let mut d = xd("<a k=\"1\"/>");
        let a = xid_of_label(&d, "a");
        let dup = Delta::build(|b| {
            b.attr_insert(a, "k", "2", 0);
        });
        assert!(matches!(
            dup.apply_to(&mut d.clone()).unwrap_err().kind,
            ApplyErrorKind::AttrConflict { .. }
        ));
        let stale = Delta::build(|b| {
            b.attr_update(a, "k", "9", "2");
        });
        assert!(matches!(
            stale.apply_to(&mut d).unwrap_err().kind,
            ApplyErrorKind::AttrConflict { .. }
        ));
    }

    #[test]
    fn unknown_xid_errors() {
        let mut d = xd("<a/>");
        let err = Delta::build(|b| {
            b.update(Xid(777), "", "");
        })
        .apply_to(&mut d)
        .unwrap_err();
        assert!(matches!(err.kind, ApplyErrorKind::UnknownXid { .. }));
        assert_eq!(err.op_index, Some(0));
    }

    #[test]
    fn apply_then_inverse_restores_document() {
        let mut d = xd("<a><x><m/></x><y/><p>text</p></a>");
        let before = d.doc.to_xml();
        let m = xid_of_label(&d, "m");
        let x = xid_of_label(&d, "x");
        let y = xid_of_label(&d, "y");
        let p_node = d.node(xid_of_label(&d, "p")).unwrap();
        let txt = d.xid(d.doc.tree.first_child(p_node).unwrap()).unwrap();
        let delta = Delta::build(|b| {
            b.push(Op::Move { xid: m, from_parent: x, from_pos: 0, to_parent: y, to_pos: 0 })
                .update(txt, "text", "TEXT");
        });
        delta.apply_to(&mut d).unwrap();
        assert_ne!(d.doc.to_xml(), before);
        let mut copied = d.clone();
        delta.inverted().apply_to(&mut copied).unwrap();
        assert_eq!(copied.doc.to_xml(), before);
        apply_inverse(&delta, &mut d).unwrap();
        assert_eq!(d.doc.to_xml(), before);
        // Undone once, the inverse is stale: both readings refuse alike.
        let err = apply_inverse(&delta, &mut d).unwrap_err();
        let copied_err = delta.inverted().apply_to(&mut copied).unwrap_err();
        assert_eq!(err.to_string(), copied_err.to_string());
        assert!(matches!(err.kind, ApplyErrorKind::StaleUpdate { .. }));
    }
}
