//! Failure injection for delta application: completed deltas must fail
//! loudly (never corrupt silently) when applied to the wrong document state.

use xydelta::{ApplyErrorKind, Delta, Op, Xid, XidDocument};
use xytree::Document;

fn xd(xml: &str) -> XidDocument {
    XidDocument::parse_initial(xml).unwrap()
}

fn xid_of(d: &XidDocument, label: &str) -> Xid {
    let n = d
        .doc
        .tree
        .descendants(d.doc.tree.root())
        .find(|&n| d.doc.tree.name(n) == Some(label))
        .unwrap();
    d.xid(n).unwrap()
}

#[test]
fn insert_with_wrong_xid_map_length() {
    let mut d = xd("<a/>");
    let a = xid_of(&d, "a");
    let stored = Document::parse("<b><c/></b>").unwrap(); // 2 nodes, but only 1 XID
    let delta = Delta::build(|b| {
        b.insert(Xid(100), a, 0, &stored.tree, stored.root_element().unwrap(), &[Xid(100)]);
    });
    let err = delta.apply_to(&mut d).unwrap_err();
    assert!(matches!(err.kind, ApplyErrorKind::MalformedOp(_)));
    assert_eq!(err.op_index, Some(0), "error names the offending op");
}

#[test]
fn insert_position_beyond_children() {
    let mut d = xd("<a><k/></a>");
    let a = xid_of(&d, "a");
    let stored = Document::parse("<b/>").unwrap();
    let delta = Delta::build(|b| {
        // Only 1 child exists.
        b.insert(Xid(100), a, 5, &stored.tree, stored.root_element().unwrap(), &[Xid(100)]);
    });
    assert!(matches!(
        delta.apply_to(&mut d).unwrap_err().kind,
        ApplyErrorKind::PositionOutOfRange { pos: 5, .. }
    ));
}

#[test]
fn mutual_moves_between_two_subtrees_resolve() {
    // a{x{m1} y{m2}} -> swap m1 and m2: both moves resolvable (targets are
    // stable parents), must succeed.
    let mut d = xd("<a><x><m1/></x><y><m2/></y></a>");
    let (m1, m2, x, y) = (xid_of(&d, "m1"), xid_of(&d, "m2"), xid_of(&d, "x"), xid_of(&d, "y"));
    let delta = Delta::build(|b| {
        b.push(Op::Move { xid: m1, from_parent: x, from_pos: 0, to_parent: y, to_pos: 0 })
            .push(Op::Move { xid: m2, from_parent: y, from_pos: 0, to_parent: x, to_pos: 0 });
    });
    delta.apply_to(&mut d).unwrap();
    assert_eq!(d.doc.to_xml(), "<a><x><m2/></x><y><m1/></y></a>");
}

#[test]
fn parent_child_inversion_resolves() {
    // old: a{p{q}}; new: a{q{p}} — both matched, mutually nested moves.
    let mut d = xd("<a><p><q/></p></a>");
    let (a, p, q) = (xid_of(&d, "a"), xid_of(&d, "p"), xid_of(&d, "q"));
    let delta = Delta::build(|b| {
        b.push(Op::Move { xid: q, from_parent: p, from_pos: 0, to_parent: a, to_pos: 0 })
            .push(Op::Move { xid: p, from_parent: a, from_pos: 0, to_parent: q, to_pos: 0 });
    });
    delta.apply_to(&mut d).unwrap();
    assert_eq!(d.doc.to_xml(), "<a><q><p/></q></a>");
}

#[test]
fn true_cycle_is_detected() {
    // p moves under q AND q moves under p: no tree satisfies this.
    let mut d = xd("<a><p/><q/></a>");
    let (a, p, q) = (xid_of(&d, "a"), xid_of(&d, "p"), xid_of(&d, "q"));
    let _ = a;
    let delta = Delta::build(|b| {
        b.push(Op::Move { xid: p, from_parent: a, from_pos: 0, to_parent: q, to_pos: 0 })
            .push(Op::Move { xid: q, from_parent: a, from_pos: 1, to_parent: p, to_pos: 0 });
    });
    let err = delta.apply_to(&mut d).unwrap_err();
    assert!(matches!(err.kind, ApplyErrorKind::UnresolvableTargets { remaining: 2 }));
    assert_eq!(err.op_index, None, "a cycle is a whole-delta failure");
}

#[test]
fn delete_of_unknown_xid() {
    let mut d = xd("<a/>");
    let a = xid_of(&d, "a");
    let stored = Document::parse("<b/>").unwrap();
    let delta = Delta::build(|b| {
        b.delete(Xid(999), a, 0, &stored.tree, stored.root_element().unwrap(), &[Xid(999)]);
    });
    assert!(matches!(
        delta.apply_to(&mut d).unwrap_err().kind,
        ApplyErrorKind::UnknownXid { op: "delete", .. }
    ));
}

#[test]
fn update_on_element_rejected() {
    let mut d = xd("<a><b/></a>");
    let b = xid_of(&d, "b");
    let delta = Delta::build(|ops| {
        ops.update(b, "x", "y");
    });
    assert!(matches!(delta.apply_to(&mut d).unwrap_err().kind, ApplyErrorKind::NotAText(_)));
}

#[test]
fn double_application_of_a_delta_fails_cleanly() {
    // Applying the same delta twice must fail (the delete target is gone),
    // not corrupt the document.
    let mut d = xd("<a><gone/><p>t</p></a>");
    let gone = xid_of(&d, "gone");
    let a = xid_of(&d, "a");
    let gone_node = d.node(gone).unwrap();
    let delta = Delta::build(|b| {
        b.delete(gone, a, 0, &d.doc.tree, gone_node, &[gone]);
    });
    delta.apply_to(&mut d).unwrap();
    let snapshot = d.doc.to_xml();
    assert!(matches!(
        delta.apply_to(&mut d).unwrap_err().kind,
        ApplyErrorKind::UnknownXid { .. }
    ));
    assert_eq!(d.doc.to_xml(), snapshot, "failed apply must not mutate before failing");
}

#[test]
fn attr_ops_on_text_node_rejected() {
    let mut d = xd("<a>text</a>");
    let a_node = d.doc.root_element().unwrap();
    let text = d.doc.tree.first_child(a_node).unwrap();
    let text_xid = d.xid(text).unwrap();
    let delta = Delta::build(|b| {
        b.attr_insert(text_xid, "k", "v", 0);
    });
    assert!(matches!(
        delta.apply_to(&mut d).unwrap_err().kind,
        ApplyErrorKind::NotAnElement(_)
    ));
}
