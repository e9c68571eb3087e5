//! Static verification of *completed* deltas (§4).
//!
//! A completed delta carries enough redundant information to be applied,
//! inverted, and aggregated without consulting either document version. That
//! redundancy comes with hard structural invariants which, until now, were
//! only checked implicitly — by [`crate::apply`] crashing or corrupting a
//! version chain. In the spirit of differential testing of XML processors
//! (independent validators catch the bugs the primary engine masks), this
//! module re-checks those invariants *statically*: no document is needed, no
//! delta is applied.
//!
//! The invariants, with their source in the paper:
//!
//! 1. **XID-map well-formedness** (§4, "XID-map — a string attached to a
//!    subtree that describes the XIDs of its nodes"): every insert/delete
//!    carries exactly one subtree whose postfix-ordered XID-map has one XID
//!    per node, all positive, with the op's anchor XID last (the subtree
//!    root is last in postfix order).
//! 2. **XID uniqueness** (§4, persistent identifiers are unique and never
//!    reused): no XID is inserted twice, deleted twice, or both inserted and
//!    deleted by one delta; each surviving node is updated/moved at most
//!    once; anchors of update/move/attribute ops are never part of an
//!    inserted or deleted subtree.
//! 3. **Move source/target pairing** (§4, `move(m, n, o, p, q)`): a move's
//!    source parent must exist in the old version (it cannot be a node this
//!    delta inserts) and its target parent must exist in the new version (it
//!    cannot be a node this delta deletes — though moving *out of* a deleted
//!    subtree is legal and moving *into* an inserted one is too); a node
//!    never moves under itself.
//! 4. **Sibling-position consistency** (§4, positions refer to the source or
//!    target version): under one parent, old-version positions consumed by
//!    deletes and move-sources are pairwise distinct, as are new-version
//!    positions produced by inserts and move-targets; attribute inserts on
//!    one element likewise occupy distinct positions.
//! 5. **Invertibility by construction** (§4, "the delta is *completed* …
//!    \[it specifies\] the inverse transformation as well"): every check
//!    above is symmetric under [`crate::Delta::inverted`] — inserts and
//!    deletes swap roles, move endpoints swap, attribute inserts and deletes
//!    swap — so a delta verifies if and only if its inverse verifies. The
//!    property suite pins this equivalence.
//!
//! What cannot be checked statically — whether referenced XIDs exist in the
//! target document, whether stored old values match, whether positions are
//! in range — remains the job of [`crate::apply`], which reports those as
//! [`crate::ApplyError`].

use crate::delta::Delta;
use crate::ops::{Op, SubtreePayload};
use crate::xid::Xid;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use xytree::Symbol;

/// A structural invariant violated by a delta, found without applying it.
///
/// Every variant carries the 0-based index of the offending operation in
/// [`Delta::ops`] (two indexes when two operations conflict).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// An operation referenced XID 0 (XIDs are positive, §4).
    ZeroXid {
        /// Offending operation.
        op_index: usize,
    },
    /// An insert/delete op's payload cannot be a subtree at all.
    MalformedSubtree {
        /// Offending operation.
        op_index: usize,
        /// What is wrong with the carried subtree.
        problem: &'static str,
    },
    /// An insert/delete op's XID-map length differs from its subtree size.
    XidMapLength {
        /// Offending operation.
        op_index: usize,
        /// Nodes in the carried subtree.
        subtree_nodes: usize,
        /// XIDs in the map.
        map_len: usize,
    },
    /// The last XID of the map (the subtree root, postfix order) is not the
    /// op's anchor XID.
    RootXidMismatch {
        /// Offending operation.
        op_index: usize,
        /// The op's anchor.
        op_xid: Xid,
        /// The map's final entry.
        map_root: Xid,
    },
    /// One XID appears twice where uniqueness is required.
    DuplicateXid {
        /// The reused identifier.
        xid: Xid,
        /// Operation that used it first.
        first_op: usize,
        /// Operation that used it again.
        second_op: usize,
        /// The role in which it was duplicated (e.g. "inserted twice").
        problem: &'static str,
    },
    /// An op anchors at a node this delta inserts or deletes.
    AnchorInSubtree {
        /// Offending operation.
        op_index: usize,
        /// The anchor.
        xid: Xid,
        /// The insert/delete op whose subtree covers the anchor.
        subtree_op: usize,
        /// Description of the conflict.
        problem: &'static str,
    },
    /// A move's endpoints are inconsistent (source parent inserted, target
    /// parent deleted, or the node moving under itself).
    BrokenMovePairing {
        /// Offending move.
        op_index: usize,
        /// Description of the broken pairing.
        problem: &'static str,
    },
    /// Two ops claim the same sibling position under one parent on the same
    /// side (old-version positions for delete/move-source, new-version
    /// positions for insert/move-target).
    PositionConflict {
        /// The shared parent.
        parent: Xid,
        /// The contested 0-based position.
        pos: usize,
        /// Which version's positions collided ("old" or "new").
        side: &'static str,
        /// First claimant.
        first_op: usize,
        /// Second claimant.
        second_op: usize,
    },
    /// Two attribute ops on one element conflict (same attribute named
    /// twice, or an insert colliding with a delete/update).
    AttrOpConflict {
        /// The owning element.
        element: Xid,
        /// The attribute name.
        name: String,
        /// First claimant.
        first_op: usize,
        /// Second claimant.
        second_op: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::ZeroXid { op_index } => {
                write!(f, "op #{op_index}: XID 0 is not a valid persistent identifier")
            }
            VerifyError::MalformedSubtree { op_index, problem } => {
                write!(f, "op #{op_index}: malformed subtree: {problem}")
            }
            VerifyError::XidMapLength { op_index, subtree_nodes, map_len } => write!(
                f,
                "op #{op_index}: XID-map has {map_len} entries for a {subtree_nodes}-node subtree"
            ),
            VerifyError::RootXidMismatch { op_index, op_xid, map_root } => write!(
                f,
                "op #{op_index}: op anchors at XID {op_xid} but the XID-map root is {map_root}"
            ),
            VerifyError::DuplicateXid { xid, first_op, second_op, problem } => write!(
                f,
                "XID {xid} {problem} (ops #{first_op} and #{second_op})"
            ),
            VerifyError::AnchorInSubtree { op_index, xid, subtree_op, problem } => write!(
                f,
                "op #{op_index}: {problem}: XID {xid} is part of op #{subtree_op}'s subtree"
            ),
            VerifyError::BrokenMovePairing { op_index, problem } => {
                write!(f, "op #{op_index}: broken move pairing: {problem}")
            }
            VerifyError::PositionConflict { parent, pos, side, first_op, second_op } => write!(
                f,
                "ops #{first_op} and #{second_op} both claim {side}-version position {pos} \
                 under XID {parent}"
            ),
            VerifyError::AttrOpConflict { element, name, first_op, second_op } => write!(
                f,
                "ops #{first_op} and #{second_op} conflict on attribute {name:?} of XID {element}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify `delta` statically, returning the first violated invariant.
///
/// Cost is linear in the number of operations plus carried subtree nodes;
/// no document is consulted and nothing is applied.
pub fn verify(delta: &Delta) -> Result<(), VerifyError> {
    match verify_inner(delta, true).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Verify `delta` statically, returning *every* violated invariant (empty
/// when the delta is a well-formed completed delta).
pub fn verify_all(delta: &Delta) -> Vec<VerifyError> {
    verify_inner(delta, false)
}

fn verify_inner(delta: &Delta, stop_at_first: bool) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    // XID → op index of the insert/delete whose subtree covers it.
    let mut inserted: HashMap<Xid, usize> = HashMap::new();
    let mut deleted: HashMap<Xid, usize> = HashMap::new();
    // Per-anchor single-role maps.
    let mut moved: HashMap<Xid, usize> = HashMap::new();
    let mut updated: HashMap<Xid, usize> = HashMap::new();
    // (parent, pos) claims per side.
    let mut old_pos: HashMap<(Xid, usize), usize> = HashMap::new();
    let mut new_pos: HashMap<(Xid, usize), usize> = HashMap::new();
    // Attribute claims: (element, name) → (op index, kind).
    let mut attr_claims: HashMap<(Xid, Symbol), usize> = HashMap::new();
    let mut attr_ins_pos: HashMap<(Xid, usize), usize> = HashMap::new();

    macro_rules! push {
        ($e:expr) => {
            errors.push($e);
            if stop_at_first {
                return errors;
            }
        };
    }

    // Pass 1: per-op shape checks and role registration.
    for (i, op) in delta.ops.iter().enumerate() {
        if op.anchor() == Xid(0) {
            push!(VerifyError::ZeroXid { op_index: i });
        }
        match op {
            Op::Insert { xid, subtree, xid_map, .. } | Op::Delete { xid, subtree, xid_map, .. } => {
                let is_insert = matches!(op, Op::Insert { .. });
                let xid_map = delta.xid_map(*xid_map);
                match subtree {
                    SubtreePayload::Stored(_) => {
                        let (tree, node) = delta.payload(*subtree);
                        let nodes = tree.subtree_size(node);
                        if xid_map.len() != nodes {
                            push!(VerifyError::XidMapLength {
                                op_index: i,
                                subtree_nodes: nodes,
                                map_len: xid_map.len(),
                            });
                        }
                    }
                    SubtreePayload::Borrowed(_) => {
                        // Tree-shape and node-count checks need the source
                        // documents, which static verification by design does
                        // not consult. A borrowed payload always covers at
                        // least its captured root, so the XID-map cannot be
                        // empty; the map checks below still apply in full.
                        if xid_map.is_empty() {
                            push!(VerifyError::MalformedSubtree {
                                op_index: i,
                                problem: "borrowed payload with an empty XID-map",
                            });
                            continue;
                        }
                    }
                }
                match xid_map.last() {
                    Some(&r) if r != *xid => {
                        push!(VerifyError::RootXidMismatch {
                            op_index: i,
                            op_xid: *xid,
                            map_root: r,
                        });
                    }
                    _ => {}
                }
                let (set, problem) = if is_insert {
                    (&mut inserted, "is inserted twice")
                } else {
                    (&mut deleted, "is deleted twice")
                };
                for &x in xid_map {
                    if x == Xid(0) {
                        push!(VerifyError::ZeroXid { op_index: i });
                        continue;
                    }
                    match set.entry(x) {
                        Entry::Vacant(v) => {
                            v.insert(i);
                        }
                        Entry::Occupied(o) => {
                            push!(VerifyError::DuplicateXid {
                                xid: x,
                                first_op: *o.get(),
                                second_op: i,
                                problem,
                            });
                        }
                    }
                }
            }
            Op::Update { xid, .. } => {
                if let Some(&prev) = updated.get(xid) {
                    push!(VerifyError::DuplicateXid {
                        xid: *xid,
                        first_op: prev,
                        second_op: i,
                        problem: "is updated twice",
                    });
                }
                updated.insert(*xid, i);
            }
            Op::Move { xid, from_parent, to_parent, .. } => {
                if let Some(&prev) = moved.get(xid) {
                    push!(VerifyError::DuplicateXid {
                        xid: *xid,
                        first_op: prev,
                        second_op: i,
                        problem: "is moved twice",
                    });
                }
                moved.insert(*xid, i);
                if xid == from_parent || xid == to_parent {
                    push!(VerifyError::BrokenMovePairing {
                        op_index: i,
                        problem: "a node cannot be its own source or target parent",
                    });
                }
            }
            Op::AttrInsert { .. } | Op::AttrDelete { .. } | Op::AttrUpdate { .. } => {}
        }
    }

    // Pass 2: cross-op consistency (needs the complete inserted/deleted sets).
    for (i, op) in delta.ops.iter().enumerate() {
        match op {
            Op::Insert { xid, parent, pos, .. } => {
                if let Some(&del_op) = deleted.get(xid) {
                    push!(VerifyError::DuplicateXid {
                        xid: *xid,
                        first_op: del_op,
                        second_op: i,
                        problem: "is both deleted and inserted (XIDs are never reused)",
                    });
                }
                if let Some(&del_op) = deleted.get(parent) {
                    push!(VerifyError::AnchorInSubtree {
                        op_index: i,
                        xid: *parent,
                        subtree_op: del_op,
                        problem: "insert targets a deleted parent",
                    });
                }
                claim_pos(&mut new_pos, *parent, *pos, i, "new", &mut errors);
                if stop_at_first && !errors.is_empty() {
                    return errors;
                }
            }
            Op::Delete { xid, parent, pos, .. } => {
                if let Some(&ins_op) = inserted.get(xid) {
                    // Mirror of the insert-side check; report once per pair.
                    if ins_op > i {
                        push!(VerifyError::DuplicateXid {
                            xid: *xid,
                            first_op: i,
                            second_op: ins_op,
                            problem: "is both deleted and inserted (XIDs are never reused)",
                        });
                    }
                }
                if let Some(&ins_op) = inserted.get(parent) {
                    push!(VerifyError::AnchorInSubtree {
                        op_index: i,
                        xid: *parent,
                        subtree_op: ins_op,
                        problem: "delete claims an old-version position under an inserted parent",
                    });
                }
                claim_pos(&mut old_pos, *parent, *pos, i, "old", &mut errors);
                if stop_at_first && !errors.is_empty() {
                    return errors;
                }
            }
            Op::Update { xid, .. } => {
                check_survivor(*xid, i, "update anchors at a non-surviving node",
                               &inserted, &deleted, &mut errors);
                if stop_at_first && !errors.is_empty() {
                    return errors;
                }
            }
            Op::Move { xid, from_parent, from_pos, to_parent, to_pos } => {
                check_survivor(*xid, i, "moved node is not a surviving node",
                               &inserted, &deleted, &mut errors);
                if let Some(&ins_op) = inserted.get(from_parent) {
                    errors.push(VerifyError::BrokenMovePairing {
                        op_index: i,
                        problem: "source parent does not exist in the old version \
                                  (it is inserted by this delta)",
                    });
                    let _ = ins_op;
                }
                if let Some(&del_op) = deleted.get(to_parent) {
                    errors.push(VerifyError::BrokenMovePairing {
                        op_index: i,
                        problem: "target parent does not exist in the new version \
                                  (it is deleted by this delta)",
                    });
                    let _ = del_op;
                }
                claim_pos(&mut old_pos, *from_parent, *from_pos, i, "old", &mut errors);
                claim_pos(&mut new_pos, *to_parent, *to_pos, i, "new", &mut errors);
                if stop_at_first && !errors.is_empty() {
                    return errors;
                }
            }
            Op::AttrInsert { element, name, pos, .. }
            | Op::AttrDelete { element, name, pos, .. } => {
                check_survivor(*element, i, "attribute op anchors at a non-surviving element",
                               &inserted, &deleted, &mut errors);
                claim_attr(&mut attr_claims, *element, *name, i, &mut errors);
                if matches!(op, Op::AttrInsert { .. }) {
                    if let Some(&prev) = attr_ins_pos.get(&(*element, *pos)) {
                        errors.push(VerifyError::PositionConflict {
                            parent: *element,
                            pos: *pos,
                            side: "new",
                            first_op: prev,
                            second_op: i,
                        });
                    } else {
                        attr_ins_pos.insert((*element, *pos), i);
                    }
                }
                if stop_at_first && !errors.is_empty() {
                    return errors;
                }
            }
            Op::AttrUpdate { element, name, .. } => {
                check_survivor(*element, i, "attribute op anchors at a non-surviving element",
                               &inserted, &deleted, &mut errors);
                claim_attr(&mut attr_claims, *element, *name, i, &mut errors);
                if stop_at_first && !errors.is_empty() {
                    return errors;
                }
            }
        }
    }
    errors
}

/// Record a claim on `(parent, pos)` of one version's sibling positions,
/// reporting a conflict when the slot is already taken.
fn claim_pos(
    claims: &mut HashMap<(Xid, usize), usize>,
    parent: Xid,
    pos: usize,
    op_index: usize,
    side: &'static str,
    errors: &mut Vec<VerifyError>,
) {
    match claims.entry((parent, pos)) {
        Entry::Vacant(v) => {
            v.insert(op_index);
        }
        Entry::Occupied(o) => errors.push(VerifyError::PositionConflict {
            parent,
            pos,
            side,
            first_op: *o.get(),
            second_op: op_index,
        }),
    }
}

/// Record that `op_index` operates on attribute `name` of `element`; any
/// second op touching the same attribute conflicts (a completed delta needs
/// at most one op per attribute — old→new pairs collapse into updates).
fn claim_attr(
    claims: &mut HashMap<(Xid, Symbol), usize>,
    element: Xid,
    name: Symbol,
    op_index: usize,
    errors: &mut Vec<VerifyError>,
) {
    match claims.entry((element, name)) {
        Entry::Vacant(v) => {
            v.insert(op_index);
        }
        Entry::Occupied(o) => errors.push(VerifyError::AttrOpConflict {
            element,
            name: name.to_string(),
            first_op: *o.get(),
            second_op: op_index,
        }),
    }
}

/// An update/move/attribute anchor must survive the delta: it can be part of
/// neither an inserted subtree (inserts carry their final content) nor a
/// deleted one (retired XIDs take no further part).
fn check_survivor(
    xid: Xid,
    op_index: usize,
    problem: &'static str,
    inserted: &HashMap<Xid, usize>,
    deleted: &HashMap<Xid, usize>,
    errors: &mut Vec<VerifyError>,
) {
    if let Some(&subtree_op) = inserted.get(&xid).or_else(|| deleted.get(&xid)) {
        errors.push(VerifyError::AnchorInSubtree { op_index, xid, subtree_op, problem });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaBuilder;
    use crate::xiddoc::XidDocument;

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

    /// Append a delete of <b> (with child <c/>) out of <a><b><c/></b><k/></a>,
    /// its XID-map passed through `map`.
    fn sample_delete(b: &mut DeltaBuilder, d: &XidDocument, map: impl FnOnce(Vec<Xid>) -> Vec<Xid>) {
        let b_xid = xid_of_label(d, "b");
        let b_node = d.node(b_xid).unwrap();
        let xids = map(d.xid_map_of(b_node).xids().to_vec());
        b.delete(b_xid, xid_of_label(d, "a"), 0, &d.doc.tree, b_node, &xids);
    }

    #[test]
    fn empty_delta_verifies() {
        assert_eq!(verify(&Delta::new()), Ok(()));
    }

    #[test]
    fn well_formed_delete_verifies() {
        let d = xd("<a><b><c/></b><k/></a>");
        let delta = Delta::build(|b| sample_delete(b, &d, |m| m));
        assert_eq!(verify(&delta), Ok(()));
        assert_eq!(verify(&delta.inverted()), Ok(()));
    }

    #[test]
    fn zero_xid_rejected() {
        let delta = Delta::build(|b| {
            b.update(Xid(0), "a", "b");
        });
        assert!(matches!(verify(&delta), Err(VerifyError::ZeroXid { op_index: 0 })));
    }

    #[test]
    fn xid_map_length_mismatch_rejected() {
        let d = xd("<a><b><c/></b><k/></a>");
        // Claims 1 node for a 2-node subtree.
        let delta = Delta::build(|b| sample_delete(b, &d, |m| m[1..].to_vec()));
        assert!(matches!(verify(&delta), Err(VerifyError::XidMapLength { .. })));
    }

    #[test]
    fn swapped_root_xid_rejected() {
        let d = xd("<a><b><c/></b><k/></a>");
        // Reverse postfix order: root first instead of last.
        let delta = Delta::build(|b| sample_delete(b, &d, |m| m.into_iter().rev().collect()));
        assert!(matches!(verify(&delta), Err(VerifyError::RootXidMismatch { .. })));
    }

    #[test]
    fn double_delete_rejected() {
        let d = xd("<a><b><c/></b><k/></a>");
        let delta = Delta::build(|b| {
            sample_delete(b, &d, |m| m);
            sample_delete(b, &d, |m| m);
        });
        let all = verify_all(&delta);
        assert!(
            all.iter().any(|e| matches!(e, VerifyError::DuplicateXid { .. })),
            "{all:?}"
        );
    }

    #[test]
    fn self_parenting_move_rejected() {
        let delta = Delta::build(|b| {
            b.push(Op::Move { xid: Xid(3), from_parent: Xid(1), from_pos: 0, to_parent: Xid(3), to_pos: 0 });
        });
        assert!(matches!(verify(&delta), Err(VerifyError::BrokenMovePairing { .. })));
    }

    #[test]
    fn move_source_in_inserted_subtree_rejected() {
        let ins = xd("<b/>");
        let delta = Delta::build(|b| {
            b.insert(Xid(10), Xid(1), 0, &ins.doc.tree, ins.doc.root_element().unwrap(), &[Xid(10)])
                // Claims to move a node *out of* the subtree being inserted.
                .push(Op::Move { xid: Xid(5), from_parent: Xid(10), from_pos: 0, to_parent: Xid(1), to_pos: 1 });
        });
        let all = verify_all(&delta);
        assert!(
            all.iter().any(|e| matches!(e, VerifyError::BrokenMovePairing { .. })),
            "{all:?}"
        );
    }

    #[test]
    fn stale_position_conflict_rejected() {
        let ins = xd("<b/>");
        let delta = Delta::build(|b| {
            for xid in [Xid(10), Xid(11)] {
                b.insert(xid, Xid(1), 2, &ins.doc.tree, ins.doc.root_element().unwrap(), &[xid]);
            }
        });
        assert!(matches!(
            verify(&delta),
            Err(VerifyError::PositionConflict { side: "new", pos: 2, .. })
        ));
    }

    #[test]
    fn update_of_deleted_node_rejected() {
        let d = xd("<a><b><c/></b><k/></a>");
        let c = xid_of_label(&d, "c");
        let delta = Delta::build(|b| {
            sample_delete(b, &d, |m| m);
            b.update(c, "x", "y");
        });
        let all = verify_all(&delta);
        assert!(
            all.iter().any(|e| matches!(e, VerifyError::AnchorInSubtree { .. })),
            "{all:?}"
        );
    }

    #[test]
    fn conflicting_attr_ops_rejected() {
        let delta = Delta::build(|b| {
            b.attr_insert(Xid(2), "k", "v", 0).attr_delete(Xid(2), "k", "w", 0);
        });
        assert!(matches!(verify(&delta), Err(VerifyError::AttrOpConflict { .. })));
    }

    #[test]
    fn move_out_of_deleted_subtree_is_legal() {
        // The apply-side test `move_out_of_deleted_subtree_survives` exercises
        // this delta dynamically; verification must agree it is well-formed.
        let d = xd("<a><dying><keep/></dying><safe/></a>");
        let a = xid_of_label(&d, "a");
        let dying = xid_of_label(&d, "dying");
        let keep = xid_of_label(&d, "keep");
        let safe = xid_of_label(&d, "safe");
        let stored = xd("<dying/>");
        let delta = Delta::build(|b| {
            b.delete(dying, a, 0, &stored.doc.tree, stored.doc.root_element().unwrap(), &[dying])
                .push(Op::Move { xid: keep, from_parent: dying, from_pos: 0, to_parent: safe, to_pos: 0 });
        });
        assert_eq!(verify(&delta), Ok(()));
        assert_eq!(verify(&delta.inverted()), Ok(()));
    }

    #[test]
    fn errors_display_with_op_indexes() {
        let delta = Delta::build(|b| {
            b.update(Xid(0), "", "");
        });
        let e = verify(&delta).unwrap_err();
        assert!(e.to_string().contains("op #0"), "{e}");
    }
}
