//! Static typechecking of XyDelta operation sets against a grammar.
//!
//! A completed delta is a set of elementary operations. Without touching
//! either document version, a surprising amount can still be checked: every
//! inserted subtree must itself be schema-valid (declared labels, child
//! words, text placement, attribute declarations and values, required
//! attributes), and — when the caller can resolve XIDs to labels, e.g. from
//! a stored version's XID index — the structural operations too: a moved or
//! inserted node must be admissible in its destination parent's content
//! model, a `#REQUIRED` attribute must not be deleted, and text updates
//! must target nodes whose parents admit character data.
//!
//! Findings are advisory, not proofs of invalidity: the checks are local
//! (no global child-sequence recount after a move), so a clean report does
//! not certify the resulting document, but every finding pinpoints an
//! operation that cannot participate in a valid-to-valid transformation.

use crate::grammar::Grammar;
use crate::sat::value_admissible;
use std::collections::HashSet;
use xydelta::{Delta, Op, Xid};
use xytree::{AttDefault, ContentModel, NodeId, NodeKind, Symbol, Tree};

/// Resolves XIDs to labels, typically backed by a stored version's XID
/// index. Both methods may return `None` for unknown or non-element nodes;
/// the corresponding checks are then skipped.
pub trait XidResolver {
    /// The element label carried by `xid`, if it is a known element.
    fn label(&self, xid: Xid) -> Option<Symbol>;
    /// The label of the element containing `xid`.
    fn parent_label(&self, xid: Xid) -> Option<Symbol>;
}

/// One statically detected schema conflict in a delta.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Index of the offending operation in `delta.ops`.
    pub op_index: usize,
    /// What is wrong.
    pub kind: FindingKind,
}

/// The kinds of conflict the typechecker reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// An inserted subtree contains an element the DTD never declares.
    UndeclaredElement {
        /// The label.
        label: String,
    },
    /// An inserted element's children do not form a word of its model.
    InvalidChildren {
        /// The parent label.
        label: String,
        /// First offending child offset.
        offset: usize,
    },
    /// Character data inside an inserted element that admits none.
    TextNotAllowed {
        /// The parent label.
        label: String,
    },
    /// An inserted element carries an undeclared attribute.
    UndeclaredAttribute {
        /// The element label.
        label: String,
        /// The attribute.
        attr: String,
    },
    /// An attribute value outside its declared type.
    BadAttributeValue {
        /// The element label.
        label: String,
        /// The attribute.
        attr: String,
        /// The value.
        value: String,
    },
    /// An inserted element misses a `#REQUIRED` attribute.
    MissingRequiredAttribute {
        /// The element label.
        label: String,
        /// The attribute.
        attr: String,
    },
    /// A move or insert places a child its destination parent's content
    /// model can never contain.
    ChildNotAllowed {
        /// The destination parent label.
        parent: String,
        /// The arriving child label.
        child: String,
    },
    /// An `AttrDelete` removes a `#REQUIRED` attribute.
    RequiredAttrDeleted {
        /// The element label.
        label: String,
        /// The attribute.
        attr: String,
    },
    /// A text update targets a node whose parent admits no character data.
    TextWhereForbidden {
        /// The parent label.
        label: String,
    },
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op {}: ", self.op_index)?;
        match &self.kind {
            FindingKind::UndeclaredElement { label } => {
                write!(f, "inserts undeclared element <{label}>")
            }
            FindingKind::InvalidChildren { label, offset } => {
                write!(f, "inserted <{label}> has invalid children (at child {offset})")
            }
            FindingKind::TextNotAllowed { label } => {
                write!(f, "inserted <{label}> contains text its model forbids")
            }
            FindingKind::UndeclaredAttribute { label, attr } => {
                write!(f, "attribute \"{attr}\" is not declared on <{label}>")
            }
            FindingKind::BadAttributeValue { label, attr, value } => {
                write!(f, "value {value:?} of {attr} on <{label}> is outside its type")
            }
            FindingKind::MissingRequiredAttribute { label, attr } => {
                write!(f, "inserted <{label}> misses required attribute \"{attr}\"")
            }
            FindingKind::ChildNotAllowed { parent, child } => {
                write!(f, "<{parent}> can never contain a <{child}> child")
            }
            FindingKind::RequiredAttrDeleted { label, attr } => {
                write!(f, "deletes required attribute \"{attr}\" from <{label}>")
            }
            FindingKind::TextWhereForbidden { label } => {
                write!(f, "updates text inside <{label}>, which admits none")
            }
        }
    }
}

/// Document-free typecheck: inspects only what the delta itself carries
/// (stored inserted subtrees). Borrowed payloads are skipped — deltas past
/// the storage boundary are always self-contained.
pub fn typecheck(delta: &Delta, g: &Grammar) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, op) in delta.ops.iter().enumerate() {
        if let Op::Insert { subtree, .. } = op {
            if !subtree.is_borrowed() {
                let (tree, root) = delta.payload(*subtree);
                check_subtree(tree, root, g, i, &mut out);
            }
        }
    }
    out
}

/// Resolver-augmented typecheck: everything [`typecheck`] finds, plus the
/// structural checks that need XID→label resolution.
pub fn typecheck_with(delta: &Delta, g: &Grammar, r: &dyn XidResolver) -> Vec<Finding> {
    let mut out = typecheck(delta, g);
    for (i, op) in delta.ops.iter().enumerate() {
        match op {
            Op::Insert { parent, subtree, .. } if !subtree.is_borrowed() => {
                let (tree, root) = delta.payload(*subtree);
                let child = tree.element(root).map(|e| e.name);
                if let (Some(p), Some(c)) = (r.label(*parent), child) {
                    check_child_allowed(g, i, p, c, &mut out);
                }
            }
            Op::Move { xid, to_parent, .. } => {
                if let (Some(p), Some(c)) = (r.label(*to_parent), r.label(*xid)) {
                    check_child_allowed(g, i, p, c, &mut out);
                }
            }
            Op::AttrDelete { element, name, .. } => {
                if let Some(l) = r.label(*element) {
                    if g.attdef(l, name)
                        .is_some_and(|d| matches!(d.default, AttDefault::Required))
                    {
                        out.push(Finding {
                            op_index: i,
                            kind: FindingKind::RequiredAttrDeleted {
                                label: l.as_str().to_string(),
                                attr: name.to_string(),
                            },
                        });
                    }
                }
            }
            Op::AttrInsert { element, name, value, .. }
            | Op::AttrUpdate { element, name, new: value, .. } => {
                let value = delta.text(*value);
                if let Some(l) = r.label(*element) {
                    match g.attdef(l, name) {
                        None if g.is_declared(l) => out.push(Finding {
                            op_index: i,
                            kind: FindingKind::UndeclaredAttribute {
                                label: l.as_str().to_string(),
                                attr: name.to_string(),
                            },
                        }),
                        Some(def) if !value_admissible(&def.ty, &def.default, value) => {
                            out.push(Finding {
                                op_index: i,
                                kind: FindingKind::BadAttributeValue {
                                    label: l.as_str().to_string(),
                                    attr: name.to_string(),
                                    value: value.to_string(),
                                },
                            });
                        }
                        _ => {}
                    }
                }
            }
            Op::Update { xid, .. } => {
                if let Some(p) = r.parent_label(*xid) {
                    let forbids_text = matches!(
                        g.element(p).map(|info| &info.model),
                        Some(ContentModel::Children(_) | ContentModel::Empty)
                    );
                    if forbids_text {
                        out.push(Finding {
                            op_index: i,
                            kind: FindingKind::TextWhereForbidden {
                                label: p.as_str().to_string(),
                            },
                        });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

fn check_child_allowed(g: &Grammar, i: usize, parent: Symbol, child: Symbol, out: &mut Vec<Finding>) {
    let Some(info) = g.element(parent) else { return };
    let allowed = match &info.model {
        ContentModel::Empty => false,
        ContentModel::Any => g.is_declared(child),
        ContentModel::Mixed(names) => names.contains(&child),
        ContentModel::Children(_) => info
            .nfa
            .as_ref()
            .is_some_and(|n| n.alphabet().contains(&child)),
    };
    if !allowed {
        out.push(Finding {
            op_index: i,
            kind: FindingKind::ChildNotAllowed {
                parent: parent.as_str().to_string(),
                child: child.as_str().to_string(),
            },
        });
    }
}

/// Validity of the inserted subtree at `root`, in isolation (no
/// document-global ID / IDREF reasoning — IDs may refer across the final
/// document).
fn check_subtree(t: &Tree, root: NodeId, g: &Grammar, i: usize, out: &mut Vec<Finding>) {
    let mut reported_undeclared: HashSet<Symbol> = HashSet::new();
    for id in t.descendants(root) {
        let Some(el) = t.element(id) else { continue };
        let label = el.name;
        let Some(info) = g.element(label) else {
            if reported_undeclared.insert(label) {
                out.push(Finding {
                    op_index: i,
                    kind: FindingKind::UndeclaredElement {
                        label: label.as_str().to_string(),
                    },
                });
            }
            continue;
        };
        let lname = || label.as_str().to_string();
        match &info.model {
            ContentModel::Any => {}
            ContentModel::Mixed(names) => {
                for (off, c) in t.children(id).enumerate() {
                    if let NodeKind::Element(ce) = t.kind(c) {
                        if !names.contains(&ce.name) {
                            out.push(Finding {
                                op_index: i,
                                kind: FindingKind::InvalidChildren {
                                    label: lname(),
                                    offset: off,
                                },
                            });
                            break;
                        }
                    }
                }
            }
            ContentModel::Empty => {
                let mut bad_text = false;
                let mut bad_child = false;
                for c in t.children(id) {
                    match t.kind(c) {
                        NodeKind::Element(_) => bad_child = true,
                        NodeKind::Text(s) if !s.trim().is_empty() => bad_text = true,
                        _ => {}
                    }
                }
                if bad_child {
                    out.push(Finding {
                        op_index: i,
                        kind: FindingKind::InvalidChildren { label: lname(), offset: 0 },
                    });
                }
                if bad_text {
                    out.push(Finding {
                        op_index: i,
                        kind: FindingKind::TextNotAllowed { label: lname() },
                    });
                }
            }
            ContentModel::Children(_) => {
                let mut word = Vec::new();
                let mut bad_text = false;
                for c in t.children(id) {
                    match t.kind(c) {
                        NodeKind::Element(ce) => word.push(ce.name),
                        NodeKind::Text(s) if !s.trim().is_empty() => bad_text = true,
                        _ => {}
                    }
                }
                if bad_text {
                    out.push(Finding {
                        op_index: i,
                        kind: FindingKind::TextNotAllowed { label: lname() },
                    });
                }
                if let Some(nfa) = &info.nfa {
                    if !nfa.accepts(&word) {
                        out.push(Finding {
                            op_index: i,
                            kind: FindingKind::InvalidChildren {
                                label: lname(),
                                offset: nfa.longest_viable_prefix(&word),
                            },
                        });
                    }
                }
            }
        }
        for attr in el.attrs {
            match g.attdef(label, attr.name.as_str()) {
                None => out.push(Finding {
                    op_index: i,
                    kind: FindingKind::UndeclaredAttribute {
                        label: lname(),
                        attr: attr.name.as_str().to_string(),
                    },
                }),
                Some(def) if !value_admissible(&def.ty, &def.default, &attr.value) => {
                    out.push(Finding {
                        op_index: i,
                        kind: FindingKind::BadAttributeValue {
                            label: lname(),
                            attr: attr.name.as_str().to_string(),
                            value: attr.value.clone(),
                        },
                    });
                }
                Some(_) => {}
            }
        }
        for def in &info.attrs {
            if matches!(def.default, AttDefault::Required)
                && el.attr_sym(def.name).is_none()
            {
                out.push(Finding {
                    op_index: i,
                    kind: FindingKind::MissingRequiredAttribute {
                        label: lname(),
                        attr: def.name.as_str().to_string(),
                    },
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use xytree::parse_dtd;

    fn g(dtd: &str) -> Grammar {
        Grammar::from_doctype(&parse_dtd(dtd, None).unwrap()).unwrap()
    }

    const DTD: &str = "<!ELEMENT catalog (product*)>\
         <!ELEMENT product (name, price?)>\
         <!ELEMENT name (#PCDATA)>\
         <!ELEMENT price (#PCDATA)>\
         <!ATTLIST product id ID #REQUIRED>";

    fn insert(xml: &str) -> Delta {
        let doc = xytree::Document::parse(xml).unwrap();
        Delta::build(|b| {
            b.insert(Xid(100), Xid(1), 0, &doc.tree, doc.root_element().unwrap(), &[Xid(100)]);
        })
    }

    #[test]
    fn valid_insert_is_clean() {
        let d = insert("<product id=\"p9\"><name>n</name></product>");
        assert!(typecheck(&d, &g(DTD)).is_empty());
    }

    #[test]
    fn insert_findings() {
        let d = insert("<product><price>9</price><bogus/></product>");
        let f = typecheck(&d, &g(DTD));
        let kinds: Vec<_> = f.iter().map(|f| &f.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, FindingKind::UndeclaredElement { .. })));
        assert!(kinds.iter().any(|k| matches!(k, FindingKind::InvalidChildren { .. })));
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, FindingKind::MissingRequiredAttribute { .. }))
        );
    }

    struct MapResolver {
        labels: HashMap<u64, Symbol>,
        parents: HashMap<u64, Symbol>,
    }

    impl XidResolver for MapResolver {
        fn label(&self, xid: Xid) -> Option<Symbol> {
            self.labels.get(&xid.value()).copied()
        }
        fn parent_label(&self, xid: Xid) -> Option<Symbol> {
            self.parents.get(&xid.value()).copied()
        }
    }

    #[test]
    fn resolver_checks() {
        let s = Symbol::intern;
        let r = MapResolver {
            labels: HashMap::from([
                (1, s("catalog")),
                (2, s("product")),
                (3, s("price")),
            ]),
            parents: HashMap::from([(7, s("catalog"))]),
        };
        let gr = g(DTD);
        // price moved directly under catalog: not in catalog's model.
        let d = Delta::build(|b| {
            b.push(Op::Move { xid: Xid(3), from_parent: Xid(2), from_pos: 1, to_parent: Xid(1), to_pos: 0 });
        });
        let f = typecheck_with(&d, &gr, &r);
        assert!(f.iter().any(|f| matches!(f.kind, FindingKind::ChildNotAllowed { .. })), "{f:?}");

        // Deleting the required id attribute.
        let d = Delta::build(|b| {
            b.attr_delete(Xid(2), "id", "p1", 0);
        });
        let f = typecheck_with(&d, &gr, &r);
        assert!(f.iter().any(|f| matches!(f.kind, FindingKind::RequiredAttrDeleted { .. })));

        // Updating text whose parent is element-only content.
        let d = Delta::build(|b| {
            b.update(Xid(7), "a", "b");
        });
        let f = typecheck_with(&d, &gr, &r);
        assert!(f.iter().any(|f| matches!(f.kind, FindingKind::TextWhereForbidden { .. })));

        // Bad attribute value through the resolver path.
        let d = Delta::build(|b| {
            b.attr_update(Xid(2), "id", "p1", "9bad");
        });
        let f = typecheck_with(&d, &gr, &r);
        assert!(f.iter().any(|f| matches!(f.kind, FindingKind::BadAttributeValue { .. })));
    }
}
