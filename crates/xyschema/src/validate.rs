//! Full-document validation against a [`Grammar`].
//!
//! Checks the classic DTD validity constraints that the analyses rely on:
//! the document element matches the doctype name, every element's child
//! sequence is a word of its content model, character data only appears
//! where the model allows it, attributes are declared with admissible
//! values, required attributes are present, ID values are unique, and IDREF
//! values point at an existing ID. Used both by the CLI and as the witness
//! self-check inside [`crate::analyze`].

use crate::grammar::Grammar;
use crate::sat::value_admissible;
use std::collections::{HashMap, HashSet};
use xytree::{AttDefault, AttType, ContentModel, Document, NodeId, NodeKind, Symbol, Tree};

/// One validity violation, with the offending node.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The node at fault.
    pub node: NodeId,
    /// What went wrong.
    pub kind: ViolationKind,
}

/// The kinds of validity violation the checker reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// The document element's label is not the doctype name.
    WrongRoot {
        /// Expected root label.
        expected: String,
        /// Actual root label.
        found: String,
    },
    /// An element whose label has no `<!ELEMENT>` declaration.
    UndeclaredElement {
        /// The label.
        label: String,
    },
    /// An element's child sequence is not a word of its content model.
    InvalidChildren {
        /// The parent label.
        label: String,
        /// Labels of the element children, in order.
        children: Vec<String>,
        /// Index of the first child that cannot extend any valid prefix
        /// (== `children.len()` when the sequence is an incomplete prefix).
        offset: usize,
    },
    /// Character data inside element-only or EMPTY content.
    TextNotAllowed {
        /// The parent label.
        label: String,
    },
    /// An element child inside EMPTY content.
    ChildInEmpty {
        /// The parent label.
        label: String,
    },
    /// An attribute with no `<!ATTLIST>` declaration.
    UndeclaredAttribute {
        /// The element label.
        label: String,
        /// The attribute name.
        attr: String,
    },
    /// An attribute value outside its declared type (or `#FIXED` mismatch).
    BadAttributeValue {
        /// The element label.
        label: String,
        /// The attribute name.
        attr: String,
        /// The offending value.
        value: String,
    },
    /// A `#REQUIRED` attribute is missing.
    MissingRequiredAttribute {
        /// The element label.
        label: String,
        /// The attribute name.
        attr: String,
    },
    /// Two elements share an ID value.
    DuplicateId {
        /// The repeated ID value.
        value: String,
    },
    /// An IDREF/IDREFS token names no ID in the document.
    DanglingIdRef {
        /// The dangling token.
        value: String,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ViolationKind::WrongRoot { expected, found } => {
                write!(f, "document element is <{found}>, doctype requires <{expected}>")
            }
            ViolationKind::UndeclaredElement { label } => {
                write!(f, "element <{label}> is not declared")
            }
            ViolationKind::InvalidChildren { label, children, offset } => {
                write!(
                    f,
                    "children of <{label}> do not match its content model at child {offset}: ({})",
                    children.join(", ")
                )
            }
            ViolationKind::TextNotAllowed { label } => {
                write!(f, "character data is not allowed inside <{label}>")
            }
            ViolationKind::ChildInEmpty { label } => {
                write!(f, "<{label}> is declared EMPTY but has element content")
            }
            ViolationKind::UndeclaredAttribute { label, attr } => {
                write!(f, "attribute \"{attr}\" is not declared on <{label}>")
            }
            ViolationKind::BadAttributeValue { label, attr, value } => {
                write!(f, "value {value:?} of {attr} on <{label}> is outside its declared type")
            }
            ViolationKind::MissingRequiredAttribute { label, attr } => {
                write!(f, "required attribute \"{attr}\" missing on <{label}>")
            }
            ViolationKind::DuplicateId { value } => {
                write!(f, "ID value {value:?} used more than once")
            }
            ViolationKind::DanglingIdRef { value } => {
                write!(f, "IDREF {value:?} names no ID in the document")
            }
        }
    }
}

/// Validate a document against the grammar; an empty vec means valid.
pub fn validate(doc: &Document, g: &Grammar) -> Vec<Violation> {
    validate_tree(&doc.tree, g)
}

/// Validate a raw tree (its root element and everything below).
pub fn validate_tree(tree: &Tree, g: &Grammar) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(root) = tree.root_element() else {
        return out;
    };
    let root_label = tree.name(root).unwrap_or_default().to_string();
    if Symbol::intern(&root_label) != g.root() {
        out.push(Violation {
            node: root,
            kind: ViolationKind::WrongRoot {
                expected: g.root().as_str().to_string(),
                found: root_label,
            },
        });
    }
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    let mut idrefs: Vec<(NodeId, String)> = Vec::new();
    for id in tree.descendants(root) {
        if tree.kind(id).is_element() {
            check_element(tree, g, id, &mut ids, &mut idrefs, &mut out);
        }
    }
    let known: HashSet<&str> = ids.keys().map(String::as_str).collect();
    for (node, token) in idrefs {
        if !known.contains(token.as_str()) {
            out.push(Violation { node, kind: ViolationKind::DanglingIdRef { value: token } });
        }
    }
    out
}

fn check_element(
    tree: &Tree,
    g: &Grammar,
    id: NodeId,
    ids: &mut HashMap<String, NodeId>,
    idrefs: &mut Vec<(NodeId, String)>,
    out: &mut Vec<Violation>,
) {
    let Some(el) = tree.element(id) else { return };
    let label = el.name;
    let Some(info) = g.element(label) else {
        out.push(Violation {
            node: id,
            kind: ViolationKind::UndeclaredElement { label: label.as_str().to_string() },
        });
        return;
    };

    // Content check.
    match &info.model {
        ContentModel::Any => {
            // Anything goes, but element children must be declared — the
            // recursive walk reports those itself.
        }
        ContentModel::Mixed(_names) => {
            // Mixed content in this DTD subset allows any declared child
            // from its name list; stray labels surface as unreachable via
            // the child's own checks plus the word check below.
            let mut kids = Vec::new();
            for c in tree.children(id) {
                if let NodeKind::Element(ce) = tree.kind(c) {
                    kids.push(ce.name);
                }
            }
            if let ContentModel::Mixed(names) = &info.model {
                for (i, k) in kids.iter().enumerate() {
                    if !names.contains(k) {
                        out.push(Violation {
                            node: id,
                            kind: ViolationKind::InvalidChildren {
                                label: label.as_str().to_string(),
                                children: kids.iter().map(|s| s.as_str().to_string()).collect(),
                                offset: i,
                            },
                        });
                        break;
                    }
                }
            }
        }
        ContentModel::Empty => {
            for c in tree.children(id) {
                match tree.kind(c) {
                    NodeKind::Element(_) => {
                        out.push(Violation {
                            node: id,
                            kind: ViolationKind::ChildInEmpty {
                                label: label.as_str().to_string(),
                            },
                        });
                        break;
                    }
                    NodeKind::Text(t) if !t.trim().is_empty() => {
                        out.push(Violation {
                            node: id,
                            kind: ViolationKind::TextNotAllowed {
                                label: label.as_str().to_string(),
                            },
                        });
                        break;
                    }
                    _ => {}
                }
            }
        }
        ContentModel::Children(_) => {
            let mut word = Vec::new();
            let mut text_bad = false;
            for c in tree.children(id) {
                match tree.kind(c) {
                    NodeKind::Element(ce) => word.push(ce.name),
                    // Whitespace between elements is insignificant in
                    // element content.
                    NodeKind::Text(t) if !t.trim().is_empty() => text_bad = true,
                    _ => {}
                }
            }
            if text_bad {
                out.push(Violation {
                    node: id,
                    kind: ViolationKind::TextNotAllowed { label: label.as_str().to_string() },
                });
            }
            if let Some(nfa) = &info.nfa {
                if !nfa.accepts(&word) {
                    let offset = nfa.longest_viable_prefix(&word);
                    out.push(Violation {
                        node: id,
                        kind: ViolationKind::InvalidChildren {
                            label: label.as_str().to_string(),
                            children: word.iter().map(|s| s.as_str().to_string()).collect(),
                            offset,
                        },
                    });
                }
            }
        }
    }

    // Attribute checks.
    let lname = || label.as_str().to_string();
    for attr in el.attrs {
        let Some(def) = g.attdef(label, attr.name.as_str()) else {
            out.push(Violation {
                node: id,
                kind: ViolationKind::UndeclaredAttribute {
                    label: lname(),
                    attr: attr.name.as_str().to_string(),
                },
            });
            continue;
        };
        if !value_admissible(&def.ty, &def.default, &attr.value) {
            out.push(Violation {
                node: id,
                kind: ViolationKind::BadAttributeValue {
                    label: lname(),
                    attr: attr.name.as_str().to_string(),
                    value: attr.value.clone(),
                },
            });
        }
        match &def.ty {
            AttType::Id => {
                if let Some(first) = ids.insert(attr.value.clone(), id) {
                    let _ = first;
                    out.push(Violation {
                        node: id,
                        kind: ViolationKind::DuplicateId { value: attr.value.clone() },
                    });
                }
            }
            AttType::IdRef => idrefs.push((id, attr.value.clone())),
            AttType::IdRefs => {
                for t in attr.value.split_whitespace() {
                    idrefs.push((id, t.to_string()));
                }
            }
            _ => {}
        }
    }
    for def in &info.attrs {
        if matches!(def.default, AttDefault::Required)
            && el.attr_sym(def.name).is_none()
        {
            out.push(Violation {
                node: id,
                kind: ViolationKind::MissingRequiredAttribute {
                    label: lname(),
                    attr: def.name.as_str().to_string(),
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xytree::parse_dtd;

    fn g(dtd: &str) -> Grammar {
        Grammar::from_doctype(&parse_dtd(dtd, None).unwrap()).unwrap()
    }

    const DTD: &str = "<!ELEMENT catalog (product+)>\
         <!ELEMENT product (name, price?)>\
         <!ELEMENT name (#PCDATA)>\
         <!ELEMENT price (#PCDATA)>\
         <!ATTLIST product id ID #REQUIRED kind (a|b) \"a\">\
         <!ATTLIST price currency CDATA #IMPLIED>";

    fn check(xml: &str) -> Vec<Violation> {
        validate(&Document::parse(xml).unwrap(), &g(DTD))
    }

    #[test]
    fn valid_document_passes() {
        let v = check(
            "<catalog><product id=\"p1\"><name>cam</name>\
             <price currency=\"usd\">9</price></product></catalog>",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn wrong_root_and_undeclared() {
        let v = check("<cat><x/></cat>");
        assert!(v.iter().any(|v| matches!(v.kind, ViolationKind::WrongRoot { .. })));
        assert!(v.iter().any(|v| matches!(v.kind, ViolationKind::UndeclaredElement { .. })));
    }

    #[test]
    fn invalid_child_sequence_reports_offset() {
        // price before name.
        let v = check(
            "<catalog><product id=\"p1\"><price>9</price><name>cam</name></product></catalog>",
        );
        let inv = v
            .iter()
            .find_map(|v| match &v.kind {
                ViolationKind::InvalidChildren { label, offset, .. } => {
                    Some((label.clone(), *offset))
                }
                _ => None,
            })
            .expect("invalid children reported");
        assert_eq!(inv, ("product".to_string(), 0));
    }

    #[test]
    fn text_in_element_content() {
        let v = check(
            "<catalog>stray<product id=\"p1\"><name>cam</name></product></catalog>",
        );
        assert!(v.iter().any(|v| matches!(v.kind, ViolationKind::TextNotAllowed { .. })));
    }

    #[test]
    fn whitespace_in_element_content_is_fine() {
        let v = check(
            "<catalog> <product id=\"p1\"><name>cam</name></product> </catalog>",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn attribute_violations() {
        let v = check(
            "<catalog><product id=\"p1\" kind=\"c\" bogus=\"1\"><name>n</name></product>\
             <product id=\"p1\"><name>m</name></product></catalog>",
        );
        assert!(v.iter().any(|v| matches!(v.kind, ViolationKind::BadAttributeValue { .. })));
        assert!(v.iter().any(|v| matches!(v.kind, ViolationKind::UndeclaredAttribute { .. })));
        assert!(v.iter().any(|v| matches!(v.kind, ViolationKind::DuplicateId { .. })));
    }

    #[test]
    fn missing_required_attribute() {
        let v = check("<catalog><product><name>n</name></product></catalog>");
        assert!(
            v.iter()
                .any(|v| matches!(v.kind, ViolationKind::MissingRequiredAttribute { .. }))
        );
    }

    #[test]
    fn dangling_idref() {
        let gr = g(
            "<!ELEMENT root (a, b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>\
             <!ATTLIST a id ID #REQUIRED><!ATTLIST b ref IDREF #REQUIRED>",
        );
        let doc =
            Document::parse("<root><a id=\"x\"/><b ref=\"y\"/></root>").unwrap();
        let v = validate(&doc, &gr);
        assert!(v.iter().any(|v| matches!(v.kind, ViolationKind::DanglingIdRef { .. })));
        let doc2 =
            Document::parse("<root><a id=\"x\"/><b ref=\"x\"/></root>").unwrap();
        assert!(validate(&doc2, &gr).is_empty());
    }

    #[test]
    fn empty_model_enforced() {
        let gr = g("<!ELEMENT root (hr*)><!ELEMENT hr EMPTY>");
        let v = validate(&Document::parse("<root><hr>x</hr></root>").unwrap(), &gr);
        assert!(v.iter().any(|v| matches!(v.kind, ViolationKind::TextNotAllowed { .. })));
    }
}
