//! Property-based tests over arbitrary documents.
//!
//! The hardest property in this suite: for *any* two documents — related or
//! not — the BULD delta applied to the old version must reproduce the new
//! one byte-for-byte, and its inverse must restore the old one. This is the
//! paper's correctness claim ("it misses no changes", §1) quantified over
//! random trees rather than simulator outputs.

use proptest::prelude::*;
use xydiff_suite::xydelta::{xml_io, XidDocument};
use xydiff_suite::xydiff::{diff_documents, DiffOptions};
use xydiff_suite::xytree::{Document, NodeKind, Tree};

/// A recursively generated node spec.
#[derive(Debug, Clone)]
enum Spec {
    Element { name: &'static str, attrs: Vec<(&'static str, String)>, children: Vec<Spec> },
    Text(String),
    Comment(String),
}

/// Small vocabularies force label collisions — the regime the candidate
/// machinery has to disambiguate.
const NAMES: &[&str] = &["a", "b", "item", "list", "x"];
const ATTRS: &[&str] = &["id", "k", "lang"];

fn arb_spec() -> impl Strategy<Value = Spec> {
    let leaf = prop_oneof![
        "[a-z]{1,8}".prop_map(Spec::Text),
        "[a-z ]{0,6}".prop_map(Spec::Comment),
        (0usize..NAMES.len()).prop_map(|i| Spec::Element {
            name: NAMES[i],
            attrs: vec![],
            children: vec![]
        }),
    ];
    leaf.prop_recursive(4, 48, 5, |inner| {
        (
            0usize..NAMES.len(),
            proptest::collection::vec((0usize..ATTRS.len(), "[a-z0-9]{0,4}"), 0..3),
            proptest::collection::vec(inner, 0..5),
        )
            .prop_map(|(n, attrs, children)| {
                let mut seen = std::collections::HashSet::new();
                let attrs = attrs
                    .into_iter()
                    .filter(|(i, _)| seen.insert(*i))
                    .map(|(i, v)| (ATTRS[i], v))
                    .collect();
                Spec::Element { name: NAMES[n], attrs, children }
            })
    })
}

/// Build a document from a spec, merging adjacent text (as the parser
/// would), so serialization round-trips are exact.
fn build(spec: &Spec) -> Document {
    fn add(tree: &mut Tree, parent: xydiff_suite::xytree::NodeId, spec: &Spec) {
        match spec {
            Spec::Text(t) => {
                if t.trim().is_empty() {
                    return;
                }
                if let Some(last) = tree.last_child(parent) {
                    if tree.kind(last).is_text() {
                        tree.append_text(last, t);
                        return;
                    }
                }
                let n = tree.new_text(t.clone());
                tree.append_child(parent, n);
            }
            Spec::Comment(c) => {
                let n = tree.new_node(NodeKind::Comment(c));
                tree.append_child(parent, n);
            }
            Spec::Element { name, attrs, children } => {
                let n = tree.new_element(*name);
                for (k, v) in attrs {
                    tree.set_attr(n, *k, v.clone());
                }
                tree.append_child(parent, n);
                for c in children {
                    add(tree, n, c);
                }
            }
        }
    }
    let mut tree = Tree::new();
    let root_elem = tree.new_element("root");
    let root = tree.root();
    tree.append_child(root, root_elem);
    if let Spec::Element { children, .. } = spec {
        for c in children {
            add(&mut tree, root_elem, c);
        }
    } else {
        add(&mut tree, root_elem, spec);
    }
    Document::from_tree(tree)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// diff(a, b) is always a correct transformation, even for unrelated
    /// random documents, and its inverse restores the original.
    #[test]
    fn diff_of_arbitrary_documents_is_correct(sa in arb_spec(), sb in arb_spec()) {
        let a = build(&sa);
        let b = build(&sb);
        let r = diff_documents(&a, &b, &DiffOptions::default());
        let mut replay = XidDocument::assign_initial(a.clone());
        r.delta.apply_to(&mut replay).unwrap();
        prop_assert_eq!(replay.doc.to_canonical_xml(), b.to_canonical_xml());
        r.delta.inverted().apply_to(&mut replay).unwrap();
        prop_assert_eq!(replay.doc.to_canonical_xml(), a.to_canonical_xml());
    }

    /// Deltas survive serialization to XML and back.
    #[test]
    fn delta_xml_roundtrip_applies(sa in arb_spec(), sb in arb_spec()) {
        let a = build(&sa);
        let b = build(&sb);
        let r = diff_documents(&a, &b, &DiffOptions::default());
        let xml = xml_io::delta_to_xml(&r.delta);
        let back = xml_io::parse_delta(&xml).unwrap();
        let mut replay = XidDocument::assign_initial(a);
        back.apply_to(&mut replay).unwrap();
        prop_assert_eq!(replay.doc.to_canonical_xml(), b.to_canonical_xml());
    }

    /// Document serialization and re-parsing is a fixpoint on generated
    /// trees (text merged, no whitespace-only nodes).
    #[test]
    fn serialize_parse_fixpoint(s in arb_spec()) {
        let doc = build(&s);
        let xml = doc.to_xml();
        let back = Document::parse(&xml).unwrap();
        prop_assert!(doc.tree.subtree_eq(doc.tree.root(), &back.tree, back.tree.root()),
            "parse(serialize(d)) must equal d for {xml}");
        prop_assert_eq!(back.to_xml(), xml);
    }

    /// Diffing a document against itself is always empty.
    #[test]
    fn self_diff_is_empty(s in arb_spec()) {
        let doc = build(&s);
        let r = diff_documents(&doc, &doc, &DiffOptions::default());
        prop_assert!(r.delta.is_empty(), "self-diff produced: {}", r.delta.describe());
    }

    /// The arena invariants hold after building arbitrary trees.
    #[test]
    fn built_trees_validate(s in arb_spec()) {
        let doc = build(&s);
        prop_assert!(doc.tree.validate().is_ok());
    }

    /// Option ablations never break correctness, only quality.
    #[test]
    fn ablated_options_stay_correct(sa in arb_spec(), sb in arb_spec(), which in 0usize..4) {
        let opts = match which {
            0 => DiffOptions { enable_propagation: false, ..Default::default() },
            1 => DiffOptions { enable_unique_child_propagation: false, ..Default::default() },
            2 => DiffOptions { exact_lis: true, ..Default::default() },
            _ => DiffOptions { depth_factor: 0.0, ..Default::default() },
        };
        let a = build(&sa);
        let b = build(&sb);
        let r = diff_documents(&a, &b, &opts);
        let mut replay = XidDocument::assign_initial(a);
        r.delta.apply_to(&mut replay).unwrap();
        prop_assert_eq!(replay.doc.to_canonical_xml(), b.to_canonical_xml());
    }
}
