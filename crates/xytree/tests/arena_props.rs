//! Property tests on the arena tree: arbitrary mutation sequences must keep
//! the intrusive-list invariants, and serialization must round-trip.

use proptest::prelude::*;
use xytree::{Document, NodeId, NodeKind, Tree};

/// A mutation op over node indices (interpreted modulo the live node set).
#[derive(Debug, Clone)]
enum MutOp {
    NewElement(u8),
    NewText(String),
    AppendChild { parent: usize, child: usize },
    InsertAt { parent: usize, idx: usize, child: usize },
    Detach(usize),
}

fn arb_op() -> impl Strategy<Value = MutOp> {
    prop_oneof![
        (0u8..6).prop_map(MutOp::NewElement),
        "[a-z]{1,6}".prop_map(MutOp::NewText),
        (any::<usize>(), any::<usize>())
            .prop_map(|(parent, child)| MutOp::AppendChild { parent, child }),
        (any::<usize>(), 0usize..8, any::<usize>())
            .prop_map(|(parent, idx, child)| MutOp::InsertAt { parent, idx, child }),
        any::<usize>().prop_map(MutOp::Detach),
    ]
}

/// Apply ops defensively (skip ones that would panic by contract: cycles,
/// double-attach); the point is that *legal* sequences keep invariants.
fn run_ops(ops: &[MutOp]) -> Tree {
    let mut tree = Tree::new();
    let mut nodes: Vec<NodeId> = vec![tree.root()];
    let labels = ["a", "b", "c", "d", "e", "f"];
    for op in ops {
        match op {
            MutOp::NewElement(l) => {
                let n = tree.new_element(labels[*l as usize % labels.len()]);
                nodes.push(n);
            }
            MutOp::NewText(t) => {
                let n = tree.new_text(t.clone());
                nodes.push(n);
            }
            MutOp::AppendChild { parent, child } => {
                let p = nodes[*parent % nodes.len()];
                let c = nodes[*child % nodes.len()];
                if can_attach(&tree, p, c) {
                    tree.append_child(p, c);
                }
            }
            MutOp::InsertAt { parent, idx, child } => {
                let p = nodes[*parent % nodes.len()];
                let c = nodes[*child % nodes.len()];
                if can_attach(&tree, p, c) {
                    tree.insert_child_at(p, *idx, c);
                }
            }
            MutOp::Detach(i) => {
                let n = nodes[*i % nodes.len()];
                if n != tree.root() {
                    tree.detach(n);
                }
            }
        }
    }
    tree
}

fn can_attach(tree: &Tree, parent: NodeId, child: NodeId) -> bool {
    if child == tree.root() || tree.parent(child).is_some() {
        return false;
    }
    if tree.kind(parent).is_text() || matches!(tree.kind(parent), NodeKind::Comment(_)) {
        // Attaching under non-container kinds is legal for the arena but
        // nonsense for XML; allow it anyway — invariants must still hold.
    }
    // No cycles: parent must not be inside child's subtree.
    let mut cur = Some(parent);
    while let Some(c) = cur {
        if c == child {
            return false;
        }
        cur = tree.parent(c);
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutation_sequences_keep_invariants(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let tree = run_ops(&ops);
        prop_assert!(tree.validate().is_ok(), "{:?}", tree.validate());
        // Pre- and post-order visit the same attached set.
        let pre: std::collections::BTreeSet<_> = tree.descendants(tree.root()).collect();
        let post: std::collections::BTreeSet<_> = tree.post_order(tree.root()).collect();
        prop_assert_eq!(pre, post);
    }

    #[test]
    fn child_index_and_child_at_agree(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let tree = run_ops(&ops);
        for n in tree.descendants(tree.root()) {
            for (i, c) in tree.children(n).enumerate() {
                prop_assert_eq!(tree.child_at(n, i), Some(c));
                prop_assert_eq!(tree.child_index(c), i);
                prop_assert_eq!(tree.parent(c), Some(n));
            }
        }
    }

    #[test]
    fn subtree_extraction_preserves_equality(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let tree = run_ops(&ops);
        for n in tree.descendants(tree.root()).take(10) {
            if n == tree.root() {
                continue;
            }
            let extracted = tree.extract_subtree(n);
            let copied_root = extracted.first_child(extracted.root()).unwrap();
            prop_assert!(tree.subtree_eq(n, &extracted, copied_root));
            prop_assert!(extracted.validate().is_ok());
        }
    }
}

/// Serialize→parse round-trips for documents built from mutations (after
/// normalizing to parseable shape: element root, no adjacent/empty text).
#[test]
fn escaped_content_roundtrips() {
    let mut tree = Tree::new();
    let root_elem = tree.new_element("r");
    let r = tree.root();
    tree.append_child(r, root_elem);
    let nasty_values = [
        "a<b&c>d",
        "quotes \" and ' here",
        "newlines\nand\ttabs",
        "unicode: héllo wörld — ✓",
        "]]> sequence",
        "&amp; already escaped",
    ];
    for (i, v) in nasty_values.iter().enumerate() {
        let e = tree.new_element(format!("e{i}"));
        tree.set_attr(e, "v", *v);
        let t = tree.new_text(*v);
        tree.append_child(e, t);
        tree.append_child(root_elem, e);
    }
    let doc = Document::from_tree(tree);
    let xml = doc.to_xml();
    let back = Document::parse(&xml).expect("escaped output must reparse");
    assert!(
        doc.tree.subtree_eq(doc.tree.root(), &back.tree, back.tree.root()),
        "round-trip changed the tree:\n{xml}"
    );
}
