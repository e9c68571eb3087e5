//! Path evaluation over a [`Tree`].

use crate::{Axis, NodeTest, Output, Path, Predicate, Step};
use xytree::{fast_map_with_capacity, fast_set, FastHashMap};
use xytree::{NodeId, Tree};

/// Evaluate `path` from `start` (normally the document root); results come
/// back deduplicated, in document order.
pub(crate) fn select(path: &Path, tree: &Tree, start: NodeId) -> Vec<NodeId> {
    // Document-order ranks, computed once per evaluation.
    let order = order_map(tree, start);
    let mut current = vec![start];
    for step in &path.steps {
        current = apply_step(tree, &current, step, &order);
        if current.is_empty() {
            break;
        }
    }
    current
}

/// String results per the path's output selector.
pub(crate) fn select_strings(path: &Path, tree: &Tree) -> Vec<String> {
    let nodes = select(path, tree, tree.root());
    match path.output() {
        Output::Nodes | Output::Text => nodes
            .into_iter()
            .map(|n| tree.deep_text(n))
            .collect(),
        Output::Attr(name) => nodes
            .into_iter()
            .filter_map(|n| tree.attr(n, name).map(str::to_string))
            .collect(),
    }
}

fn order_map(tree: &Tree, start: NodeId) -> FastHashMap<NodeId, u32> {
    let mut m = fast_map_with_capacity(tree.arena_len());
    for (i, n) in tree.descendants(start).enumerate() {
        m.insert(n, i as u32);
    }
    m
}

fn apply_step(
    tree: &Tree,
    current: &[NodeId],
    step: &Step,
    order: &FastHashMap<NodeId, u32>,
) -> Vec<NodeId> {
    // Gather raw matches, deduplicated (descendant steps can reach one node
    // through several context nodes).
    let mut seen = fast_set();
    let mut matches: Vec<NodeId> = Vec::new();
    for &ctx in current {
        match step.axis {
            Axis::Child => {
                for c in tree.children(ctx) {
                    if test_matches(tree, c, &step.test) && seen.insert(c) {
                        matches.push(c);
                    }
                }
            }
            Axis::Descendant => {
                for d in tree.descendants(ctx) {
                    if d == ctx {
                        continue;
                    }
                    if test_matches(tree, d, &step.test) && seen.insert(d) {
                        matches.push(d);
                    }
                }
            }
        }
    }
    matches.sort_by_key(|n| order.get(n).copied().unwrap_or(u32::MAX));

    // Predicates, in order. Position counts per parent for the child axis
    // (the familiar XPath behavior) and in document order for descendants.
    let mut filtered = matches;
    for pred in &step.predicates {
        filtered = match pred {
            Predicate::AttrEquals(name, value) => filtered
                .into_iter()
                .filter(|&n| tree.attr(n, name) == Some(value.as_str()))
                .collect(),
            Predicate::AttrExists(name) => filtered
                .into_iter()
                .filter(|&n| tree.attr(n, name).is_some())
                .collect(),
            Predicate::TextEquals(value) => filtered
                .into_iter()
                .filter(|&n| tree.deep_text(n) == *value)
                .collect(),
            Predicate::TextContains(needle) => filtered
                .into_iter()
                .filter(|&n| tree.deep_text(n).contains(needle.as_str()))
                .collect(),
            Predicate::Position(want) => match step.axis {
                Axis::Child => {
                    let mut counts: FastHashMap<NodeId, usize> = fast_map_with_capacity(8);
                    filtered
                        .into_iter()
                        .filter(|&n| {
                            let parent = tree.parent(n).unwrap_or(n);
                            let c = counts.entry(parent).or_insert(0);
                            *c += 1;
                            *c == *want
                        })
                        .collect()
                }
                Axis::Descendant => filtered
                    .into_iter()
                    .enumerate()
                    .filter(|&(i, _)| i + 1 == *want)
                    .map(|(_, n)| n)
                    .collect(),
            },
        };
    }
    filtered
}

fn test_matches(tree: &Tree, node: NodeId, test: &NodeTest) -> bool {
    match test {
        NodeTest::Name(name) => tree.name(node) == Some(name.as_str()),
        NodeTest::AnyElement => tree.kind(node).is_element(),
        NodeTest::Text => tree.kind(node).is_text(),
    }
}

#[cfg(test)]
mod tests {
    use crate::Path;
    use xytree::Document;

    #[test]
    fn descendant_position_is_global() {
        let d = Document::parse("<a><b><x/></b><c><x/><x/></c></a>").unwrap();
        let p = Path::parse("//x[2]").unwrap();
        let hits = p.select_doc(&d);
        assert_eq!(hits.len(), 1);
        // The second <x/> in document order is the first child of <c>.
        let c = d.tree.child_at(d.root_element().unwrap(), 1).unwrap();
        assert_eq!(d.tree.parent(hits[0]), Some(c));
    }

    #[test]
    fn results_are_document_ordered_even_with_multiple_contexts() {
        let d = Document::parse(
            "<a><g><v>1</v></g><g><v>2</v></g><g><v>3</v></g></a>",
        )
        .unwrap();
        let p = Path::parse("//g//v").unwrap();
        let texts: Vec<String> = p
            .select_doc(&d)
            .into_iter()
            .map(|n| d.tree.deep_text(n))
            .collect();
        assert_eq!(texts, vec!["1", "2", "3"]);
    }

    #[test]
    fn predicates_chain_left_to_right() {
        let d = Document::parse(
            "<a><p k=\"1\">x</p><p k=\"1\">y</p><p k=\"2\">z</p></a>",
        )
        .unwrap();
        // First filter by attribute, then take the 2nd remaining.
        let p = Path::parse("/a/p[@k='1'][2]").unwrap();
        let hits = p.select_doc(&d);
        assert_eq!(hits.len(), 1);
        assert_eq!(d.tree.deep_text(hits[0]), "y");
    }

    #[test]
    fn text_node_test() {
        let d = Document::parse("<a>alpha<b>beta</b></a>").unwrap();
        let p = Path::parse("/a/text()").unwrap();
        assert_eq!(p.select_strings(&d), vec!["alpha"]);
        let p = Path::parse("//text()").unwrap();
        assert_eq!(p.select_strings(&d), vec!["alpha", "beta"]);
    }

    #[test]
    fn empty_result_short_circuits() {
        let d = Document::parse("<a><b/></a>").unwrap();
        let p = Path::parse("/nope/deeper/still").unwrap();
        assert!(p.select_doc(&d).is_empty());
    }
}
