//! Tree iterators: children, ancestors, pre-order and post-order walks.
//!
//! Every iterator is allocation-free: the walks step over the first-child,
//! next-sibling and parent links and keep no stack.
//!
//! The two *pruned* walks ([`PrunedPreOrder`], [`PrunedPostOrder`]) take a
//! predicate at every step and do not descend below a node for which it
//! holds — they still yield that node. The diff uses them to skip the
//! interior of subtrees it matched whole, where no operation can originate.

use crate::tree::{NodeId, Tree};

/// The pre-order successor of `cur` inside `scope`: its first child when
/// `descend` (and it has one), else the next sibling of the nearest
/// ancestor-or-self still inside the scope.
#[inline]
fn pre_order_next(tree: &Tree, scope: NodeId, cur: NodeId, descend: bool) -> Option<NodeId> {
    if descend {
        if let Some(c) = tree.first_child(cur) {
            return Some(c);
        }
    }
    let mut n = cur;
    loop {
        if n == scope {
            return None;
        }
        if let Some(s) = tree.next_sibling(n) {
            return Some(s);
        }
        n = tree.parent(n)?;
    }
}

/// The first node of a post-order walk of `n`'s subtree: its leftmost
/// leaf, treating nodes for which `stop` holds as leaves.
#[inline]
fn leftmost_leaf(tree: &Tree, mut n: NodeId, stop: impl Fn(NodeId) -> bool) -> NodeId {
    while let Some(c) = tree.first_child(n).filter(|_| !stop(n)) {
        n = c;
    }
    n
}

/// The post-order successor of `cur` (not the scope itself): the first
/// node of its next sibling's walk, else its parent.
#[inline]
fn post_order_next(tree: &Tree, cur: NodeId, stop: impl Fn(NodeId) -> bool) -> Option<NodeId> {
    match tree.next_sibling(cur) {
        Some(sib) => Some(leftmost_leaf(tree, sib, stop)),
        None => tree.parent(cur),
    }
}

/// Iterator over the children of a node, in document order.
pub struct Children<'a> {
    tree: &'a Tree,
    next: Option<NodeId>,
}

impl<'a> Children<'a> {
    pub(crate) fn new(tree: &'a Tree, parent: NodeId) -> Self {
        Children { tree, next: tree.first_child(parent) }
    }
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.tree.next_sibling(cur);
        Some(cur)
    }
}

/// Iterator over the proper ancestors of a node, nearest first.
pub struct Ancestors<'a> {
    tree: &'a Tree,
    next: Option<NodeId>,
}

impl<'a> Ancestors<'a> {
    pub(crate) fn new(tree: &'a Tree, node: NodeId) -> Self {
        Ancestors { tree, next: tree.parent(node) }
    }
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.tree.parent(cur);
        Some(cur)
    }
}

/// Pre-order (document-order) iterator over a subtree, root included.
pub struct Descendants<'a> {
    tree: &'a Tree,
    scope: NodeId,
    next: Option<NodeId>,
}

impl<'a> Descendants<'a> {
    pub(crate) fn new(tree: &'a Tree, scope: NodeId) -> Self {
        Descendants { tree, scope, next: Some(scope) }
    }
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = pre_order_next(self.tree, self.scope, cur, true);
        Some(cur)
    }
}

/// Post-order iterator over a subtree (children before parents), root last.
///
/// This is the order in which XIDs are assigned to a fresh document (§4 of
/// the paper uses the postfix position as the initial persistent identifier).
pub struct PostOrder<'a> {
    tree: &'a Tree,
    next: Option<NodeId>,
    scope: NodeId,
}

impl<'a> PostOrder<'a> {
    pub(crate) fn new(tree: &'a Tree, scope: NodeId) -> Self {
        PostOrder { tree, next: Some(leftmost_leaf(tree, scope, |_| false)), scope }
    }
}

impl Iterator for PostOrder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = if cur == self.scope {
            None
        } else {
            post_order_next(self.tree, cur, |_| false)
        };
        Some(cur)
    }
}

/// A pre-order walk of a subtree that, step by step, does not descend below
/// the node it yields when the caller's predicate holds for it — it still
/// yields that node.
///
/// A stepper, not an [`Iterator`]: the predicate is an argument of each
/// step, so the caller may change what it reads between steps (phase 4 of
/// the diff adds matches while it walks and prunes on the matching).
#[derive(Debug, Clone)]
pub struct PrunedPreOrder {
    scope: NodeId,
    next: Option<NodeId>,
}

impl PrunedPreOrder {
    /// A walk of `scope`'s subtree, starting at `scope`.
    pub fn new(scope: NodeId) -> Self {
        PrunedPreOrder { scope, next: Some(scope) }
    }

    /// The next node in pre-order; the walk will not enter its subtree if
    /// `prune` holds for it.
    #[inline]
    pub fn next(&mut self, tree: &Tree, prune: impl Fn(NodeId) -> bool) -> Option<NodeId> {
        let cur = self.next?;
        self.next = pre_order_next(tree, self.scope, cur, !prune(cur));
        Some(cur)
    }
}

/// A post-order walk of a subtree (children before parents, the scope last)
/// that does not descend below a node for which the caller's predicate
/// holds — it still yields that node. A stepper like [`PrunedPreOrder`].
#[derive(Debug, Clone)]
pub struct PrunedPostOrder {
    scope: NodeId,
    next: Option<NodeId>,
}

impl PrunedPostOrder {
    /// A walk of `scope`'s subtree, pruned by `prune` as it descends to the
    /// first node.
    pub fn new(tree: &Tree, scope: NodeId, prune: impl Fn(NodeId) -> bool) -> Self {
        PrunedPostOrder { scope, next: Some(leftmost_leaf(tree, scope, prune)) }
    }

    /// The next node in post-order, not descending below nodes for which
    /// `prune` holds on the way to it.
    #[inline]
    pub fn next(&mut self, tree: &Tree, prune: impl Fn(NodeId) -> bool) -> Option<NodeId> {
        let cur = self.next?;
        self.next = if cur == self.scope { None } else { post_order_next(tree, cur, prune) };
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::{PrunedPostOrder, PrunedPreOrder};
    use crate::tree::{NodeId, Tree};

    /// Build:
    /// ```text
    ///        a
    ///      / | \
    ///     b  e  f
    ///    / \     \
    ///   c   d     g
    /// ```
    fn sample() -> (Tree, Vec<crate::tree::NodeId>) {
        let mut t = Tree::new();
        let a = t.new_element("a");
        let root = t.root();
        t.append_child(root, a);
        let b = t.new_element("b");
        t.append_child(a, b);
        let c = t.new_element("c");
        t.append_child(b, c);
        let d = t.new_element("d");
        t.append_child(b, d);
        let e = t.new_element("e");
        t.append_child(a, e);
        let f = t.new_element("f");
        t.append_child(a, f);
        let g = t.new_element("g");
        t.append_child(f, g);
        (t, vec![a, b, c, d, e, f, g])
    }

    fn names(t: &Tree, ids: impl Iterator<Item = crate::tree::NodeId>) -> Vec<String> {
        ids.map(|n| t.name(n).unwrap_or("#doc").to_string()).collect()
    }

    #[test]
    fn pre_order_is_document_order() {
        let (t, ids) = sample();
        let got = names(&t, t.descendants(ids[0]));
        assert_eq!(got, ["a", "b", "c", "d", "e", "f", "g"]);
    }

    #[test]
    fn pre_order_scope_stops_at_subtree() {
        let (t, ids) = sample();
        let got = names(&t, t.descendants(ids[1])); // subtree at b
        assert_eq!(got, ["b", "c", "d"]);
    }

    #[test]
    fn post_order_children_before_parents() {
        let (t, ids) = sample();
        let got = names(&t, t.post_order(ids[0]));
        assert_eq!(got, ["c", "d", "b", "e", "g", "f", "a"]);
    }

    #[test]
    fn post_order_on_leaf() {
        let (t, ids) = sample();
        let got = names(&t, t.post_order(ids[4])); // e is a leaf
        assert_eq!(got, ["e"]);
    }

    #[test]
    fn post_order_scope_stays_in_subtree() {
        let (t, ids) = sample();
        let got = names(&t, t.post_order(ids[5])); // subtree at f
        assert_eq!(got, ["g", "f"]);
    }

    #[test]
    fn ancestors_nearest_first() {
        let (t, ids) = sample();
        let got: Vec<_> = t.ancestors(ids[2]).collect(); // c -> b, a, root
        assert_eq!(got, vec![ids[1], ids[0], t.root()]);
    }

    #[test]
    fn children_of_leaf_is_empty() {
        let (t, ids) = sample();
        assert_eq!(t.children(ids[2]).count(), 0);
    }

    #[test]
    fn pre_and_post_visit_same_sets() {
        let (t, ids) = sample();
        let mut pre: Vec<_> = t.descendants(ids[0]).collect();
        let mut post: Vec<_> = t.post_order(ids[0]).collect();
        pre.sort();
        post.sort();
        assert_eq!(pre, post);
    }

    /// Drain a pruned stepper.
    fn pruned(t: &Tree, scope: NodeId, post: bool, prune: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        let mut out = Vec::new();
        if post {
            let mut walk = PrunedPostOrder::new(t, scope, &prune);
            while let Some(n) = walk.next(t, &prune) {
                out.push(n);
            }
        } else {
            let mut walk = PrunedPreOrder::new(scope);
            while let Some(n) = walk.next(t, &prune) {
                out.push(n);
            }
        }
        out
    }

    #[test]
    fn pruned_walks_yield_but_do_not_enter_pruned_nodes() {
        let (t, ids) = sample();
        let (b, f) = (ids[1], ids[5]);
        let prune = |n| n == b || n == f;
        let pre = pruned(&t, ids[0], false, prune);
        assert_eq!(names(&t, pre.into_iter()), ["a", "b", "e", "f"]);
        let post = pruned(&t, ids[0], true, prune);
        assert_eq!(names(&t, post.into_iter()), ["b", "e", "f", "a"]);
        // A pruned scope is a leaf; pruning nothing is the plain walk.
        assert_eq!(pruned(&t, b, false, prune), [b]);
        assert_eq!(pruned(&t, b, true, prune), [b]);
        let all: Vec<_> = t.descendants(t.root()).collect();
        assert_eq!(pruned(&t, t.root(), false, |_| false), all);
        let all: Vec<_> = t.post_order(t.root()).collect();
        assert_eq!(pruned(&t, t.root(), true, |_| false), all);
    }

    #[test]
    fn post_order_from_document_root() {
        let (t, _) = sample();
        let got = names(&t, t.post_order(t.root()));
        assert_eq!(got, ["c", "d", "b", "e", "g", "f", "a", "#doc"]);
    }
}
