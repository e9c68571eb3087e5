//! Ergonomic document construction for tests, examples and the simulator.
//!
//! ```
//! use xytree::ElementBuilder;
//!
//! let doc = ElementBuilder::new("catalog")
//!     .child(
//!         ElementBuilder::new("product")
//!             .attr("id", "p1")
//!             .child(ElementBuilder::new("name").text("tx123")),
//!     )
//!     .into_document();
//! assert_eq!(doc.to_xml(), r#"<catalog><product id="p1"><name>tx123</name></product></catalog>"#);
//! ```

use crate::document::Document;
use crate::node::Attr;
use crate::tree::{NodeId, Tree};

/// Declarative element builder; see the module docs for an example.
#[derive(Debug, Clone)]
pub struct ElementBuilder {
    name: String,
    attrs: Vec<Attr>,
    children: Vec<BuildNode>,
}

#[derive(Debug, Clone)]
enum BuildNode {
    Element(ElementBuilder),
    Text(String),
}

impl ElementBuilder {
    /// Start an element with the given label.
    pub fn new(name: impl Into<String>) -> Self {
        ElementBuilder { name: name.into(), attrs: Vec::new(), children: Vec::new() }
    }

    /// Add an attribute.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push(Attr::new(name.into(), value));
        self
    }

    /// Add a child element.
    pub fn child(mut self, child: ElementBuilder) -> Self {
        self.children.push(BuildNode::Element(child));
        self
    }

    /// Add a text child.
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.children.push(BuildNode::Text(text.into()));
        self
    }

    /// Materialize into `tree` as a detached subtree; returns its root.
    pub(crate) fn build_into(self, tree: &mut Tree) -> NodeId {
        let node = tree.new_element_with(self.name.into(), self.attrs);
        for child in self.children {
            let c = match child {
                BuildNode::Element(b) => b.build_into(tree),
                BuildNode::Text(t) => tree.new_text(t),
            };
            tree.append_child(node, c);
        }
        node
    }

    /// Materialize as a complete [`Document`] with this element as the root.
    pub fn into_document(self) -> Document {
        let mut tree = Tree::new();
        let root_elem = self.build_into(&mut tree);
        let root = tree.root();
        tree.append_child(root, root_elem);
        Document::from_tree(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_structure() {
        let doc = ElementBuilder::new("a")
            .attr("k", "v")
            .child(ElementBuilder::new("b").text("t"))
            .into_document();
        assert_eq!(doc.to_xml(), "<a k=\"v\"><b>t</b></a>");
        doc.tree.validate().unwrap();
    }

    #[test]
    fn builder_output_equals_parse() {
        let built = ElementBuilder::new("x")
            .child(ElementBuilder::new("y").text("z"))
            .into_document();
        let parsed = crate::Document::parse("<x><y>z</y></x>").unwrap();
        assert!(built.tree.subtree_eq(built.tree.root(), &parsed.tree, parsed.tree.root()));
    }
}
