//! The [`Document`] type: a parsed tree plus its DTD-derived metadata.

use crate::error::ParseError;
use crate::parser::{self, ParseOptions};
use crate::serialize::{serialize_node, SerializeOptions};
use crate::stats::DocStats;
use crate::tree::{NodeId, Tree};

pub use crate::parser::Doctype;

/// An XML document: the node tree and, when the source carried a DOCTYPE,
/// the ID-attribute and entity declarations extracted from it.
#[derive(Debug, Clone, Default)]
pub struct Document {
    /// The node arena. The root is always a [`crate::NodeKind::Document`].
    pub tree: Tree,
    /// DTD metadata, if the source had a `<!DOCTYPE ...>`.
    pub doctype: Option<Doctype>,
}

impl Document {

    /// Wrap an existing tree.
    pub fn from_tree(tree: Tree) -> Document {
        Document { tree, doctype: None }
    }

    /// Parse with default [`ParseOptions`].
    pub fn parse(input: &str) -> Result<Document, ParseError> {
        Self::parse_with(input, &ParseOptions::default())
    }

    /// Parse with explicit options.
    pub fn parse_with(input: &str, opts: &ParseOptions) -> Result<Document, ParseError> {
        let parsed = parser::parse(input, opts)?;
        Ok(Document { tree: parsed.tree, doctype: parsed.doctype })
    }

    /// The root element (skipping top-level comments/PIs).
    pub fn root_element(&self) -> Option<NodeId> {
        self.tree.root_element()
    }

    /// Total number of nodes reachable from the root, including the document
    /// node itself.
    pub fn node_count(&self) -> usize {
        self.tree.subtree_size(self.tree.root())
    }

    /// Compact serialization (no added whitespace, no declaration).
    pub fn to_xml(&self) -> String {
        self.to_xml_with(&SerializeOptions::compact())
    }

    /// Pretty-printed serialization with XML declaration.
    pub fn to_xml_pretty(&self) -> String {
        self.to_xml_with(&SerializeOptions::pretty())
    }

    /// Canonical compact serialization (attributes sorted by name). Two
    /// documents that are equal under the change model's set semantics for
    /// attributes produce identical canonical XML.
    pub fn to_canonical_xml(&self) -> String {
        self.to_xml_with(&SerializeOptions::canonical())
    }

    /// Serialization with explicit options.
    pub fn to_xml_with(&self, opts: &SerializeOptions) -> String {
        serialize_node(&self.tree, self.tree.root(), opts)
    }

    /// Collect summary statistics (node counts, depth, label histogram).
    pub fn stats(&self) -> DocStats {
        DocStats::collect(&self.tree)
    }

    /// The ID attribute name declared (via DTD) for elements labeled `name`.
    pub fn id_attr_of(&self, name: &str) -> Option<&str> {
        self.doctype.as_ref().and_then(|d| d.id_attr_of(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_count() {
        let doc = Document::parse("<a><b/><c>t</c></a>").unwrap();
        assert_eq!(doc.node_count(), 5);
    }

    #[test]
    fn empty_document_has_only_root() {
        let doc = Document::default();
        assert_eq!(doc.node_count(), 1);
        assert!(doc.root_element().is_none());
    }

    #[test]
    fn id_attr_lookup_through_document() {
        let doc =
            Document::parse("<!DOCTYPE c [<!ATTLIST p k ID #IMPLIED>]><c/>").unwrap();
        assert_eq!(doc.id_attr_of("p"), Some("k"));
        assert_eq!(doc.id_attr_of("q"), None);
    }

    #[test]
    fn roundtrip_is_stable() {
        let src = "<a x=\"1\"><b>text</b><c/><!--n--></a>";
        let doc = Document::parse(src).unwrap();
        let once = doc.to_xml();
        let doc2 = Document::parse(&once).unwrap();
        assert_eq!(doc2.to_xml(), once, "serialize(parse(s)) must be a fixpoint");
    }
}
