//! Node payloads: the XML data model of the paper (ordered trees whose nodes
//! carry labels for elements and data for text nodes, §4), plus comments and
//! processing instructions so real documents round-trip.

use crate::intern::Symbol;
use std::fmt;

/// An attribute of an element node.
///
/// Attributes are *not* children in the tree model: the paper treats them
/// specially (at most one per label, unordered, no persistent identifier of
/// their own — §5.2 "Other XML features").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attr {
    /// Attribute name, e.g. `id` or `xml:lang`, as an interned label.
    pub name: Symbol,
    /// Attribute value after entity expansion.
    pub value: String,
}

impl Attr {
    /// Convenience constructor.
    pub fn new(name: impl Into<Symbol>, value: impl Into<String>) -> Self {
        Attr { name: name.into(), value: value.into() }
    }
}

/// Borrowed view of an element node: its label and attribute list.
///
/// Attribute order is preserved for faithful serialization but is semantically
/// irrelevant (set semantics), matching the paper. The view is `Copy`; the
/// tree owns the data, and mutation goes through [`crate::Tree::set_attr`],
/// [`crate::Tree::insert_attr_at`] and [`crate::Tree::remove_attr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Element<'a> {
    /// The element label (tag name), as an interned label.
    pub name: Symbol,
    /// Attributes in document order.
    pub attrs: &'a [Attr],
}

impl<'a> Element<'a> {
    /// An element with the given label and no attributes.
    pub fn new(name: impl Into<Symbol>) -> Self {
        Element { name: name.into(), attrs: &[] }
    }

    /// Value of the attribute named `name`, if present.
    pub fn attr(&self, name: &str) -> Option<&'a str> {
        self.attrs.iter().find(|a| a.name == name).map(|a| a.value.as_str())
    }

    /// Value of the attribute with the interned label `name`, if present.
    /// Avoids the text comparison of [`Element::attr`] on hot paths.
    pub fn attr_sym(&self, name: Symbol) -> Option<&'a str> {
        self.attrs.iter().find(|a| a.name == name).map(|a| a.value.as_str())
    }

    /// True when the element carries an attribute named `name`.
    pub fn has_attr(&self, name: &str) -> bool {
        self.attrs.iter().any(|a| a.name == name)
    }
}

/// Borrowed view of a tree node's payload, handed out by value by
/// [`crate::Tree::kind`] and accepted by [`crate::Tree::new_node`] (which
/// copies the borrowed content into the tree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind<'a> {
    /// The document root; exactly one per [`crate::Tree`], always the root.
    Document,
    /// An element node: label plus attributes.
    Element(Element<'a>),
    /// A text node (character data after entity expansion).
    Text(&'a str),
    /// A comment (`<!-- ... -->`).
    Comment(&'a str),
    /// A processing instruction (`<?target data?>`).
    Pi {
        /// The PI target, e.g. `xml-stylesheet`.
        target: &'a str,
        /// Everything between the target and `?>`.
        data: &'a str,
    },
}

impl<'a> NodeKind<'a> {
    /// Element label, if this is an element.
    pub fn name(&self) -> Option<&'static str> {
        match self {
            NodeKind::Element(e) => Some(e.name.as_str()),
            _ => None,
        }
    }

    /// Text content, if this is a text node.
    pub fn text(&self) -> Option<&'a str> {
        match *self {
            NodeKind::Text(t) => Some(t),
            _ => None,
        }
    }

    /// The element view, if this is an element.
    pub fn as_element(&self) -> Option<Element<'a>> {
        match *self {
            NodeKind::Element(e) => Some(e),
            _ => None,
        }
    }

    /// True for [`NodeKind::Element`].
    pub fn is_element(&self) -> bool {
        matches!(self, NodeKind::Element(_))
    }

    /// True for [`NodeKind::Text`].
    pub fn is_text(&self) -> bool {
        matches!(self, NodeKind::Text(_))
    }

    /// A short tag identifying the kind, used in diagnostics and hashing.
    pub fn kind_tag(&self) -> &'static str {
        match self {
            NodeKind::Document => "document",
            NodeKind::Element(_) => "element",
            NodeKind::Text(_) => "text",
            NodeKind::Comment(_) => "comment",
            NodeKind::Pi { .. } => "pi",
        }
    }
}

impl fmt::Display for NodeKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Document => write!(f, "#document"),
            NodeKind::Element(e) => write!(f, "<{}>", e.name),
            NodeKind::Text(t) => {
                let shown: String = t.chars().take(24).collect();
                if t.chars().count() > 24 {
                    write!(f, "{shown:?}…")
                } else {
                    write!(f, "{shown:?}")
                }
            }
            NodeKind::Comment(_) => write!(f, "<!--…-->"),
            NodeKind::Pi { target, .. } => write!(f, "<?{target}…?>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_view_lookups() {
        let attrs = [Attr::new("id", "p1"), Attr::new("lang", "en")];
        let e = Element { name: "product".into(), attrs: &attrs };
        assert_eq!(e.attr("id"), Some("p1"));
        assert_eq!(e.attr_sym(Symbol::intern("lang")), Some("en"));
        assert!(e.has_attr("id"));
        assert!(!e.has_attr("sku"));
        assert_eq!(Element::new("x").attrs.len(), 0);
    }

    #[test]
    fn kind_accessors() {
        let e = NodeKind::Element(Element::new("a"));
        assert_eq!(e.name(), Some("a"));
        assert!(e.is_element());
        assert!(!e.is_text());
        let t = NodeKind::Text("hello");
        assert_eq!(t.text(), Some("hello"));
        assert!(t.is_text());
        assert_eq!(NodeKind::Document.kind_tag(), "document");
        assert_eq!(t.kind_tag(), "text");
    }

    #[test]
    fn display_truncates_long_text() {
        let long = "x".repeat(100);
        let s = NodeKind::Text(&long).to_string();
        assert!(s.len() < 60);
        assert!(s.contains('…'));
    }
}
