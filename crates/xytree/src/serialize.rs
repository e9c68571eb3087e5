//! Serialization of trees back to XML text.
//!
//! Two modes: compact (no added whitespace — byte-faithful for documents
//! parsed with whitespace preserved) and pretty (indented, one element per
//! line) used by examples and debugging output. Delta sizes in the
//! experiments (Figs. 5 and 6) are measured on compact output.

use crate::escape::{escape_attr_into, escape_text_into};
use crate::node::NodeKind;
use crate::tree::{NodeId, Tree};

/// Options controlling [`serialize_node`] / [`crate::Document::to_xml_with`].
#[derive(Debug, Clone)]
pub struct SerializeOptions {
    /// Indent nested elements by this many spaces per level; `None` for
    /// compact output.
    pub indent: Option<usize>,
    /// Emit `<?xml version="1.0"?>` before the root.
    pub declaration: bool,
    /// Collapse `<e></e>` to `<e/>`.
    pub self_close_empty: bool,
    /// Emit attributes sorted by name instead of document order. Attribute
    /// order is semantically irrelevant in XML (and in the paper's change
    /// model), so sorted output gives a canonical form for equality checks.
    pub sort_attributes: bool,
}

impl Default for SerializeOptions {
    fn default() -> Self {
        SerializeOptions {
            indent: None,
            declaration: false,
            self_close_empty: true,
            sort_attributes: false,
        }
    }
}

impl SerializeOptions {
    /// Compact output, no declaration.
    pub fn compact() -> Self {
        Self::default()
    }

    /// Two-space indentation with declaration.
    pub fn pretty() -> Self {
        SerializeOptions { indent: Some(2), declaration: true, ..Default::default() }
    }

    /// Compact output with sorted attributes: a canonical form under the
    /// attributes-are-a-set semantics.
    pub fn canonical() -> Self {
        SerializeOptions { sort_attributes: true, ..Default::default() }
    }
}

/// Serialize the subtree rooted at `node` into `out`.
///
/// A [`NodeKind::Document`] node serializes as its children.
pub fn serialize_node_into(tree: &Tree, node: NodeId, opts: &SerializeOptions, out: &mut String) {
    if opts.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if opts.indent.is_some() {
            out.push('\n');
        }
    }
    write_node(tree, node, opts, 0, out);
    if opts.indent.is_some() && !out.ends_with('\n') {
        out.push('\n');
    }
}

/// Serialize the subtree rooted at `node` to a fresh string.
pub fn serialize_node(tree: &Tree, node: NodeId, opts: &SerializeOptions) -> String {
    let mut s = String::new();
    serialize_node_into(tree, node, opts, &mut s);
    s
}

fn write_indent(opts: &SerializeOptions, depth: usize, out: &mut String) {
    if let Some(w) = opts.indent {
        if !out.is_empty() && !out.ends_with('\n') {
            out.push('\n');
        }
        for _ in 0..depth * w {
            out.push(' ');
        }
    }
}

/// True when every child is a non-text node — safe to pretty-print children
/// on their own lines without changing text content.
fn children_are_structural(tree: &Tree, node: NodeId) -> bool {
    tree.children(node).all(|c| !tree.kind(c).is_text())
}

fn write_node(tree: &Tree, node: NodeId, opts: &SerializeOptions, depth: usize, out: &mut String) {
    match tree.kind(node) {
        NodeKind::Document => {
            for c in tree.children(node) {
                write_node(tree, c, opts, depth, out);
            }
        }
        NodeKind::Element(e) => {
            write_indent(opts, depth, out);
            out.push('<');
            out.push_str(&e.name);
            let mut order: Vec<usize> = (0..e.attrs.len()).collect();
            if opts.sort_attributes {
                order.sort_by(|&a, &b| e.attrs[a].name.cmp(&e.attrs[b].name));
            }
            for i in order {
                let a = &e.attrs[i];
                out.push(' ');
                out.push_str(&a.name);
                out.push_str("=\"");
                escape_attr_into(&a.value, out);
                out.push('"');
            }
            if tree.first_child(node).is_none() && opts.self_close_empty {
                out.push_str("/>");
                return;
            }
            out.push('>');
            let structural = children_are_structural(tree, node);
            for c in tree.children(node) {
                if structural {
                    write_node(tree, c, opts, depth + 1, out);
                } else {
                    // Mixed content: never re-indent, it would change the text.
                    let compact = SerializeOptions { indent: None, ..opts.clone() };
                    write_node(tree, c, &compact, depth + 1, out);
                }
            }
            if structural && tree.first_child(node).is_some() {
                write_indent(opts, depth, out);
            }
            out.push_str("</");
            out.push_str(&e.name);
            out.push('>');
        }
        NodeKind::Text(t) => {
            escape_text_into(t, out);
        }
        NodeKind::Comment(c) => {
            write_indent(opts, depth, out);
            out.push_str("<!--");
            out.push_str(c);
            out.push_str("-->");
        }
        NodeKind::Pi { target, data } => {
            write_indent(opts, depth, out);
            out.push_str("<?");
            out.push_str(target);
            if !data.is_empty() {
                out.push(' ');
                out.push_str(data);
            }
            out.push_str("?>");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;

    fn roundtrip(xml: &str) -> String {
        let doc = Document::parse(xml).unwrap();
        doc.to_xml()
    }

    #[test]
    fn compact_roundtrip_simple() {
        assert_eq!(roundtrip("<a><b>hi</b><c/></a>"), "<a><b>hi</b><c/></a>");
    }

    #[test]
    fn escapes_on_output() {
        let mut t = Tree::new();
        let e = t.new_element("e");
        t.set_attr(e, "q", "a\"b");
        let txt = t.new_text("1<2&3");
        t.append_child(e, txt);
        let root = t.root();
        t.append_child(root, e);
        let s = serialize_node(&t, root, &SerializeOptions::compact());
        assert_eq!(s, "<e q=\"a&quot;b\">1&lt;2&amp;3</e>");
    }

    #[test]
    fn self_close_toggle() {
        let mut t = Tree::new();
        let e = t.new_element("e");
        let root = t.root();
        t.append_child(root, e);
        let opts = SerializeOptions { self_close_empty: false, ..Default::default() };
        assert_eq!(serialize_node(&t, root, &opts), "<e></e>");
        assert_eq!(serialize_node(&t, root, &SerializeOptions::compact()), "<e/>");
    }

    #[test]
    fn pretty_indents_structural_children() {
        let doc = Document::parse("<a><b><c/></b></a>").unwrap();
        let s = doc.to_xml_with(&SerializeOptions::pretty());
        let expected = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a>\n  <b>\n    <c/>\n  </b>\n</a>\n";
        assert_eq!(s, expected);
    }

    #[test]
    fn pretty_keeps_mixed_content_inline() {
        let doc = Document::parse("<a>one<b/>two</a>").unwrap();
        let s = doc.to_xml_with(&SerializeOptions::pretty());
        assert!(s.contains("<a>one<b/>two</a>"), "mixed content must stay inline: {s}");
    }

    #[test]
    fn comments_and_pis_serialize() {
        let doc = Document::parse("<a><!-- note --><?go fast?></a>").unwrap();
        assert_eq!(doc.to_xml(), "<a><!-- note --><?go fast?></a>");
    }

    #[test]
    fn declaration_emitted_once() {
        let doc = Document::parse("<a/>").unwrap();
        let opts = SerializeOptions { declaration: true, ..Default::default() };
        let s = doc.to_xml_with(&opts);
        assert_eq!(s, "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>");
    }
}
