//! XMLization of HTML.
//!
//! §1 of the paper: "Observe that the diff we describe here is for XML
//! documents. It can also be used for HTML documents by XMLizing them, a
//! relatively easy task that mostly consists in properly closing tags."
//! This crate is that task, done properly enough for real web pages:
//!
//! - tag and attribute names are lowercased;
//! - **void elements** (`<br>`, `<img>`, …) never take children;
//! - **implied end tags** are inserted (`<p>` closed by the next block
//!   element, `<li>` by the next `<li>`, table cells by the next cell/row…);
//! - attributes may be unquoted (`width=100`) or bare (`disabled`);
//! - the common HTML entities expand; unknown ones survive literally;
//! - `<script>` and `<style>` contents are raw text;
//! - comments and the doctype are skipped, stray close tags are dropped,
//!   everything still open at EOF is closed;
//! - multiple top-level nodes are wrapped in a synthesized `<html>` root so
//!   the result is always a well-formed [`xytree::Document`].
//!
//! ```
//! use xyhtml::htmlize;
//!
//! let doc = htmlize("<ul><li>one<li>two<br></ul>");
//! assert_eq!(doc.to_xml(), "<ul><li>one</li><li>two<br/></li></ul>");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod entities;
mod rules;

pub use rules::{closes_implicitly, is_void};

use xytree::{Document, NodeId, Tree};

/// Convert (possibly messy) HTML into a well-formed XML document. This is
/// infallible by design: crawled HTML is never rejected, only repaired.
pub fn htmlize(html: &str) -> Document {
    Parser::new(html).run()
}

struct Parser<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
    tree: Tree,
    /// Open elements: (node, lowercased tag).
    stack: Vec<(NodeId, String)>,
    text_buf: String,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            input,
            pos: 0,
            tree: Tree::with_capacity(input.len() / 24 + 4),
            stack: Vec::new(),
            text_buf: String::new(),
        }
    }

    fn run(mut self) -> Document {
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'<' {
                self.flush_text();
                self.markup();
            } else {
                self.text();
            }
        }
        self.flush_text();
        let mut tree = self.tree;
        ensure_single_root(&mut tree);
        Document::from_tree(tree)
    }

    fn current_parent(&self) -> NodeId {
        self.stack.last().map(|&(n, _)| n).unwrap_or_else(|| self.tree.root())
    }

    fn text(&mut self) {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'<' {
            self.pos += 1;
        }
        entities::expand_into(&self.input[start..self.pos], &mut self.text_buf);
    }

    fn flush_text(&mut self) {
        if self.text_buf.is_empty() {
            return;
        }
        let text = std::mem::take(&mut self.text_buf);
        if text.chars().all(char::is_whitespace) {
            return;
        }
        let parent = self.current_parent();
        if let Some(last) = self.tree.last_child(parent) {
            if self.tree.kind(last).is_text() {
                self.tree.append_text(last, &text);
                return;
            }
        }
        let n = self.tree.new_text(text);
        self.tree.append_child(parent, n);
    }

    fn markup(&mut self) {
        let rest = &self.input[self.pos..];
        if rest.starts_with("<!--") {
            self.pos += match rest.find("-->") {
                Some(i) => i + 3,
                None => rest.len(),
            };
        } else if rest.starts_with("<!") || rest.starts_with("<?") {
            // Doctype, CDATA-ish junk, processing instructions: skip to '>'.
            self.pos += rest.find('>').map(|i| i + 1).unwrap_or(rest.len());
        } else if rest.starts_with("</") {
            self.close_tag();
        } else if rest.len() > 1 && rest.as_bytes()[1].is_ascii_alphabetic() {
            self.open_tag();
        } else {
            // A bare '<' in text (e.g. "a < b"): keep it literally.
            self.text_buf.push('<');
            self.pos += 1;
        }
    }

    fn read_name(&mut self) -> String {
        let start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_alphanumeric() || b == b'-' || b == b':' {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.input[start..self.pos].to_lowercase()
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn open_tag(&mut self) {
        self.pos += 1; // <
        let name = self.read_name();
        let mut attrs: Vec<(String, String)> = Vec::new();
        let mut self_closed = false;
        loop {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                None => break,
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.bytes.get(self.pos) == Some(&b'>') {
                        self.pos += 1;
                        self_closed = true;
                        break;
                    }
                }
                Some(_) => {
                    if let Some(attr) = self.read_attribute() {
                        // Crawled HTML contains attribute "names" that are
                        // not XML names (`<a !>`, `<a "x"=y>`); dropping
                        // them is the only repair that keeps the output
                        // well-formed.
                        if is_xml_name(&attr.0) && !attrs.iter().any(|(k, _)| *k == attr.0) {
                            attrs.push(attr);
                        }
                    } else {
                        self.pos += 1; // unparseable byte inside the tag
                    }
                }
            }
        }

        // Implied end tags: close open elements this tag terminates.
        while let Some((_, open)) = self.stack.last() {
            if closes_implicitly(open, &name) {
                self.stack.pop();
            } else {
                break;
            }
        }

        let parent = self.current_parent();
        let node = self.tree.new_element(name.clone());
        for (k, v) in attrs {
            self.tree.set_attr(node, k, v);
        }
        self.tree.append_child(parent, node);

        if is_void(&name) || self_closed {
            return;
        }
        if name == "script" || name == "style" {
            self.raw_text(node, &name);
            return;
        }
        self.stack.push((node, name));
    }

    /// Attribute forms: `k="v"`, `k='v'`, `k=v`, bare `k`.
    fn read_attribute(&mut self) -> Option<(String, String)> {
        let name = {
            let start = self.pos;
            while self.pos < self.bytes.len() {
                let b = self.bytes[self.pos];
                if b.is_ascii_whitespace() || matches!(b, b'=' | b'>' | b'/') {
                    break;
                }
                self.pos += 1;
            }
            if self.pos == start {
                return None;
            }
            self.input[start..self.pos].to_lowercase()
        };
        self.skip_ws();
        if self.bytes.get(self.pos) != Some(&b'=') {
            return Some((name, String::new())); // bare attribute
        }
        self.pos += 1;
        self.skip_ws();
        let raw = match self.bytes.get(self.pos) {
            Some(&q @ (b'"' | b'\'')) => {
                self.pos += 1;
                let start = self.pos;
                while self.pos < self.bytes.len() && self.bytes[self.pos] != q {
                    self.pos += 1;
                }
                let v = &self.input[start..self.pos];
                if self.pos < self.bytes.len() {
                    self.pos += 1; // closing quote
                }
                v
            }
            _ => {
                let start = self.pos;
                while self.pos < self.bytes.len() {
                    let b = self.bytes[self.pos];
                    if b.is_ascii_whitespace() || b == b'>' {
                        break;
                    }
                    self.pos += 1;
                }
                &self.input[start..self.pos]
            }
        };
        let mut value = String::with_capacity(raw.len());
        entities::expand_into(raw, &mut value);
        Some((name, value))
    }

    fn close_tag(&mut self) {
        self.pos += 2; // </
        let name = self.read_name();
        let rest = &self.input[self.pos..];
        self.pos += rest.find('>').map(|i| i + 1).unwrap_or(rest.len());
        // Close up to the matching open element; drop the close tag entirely
        // if nothing matches (stray `</b>`).
        if let Some(depth) = self.stack.iter().rposition(|(_, n)| *n == name) {
            self.stack.truncate(depth);
        }
    }

    /// `<script>`/`<style>`: everything until the matching close tag is one
    /// text node, no entity expansion, no nested markup.
    fn raw_text(&mut self, node: NodeId, name: &str) {
        let close = format!("</{name}");
        let rest = &self.input[self.pos..];
        // Case-insensitive search on bytes: the close tag is pure ASCII, and
        // Unicode lowercasing of `rest` would shift byte offsets (e.g. İ).
        let end = find_ascii_ci(rest.as_bytes(), close.as_bytes()).unwrap_or(rest.len());
        let content = &rest[..end];
        if !content.trim().is_empty() {
            let t = self.tree.new_text(content);
            self.tree.append_child(node, t);
        }
        self.pos += end;
        let rest = &self.input[self.pos..];
        self.pos += rest.find('>').map(|i| i + 1).unwrap_or(rest.len());
    }
}

/// Position of the first ASCII-case-insensitive occurrence of `needle`
/// (ASCII) in `hay`.
fn find_ascii_ci(hay: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || hay.len() < needle.len() {
        return None;
    }
    hay.windows(needle.len()).position(|w| {
        w.iter()
            .zip(needle)
            .all(|(a, b)| a.eq_ignore_ascii_case(b))
    })
}

/// A usable XML attribute name: starts with a letter or `_`, continues with
/// name characters.
fn is_xml_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'))
}

/// Guarantee exactly one root element, synthesizing `<html>` if needed.
fn ensure_single_root(tree: &mut Tree) {
    let root = tree.root();
    let elements: Vec<NodeId> = tree
        .children(root)
        .filter(|&c| tree.kind(c).is_element())
        .collect();
    let top_level: Vec<NodeId> = tree.children(root).collect();
    let needs_wrapper = elements.len() != 1 || top_level.len() != elements.len();
    if top_level.is_empty() {
        let html = tree.new_element("html");
        tree.append_child(root, html);
        return;
    }
    if !needs_wrapper {
        return;
    }
    let html = tree.new_element("html");
    for c in top_level {
        tree.detach(c);
        tree.append_child(html, c);
    }
    tree.append_child(root, html);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(html: &str) -> String {
        htmlize(html).to_xml()
    }

    #[test]
    fn well_formed_passes_through() {
        assert_eq!(x("<div><p>hi</p></div>"), "<div><p>hi</p></div>");
    }

    #[test]
    fn tags_are_lowercased() {
        assert_eq!(x("<DIV CLASS=\"a\"><P>hi</P></DIV>"), "<div class=\"a\"><p>hi</p></div>");
    }

    #[test]
    fn void_elements_self_close() {
        assert_eq!(x("<div><br><img src=\"x.png\"><hr></div>"),
            "<div><br/><img src=\"x.png\"/><hr/></div>");
    }

    #[test]
    fn unclosed_paragraphs() {
        assert_eq!(x("<div><p>one<p>two</div>"), "<div><p>one</p><p>two</p></div>");
    }

    #[test]
    fn list_items_imply_close() {
        assert_eq!(x("<ul><li>a<li>b<li>c</ul>"), "<ul><li>a</li><li>b</li><li>c</li></ul>");
    }

    #[test]
    fn table_cells_imply_close() {
        assert_eq!(
            x("<table><tr><td>1<td>2<tr><td>3</table>"),
            "<table><tr><td>1</td><td>2</td></tr><tr><td>3</td></tr></table>"
        );
    }

    #[test]
    fn p_closed_by_block_elements() {
        assert_eq!(x("<p>intro<div>body</div>"), "<html><p>intro</p><div>body</div></html>");
    }

    #[test]
    fn unquoted_and_bare_attributes() {
        assert_eq!(
            x("<input type=text disabled value='x'>"),
            "<input type=\"text\" disabled=\"\" value=\"x\"/>"
        );
    }

    #[test]
    fn entities_expand_and_unknown_survive() {
        assert_eq!(x("<p>a&nbsp;b &copy; &unknown; &amp;</p>"),
            "<p>a\u{a0}b © &amp;unknown; &amp;</p>");
    }

    #[test]
    fn script_content_is_raw() {
        assert_eq!(
            x("<div><script>if (a < b && c) { x(); }</script>after</div>"),
            "<div><script>if (a &lt; b &amp;&amp; c) { x(); }</script>after</div>"
        );
    }

    #[test]
    fn script_close_found_past_multibyte_lowercasing() {
        // U+0130 lowercases to two characters; byte-offset math over a
        // lowercased copy would drag "</s" into the script text.
        let html = "<div><SCRIPT>var s = \"\u{0130}\u{0130}\u{0130}\";</SCRIPT><p>after</p></div>";
        let doc = htmlize(html);
        let xml = doc.to_xml();
        assert!(xml.contains("İİİ\";</script><p>after</p>"), "{xml}");
        assert!(!xml.contains("&lt;/s"), "close tag leaked into content: {xml}");
    }

    #[test]
    fn comments_and_doctype_skipped() {
        assert_eq!(x("<!DOCTYPE html><!-- hi --><p>x</p>"), "<p>x</p>");
    }

    #[test]
    fn stray_close_tags_dropped() {
        assert_eq!(x("<div></b>text</div></div>"), "<div>text</div>");
    }

    #[test]
    fn unclosed_at_eof_are_closed() {
        assert_eq!(x("<div><b>bold"), "<div><b>bold</b></div>");
    }

    #[test]
    fn multiple_roots_get_wrapped() {
        assert_eq!(x("<p>a</p><p>b</p>"), "<html><p>a</p><p>b</p></html>");
        assert_eq!(x("hello <b>world</b>"), "<html>hello <b>world</b></html>");
    }

    #[test]
    fn empty_input_yields_empty_html() {
        assert_eq!(x(""), "<html/>");
        assert_eq!(x("   \n "), "<html/>");
    }

    #[test]
    fn bare_less_than_in_text() {
        assert_eq!(x("<p>a < b</p>"), "<p>a &lt; b</p>");
    }

    #[test]
    fn output_always_reparses_as_xml() {
        for nasty in [
            "<p>one<p>two<ul><li>x<li>y</ul><table><tr><td>z",
            "<<<>>>",
            "<a href=foo?bar=1&baz=2>link",
            "<b><i>cross</b>over</i>",
            "<script>while(i<10){}</script>",
        ] {
            let doc = htmlize(nasty);
            let xml = doc.to_xml();
            xytree::Document::parse(&xml)
                .unwrap_or_else(|e| panic!("{nasty:?} -> {xml:?} does not reparse: {e}"));
        }
    }

    #[test]
    fn htmlized_pages_diff_end_to_end() {
        // The paper's point: XMLize, then diff like any XML.
        let old = htmlize("<ul><li>camera<li>phone</ul>");
        let new = htmlize("<ul><li>camera<li>tablet<li>phone</ul>");
        let old_x = xydelta::XidDocument::assign_initial(old);
        let r = xydiff::diff(&old_x, &new, &xydiff::DiffOptions::default());
        let mut replay = old_x.clone();
        r.delta.apply_to(&mut replay).unwrap();
        assert_eq!(replay.doc.to_xml(), new.to_xml());
        assert_eq!(r.delta.counts().inserts, 1);
    }
}
