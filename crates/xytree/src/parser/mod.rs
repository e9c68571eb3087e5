//! Non-validating XML parser.
//!
//! Hand-written replacement for the Xerces-C++ DOM parser the paper's
//! implementation used. It handles the constructs that occur in warehouse
//! documents: elements, attributes, character data, CDATA, comments,
//! processing instructions, numeric and named entity references, and the DTD
//! internal subset (from which it extracts **ID attribute declarations** —
//! the input to BULD phase 1 — and internal general entities).
//!
//! Deliberate simplifications (documented in DESIGN.md §4): no external DTD
//! fetching, no validation, internal entity values are expanded as character
//! data (not re-parsed as markup), and namespace prefixes are kept as part of
//! the node label — exactly how the diff treats them.
//!
//! Parsing is iterative (explicit element stack) so document depth is bounded
//! by [`ParseOptions::max_depth`], not the thread stack.

mod cursor;
mod dtd;
mod entities;

pub use dtd::{
    parse_dtd, AttDef, AttDefault, AttType, ContentModel, Doctype, Occur, Particle,
};

use crate::error::{ParseError, ParseErrorKind};
use crate::intern::Symbol;
use crate::node::{Attr, NodeKind};
use crate::tree::{NodeId, Tree};
use cursor::Cursor;
use std::borrow::Cow;

/// Options controlling parsing.
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// Keep text nodes that consist only of whitespace. Off by default: the
    /// diff should see "indentation" whitespace as formatting, not data.
    pub keep_whitespace_text: bool,
    /// Keep comment nodes. On by default.
    pub keep_comments: bool,
    /// Keep processing-instruction nodes. On by default.
    pub keep_pi: bool,
    /// Maximum element nesting depth.
    pub max_depth: usize,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            keep_whitespace_text: false,
            keep_comments: true,
            keep_pi: true,
            max_depth: 1024,
        }
    }
}

/// Outcome of a successful parse: the tree plus DTD-derived metadata.
pub(crate) struct Parsed {
    pub tree: Tree,
    pub doctype: Option<Doctype>,
}

pub(crate) fn parse(input: &str, opts: &ParseOptions) -> Result<Parsed, ParseError> {
    Parser::new(input, opts).run()
}

struct Parser<'a> {
    cur: Cursor<'a>,
    opts: &'a ParseOptions,
    tree: Tree,
    doctype: Option<Doctype>,
    /// Open-element stack: (node, interned name-as-parsed).
    stack: Vec<(NodeId, Symbol)>,
    seen_root: bool,
    /// Pending character data. Borrows straight from the input for the common
    /// single-run, no-entities case; goes owned only when runs merge (CDATA,
    /// entity expansion) — so indentation text that the whitespace policy
    /// drops is never copied at all, and kept text is copied exactly once,
    /// into the tree's text buffer.
    pending_text: Option<Cow<'a, str>>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, opts: &'a ParseOptions) -> Self {
        // Skip a UTF-8 BOM if present.
        let input = input.strip_prefix('\u{feff}').unwrap_or(input);
        Parser {
            cur: Cursor::new(input),
            opts,
            tree: Tree::with_capacity(input.len() / 16 + 4),
            doctype: None,
            stack: Vec::with_capacity(32),
            seen_root: false,
            pending_text: None,
        }
    }

    fn err(&self, kind: ParseErrorKind) -> ParseError {
        self.cur.error(kind)
    }

    fn current_parent(&self) -> NodeId {
        self.stack.last().map(|&(n, _)| n).unwrap_or_else(|| self.tree.root())
    }

    fn run(mut self) -> Result<Parsed, ParseError> {
        loop {
            self.flush_pending_text()?;
            if self.cur.at_eof() {
                break;
            }
            if self.cur.peek() == Some(b'<') {
                self.dispatch_markup()?;
            } else {
                self.read_text()?;
            }
        }
        if let Some((_, name)) = self.stack.pop() {
            return Err(self.err(ParseErrorKind::UnclosedElement(name.to_string())));
        }
        if !self.seen_root {
            return Err(self.err(ParseErrorKind::NoRootElement));
        }
        // The parse result is what a warehouse keeps as the latest version.
        self.tree.shrink_to_fit();
        Ok(Parsed { tree: self.tree, doctype: self.doctype })
    }

    /// Dispatch on the construct starting at `<`.
    fn dispatch_markup(&mut self) -> Result<(), ParseError> {
        match self.cur.peek_at(1) {
            Some(b'/') => self.read_close_tag(),
            Some(b'!') => {
                if self.cur.starts_with(b"<!--") {
                    self.read_comment()
                } else if self.cur.starts_with(b"<![CDATA[") {
                    self.read_cdata()
                } else if self.cur.starts_with(b"<!DOCTYPE") {
                    self.read_doctype()
                } else {
                    Err(self.err(ParseErrorKind::Unexpected {
                        context: "markup declaration",
                        found: self.cur.peek_at(2).unwrap_or(0),
                    }))
                }
            }
            Some(b'?') => self.read_pi(),
            Some(_) => self.read_open_tag(),
            None => Err(self.err(ParseErrorKind::UnexpectedEof("markup"))),
        }
    }

    // ------------------------------------------------------------------
    // Character data
    // ------------------------------------------------------------------

    fn read_text(&mut self) -> Result<(), ParseError> {
        let raw = self.cur.take_until(b'<');
        let expanded = entities::expand(raw, self.doctype.as_ref().map(|d| &d.entities))
            .map_err(|k| self.err(k))?;
        self.append_pending(expanded);
        Ok(())
    }

    /// Accumulate a run of character data, staying borrowed until a second
    /// run forces a merge.
    fn append_pending(&mut self, piece: Cow<'a, str>) {
        if piece.is_empty() {
            return;
        }
        match &mut self.pending_text {
            None => self.pending_text = Some(piece),
            Some(cur) => cur.to_mut().push_str(&piece),
        }
    }

    /// Attach accumulated text (if any) as a text node under the current
    /// parent, merging with a preceding text sibling.
    fn flush_pending_text(&mut self) -> Result<(), ParseError> {
        let Some(text) = self.pending_text.take() else {
            return Ok(());
        };
        let at_top = self.stack.is_empty();
        if at_top {
            if text.chars().all(char::is_whitespace) {
                return Ok(());
            }
            return Err(self.err(ParseErrorKind::ContentOutsideRoot));
        }
        if !self.opts.keep_whitespace_text && text.chars().all(char::is_whitespace) {
            return Ok(());
        }
        let parent = self.current_parent();
        // Merge with a trailing text sibling: "both data will be merged in
        // the parsing of the resulting document" (§6.1).
        match self.tree.last_child(parent) {
            Some(last) if self.tree.kind(last).is_text() => self.tree.append_text(last, &text),
            _ => {
                let n = self.tree.new_text(text);
                self.tree.link_last(parent, n);
            }
        }
        Ok(())
    }

    fn read_cdata(&mut self) -> Result<(), ParseError> {
        self.cur.advance(9); // <![CDATA[
        let content = self
            .cur
            .take_until_seq(b"]]>")
            .ok_or_else(|| self.err(ParseErrorKind::UnexpectedEof("CDATA section")))?;
        self.append_pending(Cow::Borrowed(content));
        self.cur.advance(3);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Tags
    // ------------------------------------------------------------------

    fn read_open_tag(&mut self) -> Result<(), ParseError> {
        self.cur.advance(1); // <
        let name = Symbol::intern(self.read_name("element name")?);
        let mut attrs: Vec<Attr> = Vec::new();
        loop {
            self.cur.skip_whitespace();
            match self.cur.peek() {
                Some(b'>') => {
                    self.cur.advance(1);
                    self.push_element(name, attrs, false)?;
                    return Ok(());
                }
                Some(b'/') => {
                    self.cur.advance(1);
                    self.cur
                        .expect_byte(b'>')
                        .map_err(|found| self.err(ParseErrorKind::Unexpected {
                            context: "empty-element tag",
                            found,
                        }))?;
                    self.push_element(name, attrs, true)?;
                    return Ok(());
                }
                Some(_) => {
                    let attr = self.read_attribute()?;
                    if attrs.iter().any(|a| a.name == attr.name) {
                        return Err(
                            self.err(ParseErrorKind::DuplicateAttribute(attr.name.to_string()))
                        );
                    }
                    attrs.push(attr);
                }
                None => return Err(self.err(ParseErrorKind::UnexpectedEof("open tag"))),
            }
        }
    }

    fn push_element(
        &mut self,
        name: Symbol,
        attrs: Vec<Attr>,
        self_closed: bool,
    ) -> Result<(), ParseError> {
        if self.stack.is_empty() {
            if self.seen_root {
                return Err(self.err(ParseErrorKind::ContentOutsideRoot));
            }
            self.seen_root = true;
        }
        if self.stack.len() >= self.opts.max_depth {
            return Err(self.err(ParseErrorKind::TooDeep(self.opts.max_depth)));
        }
        let parent = self.current_parent();
        let node = self.tree.new_element_with(name, attrs);
        self.tree.link_last(parent, node);
        if !self_closed {
            self.stack.push((node, name));
        }
        Ok(())
    }

    fn read_close_tag(&mut self) -> Result<(), ParseError> {
        self.cur.advance(2); // </
        // Compared against the interned open-tag name without interning:
        // close tags of well-formed input never introduce a new label.
        let name = self.read_name("close tag name")?;
        self.cur.skip_whitespace();
        self.cur
            .expect_byte(b'>')
            .map_err(|found| self.err(ParseErrorKind::Unexpected { context: "close tag", found }))?;
        match self.stack.pop() {
            Some((_, open_name)) if open_name == name => Ok(()),
            Some((_, open_name)) => Err(self.err(ParseErrorKind::MismatchedCloseTag {
                expected: open_name.to_string(),
                found: name.to_string(),
            })),
            None => Err(self.err(ParseErrorKind::UnmatchedCloseTag(name.to_string()))),
        }
    }

    fn read_attribute(&mut self) -> Result<Attr, ParseError> {
        let name = Symbol::intern(self.read_name("attribute name")?);
        self.cur.skip_whitespace();
        self.cur
            .expect_byte(b'=')
            .map_err(|found| self.err(ParseErrorKind::Unexpected {
                context: "attribute equals sign",
                found,
            }))?;
        self.cur.skip_whitespace();
        let quote = match self.cur.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            Some(found) => {
                return Err(self.err(ParseErrorKind::Unexpected {
                    context: "attribute value quote",
                    found,
                }))
            }
            None => return Err(self.err(ParseErrorKind::UnexpectedEof("attribute value"))),
        };
        self.cur.advance(1);
        let raw = self
            .cur
            .take_until_byte_checked(quote)
            .ok_or_else(|| self.err(ParseErrorKind::UnexpectedEof("attribute value")))?;
        let value = entities::expand(raw, self.doctype.as_ref().map(|d| &d.entities))
            .map_err(|k| self.err(k))?
            .into_owned();
        self.cur.advance(1); // closing quote
        Ok(Attr { name, value })
    }

    /// Borrow a name straight out of the input — callers intern or copy only
    /// when the name survives the parse.
    fn read_name(&mut self, context: &'static str) -> Result<&'a str, ParseError> {
        let name = self.cur.take_name();
        if name.is_empty() {
            return Err(match self.cur.peek() {
                Some(found) => self.err(ParseErrorKind::Unexpected { context, found }),
                None => self.err(ParseErrorKind::UnexpectedEof(context)),
            });
        }
        Ok(name)
    }

    // ------------------------------------------------------------------
    // Misc constructs
    // ------------------------------------------------------------------

    fn read_comment(&mut self) -> Result<(), ParseError> {
        self.cur.advance(4); // <!--
        let content = self
            .cur
            .take_until_seq(b"-->")
            .ok_or_else(|| self.err(ParseErrorKind::UnexpectedEof("comment")))?;
        self.cur.advance(3);
        if self.opts.keep_comments {
            // Top-level comments are legal before/after the root.
            let parent = self.current_parent();
            let n = self.tree.new_node(NodeKind::Comment(content));
            self.tree.link_last(parent, n);
        }
        Ok(())
    }

    fn read_pi(&mut self) -> Result<(), ParseError> {
        self.cur.advance(2); // <?
        let target = self.read_name("processing instruction target")?;
        self.cur.skip_whitespace();
        let data = self
            .cur
            .take_until_seq(b"?>")
            .ok_or_else(|| self.err(ParseErrorKind::UnexpectedEof("processing instruction")))?
            .trim_end();
        self.cur.advance(2);
        // The XML declaration is not a PI node.
        if target.eq_ignore_ascii_case("xml") {
            return Ok(());
        }
        if self.opts.keep_pi {
            let parent = self.current_parent();
            let n = self.tree.new_node(NodeKind::Pi { target, data });
            self.tree.link_last(parent, n);
        }
        Ok(())
    }

    fn read_doctype(&mut self) -> Result<(), ParseError> {
        if self.seen_root || self.doctype.is_some() {
            return Err(self.err(ParseErrorKind::MalformedDoctype(
                "DOCTYPE must precede the root element and appear once",
            )));
        }
        let dt = dtd::parse_doctype(&mut self.cur)?;
        self.doctype = Some(dt);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;

    #[test]
    fn minimal_document() {
        let doc = Document::parse("<a/>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.tree.name(root), Some("a"));
        assert_eq!(doc.tree.children_count(root), 0);
    }

    #[test]
    fn nested_elements_and_text() {
        let doc = Document::parse("<a><b>hello</b><c>world</c></a>").unwrap();
        let a = doc.root_element().unwrap();
        let kids: Vec<_> = doc.tree.children(a).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(doc.tree.deep_text(a), "helloworld");
    }

    #[test]
    fn attributes_parse_with_both_quote_styles() {
        let doc = Document::parse(r#"<e a="1" b='2'/>"#).unwrap();
        let e = doc.root_element().unwrap();
        assert_eq!(doc.tree.attr(e, "a"), Some("1"));
        assert_eq!(doc.tree.attr(e, "b"), Some("2"));
    }

    #[test]
    fn whitespace_only_text_dropped_by_default() {
        let doc = Document::parse("<a>\n  <b/>\n</a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.tree.children_count(a), 1);
    }

    #[test]
    fn whitespace_kept_when_requested() {
        let opts = ParseOptions { keep_whitespace_text: true, ..Default::default() };
        let doc = Document::parse_with("<a>\n  <b/>\n</a>", &opts).unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.tree.children_count(a), 3);
    }

    #[test]
    fn entities_expand_in_text_and_attrs() {
        let doc = Document::parse(r#"<e a="&lt;&amp;&gt;">&quot;&apos;&#65;&#x42;</e>"#).unwrap();
        let e = doc.root_element().unwrap();
        assert_eq!(doc.tree.attr(e, "a"), Some("<&>"));
        assert_eq!(doc.tree.deep_text(e), "\"'AB");
    }

    #[test]
    fn cdata_merges_with_text() {
        let doc = Document::parse("<e>one<![CDATA[<raw&>]]>two</e>").unwrap();
        let e = doc.root_element().unwrap();
        assert_eq!(doc.tree.children_count(e), 1, "adjacent text must merge");
        assert_eq!(doc.tree.deep_text(e), "one<raw&>two");
    }

    #[test]
    fn comments_and_pis_are_nodes() {
        let doc = Document::parse("<a><!--note--><?app do it?></a>").unwrap();
        let a = doc.root_element().unwrap();
        let kinds: Vec<_> = doc
            .tree
            .children(a)
            .map(|c| doc.tree.kind(c).kind_tag())
            .collect();
        assert_eq!(kinds, ["comment", "pi"]);
    }

    #[test]
    fn comments_can_be_dropped() {
        let opts = ParseOptions { keep_comments: false, keep_pi: false, ..Default::default() };
        let doc = Document::parse_with("<a><!--note--><?app x?></a>", &opts).unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.tree.children_count(a), 0);
    }

    #[test]
    fn xml_declaration_is_skipped() {
        let doc = Document::parse("<?xml version=\"1.0\"?><a/>").unwrap();
        assert!(doc.root_element().is_some());
        assert_eq!(doc.tree.children_count(doc.tree.root()), 1);
    }

    #[test]
    fn bom_is_skipped() {
        let doc = Document::parse("\u{feff}<a/>").unwrap();
        assert!(doc.root_element().is_some());
    }

    #[test]
    fn mismatched_tags_error() {
        let e = Document::parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::MismatchedCloseTag { .. }));
    }

    #[test]
    fn unclosed_element_error() {
        let e = Document::parse("<a><b>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnclosedElement(_)));
    }

    #[test]
    fn unmatched_close_error() {
        let e = Document::parse("<a/></b>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnmatchedCloseTag(_)));
    }

    #[test]
    fn two_roots_error() {
        let e = Document::parse("<a/><b/>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::ContentOutsideRoot));
    }

    #[test]
    fn text_outside_root_error() {
        let e = Document::parse("<a/>junk").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::ContentOutsideRoot));
    }

    #[test]
    fn empty_input_error() {
        let e = Document::parse("").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::NoRootElement));
    }

    #[test]
    fn duplicate_attribute_error() {
        let e = Document::parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn unknown_entity_error() {
        let e = Document::parse("<a>&nope;</a>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnknownEntity(_)));
    }

    #[test]
    fn depth_limit_enforced() {
        let opts = ParseOptions { max_depth: 4, ..Default::default() };
        let xml = "<a><a><a><a><a/></a></a></a></a>";
        let e = Document::parse_with(xml, &opts).unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::TooDeep(4)));
    }

    #[test]
    fn error_position_is_plausible() {
        let e = Document::parse("<a>\n<b x=></b></a>").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.column > 1);
    }

    #[test]
    fn deep_but_allowed_document_parses() {
        let depth = 500;
        let mut xml = String::new();
        for _ in 0..depth {
            xml.push_str("<d>");
        }
        for _ in 0..depth {
            xml.push_str("</d>");
        }
        let doc = Document::parse(&xml).unwrap();
        assert_eq!(doc.tree.subtree_size(doc.tree.root()), depth + 1);
    }

    #[test]
    fn namespaced_names_are_plain_labels() {
        let doc = Document::parse(r#"<ns:a xmlns:ns="u"><ns:b/></ns:a>"#).unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.tree.name(a), Some("ns:a"));
        assert_eq!(doc.tree.attr(a, "xmlns:ns"), Some("u"));
    }

    #[test]
    fn top_level_comment_allowed() {
        let doc = Document::parse("<!--pre--><a/><!--post-->").unwrap();
        assert_eq!(doc.tree.children_count(doc.tree.root()), 3);
        assert!(doc.root_element().is_some());
    }

    #[test]
    fn crlf_text_preserved() {
        let opts = ParseOptions { keep_whitespace_text: true, ..Default::default() };
        let doc = Document::parse_with("<a>line1\r\nline2</a>", &opts).unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.tree.deep_text(a), "line1\r\nline2");
    }
}
