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
//!
//! The parser has two halves. A [`Tokenizer`] reads the syntax and checks
//! well-formedness; [`build_content`] turns its tokens into tree nodes.
//! [`crate::Document::parse`] is the two run over a whole input. A reader of
//! a fixed vocabulary — the delta format, whose operation elements are all
//! attributes — drives the tokenizer itself and calls `build_content` only
//! where it wants nodes, so no tree is built for the rest.

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
    let mut tokens = Tokenizer::new(input, opts.max_depth);
    let mut tree = Tree::with_capacity(input.len() / 16 + 4);
    let root = tree.root();
    build_content(&mut tokens, &mut tree, root, opts)?;
    // The parse result is what a warehouse keeps as the latest version.
    tree.shrink_to_fit();
    Ok(Parsed { tree, doctype: tokens.doctype })
}

/// One syntactic item of a document, in document order.
#[derive(Debug)]
pub enum Token<'a> {
    /// A start tag, with the element name as written. Its attributes are in
    /// [`Tokenizer::attrs`] until the next token is read.
    Open(&'a str),
    /// The end of the innermost open element: its end tag, or for an
    /// empty-element tag (`<e/>`) the token right after its `Open`.
    Close,
    /// A run of character data, never empty: the text between two pieces of
    /// markup with its entity references expanded, or the content of one
    /// CDATA section. Consecutive runs belong to one text node. Whitespace
    /// outside the root element is not reported.
    Text(Cow<'a, str>),
    /// A comment's content.
    Comment(&'a str),
    /// A processing instruction (never the XML declaration).
    Pi {
        /// The PI target.
        target: &'a str,
        /// Everything after the target, trailing whitespace trimmed.
        data: &'a str,
    },
    /// The end of the input, after one complete root element.
    Eof,
}

/// The syntax half of the parser: splits a document into [`Token`]s and
/// checks everything that makes it well-formed — tags nest and match, one
/// root element, no character data outside it, attribute names unique per
/// tag, nesting depth bounded — so that whatever consumes the tokens only
/// decides what to build from them. [`build_content`] builds tree nodes;
/// a reader of a known vocabulary can take an element's attributes straight
/// from [`Tokenizer::attrs`] without any node being made for it.
///
/// Nothing is copied while tokenizing: names, comments and character data
/// without entity references borrow from the input.
pub struct Tokenizer<'a> {
    cur: Cursor<'a>,
    max_depth: usize,
    doctype: Option<Doctype>,
    /// Names of the open elements, as written in their start tags.
    open: Vec<&'a str>,
    /// The start tag read last was an empty-element tag: its `Close` is due.
    close_due: bool,
    seen_root: bool,
    /// Attributes of the start tag read last, values entity-expanded.
    attrs: Vec<(&'a str, Cow<'a, str>)>,
}

impl<'a> Tokenizer<'a> {
    /// A tokenizer over `input` that refuses more than `max_depth` nested
    /// elements.
    pub fn new(input: &'a str, max_depth: usize) -> Self {
        // Skip a UTF-8 BOM if present.
        let input = input.strip_prefix('\u{feff}').unwrap_or(input);
        Tokenizer {
            cur: Cursor::new(input),
            max_depth,
            doctype: None,
            open: Vec::with_capacity(32),
            close_due: false,
            seen_root: false,
            attrs: Vec::new(),
        }
    }

    fn error(&self, kind: ParseErrorKind) -> ParseError {
        self.cur.error(kind)
    }

    /// The attributes of the start tag the last [`Token::Open`] reported, in
    /// document order, values after entity expansion.
    pub fn attrs(&self) -> &[(&'a str, Cow<'a, str>)] {
        &self.attrs
    }

    /// The next token. After [`Token::Eof`], `Eof` again.
    #[inline]
    #[allow(clippy::should_implement_trait)] // fallible, and an `Eof` token ends it
    pub fn next(&mut self) -> Result<Token<'a>, ParseError> {
        if std::mem::take(&mut self.close_due) {
            return Ok(Token::Close);
        }
        loop {
            if self.cur.at_eof() {
                if let Some(name) = self.open.pop() {
                    return Err(self.error(ParseErrorKind::UnclosedElement(name.to_string())));
                }
                if !self.seen_root {
                    return Err(self.error(ParseErrorKind::NoRootElement));
                }
                return Ok(Token::Eof);
            }
            if self.cur.peek() != Some(b'<') {
                let raw = self.cur.take_until(b'<');
                let expanded = entities::expand(raw, self.doctype.as_ref().map(|d| &d.entities))
                    .map_err(|k| self.error(k))?;
                match self.text_run(expanded)? {
                    Some(token) => return Ok(token),
                    None => continue,
                }
            }
            // Dispatch on the construct starting at `<`.
            match self.cur.peek_at(1) {
                Some(b'/') => return self.read_close_tag(),
                Some(b'!') => {
                    if self.cur.starts_with(b"<!--") {
                        return self.read_comment();
                    } else if self.cur.starts_with(b"<![CDATA[") {
                        if let Some(token) = self.read_cdata()? {
                            return Ok(token);
                        }
                    } else if self.cur.starts_with(b"<!DOCTYPE") {
                        self.read_doctype()?;
                    } else {
                        return Err(self.error(ParseErrorKind::Unexpected {
                            context: "markup declaration",
                            found: self.cur.peek_at(2).unwrap_or(0),
                        }));
                    }
                }
                Some(b'?') => {
                    if let Some(token) = self.read_pi()? {
                        return Ok(token);
                    }
                }
                Some(_) => return self.read_open_tag(),
                None => return Err(self.error(ParseErrorKind::UnexpectedEof("markup"))),
            }
        }
    }

    // ------------------------------------------------------------------
    // Character data
    // ------------------------------------------------------------------

    /// The token for a run of character data just read, if it is one:
    /// outside the root element whitespace is skipped and anything else is
    /// an error.
    fn text_run(&mut self, text: Cow<'a, str>) -> Result<Option<Token<'a>>, ParseError> {
        if text.is_empty() {
            return Ok(None);
        }
        if self.open.is_empty() {
            if text.chars().all(char::is_whitespace) {
                return Ok(None);
            }
            return Err(self.error(ParseErrorKind::ContentOutsideRoot));
        }
        Ok(Some(Token::Text(text)))
    }

    fn read_cdata(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        self.cur.advance(9); // <![CDATA[
        let content = self
            .cur
            .take_until_seq(b"]]>")
            .ok_or_else(|| self.error(ParseErrorKind::UnexpectedEof("CDATA section")))?;
        self.cur.advance(3);
        self.text_run(Cow::Borrowed(content))
    }

    // ------------------------------------------------------------------
    // Tags
    // ------------------------------------------------------------------

    fn read_open_tag(&mut self) -> Result<Token<'a>, ParseError> {
        self.cur.advance(1); // <
        let name = self.read_name("element name")?;
        self.attrs.clear();
        let self_closed = loop {
            self.cur.skip_whitespace();
            match self.cur.peek() {
                Some(b'>') => {
                    self.cur.advance(1);
                    break false;
                }
                Some(b'/') => {
                    self.cur.advance(1);
                    self.cur
                        .expect_byte(b'>')
                        .map_err(|found| self.error(ParseErrorKind::Unexpected {
                            context: "empty-element tag",
                            found,
                        }))?;
                    break true;
                }
                Some(_) => {
                    let (attr, value) = self.read_attribute()?;
                    if self.attrs.iter().any(|&(seen, _)| seen == attr) {
                        return Err(
                            self.error(ParseErrorKind::DuplicateAttribute(attr.to_string()))
                        );
                    }
                    self.attrs.push((attr, value));
                }
                None => return Err(self.error(ParseErrorKind::UnexpectedEof("open tag"))),
            }
        };
        if self.open.is_empty() {
            if self.seen_root {
                return Err(self.error(ParseErrorKind::ContentOutsideRoot));
            }
            self.seen_root = true;
        }
        if self.open.len() >= self.max_depth {
            return Err(self.error(ParseErrorKind::TooDeep(self.max_depth)));
        }
        if self_closed {
            self.close_due = true;
        } else {
            self.open.push(name);
        }
        Ok(Token::Open(name))
    }

    fn read_close_tag(&mut self) -> Result<Token<'a>, ParseError> {
        self.cur.advance(2); // </
        let name = self.read_name("close tag name")?;
        self.cur.skip_whitespace();
        self.cur
            .expect_byte(b'>')
            .map_err(|found| self.error(ParseErrorKind::Unexpected { context: "close tag", found }))?;
        match self.open.pop() {
            Some(open_name) if open_name == name => Ok(Token::Close),
            Some(open_name) => Err(self.error(ParseErrorKind::MismatchedCloseTag {
                expected: open_name.to_string(),
                found: name.to_string(),
            })),
            None => Err(self.error(ParseErrorKind::UnmatchedCloseTag(name.to_string()))),
        }
    }

    fn read_attribute(&mut self) -> Result<(&'a str, Cow<'a, str>), ParseError> {
        let name = self.read_name("attribute name")?;
        self.cur.skip_whitespace();
        self.cur
            .expect_byte(b'=')
            .map_err(|found| self.error(ParseErrorKind::Unexpected {
                context: "attribute equals sign",
                found,
            }))?;
        self.cur.skip_whitespace();
        let quote = match self.cur.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            Some(found) => {
                return Err(self.error(ParseErrorKind::Unexpected {
                    context: "attribute value quote",
                    found,
                }))
            }
            None => return Err(self.error(ParseErrorKind::UnexpectedEof("attribute value"))),
        };
        self.cur.advance(1);
        let raw = self
            .cur
            .take_until_byte_checked(quote)
            .ok_or_else(|| self.error(ParseErrorKind::UnexpectedEof("attribute value")))?;
        let value = entities::expand(raw, self.doctype.as_ref().map(|d| &d.entities))
            .map_err(|k| self.error(k))?;
        self.cur.advance(1); // closing quote
        Ok((name, value))
    }

    /// Borrow a name straight out of the input — consumers intern or copy
    /// only when the name survives the parse.
    fn read_name(&mut self, context: &'static str) -> Result<&'a str, ParseError> {
        let name = self.cur.take_name();
        if name.is_empty() {
            return Err(match self.cur.peek() {
                Some(found) => self.error(ParseErrorKind::Unexpected { context, found }),
                None => self.error(ParseErrorKind::UnexpectedEof(context)),
            });
        }
        Ok(name)
    }

    // ------------------------------------------------------------------
    // Misc constructs
    // ------------------------------------------------------------------

    fn read_comment(&mut self) -> Result<Token<'a>, ParseError> {
        self.cur.advance(4); // <!--
        let content = self
            .cur
            .take_until_seq(b"-->")
            .ok_or_else(|| self.error(ParseErrorKind::UnexpectedEof("comment")))?;
        self.cur.advance(3);
        Ok(Token::Comment(content))
    }

    fn read_pi(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        self.cur.advance(2); // <?
        let target = self.read_name("processing instruction target")?;
        self.cur.skip_whitespace();
        let data = self
            .cur
            .take_until_seq(b"?>")
            .ok_or_else(|| self.error(ParseErrorKind::UnexpectedEof("processing instruction")))?
            .trim_end();
        self.cur.advance(2);
        // The XML declaration is not a PI node.
        Ok((!target.eq_ignore_ascii_case("xml")).then_some(Token::Pi { target, data }))
    }

    fn read_doctype(&mut self) -> Result<(), ParseError> {
        if self.seen_root || self.doctype.is_some() {
            return Err(self.error(ParseErrorKind::MalformedDoctype(
                "DOCTYPE must precede the root element and appear once",
            )));
        }
        let dt = dtd::parse_doctype(&mut self.cur)?;
        self.doctype = Some(dt);
        Ok(())
    }
}

/// The tree half of the parser: read the content of the innermost open
/// element of `tokens` — everything up to its end tag, or with no element
/// open everything up to the end of the input — and append it to `parent`
/// in `tree`, under the node policy of `opts`.
///
/// Character data goes from the input straight into the tree's text buffer:
/// text that the whitespace policy drops is never copied at all, and kept
/// text is copied exactly once.
pub fn build_content(
    tokens: &mut Tokenizer<'_>,
    tree: &mut Tree,
    parent: NodeId,
    opts: &ParseOptions,
) -> Result<(), ParseError> {
    // The element whose children are being read.
    let mut at = parent;
    loop {
        match tokens.next()? {
            Token::Open(name) => {
                let attrs = if tokens.attrs.is_empty() {
                    Vec::new()
                } else {
                    tokens
                        .attrs
                        .drain(..)
                        .map(|(name, value)| Attr { name: Symbol::intern(name), value: value.into_owned() })
                        .collect()
                };
                let node = tree.new_element_with(Symbol::intern(name), attrs);
                tree.link_last(at, node);
                at = node;
            }
            Token::Close if at == parent => return Ok(()),
            Token::Close => {
                // INVARIANT: `at` was linked below `parent` when it opened.
                at = tree.parent(at).expect("open elements form a chain up to `parent`");
            }
            Token::Text(text) => {
                if !opts.keep_whitespace_text && text.chars().all(char::is_whitespace) {
                    continue;
                }
                // Merge with a trailing text sibling: "both data will be
                // merged in the parsing of the resulting document" (§6.1).
                match tree.last_child(at) {
                    Some(last) if tree.kind(last).is_text() => tree.append_text(last, &text),
                    _ => {
                        let n = tree.new_text(text);
                        tree.link_last(at, n);
                    }
                }
            }
            // Top-level comments and PIs are legal before/after the root.
            Token::Comment(content) if opts.keep_comments => {
                let n = tree.new_node(NodeKind::Comment(content));
                tree.link_last(at, n);
            }
            Token::Pi { target, data } if opts.keep_pi => {
                let n = tree.new_node(NodeKind::Pi { target, data });
                tree.link_last(at, n);
            }
            Token::Comment(_) | Token::Pi { .. } => {}
            Token::Eof => return Ok(()),
        }
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
