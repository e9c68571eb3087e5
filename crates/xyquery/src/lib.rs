//! A small XPath-like path language over [`xytree`] documents.
//!
//! Motivation, from §2 of the paper: "Since the diff output is stored as an
//! XML document, namely a delta, such queries are regular queries over
//! documents" — versions *and* deltas are XML, so one query engine serves
//! "querying the past" ("ask for the value of some element at some previous
//! time"), change queries ("ask for the list of items recently introduced in
//! a catalog"), and subscription-style matching. Xyleme had full query
//! languages (XML-QL/XQL); this crate implements the pragmatic core used by
//! the warehouse layer:
//!
//! ```text
//! /catalog/product            child steps from the root
//! //product                   descendant-or-self search
//! /catalog/*/name             wildcard element test
//! //product[@id='p1']         attribute equality predicate
//! //product[@id]              attribute presence predicate
//! //price[text()='$499']      text equality predicate
//! //name[contains(text(),'cam')]  substring predicate
//! /catalog/product[2]         1-based position among siblings
//! //product/text()            trailing text() selects text nodes
//! //product/@id               trailing @attr selects attribute values
//! ```
//!
//! # Example
//!
//! ```
//! use xytree::Document;
//! use xyquery::Path;
//!
//! let doc = Document::parse(
//!     "<catalog><product id='p1'><name>cam</name></product>\
//!      <product id='p2'><name>phone</name></product></catalog>",
//! ).unwrap();
//! let path = Path::parse("//product[@id='p2']/name/text()").unwrap();
//! assert_eq!(path.select_strings(&doc), vec!["phone"]);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::todo, clippy::dbg_macro, clippy::print_stderr))]
#![warn(missing_docs)]

mod eval;
mod parse;

pub use parse::QueryParseError;

use xytree::{Document, NodeId, Tree};

/// Which relationship a step traverses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Direct children (`/step`).
    Child,
    /// All descendants (`//step`).
    Descendant,
}

/// What a step selects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTest {
    /// Elements with this label.
    Name(String),
    /// Any element (`*`).
    AnyElement,
    /// Text nodes (`text()`).
    Text,
}

/// A filter applied to a step's matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// `[@name='value']`
    AttrEquals(String, String),
    /// `[@name]`
    AttrExists(String),
    /// `[text()='value']` — compares the concatenated text content.
    TextEquals(String),
    /// `[contains(text(),'needle')]`
    TextContains(String),
    /// `[n]` — 1-based position among this step's matches under the same
    /// parent (child axis) or in document order (descendant axis).
    Position(usize),
}

/// One step of a path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Traversal axis.
    pub axis: Axis,
    /// Node test.
    pub test: NodeTest,
    /// Filters, applied in order.
    pub predicates: Vec<Predicate>,
}

/// What the path ultimately produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// The matched nodes themselves.
    Nodes,
    /// Their concatenated text (`…/text()` yields the text nodes' content;
    /// on element results the deep text).
    Text,
    /// The value of an attribute (`…/@name`).
    Attr(String),
}

/// A parsed path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    steps: Vec<Step>,
    output: Output,
}

impl Path {
    /// Parse a path expression.
    pub fn parse(input: &str) -> Result<Path, QueryParseError> {
        parse::parse(input)
    }

    /// The parsed steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// What the path produces.
    pub fn output(&self) -> &Output {
        &self.output
    }

    /// Nodes matched by the path, in document order, starting from the
    /// document root of `tree`.
    pub fn select(&self, tree: &Tree) -> Vec<NodeId> {
        eval::select(self, tree, tree.root())
    }

    /// Nodes matched by the path when evaluated against a [`Document`].
    pub fn select_doc(&self, doc: &Document) -> Vec<NodeId> {
        self.select(&doc.tree)
    }

    /// String results: text content or attribute values, depending on the
    /// path's trailing `text()` / `@attr`, else the deep text of matches.
    pub fn select_strings(&self, doc: &Document) -> Vec<String> {
        eval::select_strings(self, &doc.tree)
    }

    /// First match's string result, if any.
    pub fn select_first_string(&self, doc: &Document) -> Option<String> {
        self.select_strings(doc).into_iter().next()
    }

    /// True when the path matches at least one node.
    pub fn matches(&self, doc: &Document) -> bool {
        !self.select_doc(doc).is_empty()
    }
}

/// One-shot convenience: parse and select strings.
pub fn query(doc: &Document, path: &str) -> Result<Vec<String>, QueryParseError> {
    Ok(Path::parse(path)?.select_strings(doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse(
            "<catalog>\
             <category name=\"cameras\">\
             <product id=\"p1\"><name>alpha cam</name><price>$10</price></product>\
             <product id=\"p2\"><name>beta cam</name><price>$20</price></product>\
             </category>\
             <category name=\"phones\">\
             <product id=\"p3\"><name>gamma phone</name><price>$30</price></product>\
             </category>\
             </catalog>",
        )
        .unwrap()
    }

    #[test]
    fn child_steps() {
        let d = doc();
        assert_eq!(query(&d, "/catalog/category/product/name").unwrap().len(), 3);
        assert_eq!(query(&d, "/catalog/product").unwrap().len(), 0, "child, not descendant");
    }

    #[test]
    fn descendant_steps() {
        let d = doc();
        assert_eq!(query(&d, "//product").unwrap().len(), 3);
        assert_eq!(query(&d, "//name/text()").unwrap(), vec![
            "alpha cam", "beta cam", "gamma phone"
        ]);
    }

    #[test]
    fn wildcard() {
        let d = doc();
        assert_eq!(query(&d, "/catalog/*").unwrap().len(), 2);
        assert_eq!(query(&d, "/catalog/*/product").unwrap().len(), 3);
    }

    #[test]
    fn attribute_predicates() {
        let d = doc();
        assert_eq!(query(&d, "//product[@id='p2']/name/text()").unwrap(), vec!["beta cam"]);
        assert_eq!(query(&d, "//category[@name]").unwrap().len(), 2);
        assert_eq!(query(&d, "//product[@id='nope']").unwrap().len(), 0);
    }

    #[test]
    fn text_predicates() {
        let d = doc();
        assert_eq!(
            query(&d, "//product/price[text()='$20']").unwrap(),
            vec!["$20"]
        );
        assert_eq!(
            query(&d, "//name[contains(text(),'cam')]").unwrap().len(),
            2
        );
    }

    #[test]
    fn positional_predicates_are_per_parent() {
        let d = doc();
        // Second product *within each category*: p2 only (phones has one).
        assert_eq!(
            query(&d, "/catalog/category/product[2]/@id").unwrap(),
            vec!["p2"]
        );
        assert_eq!(query(&d, "/catalog/category[1]/@name").unwrap(), vec!["cameras"]);
    }

    #[test]
    fn attribute_output() {
        let d = doc();
        assert_eq!(query(&d, "//product/@id").unwrap(), vec!["p1", "p2", "p3"]);
        // Products without the attribute contribute nothing.
        assert_eq!(query(&d, "//product/@missing").unwrap().len(), 0);
    }

    #[test]
    fn element_output_is_deep_text() {
        let d = doc();
        assert_eq!(
            query(&d, "//product[@id='p1']").unwrap(),
            vec!["alpha cam$10"]
        );
    }

    #[test]
    fn document_order_and_dedup() {
        let d = doc();
        // `//category//product` could reach the same node through several
        // intermediate matches; results must stay unique & ordered.
        let ids = query(&d, "//category//product/@id").unwrap();
        assert_eq!(ids, vec!["p1", "p2", "p3"]);
    }

    #[test]
    fn matches_predicate_helper() {
        let d = doc();
        assert!(Path::parse("//product[@id='p3']").unwrap().matches(&d));
        assert!(!Path::parse("//tablet").unwrap().matches(&d));
    }

    #[test]
    fn query_over_delta_documents() {
        // §2: deltas are XML, so the same engine queries changes.
        let delta = Document::parse(
            "<delta>\
             <insert xid=\"20\" parent=\"14\" pos=\"1\" xid-map=\"(16-20)\">\
             <Product><Name>abc</Name></Product></insert>\
             <update xid=\"11\"><oldval>$799</oldval><newval>$699</newval></update>\
             </delta>",
        )
        .unwrap();
        assert_eq!(
            query(&delta, "/delta/insert/Product/Name/text()").unwrap(),
            vec!["abc"]
        );
        assert_eq!(query(&delta, "//update/newval/text()").unwrap(), vec!["$699"]);
        assert_eq!(query(&delta, "//insert/@xid").unwrap(), vec!["20"]);
    }
}
