//! XML substrate for the XyDiff reproduction.
//!
//! The ICDE 2002 paper ("Detecting Changes in XML Documents", Cobéna,
//! Abiteboul, Marian) operates on ordered labeled trees parsed from XML
//! files; the original implementation sat on top of the Xerces-C++ DOM. This
//! crate is the from-scratch Rust substitute: a non-validating XML parser, an
//! arena-based ordered tree with cheap structural mutation, a serializer, and
//! just enough of the DTD internal subset to expose the two pieces of schema
//! information the diff algorithm exploits — **ID attributes** (used by BULD
//! phase 1) and **internal entities** (needed to parse real documents).
//!
//! # Quick tour
//!
//! ```
//! use xytree::Document;
//!
//! let doc = Document::parse(
//!     "<catalog><product id='p1'><name>tx123</name></product></catalog>",
//! ).unwrap();
//! let root = doc.root_element().unwrap();
//! assert_eq!(doc.tree.name(root), Some("catalog"));
//! assert_eq!(doc.tree.descendants(root).count(), 4); // catalog, product, name, text
//! let xml = doc.to_xml();
//! assert!(xml.contains("<product id=\"p1\">"));
//! ```
//!
//! The tree is an index-based arena ([`Tree`] / [`NodeId`]): nodes are never
//! reallocated, identifiers stay valid across mutations, and detached
//! subtrees remain addressable — exactly what a diff algorithm that matches
//! nodes across two versions needs.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]
#![cfg_attr(not(test), warn(clippy::todo, clippy::dbg_macro, clippy::print_stderr))]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod build;
mod document;
mod error;
mod escape;
mod hash;
mod intern;
mod node;
mod parser;
mod serialize;
mod stats;
mod traversal;
mod tree;

pub use build::ElementBuilder;
pub use document::{Doctype, Document};
pub use error::{ParseError, ParseErrorKind};
pub use escape::{escape_attr_into, escape_text_into};
pub use hash::{
    fast_map, fast_map_with_capacity, fast_set, FastHashMap, FastHashSet, Fnv64, SigHashMap,
    WordHash,
};
pub use intern::Symbol;
pub use node::{Attr, Element, NodeKind};
pub use parser::{
    build_content, parse_dtd, AttDef, AttDefault, AttType, ContentModel, Occur, ParseOptions,
    Particle, Token, Tokenizer,
};
pub use serialize::{serialize_node_into, SerializeOptions};
pub use stats::DocStats;
pub use traversal::{PrunedPostOrder, PrunedPreOrder};
pub use tree::{NodeId, Tree};
