//! Deltas as XML documents.
//!
//! "Since the diff output is stored as an XML document, namely a delta, such
//! queries are regular queries over documents" (§2) — the delta format is
//! itself XML, modeled on the paper's §4 example:
//!
//! ```xml
//! <delta>
//!   <delete xid="7" xid-map="(3-7)" parent="8" pos="1">
//!     <Product><Name>tx123</Name><Price>$499</Price></Product>
//!   </delete>
//!   <insert xid="20" xid-map="(16-20)" parent="14" pos="1">…</insert>
//!   <move xid="13" from-parent="14" from-pos="1" to-parent="8" to-pos="1"/>
//!   <update xid="11"><oldval>$799</oldval><newval>$699</newval></update>
//! </delta>
//! ```
//!
//! Positions are printed 1-based (as in the paper) and converted to the
//! crate's 0-based convention on parse. [`Delta::size_bytes`] — the quality
//! metric of Figures 5 and 6 — is the byte length of this compact form.

use crate::delta::{Delta, DeltaBuilder};
use crate::error::DeltaParseError;
use crate::ops::{Op, PayloadSource, Span, SubtreePayload};
use crate::xid::{write_compact, Xid};
use std::fmt::Write;
use xytree::{escape_attr_into, escape_text_into};
use xytree::{build_content, Token, Tokenizer};
use xytree::serialize_node_into;
use xytree::{Document, NodeId, NodeKind, ParseOptions, SerializeOptions, Symbol, Tree};

/// Serialize a delta to its compact XML form. The delta must be
/// self-contained (no borrowed payloads); use [`delta_to_xml_with`] to
/// serialize a zero-copy delta directly against its source documents.
///
/// Operation tags are written straight into the output and every payload is
/// serialized out of the delta's arena — byte for byte what
/// `delta_to_document(delta).to_xml()` produces, without building that
/// document.
pub fn delta_to_xml(delta: &Delta) -> String {
    encode(delta, None)
}

/// Serialize a delta that may carry borrowed payloads, resolving them
/// against `src` without making the delta self-contained first.
pub fn delta_to_xml_with(delta: &Delta, src: &PayloadSource<'_>) -> String {
    encode(delta, Some(src))
}

/// Serialize a delta to a pretty-printed XML form (debugging/examples).
pub fn delta_to_xml_pretty(delta: &Delta) -> String {
    delta_to_document(delta).to_xml_pretty()
}

fn encode(delta: &Delta, src: Option<&PayloadSource<'_>>) -> String {
    if delta.is_empty() {
        return "<delta/>".to_string();
    }
    let mut out = String::with_capacity(128 * delta.len());
    out.push_str("<delta>");
    for op in &delta.ops {
        encode_op(delta, op, src, &mut out);
    }
    out.push_str("</delta>");
    out
}

/// Append ` name="value"` for a number. Writing to a `String` cannot fail.
fn num_attr(out: &mut String, name: &str, value: impl std::fmt::Display) {
    let _ = write!(out, " {name}=\"{value}\"");
}

fn str_attr(out: &mut String, name: &str, value: &str) {
    let _ = write!(out, " {name}=\"");
    escape_attr_into(value, out);
    out.push('"');
}

/// Append an attribute-op position, 1-based like the tree-op positions.
/// The "append at the end" sentinel ([`usize::MAX`], produced when parsing
/// deltas that predate attribute positions) is expressed by omission.
fn attr_pos(out: &mut String, pos: usize) {
    if pos != usize::MAX {
        num_attr(out, "pos", pos + 1);
    }
}

/// Append `<name>value</name>`, or `<name/>` for the empty value.
fn value_element(out: &mut String, name: &str, value: &str) {
    if value.is_empty() {
        let _ = write!(out, "<{name}/>");
    } else {
        let _ = write!(out, "<{name}>");
        escape_text_into(value, out);
        let _ = write!(out, "</{name}>");
    }
}

fn encode_op(delta: &Delta, op: &Op, src: Option<&PayloadSource<'_>>, out: &mut String) {
    match *op {
        Op::Delete { xid, parent, pos, subtree, xid_map }
        | Op::Insert { xid, parent, pos, subtree, xid_map } => {
            let label = if matches!(op, Op::Delete { .. }) { "delete" } else { "insert" };
            let _ = write!(out, "<{label}");
            num_attr(out, "xid", xid);
            out.push_str(" xid-map=\"");
            write_compact(delta.xid_map(xid_map), out);
            out.push('"');
            num_attr(out, "parent", parent);
            num_attr(out, "pos", pos + 1);
            out.push('>');
            match (subtree, src) {
                // Borrowed payload with its source at hand: the slice of the
                // diffed document, minus the moved-out descendants, is copied
                // once, into a scratch tree it is serialized from.
                (SubtreePayload::Borrowed(index), Some(src)) => {
                    let mut scratch = Tree::new();
                    let copied = delta.copy_borrowed(index, src, &mut scratch);
                    encode_payload(&scratch, copied, out);
                }
                // Stored payload (or a borrowed one without a source, which
                // panics in `payload()` — serialization past the into_owned
                // boundary is a caller bug).
                _ => {
                    let (tree, node) = delta.payload(subtree);
                    encode_payload(tree, node, out);
                }
            }
            let _ = write!(out, "</{label}>");
        }
        Op::Update { xid, old, new } => {
            out.push_str("<update");
            num_attr(out, "xid", xid);
            out.push('>');
            value_element(out, "oldval", delta.text(old));
            value_element(out, "newval", delta.text(new));
            out.push_str("</update>");
        }
        Op::Move { xid, from_parent, from_pos, to_parent, to_pos } => {
            out.push_str("<move");
            num_attr(out, "xid", xid);
            num_attr(out, "from-parent", from_parent);
            num_attr(out, "from-pos", from_pos + 1);
            num_attr(out, "to-parent", to_parent);
            num_attr(out, "to-pos", to_pos + 1);
            out.push_str("/>");
        }
        Op::AttrInsert { element, name, value, pos } => {
            out.push_str("<attr-insert");
            num_attr(out, "xid", element);
            str_attr(out, "name", &name);
            str_attr(out, "value", delta.text(value));
            attr_pos(out, pos);
            out.push_str("/>");
        }
        Op::AttrDelete { element, name, old, pos } => {
            out.push_str("<attr-delete");
            num_attr(out, "xid", element);
            str_attr(out, "name", &name);
            str_attr(out, "old", delta.text(old));
            attr_pos(out, pos);
            out.push_str("/>");
        }
        Op::AttrUpdate { element, name, old, new } => {
            out.push_str("<attr-update");
            num_attr(out, "xid", element);
            str_attr(out, "name", &name);
            str_attr(out, "old", delta.text(old));
            str_attr(out, "new", delta.text(new));
            out.push_str("/>");
        }
    }
}

/// Serialize the payload subtree of `tree` rooted at `node`.
fn encode_payload(tree: &Tree, node: NodeId, out: &mut String) {
    // Excluding moved-out descendants from a captured subtree can leave two
    // text nodes adjacent; serialized back-to-back they would re-parse as one
    // node and no longer line up with the XID-map. A reserved separator PI
    // keeps the boundary — rare enough that it goes through a marked copy.
    let adjacent_texts = tree.descendants(node).any(|n| {
        tree.kind(n).is_text() && tree.next_sibling(n).is_some_and(|next| tree.kind(next).is_text())
    });
    if adjacent_texts {
        let mut marked = Tree::new();
        let copied = marked.copy_subtree_from(tree, node);
        separate_adjacent_texts(&mut marked, copied);
        serialize_node_into(&marked, copied, &SerializeOptions::compact(), out);
    } else {
        serialize_node_into(tree, node, &SerializeOptions::compact(), out);
    }
}

/// Build the XML document representation of a self-contained delta: what
/// the pretty printer and queries over deltas ("regular queries over
/// documents", §2) work on. [`delta_to_xml`] must agree with its compact
/// serialization byte for byte.
pub fn delta_to_document(delta: &Delta) -> Document {
    let mut tree = Tree::new();
    let root = tree.new_element("delta");
    let doc_root = tree.root();
    tree.append_child(doc_root, root);
    for op in &delta.ops {
        let node = op_to_node(delta, op, &mut tree);
        tree.append_child(root, node);
    }
    Document::from_tree(tree)
}

fn set(tree: &mut Tree, node: NodeId, name: &str, value: impl ToString) {
    // Only called on nodes built by op_to_node, all elements.
    tree.set_attr(node, name, value.to_string());
}

/// The DOM counterpart of [`attr_pos`].
fn set_attr_pos(tree: &mut Tree, node: NodeId, pos: usize) {
    if pos != usize::MAX {
        set(tree, node, "pos", pos + 1);
    }
}

fn op_to_node(delta: &Delta, op: &Op, tree: &mut Tree) -> NodeId {
    match *op {
        Op::Delete { xid, parent, pos, subtree, xid_map }
        | Op::Insert { xid, parent, pos, subtree, xid_map } => {
            let label = if matches!(op, Op::Delete { .. }) { "delete" } else { "insert" };
            let n = tree.new_element(label);
            set(tree, n, "xid", xid);
            let mut map = String::new();
            write_compact(delta.xid_map(xid_map), &mut map);
            set(tree, n, "xid-map", map);
            set(tree, n, "parent", parent);
            set(tree, n, "pos", pos + 1);
            let (arena, node) = delta.payload(subtree);
            let copied = tree.copy_subtree_from(arena, node);
            tree.append_child(n, copied);
            separate_adjacent_texts(tree, copied);
            n
        }
        Op::Update { xid, old, new } => {
            let n = tree.new_element("update");
            set(tree, n, "xid", xid);
            for (holder, value) in [("oldval", old), ("newval", new)] {
                let h = tree.new_element(holder);
                if !value.is_empty() {
                    let t = tree.new_text(delta.text(value));
                    tree.append_child(h, t);
                }
                tree.append_child(n, h);
            }
            n
        }
        Op::Move { xid, from_parent, from_pos, to_parent, to_pos } => {
            let n = tree.new_element("move");
            set(tree, n, "xid", xid);
            set(tree, n, "from-parent", from_parent);
            set(tree, n, "from-pos", from_pos + 1);
            set(tree, n, "to-parent", to_parent);
            set(tree, n, "to-pos", to_pos + 1);
            n
        }
        Op::AttrInsert { element, name, value, pos } => {
            let n = tree.new_element("attr-insert");
            set(tree, n, "xid", element);
            set(tree, n, "name", name);
            set(tree, n, "value", delta.text(value));
            set_attr_pos(tree, n, pos);
            n
        }
        Op::AttrDelete { element, name, old, pos } => {
            let n = tree.new_element("attr-delete");
            set(tree, n, "xid", element);
            set(tree, n, "name", name);
            set(tree, n, "old", delta.text(old));
            set_attr_pos(tree, n, pos);
            n
        }
        Op::AttrUpdate { element, name, old, new } => {
            let n = tree.new_element("attr-update");
            set(tree, n, "xid", element);
            set(tree, n, "name", name);
            set(tree, n, "old", delta.text(old));
            set(tree, n, "new", delta.text(new));
            n
        }
    }
}

/// Reserved PI target separating adjacent text nodes inside stored subtrees.
const TEXT_SEPARATOR_PI: &str = "xy-sep";

/// Insert `<?xy-sep?>` between adjacent text siblings anywhere below `root`.
fn separate_adjacent_texts(tree: &mut Tree, root: NodeId) {
    let nodes: Vec<NodeId> = tree.descendants(root).collect();
    for n in nodes {
        if !tree.kind(n).is_text() {
            continue;
        }
        if let Some(next) = tree.next_sibling(n) {
            if tree.kind(next).is_text() {
                let sep = tree.new_node(NodeKind::Pi { target: TEXT_SEPARATOR_PI, data: "" });
                tree.insert_after(n, sep);
            }
        }
    }
}

/// Parse a delta from its XML form. The result is what a replaying
/// warehouse keeps, so its buffers are cut to size.
///
/// Operation elements are read off the tokenizer — their attributes become
/// the operation, no node is built for them — and each payload is built
/// once, in the delta's payload arena. [`document_to_delta`] over the parsed
/// document is the reference this must agree with.
pub fn parse_delta(xml: &str) -> Result<Delta, DeltaParseError> {
    let mut tokens = Tokenizer::new(xml, ParseOptions::default().max_depth);
    let mut ops = DeltaBuilder::new();
    // Comments and PIs may precede the root element; the tokenizer reports
    // nothing else there, and an input without a root as an error.
    let root = loop {
        if let Token::Open(name) = tokens.next()? {
            break name;
        }
    };
    if root != "delta" {
        return Err(DeltaParseError::Structure(format!(
            "root element is <{root}>, expected <delta>"
        )));
    }
    loop {
        match tokens.next()? {
            Token::Open(label) => read_op(&mut tokens, label, &mut ops)?,
            Token::Close => break,
            // Whitespace between ops (pretty-printed deltas), comments.
            _ => {}
        }
    }
    // Nothing but comments and PIs may follow; the tokenizer sees to that.
    while !matches!(tokens.next()?, Token::Eof) {}
    let mut delta = ops.finish();
    delta.shrink_to_fit();
    Ok(delta)
}

/// Read the operation element `label` whose start tag `tokens` has just
/// reported, through its end.
fn read_op(
    tokens: &mut Tokenizer<'_>,
    label: &str,
    ops: &mut DeltaBuilder,
) -> Result<(), DeltaParseError> {
    let attrs = tokens.attrs();
    let attr = |name: &str| attrs.iter().find(|(n, _)| *n == name).map(|(_, value)| &**value);
    match read_head(label, &attr, ops)? {
        Head::Subtree { delete, xid, parent, pos, xid_map } => {
            let subtree = read_subtree(tokens, ops)?;
            ops.push(if delete {
                Op::Delete { xid, parent, pos, subtree, xid_map }
            } else {
                Op::Insert { xid, parent, pos, subtree, xid_map }
            });
        }
        Head::Update { xid } => {
            // The first `<oldval>` and the first `<newval>` child count.
            let (mut old, mut new) = (None, None);
            loop {
                match tokens.next()? {
                    Token::Open(holder) => {
                        let value = read_deep_text(tokens)?;
                        match holder {
                            "oldval" if old.is_none() => old = Some(value),
                            "newval" if new.is_none() => new = Some(value),
                            _ => {}
                        }
                    }
                    Token::Close => break,
                    _ => {}
                }
            }
            let missing = |name| DeltaParseError::Structure(format!("update op missing <{name}>"));
            let old = old.ok_or_else(|| missing("oldval"))?;
            ops.update(xid, &old, &new.ok_or_else(|| missing("newval"))?);
        }
        // Whatever such an element contains is read past.
        Head::Complete => {
            read_deep_text(tokens)?;
        }
    }
    Ok(())
}

/// The concatenated character data of the element `tokens` has just opened,
/// at any depth, reading through its end.
fn read_deep_text(tokens: &mut Tokenizer<'_>) -> Result<String, DeltaParseError> {
    let mut text = String::new();
    let mut depth = 1;
    while depth > 0 {
        match tokens.next()? {
            Token::Open(_) => depth += 1,
            Token::Close => depth -= 1,
            Token::Text(run) => text.push_str(&run),
            _ => {}
        }
    }
    Ok(text)
}

/// Build the single stored subtree under the delete/insert op element
/// `tokens` has just opened in the delta's payload arena, reading through
/// the op's end. See [`capture_subtree_of`] for what is not content.
fn read_subtree(
    tokens: &mut Tokenizer<'_>,
    ops: &mut DeltaBuilder,
) -> Result<SubtreePayload, DeltaParseError> {
    let arena = ops.arena();
    let holder = arena.root();
    let opts = ParseOptions { keep_whitespace_text: true, ..Default::default() };
    build_content(tokens, arena, holder, &opts)?;
    // Indentation and separators had to be built — a separator is what kept
    // the texts around it two nodes — but are unlinked before anything reads
    // the subtree. A delta in the compact form has none of the first and
    // rarely one of the second, so the arena carries no dead slot for it.
    let dropped: Vec<NodeId> =
        arena.descendants(holder).filter(|&n| is_not_content(arena, n)).collect();
    for node in dropped {
        arena.detach(node);
    }
    let content = one_subtree(arena.first_child(holder), arena.children_count(holder))?;
    arena.detach(content);
    Ok(SubtreePayload::Stored(content))
}

/// The one top-level node of a delete/insert op's content.
fn one_subtree(first: Option<NodeId>, count: usize) -> Result<NodeId, DeltaParseError> {
    match (first, count) {
        (Some(content), 1) => Ok(content),
        (None, _) => Err(DeltaParseError::Structure("delete/insert op carries no subtree".into())),
        (Some(_), n) => Err(DeltaParseError::Structure(format!(
            "delete/insert op carries {n} top-level nodes, expected 1"
        ))),
    }
}

/// Whether `node` is an artifact of the XML form inside a stored subtree —
/// whitespace-only text (indentation) or a `<?xy-sep?>` marker — rather
/// than part of it.
fn is_not_content(tree: &Tree, node: NodeId) -> bool {
    match tree.kind(node) {
        NodeKind::Text(text) => text.trim().is_empty(),
        NodeKind::Pi { target, .. } => target == TEXT_SEPARATOR_PI,
        _ => false,
    }
}

/// Interpret an already-parsed XML document (whitespace text kept) as a
/// delta: the decoder [`parse_delta`] is checked against.
pub fn document_to_delta(doc: &Document) -> Result<Delta, DeltaParseError> {
    let t = &doc.tree;
    let root = doc
        .root_element()
        .ok_or_else(|| DeltaParseError::Structure("no root element".into()))?;
    if t.name(root) != Some("delta") {
        return Err(DeltaParseError::Structure(format!(
            "root element is <{}>, expected <delta>",
            t.name(root).unwrap_or("?")
        )));
    }
    let mut ops = DeltaBuilder::new();
    for child in t.children(root) {
        let Some(label) = t.name(child) else {
            // Whitespace between ops (pretty-printed deltas).
            continue;
        };
        match read_head(label, &|name| t.attr(child, name), &mut ops)? {
            Head::Subtree { delete, xid, parent, pos, xid_map } => {
                let subtree = capture_subtree_of(t, child, &mut ops)?;
                ops.push(if delete {
                    Op::Delete { xid, parent, pos, subtree, xid_map }
                } else {
                    Op::Insert { xid, parent, pos, subtree, xid_map }
                });
            }
            Head::Update { xid } => {
                let old = val_of(t, child, "oldval")?;
                let new = val_of(t, child, "newval")?;
                ops.update(xid, &old, &new);
            }
            Head::Complete => {}
        }
    }
    Ok(ops.finish())
}

/// What the attributes of an operation element amount to.
enum Head {
    /// A delete, or else an insert: its subtree is the element's content.
    Subtree { delete: bool, xid: Xid, parent: Xid, pos: usize, xid_map: Span },
    /// An update: its values are in the element's `<oldval>` and `<newval>`.
    Update { xid: Xid },
    /// The operation was all attributes and has been appended.
    Complete,
}

/// Interpret the attributes of the operation element `label`, looked up
/// through `attr`.
fn read_head<'x>(
    label: &str,
    attr: &dyn Fn(&str) -> Option<&'x str>,
    ops: &mut DeltaBuilder,
) -> Result<Head, DeltaParseError> {
    let req = |name: &str| {
        attr(name).ok_or_else(|| {
            DeltaParseError::Structure(format!(
                "<{label}> is missing required attribute {name:?}"
            ))
        })
    };
    let xid = |name: &str| {
        let raw = req(name)?;
        raw.parse::<u64>().map(Xid).map_err(|_| {
            DeltaParseError::Structure(format!("attribute {name}={raw:?} is not an XID"))
        })
    };
    let pos = |name: &str| {
        let raw = req(name)?;
        let one_based: usize = raw.parse().map_err(|_| {
            DeltaParseError::Structure(format!("attribute {name}={raw:?} is not a position"))
        })?;
        one_based
            .checked_sub(1)
            .ok_or_else(|| DeltaParseError::Structure(format!("position {name} must be >= 1")))
    };
    // Attribute-op positions are a later addition to the format: absent
    // means "append at the end" (application clamps), so pre-existing deltas
    // parse.
    let opt_pos = |name: &str| if attr(name).is_none() { Ok(usize::MAX) } else { pos(name) };
    match label {
        "delete" | "insert" => {
            let (xid, parent, pos) = (xid("xid")?, xid("parent")?, pos("pos")?);
            let xid_map = ops
                .parse_xid_map(req("xid-map")?)
                .map_err(|e| DeltaParseError::Structure(format!("{e}")))?;
            return Ok(Head::Subtree { delete: label == "delete", xid, parent, pos, xid_map });
        }
        "update" => return Ok(Head::Update { xid: xid("xid")? }),
        "move" => {
            ops.push(Op::Move {
                xid: xid("xid")?,
                from_parent: xid("from-parent")?,
                from_pos: pos("from-pos")?,
                to_parent: xid("to-parent")?,
                to_pos: pos("to-pos")?,
            });
        }
        "attr-insert" => {
            let name = Symbol::intern(req("name")?);
            ops.attr_insert(xid("xid")?, name, req("value")?, opt_pos("pos")?);
        }
        "attr-delete" => {
            let name = Symbol::intern(req("name")?);
            ops.attr_delete(xid("xid")?, name, req("old")?, opt_pos("pos")?);
        }
        "attr-update" => {
            let name = Symbol::intern(req("name")?);
            ops.attr_update(xid("xid")?, name, req("old")?, req("new")?);
        }
        other => {
            return Err(DeltaParseError::Structure(format!(
                "unknown operation element <{other}>"
            )))
        }
    }
    Ok(Head::Complete)
}

/// Copy the single stored subtree under a delete/insert op element into the
/// delta's payload arena. Whitespace-only text nodes — at the op's top level
/// and anywhere inside the subtree — are pretty-printing artifacts, not
/// content: source documents are parsed with whitespace-only text dropped,
/// so the ops this crate emits never store such nodes, and keeping
/// indentation would break the subtree's alignment with its XID-map. The
/// `<?xy-sep?>` markers of [`separate_adjacent_texts`] are not content
/// either; neither kind of node enters the arena.
fn capture_subtree_of(
    t: &Tree,
    op_node: NodeId,
    ops: &mut DeltaBuilder,
) -> Result<SubtreePayload, DeltaParseError> {
    let mut kids = t.children(op_node).filter(|&c| !is_not_content(t, c));
    let content = one_subtree(kids.next(), 1 + kids.count())?;
    let mut dropped: Vec<NodeId> =
        t.descendants(content).filter(|&n| is_not_content(t, n)).collect();
    dropped.sort_unstable();
    Ok(SubtreePayload::Stored(ops.arena().copy_subtree_from_excluding(t, content, &dropped)))
}

/// Concatenated text under the op's `<name>` child element (update values).
fn val_of(t: &Tree, op_node: NodeId, name: &str) -> Result<String, DeltaParseError> {
    let holder = t
        .children(op_node)
        .find(|&c| t.name(c) == Some(name))
        .ok_or_else(|| DeltaParseError::Structure(format!("update op missing <{name}>")))?;
    Ok(t.deep_text(holder))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xiddoc::XidDocument;

    fn sample_delta() -> Delta {
        let stored = Document::parse("<Product><Name>tx123</Name></Product>").unwrap();
        let product = stored.root_element().unwrap();
        let xids = |r: std::ops::RangeInclusive<u64>| r.map(Xid).collect::<Vec<_>>();
        let mut b = DeltaBuilder::new();
        b.delete(Xid(7), Xid(8), 0, &stored.tree, product, &xids(3..=7))
            .insert(Xid(20), Xid(14), 0, &stored.tree, product, &xids(16..=20))
            .push(Op::Move { xid: Xid(13), from_parent: Xid(14), from_pos: 0, to_parent: Xid(8), to_pos: 0 })
            .update(Xid(11), "$799", "$699")
            .attr_update(Xid(2), "lang", "fr", "en")
            .attr_insert(Xid(2), "v", "1", 0)
            .attr_delete(Xid(2), "w", "0", 1);
        b.finish()
    }

    /// The retired encoder, kept as the oracle: build the delta document,
    /// serialize it.
    fn dom_encoded(delta: &Delta) -> String {
        delta_to_document(delta).to_xml()
    }

    /// The retired decoder, kept as the oracle: parse the delta document,
    /// interpret it.
    fn dom_decoded(xml: &str) -> Result<Delta, DeltaParseError> {
        let opts = ParseOptions { keep_whitespace_text: true, ..Default::default() };
        document_to_delta(&Document::parse_with(xml, &opts)?)
    }

    /// Both decoders accept `xml` and read the same delta out of it, or
    /// both refuse it.
    fn assert_decoders_agree(xml: &str) {
        match (parse_delta(xml), dom_decoded(xml)) {
            (Ok(direct), Ok(dom)) => {
                assert_eq!(delta_to_xml(&direct), delta_to_xml(&dom), "decoding {xml}");
                assert_eq!(crate::verify_all(&direct), crate::verify_all(&dom), "decoding {xml}");
            }
            (Err(_), Err(_)) => {}
            (direct, dom) => panic!("decoding {xml}: direct {direct:?}, document {dom:?}"),
        }
    }

    #[test]
    fn direct_decoder_matches_the_dom_decoder() {
        let pretty = delta_to_xml_pretty(&sample_delta());
        assert!(pretty.contains("\n  <delete"), "{pretty}");
        assert_eq!(delta_to_xml(&parse_delta(&pretty).unwrap()), delta_to_xml(&sample_delta()));
        let op = |content: &str| {
            format!("<delta><insert xid=\"2\" xid-map=\"(1-2)\" parent=\"9\" pos=\"1\">{content}</insert></delta>")
        };
        let cases = [
            pretty.as_str(),
            "<?xml version=\"1.0\"?><!--head--><delta/><!--tail-->",
            "<delta>stray text<!--c--><?pi x?><move xid=\"1\" from-parent=\"2\" from-pos=\"1\" to-parent=\"3\" to-pos=\"2\">ignored<junk/></move></delta>",
            // Values: nested markup is read through, the first holder of each name counts.
            "<delta><update xid=\"1\"><oldval>a<b>c</b> </oldval><x/><newval> </newval><oldval>late</oldval></update></delta>",
            "<delta><update xid=\"1\"><newval><![CDATA[<raw>]]>&amp;</newval><oldval/></update></delta>",
            "<delta><update xid=\"1\"><oldval>only</oldval></update></delta>",
            "<delta><update xid=\"1\" old=\"x\" new=\"y\"/></delta>",
            "<delta><attr-insert xid=\"1\" name=\"k\" value=\"a&#10;b\"/><attr-delete xid=\"1\" name=\"j\" old=\"\" pos=\"2\"/></delta>",
            "<delta><attr-update xid=\"1\" name=\"k\" old=\"1\"/></delta>",
            "<delta><move xid=\"1\" from-parent=\"2\" from-pos=\"0\" to-parent=\"2\" to-pos=\"1\"/></delta>",
            "<delta><frobnicate xid=\"1\"/></delta>",
            "<delta><delete xid=\"x\" xid-map=\"(1)\" parent=\"9\" pos=\"1\"><a/></delete></delta>",
            "<delta><delete xid=\"1\" xid-map=\"1\" parent=\"9\" pos=\"1\"><a/></delete></delta>",
            "<not-a-delta/>",
            "<delta><move xid=\"1\"></delta>",
            "<delta/>trailing",
            "",
        ];
        for xml in cases {
            assert_decoders_agree(xml);
        }
        // What is not content: indentation, whitespace-only CDATA, separators —
        // anywhere, also where dropping them leaves no or several subtrees.
        for content in [
            "\n  <p>\n    <q> </q>\n    text\n  </p>\n",
            "<p>a<![CDATA[ ]]>b<![CDATA[  ]]><q/></p>",
            "<p>t1<?xy-sep?>t2<?xy-sep?><?xy-sep x?>t3</p>",
            "just text",
            "<!--only a comment-->",
            "a<?xy-sep?>b",
            "<?xy-sep?>",
            " ",
            "",
            "<a/><b/>",
        ] {
            assert_decoders_agree(&op(content));
        }
        assert_decoders_agree("<delta><insert xid=\"2\" xid-map=\"(2)\" parent=\"9\" pos=\"1\"/></delta>");
    }

    #[test]
    fn direct_encoder_matches_the_dom_encoder() {
        let mut b = DeltaBuilder::new();
        let stored = Document::parse("<p k=\"a&amp;b\">x &lt; y<q/><!--c--></p>").unwrap();
        b.insert(Xid(9), Xid(1), 3, &stored.tree, stored.root_element().unwrap(), &[Xid(5), Xid(6), Xid(7), Xid(9)])
            .update(Xid(2), "", "a & b")
            .update(Xid(3), "<tag>", "")
            .attr_insert(Xid(4), "title", "say \"hi\"\n", usize::MAX)
            .attr_delete(Xid(4), "gone", "", 2)
            .attr_update(Xid(4), "k", "1<2", "tab\there");
        for delta in [sample_delta(), b.finish(), Delta::new()] {
            let xml = delta_to_xml(&delta);
            assert_eq!(xml, dom_encoded(&delta));
            assert_eq!(delta_to_xml(&parse_delta(&xml).unwrap()), xml);
        }
    }

    #[test]
    fn serialization_matches_paper_shape() {
        let xml = delta_to_xml(&sample_delta());
        assert!(xml.starts_with("<delta>"));
        assert!(xml.contains(r#"<delete xid="7" xid-map="(3-7)" parent="8" pos="1">"#));
        assert!(xml.contains(r#"<move xid="13" from-parent="14" from-pos="1" to-parent="8" to-pos="1"/>"#));
        assert!(xml.contains("<oldval>$799</oldval><newval>$699</newval>"));
    }

    #[test]
    fn roundtrip_preserves_every_op() {
        let d = sample_delta();
        let xml = delta_to_xml(&d);
        let back = parse_delta(&xml).unwrap();
        assert_eq!(back.len(), d.len());
        let xml2 = delta_to_xml(&back);
        assert_eq!(xml, xml2, "serialize∘parse must be a fixpoint");
    }

    #[test]
    fn roundtripped_delta_still_applies() {
        let old = XidDocument::parse_initial("<a><x><m/></x><y/><p>t</p></a>").unwrap();
        let mut new = old.clone();
        let m = new
            .doc
            .tree
            .descendants(new.doc.tree.root())
            .find(|&n| new.doc.tree.name(n) == Some("m"))
            .unwrap();
        let y = new
            .doc
            .tree
            .descendants(new.doc.tree.root())
            .find(|&n| new.doc.tree.name(n) == Some("y"))
            .unwrap();
        new.doc.tree.detach(m);
        new.doc.tree.append_child(y, m);
        let delta = crate::diff_by_xid::diff_by_xid(&old, &new);
        let xml = delta_to_xml(&delta);
        let reparsed = parse_delta(&xml).unwrap();
        let mut replay = old.clone();
        reparsed.apply_to(&mut replay).unwrap();
        assert_eq!(replay.doc.to_xml(), new.doc.to_xml());
    }

    #[test]
    fn text_subtree_roundtrips() {
        let mut stored = Tree::new();
        let txt = stored.new_text("just text");
        let mut b = DeltaBuilder::new();
        b.insert(Xid(5), Xid(1), 0, &stored, txt, &[Xid(5)]);
        let xml = delta_to_xml(&b.finish());
        assert!(xml.contains(">just text</insert>"));
        let back = parse_delta(&xml).unwrap();
        match back.ops[0] {
            Op::Insert { subtree, .. } => {
                let (tree, node) = back.payload(subtree);
                assert_eq!(tree.text(node), Some("just text"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn adjacent_texts_from_excluded_nodes_survive_roundtrip() {
        // old: <r><a>t1<b>mm</b>t2</a><keep/></r>
        // new: <r><keep/><b>mm</b></r>  — <a> deleted, <b> moved out.
        // The delete op captures <a> minus <b>, leaving t1 and t2 adjacent;
        // the XML form must keep them as two nodes or the op's XID-map (and
        // inversion) breaks.
        let old = XidDocument::parse_initial("<r><a>t1<b>mm</b>t2</a><keep/></r>").unwrap();
        let mut new = old.clone();
        let find = |d: &XidDocument, l: &str| {
            d.doc
                .tree
                .descendants(d.doc.tree.root())
                .find(|&n| d.doc.tree.name(n) == Some(l))
                .unwrap()
        };
        let b = find(&new, "b");
        let r = find(&new, "r");
        new.doc.tree.detach(b);
        new.doc.tree.append_child(r, b);
        let a = find(&new, "a");
        new.doc.tree.detach(a);
        for n in new.doc.tree.post_order(a).collect::<Vec<_>>() {
            new.clear_xid(n);
        }
        let delta = crate::diff_by_xid::diff_by_xid(&old, &new);
        let xml = delta_to_xml(&delta);
        assert!(xml.contains("t1<?xy-sep?>t2"), "separator must keep the boundary: {xml}");
        assert_eq!(xml, dom_encoded(&delta));
        let back = parse_delta(&xml).unwrap();
        // The roundtripped delta applies forward…
        let mut replay = old.clone();
        back.apply_to(&mut replay).unwrap();
        assert_eq!(replay.doc.to_xml(), new.doc.to_xml());
        // …and its inverse restores the adjacent text nodes as TWO nodes.
        back.inverted().apply_to(&mut replay).unwrap();
        assert_eq!(replay.doc.to_xml(), old.doc.to_xml());
        let a_restored = find(&replay, "a");
        assert_eq!(replay.doc.tree.children_count(a_restored), 3);
    }

    #[test]
    fn parse_rejects_wrong_root() {
        assert!(matches!(
            parse_delta("<not-a-delta/>"),
            Err(DeltaParseError::Structure(_))
        ));
    }

    #[test]
    fn parse_rejects_unknown_op() {
        assert!(parse_delta("<delta><frobnicate xid=\"1\"/></delta>").is_err());
    }

    #[test]
    fn parse_rejects_missing_attrs() {
        assert!(parse_delta("<delta><move xid=\"1\"/></delta>").is_err());
        assert!(parse_delta("<delta><update xid=\"1\"/></delta>").is_err());
    }

    #[test]
    fn parse_rejects_zero_position() {
        let r = parse_delta(
            "<delta><move xid=\"1\" from-parent=\"2\" from-pos=\"0\" to-parent=\"2\" to-pos=\"1\"/></delta>",
        );
        assert!(r.is_err());
    }

    #[test]
    fn empty_delta_roundtrip() {
        let xml = delta_to_xml(&Delta::new());
        assert_eq!(xml, "<delta/>");
        assert!(parse_delta(&xml).unwrap().is_empty());
    }

    #[test]
    fn size_bytes_is_xml_length() {
        let d = sample_delta();
        assert_eq!(d.size_bytes(), delta_to_xml(&d).len());
    }
}
