//! DTD internal-subset parsing.
//!
//! The diff algorithm needs exactly two things from a DTD (§5.2 of the
//! paper): **ID-typed attribute declarations** — "the existence of [an] ID
//! attribute for a given node provides a unique condition to match the node"
//! (phase 1) — and internal general entities so documents referencing them
//! parse. The static schema analyzer (`xyschema`) needs much more: the full
//! **regular tree grammar** a DTD declares. So `<!ELEMENT>` content models
//! (sequence/choice/`?`/`*`/`+`/`#PCDATA`/`ANY`/`EMPTY`) and complete
//! `<!ATTLIST>` types and defaults are parsed into [`ContentModel`] and
//! [`AttDef`] values on [`Doctype`]. Malformed declarations are reported
//! with line/column positions instead of being skipped silently.

use crate::error::{ParseError, ParseErrorKind};
use crate::intern::Symbol;
use std::collections::HashMap;

use super::cursor::Cursor;

/// Occurrence modifier on a content particle (`?`, `*`, `+`, or none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occur {
    /// Exactly once (no modifier).
    One,
    /// Zero or one (`?`).
    Opt,
    /// Zero or more (`*`).
    Star,
    /// One or more (`+`).
    Plus,
}

impl Occur {
    /// Can a particle with this modifier match the empty sequence on its own?
    pub fn nullable(self) -> bool {
        matches!(self, Occur::Opt | Occur::Star)
    }

    /// Can a particle with this modifier repeat?
    pub fn repeats(self) -> bool {
        matches!(self, Occur::Star | Occur::Plus)
    }
}

/// One node of a `children` content-model expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Particle {
    /// An element name with its occurrence modifier.
    Name(Symbol, Occur),
    /// A `,`-separated sequence group.
    Seq(Vec<Particle>, Occur),
    /// A `|`-separated choice group.
    Choice(Vec<Particle>, Occur),
}

impl Particle {
    /// The occurrence modifier of this particle.
    pub fn occur(&self) -> Occur {
        match self {
            Particle::Name(_, o) | Particle::Seq(_, o) | Particle::Choice(_, o) => *o,
        }
    }
}

/// The declared content of one element type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentModel {
    /// `EMPTY` — no content of any kind.
    Empty,
    /// `ANY` — any sequence of declared elements and character data.
    Any,
    /// `(#PCDATA | a | b)*` — character data interleaved with the listed
    /// elements in any order; an empty list is plain `(#PCDATA)`.
    Mixed(Vec<Symbol>),
    /// A `children` expression: an element-only regular expression.
    Children(Particle),
}

/// A declared attribute type (`<!ATTLIST>` second column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttType {
    /// `CDATA` — any string.
    Cdata,
    /// `ID` — a document-unique name.
    Id,
    /// `IDREF` — a reference to an ID.
    IdRef,
    /// `IDREFS` — whitespace-separated ID references.
    IdRefs,
    /// `ENTITY` — an unparsed-entity name.
    Entity,
    /// `ENTITIES` — whitespace-separated entity names.
    Entities,
    /// `NMTOKEN` — a name token.
    NmToken,
    /// `NMTOKENS` — whitespace-separated name tokens.
    NmTokens,
    /// `(a | b | c)` — one of the enumerated tokens.
    Enumerated(Vec<String>),
    /// `NOTATION (a | b)` — one of the enumerated notation names.
    Notation(Vec<String>),
}

/// A declared attribute default (`<!ATTLIST>` third column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttDefault {
    /// `#REQUIRED` — must appear on every instance.
    Required,
    /// `#IMPLIED` — optional, no default.
    Implied,
    /// `#FIXED "v"` — optional but must equal `v` when present.
    Fixed(String),
    /// `"v"` — optional with default value `v`.
    Value(String),
}

/// One attribute declaration from an `<!ATTLIST>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttDef {
    /// The attribute name.
    pub name: Symbol,
    /// The declared type.
    pub ty: AttType,
    /// The declared default.
    pub default: AttDefault,
}

/// DTD-derived document metadata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Doctype {
    /// The declared document-element name.
    pub name: String,
    /// `element label → attribute label` for every `ID`-typed attribute
    /// declared in the internal subset (the phase-1 fast path).
    pub id_attrs: HashMap<Symbol, Symbol>,
    /// Internal general entities (`<!ENTITY n "v">`).
    pub entities: HashMap<String, String>,
    /// `element label → content model` for every `<!ELEMENT>` declaration —
    /// the regular tree grammar consumed by the `xyschema` analyzer.
    pub elements: HashMap<Symbol, ContentModel>,
    /// `element label → attribute declarations` merged across every
    /// `<!ATTLIST>` for that element (first declaration of a name wins, as
    /// the XML spec prescribes).
    pub attlists: HashMap<Symbol, Vec<AttDef>>,
}

impl Doctype {
    /// The ID attribute declared for elements labeled `element`, if any.
    pub(crate) fn id_attr_of(&self, element: &str) -> Option<&str> {
        // Non-inserting lookup: a never-interned label cannot be a key.
        let sym = Symbol::lookup(element)?;
        self.id_attrs.get(&sym).map(Symbol::as_str)
    }

    /// `Doctype::id_attr_of` keyed by an interned label (hot-path form).
    pub fn id_attr_sym(&self, element: Symbol) -> Option<Symbol> {
        self.id_attrs.get(&element).copied()
    }

    /// True when the internal subset declared at least one ID attribute.
    pub fn has_id_attrs(&self) -> bool {
        !self.id_attrs.is_empty()
    }

    /// The attribute declarations for `element` (empty when none declared).
    pub fn attdefs_of(&self, element: Symbol) -> &[AttDef] {
        self.attlists.get(&element).map_or(&[], Vec::as_slice)
    }
}

/// Parse a bare DTD — a sequence of markup declarations *without* the
/// surrounding `<!DOCTYPE name [ … ]>` wrapper, the shape of an external
/// subset stored in a `.dtd` file. A full `<!DOCTYPE …>` form is also
/// accepted. `root` overrides the document-element name; when absent it is
/// taken from the `<!DOCTYPE>` wrapper or defaults to the first declared
/// element.
pub fn parse_dtd(input: &str, root: Option<&str>) -> Result<Doctype, ParseError> {
    let mut cur = Cursor::new(input);
    cur.skip_whitespace();
    let mut dt = if cur.starts_with(b"<!DOCTYPE") {
        let dt = parse_doctype(&mut cur)?;
        cur.skip_whitespace();
        if !cur.at_eof() {
            return Err(cur.error(ParseErrorKind::MalformedDoctype(
                "content after the DOCTYPE declaration",
            )));
        }
        dt
    } else {
        let mut dt = Doctype::default();
        parse_subset_decls(&mut cur, &mut dt, true)?;
        dt
    };
    if let Some(root) = root {
        dt.name = root.to_string();
    } else if dt.name.is_empty() {
        // First declared element, in declaration order: re-scan the input
        // rather than relying on HashMap order.
        if let Some(pos) = input.find("<!ELEMENT") {
            let mut c = Cursor::new(&input[pos + 9..]);
            c.skip_whitespace();
            dt.name = c.take_name().to_string();
        }
    }
    if dt.name.is_empty() {
        return Err(cur.error(ParseErrorKind::MalformedDoctype(
            "cannot determine the document-element name (no <!ELEMENT> declarations)",
        )));
    }
    Ok(dt)
}

/// Parse `<!DOCTYPE ...>` with the cursor positioned at `<`.
pub(crate) fn parse_doctype(cur: &mut Cursor<'_>) -> Result<Doctype, ParseError> {
    cur.advance(9); // <!DOCTYPE
    cur.skip_whitespace();
    let name = cur.take_name().to_string();
    if name.is_empty() {
        return Err(cur.error(ParseErrorKind::MalformedDoctype("missing document-element name")));
    }
    let mut dt = Doctype { name, ..Default::default() };
    cur.skip_whitespace();

    // Optional external id: SYSTEM "sys" | PUBLIC "pub" "sys". We skip the
    // identifiers; external subsets are not fetched.
    if cur.starts_with(b"SYSTEM") {
        cur.advance(6);
        cur.skip_whitespace();
        skip_quoted(cur)?;
        cur.skip_whitespace();
    } else if cur.starts_with(b"PUBLIC") {
        cur.advance(6);
        cur.skip_whitespace();
        skip_quoted(cur)?;
        cur.skip_whitespace();
        skip_quoted(cur)?;
        cur.skip_whitespace();
    }

    if cur.peek() == Some(b'[') {
        cur.advance(1);
        parse_subset_decls(cur, &mut dt, false)?;
        cur.skip_whitespace();
    }
    cur.expect_byte(b'>').map_err(|_| {
        cur.error(ParseErrorKind::MalformedDoctype("expected '>' at end of DOCTYPE"))
    })?;
    Ok(dt)
}

/// Parse the markup declarations of an internal subset up to `]` (or, for a
/// bare external-subset-style input, up to end of input).
fn parse_subset_decls(
    cur: &mut Cursor<'_>,
    dt: &mut Doctype,
    until_eof: bool,
) -> Result<(), ParseError> {
    loop {
        cur.skip_whitespace();
        match cur.peek() {
            Some(b']') if !until_eof => {
                cur.advance(1);
                return Ok(());
            }
            Some(b'%') => {
                // Parameter-entity reference: skip it (unsupported).
                cur.advance(1);
                cur.take_name();
                let _ = cur.expect_byte(b';');
            }
            Some(b'<') => {
                if cur.starts_with(b"<!--") {
                    cur.advance(4);
                    cur.take_until_seq(b"-->").ok_or_else(|| {
                        cur.error(ParseErrorKind::UnexpectedEof("comment in DTD"))
                    })?;
                    cur.advance(3);
                } else if cur.starts_with(b"<?") {
                    cur.advance(2);
                    cur.take_until_seq(b"?>").ok_or_else(|| {
                        cur.error(ParseErrorKind::UnexpectedEof("processing instruction in DTD"))
                    })?;
                    cur.advance(2);
                } else if cur.starts_with(b"<!ENTITY") {
                    cur.advance(8);
                    parse_entity_decl(cur, dt)?;
                } else if cur.starts_with(b"<!ATTLIST") {
                    cur.advance(9);
                    parse_attlist_decl(cur, dt)?;
                } else if cur.starts_with(b"<!ELEMENT") {
                    cur.advance(9);
                    parse_element_decl(cur, dt)?;
                } else if cur.starts_with(b"<!NOTATION") {
                    skip_markup_decl(cur)?;
                } else {
                    return Err(cur.error(ParseErrorKind::MalformedDoctype(
                        "unrecognized markup declaration in internal subset",
                    )));
                }
            }
            Some(_) => {
                return Err(cur.error(ParseErrorKind::MalformedDoctype(
                    "unexpected content in internal subset",
                )))
            }
            None if until_eof => return Ok(()),
            None => {
                return Err(cur.error(ParseErrorKind::UnexpectedEof("DTD internal subset")));
            }
        }
    }
}

/// `<!ENTITY name "value">` — record internal general entities; skip
/// parameter entities (`<!ENTITY % ...`) and external ones.
fn parse_entity_decl(cur: &mut Cursor<'_>, dt: &mut Doctype) -> Result<(), ParseError> {
    cur.skip_whitespace();
    if cur.peek() == Some(b'%') {
        return skip_markup_decl(cur);
    }
    let name = cur.take_name().to_string();
    if name.is_empty() {
        return Err(cur.error(ParseErrorKind::MalformedDoctype("entity declaration without name")));
    }
    cur.skip_whitespace();
    if cur.starts_with(b"SYSTEM") || cur.starts_with(b"PUBLIC") {
        // External entity: not fetched; leave undeclared so references fail
        // loudly rather than silently expanding to nothing.
        return skip_markup_decl(cur);
    }
    let value = read_quoted(cur)?;
    dt.entities.insert(name, value);
    skip_markup_decl_tail(cur)
}

/// `<!ELEMENT name contentspec>` — record the content model.
fn parse_element_decl(cur: &mut Cursor<'_>, dt: &mut Doctype) -> Result<(), ParseError> {
    cur.skip_whitespace();
    let name = cur.take_name();
    if name.is_empty() {
        return Err(cur.error(ParseErrorKind::MalformedDoctype("ELEMENT declaration without a name")));
    }
    let name = Symbol::intern(name);
    // VC: Unique Element Type Declaration — a second declaration would
    // silently change the grammar the analyzer reasons over.
    if dt.elements.contains_key(&name) {
        return Err(cur.error(ParseErrorKind::MalformedDoctype(
            "duplicate element type declaration",
        )));
    }
    cur.skip_whitespace();
    let model = if cur.starts_with(b"EMPTY") {
        cur.advance(5);
        ContentModel::Empty
    } else if cur.starts_with(b"ANY") {
        cur.advance(3);
        ContentModel::Any
    } else if cur.peek() == Some(b'(') {
        parse_model_group(cur)?
    } else {
        return Err(cur.error(ParseErrorKind::MalformedDoctype(
            "ELEMENT content must be EMPTY, ANY, or a parenthesized model",
        )));
    };
    cur.skip_whitespace();
    cur.expect_byte(b'>').map_err(|_| {
        cur.error(ParseErrorKind::MalformedDoctype("expected '>' at end of ELEMENT declaration"))
    })?;
    dt.elements.insert(name, model);
    Ok(())
}

/// Parse a parenthesized content model: either `Mixed` (starts with
/// `#PCDATA`) or a `children` expression.
fn parse_model_group(cur: &mut Cursor<'_>) -> Result<ContentModel, ParseError> {
    // Peek past "( S?" without consuming, to dispatch Mixed vs children.
    let mut probe = 1usize;
    while matches!(cur.peek_at(probe), Some(b' ' | b'\t' | b'\r' | b'\n')) {
        probe += 1;
    }
    if cur.peek_at(probe) == Some(b'#') {
        parse_mixed(cur)
    } else {
        Ok(ContentModel::Children(parse_children_group(cur, 0)?))
    }
}

/// `( #PCDATA )` or `( #PCDATA | a | b )*`.
fn parse_mixed(cur: &mut Cursor<'_>) -> Result<ContentModel, ParseError> {
    cur.advance(1); // (
    cur.skip_whitespace();
    if !cur.starts_with(b"#PCDATA") {
        return Err(cur.error(ParseErrorKind::MalformedDoctype(
            "mixed content must start with #PCDATA",
        )));
    }
    cur.advance(7);
    let mut names = Vec::new();
    loop {
        cur.skip_whitespace();
        match cur.peek() {
            Some(b')') => {
                cur.advance(1);
                break;
            }
            Some(b'|') => {
                cur.advance(1);
                cur.skip_whitespace();
                let n = cur.take_name();
                if n.is_empty() {
                    return Err(cur.error(ParseErrorKind::MalformedDoctype(
                        "expected an element name after '|' in mixed content",
                    )));
                }
                names.push(Symbol::intern(n));
            }
            _ => {
                return Err(cur.error(ParseErrorKind::MalformedDoctype(
                    "expected '|' or ')' in mixed content",
                )))
            }
        }
    }
    if cur.peek() == Some(b'*') {
        cur.advance(1);
    } else if !names.is_empty() {
        // (#PCDATA | a) without the closing '*' is not well-formed XML.
        return Err(cur.error(ParseErrorKind::MalformedDoctype(
            "mixed content with element names must end with ')*'",
        )));
    }
    Ok(ContentModel::Mixed(names))
}

/// Maximum nesting depth of content-model groups; real DTDs stay in single
/// digits, and the bound keeps adversarial input from exhausting the stack.
const MAX_MODEL_DEPTH: usize = 64;

/// A `children` group: `( cp (',' cp)* )occur?` or `( cp ('|' cp)+ )occur?`,
/// with the cursor at `(`.
fn parse_children_group(cur: &mut Cursor<'_>, depth: usize) -> Result<Particle, ParseError> {
    if depth > MAX_MODEL_DEPTH {
        return Err(cur.error(ParseErrorKind::MalformedDoctype(
            "content model nested too deeply",
        )));
    }
    cur.advance(1); // (
    let mut items = vec![parse_cp(cur, depth + 1)?];
    let mut sep: Option<u8> = None;
    loop {
        cur.skip_whitespace();
        match cur.peek() {
            Some(b')') => {
                cur.advance(1);
                break;
            }
            Some(b @ (b'|' | b',')) => {
                if sep.is_some_and(|s| s != b) {
                    return Err(cur.error(ParseErrorKind::MalformedDoctype(
                        "content group mixes ',' and '|' separators",
                    )));
                }
                sep = Some(b);
                cur.advance(1);
                items.push(parse_cp(cur, depth + 1)?);
            }
            _ => {
                return Err(cur.error(ParseErrorKind::MalformedDoctype(
                    "expected ',', '|' or ')' in content model",
                )))
            }
        }
    }
    let occur = parse_occur(cur);
    Ok(match sep {
        Some(b'|') => Particle::Choice(items, occur),
        // A single-item group is its item; `,` keeps it a Seq.
        _ if items.len() == 1 && occur == Occur::One => items.remove(0),
        _ => Particle::Seq(items, occur),
    })
}

/// One content particle: a name or a nested group, with its modifier.
fn parse_cp(cur: &mut Cursor<'_>, depth: usize) -> Result<Particle, ParseError> {
    cur.skip_whitespace();
    if cur.peek() == Some(b'(') {
        return parse_children_group(cur, depth);
    }
    let n = cur.take_name();
    if n.is_empty() {
        return Err(cur.error(ParseErrorKind::MalformedDoctype(
            "expected an element name or '(' in content model",
        )));
    }
    let sym = Symbol::intern(n);
    Ok(Particle::Name(sym, parse_occur(cur)))
}

fn parse_occur(cur: &mut Cursor<'_>) -> Occur {
    let o = match cur.peek() {
        Some(b'?') => Occur::Opt,
        Some(b'*') => Occur::Star,
        Some(b'+') => Occur::Plus,
        _ => return Occur::One,
    };
    cur.advance(1);
    o
}

/// `<!ATTLIST element (attr type default)*>` — record every declaration.
fn parse_attlist_decl(cur: &mut Cursor<'_>, dt: &mut Doctype) -> Result<(), ParseError> {
    cur.skip_whitespace();
    let element = cur.take_name();
    if element.is_empty() {
        return Err(cur.error(ParseErrorKind::MalformedDoctype("ATTLIST without element name")));
    }
    let element = Symbol::intern(element);
    loop {
        cur.skip_whitespace();
        match cur.peek() {
            Some(b'>') => {
                cur.advance(1);
                return Ok(());
            }
            None => return Err(cur.error(ParseErrorKind::UnexpectedEof("ATTLIST declaration"))),
            _ => {}
        }
        let attr = cur.take_name();
        if attr.is_empty() {
            return Err(cur.error(ParseErrorKind::MalformedDoctype("ATTLIST attribute name")));
        }
        let attr = Symbol::intern(attr);
        cur.skip_whitespace();
        let ty = parse_att_type(cur)?;
        cur.skip_whitespace();
        let default = parse_att_default(cur)?;
        // VC: ID Attribute Default — an ID attribute must be #IMPLIED or
        // #REQUIRED (a defaulted document-unique value is a contradiction).
        if ty == AttType::Id && !matches!(default, AttDefault::Implied | AttDefault::Required) {
            return Err(cur.error(ParseErrorKind::MalformedDoctype(
                "ID attribute must be declared #IMPLIED or #REQUIRED",
            )));
        }
        // VC: Attribute Default Value Syntactically Correct — an enumerated
        // default must be one of the enumerated tokens.
        if let (AttType::Enumerated(toks) | AttType::Notation(toks),
                AttDefault::Fixed(v) | AttDefault::Value(v)) = (&ty, &default)
        {
            if !toks.iter().any(|t| t == v) {
                return Err(cur.error(ParseErrorKind::MalformedDoctype(
                    "default value is not one of the enumerated tokens",
                )));
            }
        }
        let defs = dt.attlists.entry(element).or_default();
        if defs.iter().any(|d| d.name == attr) {
            // The XML spec ignores re-declarations of an attribute name;
            // keeping the first matches validating-parser behavior.
            continue;
        }
        if ty == AttType::Id {
            // XML allows at most one ID attribute per element type (the
            // one-ID-per-element-type validity constraint). A second
            // declaration would silently change which attribute drives
            // phase-1 matching, so it is rejected rather than merged.
            if dt.id_attrs.contains_key(&element) {
                return Err(cur.error(ParseErrorKind::MalformedDoctype(
                    "duplicate ID attribute declaration for element",
                )));
            }
            dt.id_attrs.insert(element, attr);
        }
        defs.push(AttDef { name: attr, ty, default });
    }
}

/// The attribute-type column of an `<!ATTLIST>` row.
fn parse_att_type(cur: &mut Cursor<'_>) -> Result<AttType, ParseError> {
    if cur.peek() == Some(b'(') {
        return Ok(AttType::Enumerated(parse_enum_tokens(cur)?));
    }
    let ty = cur.take_name();
    match ty {
        "CDATA" => Ok(AttType::Cdata),
        "ID" => Ok(AttType::Id),
        "IDREF" => Ok(AttType::IdRef),
        "IDREFS" => Ok(AttType::IdRefs),
        "ENTITY" => Ok(AttType::Entity),
        "ENTITIES" => Ok(AttType::Entities),
        "NMTOKEN" => Ok(AttType::NmToken),
        "NMTOKENS" => Ok(AttType::NmTokens),
        "NOTATION" => {
            cur.skip_whitespace();
            if cur.peek() != Some(b'(') {
                return Err(cur.error(ParseErrorKind::MalformedDoctype(
                    "NOTATION type needs a parenthesized name list",
                )));
            }
            Ok(AttType::Notation(parse_enum_tokens(cur)?))
        }
        "" => Err(cur.error(ParseErrorKind::MalformedDoctype(
            "ATTLIST attribute without a type",
        ))),
        _ => Err(cur.error(ParseErrorKind::MalformedDoctype(
            "unknown attribute type in ATTLIST",
        ))),
    }
}

/// `( tok | tok | … )` — the token list of an enumerated attribute type.
fn parse_enum_tokens(cur: &mut Cursor<'_>) -> Result<Vec<String>, ParseError> {
    cur.advance(1); // (
    let mut toks = Vec::new();
    loop {
        cur.skip_whitespace();
        let t = cur.take_name();
        if t.is_empty() {
            return Err(cur.error(ParseErrorKind::MalformedDoctype(
                "expected a token in enumerated attribute type",
            )));
        }
        toks.push(t.to_string());
        cur.skip_whitespace();
        match cur.peek() {
            Some(b'|') => cur.advance(1),
            Some(b')') => {
                cur.advance(1);
                return Ok(toks);
            }
            _ => {
                return Err(cur.error(ParseErrorKind::MalformedDoctype(
                    "expected '|' or ')' in enumerated attribute type",
                )))
            }
        }
    }
}

/// The default-declaration column of an `<!ATTLIST>` row.
fn parse_att_default(cur: &mut Cursor<'_>) -> Result<AttDefault, ParseError> {
    if cur.starts_with(b"#REQUIRED") {
        cur.advance(9);
        Ok(AttDefault::Required)
    } else if cur.starts_with(b"#IMPLIED") {
        cur.advance(8);
        Ok(AttDefault::Implied)
    } else if cur.starts_with(b"#FIXED") {
        cur.advance(6);
        cur.skip_whitespace();
        Ok(AttDefault::Fixed(read_quoted(cur)?))
    } else if matches!(cur.peek(), Some(b'"' | b'\'')) {
        Ok(AttDefault::Value(read_quoted(cur)?))
    } else {
        Err(cur.error(ParseErrorKind::MalformedDoctype(
            "attribute default must be #REQUIRED, #IMPLIED, #FIXED or a quoted value",
        )))
    }
}

fn read_quoted(cur: &mut Cursor<'_>) -> Result<String, ParseError> {
    let Some(quote @ (b'"' | b'\'')) = cur.peek() else {
        return Err(cur.error(ParseErrorKind::MalformedDoctype("expected quoted literal")));
    };
    cur.advance(1);
    let v = cur
        .take_until_byte_checked(quote)
        .ok_or_else(|| cur.error(ParseErrorKind::UnexpectedEof("quoted literal in DTD")))?
        .to_string();
    cur.advance(1);
    Ok(v)
}

fn skip_quoted(cur: &mut Cursor<'_>) -> Result<(), ParseError> {
    read_quoted(cur).map(|_| ())
}

/// Skip the remainder of a markup declaration up to and including `>`,
/// ignoring `>` inside quoted literals.
fn skip_markup_decl(cur: &mut Cursor<'_>) -> Result<(), ParseError> {
    skip_markup_decl_tail(cur)
}

fn skip_markup_decl_tail(cur: &mut Cursor<'_>) -> Result<(), ParseError> {
    let mut quote: Option<u8> = None;
    loop {
        match cur.peek() {
            Some(b) => {
                cur.advance(1);
                match quote {
                    Some(q) if b == q => quote = None,
                    Some(_) => {}
                    None => match b {
                        b'"' | b'\'' => quote = Some(b),
                        b'>' => return Ok(()),
                        _ => {}
                    },
                }
            }
            None => return Err(cur.error(ParseErrorKind::UnexpectedEof("markup declaration"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The content model declared for `element`, if any.
    fn content_model_of<'a>(dt: &'a Doctype, element: &str) -> Option<&'a ContentModel> {
        dt.elements.get(&Symbol::lookup(element)?)
    }
    use crate::document::Document;
    use crate::error::ParseErrorKind;

    #[test]
    fn doctype_name_recorded() {
        let doc = Document::parse("<!DOCTYPE catalog><catalog/>").unwrap();
        assert_eq!(doc.doctype.as_ref().unwrap().name, "catalog");
    }

    #[test]
    fn external_id_skipped() {
        let doc = Document::parse(
            r#"<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML 1.0//EN" "http://x/dtd"><html/>"#,
        )
        .unwrap();
        assert_eq!(doc.doctype.as_ref().unwrap().name, "html");
    }

    #[test]
    fn id_attribute_declared() {
        let doc = Document::parse(
            "<!DOCTYPE c [<!ATTLIST product id ID #REQUIRED>]><c><product id='p1'/></c>",
        )
        .unwrap();
        let dt = doc.doctype.as_ref().unwrap();
        assert_eq!(dt.id_attr_of("product"), Some("id"));
        assert!(dt.has_id_attrs());
    }

    #[test]
    fn non_id_attribute_not_recorded() {
        let doc = Document::parse(
            "<!DOCTYPE c [<!ATTLIST product name CDATA #IMPLIED>]><c/>",
        )
        .unwrap();
        let dt = doc.doctype.as_ref().unwrap();
        assert!(!dt.has_id_attrs());
        // …but the full declaration is.
        let defs = dt.attdefs_of(Symbol::intern("product"));
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].ty, AttType::Cdata);
        assert_eq!(defs[0].default, AttDefault::Implied);
    }

    #[test]
    fn multi_attribute_attlist() {
        let doc = Document::parse(
            "<!DOCTYPE c [<!ATTLIST p a CDATA #IMPLIED key ID #REQUIRED b (x|y) \"x\">]><c/>",
        )
        .unwrap();
        let dt = doc.doctype.as_ref().unwrap();
        assert_eq!(dt.id_attr_of("p"), Some("key"));
        let defs = dt.attdefs_of(Symbol::intern("p"));
        assert_eq!(defs.len(), 3);
        assert_eq!(defs[2].ty, AttType::Enumerated(vec!["x".into(), "y".into()]));
        assert_eq!(defs[2].default, AttDefault::Value("x".into()));
    }

    #[test]
    fn duplicate_id_declaration_rejected_with_location() {
        let e = Document::parse(
            "<!DOCTYPE c [<!ATTLIST p a ID #IMPLIED><!ATTLIST p b ID #IMPLIED>]><c/>",
        )
        .unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::MalformedDoctype(_)), "{e:?}");
        assert_eq!(e.line, 1);
        assert!(e.column > 40, "column points into the second ATTLIST: {e:?}");
    }

    #[test]
    fn duplicate_id_in_one_attlist_rejected() {
        let e = Document::parse(
            "<!DOCTYPE c [<!ATTLIST p a ID #IMPLIED b ID #IMPLIED>]><c/>",
        )
        .unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::MalformedDoctype(_)), "{e:?}");
    }

    #[test]
    fn attlist_attribute_without_type_rejected() {
        let e = Document::parse(
            "<!DOCTYPE c [<!ATTLIST p a #IMPLIED>]><c/>",
        )
        .unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::MalformedDoctype(_)), "{e:?}");
        assert!(e.line >= 1 && e.column >= 1);
    }

    #[test]
    fn unknown_attribute_type_rejected_with_location() {
        let e = Document::parse(
            "<!DOCTYPE c [\n<!ATTLIST p a BOGUS #IMPLIED>]><c/>",
        )
        .unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::MalformedDoctype(_)), "{e:?}");
        assert_eq!(e.line, 2, "line points at the bad ATTLIST: {e:?}");
    }

    #[test]
    fn internal_entity_used_in_body() {
        let doc = Document::parse(
            "<!DOCTYPE c [<!ENTITY co \"Xyleme SA\">]><c>&co;</c>",
        )
        .unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.tree.deep_text(root), "Xyleme SA");
    }

    #[test]
    fn element_decls_parsed_into_models() {
        let doc = Document::parse(
            "<!DOCTYPE c [<!ELEMENT c (p*)><!ELEMENT p (#PCDATA)>]><c><p/></c>",
        )
        .unwrap();
        let dt = doc.doctype.as_ref().unwrap();
        assert!(!dt.elements.is_empty());
        // A single-item group with no outer modifier collapses to the item.
        assert_eq!(
            content_model_of(dt, "c"),
            Some(&ContentModel::Children(Particle::Name(Symbol::intern("p"), Occur::Star)))
        );
        assert_eq!(content_model_of(dt, "p"), Some(&ContentModel::Mixed(Vec::new())));
    }

    #[test]
    fn nested_model_with_choices_and_occurrences() {
        let doc = Document::parse(
            "<!DOCTYPE r [<!ELEMENT r ((a | b)+, c?, (d, e)*)>]><r><a/><c/></r>",
        )
        .unwrap();
        let dt = doc.doctype.as_ref().unwrap();
        let Some(ContentModel::Children(Particle::Seq(items, Occur::One))) =
            content_model_of(dt, "r")
        else {
            panic!("{:?}", content_model_of(dt, "r"));
        };
        assert_eq!(items.len(), 3);
        assert!(matches!(&items[0], Particle::Choice(cs, Occur::Plus) if cs.len() == 2));
        assert!(matches!(&items[1], Particle::Name(_, Occur::Opt)));
        assert!(matches!(&items[2], Particle::Seq(ss, Occur::Star) if ss.len() == 2));
    }

    #[test]
    fn empty_and_any_models() {
        let doc = Document::parse(
            "<!DOCTYPE r [<!ELEMENT r ANY><!ELEMENT hr EMPTY>]><r><hr/></r>",
        )
        .unwrap();
        let dt = doc.doctype.as_ref().unwrap();
        assert_eq!(content_model_of(dt, "r"), Some(&ContentModel::Any));
        assert_eq!(content_model_of(dt, "hr"), Some(&ContentModel::Empty));
    }

    #[test]
    fn mixed_content_with_names() {
        let doc = Document::parse(
            "<!DOCTYPE p [<!ELEMENT p (#PCDATA | em | strong)*>]><p>x<em>y</em></p>",
        )
        .unwrap();
        let dt = doc.doctype.as_ref().unwrap();
        assert_eq!(
            content_model_of(dt, "p"),
            Some(&ContentModel::Mixed(vec![Symbol::intern("em"), Symbol::intern("strong")]))
        );
    }

    #[test]
    fn malformed_element_decl_rejected_with_location() {
        for bad in [
            "<!DOCTYPE c [<!ELEMENT c >]><c/>",
            "<!DOCTYPE c [<!ELEMENT c (a,|b)>]><c/>",
            "<!DOCTYPE c [<!ELEMENT c (a,b|d)>]><c/>",
            "<!DOCTYPE c [<!ELEMENT c (#PCDATA|a)>]><c/>",
            "<!DOCTYPE c [<!ELEMENT c (a]><c/>",
            "<!DOCTYPE c [<!ELEMENT (a)>]><c/>",
        ] {
            let e = Document::parse(bad).unwrap_err();
            assert!(
                matches!(
                    e.kind,
                    ParseErrorKind::MalformedDoctype(_) | ParseErrorKind::UnexpectedEof(_)
                ),
                "{bad}: {e:?}"
            );
            assert!(e.line >= 1 && e.column > 1, "{bad}: {e:?}");
        }
    }

    #[test]
    fn duplicate_element_decl_rejected() {
        let e = Document::parse(
            "<!DOCTYPE c [<!ELEMENT c (#PCDATA)><!ELEMENT c ANY>]><c/>",
        )
        .unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::MalformedDoctype(_)), "{e:?}");
        assert!(e.column > 35, "column points into the second declaration: {e:?}");
    }

    #[test]
    fn id_with_default_value_rejected() {
        let e = Document::parse(
            "<!DOCTYPE c [<!ATTLIST p a ID \"x\">]><c/>",
        )
        .unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::MalformedDoctype(_)), "{e:?}");
    }

    #[test]
    fn enumerated_default_must_be_a_token() {
        let e = Document::parse(
            "<!DOCTYPE c [<!ATTLIST p a (x|y) \"z\">]><c/>",
        )
        .unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::MalformedDoctype(_)), "{e:?}");
    }

    #[test]
    fn notation_type_parsed() {
        let doc = Document::parse(
            "<!DOCTYPE c [<!ATTLIST img fmt NOTATION (png|jpg) #IMPLIED>]><c/>",
        )
        .unwrap();
        let defs = doc.doctype.as_ref().unwrap().attdefs_of(Symbol::intern("img"));
        assert_eq!(defs[0].ty, AttType::Notation(vec!["png".into(), "jpg".into()]));
    }

    #[test]
    fn fixed_default_with_gt_inside_quotes() {
        let doc = Document::parse(
            "<!DOCTYPE c [<!ATTLIST p a CDATA #FIXED \"x>y\" k ID #IMPLIED>]><c/>",
        )
        .unwrap();
        let dt = doc.doctype.as_ref().unwrap();
        assert_eq!(dt.id_attr_of("p"), Some("k"));
        let defs = dt.attdefs_of(Symbol::intern("p"));
        assert_eq!(defs[0].default, AttDefault::Fixed("x>y".into()));
    }

    #[test]
    fn comment_and_pi_inside_subset() {
        let doc = Document::parse(
            "<!DOCTYPE c [<!--x--><?pi data?><!ATTLIST p k ID #IMPLIED>]><c/>",
        )
        .unwrap();
        assert_eq!(doc.doctype.as_ref().unwrap().id_attr_of("p"), Some("k"));
    }

    #[test]
    fn doctype_after_root_is_error() {
        let e = Document::parse("<c/><!DOCTYPE c>").unwrap_err();
        assert!(matches!(
            e.kind,
            ParseErrorKind::MalformedDoctype(_) | ParseErrorKind::ContentOutsideRoot
        ));
    }

    #[test]
    fn external_entity_left_undeclared() {
        let e = Document::parse(
            "<!DOCTYPE c [<!ENTITY ext SYSTEM \"http://x\">]><c>&ext;</c>",
        )
        .unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnknownEntity(_)));
    }

    #[test]
    fn unterminated_doctype() {
        let e = Document::parse("<!DOCTYPE c [").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnexpectedEof(_)));
    }

    #[test]
    fn bare_dtd_file_parses() {
        let dt = parse_dtd(
            "<!ELEMENT catalog (product*)>\n\
             <!ELEMENT product (name, price)>\n\
             <!ELEMENT name (#PCDATA)>\n\
             <!ELEMENT price (#PCDATA)>\n\
             <!ATTLIST product id ID #REQUIRED>\n",
            None,
        )
        .unwrap();
        assert_eq!(dt.name, "catalog", "root defaults to the first declared element");
        assert_eq!(dt.elements.len(), 4);
        assert_eq!(dt.id_attr_of("product"), Some("id"));
    }

    #[test]
    fn bare_dtd_with_explicit_root() {
        let dt = parse_dtd("<!ELEMENT a (b?)><!ELEMENT b EMPTY>", Some("b")).unwrap();
        assert_eq!(dt.name, "b");
    }

    #[test]
    fn wrapped_doctype_form_accepted_by_parse_dtd() {
        let dt = parse_dtd("<!DOCTYPE r [<!ELEMENT r EMPTY>]>", None).unwrap();
        assert_eq!(dt.name, "r");
        assert_eq!(content_model_of(&dt, "r"), Some(&ContentModel::Empty));
    }

    #[test]
    fn bare_dtd_without_elements_is_an_error() {
        assert!(parse_dtd("<!ENTITY x \"y\">", None).is_err());
    }
}
