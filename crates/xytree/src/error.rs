//! Parse-error reporting with line/column positions.

use std::fmt;

/// Position-annotated error produced by [`crate::Document::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub kind: ParseErrorKind,
    /// 1-based line of the offending byte.
    pub line: u32,
    /// 1-based column (in bytes) of the offending byte.
    pub column: u32,
    /// Byte offset into the input.
    pub offset: usize,
}

/// The category of a [`ParseError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended in the middle of a construct.
    UnexpectedEof(&'static str),
    /// A byte that cannot start or continue the current construct.
    Unexpected {
        /// What the parser was reading.
        context: &'static str,
        /// The byte actually found.
        found: u8,
    },
    /// `</b>` closed an element opened as `<a>`.
    MismatchedCloseTag {
        /// Name in the open tag.
        expected: String,
        /// Name in the close tag.
        found: String,
    },
    /// A close tag with no matching open tag.
    UnmatchedCloseTag(String),
    /// An element was still open when the input ended.
    UnclosedElement(String),
    /// The same attribute appeared twice on one element.
    DuplicateAttribute(String),
    /// `&name;` where `name` is neither predefined nor declared.
    UnknownEntity(String),
    /// `&#x...;` or `&#...;` that does not denote a valid char.
    InvalidCharRef(String),
    /// Entity expansion exceeded the recursion limit (cycle guard).
    EntityRecursionLimit(String),
    /// Internal entities expanded to more than this many bytes of
    /// replacement text in one document (a "billion laughs" guard).
    EntityExpansionLimit(usize),
    /// Document nesting exceeded [`crate::ParseOptions::max_depth`].
    TooDeep(usize),
    /// More than one root element, or text at the top level.
    ContentOutsideRoot,
    /// The document contains no root element at all.
    NoRootElement,
    /// An XML name was empty or started with an invalid character.
    InvalidName,
    /// Malformed `<!DOCTYPE ...>` internal subset.
    MalformedDoctype(&'static str),
    /// Input is not valid UTF-8 at the given offset.
    InvalidUtf8,
}

impl ParseError {
    pub(crate) fn new(kind: ParseErrorKind, line: u32, column: u32, offset: usize) -> Self {
        ParseError { kind, line, column, offset }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.kind)
    }
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ParseErrorKind::*;
        match self {
            UnexpectedEof(ctx) => write!(f, "unexpected end of input while reading {ctx}"),
            Unexpected { context, found } => {
                write!(f, "unexpected byte {:?} while reading {}", *found as char, context)
            }
            MismatchedCloseTag { expected, found } => {
                write!(f, "mismatched close tag: expected </{expected}>, found </{found}>")
            }
            UnmatchedCloseTag(name) => write!(f, "close tag </{name}> has no open tag"),
            UnclosedElement(name) => write!(f, "element <{name}> is never closed"),
            DuplicateAttribute(name) => write!(f, "duplicate attribute {name:?}"),
            UnknownEntity(name) => write!(f, "unknown entity &{name};"),
            InvalidCharRef(body) => write!(f, "invalid character reference &#{body};"),
            EntityRecursionLimit(name) => {
                write!(f, "entity &{name}; expands too deeply (recursive definition?)")
            }
            EntityExpansionLimit(limit) => {
                write!(f, "internal entities expand to more than {limit} bytes")
            }
            TooDeep(limit) => write!(f, "document nesting exceeds the limit of {limit}"),
            ContentOutsideRoot => write!(f, "content outside the root element"),
            NoRootElement => write!(f, "document has no root element"),
            InvalidName => write!(f, "invalid XML name"),
            MalformedDoctype(what) => write!(f, "malformed DOCTYPE: {what}"),
            InvalidUtf8 => write!(f, "input is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = ParseError::new(ParseErrorKind::NoRootElement, 3, 7, 42);
        assert_eq!(e.to_string(), "3:7: document has no root element");
    }

    #[test]
    fn display_mismatched_tag() {
        let e = ParseError::new(
            ParseErrorKind::MismatchedCloseTag { expected: "a".into(), found: "b".into() },
            1,
            1,
            0,
        );
        assert!(e.to_string().contains("</a>"));
        assert!(e.to_string().contains("</b>"));
    }
}
