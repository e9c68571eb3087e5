//! Errors produced by delta application and delta parsing.

use crate::xid::Xid;
use std::fmt;

/// Failure while applying a [`crate::Delta`] to an [`crate::XidDocument`].
///
/// Carries the index of the offending operation in [`crate::Delta::ops`]
/// (when a single operation is at fault) plus a typed [`ApplyErrorKind`]
/// whose variants name the XIDs involved, so a rejected delta can be
/// reported — and dead-lettered — with enough context to debug it without
/// re-running the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyError {
    /// Index into [`crate::Delta::ops`] of the operation that failed, when
    /// one operation is individually at fault. `None` for whole-delta
    /// failures (e.g. a set of mutually unresolvable move targets).
    pub op_index: Option<usize>,
    /// What went wrong.
    pub kind: ApplyErrorKind,
}

impl ApplyError {
    /// A whole-delta failure not attributable to one operation.
    pub(crate) fn new(kind: ApplyErrorKind) -> Self {
        ApplyError { op_index: None, kind }
    }

    /// A failure attributed to the operation at `op_index`.
    pub(crate) fn at(op_index: usize, kind: ApplyErrorKind) -> Self {
        ApplyError { op_index: Some(op_index), kind }
    }
}

impl From<ApplyErrorKind> for ApplyError {
    fn from(kind: ApplyErrorKind) -> Self {
        ApplyError::new(kind)
    }
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op_index {
            Some(i) => write!(f, "op #{i}: {}", self.kind),
            None => self.kind.fmt(f),
        }
    }
}

impl std::error::Error for ApplyError {}

/// The specific failure behind an [`ApplyError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyErrorKind {
    /// An operation referenced an XID absent from the document.
    UnknownXid {
        /// The missing identifier.
        xid: Xid,
        /// Operation kind that referenced it.
        op: &'static str,
    },
    /// An update's stored old value disagreed with the document (completed
    /// deltas are verified on application).
    StaleUpdate {
        /// The node being updated.
        xid: Xid,
        /// Value recorded in the delta.
        expected: String,
        /// Value actually found.
        found: String,
    },
    /// Update targeted a node that is not a text node.
    NotAText(Xid),
    /// Attribute operation targeted a node that is not an element.
    NotAnElement(Xid),
    /// Attribute to delete/update was missing, or attribute to insert
    /// already present.
    AttrConflict {
        /// The owning element.
        element: Xid,
        /// Attribute name.
        name: String,
        /// Description of the conflict.
        problem: &'static str,
    },
    /// Insert/move targets form a cycle or reference parents that never
    /// materialize.
    UnresolvableTargets {
        /// Number of operations that could not be placed.
        remaining: usize,
    },
    /// An insert op's XID-map length does not match its subtree size.
    MalformedOp(&'static str),
    /// A position was beyond the end of the target child list.
    PositionOutOfRange {
        /// The parent element.
        parent: Xid,
        /// Requested 0-based position.
        pos: usize,
        /// Current child count.
        len: usize,
    },
}

impl fmt::Display for ApplyErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyErrorKind::UnknownXid { xid, op } => {
                write!(f, "{op} references unknown XID {xid}")
            }
            ApplyErrorKind::StaleUpdate { xid, expected, found } => write!(
                f,
                "update of XID {xid}: document has {found:?}, delta expected {expected:?}"
            ),
            ApplyErrorKind::NotAText(x) => write!(f, "update target XID {x} is not a text node"),
            ApplyErrorKind::NotAnElement(x) => {
                write!(f, "attribute operation target XID {x} is not an element")
            }
            ApplyErrorKind::AttrConflict { element, name, problem } => {
                write!(f, "attribute {name:?} on XID {element}: {problem}")
            }
            ApplyErrorKind::UnresolvableTargets { remaining } => write!(
                f,
                "{remaining} insert/move operations have unresolvable target parents"
            ),
            ApplyErrorKind::MalformedOp(msg) => write!(f, "malformed operation: {msg}"),
            ApplyErrorKind::PositionOutOfRange { parent, pos, len } => write!(
                f,
                "position {pos} out of range under XID {parent} (child count {len})"
            ),
        }
    }
}

impl std::error::Error for ApplyErrorKind {}

/// Failure while reading a delta back from its XML form.
#[derive(Debug, Clone)]
pub enum DeltaParseError {
    /// The XML itself does not parse.
    Xml(xytree::ParseError),
    /// The XML parses but is not a well-formed delta document.
    Structure(String),
}

impl fmt::Display for DeltaParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaParseError::Xml(e) => write!(f, "delta XML: {e}"),
            DeltaParseError::Structure(msg) => write!(f, "delta structure: {msg}"),
        }
    }
}

impl std::error::Error for DeltaParseError {}

impl From<xytree::ParseError> for DeltaParseError {
    fn from(e: xytree::ParseError) -> Self {
        DeltaParseError::Xml(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ApplyError::at(3, ApplyErrorKind::UnknownXid { xid: Xid(9), op: "move" });
        assert!(e.to_string().contains("move"));
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains("op #3"), "{e}");
        let e = ApplyError::new(ApplyErrorKind::StaleUpdate {
            xid: Xid(1),
            expected: "a".into(),
            found: "b".into(),
        });
        assert!(e.to_string().contains("\"a\""));
        assert!(!e.to_string().contains("op #"));
    }
}
