//! Persistent node identifiers (XIDs) and compressed XID-maps.
//!
//! "We start by assigning to every node of the first version of an XML
//! document a unique identifier, for example its postfix position. […]
//! matched nodes in the new document thereby obtain their (persistent)
//! identifiers from their matching in the previous version. New persistent
//! identifiers are assigned to unmatched nodes." (§4)
//!
//! An [`XidMap`] is "a string attached to a subtree that describes the XIDs
//! of its nodes" — the paper's example deltas carry `XID-map="(3-7)"`. We
//! store the postfix-order XID sequence of a subtree and render it in the
//! same compressed range syntax, e.g. `(3-7;12;14-15)`.

use std::fmt;
use std::str::FromStr;

/// A persistent node identifier. XIDs are positive and unique within one
/// versioned document's history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Xid(
    /// The raw numeric identifier (0 is reserved / never assigned).
    pub u64,
);

impl Xid {
    /// The numeric value.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Xid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The XIDs of a subtree, in postfix (post-order) sequence — children before
/// parents, so the subtree root is always last.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XidMap {
    xids: Vec<Xid>,
}

impl XidMap {
    /// An XID-map from a postfix-ordered sequence.
    pub fn new(xids: Vec<Xid>) -> XidMap {
        XidMap { xids }
    }

    /// The postfix-ordered XIDs.
    pub fn xids(&self) -> &[Xid] {
        &self.xids
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.xids.len()
    }

    /// True when the map covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.xids.is_empty()
    }

    /// The subtree root's XID (last in postfix order).
    pub fn root_xid(&self) -> Option<Xid> {
        self.xids.last().copied()
    }

    /// Render in the paper's compressed syntax: consecutive runs become
    /// `lo-hi`, runs are separated by `;`, the whole map is parenthesized.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        write_compact(&self.xids, &mut out);
        out
    }
}

/// Append the compressed form of a postfix XID sequence to `out` (see
/// [`XidMap::to_compact_string`]).
pub(crate) fn write_compact(xids: &[Xid], out: &mut String) {
    use fmt::Write;
    out.push('(');
    let mut i = 0;
    while i < xids.len() {
        let lo = xids[i].0;
        let mut hi = lo;
        let mut j = i + 1;
        while j < xids.len() && xids[j].0 == hi + 1 {
            hi += 1;
            j += 1;
        }
        if i > 0 {
            out.push(';');
        }
        // Writing to a `String` cannot fail.
        let _ = if lo == hi { write!(out, "{lo}") } else { write!(out, "{lo}-{hi}") };
        i = j;
    }
    out.push(')');
}

impl fmt::Display for XidMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact_string())
    }
}

/// Error parsing a compact XID-map string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XidMapParseError(
    /// What was wrong with the input.
    pub String,
);

impl fmt::Display for XidMapParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid XID-map: {}", self.0)
    }
}

impl std::error::Error for XidMapParseError {}

impl FromStr for XidMap {
    type Err = XidMapParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut xids = Vec::new();
        parse_compact_into(s, &mut xids)?;
        Ok(XidMap::new(xids))
    }
}

/// Parse a compact XID-map string, appending its XIDs to `xids` (what
/// [`XidMap`]'s `FromStr` does into a vector of its own).
pub(crate) fn parse_compact_into(s: &str, xids: &mut Vec<Xid>) -> Result<(), XidMapParseError> {
    let inner = s
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix(')'))
        .ok_or_else(|| XidMapParseError(format!("{s:?} is not parenthesized")))?;
    if inner.is_empty() {
        return Ok(());
    }
    for part in inner.split(';') {
        if let Some((lo, hi)) = part.split_once('-') {
            let lo: u64 = lo
                .trim()
                .parse()
                .map_err(|_| XidMapParseError(format!("bad range start in {part:?}")))?;
            let hi: u64 = hi
                .trim()
                .parse()
                .map_err(|_| XidMapParseError(format!("bad range end in {part:?}")))?;
            if hi < lo {
                return Err(XidMapParseError(format!("descending range {part:?}")));
            }
            xids.extend((lo..=hi).map(Xid));
        } else {
            let v: u64 = part
                .trim()
                .parse()
                .map_err(|_| XidMapParseError(format!("bad XID in {part:?}")))?;
            xids.push(Xid(v));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(v: &[u64]) -> XidMap {
        XidMap::new(v.iter().map(|&x| Xid(x)).collect())
    }

    #[test]
    fn paper_example_format() {
        // The delete in §4's example carries XID-map="(3-7)".
        assert_eq!(m(&[3, 4, 5, 6, 7]).to_compact_string(), "(3-7)");
    }

    #[test]
    fn mixed_runs_and_singletons() {
        assert_eq!(m(&[3, 4, 5, 12, 14, 15]).to_compact_string(), "(3-5;12;14-15)");
    }

    #[test]
    fn singleton_and_empty() {
        assert_eq!(m(&[9]).to_compact_string(), "(9)");
        assert_eq!(m(&[]).to_compact_string(), "()");
    }

    #[test]
    fn non_consecutive_descending_not_compressed() {
        assert_eq!(m(&[5, 4, 3]).to_compact_string(), "(5;4;3)");
    }

    #[test]
    fn parse_roundtrip() {
        for v in [vec![3u64, 4, 5, 6, 7], vec![1], vec![], vec![2, 3, 9, 11, 12]] {
            let map = m(&v);
            let s = map.to_compact_string();
            let back: XidMap = s.parse().unwrap();
            assert_eq!(back, map, "roundtrip of {s}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("3-7".parse::<XidMap>().is_err());
        assert!("(3-)".parse::<XidMap>().is_err());
        assert!("(x)".parse::<XidMap>().is_err());
        assert!("(7-3)".parse::<XidMap>().is_err());
    }

    #[test]
    fn root_is_last() {
        assert_eq!(m(&[3, 4, 7]).root_xid(), Some(Xid(7)));
        assert_eq!(m(&[]).root_xid(), None);
    }
}
