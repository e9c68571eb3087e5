//! Byte cursor over a UTF-8 input.
//!
//! The parser works on bytes (the input is already guaranteed UTF-8 by the
//! `&str` type), which keeps scanning branch-cheap; multi-byte characters only
//! matter for name characters, where any byte ≥ 0x80 is accepted. Only the
//! byte offset is tracked while scanning: the line and column an error
//! reports are counted from it when the error is built.

use crate::error::{ParseError, ParseErrorKind};

pub(crate) struct Cursor<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Cursor { input, bytes: input.as_bytes(), pos: 0 }
    }

    #[inline]
    pub(crate) fn at_eof(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    #[inline]
    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    pub(crate) fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    pub(crate) fn starts_with(&self, prefix: &[u8]) -> bool {
        self.bytes[self.pos..].starts_with(prefix)
    }

    /// Advance `n` bytes (to the end of the input at most).
    #[inline]
    pub(crate) fn advance(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.bytes.len());
    }

    /// Consume `expected` or return the byte actually found (0 on EOF).
    pub(crate) fn expect_byte(&mut self, expected: u8) -> Result<(), u8> {
        match self.peek() {
            Some(b) if b == expected => {
                self.advance(1);
                Ok(())
            }
            Some(b) => Err(b),
            None => Err(0),
        }
    }

    pub(crate) fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.advance(1);
        }
    }

    /// Consume and return everything up to (not including) `stop`, or to EOF.
    pub(crate) fn take_until(&mut self, stop: u8) -> &'a str {
        let start = self.pos;
        let rel = self.bytes[self.pos..].iter().position(|&b| b == stop);
        let end = rel.map(|r| self.pos + r).unwrap_or(self.bytes.len());
        self.advance(end - start);
        &self.input[start..end]
    }

    /// Like [`Cursor::take_until`] but returns `None` if `stop` never occurs
    /// (the stop byte is *not* consumed).
    pub(crate) fn take_until_byte_checked(&mut self, stop: u8) -> Option<&'a str> {
        let start = self.pos;
        let rel = self.bytes[self.pos..].iter().position(|&b| b == stop)?;
        self.advance(rel);
        Some(&self.input[start..start + rel])
    }

    /// Consume and return everything up to (not including) the byte sequence
    /// `seq`; `None` if it never occurs. `seq` is not consumed.
    pub(crate) fn take_until_seq(&mut self, seq: &[u8]) -> Option<&'a str> {
        let hay = &self.bytes[self.pos..];
        let rel = find_subsequence(hay, seq)?;
        let start = self.pos;
        self.advance(rel);
        Some(&self.input[start..start + rel])
    }

    /// Consume an XML name (possibly empty if the next byte cannot start one).
    pub(crate) fn take_name(&mut self) -> &'a str {
        let start = self.pos;
        if let Some(b) = self.peek() {
            if is_name_start(b) {
                self.advance(1);
                while let Some(b) = self.peek() {
                    if is_name_char(b) {
                        self.advance(1);
                    } else {
                        break;
                    }
                }
            }
        }
        &self.input[start..self.pos]
    }

    /// Build a position-annotated error at the current location: 1-based
    /// line, and 1-based column counted in bytes.
    pub(crate) fn error(&self, kind: ParseErrorKind) -> ParseError {
        let before = &self.bytes[..self.pos];
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        let line_start = before.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        ParseError::new(kind, line as u32, (self.pos - line_start + 1) as u32, self.pos)
    }
}

#[inline]
fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

#[inline]
fn is_name_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.') || b >= 0x80
}

fn find_subsequence(hay: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() {
        return Some(0);
    }
    hay.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_tracking() {
        let mut c = Cursor::new("ab\ncd");
        c.advance(4);
        let e = c.error(ParseErrorKind::NoRootElement);
        assert_eq!((e.line, e.column, e.offset), (2, 2, 4));
    }

    #[test]
    fn take_until_hits_stop() {
        let mut c = Cursor::new("hello<world");
        assert_eq!(c.take_until(b'<'), "hello");
        assert_eq!(c.peek(), Some(b'<'));
    }

    #[test]
    fn take_until_eof() {
        let mut c = Cursor::new("hello");
        assert_eq!(c.take_until(b'<'), "hello");
        assert!(c.at_eof());
    }

    #[test]
    fn take_until_seq_found_and_missing() {
        let mut c = Cursor::new("abc-->rest");
        assert_eq!(c.take_until_seq(b"-->"), Some("abc"));
        c.advance(3);
        let mut c2 = Cursor::new("no end");
        assert_eq!(c2.take_until_seq(b"-->"), None);
    }

    #[test]
    fn names_accept_unicode_and_punct() {
        let mut c = Cursor::new("ns:élem-1.x rest");
        assert_eq!(c.take_name(), "ns:élem-1.x");
    }

    #[test]
    fn name_rejects_leading_digit() {
        let mut c = Cursor::new("1abc");
        assert_eq!(c.take_name(), "");
    }

    #[test]
    fn expect_reports_found_byte() {
        let mut c = Cursor::new("x");
        assert_eq!(c.expect_byte(b'y'), Err(b'x'));
        assert_eq!(c.expect_byte(b'x'), Ok(()));
        assert_eq!(c.expect_byte(b'z'), Err(0));
    }
}
