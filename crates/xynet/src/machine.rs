//! The per-connection HTTP state machine driven by the reactor.
//!
//! The reactor cannot block on a socket, so the parser is a *push* machine:
//! the event loop [`ConnMachine::feed`]s whatever bytes the socket had and
//! asks [`ConnMachine::next`] what to do. The machine owns the unconsumed
//! tail of the stream, so a request arriving one byte at a time parses
//! identically to one arriving in a single packet, and leftover bytes after
//! a body are retained for the next pipelined request. The parsing itself
//! is [`crate::http`]'s `find_head_end` / `parse_head` / `body_length`.

use crate::http::{body_length, find_head_end, parse_head, Head, HttpError, Limits};

/// A head whose declared body has not fully arrived yet.
struct PendingBody {
    head: Head,
    len: usize,
    /// A `100 Continue` interim response is still owed to the client.
    continue_due: bool,
}

/// What the reactor should do next for this connection.
pub(crate) enum Step {
    /// Nothing actionable buffered: wait for more bytes.
    NeedRead,
    /// Write the `100 Continue` interim response, then call `next` again.
    Continue100,
    /// One complete request is ready for routing.
    Request(Head, Vec<u8>),
    /// The peer finished cleanly (EOF between requests): flush and close.
    Close,
    /// Protocol error: send the mapped status (if possible) and close.
    Fail(HttpError),
}

/// Incremental request assembler over one connection's inbound bytes.
pub(crate) struct ConnMachine {
    limits: Limits,
    /// Bytes received but not yet consumed by a request.
    buf: Vec<u8>,
    pending: Option<PendingBody>,
    /// The peer half-closed its sending side.
    eof: bool,
    /// A `Fail` was emitted; the connection is beyond repair.
    failed: bool,
}

impl ConnMachine {
    pub(crate) fn new(limits: Limits) -> ConnMachine {
        ConnMachine { limits, buf: Vec::new(), pending: None, eof: false, failed: false }
    }

    /// Append bytes read from the transport.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Record that the peer will send no more bytes (read returned 0).
    pub(crate) fn note_eof(&mut self) {
        self.eof = true;
    }

    /// True between requests: no buffered bytes and no partial request.
    /// Idle connections are the ones a drain may close immediately.
    pub(crate) fn is_idle(&self) -> bool {
        self.buf.is_empty() && self.pending.is_none() && !self.failed
    }

    /// Advance as far as the buffered bytes allow.
    pub(crate) fn next(&mut self) -> Step {
        if self.failed {
            return Step::Close;
        }
        loop {
            if let Some(pending) = self.pending.as_mut() {
                if pending.continue_due {
                    pending.continue_due = false;
                    return Step::Continue100;
                }
                if self.buf.len() >= pending.len {
                    // INVARIANT: the `Some` was just matched; take() is the
                    // by-value move the borrow checker cannot see through.
                    let pending = self.pending.take().expect("pending body present");
                    let body: Vec<u8> = self.buf.drain(..pending.len).collect();
                    return Step::Request(pending.head, body);
                }
                if self.eof {
                    return self.fail(HttpError::BadRequest(
                        "connection closed mid-body".to_string(),
                    ));
                }
                return Step::NeedRead;
            }

            let Some(end) = find_head_end(&self.buf) else {
                if self.buf.len() > self.limits.max_head_bytes {
                    return self.fail(HttpError::HeadersTooLarge);
                }
                if self.eof {
                    if self.buf.is_empty() {
                        return Step::Close;
                    }
                    return self.fail(HttpError::BadRequest(
                        "connection closed mid-head".to_string(),
                    ));
                }
                return Step::NeedRead;
            };
            if end > self.limits.max_head_bytes {
                return self.fail(HttpError::HeadersTooLarge);
            }
            let head_bytes: Vec<u8> = self.buf.drain(..end).collect();
            let head = match parse_head(&head_bytes) {
                Ok(head) => head,
                Err(e) => return self.fail(e),
            };
            let len = match body_length(&head, &self.limits) {
                Ok(len) => len,
                Err(e) => return self.fail(e),
            };
            let continue_due = head.expects_continue && len > 0;
            self.pending = Some(PendingBody { head, len, continue_due });
        }
    }

    fn fail(&mut self, e: HttpError) -> Step {
        self.failed = true;
        Step::Fail(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: Limits = Limits { max_head_bytes: 1024, max_body_bytes: 64 };

    /// What [`drive`] saw: completed requests, failure status, clean close.
    type Driven = (Vec<(Head, Vec<u8>)>, Option<u16>, bool);

    /// Feed `raw` in `step`-byte chunks, collecting completed requests.
    fn drive(raw: &[u8], step: usize) -> Driven {
        let mut m = ConnMachine::new(LIMITS);
        let mut requests = Vec::new();
        let mut fail = None;
        let mut closed = false;
        for chunk in raw.chunks(step.max(1)) {
            m.feed(chunk);
            loop {
                match m.next() {
                    Step::NeedRead => break,
                    Step::Continue100 => continue,
                    Step::Request(h, b) => requests.push((h, b)),
                    Step::Close => {
                        closed = true;
                        break;
                    }
                    Step::Fail(e) => {
                        fail = Some(e.status());
                        break;
                    }
                }
            }
            if fail.is_some() || closed {
                return (requests, fail, closed);
            }
        }
        m.note_eof();
        loop {
            match m.next() {
                Step::NeedRead => break,
                Step::Continue100 => continue,
                Step::Request(h, b) => requests.push((h, b)),
                Step::Close => {
                    closed = true;
                    break;
                }
                Step::Fail(e) => {
                    fail = Some(e.status());
                    break;
                }
            }
        }
        (requests, fail, closed)
    }

    #[test]
    fn parses_identically_at_every_split_granularity() {
        let raw = b"POST /ingest/doc-1 HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\n<d>hello</d>";
        for step in 1..=raw.len() {
            let (reqs, fail, _) = drive(raw, step);
            assert_eq!(fail, None, "step {step}");
            assert_eq!(reqs.len(), 1, "step {step}");
            assert_eq!(reqs[0].0.method, "POST");
            assert_eq!(reqs[0].0.path, "/ingest/doc-1");
            assert_eq!(reqs[0].1, b"<d>hello</d>");
        }
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nPOST /ingest/k HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        for step in [1, 3, 7, raw.len()] {
            let (reqs, fail, closed) = drive(raw, step);
            assert_eq!(fail, None);
            assert!(closed, "clean EOF after the last request");
            let paths: Vec<&str> = reqs.iter().map(|(h, _)| h.path.as_str()).collect();
            assert_eq!(paths, ["/healthz", "/ingest/k", "/metrics"], "step {step}");
            assert_eq!(reqs[1].1, b"abc");
        }
    }

    #[test]
    fn failures_map_to_typed_statuses() {
        for (raw, want) in [
            (&b"GARBAGE\r\n\r\n"[..], 400),
            (&b"POST /x HTTP/1.1\r\n\r\n"[..], 411),
            (&b"POST /x HTTP/1.1\r\nContent-Length: 65\r\n\r\n"[..], 413),
            (&b"GET /x HTTP/2.0\r\n\r\n"[..], 501),
        ] {
            let (_, fail, _) = drive(raw, 5);
            assert_eq!(fail, Some(want), "{:?}", String::from_utf8_lossy(raw));
        }
        let huge = format!("GET /x HTTP/1.1\r\nCookie: {}\r\n\r\n", "c".repeat(2000));
        let (_, fail, _) = drive(huge.as_bytes(), 64);
        assert_eq!(fail, Some(431));
    }

    #[test]
    fn eof_mid_request_is_a_bad_request() {
        let (_, fail, _) = drive(b"GET /x HTTP/1.1\r\nHost:", 3);
        assert_eq!(fail, Some(400));
        let (_, fail, _) = drive(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 4);
        assert_eq!(fail, Some(400));
    }

    #[test]
    fn expect_continue_surfaces_the_interim_step() {
        let raw = b"POST /i/k HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n";
        let mut m = ConnMachine::new(LIMITS);
        m.feed(raw);
        assert!(matches!(m.next(), Step::Continue100));
        assert!(matches!(m.next(), Step::NeedRead), "body still outstanding");
        m.feed(b"hi");
        match m.next() {
            Step::Request(h, b) => {
                assert!(h.expects_continue);
                assert_eq!(b, b"hi");
            }
            _ => panic!("expected a completed request"),
        }
    }

    #[test]
    fn idleness_tracks_partial_requests() {
        let mut m = ConnMachine::new(LIMITS);
        assert!(m.is_idle());
        m.feed(b"GET /x");
        assert!(matches!(m.next(), Step::NeedRead));
        assert!(!m.is_idle(), "mid-head is not idle");
        m.feed(b" HTTP/1.1\r\n\r\n");
        assert!(matches!(m.next(), Step::Request(..)));
        assert!(m.is_idle(), "between requests is idle again");
    }
}
