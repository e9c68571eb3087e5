//! A minimal, dependency-free HTTP/1.1 request parser and response writer.
//!
//! Only what the ingest front needs: request line + headers +
//! `Content-Length` bodies, keep-alive, strict size limits that map to
//! typed errors (`400`/`411`/`413`/`431`/`501`). Buffering, pipelining and
//! incremental arrival live in the reactor's per-connection state machine
//! ([`crate::machine`]), which calls the pure functions here.

use std::io::{self, Write};

/// Size limits enforced while reading a request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers (terminator included).
    pub max_head_bytes: usize,
    /// Maximum declared `Content-Length`.
    pub max_body_bytes: usize,
}

/// Why a request could not be read, each mapping to one response status.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request → `400`.
    BadRequest(String),
    /// Body-bearing request without a `Content-Length` → `411`.
    LengthRequired,
    /// Declared `Content-Length` exceeds the limit → `413`.
    PayloadTooLarge(usize),
    /// Request head exceeds the limit → `431`.
    HeadersTooLarge,
    /// Syntactically valid but unsupported (e.g. chunked encoding) → `501`.
    Unsupported(&'static str),
}

impl HttpError {
    /// The response status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::LengthRequired => 411,
            HttpError::PayloadTooLarge(_) => 413,
            HttpError::HeadersTooLarge => 431,
            HttpError::Unsupported(_) => 501,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(why) => write!(f, "malformed request: {why}"),
            HttpError::LengthRequired => write!(f, "Content-Length is required"),
            HttpError::PayloadTooLarge(n) => write!(f, "request body of {n} bytes is too large"),
            HttpError::HeadersTooLarge => write!(f, "request head is too large"),
            HttpError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A parsed request head: everything before the body.
#[derive(Debug)]
pub struct Head {
    /// Request method, as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent, including any query string.
    pub path: String,
    /// Headers in arrival order; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default; HTTP/1.0 opts in via `Connection: keep-alive`).
    pub keep_alive: bool,
    /// Whether the client sent `Expect: 100-continue` and is waiting for
    /// an interim response before transmitting the body.
    pub expects_continue: bool,
    content_length: Option<usize>,
}

impl Head {
    /// First value of `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The parsed `Content-Length`, when one was sent.
    pub fn content_length(&self) -> Option<usize> {
        self.content_length
    }

    /// The request path with any query string stripped.
    pub fn route_path(&self) -> &str {
        self.path.split('?').next().unwrap_or("")
    }
}

/// Validate the body-related headers of `head` and return how many body
/// bytes to read: enforces `411` for body-bearing methods without a length
/// and `413` against the configured limit.
pub fn body_length(head: &Head, limits: &Limits) -> Result<usize, HttpError> {
    match head.content_length() {
        Some(n) if n > limits.max_body_bytes => Err(HttpError::PayloadTooLarge(n)),
        Some(n) => Ok(n),
        None if matches!(head.method.as_str(), "POST" | "PUT" | "PATCH") => {
            Err(HttpError::LengthRequired)
        }
        None => Ok(0),
    }
}

/// Byte offset one past the `\r\n\r\n` head terminator, if present.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Parse a complete request head (everything up to and including the blank
/// line).
pub(crate) fn parse_head(bytes: &[u8]) -> Result<Head, HttpError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".to_string()))?;
    let mut lines = text.split("\r\n");
    let request_line =
        lines.next().ok_or_else(|| HttpError::BadRequest("empty request".to_string()))?;

    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest(format!("bad method {method:?}")));
    }
    if !path.starts_with('/') {
        return Err(HttpError::BadRequest(format!("bad request target {path:?}")));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::Unsupported("HTTP version")),
    };

    let mut headers = Vec::new();
    let mut content_length = None;
    for line in lines {
        if line.is_empty() {
            continue; // the blank line terminating the head
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("bad header line {line:?}")));
        };
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(HttpError::BadRequest(format!("bad header name {name:?}")));
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            let n: usize = value
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad Content-Length {value:?}")))?;
            if content_length.replace(n).is_some_and(|prev| prev != n) {
                return Err(HttpError::BadRequest("conflicting Content-Length".to_string()));
            }
        }
        if name == "transfer-encoding" && !value.eq_ignore_ascii_case("identity") {
            return Err(HttpError::Unsupported("transfer encoding"));
        }
        headers.push((name, value));
    }

    let head = Head {
        method: method.to_string(),
        path: path.to_string(),
        keep_alive: false,
        expects_continue: false,
        content_length,
        headers,
    };
    let connection = head.header("connection").map(str::to_ascii_lowercase);
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11,
    };
    let expects_continue = head
        .header("expect")
        .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"));
    Ok(Head { keep_alive, expects_continue, ..head })
}

/// Canonical reason phrase for the statuses this server emits.
pub fn status_reason(code: u16) -> &'static str {
    match code {
        100 => "Continue",
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one complete response. `extra` headers come after `Content-Type`
/// and `Content-Length`; `Connection: close` is added when `keep_alive` is
/// false.
pub fn write_response(
    w: &mut impl Write,
    code: u16,
    content_type: &str,
    body: &[u8],
    extra: &[(&str, String)],
    keep_alive: bool,
) -> io::Result<()> {
    let mut out = Vec::with_capacity(128 + body.len());
    write!(
        out,
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        status_reason(code),
        body.len(),
    )?;
    for (name, value) in extra {
        write!(out, "{name}: {value}\r\n")?;
    }
    if !keep_alive {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    w.write_all(&out)
}

/// Write the `100 Continue` interim response.
pub fn write_continue(w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: Limits = Limits { max_head_bytes: 1024, max_body_bytes: 64 };

    fn head(raw: &str) -> Result<Head, HttpError> {
        parse_head(raw.as_bytes())
    }

    #[test]
    fn malformed_heads_are_bad_requests() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n",
            "GET /x HTTP/1.1\r\nBad Name: v\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
        ] {
            let err = head(raw).unwrap_err();
            assert_eq!(err.status(), 400, "{raw:?} -> {err}");
        }
    }

    #[test]
    fn body_length_enforces_411_and_413() {
        let h = head("POST /x HTTP/1.1\r\nContent-Length: 65\r\n\r\n").unwrap();
        assert_eq!(body_length(&h, &LIMITS).unwrap_err().status(), 413);
        let h = head("POST /x HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(body_length(&h, &LIMITS).unwrap_err().status(), 411);
        // ...but GET without a length is a normal zero-body request.
        let h = head("GET /x HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(body_length(&h, &LIMITS).unwrap(), 0);
    }

    #[test]
    fn keep_alive_defaults_follow_the_http_version() {
        assert!(head("GET / HTTP/1.1\r\n\r\n").unwrap().keep_alive);
        assert!(!head("GET / HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        let h = head("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(h.keep_alive, "HTTP/1.0 opts in via the Connection header");
        let h = head("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!h.keep_alive, "Connection: close must end keep-alive");
    }

    #[test]
    fn unsupported_features_are_501() {
        assert_eq!(head("GET / HTTP/2.0\r\n\r\n").unwrap_err().status(), 501);
        let raw = "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert_eq!(head(raw).unwrap_err().status(), 501);
    }

    #[test]
    fn expect_continue_and_query_strings_are_recognised() {
        let raw =
            "POST /ingest/k?debug=1 HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n";
        let h = head(raw).unwrap();
        assert!(h.expects_continue);
        assert_eq!(h.route_path(), "/ingest/k");
        assert_eq!(h.header("host"), Some("x"));
        assert_eq!(body_length(&h, &LIMITS).unwrap(), 2);
    }

    #[test]
    fn responses_have_the_expected_shape() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            503,
            "application/json",
            b"{}",
            &[("Retry-After", "1".to_string())],
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
