//! A keep-alive HTTP/1.1 client, just large enough to drive `xydiff serve`.
//!
//! Responses are framed by `Content-Length` only — the server never chunks —
//! and bytes read past one response stay buffered for the next, so a
//! connection can carry tens of thousands of exchanges without reconnecting.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    /// `X-Version`, when the server sent it (document reads do).
    pub version: Option<usize>,
    pub body: Vec<u8>,
}

/// Incremental `Content-Length` framing over any byte stream. `buf` holds
/// bytes already read but not yet consumed; it survives across calls.
pub fn read_response<R: Read>(stream: &mut R, buf: &mut Vec<u8>) -> io::Result<Response> {
    let head_end = loop {
        if let Some(pos) = find(buf, b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > 64 * 1024 {
            return Err(bad("response head exceeds 64 KiB"));
        }
        fill(stream, buf)?;
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = None;
    let mut version = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| bad("bad Content-Length"))?,
            );
        } else if name.eq_ignore_ascii_case("x-version") {
            version = value.parse().ok();
        }
    }
    let length = length.ok_or_else(|| bad("response without Content-Length"))?;
    while buf.len() < head_end + length {
        fill(stream, buf)?;
    }
    let body = buf[head_end..head_end + length].to_vec();
    buf.drain(..head_end + length);
    Ok(Response {
        status,
        version,
        body,
    })
}

fn fill<R: Read>(stream: &mut R, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 16 * 1024];
    match stream.read(&mut chunk)? {
        0 => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        )),
        n => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(())
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// One keep-alive connection to the server under test.
pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A stuck server must fail the run, not hang it past the driver's cap.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
        })
    }

    /// One exchange. The returned duration runs from just before the first
    /// request byte is written until the whole response body has been read.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(Response, Duration)> {
        self.outbuf.clear();
        write!(
            self.outbuf,
            "{method} {path} HTTP/1.1\r\nHost: budget\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.outbuf.extend_from_slice(body);
        let start = Instant::now();
        self.stream.write_all(&self.outbuf)?;
        let response = read_response(&mut self.stream, &mut self.inbuf)?;
        Ok((response, start.elapsed()))
    }

    pub fn get(&mut self, path: &str) -> io::Result<(Response, Duration)> {
        self.request("GET", path, b"")
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<(Response, Duration)> {
        self.request("POST", path, body)
    }
}

/// The fields of an ingest ack the output checks need, pulled out of the
/// ack JSON without a JSON parser (the server emits a fixed field order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    pub version: usize,
    pub durable: bool,
}

pub fn parse_ack(body: &[u8]) -> Option<Ack> {
    let text = std::str::from_utf8(body).ok()?;
    let number = |field: &str| -> Option<usize> {
        let rest = text.split(&format!("\"{field}\":")).nth(1)?;
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    };
    Some(Ack {
        version: number("version")?,
        durable: text.contains("\"durable\":true"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out its bytes in fixed small slices, so framing
    /// has to cope with heads and bodies split across reads.
    struct Dribble<'a>(&'a [u8], usize);

    impl Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.1.min(self.0.len()).min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    const TWO: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/xml\r\ncontent-length: 5\r\nX-Version: 7\r\n\r\n<a/>\nHTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";

    #[test]
    fn frames_back_to_back_responses_by_content_length() {
        for step in [1, 3, 7, 4096] {
            let mut stream = Dribble(TWO, step);
            let mut buf = Vec::new();
            let first = read_response(&mut stream, &mut buf).unwrap();
            assert_eq!(first.status, 200);
            assert_eq!(first.version, Some(7));
            assert_eq!(first.body, b"<a/>\n");
            let second = read_response(&mut stream, &mut buf).unwrap();
            assert_eq!(
                second,
                Response {
                    status: 404,
                    version: None,
                    body: Vec::new()
                }
            );
            assert!(buf.is_empty(), "step {step} left bytes behind");
        }
    }

    #[test]
    fn body_containing_a_blank_line_is_not_a_frame_boundary() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\nab\r\n\r\ncd";
        let got = read_response(&mut Dribble(raw, 5), &mut Vec::new()).unwrap();
        assert_eq!(got.body, b"ab\r\n\r\ncd");
    }

    #[test]
    fn truncated_or_unframed_responses_are_errors() {
        let cut = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
        assert!(read_response(&mut Dribble(cut, 8), &mut Vec::new()).is_err());
        let unframed = b"HTTP/1.1 200 OK\r\n\r\n";
        assert!(read_response(&mut Dribble(unframed, 8), &mut Vec::new()).is_err());
    }

    #[test]
    fn ack_fields_are_extracted() {
        let body = br#"{"key":"k1","seq":4,"version":3,"ops":17,"alerts":0,"schema_warnings":0,"durable":true,"mode":"buld"}"#;
        assert_eq!(
            parse_ack(body),
            Some(Ack {
                version: 3,
                durable: true
            })
        );
        let volatile = br#"{"key":"k","seq":0,"version":0,"ops":0,"alerts":0,"schema_warnings":0,"durable":false,"mode":"buld"}"#;
        assert_eq!(parse_ack(volatile).map(|a| a.durable), Some(false));
        assert_eq!(parse_ack(b"{\"error\":\"x\"}"), None);
    }
}
