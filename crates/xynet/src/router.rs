//! Route dispatch for the reactor.
//!
//! Every route answers at once except `POST /ingest/{key}`, whose outcome
//! arrives later: the reactor registers a completion callback and keeps
//! multiplexing. [`route`] therefore returns [`Routed`]: either a finished
//! [`Response`] or an ingest submission for the reactor to drive. The
//! response bytes are pinned by the golden corpus in `tests/roundtrip.rs`.

use std::sync::atomic::Ordering;

use xyserve::{Completed, DeadLetter, IngestOutcome};

use crate::http::Head;
use crate::server::Shared;

/// A fully materialised response, built by the router and written by the
/// connection loop.
pub(crate) struct Response {
    pub(crate) code: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: Vec<u8>,
    pub(crate) extra: Vec<(&'static str, String)>,
    /// Close the connection after writing (overrides keep-alive).
    pub(crate) close: bool,
}

impl Response {
    pub(crate) fn json(code: u16, body: String) -> Response {
        Response {
            code,
            content_type: "application/json",
            body: body.into_bytes(),
            extra: Vec::new(),
            close: false,
        }
    }

    pub(crate) fn error(code: u16, message: &str) -> Response {
        Response::json(code, format!("{{\"error\":\"{}\"}}", json_escape(message)))
    }
}

/// The router's verdict on one request.
pub(crate) enum Routed {
    /// The response is ready to write.
    Done(Response),
    /// `POST /ingest/{key}` with a valid UTF-8 body: submit `xml` to the
    /// pipeline and answer with [`outcome_response`] when it resolves.
    Ingest {
        /// The document key from the request path.
        key: String,
        /// The snapshot body.
        xml: String,
    },
}

/// Dispatch one request. Route metrics are counted here; status metrics are
/// counted by the caller once the response (and any forced `close`) is
/// final.
pub(crate) fn route(shared: &Shared, head: &Head, body: Vec<u8>) -> Routed {
    let path = head.route_path().to_string();
    let segments: Vec<&str> = path.strip_prefix('/').unwrap_or(&path).split('/').collect();
    let method = head.method.as_str();

    let done = match (method, segments.as_slice()) {
        ("POST", ["ingest", key]) if !key.is_empty() => {
            shared.http.observe_route("ingest");
            let Ok(xml) = String::from_utf8(body) else {
                return Routed::Done(Response::error(400, "request body must be UTF-8 XML"));
            };
            return Routed::Ingest { key: (*key).to_string(), xml };
        }
        (_, ["ingest", key]) if !key.is_empty() => {
            shared.http.observe_route("ingest");
            method_not_allowed("POST")
        }
        ("GET", ["metrics"]) => {
            shared.http.observe_route("metrics");
            let mut text = shared.ingest.metrics().render();
            shared.http.render_into(&mut text);
            Response {
                code: 200,
                content_type: "text/plain; version=0.0.4",
                body: text.into_bytes(),
                extra: Vec::new(),
                close: false,
            }
        }
        (_, ["metrics"]) => method_not_allowed_on(shared, "metrics"),
        ("GET", ["healthz"]) => {
            shared.http.observe_route("healthz");
            if shared.draining.load(Ordering::SeqCst) {
                Response::json(503, "{\"status\":\"draining\"}".to_string())
            } else {
                Response::json(200, "{\"status\":\"ok\"}".to_string())
            }
        }
        (_, ["healthz"]) => method_not_allowed_on(shared, "healthz"),
        ("GET", ["doc", key]) if !key.is_empty() => {
            shared.http.observe_route("doc");
            handle_doc(shared, key, None)
        }
        ("GET", ["doc", key, version]) if !key.is_empty() => {
            shared.http.observe_route("doc");
            match version.parse::<usize>() {
                Ok(v) => handle_doc(shared, key, Some(v)),
                Err(_) => Response::error(400, "version must be a non-negative integer"),
            }
        }
        (_, ["doc", ..]) => method_not_allowed_on(shared, "doc"),
        ("POST", ["admin", "shutdown"]) => {
            shared.http.observe_route("admin");
            shared.begin_shutdown();
            let mut resp = Response::json(202, "{\"status\":\"draining\"}".to_string());
            resp.close = true;
            resp
        }
        (_, ["admin", "shutdown"]) => method_not_allowed_on(shared, "admin"),
        _ => {
            shared.http.observe_route("other");
            Response::error(404, "no such route")
        }
    };
    Routed::Done(done)
}

fn method_not_allowed(allow: &str) -> Response {
    let mut resp = Response::error(405, "method not allowed");
    resp.extra.push(("Allow", allow.to_string()));
    resp
}

fn method_not_allowed_on(shared: &Shared, route: &str) -> Response {
    shared.http.observe_route(route);
    method_not_allowed(if route == "admin" { "POST" } else { "GET" })
}

/// `GET /doc/{key}[/{version}]`: reconstruct a stored version's XML.
fn handle_doc(shared: &Shared, key: &str, version: Option<usize>) -> Response {
    let repo = shared.ingest.repository_for(key);
    let count = repo.version_count(key);
    if count == 0 {
        return Response::error(404, "no such document");
    }
    let v = version.unwrap_or(count - 1);
    match repo.version_xml(key, v) {
        Ok(xml) => Response {
            code: 200,
            content_type: "application/xml",
            body: xml.into_bytes(),
            extra: vec![("X-Version", v.to_string())],
            close: false,
        },
        Err(_) => Response::error(404, "no such version"),
    }
}

/// The response for a resolved ingest submission (shared verbatim by both
/// fronts).
pub(crate) fn outcome_response(outcome: &IngestOutcome) -> Response {
    match outcome {
        Ok(done) => Response::json(200, completed_json(done)),
        Err(letter) => Response::json(422, dead_letter_json(letter)),
    }
}

/// The backpressure `503` for a full ingest queue, keep-alive preserved.
pub(crate) fn queue_full_response(shared: &Shared) -> Response {
    let mut resp = Response::error(503, "ingest queue is full, retry shortly");
    resp.extra.push(("Retry-After", shared.config.retry_after_secs.to_string()));
    resp
}

/// The `503` answered once a drain has begun; always closes.
pub(crate) fn draining_response() -> Response {
    let mut resp = Response::error(503, "server is draining");
    resp.close = true;
    resp
}

fn completed_json(done: &Completed) -> String {
    format!(
        "{{\"key\":\"{}\",\"seq\":{},\"version\":{},\"ops\":{},\"alerts\":{},\"durable\":{}}}",
        json_escape(&done.key),
        done.seq,
        done.version,
        done.ops,
        done.alerts,
        done.durable,
    )
}

fn dead_letter_json(letter: &DeadLetter) -> String {
    format!(
        "{{\"error\":\"{}\",\"key\":\"{}\",\"seq\":{}}}",
        json_escape(&letter.error),
        json_escape(&letter.key),
        letter.seq,
    )
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}
