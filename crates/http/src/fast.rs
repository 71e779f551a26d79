//! The buffer-reusing reader and the renderers of the serving hot path.
//!
//! This is not a second parser: [`read_request_fast`] and
//! [`Scratch::read_response`] run the [`crate::parse`] grammar — the
//! same code, limits and errors as `read_request` / `read_response` —
//! over a [`Scratch`] that outlives one message. Headers stay spans into
//! the receive buffer, consumed messages are compacted lazily at the
//! next read, and read-ahead is kept, so a keep-alive connection reuses
//! one buffer for its whole lifetime and pipelined requests are not
//! dropped. The HTTP client reads every response into one, too.
//!
//! The render helpers at the bottom produce output byte-identical to
//! [`crate::parse::write_response`] / [`crate::parse::write_request`]
//! for the message shapes the serving plane emits, which is what lets
//! fw-serve cache fully rendered wire images and keep its
//! response-stream digest unchanged.

use crate::parse::{
    fill, frame, owned_request, owned_response, push_uint, status_line, Body, Cursor, HttpError,
    Limits, Span, Spans, StatusLine, Stop,
};
use crate::types::{reason_phrase, Method, Request, Response, ResponseView};
use fw_net::Connection;

/// Per-connection reusable parse/render state. One `Scratch` serves one
/// connection at a time; a pooled serving worker owns one and reuses it
/// across every connection it accepts.
pub struct Scratch {
    /// Rolling receive buffer. `buf[..used]` is the previous message,
    /// dropped at the next read; spans index into `buf`.
    buf: Vec<u8>,
    used: usize,
    /// Header and chunk spans of the current message.
    spans: Spans,
    /// Decoded chunked body (other bodies stay in `buf`).
    chunked_body: Vec<u8>,
    /// Staging area for transport reads.
    staging: Box<[u8; 8 * 1024]>,
    /// Render buffer for outgoing messages.
    pub out: Vec<u8>,
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch::new()
    }
}

impl Scratch {
    pub fn new() -> Scratch {
        Scratch {
            buf: Vec::with_capacity(8 * 1024),
            used: 0,
            spans: Spans::default(),
            chunked_body: Vec::new(),
            staging: Box::new([0u8; 8 * 1024]),
            out: Vec::with_capacity(8 * 1024),
        }
    }

    /// Forget any buffered or half-parsed state (fresh connection).
    pub fn reset(&mut self) {
        self.discard_input();
        self.chunked_body.clear();
        self.out.clear();
    }

    /// Drop everything received, read-ahead included, so the next read
    /// starts from an empty buffer, as a fresh one would.
    pub(crate) fn discard_input(&mut self) {
        self.buf.clear();
        self.used = 0;
    }

    /// Frame the next message with `parse`, reading from `conn` as it
    /// needs; `parse` also learns whether the stream ended. The previous
    /// message is dropped first; read-ahead stays.
    fn read<T>(
        &mut self,
        conn: &mut dyn Connection,
        parse: impl Fn(&mut Cursor<'_, '_>, bool) -> Result<T, Stop>,
    ) -> Result<T, HttpError> {
        self.buf.drain(..std::mem::take(&mut self.used));
        let Scratch {
            buf,
            spans,
            staging,
            ..
        } = self;
        let (msg, used) = fill(conn, buf, &mut staging[..], |buf, eof| {
            frame(buf, spans, |cur| parse(cur, eof))
        })?;
        self.used = used;
        Ok(msg)
    }

    /// Decode a chunked body into `chunked_body`, so that every body is
    /// one slice.
    fn join_chunks(&mut self, body: Body) {
        if let Body::Chunked(_) = body {
            self.chunked_body.clear();
            self.spans
                .body_into(&self.buf, body, &mut self.chunked_body);
        }
    }

    fn body_bytes(&self, body: Body) -> &[u8] {
        match body {
            Body::Bytes(span) => span.bytes(&self.buf),
            Body::Chunked(_) => &self.chunked_body,
        }
    }

    /// The request target (path + query) of `req`.
    pub fn target(&self, req: &FastRequest) -> &str {
        req.target.str(&self.buf)
    }

    /// The headers of `req`, trimmed, in wire order.
    pub fn headers<'s>(&'s self, _req: &FastRequest) -> impl Iterator<Item = (&'s str, &'s str)> {
        self.spans
            .headers
            .iter()
            .map(|&(name, value)| (name.str(&self.buf), value.str(&self.buf)))
    }

    /// First value of the named header (case-insensitive), like
    /// `HeaderMap::get`.
    pub fn header<'s>(&'s self, _req: &FastRequest, name: &str) -> Option<&'s str> {
        self.spans.get(&self.buf, name)
    }

    /// The request body of `req`.
    pub fn body(&self, req: &FastRequest) -> &[u8] {
        self.body_bytes(req.body)
    }

    /// `req` as an owned [`Request`], exactly as
    /// [`crate::parse::read_request`] would have returned it.
    pub fn request(&self, req: &FastRequest) -> Request {
        let body = self.body(req).to_vec();
        owned_request(&self.buf, &self.spans, req.method, req.target, body)
    }

    /// Read one response: [`crate::parse::read_response`] into this
    /// scratch. `head_request` suppresses the body of a HEAD response.
    pub fn read_response(
        &mut self,
        conn: &mut dyn Connection,
        limits: &Limits,
        head_request: bool,
    ) -> Result<FastResponse, HttpError> {
        let msg = self.read(conn, |cur, eof| cur.response(limits, head_request, eof))?;
        self.join_chunks(msg.body);
        Ok(FastResponse {
            status: msg.line.status,
            body_len: self.body_bytes(msg.body).len(),
            line: msg.line,
            body: msg.body,
        })
    }

    /// `resp`, borrowed from this scratch.
    pub fn view(&self, resp: &FastResponse) -> ResponseView<'_> {
        ResponseView::wire(
            resp.status,
            &self.buf,
            &self.spans,
            self.body_bytes(resp.body),
        )
    }

    /// `resp` as an owned [`Response`], exactly as
    /// [`crate::parse::read_response`] would have returned it.
    pub(crate) fn response(&self, resp: &FastResponse) -> Response {
        let body = self.body_bytes(resp.body).to_vec();
        owned_response(&self.buf, &self.spans, resp.line, body)
    }
}

/// A parsed request whose strings live in the [`Scratch`] it was read
/// into, valid until the next read. Resolved with the `Scratch`
/// accessors; holding only plain offsets keeps the borrow checker out of
/// the serve loop (the scratch can render the response while the
/// request is still alive).
#[derive(Debug, Clone, Copy)]
pub struct FastRequest {
    pub method: Method,
    target: Span,
    body: Body,
    /// `Connection: close` was requested.
    pub close: bool,
}

/// Read one request into `scratch`: [`crate::parse::read_request`]
/// without the allocations, and keeping read-ahead.
pub fn read_request_fast(
    conn: &mut dyn Connection,
    scratch: &mut Scratch,
    limits: &Limits,
) -> Result<FastRequest, HttpError> {
    let msg = scratch.read(conn, |cur, _eof| cur.request(limits))?;
    scratch.join_chunks(msg.body);
    fw_obs::counter_inc!("fw.http.parse.req");
    Ok(FastRequest {
        method: msg.line.method,
        target: msg.line.target,
        body: msg.body,
        close: msg.close,
    })
}

/// A response read by [`Scratch::read_response`]. Its header fields and
/// body stay in the scratch, valid until the next read; resolve them
/// with [`Scratch::view`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastResponse {
    pub status: u16,
    pub body_len: usize,
    line: StatusLine,
    body: Body,
}

/// Client-side fast path: [`crate::parse::read_response`] of a non-HEAD
/// request into `scratch`. The load harness digests response bytes at
/// the transport layer and only looks at the status.
pub fn read_response_fast(
    conn: &mut dyn Connection,
    scratch: &mut Scratch,
    limits: &Limits,
) -> Result<FastResponse, HttpError> {
    let resp = scratch.read_response(conn, limits, false)?;
    fw_obs::counter_inc!("fw.http.parse.resp");
    Ok(resp)
}

/// Render a full response wire image: byte-identical to
/// [`crate::parse::write_response`] of a `Response::with_body(status,
/// content_type, body)`. Returns the head length (the body is
/// `out[head_len..]`).
pub fn render_response(out: &mut Vec<u8>, status: u16, content_type: &str, body: &[u8]) -> usize {
    status_line(out, status, reason_phrase(status));
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    push_uint(out, body.len() as u64);
    out.extend_from_slice(b"\r\n\r\n");
    let head_len = out.len();
    out.extend_from_slice(body);
    head_len
}

/// Render a bare-status response (no content-type header), matching
/// [`crate::parse::write_response`] of `Response::new(status)`.
pub fn render_status(out: &mut Vec<u8>, status: u16) {
    status_line(out, status, reason_phrase(status));
    out.extend_from_slice(b"\r\nContent-Length: 0\r\n\r\n");
}

/// Render a body-less GET, matching [`crate::parse::write_request`] of
/// `Request::get(target, host)`.
pub fn render_get(out: &mut Vec<u8>, target: &str, host: &str) {
    out.extend_from_slice(b"GET ");
    out.extend_from_slice(target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: ");
    out.extend_from_slice(host.as_bytes());
    out.extend_from_slice(b"\r\n\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{write_request, write_response};
    use crate::types::{Request, Response};
    use fw_net::pipe_pair;

    fn pair() -> (fw_net::PipeConn, fw_net::PipeConn) {
        pipe_pair(
            "10.0.0.1:50000".parse().unwrap(),
            "203.0.113.1:80".parse().unwrap(),
        )
    }

    #[test]
    fn fast_request_roundtrip_and_keepalive_reuse() {
        let (mut a, mut b) = pair();
        let mut scratch = Scratch::new();
        for i in 0..3 {
            let target = format!("/v1/verdict/fn-{i}.fcapp.run");
            write_request(&mut a, &Request::get(&target, "api.faaswild.sim")).unwrap();
            let req = read_request_fast(&mut b, &mut scratch, &Limits::default()).unwrap();
            assert_eq!(req.method, Method::Get);
            assert_eq!(scratch.target(&req), target);
            assert_eq!(scratch.header(&req, "host"), Some("api.faaswild.sim"));
            assert!(!req.close);
            assert!(scratch.body(&req).is_empty());
        }
    }

    #[test]
    fn fast_request_reads_content_length_body() {
        let (mut a, mut b) = pair();
        a.write_all(b"POST /ingest HTTP/1.1\r\nContent-Length: 7\r\n\r\npayload")
            .unwrap();
        let mut scratch = Scratch::new();
        let req = read_request_fast(&mut b, &mut scratch, &Limits::default()).unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(scratch.body(&req), b"payload");
    }

    #[test]
    fn fast_request_decodes_chunked_body() {
        let (mut a, mut b) = pair();
        a.write_all(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\nX-T: t\r\n\r\n",
        )
        .unwrap();
        let mut scratch = Scratch::new();
        let req = read_request_fast(&mut b, &mut scratch, &Limits::default()).unwrap();
        assert_eq!(scratch.body(&req), b"hello");
    }

    #[test]
    fn fast_request_connection_close_token() {
        let (mut a, mut b) = pair();
        a.write_all(b"GET / HTTP/1.1\r\nConnection: keep-alive, Close\r\n\r\n")
            .unwrap();
        let mut scratch = Scratch::new();
        let req = read_request_fast(&mut b, &mut scratch, &Limits::default()).unwrap();
        assert!(req.close);
    }

    #[test]
    fn pipelined_requests_are_not_dropped() {
        let (mut a, mut b) = pair();
        a.write_all(b"GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.1\r\n\r\n")
            .unwrap();
        a.shutdown_write();
        let mut scratch = Scratch::new();
        let r1 = read_request_fast(&mut b, &mut scratch, &Limits::default()).unwrap();
        assert_eq!(scratch.target(&r1), "/one");
        let r2 = read_request_fast(&mut b, &mut scratch, &Limits::default()).unwrap();
        assert_eq!(scratch.target(&r2), "/two");
        assert!(matches!(
            read_request_fast(&mut b, &mut scratch, &Limits::default()),
            Err(HttpError::Eof)
        ));
    }

    #[test]
    fn render_response_matches_scalar_writer() {
        let (mut a, mut b) = pair();
        write_response(&mut a, &Response::json(200, "{\"ok\":true}")).unwrap();
        a.shutdown_write();
        let mut expect = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            match b.read(&mut buf).unwrap() {
                0 => break,
                n => expect.extend_from_slice(&buf[..n]),
            }
        }
        let mut out = Vec::new();
        let head_len = render_response(&mut out, 200, "application/json", b"{\"ok\":true}");
        assert_eq!(out, expect);
        assert_eq!(&out[head_len..], b"{\"ok\":true}");
    }

    #[test]
    fn render_status_matches_scalar_writer() {
        let (mut a, mut b) = pair();
        write_response(&mut a, &Response::new(400)).unwrap();
        a.shutdown_write();
        let mut expect = Vec::new();
        let mut buf = [0u8; 256];
        loop {
            match b.read(&mut buf).unwrap() {
                0 => break,
                n => expect.extend_from_slice(&buf[..n]),
            }
        }
        let mut out = Vec::new();
        render_status(&mut out, 400);
        assert_eq!(out, expect);
    }

    #[test]
    fn render_get_matches_scalar_writer() {
        let (mut a, mut b) = pair();
        write_request(&mut a, &Request::get("/v1/status", "api.faaswild.sim")).unwrap();
        a.shutdown_write();
        let mut expect = Vec::new();
        let mut buf = [0u8; 256];
        loop {
            match b.read(&mut buf).unwrap() {
                0 => break,
                n => expect.extend_from_slice(&buf[..n]),
            }
        }
        let mut out = Vec::new();
        render_get(&mut out, "/v1/status", "api.faaswild.sim");
        assert_eq!(out, expect);
    }

    #[test]
    fn fast_response_parses_status_and_consumes_body() {
        let (mut a, mut b) = pair();
        write_response(&mut a, &Response::json(404, "{\"error\":\"nope\"}")).unwrap();
        write_response(&mut a, &Response::json(200, "{}")).unwrap();
        let mut scratch = Scratch::new();
        let r1 = read_response_fast(&mut b, &mut scratch, &Limits::default()).unwrap();
        assert_eq!(r1.status, 404);
        assert_eq!(r1.body_len, 16);
        let r2 = read_response_fast(&mut b, &mut scratch, &Limits::default()).unwrap();
        assert_eq!(r2.status, 200);
    }

    #[test]
    fn fast_request_malformed_inputs_match_scalar_errors() {
        let cases: &[(&[u8], &str)] = &[
            (b"NOTAMETHOD / HTTP/1.1\r\n\r\n", "bad method"),
            (b"GET noslash HTTP/1.1\r\n\r\n", "bad target"),
            (b"GET / HTTP/2.9\r\n\r\n", "unsupported version"),
            (
                b"GET / HTTP/1.1\r\nBad Header Name: x\r\n\r\n",
                "bad header name",
            ),
            (
                b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
                "header missing colon",
            ),
        ];
        for (case, msg) in cases {
            let (mut a, mut b) = pair();
            a.write_all(case).unwrap();
            a.shutdown_write();
            let mut scratch = Scratch::new();
            let err = read_request_fast(&mut b, &mut scratch, &Limits::default()).unwrap_err();
            match err {
                HttpError::Parse(m) => assert_eq!(m, *msg, "{case:?}"),
                other => panic!("{case:?} → {other:?}"),
            }
        }
    }
}
