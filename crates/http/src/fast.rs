//! Allocation-free HTTP/1.1 parsing for the serving hot path.
//!
//! [`read_request_fast`] is byte-for-byte equivalent to
//! [`crate::parse::read_request`] (the property tests in
//! `tests/proptest_http.rs` pin the equivalence, including error
//! variants) but parses in place over a reusable per-connection
//! [`Scratch`] buffer:
//!
//! - the head terminator is found with the SWAR `memchr`-anchored
//!   scanner from `fw-types::memmem`, scanning each byte once even when
//!   the head arrives across several reads (the scalar parser re-scans
//!   its whole buffer per fill);
//! - the request line and headers are recorded as *spans* into the
//!   receive buffer instead of `String`s — the only per-request heap
//!   traffic is amortized growth of buffers that live as long as the
//!   connection;
//! - consumed messages are compacted lazily at the next read, so
//!   keep-alive connections reuse one buffer for their whole lifetime
//!   (and, unlike the blocking `read_request`, which drops what it read
//!   past one message, read-ahead is carried between messages:
//!   pipelined requests are not dropped).
//!
//! The render helpers at the bottom produce output byte-identical to
//! [`crate::parse::write_response`] / [`crate::parse::write_request`]
//! for the message shapes the serving plane emits, which is what lets
//! fw-serve cache fully rendered wire images and keep its
//! response-stream digest unchanged.

use crate::parse::{HttpError, Limits};
use crate::types::{reason_phrase, Method};
use fw_net::Connection;
use fw_types::memmem::find_subsequence;

/// Per-connection reusable parse/render state. One `Scratch` serves one
/// connection at a time; a pooled serving worker owns one and reuses it
/// across every connection it accepts.
pub struct Scratch {
    /// Rolling receive buffer. `buf[..start]` is the previous message,
    /// consumed lazily at the next read; spans index into `buf`.
    buf: Vec<u8>,
    /// Bytes of the previous message to drop at the next read call.
    start: usize,
    /// Absolute offset up to which the head-terminator scan has
    /// advanced (so each byte is scanned once across fills).
    scanned: usize,
    /// Header spans of the current message: (name, value) ranges.
    hdrs: Vec<(u32, u32, u32, u32)>,
    /// Decoded chunked body (content-length bodies stay in `buf`).
    chunked_body: Vec<u8>,
    /// Staging area for transport reads.
    chunk: Box<[u8; 8 * 1024]>,
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
            start: 0,
            scanned: 0,
            hdrs: Vec::with_capacity(16),
            chunked_body: Vec::new(),
            chunk: Box::new([0u8; 8 * 1024]),
            out: Vec::with_capacity(8 * 1024),
        }
    }

    /// Forget any buffered or half-parsed state (fresh connection).
    pub fn reset(&mut self) {
        self.buf.clear();
        self.start = 0;
        self.scanned = 0;
        self.hdrs.clear();
        self.chunked_body.clear();
        self.out.clear();
    }

    /// Drop the previous message's bytes and restart span bookkeeping.
    fn begin_message(&mut self) {
        if self.start > 0 {
            if self.start == self.buf.len() {
                self.buf.clear();
            } else {
                // Pipelined leftover: slide it to the front.
                self.buf.drain(..self.start);
            }
            self.start = 0;
        }
        self.scanned = 0;
        self.hdrs.clear();
        self.chunked_body.clear();
    }

    /// Pull more bytes from the transport. `Ok(false)` on EOF.
    fn fill(&mut self, conn: &mut dyn Connection) -> Result<bool, HttpError> {
        let n = conn.read(&mut self.chunk[..])?;
        if n == 0 {
            return Ok(false);
        }
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(true)
    }

    /// Resolve a span against the receive buffer.
    fn span_str(&self, lo: u32, hi: u32) -> &str {
        std::str::from_utf8(&self.buf[lo as usize..hi as usize]).unwrap_or("")
    }

    /// The request target (path + query) of `req`.
    pub fn target(&self, req: &FastRequest) -> &str {
        self.span_str(req.target.0, req.target.1)
    }

    /// The headers of `req`, trimmed, in wire order.
    pub fn headers<'s>(&'s self, req: &FastRequest) -> impl Iterator<Item = (&'s str, &'s str)> {
        self.hdrs[..req.hdr_count as usize]
            .iter()
            .map(|&(nl, nh, vl, vh)| (self.span_str(nl, nh), self.span_str(vl, vh)))
    }

    /// First value of the named header (case-insensitive), like
    /// `HeaderMap::get`.
    pub fn header<'s>(&'s self, req: &FastRequest, name: &str) -> Option<&'s str> {
        self.headers(req)
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// The request body of `req`.
    pub fn body(&self, req: &FastRequest) -> &[u8] {
        if req.body_chunked {
            &self.chunked_body
        } else {
            &self.buf[req.body.0 as usize..req.body.1 as usize]
        }
    }
}

/// A parsed request whose strings live in the [`Scratch`] it was read
/// into. Resolved with the `Scratch` accessors; holding only plain
/// offsets keeps the borrow checker out of the serve loop (the scratch
/// can render the response while the request is still alive).
#[derive(Debug, Clone, Copy)]
pub struct FastRequest {
    pub method: Method,
    target: (u32, u32),
    hdr_count: u32,
    body: (u32, u32),
    body_chunked: bool,
    /// `Connection: close` was requested.
    pub close: bool,
}

/// Span of subslice `s` inside the buffer starting at `base`.
fn span(base: *const u8, s: &str) -> (u32, u32) {
    let off = s.as_ptr() as usize - base as usize;
    (off as u32, (off + s.len()) as u32)
}

/// Read one request in place. Equivalent to
/// [`crate::parse::read_request`], including which [`HttpError`]
/// variant and message every malformed input produces.
pub fn read_request_fast(
    conn: &mut dyn Connection,
    scratch: &mut Scratch,
    limits: &Limits,
) -> Result<FastRequest, HttpError> {
    scratch.begin_message();

    // --- Head: incremental SWAR scan for the terminator. -------------
    let head_end = loop {
        // Re-scan a 3-byte overlap so a terminator split across fills
        // is still found, then remember how far we got.
        let from = scratch.scanned.saturating_sub(3);
        if let Some(rel) = find_subsequence(&scratch.buf[from..], b"\r\n\r\n") {
            let pos = from + rel;
            if pos + 4 > limits.max_head {
                return Err(HttpError::TooLarge("head"));
            }
            break pos + 4;
        }
        scratch.scanned = scratch.buf.len();
        if scratch.buf.len() > limits.max_head {
            return Err(HttpError::TooLarge("head"));
        }
        if !scratch.fill(conn)? {
            if scratch.buf.is_empty() {
                return Err(HttpError::Eof);
            }
            return Err(HttpError::Parse("eof inside head"));
        }
    };

    // --- Request line + headers: the scalar grammar over spans. ------
    // The whole head must be UTF-8, exactly like the scalar parser;
    // line splitting matches `str::lines` (splits on '\n', strips one
    // trailing '\r', so LF-only endings are tolerated inside the head).
    let base = scratch.buf.as_ptr();
    let head_str = std::str::from_utf8(&scratch.buf[..head_end])
        .map_err(|_| HttpError::Parse("non-utf8 head"))?;
    let mut lines = head_str.lines();
    let request_line = lines.next().ok_or(HttpError::Parse("empty head"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or(HttpError::Parse("bad method"))?;
    let target = parts
        .next()
        .filter(|t| t.starts_with('/') || *t == "*")
        .ok_or(HttpError::Parse("bad target"))?;
    let target = span(base, target);
    let version = parts.next().ok_or(HttpError::Parse("missing version"))?;
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Parse("unsupported version"));
    }

    let mut hdr_spans: Vec<(u32, u32, u32, u32)> = std::mem::take(&mut scratch.hdrs);
    hdr_spans.clear();
    let mut content_length: Option<&str> = None;
    let mut chunked = false;
    let mut close = false;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = match line.split_once(':') {
            Some(nv) => nv,
            None => {
                scratch.hdrs = hdr_spans;
                return Err(HttpError::Parse("header missing colon"));
            }
        };
        if name.is_empty() || name.contains(' ') {
            scratch.hdrs = hdr_spans;
            return Err(HttpError::Parse("bad header name"));
        }
        let (name, value) = (name.trim(), value.trim());
        let (nl, nh) = span(base, name);
        let (vl, vh) = span(base, value);
        hdr_spans.push((nl, nh, vl, vh));
        // First-match / any-token semantics of `HeaderMap::get` and
        // `HeaderMap::contains_token`, evaluated inline.
        if content_length.is_none() && name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value);
        }
        if !chunked && name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case("chunked"));
        }
        if !close && name.eq_ignore_ascii_case("connection") {
            close = value
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case("close"));
        }
    }
    let hdr_count = hdr_spans.len() as u32;
    // `content_length` borrowed from `buf`; turn it into an owned parse
    // result before any fills can grow (and move) the buffer.
    let content_length = match content_length {
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) => Some(n),
            Err(_) if chunked => None, // scalar never reaches body_length when chunked
            Err(_) => {
                scratch.hdrs = hdr_spans;
                return Err(HttpError::Parse("bad content-length"));
            }
        },
        None => None,
    };
    scratch.hdrs = hdr_spans;

    // --- Body. --------------------------------------------------------
    let mut req = FastRequest {
        method,
        target,
        hdr_count,
        body: (head_end as u32, head_end as u32),
        body_chunked: false,
        close,
    };
    if chunked {
        let consumed = read_chunked_into(conn, scratch, head_end, limits)?;
        req.body_chunked = true;
        scratch.start = consumed;
    } else if let Some(n) = content_length {
        if n > limits.max_body {
            return Err(HttpError::TooLarge("body"));
        }
        while scratch.buf.len() < head_end + n {
            if !scratch.fill(conn)? {
                return Err(HttpError::Parse("eof inside body"));
            }
        }
        req.body = (head_end as u32, (head_end + n) as u32);
        scratch.start = head_end + n;
    } else {
        scratch.start = head_end;
    }
    fw_obs::counter_inc!("fw.http.parse.req");
    Ok(req)
}

/// Decode a chunked body starting at `cursor` into
/// `scratch.chunked_body`, mirroring the scalar parser's chunked
/// framing (including its line-length limits and error messages). Returns the
/// buffer offset one past the terminating CRLF.
fn read_chunked_into(
    conn: &mut dyn Connection,
    scratch: &mut Scratch,
    mut cursor: usize,
    limits: &Limits,
) -> Result<usize, HttpError> {
    loop {
        let line = read_line_at(conn, scratch, &mut cursor, 128)?;
        let size_str = {
            let s = scratch.span_str(line.0, line.1);
            s.split(';').next().unwrap_or("").trim()
        };
        let size =
            usize::from_str_radix(size_str, 16).map_err(|_| HttpError::Parse("bad chunk size"))?;
        if scratch.chunked_body.len() + size > limits.max_body {
            return Err(HttpError::TooLarge("chunked body"));
        }
        if size == 0 {
            // Trailer section: lines until the empty line.
            loop {
                let t = read_line_at(conn, scratch, &mut cursor, 1024)?;
                if t.0 == t.1 {
                    return Ok(cursor);
                }
            }
        }
        while scratch.buf.len() < cursor + size {
            if !scratch.fill(conn)? {
                return Err(HttpError::Parse("eof inside body"));
            }
        }
        // Split borrow: data lives in `buf`, accumulates in `chunked_body`.
        let Scratch {
            buf, chunked_body, ..
        } = scratch;
        chunked_body.extend_from_slice(&buf[cursor..cursor + size]);
        cursor += size;
        let crlf = read_line_at(conn, scratch, &mut cursor, 2)?;
        if crlf.0 != crlf.1 {
            return Err(HttpError::Parse("missing chunk crlf"));
        }
    }
}

/// Read one CRLF-terminated line starting at `*cursor`; returns the
/// line's span (terminator excluded) and advances the cursor past it.
fn read_line_at(
    conn: &mut dyn Connection,
    scratch: &mut Scratch,
    cursor: &mut usize,
    max: usize,
) -> Result<(u32, u32), HttpError> {
    let mut scanned = *cursor;
    loop {
        let from = scanned.saturating_sub(1).max(*cursor);
        if let Some(rel) = find_subsequence(&scratch.buf[from..], b"\r\n") {
            let pos = from + rel;
            std::str::from_utf8(&scratch.buf[*cursor..pos])
                .map_err(|_| HttpError::Parse("non-utf8 line"))?;
            let lo = *cursor as u32;
            *cursor = pos + 2;
            return Ok((lo, pos as u32));
        }
        scanned = scratch.buf.len();
        if scratch.buf.len() - *cursor > max + 2 {
            return Err(HttpError::TooLarge("line"));
        }
        if !scratch.fill(conn)? {
            return Err(HttpError::Parse("eof inside line"));
        }
    }
}

/// A response's framing essentials, parsed by [`read_response_fast`].
/// The body is consumed from the transport (keep-alive framing stays
/// intact) but not retained — the load harness digests response bytes
/// at the transport layer and only needs the status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastResponse {
    pub status: u16,
    pub body_len: usize,
}

/// Client-side fast path: parse one response head, consume the body.
/// Framing and validation mirror [`crate::parse::read_response`].
pub fn read_response_fast(
    conn: &mut dyn Connection,
    scratch: &mut Scratch,
    limits: &Limits,
) -> Result<FastResponse, HttpError> {
    scratch.begin_message();

    let head_end = loop {
        let from = scratch.scanned.saturating_sub(3);
        if let Some(rel) = find_subsequence(&scratch.buf[from..], b"\r\n\r\n") {
            let pos = from + rel;
            if pos + 4 > limits.max_head {
                return Err(HttpError::TooLarge("head"));
            }
            break pos + 4;
        }
        scratch.scanned = scratch.buf.len();
        if scratch.buf.len() > limits.max_head {
            return Err(HttpError::TooLarge("head"));
        }
        if !scratch.fill(conn)? {
            if scratch.buf.is_empty() {
                return Err(HttpError::Eof);
            }
            return Err(HttpError::Parse("eof inside head"));
        }
    };

    let head_str = std::str::from_utf8(&scratch.buf[..head_end])
        .map_err(|_| HttpError::Parse("non-utf8 head"))?;
    let mut lines = head_str.lines();
    let status_line = lines.next().ok_or(HttpError::Parse("empty head"))?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Parse("bad status version"));
    }
    let status: u16 = parts
        .next()
        .ok_or(HttpError::Parse("missing status code"))?
        .parse()
        .map_err(|_| HttpError::Parse("bad status code"))?;
    if !(100..600).contains(&status) {
        return Err(HttpError::Parse("status code out of range"));
    }
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Parse("header missing colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Parse("bad header name"));
        }
        let (name, value) = (name.trim(), value.trim());
        if !chunked && name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case("chunked"));
        }
        if content_length.is_none() && name.eq_ignore_ascii_case("content-length") {
            content_length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| HttpError::Parse("bad content-length"))?,
            );
        }
    }

    let body_len;
    if status == 204 || status == 304 {
        body_len = 0;
        scratch.start = head_end;
    } else if chunked {
        scratch.chunked_body.clear();
        let consumed = read_chunked_into(conn, scratch, head_end, limits)?;
        body_len = scratch.chunked_body.len();
        scratch.start = consumed;
    } else if let Some(n) = content_length {
        if n > limits.max_body {
            return Err(HttpError::TooLarge("body"));
        }
        while scratch.buf.len() < head_end + n {
            if !scratch.fill(conn)? {
                return Err(HttpError::Parse("eof inside body"));
            }
        }
        body_len = n;
        scratch.start = head_end + n;
    } else {
        // No framing: the body runs to EOF.
        loop {
            if scratch.buf.len() - head_end > limits.max_body {
                return Err(HttpError::TooLarge("body"));
            }
            if !scratch.fill(conn)? {
                break;
            }
        }
        body_len = scratch.buf.len() - head_end;
        scratch.start = scratch.buf.len();
    }
    fw_obs::counter_inc!("fw.http.parse.resp");
    Ok(FastResponse { status, body_len })
}

/// Append a decimal integer without going through `format!`.
fn push_uint(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Render a full response wire image: byte-identical to
/// [`crate::parse::write_response`] of a `Response::with_body(status,
/// content_type, body)`. Returns the head length (the body is
/// `out[head_len..]`).
pub fn render_response(out: &mut Vec<u8>, status: u16, content_type: &str, body: &[u8]) -> usize {
    out.extend_from_slice(b"HTTP/1.1 ");
    push_uint(out, u64::from(status));
    out.push(b' ');
    out.extend_from_slice(reason_phrase(status).as_bytes());
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
    out.extend_from_slice(b"HTTP/1.1 ");
    push_uint(out, u64::from(status));
    out.push(b' ');
    out.extend_from_slice(reason_phrase(status).as_bytes());
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
