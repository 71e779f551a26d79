//! HTTP/1.1 wire parsing and serialization.
//!
//! The crate's one HTTP/1.1 framing grammar lives here: a `Cursor`
//! walks buffered bytes and records where the start line, the header
//! fields and the body lie, as `Span`s into the buffer, deciding every
//! limit and parse error on the way. The owned readers turn the spans
//! into a [`Request`] or [`Response`] — [`parse_request`] for the
//! sans-IO [`crate::server::HttpSession`], and the blocking
//! [`read_request`] / [`read_response`] — while [`crate::fast`] resolves
//! them against a receive buffer it reuses across messages.
//!
//! Limits are explicit ([`Limits`]) and every malformed input gets a
//! typed [`HttpError`]; `tests/corpus` pins thousands of outcomes.

use crate::types::{HeaderMap, Method, Request, Response};
use fw_net::Connection;
use fw_types::memmem::find_subsequence;
use std::io;
use std::str::Lines;

/// Parser limits (defensive caps).
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request/status line plus headers.
    pub max_head: usize,
    /// Maximum body bytes (content-length, chunked total, or EOF-read).
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head: 16 * 1024,
            max_body: 4 * 1024 * 1024,
        }
    }
}

/// Protocol-level failure.
#[derive(Debug)]
pub enum HttpError {
    /// Transport failure (includes timeouts as `ErrorKind::TimedOut`).
    Io(io::Error),
    /// Malformed message.
    Parse(&'static str),
    /// A size limit was exceeded.
    TooLarge(&'static str),
    /// Clean EOF before any bytes of a message (keep-alive close).
    Eof,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "http io error: {e}"),
            HttpError::Parse(m) => write!(f, "http parse error: {m}"),
            HttpError::TooLarge(what) => write!(f, "http limit exceeded: {what}"),
            HttpError::Eof => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl HttpError {
    /// Was this a read timeout?
    pub fn is_timeout(&self) -> bool {
        matches!(self, HttpError::Io(e) if e.kind() == io::ErrorKind::TimedOut)
    }
}

/// Where a parse over buffered bytes stopped short.
pub(crate) enum Stop {
    /// More bytes needed. The message is the parse error if the stream
    /// ends here; `need` is a buffer length below which parsing again
    /// cannot make progress.
    Partial {
        at_eof: &'static str,
        need: usize,
    },
    Bad(HttpError),
}

impl From<HttpError> for Stop {
    fn from(e: HttpError) -> Stop {
        Stop::Bad(e)
    }
}

/// A message framed from the front of a byte buffer.
#[derive(Debug)]
pub enum Framed<T> {
    /// A whole message and the number of bytes it used.
    Done(T, usize),
    /// More bytes are needed. If the stream ends here, the outcome is
    /// [`HttpError::Eof`] when nothing was buffered, else
    /// `HttpError::Parse(at_eof)`. Parsing again before the buffer holds
    /// `need` bytes gives the same answer.
    Partial { at_eof: &'static str, need: usize },
}

impl<T> Framed<T> {
    fn map<U>(self, f: impl FnOnce(T) -> U) -> Framed<U> {
        match self {
            Framed::Done(msg, used) => Framed::Done(f(msg), used),
            Framed::Partial { at_eof, need } => Framed::Partial { at_eof, need },
        }
    }
}

/// A byte range `lo..hi` of the buffer a message was framed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span(usize, usize);

impl Span {
    fn at(pos: usize, len: usize) -> Span {
        Span(pos, pos + len)
    }

    pub(crate) fn bytes(self, buf: &[u8]) -> &[u8] {
        &buf[self.0..self.1]
    }

    /// The span as text. Every text span the grammar records lies in a
    /// UTF-8-checked head, so the fallback is never taken.
    pub(crate) fn str(self, buf: &[u8]) -> &str {
        std::str::from_utf8(self.bytes(buf)).unwrap_or("")
    }
}

/// Where a message body lies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Body {
    /// Contiguous bytes: a `Content-Length` or to-EOF body, empty when
    /// the message has none.
    Bytes(Span),
    /// A chunked body of this many decoded bytes, in [`Spans::chunks`].
    Chunked(usize),
}

/// The header fields and body chunks of the last framed message.
/// [`crate::fast::Scratch`] keeps one across messages.
#[derive(Debug, Default)]
pub(crate) struct Spans {
    /// `(name, value)` pairs, trimmed, in wire order.
    pub(crate) headers: Vec<(Span, Span)>,
    /// The data of each chunk of a chunked body.
    chunks: Vec<Span>,
}

impl Spans {
    /// The first value of the named header (case-insensitive), like
    /// `HeaderMap::get`.
    pub(crate) fn get<'b>(&self, buf: &'b [u8], name: &str) -> Option<&'b str> {
        self.headers
            .iter()
            .find(|(n, _)| n.str(buf).eq_ignore_ascii_case(name))
            .map(|(_, v)| v.str(buf))
    }

    fn header_map(&self, buf: &[u8]) -> HeaderMap {
        let mut headers = HeaderMap::new();
        for &(name, value) in &self.headers {
            headers.insert(name.str(buf), value.str(buf));
        }
        headers
    }

    /// Append the bytes of `body` to `out`.
    pub(crate) fn body_into(&self, buf: &[u8], body: Body, out: &mut Vec<u8>) {
        match body {
            Body::Bytes(span) => out.extend_from_slice(span.bytes(buf)),
            Body::Chunked(len) => {
                out.reserve(len);
                for chunk in &self.chunks {
                    out.extend_from_slice(chunk.bytes(buf));
                }
            }
        }
    }

    fn body(&self, buf: &[u8], body: Body) -> Vec<u8> {
        let mut out = Vec::new();
        self.body_into(buf, body, &mut out);
        out
    }
}

/// A request line: the method and the target.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RequestLine {
    pub(crate) method: Method,
    pub(crate) target: Span,
}

/// A status line: the code and the reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StatusLine {
    pub(crate) status: u16,
    reason: Span,
}

/// A message framed over spans; its fields are in the [`Spans`] it was
/// framed with.
pub(crate) struct Message<L> {
    pub(crate) line: L,
    pub(crate) body: Body,
    /// A `Connection: close` token was present.
    pub(crate) close: bool,
}

/// The framing facts of a header section, read the way
/// `HeaderMap::get` (first match) and `HeaderMap::contains_token` (any
/// token of any field) read them.
#[derive(Default)]
struct Fields<'b> {
    content_length: Option<&'b str>,
    chunked: bool,
    close: bool,
}

fn has_token(value: &str, token: &str) -> bool {
    value
        .split(',')
        .any(|t| t.trim().eq_ignore_ascii_case(token))
}

const EOF_IN_BODY: &str = "eof inside body";

/// Read position in buffered bytes. Every framing rule lives here; what
/// it finds is recorded as spans into `buf`.
pub(crate) struct Cursor<'b, 's> {
    buf: &'b [u8],
    pos: usize,
    spans: &'s mut Spans,
}

impl<'b> Cursor<'b, '_> {
    fn rest(&self) -> &'b [u8] {
        &self.buf[self.pos..]
    }

    /// Where `part`, which must lie inside `buf`, lies in it.
    fn span(&self, part: &str) -> Span {
        Span::at(
            part.as_ptr() as usize - self.buf.as_ptr() as usize,
            part.len(),
        )
    }

    fn partial<T>(&self, at_eof: &'static str) -> Result<T, Stop> {
        Err(Stop::Partial {
            at_eof,
            need: self.buf.len() + 1,
        })
    }

    /// The head through its `\r\n\r\n` terminator: its start line and
    /// the lines after it.
    fn head(&mut self, max_head: usize) -> Result<(&'b str, Lines<'b>), Stop> {
        let rest = self.rest();
        let end = find_subsequence(rest, b"\r\n\r\n").map(|pos| pos + 4);
        if end.unwrap_or(rest.len()) > max_head {
            return Err(HttpError::TooLarge("head").into());
        }
        let Some(end) = end else {
            return self.partial("eof inside head");
        };
        self.pos += end;
        let head =
            std::str::from_utf8(&rest[..end]).map_err(|_| HttpError::Parse("non-utf8 head"))?;
        let mut lines = head.lines();
        let start = lines.next().ok_or(HttpError::Parse("empty head"))?;
        Ok((start, lines))
    }

    /// The header fields up to the first empty line, recorded in
    /// `spans.headers`.
    fn fields(&mut self, lines: Lines<'b>) -> Result<Fields<'b>, HttpError> {
        let mut fields = Fields::default();
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
            let field = (self.span(name), self.span(value));
            self.spans.headers.push(field);
            if name.eq_ignore_ascii_case("content-length") {
                fields.content_length.get_or_insert(value);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                fields.chunked |= has_token(value, "chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                fields.close |= has_token(value, "close");
            }
        }
        Ok(fields)
    }

    /// Exactly `n` body bytes.
    fn exact(&mut self, n: usize, max_body: usize) -> Result<Span, Stop> {
        if n > max_body {
            return Err(HttpError::TooLarge("body").into());
        }
        if self.rest().len() < n {
            return Err(Stop::Partial {
                at_eof: EOF_IN_BODY,
                need: self.pos.saturating_add(n),
            });
        }
        self.pos += n;
        Ok(Span::at(self.pos - n, n))
    }

    /// Everything up to end of stream (a response without a length).
    fn until_eof(&mut self, max_body: usize, eof: bool) -> Result<Span, Stop> {
        let len = self.rest().len();
        if len > max_body {
            return Err(HttpError::TooLarge("body").into());
        }
        if !eof {
            return self.partial(EOF_IN_BODY);
        }
        self.pos += len;
        Ok(Span::at(self.pos - len, len))
    }

    /// One CRLF-terminated line (without the terminator).
    fn line(&mut self, max: usize) -> Result<&'b str, Stop> {
        let rest = self.rest();
        if let Some(pos) = find_subsequence(rest, b"\r\n") {
            self.pos += pos + 2;
            return std::str::from_utf8(&rest[..pos])
                .map_err(|_| HttpError::Parse("non-utf8 line").into());
        }
        if rest.len() > max + 2 {
            return Err(HttpError::TooLarge("line").into());
        }
        self.partial("eof inside line")
    }

    /// A chunked body, its chunks recorded in `spans.chunks`.
    fn chunked(&mut self, max_body: usize) -> Result<Body, Stop> {
        let mut len = 0usize;
        loop {
            let line = self.line(128)?;
            let size_str = line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_str, 16)
                .map_err(|_| HttpError::Parse("bad chunk size"))?;
            if len.saturating_add(size) > max_body {
                return Err(HttpError::TooLarge("chunked body").into());
            }
            if size == 0 {
                // Trailer section: lines until the empty line.
                loop {
                    if self.line(1024)?.is_empty() {
                        return Ok(Body::Chunked(len));
                    }
                }
            }
            let chunk = self.exact(size, max_body)?;
            self.spans.chunks.push(chunk);
            len += size;
            if !self.line(2)?.is_empty() {
                return Err(HttpError::Parse("missing chunk crlf").into());
            }
        }
    }

    /// The body `fields` frame: chunked, else `Content-Length` bytes,
    /// else the rest of the stream for a response (`eof` given) and
    /// nothing for a request.
    fn body(&mut self, fields: &Fields, max_body: usize, eof: Option<bool>) -> Result<Body, Stop> {
        if fields.chunked {
            return self.chunked(max_body);
        }
        let len = fields
            .content_length
            .map(|v| {
                v.parse()
                    .map_err(|_| HttpError::Parse("bad content-length"))
            })
            .transpose()?;
        Ok(Body::Bytes(match (len, eof) {
            (Some(n), _) => self.exact(n, max_body)?,
            (None, Some(eof)) => self.until_eof(max_body, eof)?,
            (None, None) => Span::at(self.pos, 0),
        }))
    }

    pub(crate) fn request(&mut self, limits: &Limits) -> Result<Message<RequestLine>, Stop> {
        let (start, lines) = self.head(limits.max_head)?;
        let mut parts = start.split(' ');
        let method = parts
            .next()
            .and_then(Method::parse)
            .ok_or(HttpError::Parse("bad method"))?;
        let target = parts
            .next()
            .filter(|t| t.starts_with('/') || *t == "*")
            .ok_or(HttpError::Parse("bad target"))?;
        let version = parts.next().ok_or(HttpError::Parse("missing version"))?;
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(HttpError::Parse("unsupported version").into());
        }
        let line = RequestLine {
            method,
            target: self.span(target),
        };
        let fields = self.fields(lines)?;
        Ok(Message {
            line,
            body: self.body(&fields, limits.max_body, None)?,
            close: fields.close,
        })
    }

    /// `eof`: the stream has ended, which completes a body without a
    /// length. `head_request` suppresses the body of a HEAD response.
    pub(crate) fn response(
        &mut self,
        limits: &Limits,
        head_request: bool,
        eof: bool,
    ) -> Result<Message<StatusLine>, Stop> {
        let (start, lines) = self.head(limits.max_head)?;
        let mut parts = start.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Parse("bad status version").into());
        }
        let status: u16 = parts
            .next()
            .ok_or(HttpError::Parse("missing status code"))?
            .parse()
            .map_err(|_| HttpError::Parse("bad status code"))?;
        if !(100..600).contains(&status) {
            return Err(HttpError::Parse("status code out of range").into());
        }
        let line = StatusLine {
            status,
            reason: self.span(parts.next().unwrap_or(&start[start.len()..])),
        };
        let fields = self.fields(lines)?;
        let body = if head_request || status == 204 || status == 304 {
            Body::Bytes(Span::at(self.pos, 0))
        } else {
            self.body(&fields, limits.max_body, Some(eof))?
        };
        Ok(Message {
            line,
            body,
            close: fields.close,
        })
    }
}

/// Frame one message from the front of `buf` with `parse`, one of the
/// cursor's [`Cursor::request`] or [`Cursor::response`], recording its
/// fields into `spans`.
pub(crate) fn frame<T>(
    buf: &[u8],
    spans: &mut Spans,
    parse: impl FnOnce(&mut Cursor<'_, '_>) -> Result<T, Stop>,
) -> Result<Framed<T>, HttpError> {
    spans.headers.clear();
    spans.chunks.clear();
    let mut cur = Cursor { buf, pos: 0, spans };
    match parse(&mut cur) {
        Ok(msg) => Ok(Framed::Done(msg, cur.pos)),
        Err(Stop::Partial { at_eof, need }) => Ok(Framed::Partial { at_eof, need }),
        Err(Stop::Bad(e)) => Err(e),
    }
}

/// Append reads from `conn` to `buf`, through `staging`, until `frame`
/// frames a message at the front of `buf`; returns the message and the
/// bytes it used. `frame` sees everything buffered so far and whether
/// the stream ended, and runs again only once `buf` holds the bytes its
/// last `Partial` asked for.
pub(crate) fn fill<T>(
    conn: &mut dyn Connection,
    buf: &mut Vec<u8>,
    staging: &mut [u8],
    mut frame: impl FnMut(&[u8], bool) -> Result<Framed<T>, HttpError>,
) -> Result<(T, usize), HttpError> {
    let mut eof = false;
    // Nothing frames from an empty buffer.
    let mut need = 1;
    loop {
        while buf.len() < need {
            let n = conn.read(staging)?;
            if n == 0 {
                eof = true;
                break;
            }
            buf.extend_from_slice(&staging[..n]);
        }
        need = match frame(buf, eof)? {
            Framed::Done(msg, used) => return Ok((msg, used)),
            Framed::Partial { .. } if eof && buf.is_empty() => return Err(HttpError::Eof),
            Framed::Partial { at_eof, .. } if eof => return Err(HttpError::Parse(at_eof)),
            Framed::Partial { need, .. } => need,
        };
    }
}

/// Read from `conn` into a fresh buffer until `frame` frames a message,
/// 8 KiB at a time. Bytes read past the message are dropped.
fn read_message<T>(
    conn: &mut dyn Connection,
    frame: impl FnMut(&[u8], bool) -> Result<Framed<T>, HttpError>,
) -> Result<T, HttpError> {
    let mut staging = [0u8; 8 * 1024];
    fill(conn, &mut Vec::new(), &mut staging, frame).map(|(msg, _)| msg)
}

/// The owned request that a method, a target span and the header spans
/// in `spans` describe, with `body`.
pub(crate) fn owned_request(
    buf: &[u8],
    spans: &Spans,
    method: Method,
    target: Span,
    body: Vec<u8>,
) -> Request {
    Request {
        method,
        target: target.str(buf).to_string(),
        headers: spans.header_map(buf),
        body,
    }
}

/// Frame one request from the front of `buf` (server side): the
/// sans-IO entry point that [`read_request`] and the HTTP session share.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Framed<Request>, HttpError> {
    let mut spans = Spans::default();
    let framed = frame(buf, &mut spans, |cur| cur.request(limits))?;
    Ok(framed.map(|m| {
        let body = spans.body(buf, m.body);
        owned_request(buf, &spans, m.line.method, m.line.target, body)
    }))
}

/// Read one request from the connection (server side). Bytes read past
/// the request are dropped.
pub fn read_request(conn: &mut dyn Connection, limits: &Limits) -> Result<Request, HttpError> {
    read_message(conn, |buf, _eof| parse_request(buf, limits))
}

/// The owned response that a status line and the header spans in
/// `spans` describe, with `body`.
pub(crate) fn owned_response(
    buf: &[u8],
    spans: &Spans,
    line: StatusLine,
    body: Vec<u8>,
) -> Response {
    Response {
        status: line.status,
        reason: line.reason.str(buf).to_string(),
        headers: spans.header_map(buf),
        body,
    }
}

/// Frame one response from the front of `buf` (client side); see
/// [`Cursor::response`].
fn parse_response(
    buf: &[u8],
    limits: &Limits,
    head_request: bool,
    eof: bool,
) -> Result<Framed<Response>, HttpError> {
    let mut spans = Spans::default();
    let framed = frame(buf, &mut spans, |cur| {
        cur.response(limits, head_request, eof)
    })?;
    Ok(framed.map(|m| {
        let body = spans.body(buf, m.body);
        owned_response(buf, &spans, m.line, body)
    }))
}

/// Read one response from the connection (client side).
///
/// `head_request` suppresses body reading for HEAD responses.
pub fn read_response(
    conn: &mut dyn Connection,
    limits: &Limits,
    head_request: bool,
) -> Result<Response, HttpError> {
    read_message(conn, |buf, eof| {
        parse_response(buf, limits, head_request, eof)
    })
}

/// Append a decimal integer without going through `format!`.
pub(crate) fn push_uint(out: &mut Vec<u8>, mut v: u64) {
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

/// `HTTP/1.1 <status> <reason>`, without the line's CRLF.
pub(crate) fn status_line(out: &mut Vec<u8>, status: u16, reason: &str) {
    out.extend_from_slice(b"HTTP/1.1 ");
    push_uint(out, u64::from(status));
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
}

/// Append `headers`, then `Content-Length: len` if `len` is given and
/// the headers carry no length, then the blank line ending the head.
/// Returns where the value of the first `Host` field starts in `out`.
fn encode_fields(out: &mut Vec<u8>, headers: &HeaderMap, len: Option<usize>) -> Option<usize> {
    let mut wrote_len = false;
    let mut host_at = None;
    for (n, v) in headers.iter() {
        wrote_len |= n.eq_ignore_ascii_case("content-length");
        out.extend_from_slice(n.as_bytes());
        out.extend_from_slice(b": ");
        if host_at.is_none() && n.eq_ignore_ascii_case("host") {
            host_at = Some(out.len());
        }
        out.extend_from_slice(v.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if let Some(len) = len.filter(|_| !wrote_len) {
        out.extend_from_slice(b"Content-Length: ");
        push_uint(out, len as u64);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    host_at
}

/// Serialize a request (adds `Content-Length` when a body is present).
pub fn write_request(conn: &mut dyn Connection, req: &Request) -> Result<(), HttpError> {
    let mut out = Vec::with_capacity(256 + req.body.len());
    encode_request(req, &mut out);
    conn.write_all(&out)?;
    Ok(())
}

/// Append the wire bytes of [`write_request`] to `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    encode_request_at(req, out);
}

/// [`encode_request`], also returning where the value of the first
/// `Host` field starts in `out`.
pub(crate) fn encode_request_at(req: &Request, out: &mut Vec<u8>) -> Option<usize> {
    out.extend_from_slice(req.method.as_str().as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    let len = (!req.body.is_empty()).then_some(req.body.len());
    let host_at = encode_fields(out, &req.headers, len);
    out.extend_from_slice(&req.body);
    host_at
}

/// Serialize a response with `Content-Length` framing.
pub fn write_response(conn: &mut dyn Connection, resp: &Response) -> Result<(), HttpError> {
    let mut out = Vec::new();
    encode_response(resp, &mut out);
    conn.write_all(&out)?;
    Ok(())
}

/// Append the wire bytes of [`write_response`] to `out`.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    out.reserve(256 + resp.body.len());
    status_line(out, resp.status, &resp.reason);
    out.extend_from_slice(b"\r\n");
    encode_fields(out, &resp.headers, Some(resp.body.len()));
    out.extend_from_slice(&resp.body);
}

/// Serialize a response body with chunked transfer encoding (used by a few
/// simulated handlers to exercise the chunked decoder).
pub fn write_response_chunked(
    conn: &mut dyn Connection,
    resp: &Response,
    chunk_size: usize,
) -> Result<(), HttpError> {
    let mut out = Vec::with_capacity(256 + resp.body.len());
    status_line(&mut out, resp.status, &resp.reason);
    out.extend_from_slice(b"\r\n");
    let mut headers = resp.headers.clone();
    headers.remove("content-length");
    headers.insert("Transfer-Encoding", "chunked");
    encode_fields(&mut out, &headers, None);
    for chunk in resp.body.chunks(chunk_size.max(1)) {
        out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    conn.write_all(&out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_net::pipe_pair;

    fn pair() -> (fw_net::PipeConn, fw_net::PipeConn) {
        pipe_pair(
            "10.0.0.1:50000".parse().unwrap(),
            "203.0.113.1:80".parse().unwrap(),
        )
    }

    #[test]
    fn request_roundtrip() {
        let (mut a, mut b) = pair();
        let req = Request::get("/fn?probe=1", "fn.on.aws");
        write_request(&mut a, &req).unwrap();
        a.shutdown_write();
        let got = read_request(&mut b, &Limits::default()).unwrap();
        assert_eq!(got.method, Method::Get);
        assert_eq!(got.target, "/fn?probe=1");
        assert_eq!(got.host(), Some("fn.on.aws"));
    }

    #[test]
    fn request_with_body_roundtrip() {
        let (mut a, mut b) = pair();
        let mut req = Request::get("/", "h.example");
        req.method = Method::Post;
        req.body = b"payload".to_vec();
        write_request(&mut a, &req).unwrap();
        let got = read_request(&mut b, &Limits::default()).unwrap();
        assert_eq!(got.body, b"payload");
    }

    #[test]
    fn response_roundtrip_with_content_length() {
        let (mut a, mut b) = pair();
        let resp = Response::html(200, "<html>hi</html>");
        write_response(&mut a, &resp).unwrap();
        let got = read_response(&mut b, &Limits::default(), false).unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.body_text(), "<html>hi</html>");
        assert_eq!(
            got.headers.get("content-type"),
            Some("text/html; charset=utf-8")
        );
    }

    #[test]
    fn response_body_to_eof() {
        let (mut a, mut b) = pair();
        a.write_all(b"HTTP/1.1 200 OK\r\nX-No-Length: 1\r\n\r\nstreamed until close")
            .unwrap();
        a.shutdown_write();
        let got = read_response(&mut b, &Limits::default(), false).unwrap();
        assert_eq!(got.body_text(), "streamed until close");
    }

    #[test]
    fn chunked_response_roundtrip() {
        let (mut a, mut b) = pair();
        let resp = Response::text(200, "a somewhat longer body split into chunks");
        write_response_chunked(&mut a, &resp, 7).unwrap();
        let got = read_response(&mut b, &Limits::default(), false).unwrap();
        assert_eq!(got.body_text(), "a somewhat longer body split into chunks");
        assert!(got.headers.contains_token("transfer-encoding", "chunked"));
    }

    #[test]
    fn head_response_has_no_body() {
        let (mut a, mut b) = pair();
        a.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n")
            .unwrap();
        a.shutdown_write();
        let got = read_response(&mut b, &Limits::default(), true).unwrap();
        assert!(got.body.is_empty());
    }

    #[test]
    fn oversized_head_rejected() {
        let (mut a, mut b) = pair();
        let limits = Limits {
            max_head: 128,
            max_body: 1024,
        };
        let writer = std::thread::spawn(move || {
            let _ = a.write_all(b"GET / HTTP/1.1\r\n");
            for _ in 0..64 {
                if a.write_all(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n")
                    .is_err()
                {
                    return;
                }
            }
            let _ = a.write_all(b"\r\n");
        });
        let err = read_request(&mut b, &limits).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge("head")), "{err:?}");
        drop(b);
        let _ = writer.join();
    }

    #[test]
    fn oversized_body_rejected() {
        let (mut a, mut b) = pair();
        let limits = Limits {
            max_head: 1024,
            max_body: 10,
        };
        a.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n0123456789X")
            .unwrap();
        let err = read_response(&mut b, &limits, false).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge("body")));
    }

    #[test]
    fn malformed_inputs_are_parse_errors() {
        let cases: &[&[u8]] = &[
            b"NOTAMETHOD / HTTP/1.1\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2.9\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Header Name: x\r\n\r\n",
            b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
        ];
        for case in cases {
            let (mut a, mut b) = pair();
            a.write_all(case).unwrap();
            a.shutdown_write();
            let err = read_request(&mut b, &Limits::default()).unwrap_err();
            assert!(matches!(err, HttpError::Parse(_)), "{case:?} → {err:?}");
        }
    }

    #[test]
    fn clean_eof_before_any_bytes_is_eof() {
        let (a, mut b) = pair();
        drop(a);
        let err = read_request(&mut b, &Limits::default()).unwrap_err();
        assert!(matches!(err, HttpError::Eof));
    }

    #[test]
    fn bad_status_codes_rejected() {
        for line in [
            "HTTP/1.1 99 Low\r\n\r\n",
            "HTTP/1.1 999 High\r\n\r\n",
            "HTTP/1.1 abc X\r\n\r\n",
        ] {
            let (mut a, mut b) = pair();
            a.write_all(line.as_bytes()).unwrap();
            a.shutdown_write();
            assert!(matches!(
                read_response(&mut b, &Limits::default(), false),
                Err(HttpError::Parse(_))
            ));
        }
    }

    /// Everything written to the far end of a pipe by `write`.
    fn wire_of(write: impl FnOnce(&mut dyn Connection)) -> Vec<u8> {
        let (mut a, mut b) = pair();
        write(&mut a);
        a.shutdown_write();
        let mut out = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            match b.read(&mut buf).unwrap() {
                0 => return out,
                n => out.extend_from_slice(&buf[..n]),
            }
        }
    }

    #[test]
    fn encoded_status_lines_and_lengths_are_pinned() {
        let mut out = Vec::new();
        let mut custom = Response::text(299, "hi");
        custom.reason = "Totally Custom".to_string();
        encode_response(&custom, &mut out);
        assert_eq!(
            out,
            b"HTTP/1.1 299 Totally Custom\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 2\r\n\r\nhi"
        );

        out.clear();
        encode_response(&Response::new(404), &mut out);
        assert_eq!(out, b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");

        out.clear();
        let big = Response::with_body(200, "application/octet-stream", vec![b'x'; 12_345]);
        encode_response(&big, &mut out);
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: 12345\r\n\r\n";
        assert_eq!(&out[..head.len()], head);
        assert_eq!(out.len(), head.len() + 12_345);

        out.clear();
        let mut post = Request::get("/in", "h.example");
        post.method = Method::Post;
        post.body = vec![7; 1_000_000];
        encode_request(&post, &mut out);
        let head = b"POST /in HTTP/1.1\r\nHost: h.example\r\nContent-Length: 1000000\r\n\r\n";
        assert_eq!(&out[..head.len()], head);

        let chunked =
            wire_of(|c| write_response_chunked(c, &Response::text(201, "hello world"), 4).unwrap());
        assert_eq!(
            chunked,
            b"HTTP/1.1 201 Created\r\nContent-Type: text/plain; charset=utf-8\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nhell\r\n4\r\no wo\r\n3\r\nrld\r\n0\r\n\r\n"
        );

        for (v, text) in [
            (0u64, "0"),
            (9, "9"),
            (10, "10"),
            (u64::MAX, "18446744073709551615"),
        ] {
            out.clear();
            push_uint(&mut out, v);
            assert_eq!(out, text.as_bytes());
        }
    }

    #[test]
    fn chunked_with_extension_and_trailer() {
        let (mut a, mut b) = pair();
        a.write_all(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\nX-Trailer: t\r\n\r\n",
        )
        .unwrap();
        a.shutdown_write();
        let got = read_response(&mut b, &Limits::default(), false).unwrap();
        assert_eq!(got.body_text(), "hello");
    }
}
