//! HTTP/1.1 wire parsing and serialization.
//!
//! Framing works on buffered bytes: the blocking readers
//! ([`read_request`], [`read_response`]) fill a buffer from a
//! [`Connection`] and parse it, and the sans-IO
//! [`crate::server::HttpSession`] calls [`parse_request`] on whatever the
//! client has written so far. Limits are explicit ([`Limits`]) and every
//! malformed-input path returns a typed [`HttpError`] — the parser is
//! exercised with random and mutated inputs in the property tests.

use crate::types::{HeaderMap, Method, Request, Response};
use fw_net::Connection;
use fw_types::memmem::find_subsequence;
use std::io;

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
enum Stop {
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

/// Read position in buffered bytes. Every framing rule lives here, so
/// blocking reads and sans-IO sessions share one parser.
struct Cursor<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> Cursor<'b> {
    fn new(buf: &'b [u8]) -> Cursor<'b> {
        Cursor { buf, pos: 0 }
    }

    fn rest(&self) -> &'b [u8] {
        &self.buf[self.pos..]
    }

    fn partial<T>(&self, at_eof: &'static str) -> Result<T, Stop> {
        Err(Stop::Partial {
            at_eof,
            need: self.buf.len() + 1,
        })
    }

    /// The head through its `\r\n\r\n` terminator.
    fn head(&mut self, max_head: usize) -> Result<&'b [u8], Stop> {
        let rest = self.rest();
        if let Some(pos) = find_subsequence(rest, b"\r\n\r\n") {
            if pos + 4 > max_head {
                return Err(HttpError::TooLarge("head").into());
            }
            self.pos += pos + 4;
            return Ok(&rest[..pos + 4]);
        }
        if rest.len() > max_head {
            return Err(HttpError::TooLarge("head").into());
        }
        self.partial("eof inside head")
    }

    /// Exactly `n` body bytes.
    fn exact(&mut self, n: usize, max_body: usize) -> Result<&'b [u8], Stop> {
        if n > max_body {
            return Err(HttpError::TooLarge("body").into());
        }
        let rest = self.rest();
        if rest.len() < n {
            return Err(Stop::Partial {
                at_eof: "eof inside body",
                need: self.pos + n,
            });
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    /// Everything up to end of stream (a response without a length).
    fn until_eof(&mut self, max_body: usize, eof: bool) -> Result<&'b [u8], Stop> {
        let rest = self.rest();
        if rest.len() > max_body {
            return Err(HttpError::TooLarge("body").into());
        }
        if !eof {
            return self.partial("eof inside body");
        }
        self.pos = self.buf.len();
        Ok(rest)
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

    /// A chunked body, decoded.
    fn chunked(&mut self, max_body: usize) -> Result<Vec<u8>, Stop> {
        let mut out = Vec::new();
        loop {
            let line = self.line(128)?;
            let size_str = line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_str, 16)
                .map_err(|_| HttpError::Parse("bad chunk size"))?;
            if out.len().saturating_add(size) > max_body {
                return Err(HttpError::TooLarge("chunked body").into());
            }
            if size == 0 {
                // Trailer section: lines until the empty line.
                loop {
                    if self.line(1024)?.is_empty() {
                        return Ok(out);
                    }
                }
            }
            out.extend_from_slice(self.exact(size, max_body)?);
            if !self.line(2)?.is_empty() {
                return Err(HttpError::Parse("missing chunk crlf").into());
            }
        }
    }
}

/// Wrap a cursor parse result as a [`Framed`] message.
fn framed<T>(parsed: Result<T, Stop>, cur: &Cursor<'_>) -> Result<Framed<T>, HttpError> {
    match parsed {
        Ok(msg) => Ok(Framed::Done(msg, cur.pos)),
        Err(Stop::Partial { at_eof, need }) => Ok(Framed::Partial { at_eof, need }),
        Err(Stop::Bad(e)) => Err(e),
    }
}

/// Read from `conn` until `parse` frames a message, 8 KiB at a time.
/// `parse` sees everything buffered so far and whether the stream ended.
fn read_message<T>(
    conn: &mut dyn Connection,
    mut parse: impl FnMut(&[u8], bool) -> Result<Framed<T>, HttpError>,
) -> Result<T, HttpError> {
    const FILL: usize = 8 * 1024;
    let mut buf = Vec::with_capacity(FILL);
    let mut eof = false;
    loop {
        match parse(&buf, eof)? {
            Framed::Done(msg, _) => return Ok(msg),
            Framed::Partial { .. } if eof && buf.is_empty() => return Err(HttpError::Eof),
            Framed::Partial { at_eof, .. } if eof => return Err(HttpError::Parse(at_eof)),
            Framed::Partial { .. } => {}
        }
        let len = buf.len();
        buf.resize(len + FILL, 0);
        let n = conn.read(&mut buf[len..])?;
        buf.truncate(len + n);
        eof = n == 0;
    }
}

fn parse_headers(lines: &mut std::str::Lines<'_>) -> Result<HeaderMap, HttpError> {
    let mut headers = HeaderMap::new();
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
        headers.insert(name.trim().to_string(), value.trim().to_string());
    }
    Ok(headers)
}

fn body_length(headers: &HeaderMap) -> Result<Option<usize>, HttpError> {
    match headers.get("content-length") {
        Some(v) => {
            let n: usize = v
                .trim()
                .parse()
                .map_err(|_| HttpError::Parse("bad content-length"))?;
            Ok(Some(n))
        }
        None => Ok(None),
    }
}

fn is_chunked(headers: &HeaderMap) -> bool {
    headers.contains_token("transfer-encoding", "chunked")
}

/// Frame one request from the front of `buf` (server side): the
/// sans-IO entry point that [`read_request`] and the HTTP session share.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Framed<Request>, HttpError> {
    let mut cur = Cursor::new(buf);
    let parsed = request_at(&mut cur, limits);
    framed(parsed, &cur)
}

fn request_at(cur: &mut Cursor<'_>, limits: &Limits) -> Result<Request, Stop> {
    let head = cur.head(limits.max_head)?;
    let head_str = std::str::from_utf8(head).map_err(|_| HttpError::Parse("non-utf8 head"))?;
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
        .ok_or(HttpError::Parse("bad target"))?
        .to_string();
    let version = parts.next().ok_or(HttpError::Parse("missing version"))?;
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Parse("unsupported version").into());
    }
    let headers = parse_headers(&mut lines)?;
    let body = if is_chunked(&headers) {
        cur.chunked(limits.max_body)?
    } else {
        match body_length(&headers)? {
            Some(n) => cur.exact(n, limits.max_body)?.to_vec(),
            None => Vec::new(),
        }
    };
    Ok(Request {
        method,
        target,
        headers,
        body,
    })
}

/// Read one request from the connection (server side). Bytes read past
/// the request are dropped.
pub fn read_request(conn: &mut dyn Connection, limits: &Limits) -> Result<Request, HttpError> {
    read_message(conn, |buf, _eof| parse_request(buf, limits))
}

/// Frame one response from the front of `buf` (client side). `eof`:
/// the stream has ended, which completes a body without a length.
/// `head_request` suppresses the body of a HEAD response.
fn parse_response(
    buf: &[u8],
    limits: &Limits,
    head_request: bool,
    eof: bool,
) -> Result<Framed<Response>, HttpError> {
    let mut cur = Cursor::new(buf);
    let parsed = response_at(&mut cur, limits, head_request, eof);
    framed(parsed, &cur)
}

fn response_at(
    cur: &mut Cursor<'_>,
    limits: &Limits,
    head_request: bool,
    eof: bool,
) -> Result<Response, Stop> {
    let head = cur.head(limits.max_head)?;
    let head_str = std::str::from_utf8(head).map_err(|_| HttpError::Parse("non-utf8 head"))?;
    let mut lines = head_str.lines();
    let status_line = lines.next().ok_or(HttpError::Parse("empty head"))?;
    let mut parts = status_line.splitn(3, ' ');
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
    let reason = parts.next().unwrap_or("").to_string();
    let headers = parse_headers(&mut lines)?;
    let body = if head_request || status == 204 || status == 304 {
        Vec::new()
    } else if is_chunked(&headers) {
        cur.chunked(limits.max_body)?
    } else {
        match body_length(&headers)? {
            Some(n) => cur.exact(n, limits.max_body)?.to_vec(),
            None => cur.until_eof(limits.max_body, eof)?.to_vec(),
        }
    };
    Ok(Response {
        status,
        reason,
        headers,
        body,
    })
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

/// Serialize a request (adds `Content-Length` when a body is present).
pub fn write_request(conn: &mut dyn Connection, req: &Request) -> Result<(), HttpError> {
    let mut out = Vec::with_capacity(256 + req.body.len());
    out.extend_from_slice(req.method.as_str().as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    let mut wrote_len = false;
    for (n, v) in req.headers.iter() {
        out.extend_from_slice(n.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(v.as_bytes());
        out.extend_from_slice(b"\r\n");
        if n.eq_ignore_ascii_case("content-length") {
            wrote_len = true;
        }
    }
    if !req.body.is_empty() && !wrote_len {
        out.extend_from_slice(format!("Content-Length: {}\r\n", req.body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&req.body);
    conn.write_all(&out)?;
    Ok(())
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
    out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", resp.status, resp.reason).as_bytes());
    let mut wrote_len = false;
    for (n, v) in resp.headers.iter() {
        if n.eq_ignore_ascii_case("content-length") {
            wrote_len = true;
        }
        out.extend_from_slice(n.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(v.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if !wrote_len {
        out.extend_from_slice(format!("Content-Length: {}\r\n", resp.body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
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
    out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", resp.status, resp.reason).as_bytes());
    for (n, v) in resp.headers.iter() {
        if n.eq_ignore_ascii_case("content-length") {
            continue;
        }
        out.extend_from_slice(format!("{n}: {v}\r\n").as_bytes());
    }
    out.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
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
