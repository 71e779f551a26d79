//! Server-side serve loop.
//!
//! [`HttpSession`] is the keep-alive serve loop as a sans-IO
//! [`Session`]: it frames requests out of whatever bytes the client has
//! written (through [`parse_request`], the parser [`read_request`]
//! uses), answers each with a handler and queues the reply. Its rules
//! are the whole serve loop: `Connection: close` ends the connection
//! after its response, a malformed or oversized request gets a 400 and
//! a close, and EOF closes (a 400 first if a request was cut off).
//!
//! Two drivers run it. The simulated cloud ingress runs it inline on the
//! client's thread (`SimNet::listen_inline`, fronted by
//! [`fw_net::TlsServerSession`] on :443). [`serve_connection`] runs it
//! blocking over a [`Connection`] — a `SimNet::listen` handler thread,
//! or a real `TcpListener` in `examples/live_probe.rs`.
//!
//! [`read_request`]: crate::parse::read_request

use crate::parse::{encode_response, parse_request, Framed, Limits};
use crate::types::{Request, Response};
use fw_net::session::drive;
use fw_net::{Clock, Connection, Outbox, Session};
use std::time::Duration;

/// Per-request handler.
pub type RequestHandler = dyn Fn(&Request) -> Response + Send + Sync;

/// Statistics for one connection's serve loop.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    pub requests: u64,
    pub parse_errors: u64,
}

/// A handler's answer: the response, released `after` the request
/// arrives (zero: at once). A delayed reply models a function that
/// runs for a while, e.g. a hang that ends in a gateway 504.
#[derive(Debug, Clone)]
pub struct Reply {
    pub response: Response,
    pub after: Duration,
}

impl From<Response> for Reply {
    fn from(response: Response) -> Reply {
        Reply {
            response,
            after: Duration::ZERO,
        }
    }
}

/// The keep-alive HTTP/1.1 serve loop as a sans-IO session.
pub struct HttpSession<H> {
    limits: Limits,
    handler: H,
    /// Bytes of a request not yet complete.
    buf: Vec<u8>,
    /// Don't parse again until `buf` holds this many bytes.
    need: usize,
    stats: ServeStats,
    done: bool,
}

impl<H: FnMut(&Request) -> Reply + Send> HttpSession<H> {
    pub fn new(limits: Limits, handler: H) -> HttpSession<H> {
        HttpSession {
            limits,
            handler,
            buf: Vec::new(),
            need: 0,
            stats: ServeStats::default(),
            done: false,
        }
    }

    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Answer every complete request at the front of `bytes`; returns
    /// how many bytes were used.
    fn serve(&mut self, bytes: &[u8], out: &mut Outbox) -> usize {
        let mut used = 0;
        while !self.done {
            match parse_request(&bytes[used..], &self.limits) {
                Ok(Framed::Done(req, n)) => {
                    used += n;
                    self.answer(&req, out);
                }
                Ok(Framed::Partial { need, .. }) => {
                    self.need = need;
                    break;
                }
                Err(_) => self.reject(out),
            }
        }
        used
    }

    fn answer(&mut self, req: &Request, out: &mut Outbox) {
        self.stats.requests += 1;
        let close = req.headers.contains_token("connection", "close");
        let Reply {
            mut response,
            after,
        } = (self.handler)(req);
        if close {
            response.headers.set("Connection", "close");
        }
        out.send_with(after, |buf| encode_response(&response, buf));
        if close {
            self.close(out);
        }
    }

    /// 400 and close.
    fn reject(&mut self, out: &mut Outbox) {
        self.stats.parse_errors += 1;
        out.send_with(Duration::ZERO, |buf| {
            encode_response(&Response::new(400), buf)
        });
        self.close(out);
    }

    fn close(&mut self, out: &mut Outbox) {
        self.done = true;
        self.buf = Vec::new();
        out.close();
    }
}

impl<H: FnMut(&Request) -> Reply + Send> Session for HttpSession<H> {
    fn feed(&mut self, input: &[u8], out: &mut Outbox) {
        if self.done {
            return;
        }
        self.buf.extend_from_slice(input);
        if self.buf.len() < self.need {
            return;
        }
        let buf = std::mem::take(&mut self.buf);
        let used = self.serve(&buf, out);
        if !self.done {
            self.buf = buf;
            self.buf.drain(..used);
        }
    }

    fn finish(&mut self, out: &mut Outbox) {
        if self.done {
            return;
        }
        if self.buf.is_empty() {
            self.close(out);
        } else {
            // The stream ended inside a request.
            self.reject(out);
        }
    }
}

/// Serve requests on `conn` until close: the blocking driver of
/// [`HttpSession`]. Returns per-connection stats.
pub fn serve_connection(
    conn: &mut dyn Connection,
    limits: &Limits,
    handler: &RequestHandler,
) -> ServeStats {
    let mut session = HttpSession::new(*limits, |req: &Request| Reply::from(handler(req)));
    // Plain handlers never delay a reply, so the clock is never slept on.
    drive(conn, &mut session, &Clock::Wall);
    session.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{read_response, write_request};
    use crate::types::{Method, Request};
    use fw_net::pipe_pair;

    fn pair() -> (fw_net::PipeConn, fw_net::PipeConn) {
        pipe_pair(
            "10.0.0.1:50000".parse().unwrap(),
            "203.0.113.1:80".parse().unwrap(),
        )
    }

    fn echo_path_handler(req: &Request) -> Response {
        Response::text(200, req.path())
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let (mut client, mut server) = pair();
        let srv = std::thread::spawn(move || {
            serve_connection(&mut server, &Limits::default(), &echo_path_handler)
        });
        for path in ["/one", "/two", "/three"] {
            let req = Request::get(path, "h.example");
            write_request(&mut client, &req).unwrap();
            let resp = read_response(&mut client, &Limits::default(), false).unwrap();
            assert_eq!(resp.body_text(), path);
        }
        drop(client);
        let stats = srv.join().unwrap();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.parse_errors, 0);
    }

    #[test]
    fn connection_close_ends_loop() {
        let (mut client, mut server) = pair();
        let srv = std::thread::spawn(move || {
            serve_connection(&mut server, &Limits::default(), &echo_path_handler)
        });
        let mut req = Request::get("/only", "h.example");
        req.headers.insert("Connection", "close");
        write_request(&mut client, &req).unwrap();
        let resp = read_response(&mut client, &Limits::default(), false).unwrap();
        assert_eq!(resp.body_text(), "/only");
        assert_eq!(resp.headers.get("connection"), Some("close"));
        let stats = srv.join().unwrap();
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn malformed_request_gets_400_and_close() {
        let (mut client, mut server) = pair();
        let srv = std::thread::spawn(move || {
            serve_connection(&mut server, &Limits::default(), &echo_path_handler)
        });
        client.write_all(b"GARBAGE REQUEST LINE\r\n\r\n").unwrap();
        let resp = read_response(&mut client, &Limits::default(), false).unwrap();
        assert_eq!(resp.status, 400);
        let stats = srv.join().unwrap();
        assert_eq!(stats.parse_errors, 1);
        assert_eq!(stats.requests, 0);
    }

    #[test]
    fn post_body_reaches_handler() {
        let (mut client, mut server) = pair();
        let srv = std::thread::spawn(move || {
            serve_connection(&mut server, &Limits::default(), &|req: &Request| {
                Response::text(200, &format!("got {} bytes", req.body.len()))
            })
        });
        let mut req = Request::get("/upload", "h.example");
        req.method = Method::Post;
        req.body = vec![b'x'; 512];
        req.headers.insert("Connection", "close");
        write_request(&mut client, &req).unwrap();
        let resp = read_response(&mut client, &Limits::default(), false).unwrap();
        assert_eq!(resp.body_text(), "got 512 bytes");
        srv.join().unwrap();
    }

    fn writes(out: &Outbox) -> Vec<(Duration, String)> {
        out.writes()
            .map(|(d, b)| (d, String::from_utf8_lossy(b).into_owned()))
            .collect()
    }

    #[test]
    fn session_frames_pipelined_requests_and_keeps_reply_delays() {
        let mut session = HttpSession::new(Limits::default(), |req: &Request| Reply {
            response: Response::text(200, req.path()),
            after: Duration::from_millis(if req.path() == "/slow" { 5 } else { 0 }),
        });
        let mut out = Outbox::new();
        let mut wire = Vec::new();
        for path in ["/slow", "/fast"] {
            crate::parse::write_request(
                &mut RecordConn(&mut wire),
                &Request::get(path, "h.example"),
            )
            .unwrap();
        }
        // Both requests in one write, the second cut short.
        let cut = wire.len() - 3;
        session.feed(&wire[..cut], &mut out);
        assert_eq!(writes(&out).len(), 1);
        session.feed(&wire[cut..], &mut out);
        let w = writes(&out);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].0, Duration::from_millis(5));
        assert!(w[0].1.ends_with("/slow"));
        assert_eq!(w[1].0, Duration::ZERO);
        assert!(w[1].1.ends_with("/fast"));
        assert!(!out.is_closed());
        assert_eq!(session.stats().requests, 2);
    }

    #[test]
    fn session_rejects_an_oversized_head_and_reads_nothing_more() {
        let limits = Limits {
            max_head: 1024,
            max_body: 1024,
        };
        let mut session = HttpSession::new(limits, echo_reply);
        let mut out = Outbox::new();
        session.feed(b"GET / HTTP/1.1\r\n", &mut out);
        let pad = [b'a'; 100];
        let mut fed = 0;
        while !out.is_closed() {
            session.feed(&pad, &mut out);
            fed += pad.len();
            assert!(fed <= limits.max_head + pad.len(), "kept buffering");
        }
        let w = writes(&out);
        assert_eq!(w.len(), 1);
        assert!(w[0].1.starts_with("HTTP/1.1 400 Bad Request\r\n"));
        out.clear();
        session.feed(b"\r\n\r\n", &mut out);
        session.finish(&mut out);
        assert!(out.is_empty(), "a closed session answers nothing");
        assert_eq!(session.stats().parse_errors, 1);
    }

    fn echo_reply(req: &Request) -> Reply {
        Response::text(200, req.path()).into()
    }

    /// A write-only connection that records what is written.
    #[derive(Debug)]
    struct RecordConn<'a>(&'a mut Vec<u8>);

    impl Connection for RecordConn<'_> {
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            self.0.extend_from_slice(buf);
            Ok(())
        }
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Ok(0)
        }
        fn set_read_timeout(&mut self, _t: Option<Duration>) -> std::io::Result<()> {
            Ok(())
        }
        fn shutdown_write(&mut self) {}
        fn peer_addr(&self) -> std::net::SocketAddr {
            "10.0.0.1:1".parse().unwrap()
        }
    }
}
