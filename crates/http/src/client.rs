//! Blocking HTTP client over pluggable transports.
//!
//! The [`Dialer`] trait abstracts how a socket to `(address, SNI)` is
//! opened: [`SimDialer`] goes through the simulated internet (with
//! simulated TLS on port 443), [`TcpDialer`] opens real TCP sockets. The
//! prober composes this client with DNS resolution and its ethics policy.

use crate::fast::{FastResponse, Scratch};
use crate::parse::{encode_request, encode_request_at, HttpError, Limits};
use crate::types::{Method, Request, Response, ResponseView};
use crate::url::Url;
use fw_net::tcp::TcpConn;
use fw_net::{Connection, SimNet, TlsClient, TlsError};
use std::io;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;

/// Client configuration. The 60-second default timeout follows the paper
/// (§3.3, "a uniform timeout of 60 seconds was applied").
#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub read_timeout: Duration,
    pub limits: Limits,
    pub user_agent: String,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(60),
            limits: Limits::default(),
            user_agent: "faaswild-probe/0.1 (research; opt-out: see probe host)".to_string(),
        }
    }
}

/// Opens transport connections for the client.
pub trait Dialer: Send + Sync {
    /// Open a connection to `addr` for `host` (the server name being
    /// contacted — simulated transports key deterministic fault
    /// injection on it). When `tls` is set, negotiate TLS with `host` as
    /// the SNI. `timeout` bounds the handshake reads — on a lossy
    /// network a dropped hello must not hang the dial forever.
    fn dial(
        &self,
        addr: SocketAddr,
        host: &str,
        tls: bool,
        timeout: Duration,
    ) -> Result<Box<dyn Connection>, DialError>;
}

/// Why a dial failed — the prober distinguishes these (Figure 6's
/// unreachable bucket vs. TLS fallback).
#[derive(Debug)]
pub enum DialError {
    /// TCP-level failure (refused, timeout...).
    Connect(io::Error),
    /// TLS handshake failed; HTTP fallback may succeed.
    Tls(TlsError),
}

impl std::fmt::Display for DialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DialError::Connect(e) => write!(f, "connect failed: {e}"),
            DialError::Tls(e) => write!(f, "tls failed: {e}"),
        }
    }
}

impl std::error::Error for DialError {}

/// Dialer over the simulated internet.
#[derive(Clone)]
pub struct SimDialer {
    net: SimNet,
}

impl SimDialer {
    pub fn new(net: SimNet) -> SimDialer {
        SimDialer { net }
    }
}

impl Dialer for SimDialer {
    fn dial(
        &self,
        addr: SocketAddr,
        host: &str,
        tls: bool,
        timeout: Duration,
    ) -> Result<Box<dyn Connection>, DialError> {
        let mut conn = self
            .net
            .connect_for(addr, host)
            .map_err(DialError::Connect)?;
        conn.set_read_timeout(Some(timeout))
            .map_err(DialError::Connect)?;
        if tls {
            TlsClient::handshake(conn, host).map_err(DialError::Tls)
        } else {
            Ok(conn)
        }
    }
}

/// Dialer over real TCP (loopback examples). TLS-over-TCP uses the same
/// simulated TLS framing, so a `fw-http` server must be on the other end.
pub struct TcpDialer {
    pub connect_timeout: Duration,
}

impl Default for TcpDialer {
    fn default() -> Self {
        TcpDialer {
            connect_timeout: Duration::from_secs(10),
        }
    }
}

impl Dialer for TcpDialer {
    fn dial(
        &self,
        addr: SocketAddr,
        host: &str,
        tls: bool,
        timeout: Duration,
    ) -> Result<Box<dyn Connection>, DialError> {
        let mut conn = TcpConn::connect(addr, self.connect_timeout).map_err(DialError::Connect)?;
        conn.set_read_timeout(Some(timeout))
            .map_err(DialError::Connect)?;
        let boxed: Box<dyn Connection> = Box::new(conn);
        if tls {
            TlsClient::handshake(boxed, host).map_err(DialError::Tls)
        } else {
            Ok(boxed)
        }
    }
}

/// Outcome of one HTTP exchange.
#[derive(Debug)]
pub enum FetchError {
    Dial(DialError),
    Http(HttpError),
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Dial(e) => write!(f, "{e}"),
            FetchError::Http(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FetchError {}

/// An encoded request: its wire bytes, and the two facts about it that
/// the client's keep-alive rules read, taken from the [`Request`] it was
/// encoded from.
#[derive(Debug, Clone, Copy)]
pub struct Wire<'a> {
    bytes: &'a [u8],
    /// A HEAD request: its response has no body.
    head: bool,
    /// The first `Connection` value is `close`.
    close: bool,
}

impl<'a> Wire<'a> {
    /// Encode `req` into `out`, which is cleared first: the bytes
    /// `write_request` writes.
    pub fn encode(req: &Request, out: &'a mut Vec<u8>) -> Wire<'a> {
        out.clear();
        encode_request(req, out);
        Wire {
            bytes: out,
            head: req.method == Method::Head,
            close: request_wants_close(req),
        }
    }

    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }
}

/// A request encoded once for many servers: the bytes `write_request`
/// writes for it, with the value of its `Host` field cut out to be
/// spliced back in per server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTemplate {
    bytes: Vec<u8>,
    /// Where the `Host` value goes.
    host_at: usize,
    head: bool,
    close: bool,
}

impl RequestTemplate {
    /// `None` if `req` has no `Host` field.
    pub fn new(req: &Request) -> Option<RequestTemplate> {
        let mut bytes = Vec::new();
        let host_at = encode_request_at(req, &mut bytes)?;
        let host_len = req.host().map_or(0, str::len);
        bytes.drain(host_at..host_at + host_len);
        Some(RequestTemplate {
            bytes,
            host_at,
            head: req.method == Method::Head,
            close: request_wants_close(req),
        })
    }

    /// The request with `host` as its `Host` value, encoded into `out`
    /// (cleared first): the bytes `write_request` writes for it.
    pub fn write_for<'a>(&self, host: &str, out: &'a mut Vec<u8>) -> Wire<'a> {
        out.clear();
        out.extend_from_slice(&self.bytes[..self.host_at]);
        out.extend_from_slice(host.as_bytes());
        out.extend_from_slice(&self.bytes[self.host_at..]);
        Wire {
            bytes: out,
            head: self.head,
            close: self.close,
        }
    }
}

/// Identity of a pooled connection: same target, same server name, same
/// transport security. A request may only reuse a connection whose key
/// matches exactly.
type ConnKey = (SocketAddr, String, bool);

/// A connection parked for reuse, with its key.
type Parked = (ConnKey, Box<dyn Connection>);

/// The blocking HTTP client.
///
/// Holds one keep-alive slot: after an exchange whose request *and*
/// response both permit reuse (no `Connection: close`, self-delimiting
/// body framing), the connection is parked and the next exchange with
/// the same `(addr, host, tls)` replays over it instead of dialing. A
/// server-initiated close or any mid-exchange error on a reused
/// connection falls back to exactly one fresh dial.
///
/// Every reply is read into one [`Scratch`], created on first use and
/// kept for the client's life. [`HttpClient::send`] turns it into an
/// owned [`Response`]; [`HttpClient::send_with`] lends it to a callback
/// as a [`ResponseView`], with no allocation per exchange.
pub struct HttpClient<D: Dialer> {
    dialer: D,
    config: ClientConfig,
    idle: Mutex<Idle>,
}

/// What the client keeps between exchanges. Each part is lent to one
/// exchange at a time.
#[derive(Default)]
struct Idle {
    conn: Option<Parked>,
    scratch: Option<Scratch>,
}

/// Does the request opt out of keep-alive?
fn request_wants_close(req: &Request) -> bool {
    req.headers
        .get("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

/// May the connection be reused after this exchange? True only when the
/// response body was self-delimiting (Content-Length, chunked, or
/// bodiless status) — a read-to-EOF body consumes the connection — and
/// the server did not ask to close. Each header is read by its first
/// value.
fn response_permits_reuse(head: bool, resp: &ResponseView<'_>) -> bool {
    if resp
        .header("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    {
        return false;
    }
    head || resp.status == 204
        || resp.status == 304
        || resp.header("content-length").is_some()
        || resp
            .header("transfer-encoding")
            .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"))
}

/// Write `wire` and read the reply into `scratch`, which starts empty as
/// a fresh buffer would: bytes a server sent past its last reply are
/// dropped.
fn roundtrip(
    conn: &mut dyn Connection,
    wire: Wire<'_>,
    scratch: &mut Scratch,
    limits: &Limits,
) -> Result<FastResponse, HttpError> {
    conn.write_all(wire.bytes)?;
    scratch.discard_input();
    scratch.read_response(conn, limits, wire.head)
}

impl<D: Dialer> HttpClient<D> {
    pub fn new(dialer: D, config: ClientConfig) -> HttpClient<D> {
        HttpClient {
            dialer,
            config,
            idle: Mutex::new(Idle::default()),
        }
    }

    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    fn idle(&self) -> std::sync::MutexGuard<'_, Idle> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Take the pooled connection if its key matches.
    fn take_pooled(&self, addr: SocketAddr, host: &str, tls: bool) -> Option<Parked> {
        let mut idle = self.idle();
        match idle.conn.take() {
            Some((key, conn)) if key.0 == addr && key.1 == host && key.2 == tls => {
                Some((key, conn))
            }
            other => {
                idle.conn = other; // wrong key: leave it parked
                None
            }
        }
    }

    /// The one exchange path: write `wire` to `addr`, over the parked
    /// connection when it matches and the request allows it, and read
    /// the reply into the client's scratch, where `inspect` reads it.
    /// Reuse is decided once, from the reply's spans.
    fn exchange<T>(
        &self,
        addr: SocketAddr,
        host: &str,
        tls: bool,
        wire: Wire<'_>,
        inspect: impl FnOnce(&Scratch, &FastResponse) -> T,
    ) -> Result<T, FetchError> {
        let mut scratch = self.idle().scratch.take().unwrap_or_default();
        let result = self
            .dial_or_reuse(addr, host, tls, wire, &mut scratch)
            .map(|(resp, park)| (inspect(&scratch, &resp), park));
        let mut idle = self.idle();
        idle.scratch = Some(scratch);
        result.map(|(out, park)| {
            if let Some(park) = park {
                idle.conn = Some(park);
            }
            out
        })
    }

    /// Run one exchange into `scratch`; also returns the connection to
    /// park, if the exchange permits reuse.
    ///
    /// Transparent keep-alive: unless the request carries
    /// `Connection: close`, the client first tries the parked connection
    /// for this `(addr, host, tls)`; if the server has since closed it
    /// (or the exchange errors mid-stream) it falls back to one fresh
    /// dial, so callers observe at most the errors a fresh-dial-per-send
    /// client would.
    fn dial_or_reuse(
        &self,
        addr: SocketAddr,
        host: &str,
        tls: bool,
        wire: Wire<'_>,
        scratch: &mut Scratch,
    ) -> Result<(FastResponse, Option<Parked>), FetchError> {
        let limits = &self.config.limits;
        let pooling = !wire.close;
        let parked = pooling.then(|| self.take_pooled(addr, host, tls)).flatten();
        if let Some((key, mut conn)) = parked {
            match roundtrip(conn.as_mut(), wire, scratch, limits) {
                Ok(resp) => {
                    fw_obs::counter_inc!("fw.http.conn.reused");
                    let keep = response_permits_reuse(wire.head, &scratch.view(&resp));
                    return Ok((resp, keep.then_some((key, conn))));
                }
                Err(_) => {
                    // Server closed the parked connection (or the
                    // exchange died mid-stream): drop it and fall back
                    // to a fresh dial below.
                    fw_obs::counter_inc!("fw.http.conn.reuse_failed");
                }
            }
        }

        let mut conn = self
            .dialer
            .dial(addr, host, tls, self.config.read_timeout)
            .map_err(FetchError::Dial)?;
        fw_obs::counter_inc!("fw.http.conn.dialed");
        conn.set_read_timeout(Some(self.config.read_timeout))
            .map_err(|e| FetchError::Http(HttpError::Io(e)))?;
        let resp = roundtrip(conn.as_mut(), wire, scratch, limits).map_err(FetchError::Http)?;
        let keep = pooling && response_permits_reuse(wire.head, &scratch.view(&resp));
        Ok((resp, keep.then(|| ((addr, host.to_string(), tls), conn))))
    }

    /// Issue `req` to `addr` (resolved separately — the prober owns
    /// DNS). `host` names the server being contacted; `tls` switches TLS
    /// (with `host` as SNI) on. Pooling follows the keep-alive rules of
    /// [`HttpClient`].
    pub fn send(
        &self,
        addr: SocketAddr,
        host: &str,
        tls: bool,
        req: &Request,
    ) -> Result<Response, FetchError> {
        let mut out = Vec::with_capacity(256 + req.body.len());
        let wire = Wire::encode(req, &mut out);
        self.exchange(addr, host, tls, wire, |scratch, resp| {
            scratch.response(resp)
        })
    }

    /// [`HttpClient::send`] of an encoded request, with the reply lent to
    /// `inspect` as a view into the client's receive buffer instead of
    /// copied out. Same dials, same bytes, same reuse.
    pub fn send_with<T>(
        &self,
        addr: SocketAddr,
        host: &str,
        tls: bool,
        wire: Wire<'_>,
        inspect: impl FnOnce(&ResponseView<'_>) -> T,
    ) -> Result<T, FetchError> {
        self.exchange(addr, host, tls, wire, |scratch, resp| {
            inspect(&scratch.view(resp))
        })
    }

    /// Parameter-free GET of a URL against a resolved address — the §3.3
    /// probe shape: `User-Agent` identifies the research probe.
    pub fn get_url(&self, addr: SocketAddr, url: &Url) -> Result<Response, FetchError> {
        let mut req = Request::get(&url.target(), &url.host);
        req.headers
            .insert("User-Agent", self.config.user_agent.clone());
        req.headers.insert("Accept", "*/*");
        req.headers.insert("Connection", "close");
        self.send(
            SocketAddr::new(addr.ip(), url.port),
            &url.host,
            url.https,
            &req,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::write_response;
    use fw_net::{ClockSource as _, TlsServer};
    use std::sync::Arc;

    fn sim_with_server(tls_cert: Option<&'static str>) -> (SimNet, SocketAddr) {
        let net = SimNet::new(1);
        let addr: SocketAddr = "203.0.113.10:443".parse().unwrap();
        net.listen(
            addr,
            Arc::new(move |conn: Box<dyn Connection>| {
                let mut conn = match tls_cert {
                    Some(cert) => match TlsServer::accept(conn, cert) {
                        Ok((c, _sni)) => c,
                        Err(_) => return,
                    },
                    None => conn,
                };
                let req = match crate::parse::read_request(conn.as_mut(), &Limits::default()) {
                    Ok(r) => r,
                    Err(_) => return,
                };
                let resp = Response::json(200, &format!(r#"{{"path":"{}"}}"#, req.path()));
                let _ = write_response(conn.as_mut(), &resp);
            }),
        );
        (net, addr)
    }

    #[test]
    fn get_over_simulated_tls() {
        let (net, addr) = sim_with_server(Some("*.on.aws"));
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        let url = Url::parse("https://fn.lambda-url.us-east-1.on.aws/").unwrap();
        let resp = client.get_url(addr, &url).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_text(), r#"{"path":"/"}"#);
    }

    #[test]
    fn plain_http_when_url_is_http() {
        let net = SimNet::new(2);
        let addr: SocketAddr = "203.0.113.11:80".parse().unwrap();
        net.listen_fn(addr, |mut conn| {
            let _ = crate::parse::read_request(conn.as_mut(), &Limits::default());
            let _ = write_response(conn.as_mut(), &Response::text(200, "plain"));
        });
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        let url = Url::parse("http://fn.lambda-url.us-east-1.on.aws/").unwrap();
        let resp = client.get_url(addr, &url).unwrap();
        assert_eq!(resp.body_text(), "plain");
    }

    #[test]
    fn tls_cert_mismatch_is_a_dial_error() {
        let (net, addr) = sim_with_server(Some("*.fcapp.run"));
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        let url = Url::parse("https://fn.lambda-url.us-east-1.on.aws/").unwrap();
        match client.get_url(addr, &url) {
            Err(FetchError::Dial(DialError::Tls(TlsError::CertMismatch { .. }))) => {}
            other => panic!("expected cert mismatch, got {other:?}"),
        }
    }

    #[test]
    fn connection_refused_is_a_dial_error() {
        let net = SimNet::new(3);
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        let url = Url::parse("http://nobody.on.aws/").unwrap();
        match client.get_url("203.0.113.99:80".parse().unwrap(), &url) {
            Err(FetchError::Dial(DialError::Connect(e))) => {
                assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused);
            }
            other => panic!("expected refused, got {other:?}"),
        }
    }

    #[test]
    fn keep_alive_reuses_connection_across_sends() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let net = SimNet::new(5);
        let addr: SocketAddr = "203.0.113.20:80".parse().unwrap();
        let accepts = Arc::new(AtomicUsize::new(0));
        let accepts_srv = accepts.clone();
        net.listen(
            addr,
            Arc::new(move |mut conn: Box<dyn Connection>| {
                accepts_srv.fetch_add(1, Ordering::SeqCst);
                // Keep-alive server: answer requests until the peer goes
                // away. write_response always emits Content-Length, so
                // every response is reuse-safe.
                while let Ok(req) = crate::parse::read_request(conn.as_mut(), &Limits::default()) {
                    let resp = Response::text(200, &format!("path={}", req.path()));
                    if write_response(conn.as_mut(), &resp).is_err() {
                        break;
                    }
                }
            }),
        );
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        for i in 0..5 {
            let req = Request::get(&format!("/probe/{i}"), "relay.on.aws");
            let resp = client.send(addr, "relay.on.aws", false, &req).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body_text(), format!("path=/probe/{i}"));
        }
        assert_eq!(accepts.load(Ordering::SeqCst), 1, "one dial for 5 sends");
    }

    #[test]
    fn connection_close_request_bypasses_the_pool() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let net = SimNet::new(6);
        let addr: SocketAddr = "203.0.113.21:80".parse().unwrap();
        let accepts = Arc::new(AtomicUsize::new(0));
        let accepts_srv = accepts.clone();
        net.listen(
            addr,
            Arc::new(move |mut conn: Box<dyn Connection>| {
                accepts_srv.fetch_add(1, Ordering::SeqCst);
                while let Ok(_req) = crate::parse::read_request(conn.as_mut(), &Limits::default()) {
                    if write_response(conn.as_mut(), &Response::text(200, "ok")).is_err() {
                        break;
                    }
                }
            }),
        );
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        for _ in 0..3 {
            let mut req = Request::get("/", "fn.on.aws");
            req.headers.insert("Connection", "close");
            assert_eq!(
                client.send(addr, "fn.on.aws", false, &req).unwrap().status,
                200
            );
        }
        assert_eq!(
            accepts.load(Ordering::SeqCst),
            3,
            "close ⇒ fresh dial each time"
        );
    }

    #[test]
    fn server_initiated_close_falls_back_to_fresh_dial() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let net = SimNet::new(7);
        let addr: SocketAddr = "203.0.113.22:80".parse().unwrap();
        let accepts = Arc::new(AtomicUsize::new(0));
        let accepts_srv = accepts.clone();
        // One-shot server: answers a single request, then hangs up — the
        // parked connection is dead by the time the client reuses it.
        net.listen(
            addr,
            Arc::new(move |mut conn: Box<dyn Connection>| {
                accepts_srv.fetch_add(1, Ordering::SeqCst);
                if let Ok(_req) = crate::parse::read_request(conn.as_mut(), &Limits::default()) {
                    let _ = write_response(conn.as_mut(), &Response::text(200, "once"));
                }
            }),
        );
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        for _ in 0..3 {
            let req = Request::get("/", "oneshot.on.aws");
            let resp = client.send(addr, "oneshot.on.aws", false, &req).unwrap();
            assert_eq!(resp.body_text(), "once");
        }
        assert_eq!(
            accepts.load(Ordering::SeqCst),
            3,
            "every reuse attempt must fall back to a fresh dial"
        );
    }

    #[test]
    fn mid_stream_error_on_reused_connection_falls_back() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let net = SimNet::new(8);
        let addr: SocketAddr = "203.0.113.23:80".parse().unwrap();
        let accepts = Arc::new(AtomicUsize::new(0));
        let accepts_srv = accepts.clone();
        net.listen(
            addr,
            Arc::new(move |mut conn: Box<dyn Connection>| {
                let nth = accepts_srv.fetch_add(1, Ordering::SeqCst);
                if nth == 0 {
                    // First connection: answer one request cleanly, then
                    // die mid-response on the next — a truncated status
                    // line the client cannot parse.
                    if crate::parse::read_request(conn.as_mut(), &Limits::default()).is_ok() {
                        let _ = write_response(conn.as_mut(), &Response::text(200, "first"));
                    }
                    if crate::parse::read_request(conn.as_mut(), &Limits::default()).is_ok() {
                        let _ = conn.write_all(b"HTTP/1.1 2");
                    }
                } else {
                    // Replacement connection behaves.
                    while let Ok(_req) =
                        crate::parse::read_request(conn.as_mut(), &Limits::default())
                    {
                        if write_response(conn.as_mut(), &Response::text(200, "recovered")).is_err()
                        {
                            break;
                        }
                    }
                }
            }),
        );
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        let req = Request::get("/", "flaky.on.aws");
        assert_eq!(
            client
                .send(addr, "flaky.on.aws", false, &req)
                .unwrap()
                .body_text(),
            "first"
        );
        let resp = client.send(addr, "flaky.on.aws", false, &req).unwrap();
        assert_eq!(
            resp.body_text(),
            "recovered",
            "mid-stream error ⇒ fresh dial"
        );
        assert_eq!(accepts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn pool_is_keyed_on_addr_host_and_tls() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let net = SimNet::new(9);
        let addr_a: SocketAddr = "203.0.113.24:80".parse().unwrap();
        let addr_b: SocketAddr = "203.0.113.25:80".parse().unwrap();
        let accepts = Arc::new(AtomicUsize::new(0));
        for addr in [addr_a, addr_b] {
            let accepts_srv = accepts.clone();
            net.listen(
                addr,
                Arc::new(move |mut conn: Box<dyn Connection>| {
                    accepts_srv.fetch_add(1, Ordering::SeqCst);
                    while let Ok(_req) =
                        crate::parse::read_request(conn.as_mut(), &Limits::default())
                    {
                        if write_response(conn.as_mut(), &Response::text(200, "ok")).is_err() {
                            break;
                        }
                    }
                }),
            );
        }
        let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
        let req = Request::get("/", "a.on.aws");
        client.send(addr_a, "a.on.aws", false, &req).unwrap();
        // Different address: parked conn must not be used.
        client.send(addr_b, "a.on.aws", false, &req).unwrap();
        // Back to A: A's conn was displaced by B's, so this dials again.
        client.send(addr_a, "a.on.aws", false, &req).unwrap();
        assert_eq!(accepts.load(Ordering::SeqCst), 3);
    }

    /// One exchange as a caller sees it: status, the first value of a
    /// few headers and the body, or the error.
    type Seen = Result<(u16, Vec<Option<String>>, Vec<u8>), String>;

    const NAMES: [&str; 5] = [
        "content-type",
        "content-length",
        "connection",
        "transfer-encoding",
        "x-tag",
    ];

    /// Send `reqs` in order through one client, by `send` or by
    /// `send_with`, to a fresh network where `serve` handles each
    /// connection (with its accept ordinal). Returns what each exchange
    /// saw and how many connections the server accepted.
    fn drive(
        serve: fn(Box<dyn Connection>, usize, &fw_net::Clock),
        reqs: &[Request],
        view: bool,
    ) -> (Vec<Seen>, usize) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let net = SimNet::new(31);
        let addr: SocketAddr = "203.0.113.40:80".parse().unwrap();
        let accepts = Arc::new(AtomicUsize::new(0));
        let accepts_srv = accepts.clone();
        let clock = net.clock().clone();
        net.listen(
            addr,
            Arc::new(move |conn: Box<dyn Connection>| {
                serve(conn, accepts_srv.fetch_add(1, Ordering::SeqCst), &clock)
            }),
        );
        let client = HttpClient::new(
            SimDialer::new(net),
            ClientConfig {
                read_timeout: Duration::from_millis(50),
                ..ClientConfig::default()
            },
        );
        let mut out = Vec::new();
        let seen = reqs
            .iter()
            .map(|req| {
                let host = req.host().unwrap();
                let got = if view {
                    let wire = Wire::encode(req, &mut out);
                    client.send_with(addr, host, false, wire, |v| {
                        let headers = NAMES.map(|n| v.header(n).map(str::to_string));
                        (v.status, headers.to_vec(), v.body().to_vec())
                    })
                } else {
                    client.send(addr, host, false, req).map(|r| {
                        let headers = NAMES.map(|n| r.headers.get(n).map(str::to_string));
                        (r.status, headers.to_vec(), r.body)
                    })
                };
                got.map_err(|e| e.to_string())
            })
            .collect();
        (seen, accepts.load(Ordering::SeqCst))
    }

    /// Answer every request on the connection with `raw`.
    fn answer_all(mut conn: Box<dyn Connection>, raw: &[u8]) {
        while crate::parse::read_request(conn.as_mut(), &Limits::default()).is_ok() {
            if conn.write_all(raw).is_err() {
                break;
            }
        }
    }

    #[test]
    fn send_and_send_with_see_the_same_replies_and_dials() {
        let gets: Vec<Request> = (0..5)
            .map(|i| Request::get(&format!("/p/{i}"), "fn.on.aws"))
            .collect();
        let closing: Vec<Request> = gets
            .iter()
            .cloned()
            .map(|mut r| {
                r.headers.insert("Connection", "close");
                r
            })
            .collect();
        let mut head = Request::get("/h", "fn.on.aws");
        head.method = Method::Head;
        let heads = vec![head.clone(), head];
        type Case = (
            &'static str,
            fn(Box<dyn Connection>, usize, &fw_net::Clock),
            Option<usize>,
        );
        let cases: [Case; 9] = [
            (
                "keep-alive content-length",
                |mut conn, _, _| {
                    while let Ok(req) =
                        crate::parse::read_request(conn.as_mut(), &Limits::default())
                    {
                        let mut resp = Response::text(200, &format!("path={}", req.path()));
                        resp.headers.insert("X-Tag", "first");
                        resp.headers.insert("x-tag", "second");
                        if write_response(conn.as_mut(), &resp).is_err() {
                            break;
                        }
                    }
                },
                Some(1),
            ),
            (
                "chunked",
                |mut conn, _, _| {
                    while let Ok(req) =
                        crate::parse::read_request(conn.as_mut(), &Limits::default())
                    {
                        let resp = Response::text(200, &format!("chunked reply to {}", req.path()));
                        if crate::parse::write_response_chunked(conn.as_mut(), &resp, 5).is_err() {
                            break;
                        }
                    }
                },
                Some(1),
            ),
            (
                "connection: close",
                |conn, _, _| {
                    answer_all(
                        conn,
                        b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
                    )
                },
                Some(5),
            ),
            (
                // The first value is not `close`, so the connection is
                // parked and every later exchange reuses it.
                "connection: keep-alive, close",
                |conn, _, _| {
                    answer_all(
                        conn,
                        b"HTTP/1.1 200 OK\r\nConnection: keep-alive, close\r\nContent-Length: 2\r\n\r\nok",
                    )
                },
                Some(1),
            ),
            (
                "body to eof",
                |mut conn, _, _| {
                    if crate::parse::read_request(conn.as_mut(), &Limits::default()).is_ok() {
                        let _ = conn.write_all(b"HTTP/1.1 200 OK\r\nX-Tag: eof\r\n\r\nuntil close");
                    }
                },
                Some(5),
            ),
            (
                "204 with a bad content-length",
                |conn, _, _| {
                    answer_all(
                        conn,
                        b"HTTP/1.1 204 No Content\r\nContent-Length: zz\r\n\r\n",
                    )
                },
                Some(1),
            ),
            (
                "hang-up mid-corpus",
                |mut conn, _, _| {
                    for _ in 0..2 {
                        if crate::parse::read_request(conn.as_mut(), &Limits::default()).is_err()
                            || write_response(conn.as_mut(), &Response::text(200, "two")).is_err()
                        {
                            return;
                        }
                    }
                },
                Some(3),
            ),
            (
                "read timeout",
                |mut conn, _, clock| {
                    let mut buf = [0u8; 1024];
                    let _ = conn.read(&mut buf);
                    clock.sleep(Duration::from_millis(300));
                },
                None,
            ),
            (
                // One good reply, then every later connection dies
                // inside a status line.
                "truncated replacement",
                |mut conn, nth, _| {
                    if crate::parse::read_request(conn.as_mut(), &Limits::default()).is_ok() {
                        let raw: &[u8] = if nth == 0 {
                            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirst"
                        } else {
                            b"HTTP/1.1 2"
                        };
                        let _ = conn.write_all(raw);
                    }
                },
                Some(5),
            ),
        ];
        for (name, serve, accepts) in cases {
            let owned = drive(serve, &gets, false);
            let view = drive(serve, &gets, true);
            assert_eq!(view, owned, "{name}");
            if let Some(accepts) = accepts {
                assert_eq!(owned.1, accepts, "{name}: accepts");
            }
            assert_eq!(
                drive(serve, &closing, true),
                drive(serve, &closing, false),
                "{name}: close"
            );
            assert_eq!(
                drive(serve, &heads, true),
                drive(serve, &heads, false),
                "{name}: head"
            );
        }
        // Spot-check what the cases pin.
        let (seen, _) = drive(cases[0].1, &gets, true);
        let (status, headers, body) = seen[3].clone().unwrap();
        assert_eq!((status, body.as_slice()), (200, &b"path=/p/3"[..]));
        assert_eq!(headers[4].as_deref(), Some("first"));
        let (seen, accepts) = drive(cases[1].1, &gets, true);
        assert_eq!(seen[0].clone().unwrap().2, b"chunked reply to /p/0");
        assert_eq!(accepts, 1);
        assert_eq!(drive(cases[2].1, &closing, true).1, 5);
        let (seen, _) = drive(cases[7].1, &gets, true);
        assert!(seen
            .iter()
            .all(|s| s.as_ref().unwrap_err().contains("timed out")));
        let (seen, _) = drive(cases[8].1, &gets, true);
        assert_eq!(seen[0].clone().unwrap().2, b"first");
        assert!(seen[1..]
            .iter()
            .all(|s| s.as_ref().unwrap_err().contains("parse")));
    }

    #[test]
    fn request_template_splices_any_host() {
        let mut req = Request::get("/t?q=1", "placeholder.example");
        req.headers.insert("X-Before", "b");
        req.method = Method::Post;
        req.body = b"0123456789".to_vec();
        let tpl = RequestTemplate::new(&req).unwrap();
        let mut out = Vec::new();
        for host in ["a.on.aws", "", "UPPER.Example.COM"] {
            let mut want = Vec::new();
            let mut moved = Request::get("/t?q=1", host);
            moved.headers.insert("X-Before", "b");
            moved.method = Method::Post;
            moved.body = b"0123456789".to_vec();
            encode_request(&moved, &mut want);
            assert_eq!(tpl.write_for(host, &mut out).bytes(), want);
        }
        // A Host field after others is spliced where it stands.
        let mut late = Request::get("/", "x.example");
        late.headers = crate::types::HeaderMap::new();
        late.headers.insert("X-First", "1");
        late.headers.insert("host", "x.example");
        late.headers.insert("Connection", "close");
        let tpl = RequestTemplate::new(&late).unwrap();
        assert_eq!(
            tpl.write_for("y.example", &mut out).bytes(),
            b"GET / HTTP/1.1\r\nX-First: 1\r\nhost: y.example\r\nConnection: close\r\n\r\n"
        );
        assert!(tpl.write_for("y.example", &mut out).close);
        late.headers.remove("host");
        assert!(RequestTemplate::new(&late).is_none());
    }

    #[test]
    fn timeout_on_silent_server() {
        let net = SimNet::new(4);
        let addr: SocketAddr = "203.0.113.12:80".parse().unwrap();
        let handler_clock = net.clock().clone();
        net.listen_fn(addr, move |mut conn| {
            // Read the request but never answer: park on the (virtual)
            // clock well past the client's timeout before hanging up.
            let mut buf = [0u8; 1024];
            let _ = conn.read(&mut buf);
            handler_clock.sleep(Duration::from_millis(300));
        });
        let client = HttpClient::new(
            SimDialer::new(net),
            ClientConfig {
                read_timeout: Duration::from_millis(50),
                ..ClientConfig::default()
            },
        );
        let url = Url::parse("http://silent.on.aws/").unwrap();
        match client.get_url(addr, &url) {
            Err(FetchError::Http(e)) => assert!(e.is_timeout(), "{e:?}"),
            other => panic!("expected timeout, got {other:?}"),
        }
    }
}
