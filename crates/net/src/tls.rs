//! Simulated TLS.
//!
//! The paper's prober "used HTTPS, falling back to HTTP on failure"; the
//! cloud providers present wildcard certificates on their ingress nodes.
//! To exercise that decision logic without re-implementing X.509, this
//! module defines a tiny handshake:
//!
//! ```text
//! client → server:  "FWTLS" 0x01  u16 len  <sni bytes>
//! server → client:  "FWTLS" 0x02  u16 len  <certificate name pattern>
//! ```
//!
//! The client verifies the SNI against the certificate pattern (a literal
//! name or `*.suffix` wildcard). After the handshake both directions are
//! XOR-scrambled with a key derived from the handshake, so wire bytes are
//! not plaintext — protocol layers genuinely cannot peek past the
//! transport.

use crate::conn::Connection;
use crate::session::{Outbox, Session};
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const MAGIC: &[u8; 5] = b"FWTLS";
const CLIENT_HELLO: u8 = 0x01;
const SERVER_HELLO: u8 = 0x02;
const MAX_NAME: usize = 512;

/// TLS handshake failure.
#[derive(Debug)]
pub enum TlsError {
    /// The peer did not speak the simulated TLS protocol.
    NotTls,
    /// Certificate name does not cover the requested SNI.
    CertMismatch { cert: String, sni: String },
    /// Transport error during handshake.
    Io(io::Error),
}

impl fmt::Display for TlsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TlsError::NotTls => write!(f, "peer is not a tls endpoint"),
            TlsError::CertMismatch { cert, sni } => {
                write!(f, "certificate {cert:?} does not match sni {sni:?}")
            }
            TlsError::Io(e) => write!(f, "tls handshake io error: {e}"),
        }
    }
}

impl std::error::Error for TlsError {}

impl From<io::Error> for TlsError {
    fn from(e: io::Error) -> Self {
        TlsError::Io(e)
    }
}

/// Does a certificate name pattern cover an SNI?
///
/// `*.suffix` covers any name ending in `.suffix`; otherwise exact match.
pub fn cert_matches(cert: &str, sni: &str) -> bool {
    if let Some(suffix) = cert.strip_prefix("*.") {
        sni.len() > suffix.len() + 1
            && sni.ends_with(suffix)
            && sni.as_bytes()[sni.len() - suffix.len() - 1] == b'.'
    } else {
        cert.eq_ignore_ascii_case(sni)
    }
}

fn derive_key(sni: &[u8], cert: &[u8]) -> u8 {
    let a = sni.iter().fold(0x5au8, |acc, b| acc ^ b.rotate_left(1));
    let b = cert.iter().fold(0xa5u8, |acc, c| acc ^ c.rotate_left(3));
    a ^ b
}

/// A handshake frame on the wire.
fn encode_frame(kind: u8, name: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + name.len());
    frame.extend_from_slice(MAGIC);
    frame.push(kind);
    frame.extend_from_slice(&(name.len() as u16).to_be_bytes());
    frame.extend_from_slice(name);
    frame
}

/// Validate a frame's 8-byte header; returns the name length.
fn frame_len(head: &[u8], expect_kind: u8) -> Result<usize, TlsError> {
    if &head[..5] != MAGIC || head[5] != expect_kind {
        return Err(TlsError::NotTls);
    }
    let len = u16::from_be_bytes([head[6], head[7]]) as usize;
    if len > MAX_NAME {
        return Err(TlsError::NotTls);
    }
    Ok(len)
}

fn write_frame(conn: &mut dyn Connection, kind: u8, name: &[u8]) -> io::Result<()> {
    conn.write_all(&encode_frame(kind, name))
}

fn read_frame(conn: &mut dyn Connection, expect_kind: u8) -> Result<Vec<u8>, TlsError> {
    let mut head = [0u8; 8];
    conn.read_exact(&mut head)?;
    let len = frame_len(&head, expect_kind)?;
    let mut name = vec![0u8; len];
    conn.read_exact(&mut name)?;
    Ok(name)
}

/// The XOR keystream of one direction: every byte is XORed with the
/// session key and a per-direction byte counter.
#[derive(Debug, Clone, Copy)]
struct Cipher {
    key: u8,
    ctr: u8,
}

impl Cipher {
    fn new(key: u8) -> Cipher {
        Cipher { key, ctr: 0 }
    }

    fn apply(&mut self, buf: &mut [u8]) {
        for b in buf {
            *b ^= self.key ^ self.ctr;
            self.ctr = self.ctr.wrapping_add(1);
        }
    }
}

/// A scrambled stream over an inner connection (both roles use this after
/// their handshake).
struct Scrambled<C: Connection> {
    inner: C,
    read: Cipher,
    write: Cipher,
}

impl<C: Connection> Scrambled<C> {
    fn new(inner: C, key: u8) -> Scrambled<C> {
        Scrambled {
            inner,
            read: Cipher::new(key),
            write: Cipher::new(key),
        }
    }
}

impl<C: Connection> fmt::Debug for Scrambled<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scrambled")
            .field("inner", &self.inner)
            .finish()
    }
}

impl<C: Connection> Connection for Scrambled<C> {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut copy = buf.to_vec();
        self.write.apply(&mut copy);
        self.inner.write_all(&copy)
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read.apply(&mut buf[..n]);
        Ok(n)
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn shutdown_write(&mut self) {
        self.inner.shutdown_write()
    }

    fn peer_addr(&self) -> SocketAddr {
        self.inner.peer_addr()
    }
}

/// Client-side simulated TLS.
pub struct TlsClient;

impl TlsClient {
    /// Perform the client handshake over `conn` with the given SNI.
    /// On success returns a scrambled [`Connection`].
    pub fn handshake(
        mut conn: Box<dyn Connection>,
        sni: &str,
    ) -> Result<Box<dyn Connection>, TlsError> {
        write_frame(conn.as_mut(), CLIENT_HELLO, sni.as_bytes())?;
        let cert = read_frame(conn.as_mut(), SERVER_HELLO)?;
        let cert_str = String::from_utf8_lossy(&cert).to_string();
        if !cert_matches(&cert_str, sni) {
            return Err(TlsError::CertMismatch {
                cert: cert_str,
                sni: sni.to_string(),
            });
        }
        let key = derive_key(sni.as_bytes(), &cert);
        Ok(Box::new(Scrambled::new(conn, key)))
    }
}

/// The server's answer to a client hello: the ServerHello frame to send
/// and the session key. Shared by the blocking and sans-IO servers.
fn server_hello(sni: &[u8], cert_name: &str) -> (Vec<u8>, u8) {
    (
        encode_frame(SERVER_HELLO, cert_name.as_bytes()),
        derive_key(sni, cert_name.as_bytes()),
    )
}

/// Server-side simulated TLS.
pub struct TlsServer;

impl TlsServer {
    /// Accept a client handshake, presenting `cert_name`. Returns the
    /// scrambled connection and the SNI the client sent.
    pub fn accept(
        mut conn: Box<dyn Connection>,
        cert_name: &str,
    ) -> Result<(Box<dyn Connection>, String), TlsError> {
        let sni = read_frame(conn.as_mut(), CLIENT_HELLO)?;
        let (hello, key) = server_hello(&sni, cert_name);
        conn.write_all(&hello)?;
        let sni_str = String::from_utf8_lossy(&sni).to_string();
        Ok((Box::new(Scrambled::new(conn, key)), sni_str))
    }

    /// One sans-IO server handshake step over the bytes buffered so
    /// far: `Ok(None)` until the whole client hello is in; then the
    /// ServerHello frame to send, the session key and the number of
    /// bytes the hello used. Fails exactly where [`TlsServer::accept`]
    /// would: [`TlsError::NotTls`] as soon as the 8-byte header is
    /// wrong.
    fn accept_step(buf: &[u8], cert_name: &str) -> Result<Option<(Vec<u8>, u8, usize)>, TlsError> {
        if buf.len() < 8 {
            return Ok(None);
        }
        let len = frame_len(&buf[..8], CLIENT_HELLO)?;
        if buf.len() < 8 + len {
            return Ok(None);
        }
        let (hello, key) = server_hello(&buf[8..8 + len], cert_name);
        Ok(Some((hello, key, 8 + len)))
    }
}

enum TlsState {
    /// Buffering the client hello.
    Hello(Vec<u8>),
    Open {
        read: Cipher,
        write: Cipher,
    },
    /// Handshake failed; the connection is closed.
    Failed,
}

/// Sans-IO simulated TLS in front of an inner [`Session`]: the server
/// half of [`TlsServer::accept`] as a session. It answers the client
/// hello, then descrambles input for `inner` and scrambles whatever
/// `inner` sends, keeping its write boundaries and delays. A broken
/// handshake (wrong header, or EOF mid-hello) closes without a reply,
/// as the blocking server's handler would return.
pub struct TlsServerSession<S> {
    cert: Arc<str>,
    state: TlsState,
    inner: S,
    plain: Vec<u8>,
}

impl<S: Session> TlsServerSession<S> {
    pub fn new(cert: Arc<str>, inner: S) -> TlsServerSession<S> {
        TlsServerSession {
            cert,
            state: TlsState::Hello(Vec::new()),
            inner,
            plain: Vec::new(),
        }
    }

    /// Descramble `input`, feed it to the inner session and scramble
    /// its replies in place.
    fn pass(&mut self, input: &[u8], out: &mut Outbox) {
        let TlsState::Open { read, write } = &mut self.state else {
            return;
        };
        self.plain.clear();
        self.plain.extend_from_slice(input);
        read.apply(&mut self.plain);
        let mark = out.len();
        self.inner.feed(&self.plain, out);
        write.apply(out.bytes_from_mut(mark));
    }
}

impl<S: Session> Session for TlsServerSession<S> {
    fn feed(&mut self, input: &[u8], out: &mut Outbox) {
        let TlsState::Hello(buf) = &mut self.state else {
            self.pass(input, out);
            return;
        };
        buf.extend_from_slice(input);
        match TlsServer::accept_step(buf, &self.cert) {
            Ok(None) => {}
            Ok(Some((hello, key, used))) => {
                let rest = buf.split_off(used);
                out.send(&hello);
                self.state = TlsState::Open {
                    read: Cipher::new(key),
                    write: Cipher::new(key),
                };
                if !rest.is_empty() {
                    self.pass(&rest, out);
                }
            }
            Err(_) => {
                self.state = TlsState::Failed;
                out.close();
            }
        }
    }

    fn finish(&mut self, out: &mut Outbox) {
        if let TlsState::Open { write, .. } = &mut self.state {
            let mark = out.len();
            self.inner.finish(out);
            write.apply(out.bytes_from_mut(mark));
        } else {
            // EOF mid-hello: `accept` fails with UnexpectedEof.
            self.state = TlsState::Failed;
            out.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::pipe_pair;

    fn pair() -> (Box<dyn Connection>, Box<dyn Connection>) {
        let (a, b) = pipe_pair(
            "10.0.0.1:50000".parse().unwrap(),
            "203.0.113.1:443".parse().unwrap(),
        );
        (Box::new(a), Box::new(b))
    }

    #[test]
    fn cert_matching_rules() {
        assert!(cert_matches(
            "*.scf.tencentcs.com",
            "a-b-gz.scf.tencentcs.com"
        ));
        assert!(!cert_matches("*.scf.tencentcs.com", "scf.tencentcs.com"));
        assert!(!cert_matches("*.scf.tencentcs.com", "evil.com"));
        assert!(cert_matches("exact.on.aws", "EXACT.on.aws"));
        assert!(!cert_matches("exact.on.aws", "other.on.aws"));
    }

    #[test]
    fn handshake_and_scrambled_exchange() {
        let (client_raw, server_raw) = pair();
        let server = std::thread::spawn(move || {
            let (mut conn, sni) = TlsServer::accept(server_raw, "*.on.aws").unwrap();
            assert_eq!(sni, "fn.lambda-url.us-east-1.on.aws");
            let mut buf = [0u8; 32];
            let n = conn.read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"GET / HTTP/1.1");
            conn.write_all(b"HTTP/1.1 200 OK").unwrap();
        });
        let mut conn = TlsClient::handshake(client_raw, "fn.lambda-url.us-east-1.on.aws").unwrap();
        conn.write_all(b"GET / HTTP/1.1").unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buf = [0u8; 32];
        let n = conn.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"HTTP/1.1 200 OK");
        server.join().unwrap();
    }

    #[test]
    fn cert_mismatch_rejected() {
        let (client_raw, server_raw) = pair();
        let server = std::thread::spawn(move || {
            // Present a certificate for the wrong domain.
            let _ = TlsServer::accept(server_raw, "*.fcapp.run");
        });
        let err = TlsClient::handshake(client_raw, "fn.on.aws").unwrap_err();
        assert!(matches!(err, TlsError::CertMismatch { .. }));
        server.join().unwrap();
    }

    #[test]
    fn non_tls_server_detected() {
        let (client_raw, mut server_raw) = pair();
        let server = std::thread::spawn(move || {
            // A plain-HTTP server that answers without reading the hello.
            let mut buf = [0u8; 64];
            let _ = server_raw.read(&mut buf);
            let _ = server_raw.write_all(b"HTTP/1.1 400 Bad Request\r\n\r\n");
        });
        let err = TlsClient::handshake(client_raw, "fn.on.aws").unwrap_err();
        assert!(matches!(err, TlsError::NotTls | TlsError::Io(_)));
        server.join().unwrap();
    }

    #[test]
    fn wire_bytes_are_not_plaintext() {
        // Handshake through an intercepting pipe and verify the payload is
        // scrambled on the wire.
        let (client_raw, server_raw) = pair();
        let payload = b"SECRET-TOKEN-sk-12345";
        let server = std::thread::spawn(move || {
            let (mut conn, _) = TlsServer::accept(server_raw, "*.on.aws").unwrap();
            let mut buf = vec![0u8; payload.len()];
            conn.read_exact(&mut buf).unwrap();
            buf
        });
        let mut conn = TlsClient::handshake(client_raw, "fn.on.aws").unwrap();
        conn.write_all(payload).unwrap();
        let received = server.join().unwrap();
        assert_eq!(received, payload); // endpoint sees plaintext
                                       // (The wire carried scrambled bytes — verified indirectly: a
                                       // Scrambled stream with key 0 would be identity, so check the key
                                       // derivation is non-trivial for this handshake.)
        assert_ne!(derive_key(b"fn.on.aws", b"*.on.aws"), 0);
    }
}
