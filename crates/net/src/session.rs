//! Sans-IO server sessions.
//!
//! A [`Session`] is a server connection's protocol logic with no I/O of
//! its own: the driver hands it the bytes the client wrote, and it
//! answers by appending to an [`Outbox`] — reply bytes, optionally held
//! back for a delay, and finally a close. Two drivers run the same
//! session:
//!
//! * [`drive`], the blocking driver: reads a [`Connection`] on the
//!   calling thread (a `SimNet::listen` handler thread, a real TCP
//!   accept loop) and writes the outbox back to it;
//! * the inline driver behind `SimNet::listen_inline`, which runs the
//!   session on the *client's* thread inside its `write_all`, so a
//!   request/response exchange costs no thread switch and no clock
//!   handoff.

use crate::conn::Connection;
use crate::vclock::{Clock, ClockSource as _};
use std::time::Duration;

/// Server-side protocol logic, driven by bytes in, bytes out.
pub trait Session: Send {
    /// Bytes the client wrote, in arrival order.
    fn feed(&mut self, input: &[u8], out: &mut Outbox);

    /// The client closed its write side (EOF).
    fn finish(&mut self, out: &mut Outbox);
}

/// One server write: the bytes up to `end` in the outbox buffer, sent
/// after waiting `delay` from the previous write.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    end: usize,
    delay: Duration,
}

/// What a session sends back, in order.
///
/// Each send is one server write — the unit the fault layer draws a
/// fate for, exactly like one `write_all` of a blocking handler. A send
/// with a delay first waits (virtual time on a virtual clock), as a
/// handler sleeping before its write would.
#[derive(Debug, Default)]
pub struct Outbox {
    data: Vec<u8>,
    chunks: Vec<Chunk>,
    closed: bool,
}

impl Outbox {
    pub fn new() -> Outbox {
        Outbox::default()
    }

    /// Send `bytes` now (after any earlier delayed write).
    pub fn send(&mut self, bytes: &[u8]) {
        self.send_with(Duration::ZERO, |buf| buf.extend_from_slice(bytes));
    }

    /// Wait `delay`, then send whatever `render` appends to the buffer
    /// (no intermediate copy).
    pub fn send_with(&mut self, delay: Duration, render: impl FnOnce(&mut Vec<u8>)) {
        render(&mut self.data);
        self.chunks.push(Chunk {
            end: self.data.len(),
            delay,
        });
    }

    /// Close the server's side once everything sent so far is out. A
    /// closed session receives no further input.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Has the session closed?
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Bytes queued so far (a mark for [`Outbox::bytes_from_mut`]).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The queued bytes from `mark` on, for in-place transforms that
    /// keep write boundaries (the TLS layer scrambles them).
    pub fn bytes_from_mut(&mut self, mark: usize) -> &mut [u8] {
        &mut self.data[mark..]
    }

    /// The queued writes, oldest first: `(delay before, bytes)`.
    pub fn writes(&self) -> impl Iterator<Item = (Duration, &[u8])> + '_ {
        let mut start = 0;
        self.chunks.iter().map(move |c| {
            let bytes = &self.data[start..c.end];
            start = c.end;
            (c.delay, bytes)
        })
    }

    /// Drop the queued writes (the close flag stays).
    pub fn clear(&mut self) {
        self.data.clear();
        self.chunks.clear();
    }
}

/// The blocking driver: run `session` over `conn` on this thread until
/// it closes, the client hangs up, or a read or write fails. Delayed
/// writes sleep on `clock`. Ends with `shutdown_write`.
pub fn drive(conn: &mut dyn Connection, session: &mut dyn Session, clock: &Clock) {
    let mut out = Outbox::new();
    let mut chunk = [0u8; 8 * 1024];
    loop {
        match conn.read(&mut chunk) {
            Ok(0) => {
                session.finish(&mut out);
                flush(conn, &mut out, clock);
                break;
            }
            Ok(n) => session.feed(&chunk[..n], &mut out),
            Err(_) => break,
        }
        if !flush(conn, &mut out, clock) || out.is_closed() {
            break;
        }
    }
    conn.shutdown_write();
}

/// Write the outbox to `conn`; false once a write fails.
fn flush(conn: &mut dyn Connection, out: &mut Outbox, clock: &Clock) -> bool {
    let mut ok = true;
    for (delay, bytes) in out.writes() {
        if !delay.is_zero() {
            clock.sleep(delay);
        }
        if conn.write_all(bytes).is_err() {
            ok = false;
            break;
        }
    }
    out.clear();
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::pipe_pair;

    /// Echoes each input upper-cased; closes on `q`.
    struct Upper;

    impl Session for Upper {
        fn feed(&mut self, input: &[u8], out: &mut Outbox) {
            out.send(&input.to_ascii_uppercase());
            if input.contains(&b'q') {
                out.close();
            }
        }
        fn finish(&mut self, out: &mut Outbox) {
            out.send(b"bye");
            out.close();
        }
    }

    #[test]
    fn outbox_keeps_write_boundaries_and_delays() {
        let mut out = Outbox::new();
        out.send(b"ab");
        out.send_with(Duration::from_millis(5), |buf| {
            buf.extend_from_slice(b"cde")
        });
        let mark = out.len();
        out.send(b"f");
        out.bytes_from_mut(mark)[0] = b'F';
        let writes: Vec<(Duration, Vec<u8>)> = out.writes().map(|(d, b)| (d, b.to_vec())).collect();
        assert_eq!(
            writes,
            vec![
                (Duration::ZERO, b"ab".to_vec()),
                (Duration::from_millis(5), b"cde".to_vec()),
                (Duration::ZERO, b"F".to_vec()),
            ]
        );
        out.clear();
        assert!(out.is_empty() && !out.is_closed());
    }

    #[test]
    fn blocking_driver_answers_until_close() {
        let (mut client, mut server) = pipe_pair(
            "10.0.0.1:50000".parse().unwrap(),
            "203.0.113.1:80".parse().unwrap(),
        );
        let srv = std::thread::spawn(move || drive(&mut server, &mut Upper, &Clock::Wall));
        let mut buf = [0u8; 16];
        client.write_all(b"hi").unwrap();
        client.read_exact(&mut buf[..2]).unwrap();
        assert_eq!(&buf[..2], b"HI");
        client.write_all(b"q").unwrap();
        client.read_exact(&mut buf[..1]).unwrap();
        assert_eq!(client.read(&mut buf).unwrap(), 0, "closed after q");
        srv.join().unwrap();
    }

    #[test]
    fn blocking_driver_finishes_on_eof() {
        let (mut client, mut server) = pipe_pair(
            "10.0.0.1:50000".parse().unwrap(),
            "203.0.113.1:80".parse().unwrap(),
        );
        let srv = std::thread::spawn(move || drive(&mut server, &mut Upper, &Clock::Wall));
        client.shutdown_write();
        let mut buf = [0u8; 8];
        client.read_exact(&mut buf[..3]).unwrap();
        assert_eq!(&buf[..3], b"bye");
        assert_eq!(client.read(&mut buf).unwrap(), 0);
        srv.join().unwrap();
    }
}
