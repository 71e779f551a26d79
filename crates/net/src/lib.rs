//! # fw-net
//!
//! The network substrate: an in-memory simulated internet that carries real
//! byte streams between a client and per-listener service handlers, plus a
//! `std::net::TcpStream` adapter so the exact same HTTP code also runs over
//! the host's loopback (see `examples/live_probe.rs`).
//!
//! Design notes (smoltcp-inspired):
//!
//! * **Byte streams, not request objects.** Connections are duplex pipes of
//!   bytes with blocking reads, deadlines, and explicit shutdown; protocol
//!   layers (`fw-http`, the raw C2 prober) parse bytes themselves, so the
//!   simulator cannot "cheat" by passing structured data around.
//! * **Fault injection is a first-class feature.** Like smoltcp's example
//!   suite, the simulated network can drop or corrupt written chunks, delay
//!   delivery, and refuse or reset connections, all with configurable
//!   probabilities ([`FaultConfig`]) driven by a seeded RNG.
//! * **TLS is simulated at the framing level** ([`tls`]): a tiny handshake
//!   with SNI and a certificate-name check. It gives the prober a real
//!   HTTPS-then-HTTP fallback decision to make without re-implementing
//!   X.509.
//! * **Time is virtual by default** ([`vclock`]): a discrete-event clock
//!   turns every timeout and injected delay into a scheduled event, so
//!   probing sweeps are byte-reproducible and never sleep for real. The
//!   wall clock remains available behind the same [`ClockSource`] trait.

pub mod conn;
pub mod fault;
pub mod session;
pub mod sim;
pub mod tcp;
pub mod tls;
pub mod vclock;

pub use conn::{pipe_pair, Connection, PipeConn};
pub use fault::FaultConfig;
pub use session::{Outbox, Session};
pub use sim::{NetStats, SimNet};
pub use tls::{TlsClient, TlsError, TlsServer, TlsServerSession};
pub use vclock::{Clock, ClockSource, VClock, WallClock};
