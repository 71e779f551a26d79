//! # fw-http
//!
//! A from-scratch blocking HTTP/1.1 implementation over the byte-stream
//! [`fw_net::Connection`] abstraction — the protocol layer both the active
//! prober (paper §3.3) and the simulated cloud ingress speak.
//!
//! * [`types`] — methods, status codes, case-insensitive header map,
//!   request/response representations.
//! * [`url`] — `http(s)://host[:port]/path?query` parsing.
//! * [`parse`] — the one HTTP/1.1 framing grammar over buffered bytes,
//!   with size limits and body framing via `Content-Length`,
//!   `Transfer-Encoding: chunked`, or read-to-EOF.
//! * [`fast`] — the fw-serve hot path: the same grammar over a reusable
//!   receive buffer, without per-message allocations, plus renderers.
//! * [`client`] — request serialization + response reading with deadlines,
//!   over any [`Dialer`] (simulated network or real TCP).
//! * [`server`] — the keep-alive serve loop as a sans-IO session, run
//!   inline by the cloud ingress nodes or blocking over a connection.
//!
//! The parser is defensive: header/body size caps, typed errors, no panics
//! on malformed input (property-tested in `tests/`).

pub mod client;
pub mod fast;
pub mod parse;
pub mod server;
pub mod types;
pub mod url;

pub use client::{ClientConfig, Dialer, HttpClient, RequestTemplate, SimDialer, TcpDialer, Wire};
pub use fast::{FastRequest, FastResponse, Scratch};
pub use parse::HttpError;
pub use types::{HeaderMap, Method, Request, Response, ResponseView};
pub use url::Url;
