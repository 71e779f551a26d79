//! Request-parse microbenchmarks: the two drivers of the one HTTP/1.1
//! grammar over identical wire bytes — the owned `read_request` (fresh
//! buffer and `String`s per message) vs `read_request_fast` (spans into
//! a reused `Scratch`).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fw_http::fast::{read_request_fast, Scratch};
use fw_http::parse::{read_request, Limits};
use fw_net::Connection;
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// Endless connection replaying one serialized request, handing out at
/// most one request's bytes per `read` call (mirrors request/response
/// pacing, where a server never sees the next request early).
#[derive(Debug)]
struct LoopConn {
    msg: Vec<u8>,
    pos: usize,
}

impl LoopConn {
    fn new(msg: Vec<u8>) -> LoopConn {
        LoopConn { msg, pos: 0 }
    }
}

impl Connection for LoopConn {
    fn write_all(&mut self, _buf: &[u8]) -> io::Result<()> {
        Ok(())
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = (self.msg.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.msg[self.pos..self.pos + n]);
        self.pos += n;
        if self.pos == self.msg.len() {
            self.pos = 0;
        }
        Ok(n)
    }
    fn set_read_timeout(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
        Ok(())
    }
    fn shutdown_write(&mut self) {}
    fn peer_addr(&self) -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }
}

fn wire_get() -> Vec<u8> {
    b"GET /v1/verdict/a1b2c3d4e5f6.lambda-url.us-east-1.on.aws HTTP/1.1\r\nHost: api.faaswild.sim\r\n\r\n".to_vec()
}

fn wire_headers() -> Vec<u8> {
    b"GET /v1/candidates?offset=20&limit=20 HTTP/1.1\r\nHost: api.faaswild.sim\r\nUser-Agent: fw-bench/1.0\r\nAccept: application/json\r\nAccept-Encoding: identity\r\nX-Request-Id: 0123456789abcdef\r\n\r\n"
        .to_vec()
}

fn wire_post() -> Vec<u8> {
    let body = vec![b'x'; 256];
    let mut w = format!(
        "POST /ingest HTTP/1.1\r\nHost: api.faaswild.sim\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    w.extend_from_slice(&body);
    w
}

fn wire_chunked() -> Vec<u8> {
    let mut w =
        b"POST /ingest HTTP/1.1\r\nHost: api.faaswild.sim\r\nTransfer-Encoding: chunked\r\n\r\n"
            .to_vec();
    for chunk in [&b"hello "[..], &b"chunked "[..], &b"world"[..]] {
        w.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        w.extend_from_slice(chunk);
        w.extend_from_slice(b"\r\n");
    }
    w.extend_from_slice(b"0\r\n\r\n");
    w
}

fn bench_parse(c: &mut Criterion) {
    let limits = Limits::default();
    let cases = [
        ("get_small", wire_get()),
        ("get_headers", wire_headers()),
        ("post_body", wire_post()),
        ("post_chunked", wire_chunked()),
    ];
    for (name, wire) in cases {
        let group_name = format!("http_parse/{name}");
        let mut g = c.benchmark_group(&group_name);
        g.throughput(Throughput::Bytes(wire.len() as u64));
        let mut owned_conn = LoopConn::new(wire.clone());
        g.bench_function("owned", |b| {
            b.iter(|| {
                let req = read_request(&mut owned_conn, &limits).unwrap();
                black_box(req.target.len())
            })
        });
        let mut scratch_conn = LoopConn::new(wire.clone());
        let mut scratch = Scratch::new();
        g.bench_function("scratch", |b| {
            b.iter(|| {
                let req = read_request_fast(&mut scratch_conn, &mut scratch, &limits).unwrap();
                black_box(scratch.target(&req).len())
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench_parse);
criterion_main!(benches);
