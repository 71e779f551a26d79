//! The HTTP/1.1 framing oracle: a committed corpus of
//! `(input bytes, Limits, outcome)` cases that both entry points of the
//! parser must reproduce — the owned readers ([`read_request`],
//! [`read_response`]) and the `Scratch` readers ([`read_request_fast`],
//! [`read_response_fast`]).
//!
//! # How the corpus was made
//!
//! `tests/corpus/http_oracle.tsv` was written by the ignored test
//! [`write_corpus`] below, run once against the scalar `read_request` /
//! `read_response` that predate the shared span grammar:
//!
//! ```text
//! cargo test -p fw-http --test oracle_corpus -- --ignored write_corpus
//! ```
//!
//! The inputs come from [`cases`]: hand-written valid requests and
//! responses (plain, chunked, to-EOF), pipelined pairs, every truncation
//! point of a few messages, each valid message under tight limits and at
//! its exact limit boundaries, the malformed cases of the old `fast.rs`
//! unit tests plus one input per parse error, one-byte mutations of
//! valid messages, and random garbage — all drawn from a fixed-seed
//! SplitMix64, so the same code regenerates the same inputs. Each input
//! is fed whole into a closed pipe; the outcome is what the owned reader
//! returned. Response inputs are recorded twice, with `head_request`
//! false (`resp`) and true (`head`).
//!
//! The file is the contract: the outcomes must not be regenerated from
//! the code under test to make this pass. A deliberate change of
//! framing behaviour edits the affected lines by hand and says why.
//!
//! # Format
//!
//! One case per line, tab-separated:
//! `kind  max_head  max_body  input  outcome...`, where `kind` is `req`,
//! `resp` or `head`, bytes are escaped (`\\`, `\r`, `\n`, `\t`, `\xNN`;
//! other printable ASCII as is), and the outcome is either `err  <key>`
//! (`parse:<msg>`, `toolarge:<what>`, `eof`, `io:<kind>`) or
//! `ok  <method|status>  <target|reason>  <headers>  <body>` with the
//! headers rendered as `name:value\n` in wire order.

use fw_http::fast::{read_request_fast, read_response_fast, Scratch};
use fw_http::parse::{read_request, read_response, HttpError, Limits};
use fw_net::{pipe_pair, Connection, PipeConn};
use std::fmt::Write as _;
use std::path::PathBuf;

fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/http_oracle.tsv")
}

/// A closed pipe holding exactly `input`.
fn closed(input: &[u8]) -> PipeConn {
    let (mut a, b) = pipe_pair(
        "10.0.0.1:50000".parse().unwrap(),
        "203.0.113.1:80".parse().unwrap(),
    );
    a.write_all(input).unwrap();
    a.shutdown_write();
    b
}

fn esc(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len());
    for &b in bytes {
        match b {
            b'\\' => s.push_str("\\\\"),
            b'\r' => s.push_str("\\r"),
            b'\n' => s.push_str("\\n"),
            b'\t' => s.push_str("\\t"),
            0x20..=0x7e => s.push(b as char),
            _ => write!(s, "\\x{b:02x}").unwrap(),
        }
    }
    s
}

fn unesc(s: &str) -> Vec<u8> {
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        if b[i] != b'\\' {
            out.push(b[i]);
            i += 1;
            continue;
        }
        match b[i + 1] {
            b'\\' => out.push(b'\\'),
            b'r' => out.push(b'\r'),
            b'n' => out.push(b'\n'),
            b't' => out.push(b'\t'),
            b'x' => {
                let hex = std::str::from_utf8(&b[i + 2..i + 4]).unwrap();
                out.push(u8::from_str_radix(hex, 16).unwrap());
                i += 2;
            }
            other => panic!("bad escape \\{}", other as char),
        }
        i += 2;
    }
    out
}

fn err_key(e: &HttpError) -> String {
    match e {
        HttpError::Io(io) => format!("io:{:?}", io.kind()),
        HttpError::Parse(m) => format!("parse:{m}"),
        HttpError::TooLarge(w) => format!("toolarge:{w}"),
        HttpError::Eof => "eof".to_string(),
    }
}

fn ok_fields<'a>(
    first: String,
    second: &str,
    headers: impl Iterator<Item = (&'a str, &'a str)>,
    body: &[u8],
) -> Vec<String> {
    let mut hs = String::new();
    for (n, v) in headers {
        hs.push_str(n);
        hs.push(':');
        hs.push_str(v);
        hs.push('\n');
    }
    vec![
        "ok".to_string(),
        first,
        esc(second.as_bytes()),
        esc(hs.as_bytes()),
        esc(body),
    ]
}

fn err_fields(e: &HttpError) -> Vec<String> {
    vec!["err".to_string(), err_key(e)]
}

/// Outcome of the owned reader for one case.
fn owned_outcome(kind: &str, input: &[u8], limits: &Limits) -> Vec<String> {
    let mut conn = closed(input);
    match kind {
        "req" => match read_request(&mut conn, limits) {
            Ok(r) => ok_fields(
                r.method.as_str().to_string(),
                &r.target,
                r.headers.iter(),
                &r.body,
            ),
            Err(e) => err_fields(&e),
        },
        "resp" | "head" => match read_response(&mut conn, limits, kind == "head") {
            Ok(r) => ok_fields(r.status.to_string(), &r.reason, r.headers.iter(), &r.body),
            Err(e) => err_fields(&e),
        },
        other => panic!("unknown case kind {other}"),
    }
}

fn limits_of(max_head: &str, max_body: &str) -> Limits {
    Limits {
        max_head: max_head.parse().unwrap(),
        max_body: max_body.parse().unwrap(),
    }
}

#[test]
fn corpus_outcomes_hold_through_both_entry_points() {
    let text = std::fs::read_to_string(corpus_path()).expect("committed corpus");
    let mut counts = [0usize; 3];
    let mut failures = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let f: Vec<&str> = line.split('\t').collect();
        let (kind, limits, input) = (f[0], limits_of(f[1], f[2]), unesc(f[3]));
        let want: Vec<String> = f[4..].iter().map(|s| s.to_string()).collect();
        let mut check = |entry: &str, got: Vec<String>| {
            if got != want {
                failures.push(format!(
                    "line {}: {kind} via {entry}: input {:?}\n  want {want:?}\n  got  {got:?}",
                    no + 1,
                    f[3]
                ));
            }
        };

        check("owned", owned_outcome(kind, &input, &limits));
        let mut scratch = Scratch::new();
        match kind {
            "req" => {
                counts[0] += 1;
                let got = match read_request_fast(&mut closed(&input), &mut scratch, &limits) {
                    Ok(r) => ok_fields(
                        r.method.as_str().to_string(),
                        scratch.target(&r),
                        scratch.headers(&r),
                        scratch.body(&r),
                    ),
                    Err(e) => err_fields(&e),
                };
                check("scratch", got);
            }
            "resp" => {
                counts[1] += 1;
                // The scratch reader keeps only the status and the body
                // length; compare those against the recorded outcome.
                let got = match read_response_fast(&mut closed(&input), &mut scratch, &limits) {
                    Ok(r) => vec!["ok".into(), r.status.to_string(), r.body_len.to_string()],
                    Err(e) => err_fields(&e),
                };
                let want_short = if want[0] == "ok" {
                    vec![
                        "ok".into(),
                        want[1].clone(),
                        unesc(&want[4]).len().to_string(),
                    ]
                } else {
                    want.clone()
                };
                if got != want_short {
                    failures.push(format!(
                        "line {}: resp via scratch: input {:?}\n  want {want_short:?}\n  got  {got:?}",
                        no + 1,
                        f[3]
                    ));
                }
            }
            _ => counts[2] += 1,
        }
    }
    assert!(
        failures.is_empty(),
        "{} corpus mismatches:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // Guard against a truncated or emptied corpus file.
    assert!(counts.iter().all(|&n| n >= 300), "case counts {counts:?}");
}

/// Deterministic SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn chunked(head: &str, body: &[u8], chunk: usize) -> Vec<u8> {
    let mut w = head.as_bytes().to_vec();
    for c in body.chunks(chunk) {
        w.extend_from_slice(format!("{:x}\r\n", c.len()).as_bytes());
        w.extend_from_slice(c);
        w.extend_from_slice(b"\r\n");
    }
    w.extend_from_slice(b"0\r\n\r\n");
    w
}

fn printable(n: usize) -> Vec<u8> {
    (b'!'..=b'~')
        .cycle()
        .filter(|&b| b != b'\\')
        .take(n)
        .collect()
}

/// Messages longer than one 8 KiB read: the head terminator of the
/// request straddles the first read, and the chunked response body
/// spans several.
fn large(kind: &str) -> Vec<u8> {
    if kind == "req" {
        let mut m = b"POST /large HTTP/1.1\r\nContent-Length: 64\r\nX-Pad: ".to_vec();
        m.extend(printable(8190 - m.len()));
        m.extend_from_slice(b"\r\n\r\n");
        m.extend(printable(64));
        m
    } else {
        chunked(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
            &printable(9000),
            4000,
        )
    }
}

fn valid_requests() -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = [
        &b"GET / HTTP/1.1\r\n\r\n"[..],
        b"GET /fn?probe=1 HTTP/1.1\r\nHost: fn.on.aws\r\n\r\n",
        b"GET /v1/candidates?offset=20&limit=20 HTTP/1.1\r\nHost: api.faaswild.sim\r\nUser-Agent: fw-bench/1.0\r\nAccept: application/json\r\nX-Request-Id: 0123456789abcdef\r\n\r\n",
        b"HEAD /x HTTP/1.0\r\nHost: h\r\n\r\n",
        b"OPTIONS * HTTP/1.1\r\n\r\n",
        b"DELETE /a/b HTTP/1.1\r\nConnection: keep-alive, Close\r\n\r\n",
        b"PUT /p HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
        b"POST /ingest HTTP/1.1\r\nContent-Length: 7\r\n\r\npayload",
        b"POST /b HTTP/1.1\r\nContent-Length: 4\r\n\r\n\x00\xff\r\n",
        b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\nX-T: t\r\n\r\n",
        b"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip, Chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
        b"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nz\r\n0\r\n\r\n",
        b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: zz\r\n\r\n2\r\nok\r\n0\r\n\r\n",
        b"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\nContent-Length: 2\r\n\r\nok",
        b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: zz\r\n\r\nabc",
        b"POST /x HTTP/1.1\r\ncontent-length:  +2 \r\n\r\nok",
        b"POST /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        b"GET / HTTP/1.1\r\nX-Empty:\r\nX-Tabs:\t spaced \t\r\n\tX-Lead: 1\r\n\r\n",
        b"GET / HTTP/1.1\nHost: lf-only\nX-A: b\r\n\r\n",
        b"GET / HTTP/1.1 trailing parts\r\n\r\n",
        b"GET /a:b@c HTTP/1.1\r\nX-Colons: a:b:c\r\n\r\n",
        b"GET / HTTP/1.1\r\nHost: h\n\nX-After-Blank: ignored\r\n\r\n",
        b"GET / HTTP/1.1\r\nX-Utf8: caf\xc3\xa9\r\n\r\n",
        b"POST /c HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n00000a\r\n0123456789\r\n0;last\r\nT1: a\r\nT2: b\r\n\r\n",
        b"POST /c HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n +3 \r\nabc\r\n0\r\n\r\n",
    ]
    .iter()
    .map(|m| m.to_vec())
    .collect();
    let body = printable(300);
    v.push(chunked(
        "POST /ingest HTTP/1.1\r\nHost: api\r\nTransfer-Encoding: chunked\r\n\r\n",
        &body,
        97,
    ));
    let mut post = b"POST /big HTTP/1.1\r\nContent-Length: 300\r\n\r\n".to_vec();
    post.extend_from_slice(&body);
    v.push(post);
    v
}

fn valid_responses() -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = [
        &b"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\nContent-Length: 15\r\n\r\n<html>hi</html>"[..],
        b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nX-No-Length: 1\r\n\r\nstreamed until close",
        b"HTTP/1.1 200 OK\r\n\r\n",
        b"HTTP/1.0 302 Found\r\nLocation: /x\r\nContent-Length: 2\r\n\r\nok",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\nX-Trailer: t\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n2\r\nok\r\n0\r\n\r\n",
        b"HTTP/1.1 204 No Content\r\n\r\n",
        b"HTTP/1.1 204 No Content\r\nContent-Length: 10\r\n\r\n",
        b"HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n",
        b"HTTP/1.1 100 Continue\r\nContent-Length: 1\r\n\r\nx",
        b"HTTP/1.1 599 Odd Edge\r\nContent-Length: 1\r\n\r\ny",
        b"HTTP/1.1 200\r\nContent-Length: 1\r\n\r\nz",
        b"HTTP/1.1 200 \r\nContent-Length: 1\r\n\r\nz",
        b"HTTP/1.1 503 Service  Unavailable  Now\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\nno",
        b"HTTP/1.7 200 OK\r\nContent-Length: 1\r\n\r\nq",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 9\r\n\r\nab",
        b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 3\r\n\r\nbye",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nabEXTRA",
        b"HTTP/1.1 200 OK\nContent-Length: 2\r\n\r\nab",
    ]
    .iter()
    .map(|m| m.to_vec())
    .collect();
    let body = printable(350);
    v.push(chunked(
        "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nTransfer-Encoding: chunked\r\n\r\n",
        &body,
        64,
    ));
    let mut eof = b"HTTP/1.1 502 Bad Gateway\r\nServer: sim\r\n\r\n".to_vec();
    eof.extend_from_slice(&body);
    v.push(eof);
    v
}

/// One input per error the readers can report, plus the malformed
/// requests of the old `fast.rs` unit tests.
fn malformed_requests() -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = [
        &b"NOTAMETHOD / HTTP/1.1\r\n\r\n"[..],
        b"GET noslash HTTP/1.1\r\n\r\n",
        b"GET / HTTP/2.9\r\n\r\n",
        b"GET / HTTP/1.1\r\nBad Header Name: x\r\n\r\n",
        b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
        b"GARBAGE REQUEST LINE\r\n\r\n",
        b"get / HTTP/1.1\r\n\r\n",
        b"GET\r\n\r\n",
        b"GET /\r\n\r\n",
        b" GET / HTTP/1.1\r\n\r\n",
        b"GET  / HTTP/1.1\r\n\r\n",
        b"GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
        b"GET / HTTP/1.1\r\nX-Bad: \xff\xfe\r\n\r\n",
        b"GET /\xc3 HTTP/1.1\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: zz\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nxyz\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcX\r\n0\r\n\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nab",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\xff\r\nabc\r\n0\r\n\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\nT: \xff\r\n\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nfffffffffffffffff\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nfffffffffffffff\r\n",
        b"GET / HTTP/1.1\r\nHost: x\r\n",
        b"\r\n\r\n",
        b"\xff\xfe\r\n\r\n",
    ]
    .iter()
    .map(|m| m.to_vec())
    .collect();
    // A chunk-size line and a trailer line past their length caps.
    let mut long = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1;".to_vec();
    long.extend(std::iter::repeat_n(b'e', 200));
    v.push(long.clone());
    long.extend_from_slice(b"\r\nx\r\n0\r\n\r\n");
    v.push(long);
    let mut trailer = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\nT: ".to_vec();
    trailer.extend(std::iter::repeat_n(b't', 1100));
    v.push(trailer);
    v
}

fn malformed_responses() -> Vec<Vec<u8>> {
    [
        &b"HTTP/1.1 99 Low\r\n\r\n"[..],
        b"HTTP/1.1 999 High\r\n\r\n",
        b"HTTP/1.1 abc X\r\n\r\n",
        b"HTTP/1.1\r\n\r\n",
        b"HTTP/2 200 OK\r\n\r\n",
        b"http/1.1 200 OK\r\n\r\n",
        b"HTTP/1.1 70000 Big\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nNoColon\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nBad Name: v\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: zz\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nokX\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n",
        b"HTTP/1.1 200 \xffOK\r\n\r\n",
        b"HTTP/1.1 200 OK\r\n",
    ]
    .iter()
    .map(|m| m.to_vec())
    .collect()
}

/// Flip one byte of a random valid message, many times over.
fn mutations(rng: &mut Rng, msgs: &[Vec<u8>], n: usize) -> Vec<Vec<u8>> {
    const INTERESTING: &[u8] = b"\r\n: /0;\xff";
    (0..n)
        .map(|_| {
            let mut m = msgs[rng.below(msgs.len())].clone();
            let i = rng.below(m.len());
            m[i] = if rng.below(2) == 0 {
                INTERESTING[rng.below(INTERESTING.len())]
            } else {
                rng.next() as u8
            };
            m
        })
        .collect()
}

/// Random bytes: uniform, and from an HTTP-ish alphabet that reaches
/// past the request and status lines more often.
fn garbage(rng: &mut Rng, n: usize, start: &[u8]) -> Vec<Vec<u8>> {
    const TOKENS: &[&[u8]] = &[
        b"\r\n",
        b"\r\n\r\n",
        b" ",
        b":",
        b"/",
        b"HTTP/1.1",
        b"0",
        b"5",
        b"a",
        b"chunked",
        b"Content-Length: ",
        b"Transfer-Encoding: ",
        b"\xff",
        b"\n",
    ];
    (0..n)
        .map(|i| {
            let len = rng.below(96);
            if i % 2 == 0 {
                (0..len).map(|_| rng.next() as u8).collect()
            } else {
                let mut m = start.to_vec();
                for _ in 0..len / 4 {
                    m.extend_from_slice(TOKENS[rng.below(TOKENS.len())]);
                }
                m
            }
        })
        .collect()
}

/// Limits that put the head or the body exactly at, or one past, a cap.
fn boundary_limits(msg: &[u8]) -> Vec<Limits> {
    let head = msg
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(msg.len(), |p| p + 4);
    let body = msg.len() - head;
    let dflt = Limits::default();
    vec![
        Limits {
            max_head: head,
            ..dflt
        },
        Limits {
            max_head: head.saturating_sub(1),
            ..dflt
        },
        Limits {
            max_body: body,
            ..dflt
        },
        Limits {
            max_body: body.saturating_sub(1),
            ..dflt
        },
    ]
}

/// Every input of the corpus, in order, as `(kind, limits, input)`;
/// `resp` inputs are also recorded as `head`.
fn cases() -> Vec<(&'static str, Limits, Vec<u8>)> {
    let dflt = Limits::default();
    let tight = [
        Limits {
            max_head: 48,
            max_body: 16,
        },
        Limits {
            max_head: 16,
            max_body: 0,
        },
    ];
    let mut rng = Rng(0x5eed_0ff4_a51d);
    let mut out = Vec::new();
    for (kind, valid, malformed, truncated) in [
        ("req", valid_requests(), malformed_requests(), [1, 7, 9, 23]),
        (
            "resp",
            valid_responses(),
            malformed_responses(),
            [0, 2, 5, 6],
        ),
    ] {
        let mut push = |limits: Limits, input: Vec<u8>| out.push((kind, limits, input));
        for m in valid.iter().chain(&malformed) {
            push(dflt, m.clone());
        }
        push(dflt, large(kind));
        // Pipelined pairs: the owned reader frames the first message.
        for w in valid.windows(2) {
            push(dflt, [w[0].as_slice(), w[1].as_slice()].concat());
        }
        // Every truncation point of a few messages.
        for m in truncated.map(|i| &valid[i]) {
            for cut in 0..m.len() {
                push(dflt, m[..cut].to_vec());
            }
        }
        for m in &valid {
            for limits in tight.iter().copied().chain(boundary_limits(m)) {
                push(limits, m.clone());
            }
        }
        for m in mutations(&mut rng, &valid, 150) {
            push(dflt, m);
        }
        let start: &[u8] = if kind == "req" {
            b"POST /g HTTP/1.1\r\n"
        } else {
            b"HTTP/1.1 200 OK\r\n"
        };
        for (i, m) in garbage(&mut rng, 200, start).into_iter().enumerate() {
            push(if i % 4 == 3 { tight[0] } else { dflt }, m);
        }
    }
    let head: Vec<_> = out
        .iter()
        .filter(|(k, _, _)| *k == "resp")
        .map(|(_, l, m)| ("head", *l, m.clone()))
        .collect();
    out.extend(head);
    out
}

/// Regenerate the committed corpus from the owned readers. Run only to
/// freeze a reference implementation; see the module docs.
#[test]
#[ignore]
fn write_corpus() {
    let mut text = String::new();
    for (kind, limits, input) in cases() {
        let outcome = owned_outcome(kind, &input, &limits).join("\t");
        writeln!(
            text,
            "{kind}\t{}\t{}\t{}\t{outcome}",
            limits.max_head,
            limits.max_body,
            esc(&input)
        )
        .unwrap();
    }
    std::fs::create_dir_all(corpus_path().parent().unwrap()).unwrap();
    std::fs::write(corpus_path(), text).unwrap();
}
