//! Property tests: HTTP serialization/parse round-trips and parser
//! robustness under arbitrary and mutated inputs.

use fw_http::fast::{read_request_fast, read_response_fast, Scratch};
use fw_http::parse::{
    read_request, read_response, write_request, write_response, write_response_chunked, HttpError,
    Limits,
};
use fw_http::types::{HeaderMap, Method, Request, Response};
use fw_net::{pipe_pair, Connection, PipeConn};
use proptest::prelude::*;

fn pair() -> (PipeConn, PipeConn) {
    pipe_pair(
        "10.0.0.1:50000".parse().unwrap(),
        "203.0.113.1:80".parse().unwrap(),
    )
}

fn arb_header_name() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9-]{0,20}"
}

fn arb_header_value() -> impl Strategy<Value = String> {
    "[ -~&&[^\r\n]]{0,40}".prop_map(|s| s.trim().to_string())
}

fn arb_headers() -> impl Strategy<Value = HeaderMap> {
    proptest::collection::vec((arb_header_name(), arb_header_value()), 0..8).prop_map(|hs| {
        let mut m = HeaderMap::new();
        for (n, v) in hs {
            // Reserved framing headers are set by the serializer.
            if n.eq_ignore_ascii_case("content-length")
                || n.eq_ignore_ascii_case("transfer-encoding")
            {
                continue;
            }
            m.insert(n, v);
        }
        m
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        prop_oneof![
            Just(Method::Get),
            Just(Method::Post),
            Just(Method::Head),
            Just(Method::Put)
        ],
        "/[a-z0-9/._-]{0,30}",
        arb_headers(),
        proptest::collection::vec(any::<u8>(), 0..512),
    )
        .prop_map(|(method, target, headers, body)| Request {
            method,
            target,
            headers,
            body,
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        prop_oneof![
            Just(200u16),
            Just(301u16),
            Just(401u16),
            Just(404u16),
            Just(502u16)
        ],
        arb_headers(),
        proptest::collection::vec(any::<u8>(), 0..512),
    )
        .prop_map(|(status, headers, body)| {
            let mut r = Response::new(status);
            r.headers = headers;
            r.body = body;
            r
        })
}

/// Collapse an [`HttpError`] to a comparable key (variant + message;
/// io errors by kind).
fn err_key(e: &HttpError) -> String {
    match e {
        HttpError::Io(io) => format!("io:{:?}", io.kind()),
        HttpError::Parse(m) => format!("parse:{m}"),
        HttpError::TooLarge(w) => format!("toolarge:{w}"),
        HttpError::Eof => "eof".to_string(),
    }
}

/// Feed `bytes` to both the scalar and the fast request parser (each on
/// its own closed pipe) and assert they agree: same error variant and
/// message, or the same method/target/headers/body.
fn assert_request_parsers_agree(bytes: &[u8], limits: &Limits) -> Result<(), TestCaseError> {
    let (mut a, mut b) = pair();
    let _ = a.write_all(bytes);
    a.shutdown_write();
    let scalar = read_request(&mut b, limits);

    let (mut c, mut d) = pair();
    let _ = c.write_all(bytes);
    c.shutdown_write();
    let mut scratch = Scratch::new();
    let fast = read_request_fast(&mut d, &mut scratch, limits);

    match (&scalar, &fast) {
        (Ok(s), Ok(f)) => {
            prop_assert_eq!(s.method, f.method);
            prop_assert_eq!(s.target.as_str(), scratch.target(f));
            let scalar_headers: Vec<(&str, &str)> = s.headers.iter().collect();
            let fast_headers: Vec<(&str, &str)> = scratch.headers(f).collect();
            prop_assert_eq!(scalar_headers, fast_headers);
            prop_assert_eq!(s.body.as_slice(), scratch.body(f));
        }
        (Err(se), Err(fe)) => prop_assert_eq!(err_key(se), err_key(fe)),
        _ => prop_assert!(
            false,
            "scalar {:?} vs fast {:?}",
            scalar.is_ok(),
            fast.is_ok()
        ),
    }
    Ok(())
}

/// Feed `bytes` to both response readers (each on its own closed pipe)
/// and assert they agree: the same status and body length, or the same
/// error variant and message.
fn assert_response_parsers_agree(bytes: &[u8], limits: &Limits) -> Result<(), TestCaseError> {
    let (mut a, mut b) = pair();
    let _ = a.write_all(bytes);
    a.shutdown_write();
    let scalar = read_response(&mut b, limits, false);

    let (mut c, mut d) = pair();
    let _ = c.write_all(bytes);
    c.shutdown_write();
    let mut scratch = Scratch::new();
    let fast = read_response_fast(&mut d, &mut scratch, limits);

    match (&scalar, &fast) {
        (Ok(s), Ok(f)) => {
            prop_assert_eq!(s.status, f.status);
            prop_assert_eq!(s.body.len(), f.body_len);
        }
        (Err(se), Err(fe)) => prop_assert_eq!(err_key(se), err_key(fe)),
        (s, f) => prop_assert!(
            false,
            "scalar {:?} vs fast {:?}",
            s.as_ref().map(|r| r.status).map_err(err_key),
            f.as_ref().map(|r| r.status).map_err(err_key)
        ),
    }
    Ok(())
}

/// The wire bytes of `resp`: `Content-Length` framed when `chunk` is 0,
/// else chunked in `chunk`-byte pieces.
fn response_wire(resp: &Response, chunk: usize) -> Vec<u8> {
    let (mut a, mut probe) = pair();
    match chunk {
        0 => write_response(&mut a, resp).unwrap(),
        n => write_response_chunked(&mut a, resp, n).unwrap(),
    }
    a.shutdown_write();
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match probe.read(&mut buf).unwrap() {
            0 => break,
            n => raw.extend_from_slice(&buf[..n]),
        }
    }
    raw
}

/// Responses the two readers once framed differently: the scratch
/// reader parsed `Content-Length` before it knew whether the body was
/// chunked or absent.
#[test]
fn response_readers_agree_when_content_length_is_not_used() {
    for wire in [
        &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: zz\r\n\r\n2\r\nok\r\n0\r\n\r\n"[..],
        b"HTTP/1.1 204 No Content\r\nContent-Length: zz\r\n\r\n",
    ] {
        assert_response_parsers_agree(wire, &Limits::default()).unwrap();
        let (mut a, mut b) = pair();
        a.write_all(wire).unwrap();
        a.shutdown_write();
        let mut scratch = Scratch::new();
        read_response_fast(&mut b, &mut scratch, &Limits::default()).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_roundtrips(req in arb_request()) {
        let (mut a, mut b) = pair();
        write_request(&mut a, &req).unwrap();
        a.shutdown_write();
        let got = read_request(&mut b, &Limits::default()).unwrap();
        prop_assert_eq!(got.method, req.method);
        prop_assert_eq!(&got.target, &req.target);
        prop_assert_eq!(&got.body, &req.body);
        for (n, v) in req.headers.iter() {
            prop_assert_eq!(got.headers.get(n), Some(v));
        }
    }

    #[test]
    fn response_roundtrips(resp in arb_response()) {
        let (mut a, mut b) = pair();
        write_response(&mut a, &resp).unwrap();
        a.shutdown_write();
        let got = read_response(&mut b, &Limits::default(), false).unwrap();
        prop_assert_eq!(got.status, resp.status);
        prop_assert_eq!(&got.body, &resp.body);
    }

    #[test]
    fn chunked_response_roundtrips(resp in arb_response(), chunk in 1usize..64) {
        let (mut a, mut b) = pair();
        write_response_chunked(&mut a, &resp, chunk).unwrap();
        a.shutdown_write();
        let got = read_response(&mut b, &Limits::default(), false).unwrap();
        prop_assert_eq!(&got.body, &resp.body);
    }

    #[test]
    fn parser_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..768)) {
        let (mut a, mut b) = pair();
        let _ = a.write_all(&bytes);
        a.shutdown_write();
        let _ = read_request(&mut b, &Limits::default());
        let (mut c, mut d) = pair();
        let _ = c.write_all(&bytes);
        c.shutdown_write();
        let _ = read_response(&mut d, &Limits::default(), false);
    }

    #[test]
    fn fast_parser_matches_scalar_on_valid_requests(req in arb_request()) {
        // Serialize through the scalar writer, then compare both parsers
        // on the exact wire bytes.
        let (mut a, mut probe) = pair();
        write_request(&mut a, &req).unwrap();
        a.shutdown_write();
        let mut raw = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match probe.read(&mut buf).unwrap() {
                0 => break,
                n => raw.extend_from_slice(&buf[..n]),
            }
        }
        assert_request_parsers_agree(&raw, &Limits::default())?;
    }

    #[test]
    fn fast_parser_matches_scalar_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..768),
    ) {
        assert_request_parsers_agree(&bytes, &Limits::default())?;
    }

    #[test]
    fn fast_parser_matches_scalar_on_truncated_and_mutated_requests(
        req in arb_request(),
        cut in any::<proptest::sample::Index>(),
        idx in any::<proptest::sample::Index>(),
        to in any::<u8>(),
        mutate in any::<bool>(),
    ) {
        let (mut a, mut probe) = pair();
        write_request(&mut a, &req).unwrap();
        a.shutdown_write();
        let mut raw = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match probe.read(&mut buf).unwrap() {
                0 => break,
                n => raw.extend_from_slice(&buf[..n]),
            }
        }
        if mutate && !raw.is_empty() {
            let i = idx.index(raw.len());
            raw[i] = to;
        } else {
            raw.truncate(cut.index(raw.len() + 1));
        }
        assert_request_parsers_agree(&raw, &Limits::default())?;
    }

    #[test]
    fn fast_parser_matches_scalar_under_tight_limits(
        bytes in proptest::collection::vec(
            prop_oneof![
                Just(b'\r'), Just(b'\n'), Just(b':'), Just(b' '), Just(b'/'),
                any::<u8>(),
            ],
            0..256,
        ),
    ) {
        // Small caps force the TooLarge paths on pathological heads.
        let limits = Limits { max_head: 48, max_body: 16 };
        assert_request_parsers_agree(&bytes, &limits)?;
    }

    #[test]
    fn fast_parser_matches_scalar_on_chunked_requests(
        body in proptest::collection::vec(any::<u8>(), 0..256),
        chunk in 1usize..32,
        cut in any::<proptest::sample::Index>(),
        truncate in any::<bool>(),
    ) {
        // Hand-build a chunked request (the writer only emits chunked
        // responses) and optionally truncate it mid-stream.
        let mut raw = Vec::new();
        raw.extend_from_slice(b"POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        for c in body.chunks(chunk) {
            raw.extend_from_slice(format!("{:x}\r\n", c.len()).as_bytes());
            raw.extend_from_slice(c);
            raw.extend_from_slice(b"\r\n");
        }
        raw.extend_from_slice(b"0\r\n\r\n");
        if truncate {
            raw.truncate(cut.index(raw.len() + 1));
        }
        assert_request_parsers_agree(&raw, &Limits::default())?;
    }

    #[test]
    fn parser_never_panics_on_mutated_valid(
        resp in arb_response(),
        idx in any::<proptest::sample::Index>(),
        to in any::<u8>(),
    ) {
        // Serialize a valid response, flip one byte, and ensure the parser
        // copes (either parses something or errors — never panics/hangs).
        let (mut a, mut probe) = pair();
        write_response(&mut a, &resp).unwrap();
        a.shutdown_write();
        let mut raw = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match probe.read(&mut buf).unwrap() {
                0 => break,
                n => raw.extend_from_slice(&buf[..n]),
            }
        }
        let i = idx.index(raw.len());
        raw[i] = to;
        let (mut c, mut d) = pair();
        c.write_all(&raw).unwrap();
        c.shutdown_write();
        let _ = read_response(&mut d, &Limits::default(), false);
    }

    #[test]
    fn fast_response_parser_matches_scalar_on_valid_responses(
        resp in arb_response(),
        chunk in 0usize..64,
    ) {
        assert_response_parsers_agree(&response_wire(&resp, chunk), &Limits::default())?;
    }

    #[test]
    fn fast_response_parser_matches_scalar_on_truncated_and_mutated_responses(
        resp in arb_response(),
        chunk in 0usize..64,
        cut in any::<proptest::sample::Index>(),
        idx in any::<proptest::sample::Index>(),
        to in any::<u8>(),
        mutate in any::<bool>(),
    ) {
        let mut raw = response_wire(&resp, chunk);
        if mutate {
            let i = idx.index(raw.len());
            raw[i] = to;
        } else {
            raw.truncate(cut.index(raw.len() + 1));
        }
        assert_response_parsers_agree(&raw, &Limits::default())?;
    }

    #[test]
    fn fast_response_parser_matches_scalar_under_tight_limits(
        resp in arb_response(),
        chunk in 0usize..64,
        tail in proptest::collection::vec(
            prop_oneof![
                Just(b'\r'), Just(b'\n'), Just(b':'), Just(b' '), Just(b'0'),
                any::<u8>(),
            ],
            0..128,
        ),
    ) {
        // Small caps force the TooLarge paths on heads and bodies.
        let limits = Limits { max_head: 48, max_body: 16 };
        assert_response_parsers_agree(&response_wire(&resp, chunk), &limits)?;
        let mut raw = b"HTTP/1.1 200 OK\r\n".to_vec();
        raw.extend_from_slice(&tail);
        assert_response_parsers_agree(&raw, &limits)?;
    }
}
