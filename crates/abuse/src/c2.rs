//! C2 communication fingerprints (§5.1).
//!
//! The paper matched covert C2 relays with a commercial fingerprint
//! database: 26 signatures across 18 malware families, each built from
//! the first request/response pair after the TCP handshake and usable as
//! an *active probe* emulating a family-specific C2 request on ports
//! 80/443.
//!
//! The real byte patterns are proprietary, so this corpus is synthetic —
//! but structurally faithful: every signature carries a probe template
//! (method, path, headers, body bytes) and a binary response matcher
//! (status, header and body-prefix/token operations). The workload
//! generator plants relays via [`relay_template`], and detection must
//! rediscover them by probing; a relay only answers its own family's
//! probe (anything else gets a stealthy 404), so naive content scanning
//! cannot find these.
//!
//! Each probe is encoded once, when the corpus is built (a
//! [`RequestTemplate`]); a scan splices each candidate's name into those
//! bytes and matches the reply where it was read, through a
//! [`ResponseView`].

use fw_http::client::RequestTemplate;
use fw_http::types::{Method, Request, ResponseView};
use fw_types::memmem::contains_subsequence;
use std::sync::OnceLock;

/// Probe template for one signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeTemplate {
    pub method: Method,
    pub path: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ProbeTemplate {
    /// Materialize an HTTP request against `host`.
    pub fn to_request(&self, host: &str) -> Request {
        let mut req = Request::get(&self.path, host);
        req.method = self.method;
        for (n, v) in &self.headers {
            req.headers.insert(n.clone(), v.clone());
        }
        req.body = self.body.clone();
        req
    }
}

/// One matcher operation over a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchOp {
    StatusIs(u16),
    HeaderEquals(&'static str, &'static str),
    BodyPrefix(Vec<u8>),
    BodyContains(Vec<u8>),
    BodyLenAtLeast(usize),
}

/// One C2 signature.
#[derive(Debug, Clone)]
pub struct C2Fingerprint {
    pub family: &'static str,
    pub signature_id: &'static str,
    pub probe: ProbeTemplate,
    /// `probe`, encoded, for any host.
    pub wire: RequestTemplate,
    pub matcher: Vec<MatchOp>,
}

impl C2Fingerprint {
    /// Does a response match this signature? All ops must hold. An owned
    /// response matches through `Response::view`.
    pub fn matches(&self, resp: &ResponseView<'_>) -> bool {
        self.matcher.iter().all(|op| match op {
            MatchOp::StatusIs(s) => resp.status == *s,
            MatchOp::HeaderEquals(n, v) => resp.header(n) == Some(*v),
            MatchOp::BodyPrefix(p) => resp.body().starts_with(p),
            MatchOp::BodyContains(needle) => {
                !needle.is_empty() && contains_subsequence(resp.body(), needle)
            }
            MatchOp::BodyLenAtLeast(n) => resp.body().len() >= *n,
        })
    }
}

/// The family names in the corpus (18, like the QiAnXin database).
pub const FAMILIES: [&str; 18] = [
    "CobaltStrike",
    "InfoStealer",
    "AsyncShade",
    "QuietViper",
    "NightHarbor",
    "GlassFox",
    "IronLotus",
    "HollowCrow",
    "DustSparrow",
    "PaleMantis",
    "EmberWasp",
    "GreyHeron",
    "StoneOwl",
    "RustWolf",
    "MistAdder",
    "CoalFinch",
    "SilentCarp",
    "BriarMoth",
];

/// Deterministic per-family byte material.
fn family_magic(idx: usize) -> Vec<u8> {
    let seed = (idx as u8).wrapping_mul(37).wrapping_add(11);
    vec![0x00, seed, seed ^ 0xAA, 0x4D, 0x5A, seed.wrapping_add(1)]
}

fn family_reply(idx: usize) -> Vec<u8> {
    let seed = (idx as u8).wrapping_mul(53).wrapping_add(7);
    let mut reply = vec![0x00, 0x00, seed, seed ^ 0x5F];
    // Task blob: opaque, length-consistent padding.
    reply.extend((0..28).map(|i| seed.wrapping_add(i as u8) ^ 0x33));
    reply
}

fn family_path(idx: usize, variant: usize) -> String {
    // Benign-looking beacon paths, family-specific.
    let paths = [
        "pixel.gif",
        "jquery.min.js",
        "updates.rss",
        "cdn.css",
        "ga.js",
        "submit.php",
        "fwlink",
        "load",
        "ptj",
        "match",
    ];
    format!(
        "/{}{}",
        paths[(idx + variant) % paths.len()],
        if variant > 0 { "2" } else { "" }
    )
}

/// The 26-signature corpus: every family gets one signature; the first
/// eight families get a second variant (26 = 18 + 8), matching the
/// database's family/signature counts. Built once on first use — the
/// signature-id strings are interned (leaked) exactly once, not once
/// per scanner construction.
pub fn corpus() -> &'static [C2Fingerprint] {
    static CORPUS: OnceLock<Vec<C2Fingerprint>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut out = Vec::with_capacity(26);
        for (idx, family) in FAMILIES.iter().enumerate() {
            out.push(make_signature(idx, family, 0));
        }
        for (idx, family) in FAMILIES.iter().take(8).enumerate() {
            out.push(make_signature(idx, family, 1));
        }
        out
    })
}

fn make_signature(idx: usize, family: &'static str, variant: usize) -> C2Fingerprint {
    let magic = family_magic(idx);
    let reply = family_reply(idx);
    let (method, body) = if variant == 0 {
        (Method::Get, Vec::new())
    } else {
        // Variant signatures check-in with the magic in the POST body.
        (Method::Post, magic.clone())
    };
    let sig_id: &'static str = Box::leak(format!("{family}-s{variant}").into_boxed_str());
    let probe = ProbeTemplate {
        method,
        path: family_path(idx, variant),
        headers: vec![(
            "X-Session".to_string(),
            format!("{:02x}{:02x}", idx * 7 + 1, variant + 1),
        )],
        body,
    };
    C2Fingerprint {
        family,
        signature_id: sig_id,
        wire: RequestTemplate::new(&probe.to_request("")).expect("probe requests carry a Host"),
        probe,
        matcher: vec![
            MatchOp::StatusIs(200),
            MatchOp::HeaderEquals("content-type", "application/octet-stream"),
            MatchOp::BodyPrefix(reply[..4].to_vec()),
            MatchOp::BodyLenAtLeast(16),
        ],
    }
}

/// What the workload generator needs to plant a family-consistent relay
/// function: the trigger the relay recognises and the reply it sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayTemplate {
    pub family: &'static str,
    pub trigger_path: String,
    pub trigger_magic: Vec<u8>,
    pub reply: Vec<u8>,
}

/// Relay template for a family index (0-based into [`FAMILIES`]).
pub fn relay_template(family_idx: usize) -> RelayTemplate {
    let idx = family_idx % FAMILIES.len();
    RelayTemplate {
        family: FAMILIES[idx],
        trigger_path: family_path(idx, 0),
        trigger_magic: family_magic(idx),
        reply: family_reply(idx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_http::fast::Scratch;
    use fw_http::parse::{encode_response, write_request, Limits};
    use fw_http::types::Response;
    use fw_net::{pipe_pair, Connection};

    fn relay_answer(idx: usize) -> Response {
        let mut r = Response::new(200);
        r.headers.insert("Content-Type", "application/octet-stream");
        r.body = family_reply(idx);
        r
    }

    /// The matcher as it was written over owned responses: the oracle
    /// the view matcher must agree with.
    fn owned_matches(sig: &C2Fingerprint, resp: &Response) -> bool {
        sig.matcher.iter().all(|op| match op {
            MatchOp::StatusIs(s) => resp.status == *s,
            MatchOp::HeaderEquals(n, v) => resp.headers.get(n) == Some(*v),
            MatchOp::BodyPrefix(p) => resp.body.starts_with(p),
            MatchOp::BodyContains(needle) => {
                !needle.is_empty() && contains_subsequence(&resp.body, needle)
            }
            MatchOp::BodyLenAtLeast(n) => resp.body.len() >= *n,
        })
    }

    fn pair() -> (fw_net::PipeConn, fw_net::PipeConn) {
        pipe_pair(
            "10.0.0.1:50000".parse().unwrap(),
            "203.0.113.1:443".parse().unwrap(),
        )
    }

    /// Does `sig` match `resp`? Asked of the view of `resp` read off the
    /// wire into a scratch, of `resp.view()` and of the owned oracle,
    /// which must all give one answer.
    fn matches(sig: &C2Fingerprint, resp: &Response) -> bool {
        let (mut a, mut b) = pair();
        let mut wire = Vec::new();
        encode_response(resp, &mut wire);
        a.write_all(&wire).unwrap();
        a.shutdown_write();
        let mut scratch = Scratch::new();
        let read = scratch
            .read_response(&mut b, &Limits::default(), false)
            .unwrap();
        let on_wire = sig.matches(&scratch.view(&read));
        assert_eq!(on_wire, sig.matches(&resp.view()), "{}", sig.signature_id);
        assert_eq!(on_wire, owned_matches(sig, resp), "{}", sig.signature_id);
        on_wire
    }

    #[test]
    fn corpus_has_26_signatures_18_families() {
        let c = corpus();
        assert_eq!(c.len(), 26);
        let mut families: Vec<&str> = c.iter().map(|s| s.family).collect();
        families.sort_unstable();
        families.dedup();
        assert_eq!(families.len(), 18);
    }

    #[test]
    fn signature_ids_are_unique() {
        let c = corpus();
        let mut ids: Vec<&str> = c.iter().map(|s| s.signature_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 26);
    }

    #[test]
    fn family_signature_matches_its_own_reply_only() {
        let c = corpus();
        for (idx, _family) in FAMILIES.iter().enumerate() {
            let reply = relay_answer(idx);
            let own = &c[idx];
            assert!(matches(own, &reply), "family {idx} must match own reply");
            // No other family's primary signature matches.
            for (other_idx, other) in c.iter().take(18).enumerate() {
                if other_idx != idx {
                    assert!(
                        !matches(other, &reply),
                        "family {other_idx} must not match family {idx}'s reply"
                    );
                }
            }
            // Every signature gives the same answer on every path.
            for sig in c {
                matches(sig, &reply);
            }
        }
    }

    #[test]
    fn generic_responses_do_not_match() {
        let c = corpus();
        for resp in [
            Response::text(404, "Not Found"),
            Response::json(200, r#"{"ok":true}"#),
            Response::html(200, "<html><body>welcome</body></html>"),
        ] {
            for sig in c {
                assert!(!matches(sig, &resp), "{}", sig.signature_id);
            }
        }
    }

    #[test]
    fn probe_template_builds_valid_request() {
        let sig = &corpus()[0];
        let req = sig.probe.to_request("relay.scf.tencentcs.com");
        assert_eq!(req.host(), Some("relay.scf.tencentcs.com"));
        assert!(req.target.starts_with('/'));
        assert!(req.headers.get("x-session").is_some());
    }

    /// What `write_request` puts on the wire for `req`.
    fn written(req: &Request) -> Vec<u8> {
        let (mut a, mut b) = pair();
        write_request(&mut a, req).unwrap();
        a.shutdown_write();
        let mut out = Vec::new();
        let mut buf = [0u8; 512];
        loop {
            match b.read(&mut buf).unwrap() {
                0 => return out,
                n => out.extend_from_slice(&buf[..n]),
            }
        }
    }

    #[test]
    fn rendered_probes_are_the_bytes_write_request_writes() {
        let long = format!("{}.scf.tencentcs.com", "a".repeat(63));
        let hosts = [
            "relay.scf.tencentcs.com",
            "fn-1234567890.lambda-url.us-east-1.on.aws",
            "Relay.SCF.TencentCS.com",
            long.as_str(),
            "x",
        ];
        for sig in corpus() {
            for host in hosts {
                let mut out = Vec::new();
                assert_eq!(
                    sig.wire.write_for(host, &mut out).bytes(),
                    written(&sig.probe.to_request(host)),
                    "{} for {host}",
                    sig.signature_id
                );
            }
        }
    }

    #[test]
    fn rendered_probe_bytes_are_pinned() {
        let c = corpus();
        let mut out = Vec::new();
        assert_eq!(
            c[0].wire
                .write_for("relay.scf.tencentcs.com", &mut out)
                .bytes(),
            b"GET /pixel.gif HTTP/1.1\r\nHost: relay.scf.tencentcs.com\r\nX-Session: 0101\r\n\r\n"
        );
        assert_eq!(
            c[18].wire.write_for("relay.scf.tencentcs.com", &mut out).bytes(),
            b"POST /jquery.min.js2 HTTP/1.1\r\nHost: relay.scf.tencentcs.com\r\nX-Session: 0102\r\nContent-Length: 6\r\n\r\n\x00\x0b\xa1MZ\x0c"
        );
    }

    #[test]
    fn relay_template_is_consistent_with_signature() {
        // A relay answering per its template must be caught by the
        // family's primary signature.
        for idx in 0..FAMILIES.len() {
            let tpl = relay_template(idx);
            let sig = &corpus()[idx];
            assert_eq!(tpl.family, sig.family);
            assert_eq!(tpl.trigger_path, sig.probe.path);
            let mut resp = Response::new(200);
            resp.headers
                .insert("Content-Type", "application/octet-stream");
            resp.body = tpl.reply.clone();
            assert!(matches(sig, &resp));
        }
    }

    #[test]
    fn variant_probes_carry_magic_in_body() {
        let c = corpus();
        let variant = &c[18]; // first variant signature
        assert_eq!(variant.probe.method, Method::Post);
        assert!(!variant.probe.body.is_empty());
    }
}
