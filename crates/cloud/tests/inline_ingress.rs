//! The inline cloud ingress against the blocking serve loop.
//!
//! Two identical worlds (same seed, same deployments in the same order)
//! receive the same client bytes. World A answers through the
//! platform's own inline listeners (`SimNet::listen_inline`: an
//! `HttpSession`, behind a `TlsServerSession` on :443, run on the
//! client's thread). World B answers through a thread-per-connection
//! `SimNet::listen` handler that runs the blocking `TlsServer::accept`
//! and `serve_connection` over the same routing, sleeping on the clock
//! for a delayed reply — the shape the ingress had before it went
//! inline. Every reply's wire bytes, and how each connection ends, must
//! be equal.
//!
//! The second half gives the inline session defined outcomes for
//! awkward input: split writes, a cut-off head, an oversized head, a
//! hung function and a nested gateway → platform call.

use fw_cloud::apigw::{ApiGateway, GatewayBackend, RouteConfig};
use fw_cloud::behavior::{Behavior, LeakItem};
use fw_cloud::platform::{CloudPlatform, DeploySpec, PlatformConfig};
use fw_cloud::provider::spec;
use fw_dns::resolver::Resolver;
use fw_http::client::{ClientConfig, DialError, Dialer, FetchError, HttpClient, SimDialer};
use fw_http::parse::{read_response, Limits};
use fw_http::server::serve_connection;
use fw_http::types::Request;
use fw_net::{ClockSource as _, Connection, FaultConfig, SimNet, TlsClient, TlsError, TlsServer};
use fw_types::{Fqdn, ProviderId, Rdata, RecordType};
use parking_lot::RwLock;
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// How long a hung function holds its reply (virtual).
const HANG_MS: u64 = 100;
/// Client read timeout (virtual): longer than a hang, so the 504 shows.
const TIMEOUT: Duration = Duration::from_millis(500);

struct World {
    net: SimNet,
    resolver: Arc<RwLock<Resolver>>,
    platform: CloudPlatform,
}

fn world() -> World {
    let net = SimNet::new(404);
    let resolver = Arc::new(RwLock::new(Resolver::new()));
    let platform = CloudPlatform::new(
        net.clone(),
        resolver.clone(),
        PlatformConfig {
            hang_ms: HANG_MS,
            ..PlatformConfig::default()
        },
    );
    World {
        net,
        resolver,
        platform,
    }
}

/// Index of a behaviour's variant; the match makes a new variant a
/// compile error here until the catalogue covers it.
fn variant(b: &Behavior) -> usize {
    match b {
        Behavior::JsonApi { .. } => 0,
        Behavior::HtmlPage { .. } => 1,
        Behavior::PlainLog { .. } => 2,
        Behavior::EmptyOk => 3,
        Behavior::ScriptOutput { .. } => 4,
        Behavior::PathGated { .. } => 5,
        Behavior::AuthRequired => 6,
        Behavior::Crasher => 7,
        Behavior::InternalOnly => 8,
        Behavior::SensitiveLeak { .. } => 9,
        Behavior::FixedStatus { .. } => 10,
        Behavior::C2Relay { .. } => 11,
        Behavior::GamblingSite { .. } => 12,
        Behavior::PornSite { .. } => 13,
        Behavior::CheatTool { .. } => 14,
        Behavior::RedirectHttp { .. } => 15,
        Behavior::RedirectJs { .. } => 16,
        Behavior::RedirectMetaRefresh { .. } => 17,
        Behavior::RedirectRandomSplice { .. } => 18,
        Behavior::RedirectRandomSelect { .. } => 19,
        Behavior::OpenAiKeyPromo { .. } => 20,
        Behavior::OpenAiAccountSale { .. } => 21,
        Behavior::OpenAiProxyFrontend => 22,
        Behavior::OpenAiProxyApi => 23,
        Behavior::GithubProxy => 24,
        Behavior::VpnProxy => 25,
        Behavior::IllegalServiceProxy { .. } => 26,
    }
}
const VARIANTS: usize = 27;

/// One function per `Behavior` variant.
fn catalogue() -> Vec<Behavior> {
    vec![
        Behavior::JsonApi {
            service: "orders".into(),
        },
        Behavior::HtmlPage {
            title: "shop".into(),
        },
        Behavior::PlainLog { tag: "svc".into() },
        Behavior::EmptyOk,
        Behavior::ScriptOutput { xml: true },
        Behavior::PathGated {
            good_path: "/real".into(),
        },
        Behavior::AuthRequired,
        Behavior::Crasher,
        Behavior::InternalOnly,
        Behavior::SensitiveLeak {
            service: "crm".into(),
            items: vec![
                LeakItem::Phone("13800138000".into()),
                LeakItem::ApiKey("sk-test-0001".into()),
            ],
        },
        Behavior::FixedStatus { status: 405 },
        Behavior::C2Relay {
            family: "CobaltStrike".into(),
            trigger_path: "/submit.php".into(),
            trigger_magic: b"\x00\x00\xbe\xef".to_vec(),
            reply: b"\x00\x00\x00\x10beacon-ok".to_vec(),
        },
        Behavior::GamblingSite {
            brand: "lucky".into(),
            campaign: 7,
        },
        Behavior::PornSite { name: "x".into() },
        Behavior::CheatTool {
            tool: "aimbot".into(),
        },
        Behavior::RedirectHttp {
            location: "https://new.example/".into(),
        },
        Behavior::RedirectJs {
            target: "https://js.example/".into(),
        },
        Behavior::RedirectMetaRefresh {
            target: "https://meta.example/".into(),
        },
        Behavior::RedirectRandomSplice {
            suffix: "splice.example".into(),
        },
        Behavior::RedirectRandomSelect {
            urls: vec!["https://a.example/".into(), "https://b.example/".into()],
        },
        Behavior::OpenAiKeyPromo {
            contact: "tg:@keys".into(),
            key_prefix: "sk-".into(),
        },
        Behavior::OpenAiAccountSale {
            contact: "tg:@accts".into(),
        },
        Behavior::OpenAiProxyFrontend,
        Behavior::OpenAiProxyApi,
        Behavior::GithubProxy,
        Behavior::VpnProxy,
        Behavior::IllegalServiceProxy {
            service: "scraper".into(),
        },
    ]
}

/// The functions both worlds deploy, in order.
struct Deployment {
    /// `(behaviour, fqdn)` on AWS, one per variant.
    behaviors: Vec<(Behavior, Fqdn)>,
    auth: Fqdn,
    deleted_aws: Fqdn,
    deleted_google: Fqdn,
    live_google: Fqdn,
}

fn deploy(w: &World) -> Deployment {
    let p = &w.platform;
    let mut entropy = 0u64;
    let mut next = |provider, behavior| {
        entropy += 1;
        DeploySpec::new(provider, behavior).with_entropy(entropy)
    };
    let behaviors = catalogue()
        .into_iter()
        .map(|b| {
            let fqdn = p.deploy(next(ProviderId::Aws, b.clone())).unwrap().fqdn;
            (b, fqdn)
        })
        .collect();
    let auth_spec = next(
        ProviderId::Aws,
        Behavior::JsonApi {
            service: "secret".into(),
        },
    )
    .with_auth();
    let auth = p.deploy(auth_spec).unwrap().fqdn;
    let deleted_aws = p
        .deploy(next(ProviderId::Aws, Behavior::EmptyOk))
        .unwrap()
        .fqdn;
    let deleted_google = p
        .deploy(next(ProviderId::Google2, Behavior::EmptyOk))
        .unwrap()
        .fqdn;
    let live_google = p
        .deploy(next(ProviderId::Google2, Behavior::EmptyOk))
        .unwrap()
        .fqdn;
    p.delete(&deleted_aws);
    p.delete(&deleted_google);
    Deployment {
        behaviors,
        auth,
        deleted_aws,
        deleted_google,
        live_google,
    }
}

/// Replace world B's inline ingress on `node`'s ingress address with a
/// thread-per-connection one: blocking TLS accept and
/// `serve_connection`, sleeping on the clock for a delayed reply. Both
/// worlds then serve the same addresses, so fault draws — keyed by flow
/// and address — match too.
fn install_blocking(w: &World, provider: ProviderId, node: &Fqdn) {
    for (port, tls) in [(80u16, false), (443u16, true)] {
        let platform = w.platform.clone();
        let clock = w.net.clock().clone();
        let cert = spec(provider).cert_pattern();
        w.net
            .listen_fn(ingress_addr(w, node, port), move |mut conn| {
                let _ = conn.set_read_timeout(Some(Duration::from_secs(60)));
                let mut conn = if tls {
                    match TlsServer::accept(conn, &cert) {
                        Ok((c, _sni)) => c,
                        Err(_) => return,
                    }
                } else {
                    conn
                };
                let (platform, clock) = (platform.clone(), clock.clone());
                serve_connection(conn.as_mut(), &Limits::default(), &move |req: &Request| {
                    let reply = platform.ingress_reply(provider, req);
                    if !reply.after.is_zero() {
                        clock.sleep(reply.after);
                    }
                    reply.response
                });
            });
    }
}

/// The ingress address serving a deployed name.
fn ingress_addr(w: &World, fqdn: &Fqdn, port: u16) -> SocketAddr {
    let res = w
        .resolver
        .read()
        .resolve_shared(fqdn, RecordType::A, 0)
        .expect("resolvable");
    let ip = res
        .addresses()
        .iter()
        .find_map(|r| match r {
            Rdata::V4(ip) => Some(*ip),
            _ => None,
        })
        .expect("has an A record");
    SocketAddr::new(IpAddr::V4(ip), port)
}

/// Records the raw bytes a reader consumes.
#[derive(Debug)]
struct Tap<'c> {
    inner: &'c mut dyn Connection,
    raw: &'c mut Vec<u8>,
}

impl Connection for Tap<'_> {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.raw.extend_from_slice(&buf[..n]);
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

fn lossy(b: &[u8]) -> String {
    String::from_utf8_lossy(b).into_owned()
}

/// Dial, then for each request: write it and read one response. Then
/// check whether the server closed, shut down the write side and read
/// to the end. The transcript holds every reply's wire bytes and how
/// the connection ended.
fn run(net: &SimNet, addr: SocketAddr, host: &str, tls: bool, requests: &[Vec<u8>]) -> Vec<String> {
    let mut log = Vec::new();
    let mut conn = match SimDialer::new(net.clone()).dial(addr, host, tls, TIMEOUT) {
        Ok(c) => c,
        Err(e) => {
            log.push(format!("dial: {e}"));
            return log;
        }
    };
    for req in requests {
        if let Err(e) = conn.write_all(req) {
            log.push(format!("write: {:?}", e.kind()));
            return log;
        }
        let mut raw = Vec::new();
        let mut tap = Tap {
            inner: conn.as_mut(),
            raw: &mut raw,
        };
        match read_response(&mut tap, &Limits::default(), false) {
            Ok(_) => log.push(format!("reply: {}", lossy(&raw))),
            Err(e) => {
                log.push(format!("error: {e} after {:?}", lossy(&raw)));
                return log;
            }
        }
    }
    // Did the server close after the last reply? An open connection
    // times out here; a closed one reads EOF.
    let mut buf = [0u8; 4096];
    let state = match conn.read(&mut buf) {
        Ok(0) => "closed".to_string(),
        Ok(n) => format!("extra {:?}", lossy(&buf[..n])),
        Err(e) => format!("{:?}", e.kind()),
    };
    log.push(format!("after replies: {state}"));
    conn.shutdown_write();
    let mut tail = Vec::new();
    let end = loop {
        match conn.read(&mut buf) {
            Ok(0) => break "eof".to_string(),
            Ok(n) => tail.extend_from_slice(&buf[..n]),
            Err(e) => break format!("{:?}", e.kind()),
        }
    };
    log.push(format!("end: {end} after {:?}", lossy(&tail)));
    log
}

fn get(path: &str, host: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: probe\r\nAccept: */*\r\n\r\n")
        .into_bytes()
}

fn get_close(path: &str, host: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n").into_bytes()
}

fn post(path: &str, host: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// One client script against both worlds.
struct Case {
    provider: ProviderId,
    /// A deployed name whose ingress node receives the connection.
    node: Fqdn,
    /// SNI, and the Host of every request.
    host: String,
    requests: Vec<Vec<u8>>,
}

/// Two identical worlds; world B's ingress nodes run blocking.
fn worlds() -> (World, World, Deployment) {
    let a = world();
    let b = world();
    let da = deploy(&a);
    let db = deploy(&b);
    for (x, y) in da.behaviors.iter().zip(&db.behaviors) {
        assert_eq!(x.1, y.1, "both worlds deploy the same names");
    }
    (a, b, da)
}

/// The client scripts: every behaviour, then the platform's own
/// answers and the serve loop's rules.
fn cases(da: &Deployment) -> Vec<Case> {
    let mut cases = Vec::new();
    for (behavior, fqdn) in &da.behaviors {
        let host = fqdn.to_string();
        let mut requests = vec![get("/", &host), get("/real", &host)];
        if let Behavior::C2Relay { trigger_path, .. } = behavior {
            requests.push(get(trigger_path, &host));
            requests.push(post("/", &host, b"\x00\x00\xbe\xef-beacon"));
        }
        cases.push(Case {
            provider: ProviderId::Aws,
            node: fqdn.clone(),
            host,
            requests,
        });
    }
    let aws_node = da.behaviors[0].1.clone();
    let google_node = da.live_google.clone();
    let named = |provider, node: &Fqdn, host: &str, requests: Vec<Vec<u8>>| Case {
        provider,
        node: node.clone(),
        host: host.to_string(),
        requests,
    };
    let auth = da.auth.to_string();
    let deleted_aws = da.deleted_aws.to_string();
    let deleted_google = da.deleted_google.to_string();
    let ghost_aws = "neverdeployed.lambda-url.us-east-1.on.aws";
    let ghost_google = "neverdeployed-uc.a.run.app";
    let plain = da.behaviors[2].1.to_string();
    cases.extend([
        named(ProviderId::Aws, &da.auth, &auth, vec![get("/", &auth)]),
        named(
            ProviderId::Aws,
            &aws_node,
            &deleted_aws,
            vec![get("/", &deleted_aws)],
        ),
        named(
            ProviderId::Google2,
            &google_node,
            &deleted_google,
            vec![get("/", &deleted_google)],
        ),
        named(
            ProviderId::Aws,
            &aws_node,
            ghost_aws,
            vec![get("/", ghost_aws)],
        ),
        named(
            ProviderId::Google2,
            &google_node,
            ghost_google,
            vec![get("/", ghost_google)],
        ),
        // Keep-alive, then `Connection: close` ends the connection.
        named(
            ProviderId::Aws,
            &da.behaviors[2].1,
            &plain,
            vec![get("/", &plain), get_close("/", &plain)],
        ),
        // A POST body, then a malformed request: 400 and close.
        named(
            ProviderId::Aws,
            &da.behaviors[2].1,
            &plain,
            vec![
                post("/upload", &plain, &[b'x'; 700]),
                b"GARBAGE REQUEST LINE\r\n\r\n".to_vec(),
            ],
        ),
        // No Host header: the ingress answers 400 itself.
        named(
            ProviderId::Aws,
            &aws_node,
            &plain,
            vec![b"GET / HTTP/1.1\r\nAccept: */*\r\n\r\n".to_vec()],
        ),
    ]);

    cases
}

/// Run every case on both ports against both worlds and require equal
/// transcripts. Returns world A's transcripts.
fn compare(a: &World, b: &World, cases: &[Case]) -> Vec<Vec<String>> {
    let mut transcripts = Vec::new();
    for case in cases {
        for (port, tls) in [(443u16, true), (80u16, false)] {
            let [inline, blocking] = [a, b].map(|w| {
                run(
                    &w.net,
                    ingress_addr(w, &case.node, port),
                    &case.host,
                    tls,
                    &case.requests,
                )
            });
            assert_eq!(
                inline, blocking,
                "host {} port {port}: inline vs blocking",
                case.host
            );
            transcripts.push(inline);
        }
    }
    transcripts
}

#[test]
fn inline_ingress_matches_the_blocking_serve_loop() {
    let (a, b, da) = worlds();
    assert_eq!(da.behaviors.len(), VARIANTS);
    let mut covered = [false; VARIANTS];
    for (behavior, _) in &da.behaviors {
        covered[variant(behavior)] = true;
    }
    assert!(covered.iter().all(|c| *c), "catalogue misses a variant");
    let cases = cases(&da);
    for case in &cases {
        install_blocking(&b, case.provider, &case.node);
    }
    let transcripts = compare(&a, &b, &cases);
    let mut statuses = Vec::new();
    for (i, inline) in transcripts.iter().enumerate() {
        let case = &cases[i / 2];
        // Both drivers run one session, so also pin its close rule:
        // only `Connection: close` and a rejected request end the
        // connection.
        let last = lossy(case.requests.last().expect("a request"));
        let closes = last.starts_with("GARBAGE") || last.contains("Connection: close");
        let state = if closes { "closed" } else { "TimedOut" };
        let want = format!("after replies: {state}");
        assert!(inline.contains(&want), "{}: {inline:?}", case.host);
        statuses.push(inline[0].get(7..19).unwrap_or("").to_string());
    }
    // The scripts reach every answer class the ingress gives.
    for want in [
        "HTTP/1.1 200",
        "HTTP/1.1 401",
        "HTTP/1.1 403",
        "HTTP/1.1 404",
    ] {
        assert!(
            statuses.iter().any(|s| s == want),
            "no {want} in {statuses:?}"
        );
    }
    for want in [
        "HTTP/1.1 504",
        "HTTP/1.1 400",
        "HTTP/1.1 302",
        "HTTP/1.1 502",
    ] {
        assert!(
            statuses.iter().any(|s| s == want),
            "no {want} in {statuses:?}"
        );
    }
}

#[test]
fn faulted_network_draws_the_same_fates_inline_and_blocking() {
    let (a, b, da) = worlds();
    let cases = cases(&da);
    for case in &cases {
        install_blocking(&b, case.provider, &case.node);
    }
    let faults = FaultConfig {
        refuse_chance: 0.05,
        reset_chance: 0.05,
        drop_chance: 0.1,
        corrupt_chance: 0.1,
        delay_us: 50,
    };
    a.net.set_faults(faults);
    b.net.set_faults(faults);
    let transcripts = compare(&a, &b, &cases);
    let failed = transcripts
        .iter()
        .filter(|t| !t.iter().any(|l| l.starts_with("end: eof")))
        .count();
    assert!(failed > 0, "the faults must bite");
    let (sa, sb) = (a.net.stats(), b.net.stats());
    for (name, x, y) in [
        ("refused", &sa.refused, &sb.refused),
        ("resets", &sa.resets_injected, &sb.resets_injected),
        ("dropped", &sa.chunks_dropped, &sb.chunks_dropped),
        ("corrupted", &sa.chunks_corrupted, &sb.chunks_corrupted),
        ("bytes", &sa.bytes_sent, &sb.bytes_sent),
    ] {
        let (x, y) = (x.load(Ordering::Relaxed), y.load(Ordering::Relaxed));
        assert!(x > 0, "no {name} faults");
        assert_eq!(x, y, "{name}: inline vs blocking");
    }
}

/// A client that shuts down its write side right after its first write.
#[derive(Debug)]
struct HalfClose(Box<dyn Connection>);

impl Connection for HalfClose {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)?;
        self.0.shutdown_write();
        Ok(())
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.0.set_read_timeout(timeout)
    }
    fn shutdown_write(&mut self) {
        self.0.shutdown_write()
    }
    fn peer_addr(&self) -> SocketAddr {
        self.0.peer_addr()
    }
}

#[test]
fn tls_failures_match_the_blocking_server() {
    let a = world();
    let b = world();
    let da = deploy(&a);
    deploy(&b);
    let node = &da.behaviors[0].1;
    install_blocking(&b, ProviderId::Aws, node);
    for w in [&a, &b] {
        let (net, tls_addr, plain_addr) = (
            &w.net,
            ingress_addr(w, node, 443),
            ingress_addr(w, node, 80),
        );
        let dialer = SimDialer::new(net.clone());
        // The AWS wildcard certificate does not cover this SNI.
        match dialer.dial(tls_addr, "www.example.com", true, TIMEOUT) {
            Err(DialError::Tls(TlsError::CertMismatch { cert, sni })) => {
                assert_eq!(
                    (cert.as_str(), sni.as_str()),
                    ("*.on.aws", "www.example.com")
                );
            }
            other => panic!("expected a certificate mismatch, got {other:?}"),
        }
        // A ClientHello on :80 is an unterminated HTTP head: the server
        // waits for more, and the handshake read times out.
        let host = node.as_str();
        match dialer.dial(plain_addr, host, true, TIMEOUT) {
            Err(DialError::Tls(TlsError::Io(e))) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected a handshake timeout, got {other:?}"),
        }
        // Once the client half-closes after its hello, the server
        // frames it as a cut-off request and answers 400: not TLS.
        let mut raw = net.connect_for(plain_addr, host).unwrap();
        raw.set_read_timeout(Some(TIMEOUT)).unwrap();
        match TlsClient::handshake(Box::new(HalfClose(raw)), host) {
            Err(TlsError::NotTls) => {}
            other => panic!("expected NotTls, got {:?}", other.map(|_| ())),
        }
    }
}

// ---- Defined outcomes for awkward input on the inline session ----

fn client(net: &SimNet, timeout: Duration) -> HttpClient<SimDialer> {
    HttpClient::new(
        SimDialer::new(net.clone()),
        ClientConfig {
            read_timeout: timeout,
            ..ClientConfig::default()
        },
    )
}

/// Deploy one function and open a plain connection to its ingress node.
fn open(w: &World, behavior: Behavior) -> (Fqdn, Box<dyn Connection>) {
    let fqdn = w
        .platform
        .deploy(DeploySpec::new(ProviderId::Aws, behavior))
        .unwrap()
        .fqdn;
    let mut conn = w
        .net
        .connect_for(ingress_addr(w, &fqdn, 80), fqdn.as_str())
        .unwrap();
    conn.set_read_timeout(Some(TIMEOUT)).unwrap();
    (fqdn, conn)
}

fn read_to_end(conn: &mut dyn Connection) -> (Vec<u8>, io::Result<()>) {
    let mut all = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match conn.read(&mut buf) {
            Ok(0) => return (all, Ok(())),
            Ok(n) => all.extend_from_slice(&buf[..n]),
            Err(e) => return (all, Err(e)),
        }
    }
}

#[test]
fn request_split_across_many_writes_gets_the_same_reply() {
    let w = world();
    let (fqdn, mut whole) = open(
        &w,
        Behavior::PlainLog {
            tag: "split".into(),
        },
    );
    let req = get("/", fqdn.as_str());
    whole.write_all(&req).unwrap();
    whole.shutdown_write();
    let (expect, end) = read_to_end(whole.as_mut());
    assert!(end.is_ok());
    assert!(expect.starts_with(b"HTTP/1.1 200 OK\r\n"));

    let mut split = w
        .net
        .connect_for(ingress_addr(&w, &fqdn, 80), fqdn.as_str())
        .unwrap();
    split.set_read_timeout(Some(TIMEOUT)).unwrap();
    for byte in &req {
        split.write_all(std::slice::from_ref(byte)).unwrap();
    }
    split.shutdown_write();
    let (got, end) = read_to_end(split.as_mut());
    assert!(end.is_ok());
    assert_eq!(lossy(&got), lossy(&expect));
}

#[test]
fn partial_head_then_eof_gets_400_and_close() {
    let w = world();
    let (_fqdn, mut conn) = open(&w, Behavior::EmptyOk);
    conn.write_all(b"GET / HTTP/1.1\r\nHost: cut.example")
        .unwrap();
    conn.shutdown_write();
    let (got, end) = read_to_end(conn.as_mut());
    assert!(end.is_ok(), "clean EOF after the 400: {end:?}");
    assert!(
        got.starts_with(b"HTTP/1.1 400 Bad Request\r\n"),
        "{}",
        lossy(&got)
    );
}

#[test]
fn oversized_head_gets_400_close_and_no_more_input() {
    let w = world();
    let (_fqdn, mut conn) = open(&w, Behavior::EmptyOk);
    let max_head = Limits::default().max_head;
    conn.write_all(b"GET / HTTP/1.1\r\n").unwrap();
    let pad = b"X-Pad: 0123456789012345678901234567890123456789012345678901234567\r\n";
    let mut sent = 0;
    let refused = loop {
        match conn.write_all(pad) {
            Ok(()) => sent += pad.len(),
            Err(e) => break e,
        }
        assert!(
            sent <= max_head + pad.len(),
            "session kept reading past its limit"
        );
    };
    // The session rejected the head once it passed `max_head` and
    // closed: later writes find the peer gone.
    assert_eq!(refused.kind(), io::ErrorKind::BrokenPipe);
    assert!(sent > max_head - pad.len());
    let (got, end) = read_to_end(conn.as_mut());
    assert!(end.is_ok());
    assert!(
        got.starts_with(b"HTTP/1.1 400 Bad Request\r\n"),
        "{}",
        lossy(&got)
    );
}

#[test]
fn hung_function_read_times_out_at_exactly_the_virtual_deadline() {
    let w = world();
    let fqdn = w
        .platform
        .deploy(DeploySpec::new(ProviderId::Aws, Behavior::InternalOnly))
        .unwrap()
        .fqdn;
    let addr = ingress_addr(&w, &fqdn, 443);
    let clock = w.net.clock().clone();
    let req = Request::get("/", fqdn.as_str());
    for timeout_ms in [30, HANG_MS] {
        let before = clock.now_us();
        match client(&w.net, Duration::from_millis(timeout_ms)).send(
            addr,
            fqdn.as_str(),
            true,
            &req,
        ) {
            Err(FetchError::Http(e)) => assert!(e.is_timeout(), "{e:?}"),
            other => panic!("expected a timeout, got {other:?}"),
        }
        // A deadline equal to the hang times out too: the read deadline
        // and the reply fire in the same clock advance.
        assert_eq!(clock.now_us() - before, timeout_ms * 1_000);
    }
    // With a longer timeout the 504 arrives exactly when the hang ends.
    let before = clock.now_us();
    let resp = client(&w.net, TIMEOUT)
        .send(addr, fqdn.as_str(), true, &req)
        .unwrap();
    assert_eq!(resp.status, 504);
    assert_eq!(clock.now_us() - before, HANG_MS * 1_000);
}

#[test]
fn nested_gateway_to_platform_call_runs_inside_the_session() {
    let w = world();
    let fast = w
        .platform
        .deploy(DeploySpec::new(
            ProviderId::Aws,
            Behavior::JsonApi {
                service: "orders".into(),
            },
        ))
        .unwrap()
        .fqdn;
    let hung = w
        .platform
        .deploy(DeploySpec::new(ProviderId::Aws, Behavior::InternalOnly))
        .unwrap()
        .fqdn;
    let gw = ApiGateway::create(
        w.net.clone(),
        w.resolver.clone(),
        w.platform.clone(),
        "api.examplecorp.com",
        Ipv4Addr::new(198, 51, 100, 80),
    )
    .unwrap();
    for (prefix, backend) in [("/fast", &fast), ("/hung", &hung)] {
        gw.add_route(RouteConfig {
            path_prefix: prefix.into(),
            backend: GatewayBackend::Function(backend.clone()),
            api_key: None,
            rate_limit: None,
            cache: false,
        });
    }
    let clock = w.net.clock().clone();
    let c = client(&w.net, TIMEOUT);
    let host = gw.host.as_str();
    let resp = c
        .send(gw.addr, host, true, &Request::get("/fast/x", host))
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_text().contains("orders"));
    assert_eq!(w.platform.invocation_count(&fast), 1);
    // The backend's delayed 504 comes back through the outer session:
    // the nested read waits on the clock on this thread.
    let before = clock.now_us();
    let resp = c
        .send(gw.addr, host, true, &Request::get("/hung/x", host))
        .unwrap();
    assert_eq!(resp.status, 504);
    assert_eq!(clock.now_us() - before, HANG_MS * 1_000);
}
