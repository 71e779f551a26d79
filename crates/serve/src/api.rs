//! Request routing over `fw-http`, fronted by the sharded LRU cache.
//!
//! Routing is a static match over the first path segments — no
//! allocation on the hot path until a cache miss forces a compute.
//! Every response except `/v1/status` is cacheable: bodies are pure
//! functions of the frozen [`ServeState`], so a cached byte stream is
//! always identical to a recomputed one (the load harness digests
//! responses to prove it). `/v1/status` stays uncached because it
//! reports the live cache counters themselves.
//!
//! Two serve paths share the same router and cache:
//!
//! * the legacy [`ServeApi::handle`] closure (via
//!   [`serve_connection`]), which materializes a [`Request`] and a
//!   [`Response`] per exchange — kept for the HTTP client tests and as
//!   the executable spec;
//! * the zero-copy [`ServeApi::serve_fast`] loop, which parses in place
//!   with [`fw_http::fast`], answers cache hits by writing the stored
//!   wire image straight to the connection (one pointer clone + one
//!   `write_all`), and renders misses into a reusable scratch buffer.
//!   [`ServeApi::serve_pool`] runs it on a fixed pool of
//!   clock-registered accept workers with flow-steered connections.
//!
//! Both paths emit byte-identical responses — the fast renderers are
//! proptested against the scalar serializer — so the load harness
//! digest cannot tell them apart.
//!
//! Instrumentation: one latency histogram per endpoint
//! (`fw.serve.latency_us.<endpoint>`), `fw.serve.requests` /
//! `fw.serve.responses.<class>` counters, and a trace span per request
//! when the trace layer is armed.

use crate::cache::{CacheConfig, CacheStats, CachedResponse, ShardedCache};
use crate::state::ServeState;
use fw_dns::pdns::PdnsBackend;
use fw_http::fast::{read_request_fast, render_response, render_status, Scratch};
use fw_http::parse::{write_response, HttpError, Limits};
use fw_http::server::serve_connection;
use fw_http::types::{Method, Request, Response};
use fw_net::{Connection, SimNet};
use fw_obs::{counter_inc, Histogram};
use fw_types::Json;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Route classes, used for per-endpoint latency attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Status,
    Verdict,
    Usage,
    Abuse,
    Candidates,
    Figures,
    NotFound,
}

impl Endpoint {
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Status,
        Endpoint::Verdict,
        Endpoint::Usage,
        Endpoint::Abuse,
        Endpoint::Candidates,
        Endpoint::Figures,
        Endpoint::NotFound,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Status => "status",
            Endpoint::Verdict => "verdict",
            Endpoint::Usage => "usage",
            Endpoint::Abuse => "abuse",
            Endpoint::Candidates => "candidates",
            Endpoint::Figures => "figures",
            Endpoint::NotFound => "not_found",
        }
    }
}

const BODY_404: &str = "{\"error\": \"no such endpoint\"}";
const BODY_405: &str = "{\"error\": \"GET only\"}";

/// The API: frozen state + response cache + instrumentation handles.
///
/// The state rides behind an `Arc` so several `ServeApi` instances (the
/// worker-scaling sweep builds one per worker count) can front the same
/// frozen snapshot without rebuilding it.
pub struct ServeApi<B: PdnsBackend> {
    state: Arc<ServeState<B>>,
    cache: ShardedCache,
    latency: Vec<Arc<Histogram>>,
    seq: AtomicU64,
    /// Pre-rendered wire images for the two constant error responses.
    wire_404: CachedResponse,
    wire_405: CachedResponse,
}

impl<B: PdnsBackend> ServeApi<B> {
    pub fn new(state: Arc<ServeState<B>>, cache: CacheConfig) -> ServeApi<B> {
        let latency = Endpoint::ALL
            .iter()
            .map(|ep| fw_obs::registry().histogram(&format!("fw.serve.latency_us.{}", ep.label())))
            .collect();
        ServeApi {
            state,
            cache: ShardedCache::new(cache),
            latency,
            seq: AtomicU64::new(0),
            wire_404: CachedResponse::render(404, "application/json", BODY_404.as_bytes()),
            wire_405: CachedResponse::render(405, "application/json", BODY_405.as_bytes()),
        }
    }

    pub fn state(&self) -> &ServeState<B> {
        &self.state
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Serve one request. The returned response is fully rendered; the
    /// caller (usually [`serve_connection`]) owns framing.
    pub fn handle(&self, req: &Request) -> Response {
        let t = Instant::now();
        let _span = fw_obs::trace_span_arg("serve/req", self.seq.fetch_add(1, Ordering::Relaxed));
        counter_inc!("fw.serve.requests");
        let (ep, resp) = self.route(req);
        self.record(ep, resp.status, t);
        resp
    }

    /// The endpoint's latency since `t` and the response-class counter.
    fn record(&self, ep: Endpoint, status: u16, t: Instant) {
        if fw_obs::enabled() {
            self.latency[ep as usize].record(t.elapsed().as_micros() as u64);
            match status {
                200..=299 => counter_inc!("fw.serve.responses.ok"),
                400..=499 => counter_inc!("fw.serve.responses.client_error"),
                _ => counter_inc!("fw.serve.responses.other"),
            }
        }
    }

    fn route(&self, req: &Request) -> (Endpoint, Response) {
        if req.method != Method::Get {
            return (Endpoint::NotFound, Response::json(405, BODY_405));
        }
        match self.route_target(&req.target) {
            (ep, Routed::Status) => (ep, Response::json(200, &self.status_body())),
            (ep, Routed::Cached(entry)) => (
                ep,
                Response::with_body(entry.status, "application/json", entry.body().to_vec()),
            ),
            (ep, Routed::NotFound) => (ep, Response::json(404, BODY_404)),
        }
    }

    /// Render the live status document (uncached by design: it reports
    /// the cache's own counters).
    fn status_body(&self) -> String {
        let cache = self.cache.stats();
        let mut doc = match self.state.status_json() {
            Json::Obj(fields) => fields,
            other => vec![("state".to_string(), other)],
        };
        doc.push((
            "cache".to_string(),
            Json::Obj(vec![
                ("hits".to_string(), Json::Num(cache.hits as f64)),
                ("misses".to_string(), Json::Num(cache.misses as f64)),
                ("evictions".to_string(), Json::Num(cache.evictions as f64)),
                ("entries".to_string(), Json::Num(cache.entries as f64)),
            ]),
        ));
        Json::Obj(doc).render()
    }

    /// Route a GET target to its endpoint class and response source.
    /// Shared by the legacy and fast serve paths so they cannot drift.
    fn route_target(&self, target: &str) -> (Endpoint, Routed) {
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (target, None),
        };
        let mut segs = path.trim_start_matches('/').splitn(4, '/');
        match (segs.next(), segs.next(), segs.next(), segs.next()) {
            (Some("v1"), Some("status"), None, None) => (Endpoint::Status, Routed::Status),
            (Some("v1"), Some("verdict"), Some(fqdn), None) => (
                Endpoint::Verdict,
                Routed::Cached(self.cached(target, |s| s.verdict_body(fqdn))),
            ),
            (Some("v1"), Some("usage"), Some(fqdn), None) => (
                Endpoint::Usage,
                Routed::Cached(self.cached(target, |s| s.usage_body(fqdn))),
            ),
            (Some("v1"), Some("abuse"), Some(fqdn), None) => (
                Endpoint::Abuse,
                Routed::Cached(self.cached(target, |s| s.abuse_body(fqdn))),
            ),
            (Some("v1"), Some("candidates"), None, None) => {
                let (offset, limit) = paging(query);
                (
                    Endpoint::Candidates,
                    Routed::Cached(self.cached(target, |s| s.candidates_body(offset, limit))),
                )
            }
            (Some("v1"), Some("figures"), Some(name), None) => (
                Endpoint::Figures,
                Routed::Cached(self.cached(target, |s| s.figure_body(name))),
            ),
            _ => (Endpoint::NotFound, Routed::NotFound),
        }
    }

    /// Cache-through: key on the full request target, compute on miss.
    /// Returns the shared wire image — hits clone a pointer, nothing
    /// else.
    fn cached(
        &self,
        target: &str,
        compute: impl FnOnce(&ServeState<B>) -> (u16, String),
    ) -> Arc<CachedResponse> {
        let h = ShardedCache::hash_key(target);
        if let Some(hit) = self.cache.get_h(target, h) {
            return hit;
        }
        let (status, body) = compute(&self.state);
        let entry = Arc::new(CachedResponse::render(
            status,
            "application/json",
            body.as_bytes(),
        ));
        self.cache.put_h(target, h, Arc::clone(&entry));
        entry
    }

    /// The zero-copy serve loop: parse in place, write cache hits as
    /// stored wire images, render everything else into the reusable
    /// scratch buffer. Byte-for-byte equivalent to running
    /// [`serve_connection`] over [`ServeApi::handle`]. Whatever an
    /// earlier connection left in `scratch` is dropped first.
    pub fn serve_fast(&self, conn: &mut dyn Connection, scratch: &mut Scratch) {
        scratch.reset();
        let limits = Limits::default();
        loop {
            let req = match read_request_fast(conn, scratch, &limits) {
                Ok(r) => r,
                Err(HttpError::Eof) | Err(HttpError::Io(_)) => break,
                Err(HttpError::Parse(_)) | Err(HttpError::TooLarge(_)) => {
                    scratch.out.clear();
                    render_status(&mut scratch.out, 400);
                    let _ = conn.write_all(&scratch.out);
                    break;
                }
            };
            if req.close {
                // Rare path (no harness client sends `Connection:
                // close`): replay through the legacy handler so the
                // close header lands exactly where serve_connection
                // puts it.
                let mut resp = self.handle(&scratch.request(&req));
                resp.headers.set("Connection", "close");
                let _ = write_response(conn, &resp);
                break;
            }
            let t = Instant::now();
            let _span =
                fw_obs::trace_span_arg("serve/req", self.seq.fetch_add(1, Ordering::Relaxed));
            counter_inc!("fw.serve.requests");
            let entry;
            let (ep, status, wire) = if req.method != Method::Get {
                (Endpoint::NotFound, 405, self.wire_405.wire())
            } else {
                match self.route_target(scratch.target(&req)) {
                    (ep, Routed::Status) => {
                        let body = self.status_body();
                        scratch.out.clear();
                        render_response(&mut scratch.out, 200, "application/json", body.as_bytes());
                        (ep, 200, &scratch.out[..])
                    }
                    (ep, Routed::Cached(cached)) => {
                        entry = cached;
                        (ep, entry.status, entry.wire())
                    }
                    (ep, Routed::NotFound) => (ep, 404, self.wire_404.wire()),
                }
            };
            if conn.write_all(wire).is_err() {
                break;
            }
            self.record(ep, status, t);
        }
        conn.shutdown_write();
    }

    /// Register this API as a SimNet listener: each accepted connection
    /// runs the standard keep-alive serve loop on its handler thread.
    pub fn serve_on(self: &Arc<Self>, net: &SimNet, addr: SocketAddr)
    where
        B: Send + Sync + 'static,
    {
        let api = Arc::clone(self);
        net.listen_fn(addr, move |mut conn| {
            let _ = conn.set_read_timeout(None);
            let api = Arc::clone(&api);
            serve_connection(&mut *conn, &Limits::default(), &move |req: &Request| {
                api.handle(req)
            });
        });
    }

    /// Register this API as a pooled SimNet listener: `workers` accept
    /// loops, each owning one reusable [`Scratch`] and running
    /// [`ServeApi::serve_fast`] on every steered connection.
    pub fn serve_pool(self: &Arc<Self>, net: &SimNet, addr: SocketAddr, workers: usize)
    where
        B: Send + Sync + 'static,
    {
        let api = Arc::clone(self);
        net.listen_pool(addr, workers, move |_w| {
            let api = Arc::clone(&api);
            let mut scratch = Scratch::new();
            move |mut conn: Box<dyn Connection>| {
                let _ = conn.set_read_timeout(None);
                api.serve_fast(&mut *conn, &mut scratch);
            }
        });
    }
}

/// Where a routed response comes from.
enum Routed {
    /// Live status document (uncached).
    Status,
    /// Cache-through wire image.
    Cached(Arc<CachedResponse>),
    NotFound,
}

/// Parse `offset=&limit=` out of a query string (defaults 0 / 50).
fn paging(query: Option<&str>) -> (usize, usize) {
    let (mut offset, mut limit) = (0usize, 50usize);
    for pair in query.unwrap_or("").split('&') {
        match pair.split_once('=') {
            Some(("offset", v)) => offset = v.parse().unwrap_or(0),
            Some(("limit", v)) => limit = v.parse().unwrap_or(50),
            _ => {}
        }
    }
    (offset, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_dns::pdns::PdnsStore;
    use fw_net::pipe_pair;
    use fw_types::{DayStamp, Fqdn, Rdata};
    use std::net::Ipv4Addr;

    fn api() -> ServeApi<PdnsStore> {
        let mut store = PdnsStore::new();
        let f = Fqdn::parse("a1b2c3d4e5f6.lambda-url.us-east-1.on.aws").unwrap();
        let ip = Rdata::V4(Ipv4Addr::new(203, 0, 113, 9));
        for d in [19_100, 19_101, 19_102] {
            store.observe_count(&f, &ip, DayStamp(d), 40);
        }
        ServeApi::new(
            Arc::new(ServeState::build(store, 1)),
            CacheConfig::default(),
        )
    }

    #[test]
    fn routes_resolve_and_missing_paths_404() {
        let api = api();
        let ok = |target: &str| {
            let resp = api.handle(&Request::get(target, "api.sim"));
            assert_eq!(resp.status, 200, "{target}");
            Json::parse(&resp.body_text()).expect("json body");
        };
        ok("/v1/status");
        ok("/v1/verdict/a1b2c3d4e5f6.lambda-url.us-east-1.on.aws");
        ok("/v1/usage/a1b2c3d4e5f6.lambda-url.us-east-1.on.aws");
        ok("/v1/abuse/a1b2c3d4e5f6.lambda-url.us-east-1.on.aws");
        ok("/v1/candidates?offset=0&limit=5");
        ok("/v1/figures/ingress");
        for target in ["/", "/v2/status", "/v1/nope", "/v1/status/extra"] {
            let resp = api.handle(&Request::get(target, "api.sim"));
            assert_eq!(resp.status, 404, "{target}");
        }
        let mut post = Request::get("/v1/status", "api.sim");
        post.method = Method::Post;
        assert_eq!(api.handle(&post).status, 405);
    }

    #[test]
    fn repeat_requests_hit_the_cache_with_identical_bytes() {
        let api = api();
        let target = "/v1/usage/a1b2c3d4e5f6.lambda-url.us-east-1.on.aws";
        let a = api.handle(&Request::get(target, "api.sim"));
        let stats = api.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let b = api.handle(&Request::get(target, "api.sim"));
        assert_eq!(api.cache_stats().hits, 1);
        assert_eq!(a.body, b.body);
        assert_eq!(a.status, b.status);
    }

    #[test]
    fn status_reports_live_cache_counters() {
        let api = api();
        api.handle(&Request::get("/v1/figures/invocation", "api.sim"));
        api.handle(&Request::get("/v1/figures/invocation", "api.sim"));
        let resp = api.handle(&Request::get("/v1/status", "api.sim"));
        let doc = Json::parse(&resp.body_text()).unwrap();
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(1.0));
        assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(1.0));
    }

    /// Drive the same request sequence through `serve_connection` +
    /// `handle` and through `serve_fast`, and require byte-identical
    /// response streams.
    #[test]
    fn fast_path_emits_byte_identical_responses() {
        use fw_http::parse::write_request;
        let targets = [
            "/v1/verdict/a1b2c3d4e5f6.lambda-url.us-east-1.on.aws",
            "/v1/usage/a1b2c3d4e5f6.lambda-url.us-east-1.on.aws",
            "/v1/verdict/a1b2c3d4e5f6.lambda-url.us-east-1.on.aws",
            "/v1/abuse/a1b2c3d4e5f6.lambda-url.us-east-1.on.aws",
            "/v1/candidates?offset=20&limit=20",
            "/v1/figures/ingress",
            "/v1/verdict/miss-1234.not-observed.example",
            "/does/not/exist",
        ];
        // Raw-byte recorder around the client side; exchanges stay
        // strictly serial (request, then whole response), the traffic
        // shape of the load harness.
        #[derive(Debug)]
        struct Tap<'c> {
            inner: &'c mut dyn Connection,
            raw: &'c mut Vec<u8>,
        }
        impl fw_net::Connection for Tap<'_> {
            fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
                self.inner.write_all(buf)
            }
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.inner.read(buf)?;
                self.raw.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn set_read_timeout(
                &mut self,
                timeout: Option<std::time::Duration>,
            ) -> std::io::Result<()> {
                self.inner.set_read_timeout(timeout)
            }
            fn shutdown_write(&mut self) {
                self.inner.shutdown_write()
            }
            fn peer_addr(&self) -> std::net::SocketAddr {
                self.inner.peer_addr()
            }
        }
        let drive = |fast: bool| -> Vec<u8> {
            use fw_http::parse::read_response;
            let api = Arc::new(api());
            let (mut client, mut server) = pipe_pair(
                "10.0.0.1:50000".parse().unwrap(),
                "203.0.113.1:80".parse().unwrap(),
            );
            let srv = std::thread::spawn(move || {
                if fast {
                    let mut scratch = Scratch::new();
                    api.serve_fast(&mut server, &mut scratch);
                } else {
                    serve_connection(&mut server, &Limits::default(), &move |req: &Request| {
                        api.handle(req)
                    });
                }
            });
            let mut raw = Vec::new();
            for target in targets {
                write_request(&mut client, &Request::get(target, "api.sim")).unwrap();
                let mut tap = Tap {
                    inner: &mut client,
                    raw: &mut raw,
                };
                read_response(&mut tap, &Limits::default(), false).unwrap();
            }
            client.shutdown_write();
            drop(client);
            srv.join().unwrap();
            raw
        };
        let legacy = drive(false);
        let fast = drive(true);
        assert!(!legacy.is_empty());
        assert_eq!(legacy, fast);
    }

    /// `Connection: close` and malformed heads take the same exit paths
    /// on both serve loops.
    #[test]
    fn fast_path_close_and_bad_request_match_legacy() {
        use fw_http::parse::{read_response, write_request};
        let drive = |fast: bool, bytes: &[u8]| -> Vec<u8> {
            let api = Arc::new(api());
            let (mut client, mut server) = pipe_pair(
                "10.0.0.1:50000".parse().unwrap(),
                "203.0.113.1:80".parse().unwrap(),
            );
            let bytes = bytes.to_vec();
            let srv = std::thread::spawn(move || {
                if fast {
                    let mut scratch = Scratch::new();
                    api.serve_fast(&mut server, &mut scratch);
                } else {
                    serve_connection(&mut server, &Limits::default(), &move |req: &Request| {
                        api.handle(req)
                    });
                }
            });
            client.write_all(&bytes).unwrap();
            client.shutdown_write();
            let mut raw = Vec::new();
            let mut buf = [0u8; 4096];
            loop {
                match client.read(&mut buf).unwrap() {
                    0 => break,
                    n => raw.extend_from_slice(&buf[..n]),
                }
            }
            srv.join().unwrap();
            raw
        };
        let mut close_req = Vec::new();
        {
            let (mut a, mut b) = pipe_pair(
                "10.0.0.2:50000".parse().unwrap(),
                "203.0.113.1:80".parse().unwrap(),
            );
            let mut req = Request::get("/v1/status", "api.sim");
            req.headers.insert("Connection", "close");
            write_request(&mut a, &req).unwrap();
            a.shutdown_write();
            let mut buf = [0u8; 4096];
            loop {
                match b.read(&mut buf).unwrap() {
                    0 => break,
                    n => close_req.extend_from_slice(&buf[..n]),
                }
            }
        }
        // Status bodies report live counters, so compare framing not
        // bytes: both must parse as one response with Connection: close.
        for fast in [false, true] {
            let raw = drive(fast, &close_req);
            let (mut a, mut b) = pipe_pair(
                "10.0.0.3:50000".parse().unwrap(),
                "203.0.113.1:80".parse().unwrap(),
            );
            a.write_all(&raw).unwrap();
            a.shutdown_write();
            let resp = read_response(&mut b, &Limits::default(), false).unwrap();
            assert_eq!(resp.status, 200, "fast={fast}");
            assert_eq!(resp.headers.get("connection"), Some("close"), "fast={fast}");
        }
        let legacy = drive(false, b"GARBAGE REQUEST LINE\r\n\r\n");
        let fast = drive(true, b"GARBAGE REQUEST LINE\r\n\r\n");
        assert_eq!(legacy, fast);
        assert!(!legacy.is_empty());
    }

    /// A worker reuses one scratch across connections: bytes a bad
    /// client left unparsed must not reach the next connection.
    #[test]
    fn fast_path_starts_each_connection_clean() {
        use fw_http::parse::{read_response, write_request};
        let api = api();
        let mut scratch = Scratch::new();
        let mut exchange = |write: &dyn Fn(&mut fw_net::PipeConn)| {
            let (mut client, mut server) = pipe_pair(
                "10.0.0.1:50000".parse().unwrap(),
                "203.0.113.1:80".parse().unwrap(),
            );
            write(&mut client);
            client.shutdown_write();
            api.serve_fast(&mut server, &mut scratch);
            read_response(&mut client, &Limits::default(), false)
                .unwrap()
                .status
        };
        let bad = exchange(&|c| c.write_all(b"GARBAGE REQUEST LINE\r\n\r\n").unwrap());
        assert_eq!(bad, 400);
        let target = "/v1/verdict/a1b2c3d4e5f6.lambda-url.us-east-1.on.aws";
        let good = exchange(&|c| write_request(c, &Request::get(target, "api.sim")).unwrap());
        assert_eq!(good, 200);
    }

    /// The pooled fast listener answers over SimNet like the legacy
    /// listener does.
    #[test]
    fn serve_pool_answers_over_simnet() {
        use fw_http::parse::{read_response, write_request};
        let api = Arc::new(api());
        let net = SimNet::new(7);
        let addr: SocketAddr = "10.9.0.1:8080".parse().unwrap();
        api.serve_pool(&net, addr, 2);
        for flow in 0..4u64 {
            let mut conn = net.connect_flow_id(addr, flow).unwrap();
            conn.set_read_timeout(None).unwrap();
            let target = "/v1/verdict/a1b2c3d4e5f6.lambda-url.us-east-1.on.aws";
            write_request(&mut conn, &Request::get(target, "api.sim")).unwrap();
            let resp = read_response(&mut conn, &Limits::default(), false).unwrap();
            assert_eq!(resp.status, 200);
            Json::parse(&resp.body_text()).expect("json body");
        }
        assert!(api.cache_stats().hits >= 3);
    }
}
