//! API Gateway (§2.2, excluded from measurement by §3.5).
//!
//! API gateways bind functions as backends behind generated REST APIs,
//! often under gateway-owned or fully custom domains, and add caching,
//! rate limiting and custom authentication. The paper excludes them
//! because a gateway hostname says nothing about whether the backend is
//! a serverless function — any backend type hides behind the same
//! domain shape.
//!
//! Implementing the gateway makes that exclusion *demonstrable*: the
//! tests below route real HTTP through a gateway to a function backend
//! and to a non-function backend, and show that domain identification
//! cannot tell them apart (`gateway_domains_defeat_identification`).

use crate::platform::{listen_ingress, CloudPlatform};
use fw_http::server::Reply;
use fw_http::types::{Request, Response};
use fw_net::SimNet;
use fw_types::{Fqdn, FwResult};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a gateway route forwards to.
#[derive(Clone)]
pub enum GatewayBackend {
    /// A serverless function on the platform (invoked by Host-rewriting
    /// to the function's own domain, like Figure 1's forwarding arrow).
    Function(Fqdn),
    /// Any other backend: an opaque handler (VM service, container,
    /// static site...). This is why §3.5 cannot assume gateway = FaaS.
    Opaque(Arc<dyn Fn(&Request) -> Response + Send + Sync>),
}

impl std::fmt::Debug for GatewayBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayBackend::Function(fq) => write!(f, "Function({fq})"),
            GatewayBackend::Opaque(_) => write!(f, "Opaque(..)"),
        }
    }
}

/// Per-route configuration: the §2.2 "advanced features".
#[derive(Debug, Clone)]
pub struct RouteConfig {
    /// Path prefix this route owns (e.g. `/v1`).
    pub path_prefix: String,
    pub backend: GatewayBackend,
    /// Require an `X-Api-Key` header with this value.
    pub api_key: Option<String>,
    /// Max requests per pump of the rate window (None = unlimited).
    pub rate_limit: Option<u64>,
    /// Cache successful GET responses by path.
    pub cache: bool,
}

struct RouteState {
    config: RouteConfig,
    served_in_window: AtomicU64,
    cache: Mutex<HashMap<String, Response>>,
    cache_hits: AtomicU64,
}

struct GatewayInner {
    routes: RwLock<Vec<Arc<RouteState>>>,
    platform: CloudPlatform,
    resolver: Arc<parking_lot::RwLock<fw_dns::resolver::Resolver>>,
    net: SimNet,
}

/// One API gateway instance with its own hostname and ingress address.
#[derive(Clone)]
pub struct ApiGateway {
    pub host: Fqdn,
    pub addr: SocketAddr,
    inner: Arc<GatewayInner>,
}

impl ApiGateway {
    /// Create a gateway under a custom domain and install its listener
    /// (HTTP :80 and TLS :443, inline sessions) plus a DNS A record.
    /// Forwarding to a function backend opens a nested connection from
    /// inside the session, on the same client thread.
    pub fn create(
        net: SimNet,
        resolver: Arc<parking_lot::RwLock<fw_dns::resolver::Resolver>>,
        platform: CloudPlatform,
        host: &str,
        ip: Ipv4Addr,
    ) -> FwResult<ApiGateway> {
        let host = Fqdn::parse(host)?;
        let inner = Arc::new(GatewayInner {
            routes: RwLock::new(Vec::new()),
            platform,
            resolver: resolver.clone(),
            net: net.clone(),
        });
        // DNS: the custom domain gets its own zone.
        {
            let mut r = resolver.write();
            let mut zone = fw_dns::zone::Zone::new(host.clone());
            zone.add(host.clone(), fw_types::Rdata::V4(ip), 60);
            r.add_zone(zone);
        }
        let gw = ApiGateway {
            host: host.clone(),
            addr: SocketAddr::new(IpAddr::V4(ip), 443),
            inner: inner.clone(),
        };
        listen_ingress(&net, ip, host.as_str().into(), move |req: &Request| {
            Reply::from(inner.route(req))
        });
        Ok(gw)
    }

    /// Add a route.
    pub fn add_route(&self, config: RouteConfig) {
        self.inner.routes.write().push(Arc::new(RouteState {
            config,
            served_in_window: AtomicU64::new(0),
            cache: Mutex::new(HashMap::new()),
            cache_hits: AtomicU64::new(0),
        }));
    }

    /// Reset all rate-limit windows.
    pub fn reset_rate_windows(&self) {
        for r in self.inner.routes.read().iter() {
            r.served_in_window.store(0, Ordering::Relaxed);
        }
    }

    /// Cache hits across routes (tests/metrics).
    pub fn cache_hits(&self) -> u64 {
        self.inner
            .routes
            .read()
            .iter()
            .map(|r| r.cache_hits.load(Ordering::Relaxed))
            .sum()
    }
}

impl GatewayInner {
    fn route(&self, req: &Request) -> Response {
        let route = {
            let routes = self.routes.read();
            routes
                .iter()
                .filter(|r| req.path().starts_with(&r.config.path_prefix))
                .max_by_key(|r| r.config.path_prefix.len())
                .cloned()
        };
        let Some(route) = route else {
            return Response::json(404, r#"{"message":"no route"}"#);
        };
        // Custom authentication (§2.2).
        if let Some(expected) = &route.config.api_key {
            if req.headers.get("x-api-key") != Some(expected.as_str()) {
                return Response::json(403, r#"{"message":"invalid api key"}"#);
            }
        }
        // Rate limiting (§2.2).
        if let Some(limit) = route.config.rate_limit {
            let n = route.served_in_window.fetch_add(1, Ordering::Relaxed);
            if n >= limit {
                return Response::json(429, r#"{"message":"rate exceeded"}"#);
            }
        }
        // Caching (§2.2).
        let cache_key = req.target.clone();
        if route.config.cache {
            if let Some(hit) = route.cache.lock().get(&cache_key) {
                route.cache_hits.fetch_add(1, Ordering::Relaxed);
                let mut resp = hit.clone();
                resp.headers.set("X-Cache", "HIT");
                return resp;
            }
        }
        let resp = match &route.config.backend {
            GatewayBackend::Opaque(handler) => handler(req),
            GatewayBackend::Function(fqdn) => self.forward_to_function(fqdn, req),
        };
        if route.config.cache && resp.status == 200 {
            route.cache.lock().insert(cache_key, resp.clone());
        }
        resp
    }

    /// Forward to the function's own endpoint over the simulated network
    /// (Figure 1's "Forwarding" arrow), resolving its domain first.
    fn forward_to_function(&self, fqdn: &Fqdn, req: &Request) -> Response {
        let addrs = match self
            .resolver
            .write()
            .resolve(fqdn, fw_types::RecordType::A, 0)
        {
            Ok(res) => res.addresses(),
            Err(_) => return Response::json(502, r#"{"message":"backend unresolvable"}"#),
        };
        let Some(fw_types::Rdata::V4(ip)) =
            addrs.iter().find(|r| matches!(r, fw_types::Rdata::V4(_)))
        else {
            return Response::json(502, r#"{"message":"no backend address"}"#);
        };
        let _ = &self.platform; // backend invocations are metered by the platform itself
        let client = fw_http::client::HttpClient::new(
            fw_http::client::SimDialer::new(self.net.clone()),
            fw_http::client::ClientConfig {
                read_timeout: Duration::from_secs(10),
                ..fw_http::client::ClientConfig::default()
            },
        );
        let mut fwd = req.clone();
        fwd.headers.set("Host", fqdn.to_string());
        fwd.headers.set("X-Forwarded-For", "gateway");
        fwd.headers.remove("connection");
        match client.send(
            SocketAddr::new(IpAddr::V4(*ip), 443),
            fqdn.as_str(),
            true,
            &fwd,
        ) {
            Ok(resp) => resp,
            Err(_) => Response::json(502, r#"{"message":"backend error"}"#),
        }
    }
}

/// Convenience: would domain identification (§3.2) recognize this host?
/// Always false for custom gateway domains — the measurable fact behind
/// the paper's exclusion.
pub fn identifiable_as_function(host: &Fqdn) -> bool {
    crate::formats::identify(host).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::Behavior;
    use crate::platform::{DeploySpec, PlatformConfig};
    use fw_dns::resolver::Resolver;
    use fw_http::client::{ClientConfig, HttpClient, SimDialer};

    fn setup() -> (SimNet, Arc<parking_lot::RwLock<Resolver>>, CloudPlatform) {
        let net = SimNet::new(31);
        let resolver = Arc::new(parking_lot::RwLock::new(Resolver::new()));
        let platform = CloudPlatform::new(net.clone(), resolver.clone(), PlatformConfig::default());
        (net, resolver, platform)
    }

    fn client(net: &SimNet) -> HttpClient<SimDialer> {
        HttpClient::new(
            SimDialer::new(net.clone()),
            ClientConfig {
                read_timeout: Duration::from_millis(800),
                ..ClientConfig::default()
            },
        )
    }

    fn gw(
        net: &SimNet,
        resolver: &Arc<parking_lot::RwLock<Resolver>>,
        p: &CloudPlatform,
    ) -> ApiGateway {
        ApiGateway::create(
            net.clone(),
            resolver.clone(),
            p.clone(),
            "api.examplecorp.com",
            Ipv4Addr::new(198, 51, 100, 80),
        )
        .unwrap()
    }

    #[test]
    fn gateway_fronts_a_function_backend() {
        let (net, resolver, platform) = setup();
        let backend = platform
            .deploy(DeploySpec::new(
                fw_types::ProviderId::Aws,
                Behavior::JsonApi {
                    service: "orders".into(),
                },
            ))
            .unwrap();
        let gw = gw(&net, &resolver, &platform);
        gw.add_route(RouteConfig {
            path_prefix: "/v1".into(),
            backend: GatewayBackend::Function(backend.fqdn.clone()),
            api_key: None,
            rate_limit: None,
            cache: false,
        });
        let req = Request::get("/v1/orders", gw.host.as_str());
        let resp = client(&net)
            .send(gw.addr, gw.host.as_str(), true, &req)
            .unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body_text().contains("orders"));
        // The backend invocation was billed to the function.
        assert_eq!(
            platform
                .with_billing(|b| b.usage(&backend.fqdn))
                .invocations,
            1
        );
    }

    #[test]
    fn gateway_api_key_auth() {
        let (net, resolver, platform) = setup();
        let gw = gw(&net, &resolver, &platform);
        gw.add_route(RouteConfig {
            path_prefix: "/secure".into(),
            backend: GatewayBackend::Opaque(Arc::new(|_| Response::text(200, "in"))),
            api_key: Some("sekrit".into()),
            rate_limit: None,
            cache: false,
        });
        let c = client(&net);
        let denied = c
            .send(
                gw.addr,
                gw.host.as_str(),
                true,
                &Request::get("/secure/x", gw.host.as_str()),
            )
            .unwrap();
        assert_eq!(denied.status, 403);
        let mut authed = Request::get("/secure/x", gw.host.as_str());
        authed.headers.insert("X-Api-Key", "sekrit");
        let ok = c.send(gw.addr, gw.host.as_str(), true, &authed).unwrap();
        assert_eq!(ok.status, 200);
    }

    #[test]
    fn gateway_rate_limit_and_cache() {
        let (net, resolver, platform) = setup();
        let gw = gw(&net, &resolver, &platform);
        gw.add_route(RouteConfig {
            path_prefix: "/limited".into(),
            backend: GatewayBackend::Opaque(Arc::new(|_| Response::text(200, "ok"))),
            api_key: None,
            rate_limit: Some(2),
            cache: false,
        });
        gw.add_route(RouteConfig {
            path_prefix: "/cached".into(),
            backend: GatewayBackend::Opaque(Arc::new(|req| {
                Response::text(200, &format!("computed:{}", req.path()))
            })),
            api_key: None,
            rate_limit: None,
            cache: true,
        });
        let c = client(&net);
        let host = gw.host.as_str();
        // Rate limit: third request in the window gets 429.
        let statuses: Vec<u16> = (0..3)
            .map(|_| {
                c.send(gw.addr, host, true, &Request::get("/limited/a", host))
                    .unwrap()
                    .status
            })
            .collect();
        assert_eq!(statuses, vec![200, 200, 429]);
        gw.reset_rate_windows();
        assert_eq!(
            c.send(gw.addr, host, true, &Request::get("/limited/a", host))
                .unwrap()
                .status,
            200
        );
        // Cache: second hit served from cache.
        let first = c
            .send(gw.addr, host, true, &Request::get("/cached/a", host))
            .unwrap();
        assert_eq!(first.headers.get("x-cache"), None);
        let second = c
            .send(gw.addr, host, true, &Request::get("/cached/a", host))
            .unwrap();
        assert_eq!(second.headers.get("x-cache"), Some("HIT"));
        assert_eq!(gw.cache_hits(), 1);
        assert_eq!(first.body_text(), second.body_text());
    }

    /// The §3.5 exclusion, demonstrated: function-backed and VM-backed
    /// routes are indistinguishable at the domain level, and the gateway
    /// host never matches a Table 1 expression.
    #[test]
    fn gateway_domains_defeat_identification() {
        let (net, resolver, platform) = setup();
        let backend = platform
            .deploy(DeploySpec::new(
                fw_types::ProviderId::Google2,
                Behavior::JsonApi {
                    service: "faas".into(),
                },
            ))
            .unwrap();
        let gw = gw(&net, &resolver, &platform);
        gw.add_route(RouteConfig {
            path_prefix: "/faas".into(),
            backend: GatewayBackend::Function(backend.fqdn.clone()),
            api_key: None,
            rate_limit: None,
            cache: false,
        });
        gw.add_route(RouteConfig {
            path_prefix: "/vm".into(),
            backend: GatewayBackend::Opaque(Arc::new(|_| {
                Response::json(200, r#"{"service":"vm-backed"}"#)
            })),
            api_key: None,
            rate_limit: None,
            cache: false,
        });
        // Both routes answer under the same custom domain...
        let c = client(&net);
        let host = gw.host.as_str();
        assert_eq!(
            c.send(gw.addr, host, true, &Request::get("/faas/x", host))
                .unwrap()
                .status,
            200
        );
        assert_eq!(
            c.send(gw.addr, host, true, &Request::get("/vm/x", host))
                .unwrap()
                .status,
            200
        );
        // ...and that domain does not identify as a function, while the
        // backend's own domain does.
        assert!(!identifiable_as_function(&gw.host));
        assert!(identifiable_as_function(&backend.fqdn));
    }
}
