//! Criterion benches for the C2-scan critical path (§5.1).
//!
//! `c2_scan_reuse_on` replays the full 26-signature corpus against a
//! planted relay through the client's keep-alive slot (one dial per
//! port), the way the scanner does: pre-encoded probes, replies matched
//! in place; `c2_scan_reuse_off` sends the same probes with
//! `Connection: close` on every request — the pre-keep-alive behavior,
//! one dial and handshake per signature. `resolver_read_path` measures
//! warm cache hits through `Resolver::resolve_shared` under the shard
//! read lock.
//!
//! `ingress_exchange` isolates one keep-alive request/response — the
//! unit the C2 scan repeats ~26 × 2 times per candidate: over TLS
//! against a platform function (the inline ingress), and the same
//! plain `HttpSession` under the blocking driver (a `SimNet::listen`
//! handler thread running `serve_connection`) and under the inline
//! driver (`SimNet::listen_inline`). The last two differ only in the
//! driver, so their gap is the cost of a handler thread's handoffs.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fw_abuse::c2::{corpus, relay_template};
use fw_cloud::behavior::Behavior;
use fw_cloud::platform::{CloudPlatform, DeploySpec, PlatformConfig};
use fw_dns::resolver::Resolver;
use fw_http::client::{ClientConfig, HttpClient, RequestTemplate, SimDialer};
use fw_http::parse::{read_response, write_request, Limits};
use fw_http::server::{serve_connection, HttpSession, Reply};
use fw_http::types::{Request, Response};
use fw_net::{Connection, SimNet};
use fw_probe::c2probe::C2Scanner;
use fw_types::{Fqdn, ProviderId, Rdata, RecordType};
use parking_lot::RwLock;
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

fn world() -> (CloudPlatform, SimNet, Arc<RwLock<Resolver>>) {
    let net = SimNet::new(17);
    let resolver = Arc::new(RwLock::new(Resolver::new()));
    let platform = CloudPlatform::new(net.clone(), resolver.clone(), PlatformConfig::default());
    (platform, net, resolver)
}

fn deploy_relay(platform: &CloudPlatform, family_idx: usize) -> Fqdn {
    let tpl = relay_template(family_idx);
    platform
        .deploy(DeploySpec::new(
            ProviderId::Tencent,
            Behavior::C2Relay {
                family: tpl.family.to_string(),
                trigger_path: tpl.trigger_path,
                trigger_magic: tpl.trigger_magic,
                reply: tpl.reply,
            },
        ))
        .unwrap()
        .fqdn
}

fn relay_addr(resolver: &Arc<RwLock<Resolver>>, fqdn: &Fqdn, port: u16) -> SocketAddr {
    let answers = resolver
        .read()
        .resolve_shared(fqdn, RecordType::A, 0)
        .expect("relay resolves");
    let ip = answers
        .addresses()
        .iter()
        .find_map(|r| match r {
            Rdata::V4(ip) => Some(*ip),
            _ => None,
        })
        .expect("relay has an A record");
    SocketAddr::new(IpAddr::V4(ip), port)
}

/// Replay every corpus signature against one relay, with and without
/// connection reuse. The request bodies are identical; "off" only adds
/// `Connection: close`, which bypasses the keep-alive slot exactly like
/// the old one-dial-per-probe client.
fn bench_corpus_replay(c: &mut Criterion) {
    let (platform, net, resolver) = world();
    let fqdn = deploy_relay(&platform, 0);
    let addr = relay_addr(&resolver, &fqdn, 443);
    let sigs = corpus();

    let mut group = c.benchmark_group("c2_corpus_replay");
    group.throughput(Throughput::Elements(sigs.len() as u64));
    let closing: Vec<RequestTemplate> = sigs
        .iter()
        .map(|sig| {
            let mut req = sig.probe.to_request("");
            req.headers.insert("Connection", "close");
            RequestTemplate::new(&req).expect("probes carry a Host")
        })
        .collect();
    let mut buf = Vec::new();
    for (name, templates) in [
        (
            "c2_scan_reuse_on",
            sigs.iter().map(|s| &s.wire).collect::<Vec<_>>(),
        ),
        ("c2_scan_reuse_off", closing.iter().collect()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let client = HttpClient::new(SimDialer::new(net.clone()), ClientConfig::default());
                let mut ok = 0usize;
                for (sig, template) in sigs.iter().zip(&templates) {
                    let wire = template.write_for(fqdn.as_str(), &mut buf);
                    if client
                        .send_with(addr, fqdn.as_str(), true, wire, |r| sig.matches(r))
                        .is_ok()
                    {
                        ok += 1;
                    }
                }
                black_box(ok)
            })
        });
    }
    group.finish();
}

/// End-to-end `scan_one` over a mixed population: the scanner resolves,
/// dials once per port, and replays the corpus through keep-alive.
fn bench_scan_one(c: &mut Criterion) {
    let (platform, net, resolver) = world();
    let relay = deploy_relay(&platform, 0);
    let benign = platform
        .deploy(DeploySpec::new(
            ProviderId::Aws,
            Behavior::JsonApi {
                service: "clean".into(),
            },
        ))
        .unwrap()
        .fqdn;
    let scanner = C2Scanner::new(net, resolver).with_timeout(Duration::from_millis(500));

    let mut group = c.benchmark_group("c2_scan_one");
    group.bench_function("relay_first_hit", |b| {
        b.iter(|| black_box(scanner.scan_one(&relay)))
    });
    group.bench_function("benign_full_corpus", |b| {
        b.iter(|| black_box(scanner.scan_one(&benign)))
    });
    group.finish();
}

/// One keep-alive exchange per iteration on a connection opened once.
fn bench_ingress_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingress_exchange");
    group.throughput(Throughput::Elements(1));

    let (platform, net, resolver) = world();
    let fqdn = deploy_relay(&platform, 0);
    let addr = relay_addr(&resolver, &fqdn, 443);
    let client = HttpClient::new(SimDialer::new(net), ClientConfig::default());
    let probe = &corpus()[0].wire;
    let mut buf = Vec::new();
    group.bench_function("platform_tls_keepalive", |b| {
        b.iter(|| {
            let wire = probe.write_for(fqdn.as_str(), &mut buf);
            black_box(
                client
                    .send_with(addr, fqdn.as_str(), true, wire, |r| r.status)
                    .ok(),
            )
        })
    });

    let handler = |_req: &Request| Response::text(404, "Not Found");
    let req = Request::get("/", "fn.example");
    let exchange = |conn: &mut dyn Connection| {
        write_request(conn, &req).unwrap();
        read_response(conn, &Limits::default(), false)
            .unwrap()
            .status
    };
    let blocking: SocketAddr = "198.18.0.1:80".parse().unwrap();
    let inline: SocketAddr = "198.18.0.2:80".parse().unwrap();
    let net = SimNet::new(18);
    net.listen_fn(blocking, move |mut conn| {
        serve_connection(conn.as_mut(), &Limits::default(), &handler);
    });
    net.listen_inline(inline, move || {
        Box::new(HttpSession::new(Limits::default(), move |req: &Request| {
            Reply::from(handler(req))
        }))
    });
    for (name, addr) in [("session_blocking", blocking), ("session_inline", inline)] {
        let mut conn = net.connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        group.bench_function(name, |b| b.iter(|| black_box(exchange(conn.as_mut()))));
    }
    group.finish();
}

/// Warm-cache resolution through the shard read lock — the path the
/// prober and C2 scanner take on every lookup after the first.
fn bench_resolver_read_path(c: &mut Criterion) {
    let (platform, _net, resolver) = world();
    let fqdns: Vec<Fqdn> = (0..64)
        .map(|i| {
            platform
                .deploy(DeploySpec::new(
                    ProviderId::Aws,
                    Behavior::JsonApi {
                        service: format!("svc{i}"),
                    },
                ))
                .unwrap()
                .fqdn
        })
        .collect();
    // Warm every entry so the bench measures pure fast-path hits.
    for f in &fqdns {
        resolver
            .read()
            .resolve_shared(f, RecordType::A, 0)
            .expect("warms");
    }

    let mut group = c.benchmark_group("resolver_read_path");
    group.throughput(Throughput::Elements(fqdns.len() as u64));
    group.bench_function("warm_hits_64", |b| {
        b.iter(|| {
            let guard = resolver.read();
            let mut n = 0usize;
            for f in &fqdns {
                n += guard
                    .resolve_shared(f, RecordType::A, 0)
                    .map(|a| a.addresses().len())
                    .unwrap_or(0);
            }
            black_box(n)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_corpus_replay,
    bench_scan_one,
    bench_ingress_exchange,
    bench_resolver_read_path
);
criterion_main!(benches);
