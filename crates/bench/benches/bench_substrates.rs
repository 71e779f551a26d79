//! Criterion benches for the substrate layers: pattern matching on
//! PDNS-scale fqdn streams, DNS wire codec, PDNS ingestion/aggregation,
//! HTTP parsing, C2 fingerprint matching, billing arithmetic.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fw_cloud::billing::PriceModel;
use fw_cloud::formats::{all_formats, identify};
use fw_dns::pdns::PdnsStore;
use fw_dns::wire::{Message, QType};
use fw_http::parse::{read_response, write_response, Limits};
use fw_net::{pipe_pair, Connection};
use fw_pattern::{Pattern, Sampler, SamplerConfig, XorShiftRng};
use fw_types::{DayStamp, Fqdn, Rdata};
use std::net::Ipv4Addr;

/// A mixed stream of provider-shaped and noise fqdns (the §3.2 hot path).
fn fqdn_stream(n: usize) -> Vec<Fqdn> {
    let mut rng = XorShiftRng::new(99);
    let mut out = Vec::with_capacity(n);
    let patterns: Vec<Pattern> = all_formats()
        .iter()
        .map(|f| Pattern::compile(f.regex).unwrap())
        .collect();
    for i in 0..n {
        if i % 3 == 0 {
            // Noise domain.
            out.push(Fqdn::parse(&format!("host{i}.example{}.com", i % 7)).unwrap());
        } else {
            let p = &patterns[i % patterns.len()];
            // Domain-friendly: keep `(.*)` components non-empty so every
            // sample is a valid fqdn.
            let s = Sampler::with_config(p, SamplerConfig::domain_friendly()).sample(&mut rng);
            out.push(Fqdn::parse(&s).unwrap());
        }
    }
    out
}

fn bench_identification(c: &mut Criterion) {
    let stream = fqdn_stream(10_000);
    let mut group = c.benchmark_group("identify");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("table1_match_10k_fqdns", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for f in &stream {
                if identify(black_box(f)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_dns_wire(c: &mut Criterion) {
    let q = Message::query(
        7,
        Fqdn::parse("abc123.lambda-url.us-east-1.on.aws").unwrap(),
        QType::A,
    );
    let mut resp = Message::response_to(&q, fw_dns::wire::Rcode::NoError);
    for i in 0..4 {
        resp.answers.push(fw_dns::wire::ResourceRecord {
            name: q.questions[0].name.clone(),
            ttl: 60,
            data: fw_dns::wire::RrData::A(Ipv4Addr::new(203, 0, 113, i)),
        });
    }
    let bytes = resp.encode();
    c.bench_function("dns_wire/encode_response", |b| {
        b.iter(|| black_box(resp.encode()))
    });
    c.bench_function("dns_wire/decode_response", |b| {
        b.iter(|| Message::decode(black_box(&bytes)).unwrap())
    });
}

fn bench_pdns(c: &mut Criterion) {
    let fqdns = fqdn_stream(1_000);
    let rdata = Rdata::V4(Ipv4Addr::new(198, 51, 100, 7));
    c.bench_function("pdns/ingest_30k_rows", |b| {
        b.iter(|| {
            let mut store = PdnsStore::new();
            for (i, f) in fqdns.iter().enumerate() {
                for d in 0..30 {
                    store.observe_count(f, &rdata, DayStamp(19_100 + d), (i % 9 + 1) as u64);
                }
            }
            black_box(store.record_count())
        })
    });

    let mut store = PdnsStore::new();
    for (i, f) in fqdns.iter().enumerate() {
        for d in 0..30 {
            store.observe_count(f, &rdata, DayStamp(19_100 + d), (i % 9 + 1) as u64);
        }
    }
    c.bench_function("pdns/aggregate_1k_fqdns", |b| {
        b.iter(|| {
            let total: u64 = store.aggregates().map(|a| a.total_request_cnt).sum();
            black_box(total)
        })
    });
}

fn bench_http(c: &mut Criterion) {
    let resp = fw_http::types::Response::html(200, &"<html><body>benchmark body ".repeat(40));
    c.bench_function("http/serialize_parse_response", |b| {
        b.iter(|| {
            let (mut a, mut bb) = pipe_pair(
                "10.0.0.1:50000".parse().unwrap(),
                "203.0.113.1:80".parse().unwrap(),
            );
            write_response(&mut a, &resp).unwrap();
            a.shutdown_write();
            let got = read_response(&mut bb, &Limits::default(), false).unwrap();
            black_box(got.status)
        })
    });
}

fn bench_c2_matching(c: &mut Criterion) {
    let corpus = fw_abuse::c2::corpus();
    let mut hit_resp = fw_http::types::Response::new(200);
    hit_resp
        .headers
        .insert("Content-Type", "application/octet-stream");
    hit_resp.body = fw_abuse::c2::relay_template(0).reply;
    let miss_resp = fw_http::types::Response::text(404, "Not Found");
    c.bench_function("c2/match_26_signatures", |b| {
        b.iter(|| {
            let mut hits = 0;
            for sig in corpus {
                if sig.matches(black_box(&hit_resp.view()))
                    || sig.matches(black_box(&miss_resp.view()))
                {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

fn bench_billing(c: &mut Criterion) {
    c.bench_function("billing/dow_invoice", |b| {
        b.iter(|| {
            let bill = PriceModel::AWS.dow_cost(
                black_box(100.0),
                black_box(86_400.0),
                black_box(1024),
                black_box(1000),
            );
            black_box(bill.total_usd)
        })
    });
}

criterion_group!(
    benches,
    bench_identification,
    bench_dns_wire,
    bench_pdns,
    bench_http,
    bench_c2_matching,
    bench_billing
);
criterion_main!(benches);
