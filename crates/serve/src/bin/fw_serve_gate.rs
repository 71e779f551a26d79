//! Serving gate: build the query API over a generated world, drive it
//! with the SimNet load harness, and emit latency/throughput benchmarks
//! to `BENCH_serve.json` (DESIGN.md §15/§17; CI runs this at 100k
//! clients and the committed baseline carries a 1M-client run).
//!
//! ```text
//! fw_serve_gate [--clients <n>] [--rpc-max <n>] [--workers <n>]
//!               [--serve-workers <n>] [--sweep] [--seed <u64>]
//!               [--world-scale <f64>] [--window-s <n>]
//!               [--cache-capacity <n>] [--out <path>] [--metrics]
//!               [--trace] [--trace-out <path>]
//! ```
//!
//! Defaults: 100k clients, bursts of 1..=3 requests, 8 serving workers,
//! load workers 0 (= serve workers), seed 42, world scale 0.1, a
//! one-hour virtual arrival window, JSON to `BENCH_serve.json`.
//!
//! Stages:
//!
//! 1. **generate** — the PDNS-only world whose store the API serves.
//! 2. **build** — freeze the store into a [`ServeState`] (identify +
//!    usage + candidate replay, figure documents pre-rendered).
//! 3. **serve** — the load run against the pooled zero-copy serve
//!    plane: every client connects once over SimNet (flow-steered onto
//!    a serving worker), issues its keep-alive burst, and digests the
//!    response bytes. Wall time here yields the sustained qps figure.
//! 4. **sweep** (with `--sweep`) — re-run the same load at serving
//!    worker counts {1,2,4,8} over the *same* frozen state, die if any
//!    digest differs from the main run (worker count must never change
//!    a byte), and record per-count qps/latency plus the
//!    `scale_eff` = qps(max)/qps(1) efficiency ratio.
//!
//! Besides the wall-time stages the report carries typed metrics:
//! `p50_us`/`p99_us` (microsecond latencies, lower is better) and
//! `qps`/`hit_rate`/`scale_eff` (higher is better). Throughput is
//! reported both ways: `achieved_qps_wall` (requests over wall time,
//! the real server-cost figure) and `offered_qps_virtual` (requests
//! over the virtual arrival window, a property of the schedule alone).

use fw_obs::gate::{die, num, obj, Args, Better, Gate};
use fw_serve::{CacheConfig, Endpoint, LoadConfig, LoadPlan, LoadReport, ServeApi, ServeState};
use fw_types::Json;
use fw_workload::{World, WorldConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const ADDR: &str = "10.99.0.1:8080";

/// Serving worker counts the `--sweep` matrix exercises.
const SWEEP_WORKERS: [usize; 4] = [1, 2, 4, 8];

const USAGE: &str = "usage: fw_serve_gate [--clients <n>] [--rpc-max <n>] [--workers <n>] [--serve-workers <n>] [--sweep] [--seed <u64>] [--world-scale <f64>] [--window-s <n>] [--cache-capacity <n>] [--out <path>] [--metrics] [--trace] [--trace-out <path>]";

fn main() {
    let mut clients = 100_000u64;
    let mut rpc_max = 3u32;
    let mut workers = 0usize;
    let mut serve_workers = 8usize;
    let mut sweep = false;
    let mut seed = 42u64;
    let mut world_scale = 0.1f64;
    let mut window_s = 3600u64;
    let mut cache_capacity = 65_536usize;
    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--clients" => clients = args.num(&flag),
            "--rpc-max" => rpc_max = args.num(&flag),
            "--workers" => workers = args.num(&flag),
            "--serve-workers" => serve_workers = args.num(&flag),
            "--sweep" => sweep = true,
            "--seed" => seed = args.num(&flag),
            "--world-scale" => world_scale = args.num(&flag),
            "--window-s" => window_s = args.num(&flag),
            "--cache-capacity" => cache_capacity = args.num(&flag),
            _ => args.gate_flag(&flag),
        }
    }
    if clients == 0 {
        die("--clients must be >= 1");
    }
    if rpc_max == 0 {
        die("--rpc-max must be >= 1");
    }
    if serve_workers == 0 {
        die("--serve-workers must be >= 1");
    }
    // Load drivers scale with the serving plane unless pinned.
    let workers = if workers == 0 { serve_workers } else { workers };
    // The report's headline scale: fraction of the paper-scale
    // million-client run, so `bench_regress --scale` matching works the
    // same way it does for the pipeline gate.
    let scale = clients as f64 / 1e6;

    let config = obj([
        ("scale", scale.into()),
        ("clients", clients.into()),
        ("seed", seed.into()),
        ("workers", workers.into()),
        ("serve_workers", serve_workers.into()),
        ("rpc_max", rpc_max.into()),
        ("world_scale", world_scale.into()),
        ("window_s", window_s.into()),
        ("cache_capacity", cache_capacity.into()),
    ]);
    let mut gate = Gate::start("serve", "BENCH_serve.json", config, args);

    // 1. Generate the world whose store the API will serve.
    eprintln!("[generate] world scale {world_scale} seed {seed}");
    let world = gate.stage("generate", || {
        World::generate(WorldConfig::usage(seed, world_scale))
    });
    eprintln!(
        "[generate] {:.1} ms: {} fqdns, {} rows",
        gate.last_ms(),
        world.pdns.fqdn_count(),
        world.pdns.record_count()
    );

    // 2. Freeze the store into the queryable snapshot (shared by the
    // main run and every sweep run).
    let state = gate.stage("build", || Arc::new(ServeState::build(world.pdns, workers)));
    eprintln!(
        "[build] {:.1} ms: {} functions, {} candidates",
        gate.last_ms(),
        state.report().functions.len(),
        state.candidate_count()
    );

    let plan = LoadPlan {
        function_fqdns: Arc::new(state.function_fqdns()),
    };
    let cache_config = CacheConfig {
        capacity: cache_capacity,
        ..CacheConfig::default()
    };
    let addr: SocketAddr = ADDR.parse().expect("static addr");

    // One full load run at `sw` serving workers over a fresh SimNet;
    // the frozen state (and its Arc'd figure bodies) is shared.
    let run_at = |sw: usize, load_workers: usize| -> (LoadReport, fw_serve::CacheStats) {
        let net = fw_net::SimNet::new(seed);
        let api = Arc::new(ServeApi::new(Arc::clone(&state), cache_config));
        api.serve_pool(&net, addr, sw);
        let config = LoadConfig {
            clients,
            max_requests_per_client: rpc_max,
            workers: load_workers,
            seed,
            window: Duration::from_secs(window_s),
            ..LoadConfig::default()
        };
        let report = fw_serve::load::run_load(&net, addr, &config, &plan);
        let cache = api.cache_stats();
        (report, cache)
    };

    // 3. The main load run.
    let (report, cache) = gate.stage("serve", || run_at(serve_workers, workers));
    let serve_ms = gate.last_ms();
    let p50_us = report.latency_percentile_us(50.0);
    let p99_us = report.latency_percentile_us(99.0);
    let qps = report.achieved_qps_wall();
    let hit_rate = cache.hit_rate();
    eprintln!(
        "[serve] {serve_ms:.1} ms wall for {} requests from {} clients over {} workers ({qps:.0} qps achieved, {:.0} qps offered over {:.0} virtual s)",
        report.requests,
        report.clients,
        serve_workers,
        report.offered_qps_virtual(),
        report.virtual_us as f64 / 1e6
    );
    eprintln!(
        "[serve] latency p50 {p50_us:.0} us p99 {p99_us:.0} us; cache hit rate {hit_rate:.3} ({} hits / {} misses / {} evictions; admission {} accepted / {} rejected)",
        cache.hits, cache.misses, cache.evictions, cache.admit_accept, cache.admit_reject
    );
    eprintln!("[serve] digest {:016x}", report.digest);

    // 4. The worker-scaling sweep: same seed, same state, serving
    // worker counts {1,2,4,8}. Byte-level reproducibility across the
    // matrix is a hard invariant — any digest drift is a bug, not a
    // number to report.
    let mut sweep_rows: Vec<(f64, Json)> = Vec::new();
    let mut scale_eff = None;
    if sweep {
        sweep_rows = gate.stage("sweep", || {
            SWEEP_WORKERS
                .iter()
                .map(|&sw| {
                    let (r, c) = run_at(sw, sw);
                    let sw_qps = r.achieved_qps_wall();
                    let (p50, p99) = (r.latency_percentile_us(50.0), r.latency_percentile_us(99.0));
                    eprintln!(
                        "[sweep] {sw} workers: {sw_qps:.0} qps, p50 {p50:.0} us, p99 {p99:.0} us, hit {:.3}, digest {:016x}",
                        c.hit_rate(),
                        r.digest
                    );
                    if r.digest != report.digest || r.requests != report.requests {
                        die(&format!(
                            "sweep at {sw} serving workers diverged: digest {:016x} ({} requests) vs main {:016x} ({} requests) — worker count must never change response bytes",
                            r.digest, r.requests, report.digest, report.requests
                        ));
                    }
                    let row = obj([
                        ("serve_workers", sw.into()),
                        ("qps", num(sw_qps, 0)),
                        ("p50_us", num(p50, 3)),
                        ("p99_us", num(p99, 3)),
                        ("hit_rate", num(c.hit_rate(), 4)),
                        ("digest", format!("{:016x}", r.digest).into()),
                        ("requests", r.requests.into()),
                    ]);
                    (sw_qps, row)
                })
                .collect()
        });
        let qps_1 = sweep_rows.first().map_or(0.0, |r| r.0);
        let qps_max = sweep_rows.last().map_or(0.0, |r| r.0);
        if qps_1 > 0.0 {
            scale_eff = Some(qps_max / qps_1);
        }
        eprintln!(
            "[sweep] {:.1} ms; scale_eff (qps@{}w / qps@1w) = {:.3}",
            gate.last_ms(),
            SWEEP_WORKERS[SWEEP_WORKERS.len() - 1],
            scale_eff.unwrap_or(f64::NAN)
        );
    }

    gate.metric("p50_us", p50_us, "us", Better::Lower);
    gate.metric("p99_us", p99_us, "us", Better::Lower);
    gate.metric("qps", qps, "1/s", Better::Higher);
    if let Some(eff) = scale_eff {
        gate.metric("scale_eff", eff, "ratio", Better::Higher);
    }
    gate.metric("hit_rate", hit_rate, "ratio", Better::Higher);
    gate.summary("requests", report.requests.into());
    gate.detail("clients", report.clients.into());
    gate.detail("qps", num(qps, 0));
    gate.detail("achieved_qps_wall", num(report.achieved_qps_wall(), 0));
    gate.detail("offered_qps_virtual", num(report.offered_qps_virtual(), 0));
    gate.detail("virtual_us", report.virtual_us.into());
    gate.detail("digest", format!("{:016x}", report.digest).into());
    gate.detail("response_bytes", report.response_bytes.into());
    gate.detail(
        "status",
        obj([
            ("ok", report.status_ok.into()),
            ("not_found", report.status_not_found.into()),
            ("other", report.status_other.into()),
        ]),
    );
    let endpoints = Endpoint::ALL
        .iter()
        .zip(&report.endpoint_counts)
        .map(|(ep, &n)| (ep.label().to_string(), n.into()));
    gate.detail("endpoints", Json::Obj(endpoints.collect()));
    gate.detail(
        "cache",
        obj([
            ("hits", cache.hits.into()),
            ("misses", cache.misses.into()),
            ("evictions", cache.evictions.into()),
            ("entries", cache.entries.into()),
            ("admit_accept", cache.admit_accept.into()),
            ("admit_reject", cache.admit_reject.into()),
            ("hit_rate", num(hit_rate, 4)),
        ]),
    );
    if !sweep_rows.is_empty() {
        let rows = sweep_rows.into_iter().map(|(_, row)| row);
        gate.detail("sweep", Json::Arr(rows.collect()));
        if let Some(eff) = scale_eff {
            gate.detail("scale_eff", num(eff, 4));
        }
    }
    let done = gate.finish();

    let ms = |i: usize| done.run.stages[i].ms;
    println!(
        "serve gate: {clients} clients seed {seed} over {serve_workers} serving workers, total {:.0} ms (generate {:.0} / build {:.0} / serve {:.0}); {qps:.0} qps, p50 {p50_us:.0} us, p99 {p99_us:.0} us, hit rate {hit_rate:.3}, digest {:016x}; report -> {}",
        done.run.total_ms,
        ms(0),
        ms(1),
        ms(2),
        report.digest,
        done.path.display()
    );
}
