//! `serve`: frozen reads through the query API — `http` fast parse,
//! the `serve` cache and the `net` transport — driven by the SimNet
//! load harness as a closed loop: `workers` load threads each play
//! their clients one after another.
//!
//! Set-up generates the world and builds the `ServeState`. Each
//! measured run serves the same client population from a fresh cache.
//! The check compares every run's response-stream digest with one run
//! of the scalar reference path (`ServeApi::serve_on`, i.e.
//! `serve_connection` over `ServeApi::handle`).
//!
//! The traced run records the request bytes each connection delivers,
//! then replays them with the transport taken out: once through the
//! fast parser alone, once through `serve_fast` on a fresh API. Server
//! work per request is the replay time; the rest of the closed-loop
//! time per request is transport (SimNet, the virtual clock, and the
//! load client).

use crate::common::{
    costed, median, median_index, percentile_sorted, repeat_for, report_end_to_end, Cost, MemConn,
    Outcome, RunConfig,
};
use fw_dns::pdns::PdnsStore;
use fw_http::fast::{read_request_fast, Scratch};
use fw_http::parse::Limits;
use fw_net::{Connection, SimNet};
use fw_serve::load::run_load;
use fw_serve::{CacheConfig, CacheStats, LoadConfig, LoadPlan, LoadReport, ServeApi, ServeState};
use fw_workload::{World, WorldConfig};
use parking_lot::Mutex;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ADDR: &str = "10.99.0.1:8080";

/// Response cache entries.
const CACHE_ENTRIES: usize = 65_536;

/// Workload size.
#[derive(Debug, Clone)]
pub struct ServeParams {
    pub world_scale: f64,
    pub clients: u64,
}

impl Default for ServeParams {
    fn default() -> Self {
        ServeParams {
            world_scale: 0.1,
            clients: 50_000,
        }
    }
}

/// Known response digest for the default size at seed 42.
const PINNED_SEED_42: u64 = 0xa2de_0fbe_bf35_73d3;

/// Frozen inputs of the measured phase.
pub struct Inputs {
    pub state: Arc<ServeState<PdnsStore>>,
    pub plan: LoadPlan,
}

/// Generate the world and freeze it; returns the inputs and the costs
/// of the two set-up steps (generate, build).
pub fn setup_once(seed: u64, p: &ServeParams, workers: usize) -> (Inputs, Cost, Cost) {
    let mut config = WorldConfig::usage(seed, p.world_scale);
    config.gen_workers = workers;
    let (world, gen) = costed(|| World::generate(config));
    let (state, build) = costed(|| Arc::new(ServeState::build(world.pdns, workers)));
    let plan = LoadPlan {
        function_fqdns: Arc::new(state.function_fqdns()),
    };
    (Inputs { state, plan }, gen, build)
}

fn load_config(seed: u64, p: &ServeParams, workers: usize) -> LoadConfig {
    LoadConfig {
        clients: p.clients,
        workers,
        seed,
        ..LoadConfig::default()
    }
}

fn cache_config() -> CacheConfig {
    CacheConfig {
        capacity: CACHE_ENTRIES,
        ..CacheConfig::default()
    }
}

fn addr() -> SocketAddr {
    ADDR.parse().expect("static address")
}

/// One load run against the fast serving pool on a fresh cache.
pub fn serve_run(inputs: &Inputs, seed: u64, p: &ServeParams, workers: usize) -> LoadReport {
    let net = SimNet::new(seed);
    let api = Arc::new(ServeApi::new(Arc::clone(&inputs.state), cache_config()));
    api.serve_pool(&net, addr(), workers);
    let report = run_load(&net, addr(), &load_config(seed, p, workers), &inputs.plan);
    net.unlisten(&addr());
    report
}

/// The same load against the scalar reference serving path.
pub fn reference_digest(inputs: &Inputs, seed: u64, p: &ServeParams, workers: usize) -> u64 {
    let net = SimNet::new(seed);
    let api = Arc::new(ServeApi::new(Arc::clone(&inputs.state), cache_config()));
    api.serve_on(&net, addr());
    let report = run_load(&net, addr(), &load_config(seed, p, workers), &inputs.plan);
    net.unlisten(&addr());
    report.digest
}

/// Connection wrapper keeping a copy of every byte read: the request
/// bytes the client delivered on this connection.
#[derive(Debug)]
struct RecordConn {
    inner: Box<dyn Connection>,
    reads: Vec<u8>,
}

impl Connection for RecordConn {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.reads.extend_from_slice(&buf[..n]);
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

/// A traced run's split, per request.
#[derive(Debug, Clone)]
pub struct TracedServe {
    pub report: LoadReport,
    pub cache: CacheStats,
    pub connections: u64,
    pub bytes_sent: u64,
    /// Closed-loop wall time per request per load worker.
    pub request_ns: f64,
    pub parse_ns: f64,
    pub inline_ns: f64,
}

/// Load run with request recording, then the two in-memory replays.
pub fn serve_traced(inputs: &Inputs, seed: u64, p: &ServeParams, workers: usize) -> TracedServe {
    let net = SimNet::new(seed);
    let api = Arc::new(ServeApi::new(Arc::clone(&inputs.state), cache_config()));
    let recorded: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
    {
        let api = Arc::clone(&api);
        let recorded = Arc::clone(&recorded);
        // `ServeApi::serve_pool` with the recording wrapper around
        // each accepted connection.
        net.listen_pool(addr(), workers, move |_w| {
            let api = Arc::clone(&api);
            let recorded = Arc::clone(&recorded);
            let mut scratch = Scratch::new();
            move |mut conn: Box<dyn Connection>| {
                let _ = conn.set_read_timeout(None);
                let mut rec = RecordConn {
                    inner: conn,
                    reads: Vec::new(),
                };
                api.serve_fast(&mut rec, &mut scratch);
                recorded.lock().push(rec.reads);
            }
        });
    }
    let report = run_load(&net, addr(), &load_config(seed, p, workers), &inputs.plan);
    net.unlisten(&addr());
    let (connections, _, _, bytes_sent, _, _) = net.stats().snapshot();
    let cache = api.cache_stats();
    let mut conns = std::mem::take(&mut *recorded.lock());
    let requests = report.requests.max(1) as f64;

    let limits = Limits::default();
    let mut scratch = Scratch::new();
    let mut parsed = 0u64;
    let t = Instant::now();
    for bytes in conns.iter_mut() {
        let mut c = MemConn::new(std::mem::take(bytes));
        while read_request_fast(&mut c, &mut scratch, &limits).is_ok() {
            parsed += 1;
        }
        *bytes = std::mem::take(&mut c.input);
    }
    let parse_ns = t.elapsed().as_nanos() as f64 / parsed.max(1) as f64;

    let inline_api = ServeApi::new(Arc::clone(&inputs.state), cache_config());
    let t = Instant::now();
    for bytes in conns {
        let mut c = MemConn::new(bytes);
        inline_api.serve_fast(&mut c, &mut scratch);
    }
    // Per replayed request: a handler still finishing when the load
    // returned may not have handed its bytes over yet.
    let inline_ns = t.elapsed().as_nanos() as f64 / parsed.max(1) as f64;

    TracedServe {
        request_ns: report.wall_ms * 1e6 * workers as f64 / requests,
        report,
        cache,
        connections,
        bytes_sent,
        parse_ns,
        inline_ns,
    }
}

/// Percentile of integer-µs samples, read as the µs interval each
/// sample was truncated into and interpolated linearly inside it.
pub fn percentile_us(sorted: &[u32], p: f64) -> f64 {
    let v = percentile_sorted(sorted, p);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0);
    let below = sorted.partition_point(|&x| x < v) as f64;
    let equal = sorted.partition_point(|&x| x <= v) as f64 - below;
    v as f64 + (rank - below - 0.5) / equal
}

fn check_digest(what: &str, got: &LoadReport, want: u64, want_requests: u64) -> Result<(), String> {
    if got.digest != want || got.requests != want_requests {
        return Err(format!(
            "serve {what}: digest {:016x} over {} requests != reference {want:016x} over {want_requests}",
            got.digest, got.requests
        ));
    }
    Ok(())
}

/// Closed-loop wall-clock view of load runs: achieved qps and the
/// per-request latency percentiles, each the median over runs.
fn wall_view(reports: &[LoadReport]) -> (f64, f64, f64) {
    let qps: Vec<f64> = reports.iter().map(|r| r.achieved_qps_wall()).collect();
    let p50: Vec<f64> = reports
        .iter()
        .map(|r| percentile_us(&r.latencies_us, 50.0))
        .collect();
    let p99: Vec<f64> = reports
        .iter()
        .map(|r| percentile_us(&r.latencies_us, 99.0))
        .collect();
    (median(&qps), median(&p50), median(&p99))
}

/// Set up twice more for the set-up median. This runs after the
/// measured phase, so the dropped worlds leave no allocator state behind
/// in it (peak RSS otherwise flips between modes from run to run).
fn more_setups(cfg: &RunConfig, p: &ServeParams, setups: &mut Vec<(Cost, Cost)>) {
    for _ in 0..2 {
        let (_, gen, build) = setup_once(cfg.seed, p, cfg.workers);
        setups.push((gen, build));
    }
}

pub fn run(cfg: &RunConfig, p: &ServeParams) -> Result<Outcome, String> {
    let (inputs, gen, build) = setup_once(cfg.seed, p, cfg.workers);
    let mut setups = vec![(gen, build)];

    let want = reference_digest(&inputs, cfg.seed, p, cfg.workers);
    if cfg.seed == 42 && p.clients == ServeParams::default().clients && want != PINNED_SEED_42 {
        return Err(format!(
            "serve reference digest {want:016x} != pinned {PINNED_SEED_42:016x} at seed 42"
        ));
    }
    let mut out = Outcome::default();
    out.line(format!(
        "serve: world scale {} clients {} cache {CACHE_ENTRIES} workers {}; reference digest {want:016x}",
        p.world_scale, p.clients, cfg.workers
    ));

    if !cfg.trace {
        let runs = repeat_for(cfg.seconds, 3, |_| {
            Ok(costed(|| serve_run(&inputs, cfg.seed, p, cfg.workers)))
        })?;
        let requests = runs[0].0.requests;
        for (r, _) in &runs {
            check_digest("run", r, want, requests)?;
        }
        let costs: Vec<Cost> = runs.iter().map(|(_, c)| *c).collect();
        let reports: Vec<LoadReport> = runs.into_iter().map(|(r, _)| r).collect();
        drop(inputs);
        more_setups(cfg, p, &mut setups);
        let setup_costs: Vec<Cost> = setups.iter().map(|(g, b)| g.then(*b)).collect();
        out.attempted = reports.iter().map(|r| r.requests).sum();
        out.failed = reports.iter().map(|r| r.status_other).sum();
        report_end_to_end(
            &mut out,
            "serve",
            "requests",
            &setup_costs,
            &costs,
            requests,
        );
        let (qps, p50, p99) = wall_view(&reports);
        out.line(format!(
            "serve: closed loop, {} load workers; qps {qps:.1}, request latency p50 {p50:.2} us, p99 {p99:.2} us ({requests} samples per run, median over runs)",
            cfg.workers
        ));
        return Ok(out);
    }

    let pairs = repeat_for(cfg.seconds, 2, |_| {
        fw_obs::set_enabled(false);
        let plain = serve_run(&inputs, cfg.seed, p, cfg.workers);
        fw_obs::set_enabled(true);
        let traced = serve_traced(&inputs, cfg.seed, p, cfg.workers);
        fw_obs::set_enabled(false);
        check_digest("run", &plain, want, plain.requests)?;
        check_digest("traced run", &traced.report, want, plain.requests)?;
        Ok((plain, traced))
    })?;
    let plain: Vec<f64> = pairs.iter().map(|(r, _)| r.wall_ms).collect();
    let plain_reports: Vec<LoadReport> = pairs.iter().map(|(r, _)| r.clone()).collect();
    let (qps, p50, p99) = wall_view(&plain_reports);
    out.set("serve.qps", qps);
    out.set("serve.p50_us", p50);
    out.set("serve.p99_us", p99);
    let traced_walls: Vec<f64> = pairs.iter().map(|(_, t)| t.report.wall_ms).collect();
    let t = &pairs[median_index(&traced_walls)].1;
    out.attempted = pairs.iter().map(|(_, t)| 2 * t.report.requests).sum();
    out.failed = pairs.iter().map(|(_, t)| t.report.status_other).sum();
    drop(inputs);
    more_setups(cfg, p, &mut setups);
    let gen: Vec<f64> = setups.iter().map(|(g, _)| g.wall_s * 1e3).collect();
    let build: Vec<f64> = setups.iter().map(|(_, b)| b.wall_s * 1e3).collect();
    out.set("workload.generate_ms", median(&gen));
    out.set("serve.build_ms", median(&build));
    out.set("serve.request_ns", t.request_ns);
    out.set("http.parse_ns", t.parse_ns);
    out.set("serve.inline_ns", t.inline_ns);
    out.set("serve.transport_ns", t.request_ns - t.inline_ns);
    out.set("serve.transport_share", 1.0 - t.inline_ns / t.request_ns);
    out.set("serve.cache_hit_rate", t.cache.hit_rate());
    out.set("serve.cache_evictions", t.cache.evictions as f64);
    let admits = t.cache.admit_accept + t.cache.admit_reject;
    out.set(
        "serve.admit_accept_ratio",
        t.cache.admit_accept as f64 / admits.max(1) as f64,
    );
    out.set("net.connections", t.connections as f64);
    out.set("net.bytes_sent", t.bytes_sent as f64);
    out.set(
        "obs.trace_overhead",
        median(&traced_walls) / median(&plain) - 1.0,
    );
    out.line(format!(
        "serve traced: {} pairs; untraced median {:.1} ms, traced median {:.1} ms, {} requests",
        pairs.len(),
        median(&plain),
        median(&traced_walls),
        t.report.requests
    ));
    Ok(out)
}
