//! `measure`: the paper's active half — identification, §4 sweeps,
//! active probing (§3.3), the status summary (§4.4) and the abuse scan
//! with the C2 fingerprint scan (§5) — through `Pipeline::run` on a
//! live simulated world with virtual-time timeouts.
//!
//! Probing changes the world (warm functions, resolver caches, the
//! virtual clock), so every measured run gets a freshly generated
//! world; generating it is the run's set-up. The check compares every
//! run's digest of probe records, status report and detections with a
//! reference run made with one worker in every pool.
//!
//! The traced run repeats `Pipeline::run`'s steps here, with the C2
//! scan split out of the abuse scan so each gets its own span.

use crate::common::{
    costed, median, median_index, ms, repeat_for, report_end_to_end, Layers, Outcome, RunConfig,
};
use fw_core::abusescan::{abuse_scan, AbuseScanConfig, Detection, DetectionKind};
use fw_core::identify::identify_functions;
use fw_core::pipeline::{Pipeline, PipelineConfig};
use fw_core::status::{status_report, StatusReport};
use fw_core::usage::{ingress_table, invocation_report, monthly_new_fqdns, monthly_requests};
use fw_probe::c2probe::C2Scanner;
use fw_probe::prober::{ProbeConfig, ProbeOutcome, ProbeRecord, Prober};
use fw_types::fnv::{fold, update};
use fw_types::Fqdn;
use fw_workload::{World, WorldConfig};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// World scale of the benchmark's runs.
pub const SCALE: f64 = 0.005;

/// Virtual-time timeout of every probe and C2 request.
const TIMEOUT: Duration = Duration::from_millis(300);

/// Known digest for the default size at seed 42.
const PINNED_SEED_42: u64 = 0x446d_cc7f_8aa6_37db;

/// The pipeline configuration with every pool at `workers` threads.
pub fn pipeline_config(workers: usize) -> PipelineConfig {
    PipelineConfig {
        probe: ProbeConfig {
            timeout: TIMEOUT,
            workers,
            ..ProbeConfig::default()
        },
        abuse: AbuseScanConfig {
            c2_timeout: TIMEOUT,
            workers,
            ..AbuseScanConfig::default()
        },
    }
}

pub fn live_world(seed: u64, scale: f64, workers: usize) -> World {
    let mut config = WorldConfig::live(seed, scale);
    config.gen_workers = workers;
    World::generate(config)
}

/// What a run produced, reduced to what the check and the report need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureResult {
    pub digest: u64,
    pub probed: u64,
    pub abused: u64,
    /// Probes that ended in a transport or protocol error other than
    /// the world's designed timeouts and DNS failures.
    pub probe_errors: u64,
}

fn summarize(
    records: &[ProbeRecord],
    status: &StatusReport,
    detections: &[Detection],
) -> MeasureResult {
    let mut h = fw_types::fnv::fnv1a(b"perfbench-measure-v1");
    let mut probe_errors = 0;
    for rec in records {
        h = update(h, rec.fqdn.as_str().as_bytes());
        h = fold(h, u64::from(rec.requests_issued));
        match &rec.outcome {
            ProbeOutcome::Responded { https, response } => {
                h = fold(h, 1);
                h = fold(h, u64::from(*https));
                h = fold(h, u64::from(response.status));
                h = update(h, &response.body);
            }
            ProbeOutcome::DnsFailure(e) => {
                h = fold(h, 2);
                h = update(h, e.to_string().as_bytes());
            }
            ProbeOutcome::Unreachable { reason } => {
                h = fold(h, 3);
                h = update(h, reason.as_bytes());
                if !reason.contains("timed out") {
                    probe_errors += 1;
                }
            }
            ProbeOutcome::OptedOut => h = fold(h, 4),
        }
    }
    for v in [
        status.probed,
        status.reachable,
        status.unreachable,
        status.dns_failures,
        status.https_ok,
        status.ok_with_content,
        status.ok_empty,
        status.opted_out,
    ] {
        h = fold(h, v);
    }
    let mut codes: Vec<(u16, u64)> = status.status_counts.iter().map(|(s, c)| (*s, *c)).collect();
    codes.sort_unstable();
    for (s, c) in codes {
        h = fold(fold(h, u64::from(s)), c);
    }
    for d in detections {
        h = update(h, d.fqdn.as_str().as_bytes());
        h = update(h, d.kind.label().as_bytes());
        if let DetectionKind::C2 { family } = d.kind {
            h = update(h, family.as_bytes());
        }
    }
    MeasureResult {
        digest: h,
        probed: records.len() as u64,
        abused: detections.len() as u64,
        probe_errors,
    }
}

/// One untraced `Pipeline::run` over `world`.
pub fn measure_run(world: &World, workers: usize) -> MeasureResult {
    let pipeline = Pipeline::new(world.net.clone(), world.resolver.clone());
    let report = pipeline.run(&world.pdns, &pipeline_config(workers));
    summarize(
        &report.probe_records,
        &report.status,
        &report.abuse.detections,
    )
}

/// A traced run's split.
#[derive(Debug, Clone)]
pub struct TracedMeasure {
    pub result: MeasureResult,
    pub wall_ms: f64,
    pub layers: Layers,
    pub c2_candidates: u64,
    pub c2_hits: u64,
    /// `fw-obs` registry counters read after the run.
    pub counters: Vec<(&'static str, u64)>,
    pub connections: u64,
    pub bytes_sent: u64,
}

const COUNTERS: [&str; 6] = [
    "fw.probe.requests",
    "fw.probe.https_fallback",
    "fw.probe.timeouts",
    "fw.probe.resolve_failures",
    "fw.http.conn.reused",
    "fw.http.conn.dialed",
];

/// `Pipeline::run`'s steps with a span around each layer call. The
/// caller turns the `fw-obs` registry on; it is reset here.
pub fn measure_traced(world: &World, workers: usize) -> TracedMeasure {
    fw_obs::registry().reset();
    let (conns_before, _, _, bytes_before, _, _) = world.net.stats().snapshot();
    let config = pipeline_config(workers);
    let pdns = &world.pdns;
    let mut layers = Layers::default();
    let t0 = Instant::now();
    let identification = layers.span("core.identify_ms", || identify_functions(pdns));
    layers.span("core.usage_ms", || {
        (
            monthly_new_fqdns(&identification),
            monthly_requests(&identification, pdns),
            ingress_table(&identification, pdns),
            invocation_report(&identification),
        )
    });
    let prober = Prober::new(
        world.net.clone(),
        world.resolver.clone(),
        config.probe.clone(),
    );
    let scope = identification.probe_scope();
    let records = layers.span("probe.sweep_ms", || prober.probe_all(&scope));
    let status = layers.span("core.status_ms", || status_report(&records));
    let content_only = AbuseScanConfig {
        scan_c2: false,
        ..config.abuse.clone()
    };
    let abuse = layers.span("abuse.scan_ms", || {
        abuse_scan(
            &records,
            &identification,
            pdns,
            &world.net,
            &world.resolver,
            &content_only,
        )
    });
    // The C2 step of `abuse_scan`, on its own.
    let candidates: Vec<Fqdn> = records
        .iter()
        .filter(|r| r.outcome.is_reachable())
        .map(|r| r.fqdn.clone())
        .collect();
    let scanner = C2Scanner::new(world.net.clone(), world.resolver.clone())
        .with_timeout(config.abuse.c2_timeout);
    let hits = layers.span("abuse.c2_ms", || {
        scanner.scan_parallel(&candidates, workers)
    });
    let wall_ms = ms(t0.elapsed());

    let c2_hits = hits.len() as u64;
    let mut detections = abuse.detections;
    let mut detected: HashSet<Fqdn> = detections.iter().map(|d| d.fqdn.clone()).collect();
    for hit in hits {
        if detected.insert(hit.fqdn.clone()) {
            detections.push(Detection {
                fqdn: hit.fqdn,
                kind: DetectionKind::C2 { family: hit.family },
            });
        }
    }
    let registry = fw_obs::registry();
    let (conns_after, _, _, bytes_after, _, _) = world.net.stats().snapshot();
    TracedMeasure {
        result: summarize(&records, &status, &detections),
        wall_ms,
        layers,
        c2_candidates: candidates.len() as u64,
        c2_hits,
        counters: COUNTERS
            .iter()
            .map(|c| (*c, registry.counter(c).get()))
            .collect(),
        connections: conns_after - conns_before,
        bytes_sent: bytes_after - bytes_before,
    }
}

fn check(what: &str, got: MeasureResult, want: MeasureResult) -> Result<(), String> {
    if got != want {
        return Err(format!("measure {what}: {got:?} != reference {want:?}"));
    }
    Ok(())
}

pub fn run(cfg: &RunConfig, scale: f64) -> Result<Outcome, String> {
    let want = measure_run(&live_world(cfg.seed, scale, 1), 1);
    if cfg.seed == 42 && scale == SCALE && want.digest != PINNED_SEED_42 {
        return Err(format!(
            "measure reference digest {:016x} != pinned {PINNED_SEED_42:016x} at seed 42",
            want.digest
        ));
    }
    let mut out = Outcome::default();
    out.line(format!(
        "measure: scale {scale} timeout {} ms (virtual) workers {}; reference digest {:016x}: {} probed, {} abused, {} probe errors",
        TIMEOUT.as_millis(), cfg.workers, want.digest, want.probed, want.abused, want.probe_errors
    ));
    // World generation is short; sample it a few extra times so the
    // set-up median rests on more than the measured runs' worlds.
    let mut setups = Vec::new();
    for _ in 0..5 {
        setups.push(costed(|| live_world(cfg.seed, scale, cfg.workers)).1);
    }

    if !cfg.trace {
        let runs = repeat_for(cfg.seconds, 3, |_| {
            let (world, setup) = costed(|| live_world(cfg.seed, scale, cfg.workers));
            setups.push(setup);
            let (got, cost) = costed(|| measure_run(&world, cfg.workers));
            check("run", got, want)?;
            Ok(cost)
        })?;
        out.attempted = runs.len() as u64 * want.probed;
        out.failed = runs.len() as u64 * want.probe_errors;
        report_end_to_end(
            &mut out,
            "measure",
            "probed functions",
            &setups,
            &runs,
            want.probed,
        );
        return Ok(out);
    }

    let pairs = repeat_for(cfg.seconds, 2, |_| {
        fw_obs::set_enabled(false);
        let (world, setup) = costed(|| live_world(cfg.seed, scale, cfg.workers));
        setups.push(setup);
        let t = Instant::now();
        let plain = measure_run(&world, cfg.workers);
        let plain_ms = ms(t.elapsed());
        check("run", plain, want)?;
        drop(world);
        let world = live_world(cfg.seed, scale, cfg.workers);
        fw_obs::set_enabled(true);
        let traced = measure_traced(&world, cfg.workers);
        fw_obs::set_enabled(false);
        check("traced run", traced.result, want)?;
        Ok((plain_ms, traced))
    })?;
    let plain: Vec<f64> = pairs.iter().map(|(w, _)| *w).collect();
    let traced_walls: Vec<f64> = pairs.iter().map(|(_, t)| t.wall_ms).collect();
    let t = &pairs[median_index(&traced_walls)].1;
    out.attempted = 2 * pairs.len() as u64 * want.probed;
    out.failed = 2 * pairs.len() as u64 * want.probe_errors;
    let setup_ms: Vec<f64> = setups.iter().map(|s| s.wall_s * 1e3).collect();
    out.set("workload.generate_ms", median(&setup_ms));
    for layer in [
        "core.identify_ms",
        "core.usage_ms",
        "probe.sweep_ms",
        "core.status_ms",
        "abuse.scan_ms",
        "abuse.c2_ms",
    ] {
        out.set(layer, t.layers.ms(layer));
    }
    out.set("measure.traced_ms", t.wall_ms);
    out.set("measure.remainder_ms", t.wall_ms - t.layers.total_ms());
    let counter = |name: &str| {
        t.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    out.set("probe.requests", counter("fw.probe.requests") as f64);
    out.set(
        "probe.https_fallback",
        counter("fw.probe.https_fallback") as f64,
    );
    out.set("probe.timeouts", counter("fw.probe.timeouts") as f64);
    out.set(
        "dns.resolve_failures",
        counter("fw.probe.resolve_failures") as f64,
    );
    let (reused, dialed) = (
        counter("fw.http.conn.reused"),
        counter("fw.http.conn.dialed"),
    );
    out.set(
        "http.conn_reuse_ratio",
        reused as f64 / (reused + dialed).max(1) as f64,
    );
    out.set("net.connections", t.connections as f64);
    out.set("net.bytes_sent", t.bytes_sent as f64);
    out.set("abuse.c2_candidates", t.c2_candidates as f64);
    out.set("abuse.c2_hits", t.c2_hits as f64);
    out.set(
        "abuse.c2_hit_ratio",
        t.c2_hits as f64 / t.c2_candidates.max(1) as f64,
    );
    out.set(
        "obs.trace_overhead",
        median(&traced_walls) / median(&plain) - 1.0,
    );
    out.line(format!(
        "measure traced: {} pairs; untraced median {:.1} ms, traced median {:.1} ms",
        pairs.len(),
        median(&plain),
        median(&traced_walls)
    ));
    Ok(out)
}
