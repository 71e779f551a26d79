//! Streaming gate: replay a generated world through the sensing daemon
//! in virtual time, prove the end state equals a batch run, and emit
//! detection-latency benchmarks to `BENCH_stream.json` (DESIGN.md §14;
//! CI runs this at scale 0.1).
//!
//! ```text
//! fw_stream_gate [--scale <f64>] [--seed <u64>] [--batches-per-day <n>]
//!                [--workers <n>] [--out <path>] [--metrics]
//!                [--trace] [--trace-out <path>]
//! ```
//!
//! Defaults: scale 0.1, seed 42, one batch per virtual day, workers 0
//! (one per core), JSON to `BENCH_stream.json`.
//!
//! Stages:
//!
//! 1. **generate** — the PDNS-only world (same flavor the usage
//!    figures consume).
//! 2. **prepare** — flatten the store into time-ordered rows and cut
//!    them into watermarked batches.
//! 3. **stream** — replay every batch over `SimNet` into a
//!    [`StreamDaemon`] in accelerated virtual time; wall time here
//!    yields the sustained rows/s figure.
//! 4. **verify** — recompute everything with the batch pipeline and
//!    diff field-for-field against the daemon's incremental state
//!    ([`fw_stream::check_equivalence`]). Any divergence exits
//!    non-zero, so CI enforces the streaming ↔ batch contract on every
//!    run, not just in unit tests.
//!
//! Detection latency is scored against the world's ground truth: for
//! each abuse family, the virtual days from a function's first row to
//! the batch that flagged it, reported as p50/p99 plus coverage
//! (families whose campaigns never cross the candidate gate show up as
//! `detected < total`, not as silent omissions). The `detect_p50` /
//! `detect_p99` metrics carry those latencies in virtual milliseconds
//! (fully deterministic for a given scale/seed, lower is better), so
//! `bench_regress` gates on detection-latency regressions exactly like
//! wall-time regressions.

use fw_obs::gate::{die, num, obj, Args, Better, Gate};
use fw_stream::{
    check_equivalence, collect_rows, day_batches, replay_in_memory, Detection, StreamConfig, DAY_US,
};
use fw_types::{Fqdn, Json};
use fw_workload::{AbuseCase, World, WorldConfig};
use std::collections::HashMap;

/// Percentile over a sorted slice (nearest-rank).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Detection-latency stats for one abuse family.
struct FamilyStats {
    case: AbuseCase,
    total: usize,
    detected: usize,
    p50_days: f64,
    p99_days: f64,
}

/// Join the scorer's detections against the world's abuse ground truth.
fn family_table(world: &World, detections: &[Detection]) -> Vec<FamilyStats> {
    let flagged: HashMap<&Fqdn, &Detection> = detections.iter().map(|d| (&d.fqdn, d)).collect();
    let mut latencies: HashMap<AbuseCase, Vec<f64>> = HashMap::new();
    let mut totals: HashMap<AbuseCase, usize> = HashMap::new();
    for f in world.abuse_functions() {
        let case = f
            .truth
            .abuse_case()
            .expect("abuse_functions filters on Abuse");
        *totals.entry(case).or_insert(0) += 1;
        if let Some(d) = flagged.get(&f.fqdn) {
            latencies
                .entry(case)
                .or_default()
                .push(d.latency_us() as f64 / DAY_US as f64);
        }
    }
    AbuseCase::ALL
        .iter()
        .map(|&case| {
            let mut lats = latencies.remove(&case).unwrap_or_default();
            lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
            FamilyStats {
                case,
                total: totals.get(&case).copied().unwrap_or(0),
                detected: lats.len(),
                p50_days: percentile(&lats, 50.0),
                p99_days: percentile(&lats, 99.0),
            }
        })
        .collect()
}

const USAGE: &str = "usage: fw_stream_gate [--scale <f64>] [--seed <u64>] [--batches-per-day <n>] [--workers <n>] [--out <path>] [--metrics] [--trace] [--trace-out <path>]";

fn main() {
    let mut scale = 0.1f64;
    let mut seed = 42u64;
    let mut batches_per_day = 1u32;
    let mut workers = 0usize;
    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--scale" => scale = args.num(&flag),
            "--seed" => seed = args.num(&flag),
            "--batches-per-day" => batches_per_day = args.num(&flag),
            "--workers" => workers = args.num(&flag),
            _ => args.gate_flag(&flag),
        }
    }
    if batches_per_day == 0 {
        die("--batches-per-day must be >= 1");
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = if workers == 0 { cores } else { workers };

    let config = obj([
        ("scale", scale.into()),
        ("seed", seed.into()),
        ("workers", workers.into()),
        ("batches_per_day", batches_per_day.into()),
    ]);
    let mut gate = Gate::start("stream", "BENCH_stream.json", config, args);

    // 1. Generate the world the daemon will sense.
    eprintln!("[generate] scale {scale} seed {seed}");
    let world = gate.stage("generate", || {
        World::generate(WorldConfig::usage(seed, scale))
    });
    eprintln!(
        "[generate] {:.1} ms: {} functions, {} fqdns, {} rows",
        gate.last_ms(),
        world.functions.len(),
        world.pdns.fqdn_count(),
        world.pdns.record_count()
    );

    // 2. Flatten into time-ordered rows and cut watermarked batches.
    let batches = gate.stage("prepare", || {
        day_batches(&collect_rows(&world.pdns), batches_per_day)
    });
    let row_count: u64 = batches.iter().map(|b| b.rows.len() as u64).sum();
    eprintln!(
        "[prepare] {:.1} ms: {} batches ({batches_per_day}/day), {row_count} rows",
        gate.last_ms(),
        batches.len()
    );

    // 3. Replay through the daemon in virtual time.
    let config = StreamConfig {
        workers,
        batches_per_day,
        ..StreamConfig::default()
    };
    let result = gate.stage("stream", || replay_in_memory(batches, &config, seed));
    let stream_ms = gate.last_ms();
    let rows_per_sec = row_count as f64 / (stream_ms / 1e3);
    let cp = result.final_state.checkpoint;
    let virtual_days = result.virtual_us as f64 / DAY_US as f64;
    eprintln!(
        "[stream] {stream_ms:.1} ms wall for {virtual_days:.0} virtual days: {} batches, {row_count} rows ({rows_per_sec:.0} rows/s), {} identified, {} candidates",
        cp.batches, cp.identified, cp.candidates
    );

    // 4. Verify streaming ↔ batch equivalence — the CI diff.
    gate.stage("verify", || {
        if let Err(e) = check_equivalence(&result.final_state, &world.pdns, workers) {
            die(&format!("streaming/batch equivalence FAILED: {e}"));
        }
    });
    eprintln!(
        "[verify] {:.1} ms: daemon end state == batch pipeline ({} functions, {} unmatched)",
        gate.last_ms(),
        result.final_state.report.functions.len(),
        result.final_state.report.unmatched
    );

    // Detection latency vs ground truth, overall and per abuse family.
    let families = family_table(&world, &result.final_state.detections);
    let mut all_lats: Vec<f64> = world
        .abuse_functions()
        .filter_map(|f| {
            result
                .final_state
                .detections
                .iter()
                .find(|d| d.fqdn == f.fqdn)
                .map(|d| d.latency_us() as f64 / DAY_US as f64)
        })
        .collect();
    all_lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let abuse_total: usize = families.iter().map(|f| f.total).sum();
    let abuse_detected = all_lats.len();
    let detect_p50_days = percentile(&all_lats, 50.0);
    let detect_p99_days = percentile(&all_lats, 99.0);
    eprintln!(
        "[detect] {abuse_detected}/{abuse_total} abuse functions flagged; latency p50 {detect_p50_days:.1} d, p99 {detect_p99_days:.1} d (virtual)"
    );
    for f in &families {
        if f.detected > 0 {
            eprintln!(
                "[detect]   {:<24} {}/{} p50 {:.1} d p99 {:.1} d",
                f.case.label(),
                f.detected,
                f.total,
                f.p50_days,
                f.p99_days
            );
        } else {
            eprintln!(
                "[detect]   {:<24} 0/{} (coverage gap: below candidate gate)",
                f.case.label(),
                f.total
            );
        }
    }

    // Detection latencies in virtual milliseconds, deterministic per
    // (scale, seed).
    let vms = |days: f64| days * 86_400_000.0;
    let lower = Better::Lower;
    gate.metric("detect_p50", vms(detect_p50_days), "virtual_ms", lower);
    gate.metric("detect_p99", vms(detect_p99_days), "virtual_ms", lower);
    gate.summary("rows", row_count.into());
    gate.detail("virtual_days", num(virtual_days, 3));
    gate.detail("wire_bytes", result.wire_bytes.into());
    gate.summary("stream_rows_per_sec", num(rows_per_sec, 0));
    gate.detail("checkpoint", cp.to_json());
    gate.detail(
        "abuse",
        obj([
            ("total", abuse_total.into()),
            ("detected", abuse_detected.into()),
            ("p50_days", num(detect_p50_days, 3)),
            ("p99_days", num(detect_p99_days, 3)),
        ]),
    );
    let family_json = families.iter().map(|f| {
        obj([
            ("family", f.case.label().into()),
            ("total", f.total.into()),
            ("detected", f.detected.into()),
            ("p50_days", num(f.p50_days, 3)),
            ("p99_days", num(f.p99_days, 3)),
        ])
    });
    gate.detail("families", Json::Arr(family_json.collect()));
    let done = gate.finish();

    let ms = |i: usize| done.run.stages[i].ms;
    println!(
        "stream gate: scale {scale} seed {seed} total {:.0} ms (generate {:.0} / prepare {:.0} / stream {:.0} / verify {:.0}); {rows_per_sec:.0} rows/s, detect p50 {detect_p50_days:.1} d; report -> {}",
        done.run.total_ms, ms(0), ms(1), ms(2), ms(3), done.path.display()
    );
}
