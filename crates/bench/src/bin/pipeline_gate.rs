//! End-to-end data-plane gate, fused by default: generate→ingest run as
//! one overlapped phase streaming rows straight into the store, then
//! seal+identify+usage overlapped per shard (DESIGN.md §16). Timing of
//! every stage lands in a machine-readable `BENCH_pipeline.json`
//! (DESIGN.md §12; CI runs this at scale 0.1).
//!
//! ```text
//! pipeline_gate [--scale <f64>] [--seed <u64>] [--gen-workers <n>]
//!               [--ingest-workers <n>] [--workers <n>] [--shards <n>]
//!               [--staged] [--sample <f64>]
//!               [--store <dir>] [--keep-store] [--out <path>] [--metrics]
//!               [--trace] [--trace-out <path>]
//! ```
//!
//! Defaults: scale 1.0, seed 42, every worker count 0 (one per core),
//! 16 store shards, a temp store directory (removed on exit unless
//! `--keep-store`), JSON to `BENCH_pipeline.json`.
//!
//! `--staged` runs the legacy four-wall pipeline (generate → ingest →
//! identify → usage, each serial). Both modes print the same
//! `pipeline identity:` line — the commutative `rows_fnv` content hash
//! of the stored rows plus a digest of every figure the run produced —
//! so CI can diff one line to prove the fused pipeline is a pure
//! performance change. `--sample <rate>` switches the usage sweep to
//! the deterministic hash-sampled estimator (error bounds printed).
//!
//! With `--trace` (or `FW_TRACE=1`), the run records causal span events
//! (DESIGN.md §13) and writes them next to the report as
//! `<out stem>.trace.jsonl`, together with the Chrome trace, folded
//! flamegraph stacks and the critical-path attribution derived from it.
//!
//! The report (`fw_obs::gate`) carries per-stage wall time and peak RSS,
//! per-shard ingest accounting (including flush p99), and a rolling
//! `history` array (one entry per run, newest last) that `bench_regress`
//! uses as its baseline series. In fused mode `ingest_rows_per_sec` is
//! derived from the *overlapped* ingest wall (pipeline start → last
//! shard sealed) — the serial-stage formula has no meaning when ingest
//! hides inside generation.

use fw_bench::fused::{figures_digest, run_fused, FusedOptions};
use fw_core::identify::identify_from_aggregates;
use fw_core::usage::{ingress_table_with, monthly_requests_with, usage_sampled, SampledUsage};
use fw_obs::gate::{die, num, obj, peak_rss_kb, Args, Gate};
use fw_obs::Json;
use fw_store::{stream_snapshot_aggregates, DiskStore, ShardIngestStats};
use fw_workload::{pdns_content_hash, save_pdns_parallel, SnapshotMeta, World, WorldConfig};
use std::path::PathBuf;

/// Everything either pipeline mode hands back for the report.
struct Outcome {
    shard_stats: Vec<ShardIngestStats>,
    rows: usize,
    fqdns: usize,
    functions: usize,
    identified: usize,
    rows_fnv: u64,
    figures_fnv: u64,
    rows_per_sec: f64,
    /// Fused only: pipeline start → last shard sealed.
    ingest_wall_ms: Option<f64>,
}

fn print_sample_summary(s: &SampledUsage) {
    eprintln!(
        "[sample] rate {}: {}/{} functions (factor {:.3}); est total {} vs exact {} (rel err {:.2}%, a-priori ±1\u{3c3} {:.2}%)",
        s.rate,
        s.sampled_functions,
        s.total_functions,
        s.scale_factor,
        s.est_total_requests,
        s.exact_total_requests,
        s.rel_err_total * 100.0,
        s.rel_std_err * 100.0
    );
}

/// The gate's run parameters, after defaults are resolved.
struct Params {
    scale: f64,
    seed: u64,
    gen_workers: usize,
    ingest_workers: usize,
    workers: usize,
    shards: usize,
    sample: Option<f64>,
    store: PathBuf,
    cores: usize,
}

fn run_staged_mode(p: &Params, gate: &mut Gate) -> Outcome {
    let (scale, seed, workers, store) = (p.scale, p.seed, p.workers, p.store.as_path());

    // 1. Generate the world (PDNS-only flavor; the usage figures' feed).
    eprintln!(
        "[generate] scale {scale} seed {seed} gen_workers {} (0 = {} cores)",
        p.gen_workers, p.cores
    );
    let world = gate.stage("generate", || {
        let mut config = WorldConfig::usage(seed, scale);
        config.gen_workers = p.gen_workers;
        World::generate(config)
    });
    let rows_fnv = pdns_content_hash(&world.pdns);
    eprintln!(
        "[generate] {:.1} ms: {} functions, {} fqdns, {} rows",
        gate.last_ms(),
        world.functions.len(),
        world.pdns.fqdn_count(),
        world.pdns.record_count()
    );

    // 2. Ingest into the on-disk store (parallel producers).
    eprintln!(
        "[ingest] {} producers, {} shards -> {}",
        p.ingest_workers,
        p.shards,
        store.display()
    );
    let stats = gate.stage("ingest", || {
        save_pdns_parallel(&world.pdns, store, p.shards, p.ingest_workers)
            .unwrap_or_else(|e| die(&format!("ingest failed: {e}")))
    });
    let ingest_ms = gate.last_ms();
    let rows_per_sec = stats.rows as f64 / (ingest_ms / 1e3);
    eprintln!(
        "[ingest] {ingest_ms:.1} ms: {} rows ({rows_per_sec:.0} rows/s)",
        stats.rows
    );

    // 3. Identify, reading the snapshot back via the streaming scan.
    let report = gate.stage("identify", || {
        let aggs = stream_snapshot_aggregates(store, workers)
            .unwrap_or_else(|e| die(&format!("snapshot scan failed: {e}")));
        identify_from_aggregates(aggs, workers)
    });
    eprintln!(
        "[identify] {:.1} ms: {} functions identified, {} unmatched",
        gate.last_ms(),
        report.functions.len(),
        report.unmatched
    );

    // 4. Usage sweeps (Figure 3 series + Table 2) against the disk store.
    let (monthly, ingress, sampled) = gate.stage("usage", || {
        let disk = DiskStore::open_read_only(store)
            .unwrap_or_else(|e| die(&format!("cannot reopen store: {e}")));
        match p.sample {
            None => {
                let series = monthly_requests_with(&report, &disk, workers);
                let ingress = ingress_table_with(&report, &disk, workers);
                (series, ingress, None)
            }
            Some(rate) => {
                let s = usage_sampled(&report, &disk, workers, rate);
                (s.monthly.clone(), s.ingress.clone(), Some(s))
            }
        }
    });
    eprintln!(
        "[usage] {:.1} ms: {} months, {} ingress rows",
        gate.last_ms(),
        monthly.months.len(),
        ingress.len()
    );
    if let Some(s) = &sampled {
        print_sample_summary(s);
    }

    Outcome {
        figures_fnv: figures_digest(&report, &monthly, &ingress),
        shard_stats: stats.shards,
        rows: stats.rows,
        fqdns: stats.fqdns,
        functions: world.functions.len(),
        identified: report.functions.len(),
        rows_fnv,
        rows_per_sec,
        ingest_wall_ms: None,
    }
}

fn run_fused_mode(p: &Params, gate: &mut Gate) -> Outcome {
    eprintln!(
        "[generate_ingest] scale {} seed {} gen_workers {} (0 = {} cores), {} shards -> {}",
        p.scale,
        p.seed,
        p.gen_workers,
        p.cores,
        p.shards,
        p.store.display()
    );
    let mut config = WorldConfig::usage(p.seed, p.scale);
    config.gen_workers = p.gen_workers;
    let opts = FusedOptions {
        shards: p.shards,
        workers: p.workers,
        sample: p.sample,
    };
    let run = run_fused(config, &p.store, &opts)
        .unwrap_or_else(|e| die(&format!("fused run failed: {e}")));
    gate.record(
        "generate_ingest",
        run.generate_ingest_ms,
        run.generate_ingest_rss_kb,
    );
    gate.record("seal_analyze", run.seal_analyze_ms, peak_rss_kb());
    let rows_per_sec = run.rows as f64 / (run.ingest_wall_ms / 1e3);
    eprintln!(
        "[generate_ingest] {:.1} ms: {} functions, {} fqdns, {} rows streamed into the store",
        run.generate_ingest_ms,
        run.world.functions.len(),
        run.fqdns,
        run.rows
    );
    eprintln!(
        "[seal_analyze] {:.1} ms ({} workers): {} identified, {} unmatched, {} months, {} ingress rows; ingest wall {:.1} ms ({rows_per_sec:.0} rows/s)",
        run.seal_analyze_ms,
        p.workers,
        run.report.functions.len(),
        run.report.unmatched,
        run.monthly.months.len(),
        run.ingress.len(),
        run.ingest_wall_ms
    );
    if let Some(s) = &run.sampled {
        print_sample_summary(s);
    }

    Outcome {
        figures_fnv: figures_digest(&run.report, &run.monthly, &run.ingress),
        shard_stats: run.shard_stats,
        rows: run.rows,
        fqdns: run.fqdns,
        functions: run.world.functions.len(),
        identified: run.report.functions.len(),
        rows_fnv: run.rows_fnv,
        rows_per_sec,
        ingest_wall_ms: Some(run.ingest_wall_ms),
    }
}

const USAGE: &str = "usage: pipeline_gate [--scale <f64>] [--seed <u64>] [--gen-workers <n>] [--ingest-workers <n>] [--workers <n>] [--shards <n>] [--staged] [--sample <f64>] [--store <dir>] [--keep-store] [--out <path>] [--metrics] [--trace] [--trace-out <path>]";

fn main() {
    let mut p = Params {
        scale: 1.0,
        seed: 42,
        gen_workers: 0,
        ingest_workers: 0,
        workers: 0,
        shards: 16,
        sample: None,
        store: PathBuf::new(),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let (mut staged, mut keep_store) = (false, false);
    let mut store_dir: Option<PathBuf> = None;
    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--scale" => p.scale = args.num(&flag),
            "--seed" => p.seed = args.num(&flag),
            "--gen-workers" => p.gen_workers = args.num(&flag),
            "--ingest-workers" => p.ingest_workers = args.num(&flag),
            "--workers" => p.workers = args.num(&flag),
            "--shards" => p.shards = args.num(&flag),
            "--staged" => staged = true,
            "--sample" => p.sample = Some(args.num(&flag)),
            "--store" => store_dir = Some(args.path(&flag)),
            "--keep-store" => keep_store = true,
            _ => args.gate_flag(&flag),
        }
    }
    if let Some(rate) = p.sample {
        if rate.is_nan() || rate <= 0.0 {
            die("--sample needs a rate in (0, 1]");
        }
    }
    let or_cores = |n: usize| if n == 0 { p.cores } else { n };
    (p.ingest_workers, p.workers) = (or_cores(p.ingest_workers), or_cores(p.workers));
    p.store = store_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("fw-pipeline-gate-{}", std::process::id()))
    });
    let (scale, seed) = (p.scale, p.seed);
    let mode = if staged { "staged" } else { "fused" };

    let config = obj([
        ("scale", scale.into()),
        ("seed", seed.into()),
        ("mode", mode.into()),
        ("gen_workers", p.gen_workers.into()),
        ("ingest_workers", p.ingest_workers.into()),
        ("workers", p.workers.into()),
        ("shards", p.shards.into()),
    ]);
    let mut gate = Gate::start("pipeline", "BENCH_pipeline.json", config, args);
    let outcome = if staged {
        run_staged_mode(&p, &mut gate)
    } else {
        run_fused_mode(&p, &mut gate)
    };

    // Manifest for kept stores, so figure binaries can `--snapshot` the
    // gate's output and verify its content hash.
    if let Err(e) = (SnapshotMeta {
        seed,
        scale,
        live: false,
        rows_fnv: outcome.rows_fnv,
    })
    .write(&p.store)
    {
        eprintln!("[meta] cannot write world.meta: {e}");
    }

    let shard_json = outcome.shard_stats.iter().map(|sh| {
        obj([
            ("shard", sh.shard.into()),
            ("fqdns", sh.fqdns.into()),
            ("rows", sh.rows.into()),
            ("flushes", sh.flushes.into()),
            ("flush_ms", num(sh.flush_ns as f64 / 1e6, 3)),
            ("flush_p99_ms", num(sh.flush_p99_ns as f64 / 1e6, 3)),
            ("bytes_written", sh.bytes_written.into()),
            ("segments", sh.segments.into()),
        ])
    });
    gate.detail("ingest_shards", Json::Arr(shard_json.collect()));
    if let Some(wall) = outcome.ingest_wall_ms {
        gate.detail("ingest_wall_ms", num(wall, 3));
    }
    gate.summary("rows", outcome.rows.into());
    gate.detail("fqdns", outcome.fqdns.into());
    gate.detail("functions", outcome.functions.into());
    gate.detail("identified", outcome.identified.into());
    gate.detail("rows_fnv", format!("{:016x}", outcome.rows_fnv).into());
    gate.detail(
        "figures_fnv",
        format!("{:016x}", outcome.figures_fnv).into(),
    );
    gate.summary("ingest_rows_per_sec", num(outcome.rows_per_sec, 0));
    let done = gate.finish();

    // The identity line is mode-independent by construction: CI runs
    // both modes and diffs this one line.
    println!(
        "pipeline identity: scale {scale} seed {seed} rows {} rows_fnv={:016x} figures_fnv={:016x}",
        outcome.rows, outcome.rows_fnv, outcome.figures_fnv
    );
    let stages = done.run.stages.iter();
    let stage_summary: Vec<String> = stages.map(|s| format!("{} {:.0}", s.name, s.ms)).collect();
    println!(
        "pipeline gate [{mode}]: scale {scale} seed {seed} total {:.0} ms ({}); report -> {}",
        done.run.total_ms,
        stage_summary.join(" / "),
        done.path.display()
    );

    if store_dir.is_none() && !keep_store {
        let _ = std::fs::remove_dir_all(&p.store);
    }
}
