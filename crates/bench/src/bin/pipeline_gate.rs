//! End-to-end data-plane gate: generate→ingest run as one overlapped
//! phase streaming rows straight into the store, then
//! seal+identify+usage overlapped per shard (DESIGN.md §16). Timing of
//! every stage lands in a machine-readable `BENCH_pipeline.json`
//! (DESIGN.md §12; CI runs this at scale 0.1).
//!
//! ```text
//! pipeline_gate [--scale <f64>] [--seed <u64>] [--gen-workers <n>]
//!               [--workers <n>] [--shards <n>] [--sample <f64>]
//!               [--store <dir>] [--keep-store] [--out <path>] [--metrics]
//!               [--trace] [--trace-out <path>]
//! ```
//!
//! Defaults: scale 1.0, seed 42, every worker count 0 (one per core),
//! 16 store shards, a temp store directory (removed on exit unless
//! `--keep-store`), JSON to `BENCH_pipeline.json`.
//!
//! Every run prints one `pipeline identity:` line — the commutative
//! `rows_fnv` content hash of the stored rows plus a digest of every
//! figure the run produced — and writes the `rows_fnv` into the store's
//! `world.meta`. Neither depends on a worker count; CI diffs the line
//! at 1 and 8 workers against the committed
//! `tests/golden/pipeline_identity.txt`. `--sample <rate>` switches the
//! usage sweep to the deterministic hash-sampled estimator (error
//! bounds printed).
//!
//! With `--trace` (or `FW_TRACE=1`), the run records causal span events
//! (DESIGN.md §13) and writes them next to the report as
//! `<out stem>.trace.jsonl`, together with the Chrome trace, folded
//! flamegraph stacks and the critical-path attribution derived from it.
//!
//! The report (`fw_obs::gate`) carries per-stage wall time and peak RSS,
//! per-shard ingest accounting (including flush p99), and a rolling
//! `history` array (one entry per run, newest last) that `bench_regress`
//! uses as its baseline series. `ingest_rows_per_sec` is derived from
//! the *overlapped* ingest wall (pipeline start → last shard sealed),
//! since ingest hides inside generation.

use fw_bench::fused::{figures_digest, run_fused, FusedOptions};
use fw_obs::gate::{die, num, obj, peak_rss_kb, Args, Gate};
use fw_obs::Json;
use fw_workload::{SnapshotMeta, WorldConfig};
use std::path::PathBuf;

const USAGE: &str = "usage: pipeline_gate [--scale <f64>] [--seed <u64>] [--gen-workers <n>] [--workers <n>] [--shards <n>] [--sample <f64>] [--store <dir>] [--keep-store] [--out <path>] [--metrics] [--trace] [--trace-out <path>]";

fn main() {
    let (mut scale, mut seed) = (1.0f64, 42u64);
    let (mut gen_workers, mut workers, mut shards) = (0usize, 0usize, 16usize);
    let mut sample: Option<f64> = None;
    let mut keep_store = false;
    let mut store_dir: Option<PathBuf> = None;
    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--scale" => scale = args.num(&flag),
            "--seed" => seed = args.num(&flag),
            "--gen-workers" => gen_workers = args.num(&flag),
            "--workers" => workers = args.num(&flag),
            "--shards" => shards = args.num(&flag),
            "--sample" => sample = Some(args.num(&flag)),
            "--store" => store_dir = Some(args.path(&flag)),
            "--keep-store" => keep_store = true,
            _ => args.gate_flag(&flag),
        }
    }
    if let Some(rate) = sample {
        if rate.is_nan() || rate <= 0.0 {
            die("--sample needs a rate in (0, 1]");
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if workers == 0 {
        workers = cores;
    }
    let store = store_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("fw-pipeline-gate-{}", std::process::id()))
    });

    let config = obj([
        ("scale", scale.into()),
        ("seed", seed.into()),
        ("gen_workers", gen_workers.into()),
        ("workers", workers.into()),
        ("shards", shards.into()),
    ]);
    let mut gate = Gate::start("pipeline", "BENCH_pipeline.json", config, args);

    eprintln!(
        "[generate_ingest] scale {scale} seed {seed} gen_workers {gen_workers} (0 = {cores} cores), {shards} shards -> {}",
        store.display()
    );
    let mut world_config = WorldConfig::usage(seed, scale);
    world_config.gen_workers = gen_workers;
    let opts = FusedOptions {
        shards,
        workers,
        sample,
    };
    let run = run_fused(world_config, &store, &opts)
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
        "[seal_analyze] {:.1} ms ({workers} workers): {} identified, {} unmatched, {} months, {} ingress rows; ingest wall {:.1} ms ({rows_per_sec:.0} rows/s)",
        run.seal_analyze_ms,
        run.report.functions.len(),
        run.report.unmatched,
        run.monthly.months.len(),
        run.ingress.len(),
        run.ingest_wall_ms
    );
    if let Some(s) = &run.sampled {
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
    let figures_fnv = figures_digest(&run.report, &run.monthly, &run.ingress);

    // Manifest for kept stores, so figure binaries can `--snapshot` the
    // gate's output and verify its content hash.
    if let Err(e) = (SnapshotMeta {
        seed,
        scale,
        live: false,
        rows_fnv: run.rows_fnv,
    })
    .write(&store)
    {
        eprintln!("[meta] cannot write world.meta: {e}");
    }

    let shard_json = run.shard_stats.iter().map(|sh| {
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
    gate.detail("ingest_wall_ms", num(run.ingest_wall_ms, 3));
    gate.summary("rows", run.rows.into());
    gate.detail("fqdns", run.fqdns.into());
    gate.detail("functions", run.world.functions.len().into());
    gate.detail("identified", run.report.functions.len().into());
    gate.detail("rows_fnv", format!("{:016x}", run.rows_fnv).into());
    gate.detail("figures_fnv", format!("{figures_fnv:016x}").into());
    gate.summary("ingest_rows_per_sec", num(rows_per_sec, 0));
    let done = gate.finish();

    // The identity line depends on neither worker count: CI diffs it
    // against the committed golden.
    println!(
        "pipeline identity: scale {scale} seed {seed} rows {} rows_fnv={:016x} figures_fnv={figures_fnv:016x}",
        run.rows, run.rows_fnv
    );
    let stages = done.run.stages.iter();
    let stage_summary: Vec<String> = stages.map(|s| format!("{} {:.0}", s.name, s.ms)).collect();
    println!(
        "pipeline gate: scale {scale} seed {seed} total {:.0} ms ({}); report -> {}",
        done.run.total_ms,
        stage_summary.join(" / "),
        done.path.display()
    );

    if store_dir.is_none() && !keep_store {
        let _ = std::fs::remove_dir_all(&store);
    }
}
