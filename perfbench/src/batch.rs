//! `batch`: the §4 analysis as a write-then-scan job — the fused
//! generate→ingest→seal→scan→identify→usage pipeline.
//!
//! Set-up builds the reference result every run is checked against:
//! the same world generated in memory and analysed by the in-memory
//! path (`World::generate` + `identify_functions_with` + the §4 sweeps),
//! which shares no store code with the fused pipeline. The measured
//! phase repeats `run_fused` into a fresh store directory.
//!
//! The traced run repeats `run_fused`'s per-shard loop here, with a
//! span around each call into `workload`, `store` and `core`.

use crate::common::{
    costed, median, median_index, ms, repeat_for, report_end_to_end, Cost, Layers, Outcome,
    RunConfig, WorkDir,
};
use fw_bench::fused::{figures_digest, run_fused, FusedOptions};
use fw_core::identify::{classify_fqdn, identify_functions_with, IdentifyEngine};
use fw_core::usage::{ingress_table_with, monthly_requests_with, UsageState};
use fw_dns::pdns::{FqdnAggregate, PdnsBackend as _};
use fw_store::{scan_shard_visit, DiskStore, StoreConfig};
use fw_types::{Fqdn, ProviderId};
use fw_workload::{pdns_content_hash, World, WorldConfig};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::path::Path;
use std::time::{Duration, Instant};

/// World scale of the benchmark's runs.
pub const SCALE: f64 = 0.1;

/// Store shard count (the fused pipeline's unit of seal/scan overlap).
const SHARDS: usize = 16;

/// The pipeline's two output hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    /// Commutative content hash of every stored row.
    pub rows_fnv: u64,
    /// Digest of the identification report, Figure 4 and Table 2.
    pub figures_fnv: u64,
}

/// Known digests for the default size at seed 42.
const PINNED_SEED_42: Digests = Digests {
    rows_fnv: 0x671b_c961_57a6_d3fc,
    figures_fnv: 0x6793_3fdd_9860_2df9,
};

fn world_config(seed: u64, scale: f64, workers: usize) -> WorldConfig {
    let mut config = WorldConfig::usage(seed, scale);
    config.gen_workers = workers;
    config
}

/// The in-memory reference result, and the in-memory store's row count.
pub fn reference(seed: u64, scale: f64, workers: usize) -> (Digests, usize) {
    let world = World::generate(world_config(seed, scale, workers));
    let report = identify_functions_with(&world.pdns, workers);
    let monthly = monthly_requests_with(&report, &world.pdns, workers);
    let ingress = ingress_table_with(&report, &world.pdns, workers);
    let digests = Digests {
        rows_fnv: pdns_content_hash(&world.pdns),
        figures_fnv: figures_digest(&report, &monthly, &ingress),
    };
    (digests, world.pdns.record_count())
}

/// One untraced fused run into `dir`; returns its digests and the
/// number of distinct rows it stored.
pub fn fused(
    seed: u64,
    scale: f64,
    workers: usize,
    dir: &Path,
) -> Result<(Digests, usize), String> {
    let opts = FusedOptions {
        shards: SHARDS,
        workers,
        sample: None,
    };
    let run = run_fused(world_config(seed, scale, workers), dir, &opts)
        .map_err(|e| format!("fused run failed: {e}"))?;
    let digests = Digests {
        rows_fnv: run.rows_fnv,
        figures_fnv: figures_digest(&run.report, &run.monthly, &run.ingress),
    };
    Ok((digests, run.rows))
}

/// One traced run's split.
#[derive(Debug, Clone)]
pub struct TracedBatch {
    pub digests: Digests,
    pub rows: usize,
    pub wall_ms: f64,
    pub layers: Layers,
    pub classify_calls: u64,
    pub bytes_written: u64,
}

type Verdict = Option<(ProviderId, Option<String>)>;

/// Per-shard scan state, as in `run_fused`.
struct ScanAcc {
    cur: Option<(Fqdn, Verdict)>,
    rows_fnv: u64,
    usage: UsageState,
    batch: Vec<(FqdnAggregate, Verdict)>,
    layers: Layers,
    classify_calls: u64,
    /// Time spent inside the visitors (subtracted from the scan span).
    visit: Duration,
}

impl ScanAcc {
    fn classify(&mut self, fqdn: &Fqdn) -> Verdict {
        self.classify_calls += 1;
        self.layers.span("core.classify_ms", || classify_fqdn(fqdn))
    }
}

/// `run_fused`'s body with a span around each layer call. Spans of the
/// parallel seal/scan workers add up across threads, so with more than
/// one worker the remainder goes negative by the overlap.
pub fn fused_traced(
    seed: u64,
    scale: f64,
    workers: usize,
    dir: &Path,
) -> Result<TracedBatch, String> {
    let t0 = Instant::now();
    let mut layers = Layers::default();
    let store = DiskStore::create(
        dir,
        StoreConfig {
            shards: SHARDS,
            flush_rows: 0,
        },
    )
    .map_err(|e| format!("store create failed: {e}"))?;
    layers.span("workload.generate_ingest_ms", || {
        World::generate_into(world_config(seed, scale, workers), &store)
    });
    let rows = store.record_count();
    let shard_count = store.shard_count();
    let workers = workers.clamp(1, shard_count);
    let engine = Mutex::new(IdentifyEngine::batch(1));

    type Part = Result<(u64, UsageState, Layers, u64, u64), String>;
    let parts: Vec<Part> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let store = &store;
                let engine = &engine;
                scope.spawn(move || -> Part {
                    let mut fnv = 0u64;
                    let mut usage = UsageState::new();
                    let mut wl = Layers::default();
                    let mut calls = 0u64;
                    let mut bytes = 0u64;
                    for shard in (w..shard_count).step_by(workers) {
                        wl.span("store.seal_ms", || store.seal_shard(shard))
                            .map_err(|e| format!("seal failed: {e}"))?;
                        bytes += store.shard_stats(shard).bytes_written;
                        wl.span("store.seal_ms", || store.release_shard_table(shard));
                        let acc = RefCell::new(ScanAcc {
                            cur: None,
                            rows_fnv: 0,
                            usage: UsageState::new(),
                            batch: Vec::new(),
                            layers: Layers::default(),
                            classify_calls: 0,
                            visit: Duration::ZERO,
                        });
                        let scan_start = Instant::now();
                        scan_shard_visit(
                            store.dir(),
                            shard,
                            &mut |agg| {
                                let t = Instant::now();
                                let mut a = acc.borrow_mut();
                                let verdict = match &a.cur {
                                    Some((f, v)) if *f == agg.fqdn => v.clone(),
                                    _ => a.classify(&agg.fqdn),
                                };
                                a.batch.push((agg, verdict));
                                a.visit += t.elapsed();
                            },
                            Some(&mut |fqdn, rdata, day, cnt| {
                                let t = Instant::now();
                                let mut a = acc.borrow_mut();
                                if a.cur.as_ref().is_none_or(|(f, _)| f != fqdn) {
                                    let v = a.classify(fqdn);
                                    a.cur = Some((fqdn.clone(), v));
                                }
                                let mut k = fw_types::fnv::fnv1a(fqdn.as_str().as_bytes());
                                k = fw_types::fnv::fold(k, rdata.rtype() as u64);
                                k = rdata.with_text(|t| fw_types::fnv::update(k, t.as_bytes()));
                                k = fw_types::fnv::fold(k, day.0 as u64);
                                a.rows_fnv = a.rows_fnv.wrapping_add(k.wrapping_mul(cnt));
                                if let Some((_, Some((provider, _)))) = &a.cur {
                                    let provider = *provider;
                                    let u = Instant::now();
                                    a.usage.apply(provider, rdata.rtype(), rdata, day, cnt);
                                    a.layers.add("core.usage_ms", u.elapsed());
                                }
                                a.visit += t.elapsed();
                            }),
                        )
                        .map_err(|e| format!("scan failed: {e}"))?;
                        let acc = acc.into_inner();
                        wl.add(
                            "store.scan_ms",
                            scan_start.elapsed().saturating_sub(acc.visit),
                        );
                        wl.merge(&acc.layers);
                        calls += acc.classify_calls;
                        fnv = fnv.wrapping_add(acc.rows_fnv);
                        wl.span("core.usage_ms", || usage.merge(acc.usage));
                        let t = Instant::now();
                        let mut engine = engine.lock();
                        for (agg, verdict) in acc.batch {
                            engine.absorb_classified(agg, verdict);
                        }
                        wl.add("core.identify_ms", t.elapsed());
                    }
                    Ok((fnv, usage, wl, calls, bytes))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("seal/scan workers do not panic"))
            .collect()
    });

    let mut rows_fnv = 0u64;
    let mut usage = UsageState::new();
    let mut classify_calls = 0u64;
    let mut bytes_written = 0u64;
    for part in parts {
        let (fnv, part_usage, wl, calls, bytes) = part?;
        rows_fnv = rows_fnv.wrapping_add(fnv);
        layers.span("core.usage_ms", || usage.merge(part_usage));
        layers.merge(&wl);
        classify_calls += calls;
        bytes_written += bytes;
    }
    let report = layers.span("core.identify_ms", || engine.into_inner().into_report());
    let (monthly, ingress) = layers.span("core.usage_ms", || {
        (usage.monthly_series(), usage.ingress_rows(&report))
    });
    let wall_ms = ms(t0.elapsed());
    Ok(TracedBatch {
        digests: Digests {
            rows_fnv,
            figures_fnv: figures_digest(&report, &monthly, &ingress),
        },
        rows,
        wall_ms,
        layers,
        classify_calls,
        bytes_written,
    })
}

fn check(what: &str, got: Digests, want: Digests) -> Result<(), String> {
    if got != want {
        return Err(format!(
            "batch {what}: rows_fnv {:016x} figures_fnv {:016x} != reference rows_fnv {:016x} figures_fnv {:016x}",
            got.rows_fnv, got.figures_fnv, want.rows_fnv, want.figures_fnv
        ));
    }
    Ok(())
}

/// Set-up: build the reference three times (it must not change).
/// Returns it with the in-memory row count and the set-up costs.
fn setup(cfg: &RunConfig, scale: f64) -> Result<(Digests, usize, Vec<Cost>), String> {
    let mut costs = Vec::new();
    let mut want: Option<Digests> = None;
    let mut memory_rows = 0;
    for _ in 0..3 {
        let ((d, rows), cost) = costed(|| reference(cfg.seed, scale, cfg.workers));
        costs.push(cost);
        memory_rows = rows;
        if let Some(w) = want {
            check("reference rebuild", d, w)?;
        }
        want = Some(d);
    }
    let want = want.expect("three set-ups ran");
    if cfg.seed == 42 && scale == SCALE {
        check("reference at seed 42", want, PINNED_SEED_42)?;
    }
    Ok((want, memory_rows, costs))
}

pub fn run(cfg: &RunConfig, scale: f64) -> Result<Outcome, String> {
    let (want, memory_rows, setups) = setup(cfg, scale)?;
    let work = WorkDir::new("batch")?;
    let mut out = Outcome::default();
    out.line(format!(
        "batch: scale {scale} shards {SHARDS} workers {}; reference rows_fnv {:016x} figures_fnv {:016x}; in-memory store rows {memory_rows}",
        cfg.workers, want.rows_fnv, want.figures_fnv
    ));

    // Warm-up: one untimed run, so page cache and allocator are warm.
    let dir = work.path.join("warmup");
    let warm = fused(cfg.seed, scale, cfg.workers, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let (digests, rows) = warm?;
    check("warm-up run", digests, want)?;

    if !cfg.trace {
        let runs = repeat_for(cfg.seconds, 3, |i| {
            let dir = work.path.join(format!("run{i}"));
            let (got, cost) = costed(|| fused(cfg.seed, scale, cfg.workers, &dir));
            let _ = std::fs::remove_dir_all(&dir);
            let (digests, stored) = got?;
            check("fused run", digests, want)?;
            if stored != rows {
                return Err(format!(
                    "batch: stored {stored} rows, warm-up stored {rows}"
                ));
            }
            Ok(cost)
        })?;
        out.attempted = (runs.len() * rows) as u64;
        report_end_to_end(&mut out, "batch", "rows", &setups, &runs, rows as u64);
        return Ok(out);
    }

    // Traced: alternate untraced and traced runs; report the traced
    // run with the median wall time, so its parts add up exactly.
    let pairs = repeat_for(cfg.seconds, 2, |i| {
        let dir = work.path.join(format!("plain{i}"));
        let t = Instant::now();
        let got = fused(cfg.seed, scale, cfg.workers, &dir);
        let plain_ms = ms(t.elapsed());
        let _ = std::fs::remove_dir_all(&dir);
        check("fused run", got?.0, want)?;
        let dir = work.path.join(format!("traced{i}"));
        fw_obs::set_enabled(true);
        let traced = fused_traced(cfg.seed, scale, cfg.workers, &dir);
        fw_obs::set_enabled(false);
        let _ = std::fs::remove_dir_all(&dir);
        let traced = traced?;
        check("traced run", traced.digests, want)?;
        Ok((plain_ms, traced))
    })?;
    let plain: Vec<f64> = pairs.iter().map(|(p, _)| *p).collect();
    let traced_walls: Vec<f64> = pairs.iter().map(|(_, t)| t.wall_ms).collect();
    let t = &pairs[median_index(&traced_walls)].1;
    out.attempted = (pairs.len() * 2 * t.rows) as u64;
    for layer in [
        "workload.generate_ingest_ms",
        "store.seal_ms",
        "store.scan_ms",
        "core.classify_ms",
        "core.identify_ms",
        "core.usage_ms",
    ] {
        out.set(layer, t.layers.ms(layer));
    }
    out.set("batch.traced_ms", t.wall_ms);
    out.set("batch.remainder_ms", t.wall_ms - t.layers.total_ms());
    out.set("core.classify_calls", t.classify_calls as f64);
    out.set("store.rows", t.rows as f64);
    out.set("store.bytes_written", t.bytes_written as f64);
    out.set(
        "store.bytes_per_row",
        t.bytes_written as f64 / t.rows.max(1) as f64,
    );
    out.set(
        "obs.trace_overhead",
        median(&traced_walls) / median(&plain) - 1.0,
    );
    out.line(format!(
        "batch traced: {} pairs; untraced median {:.1} ms, traced median {:.1} ms",
        pairs.len(),
        median(&plain),
        median(&traced_walls)
    ));
    Ok(out)
}
