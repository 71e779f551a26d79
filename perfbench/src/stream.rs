//! `stream`: the always-on sensing daemon — day batches replayed over
//! SimNet in virtual time into `StreamDaemon`, which folds them into
//! the incremental identify/usage state and the candidate scorer.
//!
//! Set-up generates the world and cuts its rows into day batches. Each
//! measured run replays every batch into a fresh daemon. The check
//! proves the first run's end state equal to the batch pipeline over
//! the same rows (`check_equivalence`), requires every run's end state
//! to be identical, and compares the detections with a daemon fed the
//! same batches directly, with no transport.
//!
//! The traced run times that direct feed (`StreamDaemon::apply_batch`)
//! and the wire codec over an in-memory connection; what the replay
//! spends beyond both is transport (SimNet and the virtual clock).

use crate::common::{
    costed, median, median_index, ms, percentile_sorted, repeat_for, report_end_to_end, Cost,
    MemConn, Outcome, RunConfig,
};
use fw_bench::fused::figures_digest;
use fw_dns::pdns::PdnsStore;
use fw_stream::wire::{self, Frame};
use fw_stream::{
    check_equivalence, collect_rows, day_batches, replay_in_memory, Batch, DaemonFinal, Detection,
    StreamConfig, StreamDaemon, DAY_US,
};
use fw_types::fnv::{fold, update};
use fw_types::Fqdn;
use fw_workload::{World, WorldConfig};
use std::collections::HashMap;
use std::time::Instant;

/// World scale of the benchmark's runs; batches are daily.
pub const SCALE: f64 = 0.1;

/// Inputs of the measured phase.
pub struct Inputs {
    pub world: World,
    pub batches: Vec<Batch>,
    pub rows: u64,
}

/// Generate the world and cut its batches; returns the inputs and the
/// costs of the two set-up steps (generate, prepare).
pub fn setup_once(seed: u64, scale: f64, workers: usize) -> (Inputs, Cost, Cost) {
    let mut config = WorldConfig::usage(seed, scale);
    config.gen_workers = workers;
    let (world, gen) = costed(|| World::generate(config));
    let (batches, prep) = costed(|| day_batches(&collect_rows(&world.pdns), 1));
    let rows = batches.iter().map(|b| b.rows.len() as u64).sum();
    (
        Inputs {
            world,
            batches,
            rows,
        },
        gen,
        prep,
    )
}

pub fn stream_config(workers: usize) -> StreamConfig {
    StreamConfig {
        workers,
        ..StreamConfig::default()
    }
}

/// Digest of a finished daemon's end state.
pub fn state_digest(fin: &DaemonFinal<PdnsStore>) -> u64 {
    let mut h = figures_digest(&fin.report, &fin.request_series, &fin.ingress);
    for d in &fin.detections {
        h = update(h, d.fqdn.as_str().as_bytes());
        h = fold(fold(h, d.first_seen_us), d.flagged_us);
    }
    let cp = &fin.checkpoint;
    for v in [
        cp.batches,
        cp.rows,
        cp.late_rows,
        cp.identified,
        cp.candidates,
    ] {
        h = fold(h, v);
    }
    h
}

/// One replay into a fresh daemon; returns the end state and the cost
/// of the replay (cloning the batches is not counted).
pub fn stream_run(inputs: &Inputs, seed: u64, workers: usize) -> (DaemonFinal<PdnsStore>, Cost) {
    let batches = inputs.batches.clone();
    let (result, cost) = costed(|| replay_in_memory(batches, &stream_config(workers), seed));
    (result.final_state, cost)
}

/// The daemon fed every batch directly at its virtual arrival time.
pub struct DirectFeed {
    pub detections: Vec<Detection>,
    /// Wall time of each `apply_batch` call, in µs.
    pub apply_us: Vec<f64>,
    pub late_rows: u64,
}

pub fn direct_feed(inputs: &Inputs, workers: usize) -> DirectFeed {
    let mut daemon = StreamDaemon::new(&stream_config(workers));
    let mut apply_us = Vec::with_capacity(inputs.batches.len());
    for b in &inputs.batches {
        let t = Instant::now();
        daemon.apply_batch(b.watermark_day, &b.rows, b.offset_us);
        apply_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let fin = daemon.finish();
    DirectFeed {
        detections: fin.detections,
        apply_us,
        late_rows: fin.checkpoint.late_rows,
    }
}

/// Encode and decode every batch over an in-memory connection; returns
/// the wall time in ms, or the first batch that did not round-trip.
pub fn wire_roundtrip(inputs: &Inputs) -> Result<f64, String> {
    let mut conn = MemConn::default();
    let mut elapsed = std::time::Duration::ZERO;
    for b in &inputs.batches {
        let t = Instant::now();
        wire::write_batch(&mut conn, b.seq, b.watermark_day, &b.rows)
            .map_err(|e| format!("wire encode failed: {e}"))?;
        conn.loop_back();
        let frame = wire::read_frame(&mut conn).map_err(|e| format!("wire decode failed: {e}"))?;
        elapsed += t.elapsed();
        let round_trips = matches!(
            &frame,
            Some(Frame::Batch { seq, watermark_day, rows })
                if *seq == b.seq && *watermark_day == b.watermark_day && *rows == b.rows
        );
        if !round_trips {
            return Err(format!("stream wire: batch {} did not round-trip", b.seq));
        }
    }
    Ok(ms(elapsed))
}

/// Detection latency percentiles (days, virtual) over the world's
/// ground-truth abuse functions.
pub fn detection_days(world: &World, detections: &[Detection]) -> (f64, f64) {
    let flagged: HashMap<&Fqdn, &Detection> = detections.iter().map(|d| (&d.fqdn, d)).collect();
    let mut days: Vec<f64> = world
        .abuse_functions()
        .filter_map(|f| flagged.get(&f.fqdn))
        .map(|d| d.latency_us() as f64 / DAY_US as f64)
        .collect();
    if days.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    days.sort_by(f64::total_cmp);
    (
        percentile_sorted(&days, 50.0),
        percentile_sorted(&days, 99.0),
    )
}

/// Detection-latency percentiles for the default size at seed 42.
const PINNED_SEED_42_DAYS: (f64, f64) = (2.0, 39.0);

/// The end-state checks shared by both modes.
fn check_first(
    cfg: &RunConfig,
    scale: f64,
    inputs: &Inputs,
    fin: &DaemonFinal<PdnsStore>,
    direct: &DirectFeed,
) -> Result<(), String> {
    check_equivalence(fin, &inputs.world.pdns, cfg.workers)
        .map_err(|e| format!("stream/batch equivalence failed: {e}"))?;
    if fin.checkpoint.rows != inputs.rows || fin.checkpoint.batches != inputs.batches.len() as u64 {
        return Err(format!(
            "stream: daemon saw {} rows in {} batches, fed {} in {}",
            fin.checkpoint.rows,
            fin.checkpoint.batches,
            inputs.rows,
            inputs.batches.len()
        ));
    }
    if fin.detections != direct.detections {
        return Err("stream: replayed detections differ from the direct feed".to_string());
    }
    if cfg.seed == 42 && scale == SCALE {
        let days = detection_days(&inputs.world, &fin.detections);
        if days != PINNED_SEED_42_DAYS {
            return Err(format!(
                "stream: detection p50/p99 {days:?} days != pinned {PINNED_SEED_42_DAYS:?} at seed 42"
            ));
        }
    }
    Ok(())
}

/// Set up twice more for the set-up median. This runs after the
/// measured phase, so the dropped worlds leave no allocator state behind
/// in it (peak RSS otherwise flips between modes from run to run).
fn more_setups(cfg: &RunConfig, scale: f64, setups: &mut Vec<(Cost, Cost)>) {
    for _ in 0..2 {
        let (_, gen, prep) = setup_once(cfg.seed, scale, cfg.workers);
        setups.push((gen, prep));
    }
}

pub fn run(cfg: &RunConfig, scale: f64) -> Result<Outcome, String> {
    let (inputs, gen, prep) = setup_once(cfg.seed, scale, cfg.workers);
    let mut setups = vec![(gen, prep)];
    let mut out = Outcome::default();
    out.line(format!(
        "stream: scale {scale}, daily batches, workers {}; {} batches, {} rows",
        cfg.workers,
        inputs.batches.len(),
        inputs.rows
    ));

    if !cfg.trace {
        let direct = direct_feed(&inputs, cfg.workers);
        let mut want: Option<u64> = None;
        let runs = repeat_for(cfg.seconds, 3, |_| {
            let (fin, cost) = stream_run(&inputs, cfg.seed, cfg.workers);
            let digest = state_digest(&fin);
            match want {
                None => {
                    check_first(cfg, scale, &inputs, &fin, &direct)?;
                    want = Some(digest);
                }
                Some(w) if w != digest => {
                    return Err(format!(
                        "stream: end state {digest:016x} != first run {w:016x}"
                    ));
                }
                Some(_) => {}
            }
            Ok(cost)
        })?;
        let rows = inputs.rows;
        drop(inputs);
        more_setups(cfg, scale, &mut setups);
        let setup_costs: Vec<Cost> = setups.iter().map(|(g, p)| g.then(*p)).collect();
        out.attempted = runs.len() as u64 * rows;
        out.line(format!(
            "stream: end state {:016x}",
            want.expect("at least one run")
        ));
        report_end_to_end(&mut out, "stream", "rows", &setup_costs, &runs, rows);
        return Ok(out);
    }

    let mut want: Option<u64> = None;
    let pairs = repeat_for(cfg.seconds, 2, |_| {
        fw_obs::set_enabled(false);
        let (fin, plain) = stream_run(&inputs, cfg.seed, cfg.workers);
        let digest = state_digest(&fin);
        drop(fin);
        fw_obs::set_enabled(true);
        let (fin, traced) = stream_run(&inputs, cfg.seed, cfg.workers);
        let direct = direct_feed(&inputs, cfg.workers);
        let wire_ms = wire_roundtrip(&inputs)?;
        fw_obs::set_enabled(false);
        if state_digest(&fin) != digest {
            return Err("stream: traced end state differs from the untraced one".to_string());
        }
        match want {
            None => {
                check_first(cfg, scale, &inputs, &fin, &direct)?;
                want = Some(digest);
            }
            Some(w) if w != digest => {
                return Err(format!(
                    "stream: end state {digest:016x} != first run {w:016x}"
                ));
            }
            Some(_) => {}
        }
        Ok((plain.wall_s * 1e3, traced.wall_s * 1e3, direct, wire_ms))
    })?;
    let plain: Vec<f64> = pairs.iter().map(|x| x.0).collect();
    let traced_walls: Vec<f64> = pairs.iter().map(|x| x.1).collect();
    let (_, traced_ms, direct, wire_ms) = &pairs[median_index(&traced_walls)];
    let apply_ms = direct.apply_us.iter().sum::<f64>() / 1e3;
    let mut apply_sorted = direct.apply_us.clone();
    apply_sorted.sort_by(f64::total_cmp);
    out.attempted = 2 * pairs.len() as u64 * inputs.rows;
    drop(inputs);
    more_setups(cfg, scale, &mut setups);
    let gen: Vec<f64> = setups.iter().map(|(g, _)| g.wall_s * 1e3).collect();
    let prep: Vec<f64> = setups.iter().map(|(_, p)| p.wall_s * 1e3).collect();
    out.set("workload.generate_ms", median(&gen));
    out.set("stream.prepare_ms", median(&prep));
    out.set("stream.traced_ms", *traced_ms);
    out.set("stream.apply_ms", apply_ms);
    out.set("stream.wire_ms", *wire_ms);
    out.set("stream.transport_ms", traced_ms - apply_ms - wire_ms);
    out.set(
        "stream.apply_p50_us",
        percentile_sorted(&apply_sorted, 50.0),
    );
    out.set(
        "stream.apply_p98_us",
        percentile_sorted(&apply_sorted, 98.0),
    );
    out.set("stream.late_rows", direct.late_rows as f64);
    out.set(
        "obs.trace_overhead",
        median(&traced_walls) / median(&plain) - 1.0,
    );
    out.line(format!(
        "stream traced: {} pairs; untraced median {:.1} ms, traced median {:.1} ms; {} apply samples",
        pairs.len(),
        median(&plain),
        median(&traced_walls),
        direct.apply_us.len()
    ));
    Ok(out)
}
