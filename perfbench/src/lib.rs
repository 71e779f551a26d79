//! Outside-in benchmark for faaswild.
//!
//! Four workloads, each driving the program only through its crates'
//! public APIs with inputs generated from the workload seed:
//!
//! - [`batch`]: the fused §4 pipeline (`workload`, `store`, `core`);
//! - [`serve`]: the query API under the SimNet load harness (`http`,
//!   `serve`, `net`);
//! - [`measure`]: active probing and the abuse/C2 scan (`dns`, `http`
//!   client, `cloud`, `probe`, `abuse`, `core`);
//! - [`stream`]: the sensing daemon replaying day batches (`stream`,
//!   incremental `core`).
//!
//! Every run checks the program's outputs against a reference computed
//! by a different path and fails without numbers on a mismatch. See
//! `NOTES.md` for why each workload exists and which metric each layer
//! should move.

pub mod batch;
pub mod common;
pub mod measure;
pub mod serve;
pub mod stream;

use common::{unit_of, Outcome, RunConfig, END_TO_END, PER_LAYER};
use std::fmt::Write as _;

pub const WORKLOADS: [&str; 4] = ["batch", "serve", "measure", "stream"];

/// Run one workload at its default size.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match name {
        "batch" => batch::run(cfg, batch::SCALE),
        "serve" => serve::run(cfg, &serve::ServeParams::default()),
        "measure" => measure::run(cfg, measure::SCALE),
        "stream" => stream::run(cfg, stream::SCALE),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The metrics a run reports, in catalogue order: every end-to-end
/// metric, or with `trace` every per-layer metric (0 for layers the
/// workload never calls). Fails if an end-to-end metric is missing or
/// any value is not a finite number.
pub fn reported_metrics(
    outcome: &Outcome,
    trace: bool,
) -> Result<Vec<(&'static str, f64)>, String> {
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut out = Vec::with_capacity(catalogue.len());
    for (name, _) in catalogue {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        out.push((*name, value));
    }
    Ok(out)
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let unit = unit_of(name).expect("catalogued metric");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Host fingerprint: core count, CPU model, kernel, and the revision of
/// the code under test (git HEAD when the checkout has one, and always
/// a digest of the source tree).
pub fn host_fingerprint() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" kernel={kernel} git={} src_fnv={:016x}",
        git_rev(&root).unwrap_or_else(|| "none".to_string()),
        source_digest(&root)
    )
}

fn git_rev(root: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// FNV digest over every Rust source and manifest of the program and
/// the benchmark, in path order.
fn source_digest(root: &std::path::Path) -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            let name = e.file_name();
            if path.is_dir() {
                if name != "target" && name != ".work" {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for sub in ["crates", "src", "perfbench/src", "vendor"] {
        walk(&root.join(sub), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("perfbench/Cargo.toml"));
    files.sort();
    let mut h = fw_types::fnv::fnv1a(b"perfbench-src-v1");
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            h = fw_types::fnv::update(h, rel.to_string_lossy().as_bytes());
            h = fw_types::fnv::update(h, &bytes);
        }
    }
    h
}
