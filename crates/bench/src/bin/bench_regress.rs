//! CLI wrapper over [`fw_obs::gate::compare`]: compare a fresh gate
//! report (`pipeline_gate`, `fw_stream_gate` or `fw_serve_gate`)
//! against a committed baseline and exit non-zero on regression. Each
//! row's direction comes from the report itself: stages and the total
//! are lower-is-better wall times, metrics carry their own `better`.
//!
//! ```text
//! bench_regress --baseline BENCH_pipeline.json --current BENCH_current.json
//!               [--tolerance <frac>] [--total-tolerance <frac>]
//!               [--abs-slack-ms <ms>]
//! ```
//!
//! Exit codes: 0 comparison ran and passed, 1 regression detected,
//! 2 usage or unreadable/shape-mismatched input.

use fw_obs::gate::{compare, die, read_report, Args, RegressConfig};
use std::path::PathBuf;

const USAGE: &str = "usage: bench_regress --current <report.json> [--baseline <report.json>] [--tolerance <frac>] [--total-tolerance <frac>] [--abs-slack-ms <ms>]";

fn main() {
    let mut baseline = PathBuf::from("BENCH_pipeline.json");
    let mut current: Option<PathBuf> = None;
    let mut config = RegressConfig::default();
    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--baseline" => baseline = args.path(&flag),
            "--current" => current = Some(args.path(&flag)),
            "--tolerance" => config.tolerance = args.num(&flag),
            "--total-tolerance" => config.total_tolerance = args.num(&flag),
            "--abs-slack-ms" => config.abs_slack_ms = args.num(&flag),
            _ => args.other(&flag),
        }
    }
    let current = current.unwrap_or_else(|| die("--current <report.json> is required"));

    let load = |path: &PathBuf, what: &str| {
        read_report(path).unwrap_or_else(|e| die(&format!("{what}: {e}")))
    };
    let report = compare(
        &load(&baseline, "baseline"),
        &load(&current, "candidate"),
        &config,
    )
    .unwrap_or_else(|e| die(&e));
    print!("{}", report.render_text(&config));
    std::process::exit(if report.regressed() { 1 } else { 0 });
}
