//! ```text
//! perfbench --workload <batch|serve|measure|stream> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! Prints the host fingerprint, detail lines and every metric with its
//! unit, then as the last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 without numbers if any
//! output fails its check, 2 on a usage error.

use faaswild_perfbench::common::{unit_of, RunConfig};
use faaswild_perfbench::{
    host_fingerprint, reported_metrics, result_json, run_workload, WORKLOADS,
};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn main() {
    let mut workload: Option<String> = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => workload = Some(value(&mut args, "--workload")),
            "--seed" => seed = value(&mut args, "--seed"),
            "--seconds" => seconds = value(&mut args, "--seconds"),
            "--trace" => trace = value::<u8>(&mut args, "--trace") != 0,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    // Untraced runs keep the program's own instrumentation off; traced
    // runs switch it on around the traced repetitions only.
    fw_obs::set_enabled(false);
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    println!("{} seed={seed}", host_fingerprint());
    println!(
        "run: workload={workload} seconds={seconds} trace={} pools={} threads",
        u8::from(trace),
        cfg.workers
    );

    let result = run_workload(&workload, &cfg)
        .and_then(|outcome| reported_metrics(&outcome, trace).map(|m| (outcome, m)));
    match result {
        Ok((outcome, metrics)) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            for (name, value) in &metrics {
                println!("metric {name} = {value} {}", unit_of(name).unwrap_or(""));
            }
            println!(
                "fail_ratio = {} ({} failed / {} attempted)",
                outcome.failed as f64 / outcome.attempted.max(1) as f64,
                outcome.failed,
                outcome.attempted
            );
            println!(
                "{}",
                result_json(true, outcome.attempted.max(1), outcome.failed, &metrics)
            );
        }
        Err(msg) => {
            eprintln!("CHECK FAILED ({workload}, seed {seed}): {msg}");
            std::process::exit(1);
        }
    }
}
