//! Generate a world's PDNS feed and persist it as an fw-store snapshot.
//!
//! ```text
//! fw_snapshot --snapshot-out <dir> [--scale <f64>] [--seed <u64>]
//!             [--shards <n>] [--gen-workers <n>] [--live] [--metrics]
//! ```
//!
//! The world is generated straight into the store and each shard is
//! sealed to one sorted segment (`fw_workload::write_snapshot`); the
//! in-memory row set is never built. `world.meta` records the seed,
//! scale, flavor and the rows' content hash (`rows_fnv`).
//!
//! The snapshot can then be reopened read-only by any fw-bench figure
//! binary via `--snapshot <dir>`, skipping world generation entirely
//! for the usage-only figures.
//!
//! A default (usage) snapshot matches the feed the usage figures
//! (fig3/4/5, table1/2) generate; `--live` instead generates the live
//! world the probing figures (fig6/7, table3, finding5) use — the two
//! feeds mint different fqdns at the same seed, so pick the flavor
//! matching the binaries you want to replay.

use fw_dns::pdns::PdnsBackend as _;
use fw_workload::{write_snapshot, WorldConfig};
use std::path::PathBuf;
use std::time::Instant;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut scale = 0.1f64;
    let mut seed = 42u64;
    let mut shards = 16usize;
    let mut gen_workers = 0usize;
    let mut live = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--snapshot-out" => {
                out = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--snapshot-out needs a path")),
                ));
            }
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--shards needs an integer"));
            }
            "--gen-workers" => {
                gen_workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--gen-workers needs an integer"));
            }
            "--live" => live = true,
            "--metrics" => fw_obs::set_enabled(true),
            "--help" | "-h" => {
                eprintln!(
                    "usage: fw_snapshot --snapshot-out <dir> [--scale <f64>] [--seed <u64>] [--shards <n>] [--gen-workers <n>] [--live] [--metrics]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    let out = out.unwrap_or_else(|| die("--snapshot-out <dir> is required"));

    let flavor = if live { "live" } else { "PDNS only" };
    eprintln!(
        "generating world: scale {scale} seed {seed} ({flavor}) into {}...",
        out.display()
    );
    let start = Instant::now();
    let mut config = if live {
        WorldConfig::live(seed, scale)
    } else {
        WorldConfig::usage(seed, scale)
    };
    config.gen_workers = gen_workers;
    match write_snapshot(config, &out, shards) {
        Ok(store) => {
            println!(
                "snapshot: {} fqdns, {} rows, {} shards, seed {}, scale {}",
                store.fqdn_count(),
                store.record_count(),
                shards,
                seed,
                scale
            );
            eprintln!("generated and sealed in {:.2?}", start.elapsed());
        }
        Err(e) => die(&format!("snapshot write failed: {e}")),
    }
    if fw_obs::enabled() {
        eprint!("{}", fw_obs::registry().render_text());
    }
}
