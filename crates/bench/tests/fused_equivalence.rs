//! The fused pipeline is a pure performance change: at the same
//! seed/scale it must produce the identical row content hash and the
//! identical figure digest as the in-memory path — `World::generate`,
//! then identify and the usage sweeps over its `PdnsStore` — at every
//! worker count (DESIGN.md §16). The reference never touches
//! `fw-store`: no `DiskStore`, no segment, no scan.

use fw_bench::fused::{figures_digest, run_fused, FusedOptions};
use fw_core::identify::identify_functions_with;
use fw_core::usage::{ingress_table_with, monthly_requests_with, usage_sampled};
use fw_workload::{pdns_content_hash, World, WorldConfig};
use std::path::{Path, PathBuf};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("fw-fused-eq-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// In-memory reference run: (rows_fnv, exact figures digest, sampled
/// figures digest at rate 0.5).
fn reference_digests(config: WorldConfig) -> (u64, u64, u64) {
    let world = World::generate(config);
    let rows_fnv = pdns_content_hash(&world.pdns);
    let report = identify_functions_with(&world.pdns, 2);
    let monthly = monthly_requests_with(&report, &world.pdns, 2);
    let ingress = ingress_table_with(&report, &world.pdns, 2);
    let sampled = usage_sampled(&report, &world.pdns, 2, 0.5);
    let sampled_fnv = figures_digest(&report, &sampled.monthly, &sampled.ingress);
    (
        rows_fnv,
        figures_digest(&report, &monthly, &ingress),
        sampled_fnv,
    )
}

#[test]
fn fused_matches_in_memory_at_every_worker_count() {
    let config = WorldConfig::usage(7, 0.003);
    let (rows_fnv, figures_fnv, _) = reference_digests(config.clone());

    for workers in [1usize, 4] {
        let dir = TempDir::new(&format!("fused-w{workers}"));
        let run = run_fused(
            config.clone(),
            dir.path(),
            &FusedOptions {
                shards: 8,
                workers,
                sample: None,
            },
        )
        .expect("fused run");
        assert_eq!(
            run.rows_fnv, rows_fnv,
            "row content hash diverged at workers={workers}"
        );
        assert_eq!(
            figures_digest(&run.report, &run.monthly, &run.ingress),
            figures_fnv,
            "figure digest diverged at workers={workers}"
        );
        assert!(run.ingest_wall_ms > 0.0);
        assert_eq!(run.shard_stats.len(), 8);
        assert!(run
            .shard_stats
            .iter()
            .all(|s| s.flush_p99_ns > 0 || s.rows == 0));
    }
}

#[test]
fn fused_sampled_matches_in_memory_sampled() {
    let config = WorldConfig::usage(7, 0.003);
    let (rows_fnv, _, sampled_fnv) = reference_digests(config.clone());

    let dir = TempDir::new("fused-sample");
    let run = run_fused(
        config,
        dir.path(),
        &FusedOptions {
            shards: 8,
            workers: 4,
            sample: Some(0.5),
        },
    )
    .expect("fused sampled run");
    assert_eq!(run.rows_fnv, rows_fnv);
    let sampled = run.sampled.as_ref().expect("sampled summary present");
    assert!(sampled.sampled_functions <= sampled.total_functions);
    assert_eq!(
        figures_digest(&run.report, &run.monthly, &run.ingress),
        sampled_fnv,
        "sampled figure digest diverged from the in-memory path"
    );
}
