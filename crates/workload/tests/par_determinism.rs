//! Worker-count invariance of the parallel data plane (DESIGN.md §12).
//!
//! World generation fans shards out across `gen_workers` threads, both
//! into the in-memory store (`World::generate`) and straight into a
//! snapshot store (`write_snapshot`); both must be pure functions of
//! `(seed, scale)` — the worker count may only change wall time, never
//! a byte of output. These properties drive both paths at worker counts
//! {1, 3, 8} over random seeds and scales and require identical
//! function populations, identical full row dumps, and identical
//! manifest/content hashes.

use fw_dns::pdns::PdnsBackend;
use fw_store::DiskStore;
use fw_workload::{
    pdns_content_hash, write_snapshot, SnapshotMeta, World, WorldConfig, WorldFunction,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "fw-par-det-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config(seed: u64, scale: f64, live: bool, gen_workers: usize) -> WorldConfig {
    let mut c = if live {
        WorldConfig::live(seed, scale)
    } else {
        WorldConfig::usage(seed, scale)
    };
    c.gen_workers = gen_workers;
    c
}

/// Every ground-truth field that generation decides, flattened into a
/// comparable value (`WorldFunction` itself doesn't impl `PartialEq`).
fn fingerprint(
    f: &WorldFunction,
) -> (
    String,
    String,
    String,
    String,
    bool,
    bool,
    i64,
    i64,
    u32,
    u64,
) {
    (
        f.fqdn.as_str().to_string(),
        format!("{:?}", f.provider),
        f.region.clone(),
        format!("{:?}", f.truth),
        f.probed,
        f.deployed,
        f.first_seen.0,
        f.last_seen.0,
        f.days_active,
        f.total_requests,
    )
}

/// Full row dump in canonical order (sorted fqdns, then each fqdn's
/// `(pdate, rdata)` visit order) — stricter than the commutative
/// content hash because it also pins per-fqdn row lists. Raw
/// `for_each_row` order is hash-map order and can't be compared
/// across independently built stores.
fn row_dump<B: PdnsBackend + ?Sized>(pdns: &B) -> Vec<(String, u8, String, i64, u64)> {
    let mut rows = Vec::new();
    for fqdn in pdns.sorted_fqdns() {
        pdns.for_each_record_of(&fqdn, &mut |rtype, rdata, pdate, cnt| {
            rows.push((
                fqdn.as_str().to_string(),
                rtype as u8,
                rdata.text(),
                pdate.0,
                cnt,
            ));
        });
    }
    rows
}

/// Seeds/scales small enough that a single proptest case stays cheap
/// but still mints functions on several providers.
fn world_spec() -> impl Strategy<Value = (u64, f64)> {
    (any::<u16>(), 0u8..3).prop_map(|(seed, step)| (seed as u64, 0.001 + step as f64 * 0.001))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Generation at any worker count is byte-identical to serial:
    /// same functions in the same order, same PDNS rows, same hash.
    #[test]
    fn generation_is_worker_count_invariant((seed, scale) in world_spec()) {
        let base = World::generate(config(seed, scale, false, 1));
        let base_fns: Vec<_> = base.functions.iter().map(fingerprint).collect();
        let base_rows = row_dump(&base.pdns);
        let base_hash = pdns_content_hash(&base.pdns);
        prop_assert!(!base_fns.is_empty());

        for workers in [3usize, 8] {
            let w = World::generate(config(seed, scale, false, workers));
            let fns: Vec<_> = w.functions.iter().map(fingerprint).collect();
            prop_assert_eq!(&fns, &base_fns, "functions diverge at gen_workers={}", workers);
            prop_assert_eq!(&row_dump(&w.pdns), &base_rows, "rows diverge at gen_workers={}", workers);
            prop_assert_eq!(pdns_content_hash(&w.pdns), base_hash);
        }
    }

    /// A snapshot written at any generation worker count holds exactly
    /// the serial in-memory world's rows: same aggregates, same row
    /// dump after a reopen, and the same manifest.
    #[test]
    fn snapshot_is_worker_count_invariant((seed, scale) in world_spec()) {
        let world = World::generate(config(seed, scale, false, 1));
        let want_aggs = world.pdns.all_aggregates();
        let want_rows = row_dump(&world.pdns);
        let want_meta = SnapshotMeta {
            seed,
            scale,
            live: false,
            rows_fnv: pdns_content_hash(&world.pdns),
        };

        for workers in [1usize, 3, 8] {
            let dir = TempDir::new();
            write_snapshot(config(seed, scale, false, workers), &dir.0, 4).unwrap();
            let disk = DiskStore::open_read_only(&dir.0).unwrap();
            prop_assert_eq!(&disk.all_aggregates(), &want_aggs, "aggregates diverge at gen_workers={}", workers);
            prop_assert_eq!(&row_dump(&disk), &want_rows, "rows diverge at gen_workers={}", workers);
            prop_assert_eq!(SnapshotMeta::read(&dir.0).unwrap(), want_meta);
        }
    }
}

/// Live-deployed worlds exercise the platform RNG path (deploys pull
/// region + URL randomness from the per-function entropy stream, not
/// the shared platform RNG), so pin those too at a fixed seed.
#[test]
fn live_generation_is_worker_count_invariant() {
    let base = World::generate(config(7, 0.002, true, 1));
    let base_fns: Vec<_> = base.functions.iter().map(fingerprint).collect();
    let base_rows = row_dump(&base.pdns);
    assert!(base.functions.iter().any(|f| f.deployed));

    let par = World::generate(config(7, 0.002, true, 8));
    let fns: Vec<_> = par.functions.iter().map(fingerprint).collect();
    assert_eq!(fns, base_fns);
    assert_eq!(row_dump(&par.pdns), base_rows);
    assert_eq!(pdns_content_hash(&par.pdns), pdns_content_hash(&base.pdns));
}
