//! # fw-store
//!
//! Persistent, sharded, append-only storage engine for PDNS
//! daily-aggregate rows — the ingest-once / query-many substrate that
//! lets figure binaries replay a snapshot instead of regenerating a
//! synthetic world (DESIGN.md §9).
//!
//! Three layers:
//!
//! * [`SegmentBuilder`] / [`decode_segment`] — the immutable segment
//!   file: CRC-checksummed blocks of delta-encoded rows with a per-
//!   segment fqdn dictionary and a footer index (see `segment.rs` for
//!   the byte layout).
//! * [`DiskStore`] — N hash-sharded, lock-striped in-memory tables, each
//!   journaled to its own segment directory; `flush` persists unflushed
//!   deltas as sorted segments, `seal` rewrites each shard as one
//!   segment (the terminal write every snapshot ends with). Reopening
//!   replays segments and reproduces identical
//!   [`fw_dns::pdns::FqdnAggregate`]s; [`scan_shard_visit`] streams a
//!   sealed shard's rows and aggregates without building the tables.
//! * [`fw_dns::pdns::PdnsBackend`] — the storage trait the measurement
//!   pipeline consumes; `DiskStore` and the in-memory `PdnsStore` are
//!   interchangeable behind it.
//!
//! Everything is `std`-only. Telemetry (`fw.store.*` counters and the
//! `fw.store.flush_us` histogram) flows through `fw-obs` and is inert
//! unless metrics are enabled.

pub mod codec;
mod crc;
mod mmap;
mod scan;
mod segment;
mod store;

pub use crc::crc32;
pub use scan::{scan_shard_visit, RowVisitor};
pub use segment::{decode_segment, read_segment, SegRow, SegmentBuilder, SegmentData};
pub use store::{DiskStore, ShardIngestStats};

use std::path::PathBuf;

/// Tuning knobs for [`DiskStore::create`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of hash shards (lock stripes / segment directories).
    pub shards: usize,
    /// Auto-flush a shard once this many rows hold unflushed deltas
    /// (0 disables auto-flush; `flush`/`seal` remain explicit).
    pub flush_rows: usize,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            shards: 16,
            flush_rows: 1 << 16,
        }
    }
}

/// Everything that can go wrong talking to a store.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    /// Structural damage: bad magic, CRC mismatch, truncation,
    /// out-of-range indices.
    Corrupt(String),
    /// Format version from a different (future) build.
    Version {
        found: u64,
        expected: u64,
    },
    /// `create` refused to clobber an existing store.
    AlreadyExists(PathBuf),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store data: {msg}"),
            StoreError::Version { found, expected } => {
                write!(
                    f,
                    "store format version {found}, this build reads {expected}"
                )
            }
            StoreError::AlreadyExists(dir) => {
                write!(f, "store already exists at {}", dir.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_dns::pdns::{PdnsBackend, PdnsStore};
    use fw_types::{DayStamp, Fqdn, Rdata, MEASUREMENT_START};
    use std::net::Ipv4Addr;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fq(s: &str) -> Fqdn {
        Fqdn::parse(s).unwrap()
    }

    fn v4(a: u8, b: u8) -> Rdata {
        Rdata::V4(Ipv4Addr::new(198, 51, a, b))
    }

    fn day(n: i64) -> DayStamp {
        MEASUREMENT_START + n
    }

    /// Unique scratch directory per test invocation, removed on drop.
    pub(crate) struct TempDir(pub PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "fw-store-test-{}-{tag}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }

        pub(crate) fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn small_config() -> StoreConfig {
        StoreConfig {
            shards: 4,
            flush_rows: 0,
        }
    }

    #[test]
    fn create_flush_reopen_preserves_aggregates() {
        let tmp = TempDir::new("roundtrip");
        let store = DiskStore::create(tmp.path(), small_config()).unwrap();
        store.observe_count(&fq("a.on.aws"), &v4(100, 1), day(0), 5);
        store.observe_count(&fq("a.on.aws"), &v4(100, 1), day(0), 2);
        store.observe_count(&fq("a.on.aws"), &v4(100, 2), day(3), 1);
        store.observe_count(
            &fq("b.lambda-url.us-east-1.on.aws"),
            &v4(100, 3),
            day(10),
            9,
        );
        assert_eq!(store.fqdn_count(), 2);
        assert_eq!(store.record_count(), 3);
        let before = store.all_aggregates();
        store.flush().unwrap();
        drop(store);

        let reopened = DiskStore::open_read_only(tmp.path()).unwrap();
        assert_eq!(reopened.fqdn_count(), 2);
        assert_eq!(reopened.record_count(), 3);
        assert_eq!(reopened.all_aggregates(), before);
        let agg = reopened.aggregate(&fq("a.on.aws")).unwrap();
        assert_eq!(agg.total_request_cnt, 8);
        assert_eq!(agg.days_count, 2);
    }

    #[test]
    fn deltas_after_flush_accumulate_across_segments() {
        let tmp = TempDir::new("deltas");
        let store = DiskStore::create(tmp.path(), small_config()).unwrap();
        store.observe_count(&fq("x.on.aws"), &v4(1, 1), day(0), 10);
        store.flush().unwrap();
        // Same key again after the flush: lands in a second segment.
        store.observe_count(&fq("x.on.aws"), &v4(1, 1), day(0), 7);
        store.observe_count(&fq("x.on.aws"), &v4(1, 2), day(1), 1);
        store.flush().unwrap();
        drop(store);

        let reopened = DiskStore::open(tmp.path()).unwrap();
        let agg = reopened.aggregate(&fq("x.on.aws")).unwrap();
        assert_eq!(agg.total_request_cnt, 18);
        assert_eq!(reopened.record_count(), 2);
        // The duplicate key merged on replay: counts summed across segments.
        let dist: u64 = agg
            .rdata_dist
            .iter()
            .filter(|(r, _)| *r == v4(1, 1))
            .map(|(_, c)| *c)
            .sum();
        assert_eq!(dist, 17);
    }

    #[test]
    fn compaction_folds_segments_and_preserves_content() {
        let tmp = TempDir::new("compact");
        let store = DiskStore::create(
            tmp.path(),
            StoreConfig {
                shards: 2,
                flush_rows: 0,
            },
        )
        .unwrap();
        for round in 0..5i64 {
            for i in 0..20u8 {
                store.observe_count(&fq(&format!("f{i}.on.aws")), &v4(2, i), day(round), 1);
            }
            store.flush().unwrap();
        }
        let before = store.all_aggregates();
        assert!(store.segment_count() >= 5);
        store.seal().unwrap();
        assert!(store.segment_count() <= 2, "one segment per shard");
        assert_eq!(store.all_aggregates(), before);
        drop(store);
        let reopened = DiskStore::open(tmp.path()).unwrap();
        assert_eq!(reopened.all_aggregates(), before);
    }

    #[test]
    fn auto_flush_kicks_in() {
        let tmp = TempDir::new("autoflush");
        let store = DiskStore::create(
            tmp.path(),
            StoreConfig {
                shards: 1,
                flush_rows: 10,
            },
        )
        .unwrap();
        for i in 0..25i64 {
            store.observe_count(&fq("hot.on.aws"), &v4(3, 1), day(i), 1);
        }
        assert!(store.segment_count() >= 2, "auto-flush wrote segments");
        store.flush().unwrap();
        drop(store);
        let reopened = DiskStore::open(tmp.path()).unwrap();
        assert_eq!(
            reopened.aggregate(&fq("hot.on.aws")).unwrap().days_count,
            25
        );
    }

    #[test]
    fn matches_in_memory_store() {
        let tmp = TempDir::new("equiv");
        let mut mem = PdnsStore::new();
        let store = DiskStore::create(tmp.path(), small_config()).unwrap();
        // Deterministic pseudo-random workload, no RNG dependency.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..2_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let f = fq(&format!("f{}.on.aws", state % 97));
            let r = v4((state >> 16) as u8 % 7, (state >> 24) as u8 % 11);
            let d = day((state >> 32) as i64 % 200);
            let cnt = state % 5 + 1;
            mem.observe_count(&f, &r, d, cnt);
            store.observe_count(&f, &r, d, cnt);
        }
        store.flush().unwrap();
        assert_eq!(store.fqdn_count(), mem.fqdn_count());
        assert_eq!(store.all_aggregates(), mem.all_aggregates());
        drop(store);
        let reopened = DiskStore::open_read_only(tmp.path()).unwrap();
        assert_eq!(reopened.all_aggregates(), mem.all_aggregates());
    }

    #[test]
    fn create_refuses_to_clobber() {
        let tmp = TempDir::new("clobber");
        let store = DiskStore::create(tmp.path(), small_config()).unwrap();
        drop(store);
        match DiskStore::create(tmp.path(), small_config()) {
            Err(StoreError::AlreadyExists(_)) => {}
            other => panic!("expected AlreadyExists, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn corrupted_segment_is_rejected_on_open() {
        let tmp = TempDir::new("corrupt");
        let store = DiskStore::create(tmp.path(), small_config()).unwrap();
        store.observe_count(&fq("c.on.aws"), &v4(5, 5), day(0), 3);
        store.flush().unwrap();
        drop(store);
        // Flip one byte in the middle of the (only) segment file.
        let mut seg_path = None;
        for shard in std::fs::read_dir(tmp.path()).unwrap() {
            let shard = shard.unwrap().path();
            if shard.is_dir() {
                for f in std::fs::read_dir(&shard).unwrap() {
                    let f = f.unwrap().path();
                    if f.extension().is_some_and(|e| e == "fws") {
                        seg_path = Some(f);
                    }
                }
            }
        }
        let seg_path = seg_path.expect("segment written");
        let mut bytes = std::fs::read(&seg_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&seg_path, &bytes).unwrap();
        match DiskStore::open(tmp.path()) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("CRC") || msg.contains("corrupt") || !msg.is_empty())
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn missing_superblock_is_io_error() {
        let tmp = TempDir::new("missing");
        match DiskStore::open(tmp.path()) {
            Err(StoreError::Io(_)) => {}
            other => panic!("expected Io, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn read_only_store_rejects_writes() {
        let tmp = TempDir::new("readonly");
        let store = DiskStore::create(tmp.path(), small_config()).unwrap();
        store.observe_count(&fq("r.on.aws"), &v4(9, 9), day(0), 1);
        store.flush().unwrap();
        drop(store);
        let ro = DiskStore::open_read_only(tmp.path()).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ro.observe_count(&fq("r.on.aws"), &v4(9, 9), day(1), 1);
        }));
        assert!(result.is_err(), "read-only store must reject writes");
    }

    #[test]
    fn concurrent_sharded_ingest() {
        use std::sync::Arc;
        let tmp = TempDir::new("concurrent");
        let store = Arc::new(
            DiskStore::create(
                tmp.path(),
                StoreConfig {
                    shards: 8,
                    flush_rows: 500,
                },
            )
            .unwrap(),
        );
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000i64 {
                    let f = fq(&format!("t{t}-{}.on.aws", i % 50));
                    store.observe_count(&f, &v4(t, (i % 256) as u8), day(i % 30), 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        store.flush().unwrap();
        assert_eq!(store.fqdn_count(), 200);
        let total: u64 = store
            .all_aggregates()
            .iter()
            .map(|a| a.total_request_cnt)
            .sum();
        assert_eq!(total, 4_000);
        drop(store);
        // Note: Arc::try_unwrap not needed; reopen from disk instead.
        let reopened = DiskStore::open(tmp.path()).unwrap();
        let total: u64 = reopened
            .all_aggregates()
            .iter()
            .map(|a| a.total_request_cnt)
            .sum();
        assert_eq!(total, 4_000);
    }

    /// Build the same pseudo-random workload into both backend flavors.
    fn twin_stores(tmp: &TempDir) -> (PdnsStore, DiskStore) {
        let mut mem = PdnsStore::new();
        let store = DiskStore::create(tmp.path(), small_config()).unwrap();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..3_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let f = fq(&format!("f{}.on.aws", state % 83));
            let r = v4((state >> 16) as u8 % 5, (state >> 24) as u8 % 9);
            let d = day((state >> 32) as i64 % 120);
            let cnt = state % 7 + 1;
            mem.observe_count(&f, &r, d, cnt);
            store.observe_count(&f, &r, d, cnt);
        }
        (mem, store)
    }

    /// The non-allocating visitor must see exactly the rows — and the
    /// row order — its own backend's materializing read path produces,
    /// and both backends must visit the same rows: they merge through
    /// the same `DayTable`.
    #[test]
    fn record_visitor_matches_records_for_order() {
        let tmp = TempDir::new("visitor");
        let (mem, store) = twin_stores(&tmp);
        let mut checked = 0usize;
        for fqdn in mem.sorted_fqdns() {
            // PdnsStore: visitor ≡ records_for, element for element.
            let owned: Vec<_> = mem
                .records_for(&fqdn)
                .into_iter()
                .map(|r| (r.rtype, r.rdata, r.pdate, r.request_cnt))
                .collect();
            assert!(!owned.is_empty());
            let mut via_mem = Vec::new();
            mem.for_each_record_of(&fqdn, |rt, rd, pd, cnt| {
                via_mem.push((rt, rd.clone(), pd, cnt));
            });
            assert_eq!(via_mem, owned, "PdnsStore visitor diverges for {fqdn}");

            // DiskStore: visitor ≡ its own rows in canonical
            // `(pdate, rdata text)` order.
            let mut disk_rows = Vec::new();
            store.for_each_row(&mut |f, rt, rd, pd, cnt| {
                if *f == fqdn {
                    disk_rows.push((rt, rd.clone(), pd, cnt));
                }
            });
            disk_rows.sort_by_key(|a| (a.2, a.1.text()));
            let mut via_disk = Vec::new();
            store.for_each_record_of(&fqdn, &mut |rt, rd, pd, cnt| {
                via_disk.push((rt, rd.clone(), pd, cnt));
            });
            assert_eq!(via_disk, disk_rows, "DiskStore visitor diverges for {fqdn}");
            assert_eq!(via_disk, via_mem, "backends' rows diverge for {fqdn}");
            checked += owned.len();
        }
        assert!(checked > 100, "workload produced enough rows to matter");
        // Unknown fqdns: no rows, no panic.
        store.for_each_record_of(&fq("missing.on.aws"), &mut |_, _, _, _| {
            panic!("visited a row of an unknown fqdn")
        });
    }

    #[test]
    fn par_aggregates_is_worker_count_invariant() {
        let tmp = TempDir::new("paragg");
        let (mem, store) = twin_stores(&tmp);
        let want = mem.all_aggregates();
        for workers in [1, 3, 8] {
            assert_eq!(mem.par_aggregates(workers), want, "mem workers={workers}");
            assert_eq!(
                store.par_aggregates(workers),
                want,
                "disk workers={workers}"
            );
        }
    }
}
