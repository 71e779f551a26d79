//! Persisting a generated world's PDNS feed as an on-disk snapshot.
//!
//! Generating a calibrated world at scale takes minutes; the PDNS rows
//! it produces are deterministic for a `(seed, scale)` pair. A snapshot
//! writes those rows into an `fw-store` [`DiskStore`] once, so every
//! figure binary can reopen them read-only (`--snapshot <dir>`) instead
//! of regenerating the world.
//!
//! [`write_snapshot`] is the one way a snapshot is written: the world
//! is generated straight into the store ([`World::generate_into`]), the
//! store is sealed to one sorted segment per shard, and a
//! [`SnapshotMeta`] manifest records the source world and the stored
//! rows' content hash.

use crate::{World, WorldConfig};
use fw_dns::pdns::PdnsBackend;
use fw_store::{DiskStore, StoreConfig, StoreError};
use std::path::Path;

/// Sidecar manifest (`world.meta`) recording which world a snapshot was
/// cut from, so consumers can inherit the seed/scale instead of the
/// caller having to repeat them on every replay invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotMeta {
    pub seed: u64,
    pub scale: f64,
    /// Whether the source world was live-deployed (`WorldConfig::live`)
    /// or PDNS-only (`WorldConfig::usage`); the two flavors mint
    /// different fqdn populations at the same seed.
    pub live: bool,
    /// Commutative content hash of the saved rows (see
    /// [`pdns_content_hash`]); `0` for manifests written before the
    /// field existed. Lets replay consumers check a snapshot matches
    /// its source world without reading every segment.
    pub rows_fnv: u64,
}

/// Order- and merge-insensitive content hash of a PDNS backend: each
/// `(fqdn, rtype, rdata, pdate)` key hashes to an FNV value which is
/// weighted by its count and summed with wrapping addition. Splitting a
/// count across rows (as uncompacted segments do) or visiting rows in a
/// different order cannot change the result, so the in-memory store and
/// any on-disk copy of it hash identically.
pub fn pdns_content_hash<B: PdnsBackend + ?Sized>(pdns: &B) -> u64 {
    let mut h = 0u64;
    pdns.for_each_row(&mut |fqdn, rtype, rdata, pdate, cnt| {
        let mut k = fw_types::fnv::fnv1a(fqdn.as_str().as_bytes());
        k = fw_types::fnv::fold(k, rtype as u64);
        k = rdata.with_text(|text| fw_types::fnv::update(k, text.as_bytes()));
        k = fw_types::fnv::fold(k, pdate.0 as u64);
        h = h.wrapping_add(k.wrapping_mul(cnt));
    });
    h
}

/// File name of the manifest inside a snapshot directory. The store
/// itself only reads the superblock and `shard-*` directories, so the
/// sidecar never interferes with segment I/O.
pub const META_FILE: &str = "world.meta";

impl SnapshotMeta {
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        let text = format!(
            "seed={}\nscale={}\nlive={}\nrows_fnv={:016x}\n",
            self.seed, self.scale, self.live, self.rows_fnv
        );
        std::fs::write(dir.join(META_FILE), text)
    }

    /// Read the manifest; `None` if absent or malformed (a store made
    /// with `DiskStore::create` alone has no manifest).
    pub fn read(dir: &Path) -> Option<SnapshotMeta> {
        let text = std::fs::read_to_string(dir.join(META_FILE)).ok()?;
        let (mut seed, mut scale, mut live, mut rows_fnv) = (None, None, None, None);
        for line in text.lines() {
            match line.split_once('=')? {
                ("seed", v) => seed = v.parse().ok(),
                ("scale", v) => scale = v.parse().ok(),
                ("live", v) => live = v.parse().ok(),
                ("rows_fnv", v) => rows_fnv = u64::from_str_radix(v, 16).ok(),
                _ => {}
            }
        }
        Some(SnapshotMeta {
            seed: seed?,
            scale: scale?,
            live: live?,
            rows_fnv: rows_fnv.unwrap_or(0),
        })
    }
}

/// Generate `config`'s world straight into a fresh `shards`-shard
/// [`DiskStore`] at `dir` (created; fails if a snapshot already exists
/// there), seal it, and write its [`SnapshotMeta`] manifest. The rows
/// equal `World::generate(config).pdns` at any `gen_workers`, so the
/// manifest's `rows_fnv` is the in-memory world's content hash too.
/// Returns the sealed store; its tables stay resident for callers that
/// want counts or queries without reopening it.
pub fn write_snapshot(
    config: WorldConfig,
    dir: &Path,
    shards: usize,
) -> Result<DiskStore, StoreError> {
    let store = DiskStore::create(
        dir,
        StoreConfig {
            shards,
            // Seal writes each shard once from its table, so a
            // threshold flush would only write a segment to delete.
            flush_rows: 0,
        },
    )?;
    let world = World::generate_into(config, &store);
    store.seal()?;
    SnapshotMeta {
        seed: world.config.seed,
        scale: world.config.scale,
        live: world.config.deploy_live,
        rows_fnv: pdns_content_hash(&store),
    }
    .write(dir)?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorldConfig;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "fw-workload-snap-{}-{}",
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

    fn tiny_config() -> WorldConfig {
        WorldConfig::usage(7, 0.002)
    }

    #[test]
    fn snapshot_equals_in_memory_world() {
        let world = World::generate(tiny_config());
        let dir = TempDir::new();
        let store = write_snapshot(tiny_config(), &dir.0, 4).unwrap();
        assert!(store.fqdn_count() > 0);
        assert_eq!(store.fqdn_count(), world.pdns.fqdn_count());
        assert_eq!(store.record_count(), world.pdns.record_count());
        assert_eq!(store.segment_count(), 4, "sealed: one segment per shard");
        drop(store);

        let disk = DiskStore::open_read_only(&dir.0).unwrap();
        assert_eq!(disk.all_aggregates(), world.pdns.all_aggregates());
    }

    #[test]
    fn reopening_is_deterministic() {
        let dir = TempDir::new();
        write_snapshot(tiny_config(), &dir.0, 4).unwrap();
        let a = DiskStore::open_read_only(&dir.0).unwrap().all_aggregates();
        let b = DiskStore::open_read_only(&dir.0).unwrap().all_aggregates();
        assert_eq!(a, b);
    }

    #[test]
    fn manifest_roundtrips_world_identity() {
        let world = World::generate(tiny_config());
        let dir = TempDir::new();
        write_snapshot(tiny_config(), &dir.0, 4).unwrap();
        let meta = SnapshotMeta::read(&dir.0).expect("manifest written");
        assert_eq!(
            meta,
            SnapshotMeta {
                seed: 7,
                scale: 0.002,
                live: false,
                rows_fnv: pdns_content_hash(&world.pdns),
            }
        );
        assert_ne!(meta.rows_fnv, 0);
        // The reopened copy hashes identically.
        let disk = DiskStore::open_read_only(&dir.0).unwrap();
        assert_eq!(pdns_content_hash(&disk), meta.rows_fnv);
        // A bare store has no manifest.
        let dir2 = TempDir::new();
        DiskStore::create(&dir2.0, StoreConfig::default()).unwrap();
        assert!(SnapshotMeta::read(&dir2.0).is_none());
    }

    #[test]
    fn refuses_to_overwrite_existing_snapshot() {
        let dir = TempDir::new();
        write_snapshot(tiny_config(), &dir.0, 4).unwrap();
        let meta = std::fs::read(dir.0.join(META_FILE)).unwrap();
        assert!(matches!(
            write_snapshot(tiny_config(), &dir.0, 4),
            Err(StoreError::AlreadyExists(_))
        ));
        assert_eq!(std::fs::read(dir.0.join(META_FILE)).unwrap(), meta);
    }
}
