//! The persistent sharded store.
//!
//! Layout of a store directory:
//!
//! ```text
//! <dir>/superblock.fws          versioned superblock (magic, shard count, CRC)
//! <dir>/shard-000/seg-00000001.fws
//! <dir>/shard-000/seg-00000002.fws
//! <dir>/shard-001/...
//! ```
//!
//! Ingestion is lock-striped: an fqdn hashes (FNV-1a, stable across
//! processes) to one of N shards, each behind its own mutex, so
//! concurrent sensors contend only when they touch the same shard.
//! Each shard keeps one [`DayTable`] per fqdn (the query view, the
//! same table the in-memory `PdnsStore` uses) plus each row's unflushed
//! count beside it; `flush` writes the unflushed deltas as one
//! immutable sorted segment. Reopening a store replays all segments
//! through the same tables, summing duplicate `(fqdn, rdata, pdate)`
//! keys, which makes segments append-only and crash-tolerant: a
//! half-written segment fails its CRC and is reported, never silently
//! merged.
//!
//! Sealing is the one terminal write: `seal` (or `seal_shard`, one
//! shard at a time) encodes a shard's whole table as a single sorted
//! segment and deletes the segments written before it. Every snapshot
//! on disk is written that way — a store created with `flush_rows: 0`,
//! filled by `World::generate_into`, then sealed — so the scan's
//! single-segment fast path is the common case.

use crate::segment::{read_segment, SegmentBuilder};
use crate::{StoreConfig, StoreError};
use fw_dns::pdns::{DayTable, FqdnAggregate, PdnsBackend};
use fw_types::fnv::FnvBuildHasher;
use fw_types::{DayStamp, Fqdn, Rdata, RecordType};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SUPER_MAGIC: &[u8; 8] = b"FWSUPER\x01";
const SUPER_VERSION: u32 = 1;
const SUPERBLOCK: &str = "superblock.fws";

#[derive(Debug, Default)]
struct Entry {
    table: DayTable,
    /// Per row of `table`, in its order: the part of the row's count
    /// not yet in any segment.
    unflushed: Vec<u64>,
    dirty: bool,
}

#[derive(Debug)]
struct Shard {
    /// This shard's index, for trace labels and per-shard stats.
    idx: usize,
    dir: PathBuf,
    /// FNV-keyed: ingest does two lookups per observed row and SipHash
    /// was a measurable slice of single-core ingest wall time.
    table: HashMap<Fqdn, Entry, FnvBuildHasher>,
    /// Distinct `(fqdn, rdata, pdate)` keys.
    rows: usize,
    /// Rows with an unflushed delta.
    pending: usize,
    /// Fqdns with unflushed deltas (each appears once: guarded by
    /// `Entry::dirty`).
    dirty: Vec<Fqdn>,
    next_seg: u64,
    segments: Vec<PathBuf>,
    /// Lifetime flush count (segments written by `flush`).
    flushes: u64,
    /// Wall nanoseconds spent inside `flush`.
    flush_ns: u64,
    /// Duration of every individual flush, for tail-latency (p99)
    /// accounting in the gate report.
    flush_samples_ns: Vec<u64>,
    /// Segment bytes written by this shard (flush + seal).
    bytes_written: u64,
}

impl Shard {
    /// Merge a non-empty batch of rows with nonzero counts sharing one
    /// fqdn: the table lookup and dirty bookkeeping are paid once per
    /// batch. Returns the number of rows observed.
    fn observe_rows<'r>(
        &mut self,
        fqdn: &Fqdn,
        rows: impl Iterator<Item = (&'r Rdata, DayStamp, u64)>,
    ) -> u64 {
        // Two cheap FNV lookups instead of `entry(fqdn.clone())`: the
        // entry API would clone (allocate) the key on every batch, not
        // just on first sight.
        if !self.table.contains_key(fqdn) {
            self.table.insert(fqdn.clone(), Entry::default());
        }
        let entry = self.table.get_mut(fqdn).expect("key just ensured");
        let mut observed = 0u64;
        for (rdata, day, count) in rows {
            observed += 1;
            let pos = entry.table.add(rdata, day, count);
            if pos == entry.unflushed.len() {
                entry.unflushed.push(0);
                self.rows += 1;
            }
            if entry.unflushed[pos] == 0 {
                self.pending += 1;
            }
            entry.unflushed[pos] += count;
        }
        if !entry.dirty {
            entry.dirty = true;
            self.dirty.push(fqdn.clone());
        }
        observed
    }

    /// Write unflushed deltas as one segment. Returns bytes written.
    fn flush(&mut self) -> Result<u64, StoreError> {
        if self.pending == 0 {
            self.dirty.clear();
            return Ok(0);
        }
        let start = Instant::now();
        let _trace = fw_obs::trace_span_arg("store/flush", self.idx as u64);
        // `dirty`/`pending` bound the dictionary and row counts exactly,
        // so the builder never regrows mid-flush — this was the shard
        // flush tail-latency outlier at scale 1.0.
        let mut builder = SegmentBuilder::with_capacity(self.dirty.len(), self.pending);
        for fqdn in self.dirty.drain(..) {
            let entry = self.table.get_mut(&fqdn).expect("dirty fqdn in table");
            entry.dirty = false;
            for ((rdata, day, _), delta) in entry.table.rows().zip(&mut entry.unflushed) {
                if *delta > 0 {
                    builder.push(&fqdn, rdata, day, *delta);
                    *delta = 0;
                }
            }
        }
        self.pending = 0;
        let Some(bytes) = builder.finish() else {
            return Ok(0);
        };
        let path = self.write_segment(&bytes)?;
        self.segments.push(path);
        self.flushes += 1;
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        self.flush_ns += elapsed_ns;
        self.flush_samples_ns.push(elapsed_ns);
        self.bytes_written += bytes.len() as u64;
        fw_obs::counter_inc!("fw.store.segments_written");
        fw_obs::counter_add!("fw.store.bytes_written", bytes.len() as u64);
        fw_obs::histogram_record!("fw.store.flush_us", start.elapsed().as_micros() as u64);
        Ok(bytes.len() as u64)
    }

    /// Terminal write: encode the whole in-memory table as one segment
    /// and drop the segments earlier flushes wrote. Holds exactly the
    /// table's content (flushed and unflushed counts alike), written
    /// once. A shard with nothing unflushed and at most one segment is
    /// already sealed and is left alone.
    fn seal(&mut self) -> Result<(), StoreError> {
        if self.pending == 0 && self.segments.len() < 2 {
            self.dirty.clear();
            return Ok(());
        }
        let start = Instant::now();
        let _trace = fw_obs::trace_span_arg("store/seal", self.idx as u64);
        let had_pending = self.pending > 0;
        let mut builder = SegmentBuilder::for_distinct_fqdns(self.table.len(), self.rows);
        for (fqdn, entry) in &mut self.table {
            entry.dirty = false;
            // Table keys are distinct, so the map-free per-fqdn push
            // applies (one dictionary clone per fqdn, no dedupe hashes).
            builder.push_fqdn_rows(fqdn, entry.table.rows());
            entry.unflushed.fill(0);
        }
        self.dirty.clear();
        self.pending = 0;
        let Some(bytes) = builder.finish() else {
            return Ok(());
        };
        let path = self.write_segment(&bytes)?;
        for old in std::mem::take(&mut self.segments) {
            std::fs::remove_file(&old)?;
        }
        self.segments.push(path);
        self.bytes_written += bytes.len() as u64;
        // The seal write retires the pending deltas, so it counts as a
        // flush in the ingest stats (tail-latency accounting included).
        if had_pending {
            let elapsed_ns = start.elapsed().as_nanos() as u64;
            self.flushes += 1;
            self.flush_ns += elapsed_ns;
            self.flush_samples_ns.push(elapsed_ns);
            fw_obs::histogram_record!("fw.store.flush_us", start.elapsed().as_micros() as u64);
        }
        fw_obs::counter_inc!("fw.store.segments_written");
        fw_obs::counter_add!("fw.store.bytes_written", bytes.len() as u64);
        Ok(())
    }

    /// Durably write `bytes` as the next segment (tmp file + rename).
    fn write_segment(&mut self, bytes: &[u8]) -> Result<PathBuf, StoreError> {
        let name = format!("seg-{:08}.fws", self.next_seg);
        self.next_seg += 1;
        let tmp = self.dir.join(format!(".tmp-{name}"));
        let path = self.dir.join(name);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// Persistent, sharded, append-only PDNS store.
///
/// Implements [`PdnsBackend`], so the whole measurement pipeline runs
/// against it exactly as against the in-memory [`fw_dns::pdns::PdnsStore`].
pub struct DiskStore {
    dir: PathBuf,
    shards: Vec<Mutex<Shard>>,
    flush_rows: usize,
    read_only: bool,
    /// First error from an auto-flush inside `observe_count` (which has
    /// no error channel); surfaced by the next explicit `flush`.
    deferred_err: Mutex<Option<StoreError>>,
}

impl DiskStore {
    /// Create a fresh store directory. Fails if one already exists there.
    pub fn create(dir: &Path, config: StoreConfig) -> Result<DiskStore, StoreError> {
        let shard_count = config.shards.clamp(1, 4096);
        if dir.join(SUPERBLOCK).exists() {
            return Err(StoreError::AlreadyExists(dir.to_path_buf()));
        }
        std::fs::create_dir_all(dir)?;
        let mut superblock = Vec::with_capacity(24);
        superblock.extend_from_slice(SUPER_MAGIC);
        superblock.extend_from_slice(&SUPER_VERSION.to_le_bytes());
        superblock.extend_from_slice(&(shard_count as u32).to_le_bytes());
        superblock.extend_from_slice(&0u32.to_le_bytes()); // flags
        superblock.extend_from_slice(&crate::crc32(&superblock).to_le_bytes());
        std::fs::write(dir.join(SUPERBLOCK), &superblock)?;

        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let shard_dir = dir.join(format!("shard-{i:03}"));
            std::fs::create_dir_all(&shard_dir)?;
            shards.push(Mutex::new(Shard {
                idx: i,
                dir: shard_dir,
                table: HashMap::default(),
                rows: 0,
                pending: 0,
                dirty: Vec::new(),
                next_seg: 1,
                segments: Vec::new(),
                flushes: 0,
                flush_ns: 0,
                flush_samples_ns: Vec::new(),
                bytes_written: 0,
            }));
        }
        Ok(DiskStore {
            dir: dir.to_path_buf(),
            shards,
            flush_rows: config.flush_rows,
            read_only: false,
            deferred_err: Mutex::new(None),
        })
    }

    /// Open an existing store for appending.
    pub fn open(dir: &Path) -> Result<DiskStore, StoreError> {
        Self::open_inner(dir, false)
    }

    /// Open an existing store read-only (the snapshot replay path):
    /// `observe_count` panics rather than silently mutating a snapshot.
    pub fn open_read_only(dir: &Path) -> Result<DiskStore, StoreError> {
        Self::open_inner(dir, true)
    }

    fn open_inner(dir: &Path, read_only: bool) -> Result<DiskStore, StoreError> {
        let _span = fw_obs::span("store/open");
        let shard_count = read_superblock(dir)?;

        // Shards are independent on disk, so replay them concurrently —
        // on a multi-core host this takes open from O(total rows) to
        // O(largest shard).
        let loaded: Vec<Result<Shard, StoreError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shard_count)
                .map(|i| scope.spawn(move || Self::load_shard(dir, i)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard loader does not panic"))
                .collect()
        });
        let mut shards = Vec::with_capacity(shard_count);
        for shard in loaded {
            shards.push(Mutex::new(shard?));
        }

        Ok(DiskStore {
            dir: dir.to_path_buf(),
            shards,
            flush_rows: StoreConfig::default().flush_rows,
            read_only,
            deferred_err: Mutex::new(None),
        })
    }

    /// Replay one shard directory's segments into an in-memory table.
    fn load_shard(dir: &Path, i: usize) -> Result<Shard, StoreError> {
        let shard_dir = dir.join(format!("shard-{i:03}"));
        let seg_paths = shard_segment_paths(dir, i)?;
        let next_seg = seg_paths
            .iter()
            .filter_map(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .and_then(|n| n[4..n.len() - 4].parse::<u64>().ok())
            })
            .max()
            .unwrap_or(0)
            + 1;

        let mut shard = Shard {
            idx: i,
            dir: shard_dir,
            table: HashMap::default(),
            rows: 0,
            pending: 0,
            dirty: Vec::new(),
            next_seg,
            segments: seg_paths.clone(),
            flushes: 0,
            flush_ns: 0,
            flush_samples_ns: Vec::new(),
            bytes_written: 0,
        };
        for path in &seg_paths {
            let seg = read_segment(path)?;
            // Segment rows are sorted, so each fqdn forms one contiguous
            // run: resolve the table entry once per run, not per row.
            for run in seg.rows.chunk_by(|a, b| a.fqdn == b.fqdn) {
                let fqdn = &seg.fqdns[run[0].fqdn as usize];
                let entry = shard.table.entry(fqdn.clone()).or_default();
                for row in run {
                    let rdata = &seg.rdatas[row.rdata as usize];
                    if entry.table.add(rdata, row.pdate, row.cnt) == entry.unflushed.len() {
                        entry.unflushed.push(0);
                    }
                }
            }
        }
        shard.rows = shard.table.values().map(|e| e.table.len()).sum();
        Ok(shard)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total on-disk segment files across shards.
    pub fn segment_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().segments.len()).sum()
    }

    fn shard_of(&self, fqdn: &Fqdn) -> MutexGuard<'_, Shard> {
        // FNV-1a, stable across processes (unlike SipHash with a random
        // key) so a reopened store shards identically.
        let h = fw_types::fnv::fnv1a(fqdn.as_str().as_bytes());
        self.shards[(h % self.shards.len() as u64) as usize].lock()
    }

    /// Record `count` observations. Lock-striped: concurrent callers on
    /// different shards proceed in parallel.
    pub fn observe_count(&self, fqdn: &Fqdn, rdata: &Rdata, day: DayStamp, count: u64) {
        self.observe_rows(fqdn, std::iter::once((rdata, day, count)));
    }

    /// Record a batch of observations sharing one fqdn under a single
    /// shard lock. Equivalent to [`observe_count`](Self::observe_count)
    /// once per element in iteration order, except the flush-threshold
    /// check runs once per batch — which can only shift *where* a
    /// flush-mode store cuts its pre-seal segments, never the merged
    /// row content.
    pub fn observe_rows<'r>(
        &self,
        fqdn: &Fqdn,
        rows: impl Iterator<Item = (&'r Rdata, DayStamp, u64)>,
    ) {
        let mut rows = rows.filter(|(_, _, c)| *c > 0).peekable();
        if rows.peek().is_none() {
            return;
        }
        assert!(!self.read_only, "observe on a read-only snapshot store");
        let mut shard = self.shard_of(fqdn);
        let observed = shard.observe_rows(fqdn, rows);
        fw_obs::counter_add!("fw.store.ingest.rows", observed);
        if self.flush_rows > 0 && shard.pending >= self.flush_rows {
            if let Err(e) = shard.flush() {
                self.deferred_err.lock().get_or_insert(e);
            }
        }
    }

    /// Flush all unflushed deltas to segments. Also surfaces any error an
    /// earlier auto-flush hit inside `observe_count`.
    pub fn flush(&self) -> Result<u64, StoreError> {
        if let Some(e) = self.deferred_err.lock().take() {
            return Err(e);
        }
        if self.read_only {
            return Ok(0);
        }
        let _span = fw_obs::span("store/flush");
        // Shards flush to independent files: do them concurrently.
        let parts: Vec<Result<u64, StoreError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|shard| scope.spawn(move || shard.lock().flush()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("flush workers do not panic"))
                .collect()
        });
        let mut total = 0u64;
        for part in parts {
            total += part?;
        }
        Ok(total)
    }

    /// Seal every shard (see [`seal_shard`](Self::seal_shard)) on one
    /// thread per shard: the store ends as one sorted segment per
    /// non-empty shard, ready for the streaming scan.
    pub fn seal(&self) -> Result<(), StoreError> {
        let _span = fw_obs::span("store/seal");
        let parts: Vec<Result<(), StoreError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.shards.len())
                .map(|shard| scope.spawn(move || self.seal_shard(shard)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("seal workers do not panic"))
                .collect()
        });
        parts.into_iter().collect()
    }

    /// Seal one shard, leaving it a single sorted segment ready for the
    /// streaming scan. The per-shard half of [`seal`](Self::seal): the
    /// fused pipeline seals shards individually so identify/usage can
    /// consume a sealed shard while later shards are still sealing.
    /// Also surfaces any deferred auto-flush error.
    pub fn seal_shard(&self, shard: usize) -> Result<(), StoreError> {
        if let Some(e) = self.deferred_err.lock().take() {
            return Err(e);
        }
        if self.read_only {
            return Ok(());
        }
        let _trace = fw_obs::trace_span_arg("store/seal_shard", shard as u64);
        self.shards[shard].lock().seal()
    }

    /// Drop one shard's in-memory table, keeping its on-disk segments
    /// and flush accounting. After release, table reads (aggregates,
    /// `for_each_*`) see the shard as empty — only ingest-then-scan
    /// pipelines that re-read sealed shards from disk should call this;
    /// they do it to bound peak RSS to roughly one shard instead of the
    /// whole store.
    pub fn release_shard_table(&self, shard: usize) {
        let mut s = self.shards[shard].lock();
        assert_eq!(
            s.pending, 0,
            "release_shard_table on a shard with unflushed rows"
        );
        s.table = HashMap::default();
        s.dirty = Vec::new();
        s.rows = 0;
    }

    /// One shard's [`ShardIngestStats`], for callers that seal and
    /// release shards individually and need the counts before the table
    /// is dropped. Row counts cover the current table (including
    /// replayed segments); flush timings cover only work done through
    /// this handle.
    pub fn shard_stats(&self, shard: usize) -> ShardIngestStats {
        let s = self.shards[shard].lock();
        let flush_p99_ns = if s.flush_samples_ns.is_empty() {
            0
        } else {
            let mut sorted = s.flush_samples_ns.clone();
            sorted.sort_unstable();
            sorted[(sorted.len() * 99).div_ceil(100).saturating_sub(1)]
        };
        ShardIngestStats {
            shard: s.idx,
            fqdns: s.table.len(),
            rows: s.rows,
            flushes: s.flushes,
            flush_ns: s.flush_ns,
            flush_p99_ns,
            bytes_written: s.bytes_written,
            segments: s.segments.len(),
        }
    }

    fn aggregate_inner(&self, fqdn: &Fqdn) -> Option<FqdnAggregate> {
        let shard = self.shard_of(fqdn);
        Some(shard.table.get(fqdn)?.table.aggregate(fqdn))
    }
}

/// Per-shard ingest accounting, surfaced in `pipeline_gate`'s JSON so
/// the bench regression gate can localize IO/skew regressions to a
/// shard instead of a whole stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardIngestStats {
    pub shard: usize,
    /// Distinct fqdns resident in the shard table.
    pub fqdns: usize,
    /// Distinct `(fqdn, rdata, pdate)` rows.
    pub rows: usize,
    /// Segments written by `flush` through this handle.
    pub flushes: u64,
    /// Wall nanoseconds spent in `flush` through this handle.
    pub flush_ns: u64,
    /// p99 of individual flush durations through this handle (0 if the
    /// shard never flushed).
    pub flush_p99_ns: u64,
    /// Segment bytes written (flush + seal) through this handle.
    pub bytes_written: u64,
    /// Segment files currently on disk.
    pub segments: usize,
}

/// Read and verify a store directory's superblock; returns the shard
/// count.
pub(crate) fn read_superblock(dir: &Path) -> Result<usize, StoreError> {
    let superblock = std::fs::read(dir.join(SUPERBLOCK))?;
    if superblock.len() != 24 || &superblock[..8] != SUPER_MAGIC {
        return Err(StoreError::Corrupt(format!(
            "{}: bad superblock",
            dir.display()
        )));
    }
    let crc = u32::from_le_bytes(superblock[20..24].try_into().expect("4 bytes"));
    if crate::crc32(&superblock[..20]) != crc {
        return Err(StoreError::Corrupt(format!(
            "{}: superblock CRC mismatch",
            dir.display()
        )));
    }
    let version = u32::from_le_bytes(superblock[8..12].try_into().expect("4 bytes"));
    if version != SUPER_VERSION {
        return Err(StoreError::Version {
            found: u64::from(version),
            expected: u64::from(SUPER_VERSION),
        });
    }
    let shard_count = u32::from_le_bytes(superblock[12..16].try_into().expect("4 bytes")) as usize;
    if !(1..=4096).contains(&shard_count) {
        return Err(StoreError::Corrupt(format!(
            "{}: implausible shard count {shard_count}",
            dir.display()
        )));
    }
    Ok(shard_count)
}

/// List one shard directory's segment files in replay order. Shared by
/// `DiskStore::load_shard` and the streaming shard scan.
pub(crate) fn shard_segment_paths(dir: &Path, shard: usize) -> Result<Vec<PathBuf>, StoreError> {
    let shard_dir = dir.join(format!("shard-{shard:03}"));
    let mut seg_paths: Vec<PathBuf> = Vec::new();
    if shard_dir.is_dir() {
        for entry in std::fs::read_dir(&shard_dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("seg-") && name.ends_with(".fws") {
                seg_paths.push(path);
            }
        }
    }
    seg_paths.sort();
    Ok(seg_paths)
}

impl PdnsBackend for DiskStore {
    fn observe_count(&mut self, fqdn: &Fqdn, rdata: &Rdata, day: DayStamp, count: u64) {
        DiskStore::observe_count(self, fqdn, rdata, day, count);
    }

    fn fqdn_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().table.len()).sum()
    }

    fn record_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().rows).sum()
    }

    fn for_each_fqdn(&self, f: &mut dyn FnMut(&Fqdn)) {
        // Snapshot each shard's keys before invoking the callback:
        // consumers routinely call `aggregate` from inside it (the
        // identification stage does), which would re-take the shard lock.
        for shard in &self.shards {
            let keys: Vec<Fqdn> = shard.lock().table.keys().cloned().collect();
            for fqdn in &keys {
                f(fqdn);
            }
        }
    }

    fn for_each_row(&self, f: &mut dyn FnMut(&Fqdn, RecordType, &Rdata, DayStamp, u64)) {
        for shard in &self.shards {
            let shard = shard.lock();
            for (fqdn, entry) in &shard.table {
                for (rdata, pdate, cnt) in entry.table.rows() {
                    f(fqdn, rdata.rtype(), rdata, pdate, cnt);
                }
            }
        }
    }

    fn aggregate(&self, fqdn: &Fqdn) -> Option<FqdnAggregate> {
        self.aggregate_inner(fqdn)
    }

    fn for_each_record_of(
        &self,
        fqdn: &Fqdn,
        f: &mut dyn FnMut(RecordType, &Rdata, DayStamp, u64),
    ) {
        let shard = self.shard_of(fqdn);
        if let Some(entry) = shard.table.get(fqdn) {
            (entry.table).for_each_sorted(|rdata, pdate, cnt| f(rdata.rtype(), rdata, pdate, cnt));
        }
    }

    /// Shard-parallel override: each worker sweeps whole shards under
    /// one lock acquisition instead of re-hashing every fqdn through
    /// `aggregate`. The final sort by fqdn makes the output identical to
    /// the provided implementation at any worker count.
    fn par_aggregates(&self, workers: usize) -> Vec<FqdnAggregate> {
        let workers = workers.clamp(1, self.shards.len());
        let fork = fw_obs::current_trace_span();
        let mut out: Vec<FqdnAggregate> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let _trace =
                            fw_obs::trace_span_child_of(fork, "store/agg_worker", w as u64);
                        let mut part = Vec::new();
                        for shard in self.shards.iter().skip(w).step_by(workers) {
                            let shard = shard.lock();
                            part.extend(
                                shard
                                    .table
                                    .iter()
                                    .map(|(fqdn, entry)| entry.table.aggregate(fqdn)),
                            );
                        }
                        part
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("aggregate workers do not panic"))
                .collect()
        });
        out.sort_by(|a, b| a.fqdn.cmp(&b.fqdn));
        out
    }
}
