//! Plumbing shared by the four workloads: run settings, the metric
//! catalogue, statistics, the timing loop, per-layer span accounting,
//! peak-memory readout and an in-memory connection.

use fw_net::Connection;
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Settings of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Wall-clock budget of the measured phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Size of every thread pool the benchmark configures.
    pub workers: usize,
}

/// End-to-end metrics every workload reports with `--trace 0`. Times
/// are process CPU time, which hypervisor steal does not inflate; wall
/// time, throughput and latency are printed alongside but not gated.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("ops_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with `--trace 1`. A layer a
/// workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 50] = [
    // batch
    ("batch.traced_ms", "ms"),
    ("batch.remainder_ms", "ms"),
    ("workload.generate_ingest_ms", "ms"),
    ("store.seal_ms", "ms"),
    ("store.scan_ms", "ms"),
    ("store.bytes_written", "bytes"),
    ("store.bytes_per_row", "bytes"),
    ("store.rows", "count"),
    ("core.classify_ms", "ms"),
    ("core.classify_calls", "count"),
    ("core.identify_ms", "ms"),
    ("core.usage_ms", "ms"),
    // serve
    ("serve.qps", "1/s"),
    ("serve.p50_us", "us"),
    ("serve.p99_us", "us"),
    ("workload.generate_ms", "ms"),
    ("serve.build_ms", "ms"),
    ("serve.request_ns", "ns"),
    ("http.parse_ns", "ns"),
    ("serve.inline_ns", "ns"),
    ("serve.transport_ns", "ns"),
    ("serve.transport_share", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.admit_accept_ratio", "ratio"),
    ("net.connections", "count"),
    ("net.bytes_sent", "bytes"),
    // measure
    ("measure.traced_ms", "ms"),
    ("measure.remainder_ms", "ms"),
    ("core.status_ms", "ms"),
    ("probe.sweep_ms", "ms"),
    ("probe.requests", "count"),
    ("probe.https_fallback", "count"),
    ("probe.timeouts", "count"),
    ("dns.resolve_failures", "count"),
    ("abuse.scan_ms", "ms"),
    ("abuse.c2_ms", "ms"),
    ("abuse.c2_candidates", "count"),
    ("abuse.c2_hits", "count"),
    ("abuse.c2_hit_ratio", "ratio"),
    ("http.conn_reuse_ratio", "ratio"),
    // stream
    ("stream.prepare_ms", "ms"),
    ("stream.traced_ms", "ms"),
    ("stream.wire_ms", "ms"),
    ("stream.apply_ms", "ms"),
    ("stream.apply_p50_us", "us"),
    ("stream.apply_p98_us", "us"),
    ("stream.transport_ms", "ms"),
    ("stream.late_rows", "count"),
    // all workloads
    ("obs.trace_overhead", "ratio"),
];

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// What one workload run hands back to the reporter.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the measured phase attempted (rows, requests, probes).
    pub attempted: u64,
    /// Of those, the ones that ended in an error.
    pub failed: u64,
    /// Metric name → value; names come from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable detail lines (sample counts, digests).
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "uncatalogued metric {name}");
        self.metrics.insert(name, value);
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Index of the sample whose value is the (lower) median.
pub fn median_index(v: &[f64]) -> usize {
    assert!(!v.is_empty(), "median of no samples");
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
    idx[(v.len() - 1) / 2]
}

/// Nearest-rank percentile `p` (0–100) of ascending-sorted samples.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `rep` until `seconds` of wall time have passed, and at least
/// `min_reps` times. `rep` gets the repetition index.
pub fn repeat_for<T>(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        out.push(rep(out.len())?);
    }
    Ok(out)
}

/// Wall time per layer, accumulated from spans the benchmark records
/// around its calls into each layer's public API.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    ns: BTreeMap<&'static str, u64>,
}

impl Layers {
    /// Time `f` as one span of `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(layer, t.elapsed());
        out
    }

    pub fn add(&mut self, layer: &'static str, d: Duration) {
        *self.ns.entry(layer).or_insert(0) += d.as_nanos() as u64;
    }

    pub fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.ns {
            *self.ns.entry(k).or_insert(0) += v;
        }
    }

    pub fn ms(&self, layer: &str) -> f64 {
        self.ns.get(layer).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Sum of every recorded layer, in ms.
    pub fn total_ms(&self) -> f64 {
        self.ns.values().sum::<u64>() as f64 / 1e6
    }
}

/// Reset the process's peak-RSS mark (VmHWM) to the current RSS, so the
/// next reading covers only what runs after this call. Freed heap memory
/// is handed back to the kernel first, so the current RSS is what is
/// live rather than what earlier runs left in the allocator's arenas.
/// Kernels without `clear_refs` ignore the reset, and the reading covers
/// the whole process.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only releases free memory the allocator
    // holds; it takes no pointers and is safe to call at any time.
    unsafe {
        sys::malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) in MiB, or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    extern "C" {
        pub fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
        #[cfg(target_env = "gnu")]
        pub fn malloc_trim(pad: usize) -> c_int;
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
}

/// CPU time this process has used so far (every thread, alive or
/// exited), in seconds, at nanosecond resolution. The kernel leaves out
/// time the hypervisor stole from the virtual CPUs, so unlike wall time
/// this does not grow when other guests load the host. `None` off Linux.
pub fn process_cpu_s() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        let mut ts = sys::Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the duration of
        // the call, and the clock id is a constant the kernel accepts.
        let rc = unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Wall time, CPU time and peak memory of one call.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Peak RSS during the call (where VmHWM can be reset; otherwise
    /// the process's peak so far).
    pub peak_rss_mb: f64,
}

/// Run `f`, returning its result with its cost.
pub fn costed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    reset_peak_rss();
    let cpu0 = process_cpu_s().unwrap_or(0.0);
    let t = Instant::now();
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s().unwrap_or(0.0) - cpu0;
    let peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
    (
        out,
        Cost {
            wall_s,
            cpu_s,
            peak_rss_mb,
        },
    )
}

impl Cost {
    /// The cost of two calls made one after the other.
    pub fn then(self, next: Cost) -> Cost {
        Cost {
            wall_s: self.wall_s + next.wall_s,
            cpu_s: self.cpu_s + next.cpu_s,
            peak_rss_mb: self.peak_rss_mb.max(next.peak_rss_mb),
        }
    }
}

/// Fill in the end-to-end metrics from the set-up costs, the measured
/// runs' costs and the operations one run performs, and add a detail
/// line with the wall-clock view of the same runs.
pub fn report_end_to_end(
    out: &mut Outcome,
    workload: &str,
    op: &str,
    setups: &[Cost],
    runs: &[Cost],
    ops_per_run: u64,
) {
    let cpu: Vec<f64> = runs.iter().map(|c| c.cpu_s).collect();
    let mut wall: Vec<f64> = runs.iter().map(|c| c.wall_s).collect();
    wall.sort_by(f64::total_cmp);
    let setup_cpu: Vec<f64> = setups.iter().map(|c| c.cpu_s).collect();
    let setup_wall: Vec<f64> = setups.iter().map(|c| c.wall_s).collect();
    out.set("setup_s", median(&setup_cpu));
    out.set("cpu_s", median(&cpu));
    out.set("ops_per_cpu_s", ops_per_run as f64 / median(&cpu));
    // The highest run's peak: transient thread stacks make single runs'
    // peaks jumpy, and the maximum over the phase is the steadier reading.
    let rss = runs.iter().map(|c| c.peak_rss_mb).fold(0.0, f64::max);
    out.set("peak_rss_mb", rss);
    out.line(format!(
        "{workload}: {} runs of {ops_per_run} {op}; wall per run p50 {:.4} s, p99 {:.4} s; {:.0} {op}/s over wall; set-up wall {:.4} s over {} set-ups",
        runs.len(),
        percentile_sorted(&wall, 50.0),
        percentile_sorted(&wall, 99.0),
        ops_per_run as f64 / median(&wall),
        median(&setup_wall),
        setups.len(),
    ));
    let fmt = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.line(format!(
        "{workload}: CPU s per run [{}]; per set-up [{}]; peak RSS MB per run [{}]",
        fmt(cpu),
        fmt(setup_cpu),
        fmt(runs.iter().map(|c| c.peak_rss_mb).collect())
    ));
}

/// A connection over in-memory buffers: reads drain `input`, writes
/// append to `output`. Lets the benchmark call a layer's
/// connection-level API with the transport taken out.
#[derive(Debug, Default)]
pub struct MemConn {
    pub input: Vec<u8>,
    pos: usize,
    pub output: Vec<u8>,
}

impl MemConn {
    pub fn new(input: Vec<u8>) -> MemConn {
        MemConn {
            input,
            pos: 0,
            output: Vec::new(),
        }
    }

    /// Make everything written so far readable, from the start.
    pub fn loop_back(&mut self) {
        self.input = std::mem::take(&mut self.output);
        self.pos = 0;
    }
}

impl Connection for MemConn {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.output.extend_from_slice(buf);
        Ok(())
    }
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.input.len() - self.pos);
        buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
    fn set_read_timeout(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
        Ok(())
    }
    fn shutdown_write(&mut self) {}
    fn peer_addr(&self) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], 0))
    }
}

/// A per-process scratch directory under the benchmark's own directory,
/// removed on drop.
pub struct WorkDir {
    pub path: std::path::PathBuf,
}

impl WorkDir {
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
