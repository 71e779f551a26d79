//! The gate harness: the plumbing `pipeline_gate`, `fw_stream_gate` and
//! `fw_serve_gate` share, and the one report format they write and
//! `bench_regress` reads (DESIGN.md §13).
//!
//! A gate parses its own flags and hands the rest to
//! [`Args::gate_flag`] (`--out`, `--metrics`, `--trace`, `--trace-out`,
//! `--help`). It then
//! opens a [`Gate`], which times each stage (wall ms, VmHWM and a
//! `gate/<stage>` span), collects typed [`Metric`]s and detail fields,
//! and on [`Gate::finish`] writes the report, carries the previous
//! report's `history` over and writes the trace artifacts in-process.
//!
//! ## Report shape
//!
//! ```text
//! {
//!   "config":  {"scale": 0.1, "seed": 42, ...},
//!   "stages":  {"<stage>": {"ms": 12.5, "peak_rss_kb": 80964}, ...},
//!   "metrics": {"<name>": {"value": 16, "unit": "us", "better": "lower"}, ...},
//!   "total_ms": 1282.21,
//!   <gate-specific detail keys>,
//!   "peak_rss_kb": 90720,
//!   "history": [ {"unix_ms": ..., "config": ..., "stages": ..., "metrics": ..., "total_ms": ..., ...}, ... ]
//! }
//! ```
//!
//! `stages` holds wall time only. Every other gated number is a metric
//! that names its own unit and direction, so [`compare`] never guesses
//! from a name whether higher or lower is better. The top level and
//! each history entry carry the same [`Run`] shape, and [`Run::read`]
//! is the one reader for both.

mod regress;

pub use regress::{compare, RegressConfig, RegressReport, Row};

use crate::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How many runs a report's `history` array retains (newest last).
const HISTORY_CAP: usize = 50;

/// Print `error: <msg>` and exit with status 2 (usage or input error).
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Peak resident set (VmHWM) in KiB; `None` off Linux or if unreadable.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A finite value rounded to `decimals` places, or `null`.
pub fn num(v: f64, decimals: i32) -> Json {
    if v.is_finite() {
        let p = 10f64.powi(decimals);
        Json::Num((v * p).round() / p)
    } else {
        Json::Null
    }
}

/// A KiB reading, or `null`.
fn kb(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::from)
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// Command-line cursor over the process arguments, and the flags every
/// gate shares.
pub struct Args {
    args: std::iter::Skip<std::env::Args>,
    usage: &'static str,
    /// `--out`: the report path.
    out: Option<PathBuf>,
    /// `--trace-out`: the trace dump path.
    trace_out: Option<PathBuf>,
}

impl Args {
    /// The process arguments after the program name; `usage` is what
    /// `--help` prints.
    pub fn from_env(usage: &'static str) -> Args {
        Args {
            args: std::env::args().skip(1),
            usage,
            out: None,
            trace_out: None,
        }
    }

    pub fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The numeric value following `flag`.
    pub fn num<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        self.args
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| die(&format!("{flag} needs a number")))
    }

    /// The path following `flag`.
    pub fn path(&mut self, flag: &str) -> PathBuf {
        let path = self.args.next();
        PathBuf::from(path.unwrap_or_else(|| die(&format!("{flag} needs a path"))))
    }

    /// A flag the gate itself did not match: `--out`, `--metrics`,
    /// `--trace`, `--trace-out`, else [`Args::other`].
    pub fn gate_flag(&mut self, flag: &str) {
        match flag {
            "--out" => self.out = Some(self.path(flag)),
            "--metrics" => crate::set_enabled(true),
            "--trace" => crate::set_trace_enabled(true),
            "--trace-out" => self.trace_out = Some(self.path(flag)),
            _ => self.other(flag),
        }
    }

    /// A flag nothing else matched: print usage for `--help`/`-h`,
    /// otherwise fail as unknown.
    pub fn other(&self, flag: &str) -> ! {
        if flag == "--help" || flag == "-h" {
            eprintln!("{}", self.usage);
            std::process::exit(0);
        }
        die(&format!("unknown flag {flag}"))
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        [Better::Lower, Better::Higher]
            .into_iter()
            .find(|b| b.as_str() == s)
    }
}

/// One timed stage: wall time plus the process RSS high-water mark at
/// its end. VmHWM is monotonic, so this reads as "the run had peaked at
/// N KiB by the time this stage finished", not a per-stage delta.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    pub name: String,
    pub ms: f64,
    pub peak_rss_kb: Option<u64>,
}

/// One typed measurement that is not a stage wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub better: Better,
}

/// One run's measurements: the shape of a report's top level and of
/// every history entry alike.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Run {
    pub config: Json,
    pub stages: Vec<Stage>,
    pub metrics: Vec<Metric>,
    pub total_ms: f64,
}

impl Run {
    /// `config.scale`, which [`compare`] matches runs on.
    pub fn scale(&self) -> Option<f64> {
        self.config.get("scale")?.as_f64()
    }

    fn fields(&self) -> Vec<(String, Json)> {
        let stages = self.stages.iter().map(|s| {
            let body = obj([("ms", num(s.ms, 3)), ("peak_rss_kb", kb(s.peak_rss_kb))]);
            (s.name.clone(), body)
        });
        let metrics = self.metrics.iter().map(|m| {
            let body = obj([
                ("value", num(m.value, 4)),
                ("unit", m.unit.as_str().into()),
                ("better", m.better.as_str().into()),
            ]);
            (m.name.clone(), body)
        });
        vec![
            ("config".to_string(), self.config.clone()),
            ("stages".to_string(), Json::Obj(stages.collect())),
            ("metrics".to_string(), Json::Obj(metrics.collect())),
            ("total_ms".to_string(), num(self.total_ms, 3)),
        ]
    }

    /// Read a run from a report's top level or one history entry.
    /// `None` if it lacks `config.scale` or `total_ms`, or has neither
    /// stages nor metrics. Stages and metrics whose value is `null` are
    /// skipped.
    pub fn read(doc: &Json) -> Option<Run> {
        let config = doc.get("config")?.clone();
        config.get("scale")?.as_f64()?;
        let stages: Vec<Stage> = doc
            .get("stages")?
            .as_obj()?
            .iter()
            .filter_map(|(name, v)| {
                Some(Stage {
                    name: name.clone(),
                    ms: v.get("ms")?.as_f64()?,
                    peak_rss_kb: v.get("peak_rss_kb").and_then(Json::as_u64),
                })
            })
            .collect();
        let metrics: Vec<Metric> = doc
            .get("metrics")?
            .as_obj()?
            .iter()
            .filter_map(|(name, v)| {
                Some(Metric {
                    name: name.clone(),
                    value: v.get("value")?.as_f64()?,
                    unit: v.get("unit")?.as_str()?.to_string(),
                    better: Better::parse(v.get("better")?.as_str()?)?,
                })
            })
            .collect();
        if stages.is_empty() && metrics.is_empty() {
            return None;
        }
        Some(Run {
            config,
            stages,
            metrics,
            total_ms: doc.get("total_ms")?.as_f64()?,
        })
    }
}

/// A complete report: one run plus its detail keys, ready to write.
#[derive(Default)]
pub struct Report {
    /// Where [`Report::write`] puts it.
    pub path: PathBuf,
    pub unix_ms: u64,
    pub run: Run,
    /// Gate-specific keys after `total_ms`, in order; `true` marks the
    /// ones the history entry repeats.
    pub details: Vec<(String, Json, bool)>,
    pub peak_rss_kb: Option<u64>,
}

impl Report {
    /// The top level (`history == false`) or this run's history entry:
    /// the [`Run`] plus its details, then `peak_rss_kb`.
    fn fields(&self, history: bool) -> Vec<(String, Json)> {
        let mut fields = Vec::new();
        if history {
            fields.push(("unix_ms".to_string(), self.unix_ms.into()));
        }
        fields.extend(self.run.fields());
        for (key, value, in_history) in &self.details {
            if *in_history || !history {
                fields.push((key.clone(), value.clone()));
            }
        }
        fields.push(("peak_rss_kb".to_string(), kb(self.peak_rss_kb)));
        fields
    }

    /// Write the report to its path, carrying over the `history` of the
    /// report already there (capped at 50 runs, newest last).
    pub fn write(&self) -> std::io::Result<()> {
        let (mut history, warning) = prior_history(&self.path);
        if let Some(w) = warning {
            eprintln!("[history] {w}");
        }
        history.push(Json::Obj(self.fields(true)));
        history.drain(..history.len().saturating_sub(HISTORY_CAP));
        let mut doc = self.fields(false);
        doc.push(("history".to_string(), Json::Arr(history)));
        let mut text = String::new();
        render(&Json::Obj(doc), 0, &mut text);
        text.push('\n');
        std::fs::write(&self.path, text)
    }
}

/// Read and parse a report file.
pub fn read_report(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// The `history` entries of the report at `path`, if any. An unreadable
/// or corrupt report yields an empty history plus a warning.
fn prior_history(path: &Path) -> (Vec<Json>, Option<String>) {
    if !path.exists() {
        return (Vec::new(), None);
    }
    match read_report(path) {
        Ok(old) => {
            let entries = old.get("history").and_then(Json::as_arr).unwrap_or(&[]);
            (entries.to_vec(), None)
        }
        Err(e) => (Vec::new(), Some(format!("{e}; starting a fresh history"))),
    }
}

/// Render a report: one top-level key per line; below it, arrays and
/// maps of objects one element per line; everything else inline with
/// `", "` and `": "` separators (CI greps top-level `"key": value`).
fn render(value: &Json, depth: usize, out: &mut String) {
    let (open, close, items): (char, char, Vec<_>) = match value {
        Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Json::Obj(fields) => ('{', '}', fields.iter().map(|(k, v)| (Some(k), v)).collect()),
        scalar => return out.push_str(&scalar.render()),
    };
    let of_objects = items.iter().all(|(_, v)| matches!(v, Json::Obj(_)));
    let expand = depth == 0 || depth == 1 && !items.is_empty() && (open == '[' || of_objects);
    out.push(open);
    for (i, (key, item)) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(if expand { "," } else { ", " });
        }
        if expand {
            out.push_str(&format!("\n{}", "  ".repeat(depth + 1)));
        }
        if let Some(key) = key {
            out.push_str(&format!("{}: ", fw_types::json::escape(key)));
        }
        render(item, depth + 1, out);
    }
    if expand {
        out.push_str(&format!("\n{}", "  ".repeat(depth)));
    }
    out.push(close);
}

/// One gate run in progress: the root `gate/<name>` span, the total
/// clock, and the report its stages, metrics and details fill in.
pub struct Gate {
    trace_out: PathBuf,
    root: crate::Span,
    start: Instant,
    report: Report,
}

impl Gate {
    /// Open the root span `gate/<name>` and start the total clock. The
    /// report goes to `--out` (else `default_out`), the trace dump to
    /// `--trace-out` (else `<out stem>.trace.jsonl` next to the report).
    pub fn start(name: &str, default_out: &str, config: Json, args: Args) -> Gate {
        let out = args.out.unwrap_or_else(|| PathBuf::from(default_out));
        let trace_out = args.trace_out.unwrap_or_else(|| {
            let stem = out.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
            out.with_file_name(format!("{stem}.trace.jsonl"))
        });
        Gate {
            trace_out,
            root: crate::span(&format!("gate/{name}")),
            start: Instant::now(),
            report: Report {
                path: out,
                run: Run {
                    config,
                    ..Run::default()
                },
                ..Report::default()
            },
        }
    }

    /// Run `f` as stage `name` under a `gate/<name>` span, recording its
    /// wall time and the VmHWM at its end.
    pub fn stage<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = {
            let _s = crate::span(&format!("gate/{name}"));
            f()
        };
        self.record(name, t.elapsed().as_secs_f64() * 1e3, peak_rss_kb());
        out
    }

    /// Record a stage timed elsewhere.
    pub fn record(&mut self, name: &str, ms: f64, peak_rss_kb: Option<u64>) {
        let name = name.to_string();
        self.report.run.stages.push(Stage {
            name,
            ms,
            peak_rss_kb,
        });
    }

    /// Wall ms of the most recent stage.
    pub fn last_ms(&self) -> f64 {
        self.report.run.stages.last().map_or(0.0, |s| s.ms)
    }

    /// Record a typed metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, better: Better) {
        let (name, unit) = (name.to_string(), unit.to_string());
        self.report.run.metrics.push(Metric {
            name,
            value,
            unit,
            better,
        });
    }

    /// A top-level detail key, written after `total_ms` in call order.
    pub fn detail(&mut self, key: &str, value: Json) {
        self.report.details.push((key.to_string(), value, false));
    }

    /// A detail key the history entry repeats as well.
    pub fn summary(&mut self, key: &str, value: Json) {
        self.report.details.push((key.to_string(), value, true));
    }

    /// Stop the total clock, close the root span, write the report and
    /// (when tracing) the trace dump with its derived artifacts, then
    /// print the metrics registry if telemetry is on.
    pub fn finish(self) -> Report {
        let mut report = self.report;
        report.run.total_ms = self.start.elapsed().as_secs_f64() * 1e3;
        report.peak_rss_kb = peak_rss_kb();
        // Close the root span before draining so its End event is in
        // the dump (the drain also flushes this thread's buffer).
        drop(self.root);
        let dump = crate::trace_enabled().then(crate::drain_trace);
        report.unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        report
            .write()
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", report.path.display())));
        if let Some(dump) = &dump {
            write_trace(dump, &self.trace_out);
        }
        if crate::enabled() {
            eprint!("{}", crate::registry().render_text());
        }
        report
    }
}

/// Write the span-event dump and its Chrome trace, folded stacks and
/// critical-path artifacts next to it.
fn write_trace(dump: &crate::TraceDump, path: &Path) {
    if let Err(e) = std::fs::write(path, dump.to_jsonl()) {
        die(&format!("cannot write {}: {e}", path.display()));
    }
    eprintln!(
        "[trace] {} events ({} dropped) -> {}",
        dump.events.len(),
        dump.dropped,
        path.display()
    );
    match crate::write_trace_reports(dump, path) {
        Ok(paths) => {
            eprintln!("[trace] chrome trace  -> {}", paths.chrome.display());
            eprintln!("[trace] folded stacks -> {}", paths.folded.display());
            eprintln!("[trace] critical path -> {}", paths.critpath_txt.display());
            if let Some(crit) = &paths.crit {
                eprint!("{}", crit.render_text());
            }
        }
        Err(e) => eprintln!("[trace] cannot write trace reports: {e}"),
    }
}

#[cfg(test)]
mod tests;
