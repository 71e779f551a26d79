//! Regression comparison: a fresh gate report against a committed
//! baseline, row by row.
//!
//! A committed `BENCH_*.json` doubles as the baseline series: its top
//! level describes the most recent run and its `history` array holds
//! one entry per prior run. A candidate report is compared against the
//! newest baseline run at the **same scale** — CI gates at scale 0.1
//! while a committed top level may be a scale-1.0 run, so matching by
//! scale is what makes the comparison apples-to-apples.
//!
//! Every stage, every metric and the synthetic `total` row is one
//! comparison row. Its direction comes from the report: stages and the
//! total are lower-is-better wall times, and each metric carries its
//! own `better`.
//!
//! * A **lower-is-better** row regresses only if it exceeds both
//!   `baseline * (1 + tolerance)` and `baseline + abs_slack_ms`. The
//!   slack floor keeps a 3 ms stage going to 5 ms (a 66% "regression")
//!   from failing the build.
//! * A **higher-is-better** row regresses when
//!   `current < baseline / (1 + tolerance)`. The slack floor is a
//!   wall-time notion and does not apply, so the check is relative-only.

use super::{Better, Run};
use crate::Json;

/// Comparison knobs. Defaults are deliberately loose enough for
/// cross-machine CI comparisons; tighten for same-machine A/B runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressConfig {
    /// Allowed relative slowdown per row (0.25 = +25%).
    pub tolerance: f64,
    /// Allowed absolute increase per lower-is-better row, applied on
    /// top of the relative tolerance as a floor for tiny stages.
    pub abs_slack_ms: f64,
    /// Allowed relative slowdown for the end-to-end total; totals
    /// aggregate away per-stage jitter, so this can sit tighter than
    /// the per-stage tolerance.
    pub total_tolerance: f64,
}

impl Default for RegressConfig {
    fn default() -> RegressConfig {
        RegressConfig {
            tolerance: 0.25,
            abs_slack_ms: 50.0,
            total_tolerance: 0.20,
        }
    }
}

/// One row of the comparison: a stage, a metric or the `total`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub better: Better,
    /// `NaN` for informational rows (no baseline to compare against).
    pub baseline: f64,
    /// `NaN` for rows the candidate lacks.
    pub current: f64,
    /// Signed relative change (+0.10 = 10% larger).
    pub ratio: f64,
    pub regressed: bool,
    /// The baseline predates this row (new instrumentation): the row
    /// is reported for visibility but can never fail the gate — the
    /// next committed baseline picks it up.
    pub informational: bool,
}

/// Outcome of a full comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressReport {
    /// Scale both runs were matched at.
    pub scale: f64,
    pub rows: Vec<Row>,
    /// Human-readable provenance of the baseline ("top-level run" or
    /// "history entry N").
    pub baseline_from: String,
}

impl RegressReport {
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }

    /// Fixed-width table plus a PASS/FAIL verdict line.
    pub fn render_text(&self, config: &RegressConfig) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "bench_regress @ scale {} (baseline: {})\n",
            self.scale, self.baseline_from
        ));
        out.push_str(&format!(
            "{:<12} {:>12} {:>12} {:>8}  verdict\n",
            "stage", "baseline ms", "current ms", "delta"
        ));
        let cell = |v: f64| {
            if v.is_nan() {
                "-".to_string()
            } else {
                format!("{v:.1}")
            }
        };
        for r in &self.rows {
            let (delta, verdict) = if r.informational {
                ("-".to_string(), "new (info)")
            } else if r.current.is_nan() {
                ("-".to_string(), "MISSING")
            } else {
                let verdict = if r.regressed { "REGRESSED" } else { "ok" };
                (format!("{:+.1}%", r.ratio * 100.0), verdict)
            };
            out.push_str(&format!(
                "{:<12} {:>12} {:>12} {delta:>8}  {verdict}\n",
                r.name,
                cell(r.baseline),
                cell(r.current)
            ));
        }
        let verdict = if self.regressed() { "FAIL" } else { "PASS" };
        out.push_str(&format!(
            "{verdict} (tolerance +{:.0}% per stage / +{:.0}% total, slack {} ms)\n",
            config.tolerance * 100.0,
            config.total_tolerance * 100.0,
            config.abs_slack_ms
        ));
        out
    }
}

/// A gated value: name, value, direction.
type Gated<'a> = (&'a str, f64, Better);

/// A run's gated values in report order: stages (lower is better),
/// then metrics with their own direction.
fn gated(run: &Run) -> Vec<Gated<'_>> {
    let stages = run.stages.iter().map(|s| (&*s.name, s.ms, Better::Lower));
    let metrics = run.metrics.iter().map(|m| (&*m.name, m.value, m.better));
    stages.chain(metrics).collect()
}

/// Scales within 1% count as "the same" — reports store them as f64.
fn scale_matches(a: f64, b: f64) -> bool {
    (a - b).abs() <= 0.01 * a.abs().max(b.abs()).max(1e-9)
}

/// Find the newest run at `scale` in a baseline document: the
/// top-level run if it matches, else the latest matching `history`
/// entry (the array is ordered oldest → newest).
fn baseline_at_scale(doc: &Json, scale: f64) -> Option<(Run, String)> {
    let at_scale = |run: &Run| run.scale().is_some_and(|s| scale_matches(s, scale));
    if let Some(run) = Run::read(doc).filter(at_scale) {
        return Some((run, "top-level run".to_string()));
    }
    let history = doc.get("history")?.as_arr()?;
    history.iter().enumerate().rev().find_map(|(i, entry)| {
        let run = Run::read(entry).filter(at_scale)?;
        Some((run, format!("history entry {i}")))
    })
}

/// Compare a candidate report against a baseline document. Returns
/// `Err` with a diagnostic when either document is missing the needed
/// shape or the baseline has no run at the candidate's scale.
pub fn compare(
    baseline: &Json,
    current: &Json,
    config: &RegressConfig,
) -> Result<RegressReport, String> {
    let cur = Run::read(current)
        .ok_or("candidate report has no config.scale/stages/total_ms (not a gate report?)")?;
    let scale = cur.scale().expect("Run::read checks config.scale");
    let (base, baseline_from) = baseline_at_scale(baseline, scale)
        .ok_or_else(|| format!("baseline has no run at scale {scale} (top level or history)"))?;
    let (cur_rows, base_rows) = (gated(&cur), gated(&base));
    let value = |rows: &[Gated], name: &str| {
        rows.iter()
            .find(|(n, _, _)| *n == name)
            .map_or(f64::NAN, |r| r.1)
    };

    // A row the baseline predates (new instrumentation) has nothing to
    // regress against: `row` reports it as informational rather than
    // failing (or silently dropping it).
    let mut rows: Vec<Row> = cur_rows
        .iter()
        .map(|&(name, current, better)| {
            let baseline = value(&base_rows, name);
            row(name, better, baseline, current, config.tolerance, config)
        })
        .collect();
    if rows.iter().all(|r| r.informational) {
        return Err("no stage names in common between baseline and candidate".to_string());
    }
    // The reverse direction is a failure, not a footnote: a row the
    // baseline has but the candidate dropped usually means the gate
    // binary lost instrumentation (or a stage was renamed) and the
    // numbers it used to guard are now ungated. `row` marks it
    // regressed (MISSING) so CI goes red until the baseline is
    // re-committed.
    for &(name, baseline, better) in &base_rows {
        if value(&cur_rows, name).is_nan() {
            rows.push(row(name, better, baseline, f64::NAN, 0.0, config));
        }
    }
    rows.push(row(
        "total",
        Better::Lower,
        base.total_ms,
        cur.total_ms,
        config.total_tolerance,
        config,
    ));
    Ok(RegressReport {
        scale,
        rows,
        baseline_from,
    })
}

/// One row; a `NaN` baseline makes it informational, a `NaN` current
/// makes it MISSING (regressed).
fn row(
    name: &str,
    better: Better,
    baseline: f64,
    current: f64,
    tolerance: f64,
    config: &RegressConfig,
) -> Row {
    let informational = baseline.is_nan();
    let compared = !informational && !current.is_nan();
    let ratio = if compared && baseline > 0.0 {
        current / baseline - 1.0
    } else {
        0.0
    };
    let regressed = !informational
        && match better {
            _ if current.is_nan() => true,
            Better::Lower => {
                current > baseline * (1.0 + tolerance) && current > baseline + config.abs_slack_ms
            }
            Better::Higher => baseline > 0.0 && current < baseline / (1.0 + tolerance),
        };
    Row {
        name: name.to_string(),
        better,
        baseline,
        current,
        ratio,
        regressed,
        informational,
    }
}
