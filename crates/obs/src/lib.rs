//! # fw-obs
//!
//! Structured telemetry for the faaswild measurement pipeline: named
//! [`Counter`]s, [`Gauge`]s and log-bucketed [`Histogram`]s in a global
//! [`Registry`], hierarchical RAII [`Span`]s that time pipeline stages
//! against both the wall clock and the sim clock, and text/JSON
//! exporters suitable for diffing across runs. [`gate`] is the harness
//! the benchmark gates share, with the one report format they write and
//! `bench_regress` reads.
//!
//! ## Gating
//!
//! The whole layer is off by default. It turns on when the process sees
//! `FW_METRICS=1` (also `true`/`on`) in the environment, or when
//! [`set_enabled`]`(true)` is called (the bench binaries do this for
//! their `--metrics` flag). While disabled, every instrumentation site
//! reduces to one relaxed atomic load — the pipeline's output and
//! performance are unchanged.
//!
//! ## Naming convention
//!
//! `fw.<crate>.<subsystem>.<name>`, e.g. `fw.net.bytes_sent` or
//! `fw.probe.latency_us.aws`. Histograms carry their unit as a suffix
//! (`_us`, `_bytes`). Stage paths use `/` separators and mirror call
//! nesting: `pipeline/abuse/cluster`.
//!
//! ## Recording cheaply
//!
//! The [`counter_add!`], [`counter_inc!`] and [`histogram_record!`]
//! macros cache the metric handle in a per-call-site `static`, so a hot
//! loop pays one atomic add per event, not a registry lookup.

mod chrome;
mod critpath;
mod flame;
mod forest;
pub mod gate;
mod metric;
mod registry;
mod report;
mod span;
mod trace;

pub use chrome::to_chrome_json;
pub use critpath::{critical_path, CritEntry, CritReport};
pub use flame::to_folded_stacks;
pub use forest::{build_forest, validate_forest, Forest, SpanNode};
// The JSON value type lives in `fw-types` (shared with the bench gate
// and the streaming daemon's checkpoint format); re-exported here for
// the trace/report consumers that predate the move.
pub use fw_types::Json;
pub use metric::{bucket_bounds, bucket_index, Counter, Gauge, Histogram, NUM_BUCKETS};
pub use registry::Registry;
pub use report::{artifact_paths, write_trace_reports, TraceReportPaths};
pub use span::{advance_sim_micros, sim_now_micros, Span, StageStat};
pub use trace::{
    current_trace_span, drain_trace, flush_thread_trace, set_trace_enabled, trace_async,
    trace_enabled, trace_instant, trace_reset, trace_span, trace_span_arg, trace_span_child_of,
    AsyncSpan, TraceDump, TraceEvent, TraceEventKind, TraceSpan, ARG_NONE,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Once, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_CHECKED: Once = Once::new();

/// Is the telemetry layer recording? Consults `FW_METRICS` once on
/// first call; afterwards this is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENV_CHECKED.call_once(|| {
        let on = matches!(
            std::env::var("FW_METRICS").ok().as_deref(),
            Some("1") | Some("true") | Some("on")
        );
        if on {
            ENABLED.store(true, Ordering::Relaxed);
        }
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Force the telemetry layer on or off (overrides `FW_METRICS`).
pub fn set_enabled(on: bool) {
    ENV_CHECKED.call_once(|| {});
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide registry all instrumentation records into.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Open a timed stage span (child of the thread's current span). Inert
/// when telemetry is disabled. Bind the guard: `let _span = ...`.
///
/// When event tracing is on ([`trace_enabled`]) the guard also emits
/// begin/end trace events — even if the metrics layer is off, in which
/// case the stage tree is left untouched.
pub fn span(name: &str) -> Span {
    if enabled() {
        Span::enter(name)
    } else if trace_enabled() {
        Span::enter_gated(name, false)
    } else {
        Span::disabled()
    }
}

/// Runtime support for the recording macros; not public API.
#[doc(hidden)]
pub mod __rt {
    pub use std::sync::{Arc, OnceLock};
}

/// Add `n` to the named counter; the handle is resolved once per call
/// site. No-op while telemetry is disabled.
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $n:expr) => {{
        if $crate::enabled() {
            static HANDLE: $crate::__rt::OnceLock<$crate::__rt::Arc<$crate::Counter>> =
                $crate::__rt::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::registry().counter($name))
                .add($n as u64);
        }
    }};
}

/// Increment the named counter by one.
#[macro_export]
macro_rules! counter_inc {
    ($name:expr) => {
        $crate::counter_add!($name, 1u64)
    };
}

/// Record a value into the named histogram; the handle is resolved once
/// per call site. No-op while telemetry is disabled.
#[macro_export]
macro_rules! histogram_record {
    ($name:expr, $v:expr) => {{
        if $crate::enabled() {
            static HANDLE: $crate::__rt::OnceLock<$crate::__rt::Arc<$crate::Histogram>> =
                $crate::__rt::OnceLock::new();
            HANDLE
                .get_or_init(|| $crate::registry().histogram($name))
                .record($v as u64);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test covers both gate positions: tests run in parallel and
    // the enable flag is process-global, so flipping it from two tests
    // would race.
    #[test]
    fn gating_and_macro_recording() {
        set_enabled(false);
        let s = span("never-recorded");
        assert!(s.path().is_none());
        drop(s);
        assert!(registry().stage("never-recorded").is_none());
        counter_inc!("fw.obs.test.macro_counter");
        assert_eq!(registry().counter("fw.obs.test.macro_counter").get(), 0);

        set_enabled(true);
        // One shared call site, so the macro's cached handle is reused
        // across invocations (including across the reset below).
        fn bump() {
            counter_add!("fw.obs.test.macro_counter", 3);
            counter_inc!("fw.obs.test.macro_counter");
            histogram_record!("fw.obs.test.macro_hist", 42);
        }
        bump();
        assert_eq!(registry().counter("fw.obs.test.macro_counter").get(), 4);
        assert_eq!(registry().histogram("fw.obs.test.macro_hist").count(), 1);

        // `bump()` cached its handles in per-call-site statics;
        // `Registry::reset()` must leave those handles live (it zeroes
        // values in place rather than replacing the maps), so recording
        // through the same call site lands in the registry a reader
        // sees — not in orphaned metrics.
        registry().reset();
        assert_eq!(registry().counter("fw.obs.test.macro_counter").get(), 0);
        assert_eq!(registry().histogram("fw.obs.test.macro_hist").count(), 0);
        bump();
        assert_eq!(
            registry().counter("fw.obs.test.macro_counter").get(),
            4,
            "cached counter handle detached from live registry by reset()"
        );
        assert_eq!(
            registry().histogram("fw.obs.test.macro_hist").count(),
            1,
            "cached histogram handle detached from live registry by reset()"
        );
    }
}
