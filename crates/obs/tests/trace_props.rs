//! Trace event-ordering properties (ISSUE-6 satellite).
//!
//! Begin/end events produced by N concurrent worker threads — with
//! random nesting depths, sim-clock advances, and instants mixed in —
//! must always reconstruct a well-formed forest: every end matches an
//! open begin of the same kind, and children nest within their parents
//! on both the wall clock and the virtual clock.
//!
//! These run in the integration-test process (not the lib tests)
//! because they flip the process-global trace flag and drain the global
//! sink; the [`TRACE_LOCK`] serializes the cases within this process.

use proptest::prelude::*;
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Execute one program per worker thread under an enabled tracer and
/// drain the resulting dump. Ops (per byte, mod 4): 0 = open a nested
/// span, 1 = close the innermost open span, 2 = advance the sim clock,
/// 3 = record an instant. Unclosed spans unwind LIFO at thread end.
fn run_workers(programs: &[Vec<u8>]) -> fw_obs::TraceDump {
    let _serialize = TRACE_LOCK.lock().unwrap();
    fw_obs::trace_reset();
    fw_obs::set_trace_enabled(true);
    {
        let root = fw_obs::trace_span("prop/root");
        let fork = root.id();
        assert_ne!(fork, 0, "tracing is on, root must be live");
        let handles: Vec<_> = programs
            .iter()
            .cloned()
            .enumerate()
            .map(|(w, prog)| {
                std::thread::spawn(move || {
                    let _worker = fw_obs::trace_span_child_of(fork, "prop/worker", w as u64);
                    let mut open: Vec<fw_obs::TraceSpan> = Vec::new();
                    for op in prog {
                        match op % 4 {
                            0 => open.push(fw_obs::trace_span_arg("prop/op", u64::from(op))),
                            1 => {
                                open.pop();
                            }
                            2 => fw_obs::advance_sim_micros(u64::from(op) + 1),
                            _ => fw_obs::trace_instant("prop/mark", u64::from(op)),
                        }
                    }
                    // Vec::pop returns the innermost first: LIFO unwind.
                    while open.pop().is_some() {}
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(root);
    }
    fw_obs::set_trace_enabled(false);
    fw_obs::drain_trace()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any mix of worker programs yields a forest that passes every
    /// structural check, with one connected tree under `prop/root`.
    #[test]
    fn concurrent_workers_reconstruct_a_well_formed_forest(
        programs in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..24),
            1..6,
        )
    ) {
        let dump = run_workers(&programs);
        let forest = match fw_obs::validate_forest(&dump) {
            Ok(f) => f,
            Err(e) => return Err(proptest::test_runner::TestCaseError::Fail(
                format!("forest invalid: {e}"),
            )),
        };
        prop_assert_eq!(dump.dropped, 0);

        // Exactly one root: everything hangs off prop/root via the
        // explicit fork edges.
        prop_assert_eq!(forest.roots.len(), 1);
        let root = &forest.nodes[forest.roots[0]];
        prop_assert_eq!(dump.name(root.name_id), "prop/root");
        prop_assert_eq!(root.children.len(), programs.len());

        // Begin/end events pair off exactly (instants aside).
        let begins = dump.events.iter()
            .filter(|e| e.kind == fw_obs::TraceEventKind::Begin).count();
        let ends = dump.events.iter()
            .filter(|e| e.kind == fw_obs::TraceEventKind::End).count();
        prop_assert_eq!(begins, ends);

        // Worker roots carry their worker index as the label and the
        // fork edge as the parent. `Forest` orders children by
        // `begin_ns`, and workers on different cores open their spans
        // in any order, so the indices are compared as a set.
        let mut args = Vec::new();
        for &c in &root.children {
            let node = &forest.nodes[c];
            prop_assert_eq!(dump.name(node.name_id), "prop/worker");
            prop_assert_eq!(node.parent, root.id);
            args.push(node.arg);
        }
        args.sort_unstable();
        let expect: Vec<u64> = (0..programs.len() as u64).collect();
        prop_assert_eq!(args, expect);
    }

    /// The virtual clock is globally monotonic, so every span's sim
    /// interval is well-ordered and nested exactly like its wall
    /// interval — even when workers advance the clock concurrently.
    #[test]
    fn sim_clock_intervals_nest_like_wall_intervals(
        programs in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 1..16),
            2..5,
        )
    ) {
        let dump = run_workers(&programs);
        let forest = fw_obs::validate_forest(&dump)
            .map_err(|e| proptest::test_runner::TestCaseError::Fail(
                format!("forest invalid: {e}"),
            ))?;
        for node in &forest.nodes {
            prop_assert!(node.begin_sim_us <= node.end_sim_us);
            for &c in &node.children {
                let ch = &forest.nodes[c];
                prop_assert!(ch.begin_sim_us >= node.begin_sim_us);
                prop_assert!(ch.end_sim_us <= node.end_sim_us);
            }
        }
    }
}

/// `fw_obs::span` emits trace events when tracing is on even with the
/// metrics layer off — and leaves the stage tree untouched.
#[test]
fn stage_spans_trace_without_metrics() {
    let _serialize = TRACE_LOCK.lock().unwrap();
    fw_obs::trace_reset();
    fw_obs::set_enabled(false);
    fw_obs::set_trace_enabled(true);
    {
        let outer = fw_obs::span("traced_only_outer");
        assert_ne!(outer.trace_id(), 0);
        let _inner = fw_obs::span("traced_only_inner");
    }
    fw_obs::set_trace_enabled(false);
    let dump = fw_obs::drain_trace();
    let forest = fw_obs::validate_forest(&dump).expect("well-formed");
    assert_eq!(forest.nodes.len(), 2);
    assert_eq!(forest.roots.len(), 1);
    // Metrics gate was off: nothing reached the stage tree.
    assert!(fw_obs::registry().stage("traced_only_outer").is_none());
}

/// With tracing off, instrumentation is inert: no events, id 0 guards.
#[test]
fn disabled_tracing_records_nothing() {
    let _serialize = TRACE_LOCK.lock().unwrap();
    fw_obs::trace_reset();
    fw_obs::set_trace_enabled(false);
    {
        let s = fw_obs::trace_span("never");
        assert_eq!(s.id(), 0);
        let a = fw_obs::trace_async("never_conn", 1);
        drop(a);
        fw_obs::trace_instant("never_mark", 2);
        assert_eq!(fw_obs::current_trace_span(), 0);
    }
    let dump = fw_obs::drain_trace();
    assert!(dump.events.is_empty());
}

/// Async spans may outlive their opening scope and close from another
/// thread; the forest stays valid and the span is flagged async.
#[test]
fn async_spans_cross_threads_without_breaking_the_forest() {
    let _serialize = TRACE_LOCK.lock().unwrap();
    fw_obs::trace_reset();
    fw_obs::set_trace_enabled(true);
    {
        let root = fw_obs::trace_span("async_root");
        let conn = fw_obs::trace_async("async_conn", 443);
        let _ = root.id();
        std::thread::spawn(move || drop(conn)).join().unwrap();
    }
    fw_obs::set_trace_enabled(false);
    let dump = fw_obs::drain_trace();
    let forest = fw_obs::validate_forest(&dump).expect("well-formed");
    let conn = forest
        .nodes
        .iter()
        .find(|n| dump.name(n.name_id) == "async_conn")
        .expect("conn span present");
    assert!(conn.is_async);
    assert!(!conn.unclosed);
}
