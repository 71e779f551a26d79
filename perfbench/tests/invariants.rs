//! The benchmark's own tests: outputs must not depend on worker count,
//! traced splits must add back up to the traced end-to-end time, and
//! `BENCHMARK.json` must name exactly what the benchmark reports.
//!
//! Sizes here are far below the benchmark's so the suite stays quick.

use faaswild_perfbench::common::{RunConfig, END_TO_END, PER_LAYER};
use faaswild_perfbench::{batch, measure, result_json, serve, stream, WORKLOADS};
use fw_types::Json;

/// A pool size above one, so the parallel paths run even on one core.
fn many() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .max(2)
}

fn traced(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.05,
        trace: true,
        workers: many(),
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

fn work_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn batch_digests_match_the_reference_at_one_and_many_workers() {
    let (want, _) = batch::reference(7, 0.01, 1);
    for workers in [1, many()] {
        let dir = work_dir(&format!("batch{workers}"));
        let got = batch::fused(7, 0.01, workers, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            got.expect("fused run").0,
            want,
            "fused at {workers} workers"
        );
        assert_eq!(
            batch::reference(7, 0.01, workers).0,
            want,
            "reference at {workers} workers"
        );
    }
}

#[test]
fn serve_digest_matches_the_scalar_path_at_one_and_many_workers() {
    let p = serve::ServeParams {
        world_scale: 0.01,
        clients: 2_000,
    };
    let (inputs, _, _) = serve::setup_once(7, &p, 1);
    let want = serve::reference_digest(&inputs, 7, &p, 1);
    for workers in [1, many()] {
        let report = serve::serve_run(&inputs, 7, &p, workers);
        assert_eq!(report.digest, want, "fast path at {workers} workers");
        assert_eq!(report.status_other, 0);
    }
}

#[test]
fn measure_digest_is_the_same_at_one_and_many_workers() {
    let one = measure::measure_run(&measure::live_world(7, 0.002, 1), 1);
    let n = many();
    let parallel = measure::measure_run(&measure::live_world(7, 0.002, n), n);
    assert!(one.probed > 0);
    assert_eq!(parallel, one, "measure at {n} workers");
}

#[test]
fn stream_replay_matches_the_direct_feed() {
    let (inputs, _, _) = stream::setup_once(7, 0.01, 1);
    let direct = stream::direct_feed(&inputs, 1);
    for workers in [1, many()] {
        let (fin, _) = stream::stream_run(&inputs, 7, workers);
        assert_eq!(
            fin.detections, direct.detections,
            "replay at {workers} workers"
        );
        fw_stream::check_equivalence(&fin, &inputs.world.pdns, workers).expect("equivalence");
    }
    assert!(stream::wire_roundtrip(&inputs).expect("round trip") > 0.0);
}

#[test]
fn batch_layers_and_remainder_add_up_to_the_traced_time() {
    let out = batch::run(&traced(3), 0.01).expect("traced batch run");
    let m = |k: &str| out.metrics[k];
    let parts = [
        "workload.generate_ingest_ms",
        "store.seal_ms",
        "store.scan_ms",
        "core.classify_ms",
        "core.identify_ms",
        "core.usage_ms",
        "batch.remainder_ms",
    ];
    let sum: f64 = parts.iter().map(|k| m(k)).sum();
    assert!(
        close(sum, m("batch.traced_ms")),
        "{sum} vs {}",
        m("batch.traced_ms")
    );
    assert!(m("core.classify_calls") > 0.0);
    assert!(m("store.bytes_per_row") > 0.0);
}

#[test]
fn measure_layers_and_remainder_add_up_to_the_traced_time() {
    let out = measure::run(&traced(3), 0.002).expect("traced measure run");
    let m = |k: &str| out.metrics[k];
    let parts = [
        "core.identify_ms",
        "core.usage_ms",
        "probe.sweep_ms",
        "core.status_ms",
        "abuse.scan_ms",
        "abuse.c2_ms",
        "measure.remainder_ms",
    ];
    let sum: f64 = parts.iter().map(|k| m(k)).sum();
    assert!(
        close(sum, m("measure.traced_ms")),
        "{sum} vs {}",
        m("measure.traced_ms")
    );
    assert!(m("probe.requests") > 0.0);
    assert!(m("abuse.c2_candidates") > 0.0);
}

#[test]
fn serve_inline_and_transport_add_up_to_the_request_time() {
    let p = serve::ServeParams {
        world_scale: 0.01,
        clients: 2_000,
    };
    let out = serve::run(&traced(3), &p).expect("traced serve run");
    let m = |k: &str| out.metrics[k];
    let sum = m("serve.inline_ns") + m("serve.transport_ns");
    assert!(
        close(sum, m("serve.request_ns")),
        "{sum} vs {}",
        m("serve.request_ns")
    );
    assert!(m("http.parse_ns") > 0.0 && m("http.parse_ns") < m("serve.inline_ns"));
    assert!(m("net.connections") >= 2_000.0);
}

#[test]
fn stream_apply_wire_and_transport_add_up_to_the_traced_time() {
    let out = stream::run(&traced(3), 0.01).expect("traced stream run");
    let m = |k: &str| out.metrics[k];
    let sum = m("stream.apply_ms") + m("stream.wire_ms") + m("stream.transport_ms");
    assert!(
        close(sum, m("stream.traced_ms")),
        "{sum} vs {}",
        m("stream.traced_ms")
    );
    assert!(m("stream.apply_p50_us") <= m("stream.apply_p98_us"));
}

#[test]
fn integer_microsecond_percentiles_interpolate_inside_the_interval() {
    // Ten samples truncated to 20 µs: the median lies inside [20, 21).
    let v = [19u32, 20, 20, 20, 20, 20, 20, 21, 21, 22];
    let p50 = serve::percentile_us(&v, 50.0);
    assert!((20.0..21.0).contains(&p50), "{p50}");
    assert!(serve::percentile_us(&v, 100.0) >= 22.0);
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let line = result_json(true, 3, 0, &[("cpu_s", 1.25), ("ops_per_cpu_s", 10.0)]);
    let json = Json::parse(&line).expect("valid JSON");
    let keys: Vec<&str> = json
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let cpu = json
        .get("metrics")
        .and_then(|m| m.get("cpu_s"))
        .expect("cpu_s");
    assert_eq!(cpu.get("value").and_then(Json::as_f64), Some(1.25));
    assert_eq!(cpu.get("unit").and_then(Json::as_str), Some("s"));
}

#[test]
fn benchmark_json_names_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit").and_then(Json::as_str).map(str::to_string),
                )
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    let catalogue = |c: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(names("end_to_end"), catalogue(&END_TO_END));
    assert_eq!(names("per_layer"), catalogue(&PER_LAYER));
}
