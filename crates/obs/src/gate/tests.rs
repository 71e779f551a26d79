use super::*;

/// A pipeline-shaped report at `scale` with a scale-0.1 history entry
/// and a history entry matching the top level.
fn report(scale: f64, gen: f64, ingest: f64, total: f64) -> Json {
    Json::parse(&format!(
        r#"{{
          "config": {{"scale": {scale}, "seed": 42}},
          "stages": {{
            "generate": {{"ms": {gen}, "peak_rss_kb": 1000}},
            "ingest": {{"ms": {ingest}, "peak_rss_kb": 2000}}
          }},
          "metrics": {{}},
          "total_ms": {total},
          "history": [
            {{"unix_ms": 1, "config": {{"scale": 0.1, "seed": 42}}, "total_ms": 100.0,
              "stages": {{"generate": {{"ms": 40.0, "peak_rss_kb": null}}, "ingest": {{"ms": 60.0, "peak_rss_kb": null}}}},
              "metrics": {{}}, "rows": 10, "peak_rss_kb": 500}},
            {{"unix_ms": 2, "config": {{"scale": {scale}, "seed": 42}}, "total_ms": {total},
              "stages": {{"generate": {{"ms": {gen}, "peak_rss_kb": null}}, "ingest": {{"ms": {ingest}, "peak_rss_kb": null}}}},
              "metrics": {{}}, "rows": 10, "peak_rss_kb": 500}}
          ]
        }}"#
    ))
    .unwrap()
}

fn find<'a>(r: &'a RegressReport, name: &str) -> &'a Row {
    r.rows.iter().find(|row| row.name == name).unwrap()
}

#[test]
fn within_tolerance_passes() {
    let base = report(1.0, 1000.0, 2000.0, 3000.0);
    let cur = report(1.0, 1100.0, 2100.0, 3200.0);
    let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
    assert!(
        !r.regressed(),
        "{}",
        r.render_text(&RegressConfig::default())
    );
    assert_eq!(r.baseline_from, "top-level run");
    assert_eq!(r.rows.len(), 3); // generate, ingest, total
}

#[test]
fn big_stage_slowdown_fails() {
    let base = report(1.0, 1000.0, 2000.0, 3000.0);
    let cur = report(1.0, 1400.0, 2000.0, 3400.0);
    let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
    assert!(find(&r, "generate").regressed);
    assert!(r.regressed());
    assert!(r.render_text(&RegressConfig::default()).contains("FAIL"));
}

#[test]
fn tiny_stage_jitter_is_absorbed_by_abs_slack() {
    // 3 ms -> 5 ms is +66% but only 2 ms; the slack floor absorbs it.
    let base = report(1.0, 3.0, 2000.0, 2003.0);
    let cur = report(1.0, 5.0, 2000.0, 2005.0);
    let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
    assert!(!r.regressed());
}

#[test]
fn baseline_found_in_history_when_scales_differ() {
    // Baseline top level is scale 1.0; candidate runs at 0.1 and
    // must match the 0.1 history entry instead.
    let base = report(1.0, 1000.0, 2000.0, 3000.0);
    let cur = report(0.1, 42.0, 61.0, 103.0);
    let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
    assert_eq!(r.baseline_from, "history entry 0");
    assert_eq!(find(&r, "generate").baseline, 40.0);
    assert!(!r.regressed());
}

#[test]
fn missing_scale_is_a_clean_error() {
    let base = report(1.0, 1000.0, 2000.0, 3000.0);
    let cur = report(0.5, 500.0, 1000.0, 1500.0);
    let err = compare(&base, &cur, &RegressConfig::default()).unwrap_err();
    assert!(err.contains("no run at scale 0.5"), "{err}");
}

#[test]
fn new_stages_absent_from_baseline_are_informational() {
    let base = report(1.0, 1000.0, 2000.0, 3000.0);
    let cur = Json::parse(
        r#"{
          "config": {"scale": 1.0, "seed": 42},
          "stages": {
            "generate": {"ms": 1000.0, "peak_rss_kb": 1},
            "ingest": {"ms": 2000.0, "peak_rss_kb": 1},
            "brand_new": {"ms": 9999.0, "peak_rss_kb": 1}
          },
          "metrics": {},
          "total_ms": 3000.0
        }"#,
    )
    .unwrap();
    let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
    // The new stage shows up, marked informational, and cannot fail
    // the gate no matter how slow it is.
    let row = find(&r, "brand_new");
    assert!(row.informational);
    assert!(!row.regressed);
    assert!(row.baseline.is_nan());
    assert_eq!(row.current, 9999.0);
    assert!(!r.regressed());
    let text = r.render_text(&RegressConfig::default());
    assert!(text.contains("new (info)"), "{text}");
    assert!(text.contains("PASS"), "{text}");
}

#[test]
fn stage_missing_from_candidate_fails_the_gate() {
    // The baseline has generate + ingest; the candidate lost ingest
    // (dropped instrumentation). That must fail, not pass silently.
    let base = report(1.0, 1000.0, 2000.0, 3000.0);
    let cur = Json::parse(
        r#"{
          "config": {"scale": 1.0, "seed": 42},
          "stages": {"generate": {"ms": 1000.0, "peak_rss_kb": 1}},
          "metrics": {},
          "total_ms": 3000.0
        }"#,
    )
    .unwrap();
    let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
    let row = find(&r, "ingest");
    assert!(row.regressed);
    assert!(!row.informational);
    assert_eq!(row.baseline, 2000.0);
    assert!(row.current.is_nan());
    assert!(r.regressed());
    let text = r.render_text(&RegressConfig::default());
    assert!(text.contains("MISSING"), "{text}");
    assert!(text.contains("FAIL"), "{text}");
}

fn serve_report(serve_ms: f64, qps: f64, hit_rate: f64) -> Json {
    Json::parse(&format!(
        r#"{{
          "config": {{"scale": 1.0, "seed": 42}},
          "stages": {{"serve": {{"ms": {serve_ms}, "peak_rss_kb": 1000}}}},
          "metrics": {{
            "qps": {{"value": {qps}, "unit": "1/s", "better": "higher"}},
            "hit_rate": {{"value": {hit_rate}, "unit": "ratio", "better": "higher"}}
          }},
          "total_ms": 5000.0
        }}"#
    ))
    .unwrap()
}

#[test]
fn throughput_drop_beyond_tolerance_fails() {
    let base = serve_report(4000.0, 100_000.0, 0.70);
    let cur = serve_report(4000.0, 70_000.0, 0.70);
    let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
    let qps = find(&r, "qps");
    assert_eq!(qps.better, Better::Higher);
    assert!(qps.regressed, "qps 100k -> 70k must regress at +25% tol");
    assert!(r.regressed());
}

#[test]
fn throughput_gain_and_jitter_pass() {
    let base = serve_report(4000.0, 100_000.0, 0.70);
    // Faster and slightly-lucky hit rate: both fine.
    let cur = serve_report(4000.0, 140_000.0, 0.72);
    let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
    assert!(
        !r.regressed(),
        "{}",
        r.render_text(&RegressConfig::default())
    );
    // A within-tolerance dip is fine too.
    let cur = serve_report(4000.0, 90_000.0, 0.69);
    let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
    assert!(
        !r.regressed(),
        "{}",
        r.render_text(&RegressConfig::default())
    );
}

#[test]
fn rate_metrics_ignore_the_ms_slack_floor() {
    // hit_rate 0.70 -> 0.30 is a tiny absolute delta — far under
    // abs_slack_ms — but must still fail: slack floors are for wall
    // time, not ratios.
    let base = serve_report(4000.0, 100_000.0, 0.70);
    let cur = serve_report(4000.0, 100_000.0, 0.30);
    let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
    assert!(find(&r, "hit_rate").regressed);
    assert!(r.regressed());
}

#[test]
fn slower_wall_stages_still_fail_in_the_same_report() {
    // Mixing directions: qps fine, but the serve wall stage blew up.
    let base = serve_report(4000.0, 100_000.0, 0.70);
    let cur = serve_report(9000.0, 100_000.0, 0.70);
    let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
    assert!(find(&r, "serve").regressed);
    assert!(!find(&r, "qps").regressed);
}

#[test]
fn all_informational_is_a_clean_error() {
    let base = report(1.0, 1000.0, 2000.0, 3000.0);
    let cur = Json::parse(
        r#"{
          "config": {"scale": 1.0, "seed": 42},
          "stages": {"brand_new": {"ms": 9.0, "peak_rss_kb": 1}},
          "metrics": {},
          "total_ms": 9.0
        }"#,
    )
    .unwrap();
    let err = compare(&base, &cur, &RegressConfig::default()).unwrap_err();
    assert!(err.contains("no stage names in common"), "{err}");
}

#[test]
fn direction_comes_from_the_report_not_the_name() {
    // A metric named `qps` but marked lower-is-better: doubling it
    // regresses (past both the tolerance and the slack floor), and
    // halving it does not.
    let doc = |qps: f64| {
        Json::parse(&format!(
            r#"{{
              "config": {{"scale": 1.0}},
              "stages": {{}},
              "metrics": {{"qps": {{"value": {qps}, "unit": "1/s", "better": "lower"}}}},
              "total_ms": 10.0
            }}"#
        ))
        .unwrap()
    };
    let config = RegressConfig::default();
    let r = compare(&doc(1000.0), &doc(2000.0), &config).unwrap();
    let qps = find(&r, "qps");
    assert_eq!(qps.better, Better::Lower);
    assert!(qps.regressed, "{}", r.render_text(&config));
    let r = compare(&doc(1000.0), &doc(500.0), &config).unwrap();
    assert!(!r.regressed(), "{}", r.render_text(&config));
}

// ---- writer → reader ----

fn temp_report(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fw-obs-gate-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_test.json");
    let _ = std::fs::remove_file(&path);
    path
}

fn stage(name: &str, ms: f64, kb: Option<u64>) -> Stage {
    Stage {
        name: name.to_string(),
        ms,
        peak_rss_kb: kb,
    }
}

fn metric(name: &str, value: f64, unit: &str, better: Better) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
        better,
    }
}

fn report_at(path: &Path, seed: u64, stages: Vec<Stage>, metrics: Vec<Metric>) -> Report {
    Report {
        path: path.to_path_buf(),
        unix_ms: 1_700_000_000_000 + seed,
        run: Run {
            config: Json::parse(&format!(r#"{{"scale": 0.1, "seed": {seed}}}"#)).unwrap(),
            stages,
            metrics,
            total_ms: 1234.5,
        },
        details: vec![
            (
                "digest".to_string(),
                Json::Str("a2aafc4b6fe57725".into()),
                false,
            ),
            ("rows".to_string(), Json::Num(342_511.0), true),
        ],
        peak_rss_kb: Some(90_720),
    }
}

#[test]
fn each_gates_stages_and_metrics_round_trip() {
    let lower = Better::Lower;
    let higher = Better::Higher;
    let gates = [
        (
            vec![
                stage("generate_ingest", 271.568, Some(80_964)),
                stage("seal_analyze", 888.35, Some(90_720)),
            ],
            vec![],
        ),
        (
            vec![
                stage("generate", 253.287, Some(55_436)),
                stage("prepare", 439.235, Some(139_888)),
                stage("stream", 3477.401, Some(197_316)),
                stage("verify", 1357.743, Some(197_328)),
            ],
            vec![
                metric("detect_p50", 172_800_000.0, "virtual_ms", lower),
                metric("detect_p99", 3_369_600_000.0, "virtual_ms", lower),
            ],
        ),
        (
            vec![
                stage("generate", 399.836, Some(55_496)),
                stage("build", 1731.935, Some(150_276)),
                stage("serve", 48798.036, Some(177_748)),
                stage("sweep", 211611.847, None),
            ],
            vec![
                metric("p50_us", 16.0, "us", lower),
                metric("p99_us", 66.0, "us", lower),
                metric("qps", 41005.0, "1/s", higher),
                metric("scale_eff", 1.1197, "ratio", higher),
                metric("hit_rate", 0.7409, "ratio", higher),
            ],
        ),
    ];
    for (i, (stages, metrics)) in gates.into_iter().enumerate() {
        let path = temp_report(&format!("roundtrip{i}"));
        let report = report_at(&path, 42, stages, metrics);
        report.write().unwrap();
        let doc = read_report(&path).unwrap();
        assert_eq!(Run::read(&doc).as_ref(), Some(&report.run));
        let history = doc.get("history").and_then(Json::as_arr).unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(Run::read(&history[0]).as_ref(), Some(&report.run));
        // Details land at the top level; only summary keys repeat in
        // the history entry.
        assert_eq!(
            doc.get("digest").and_then(Json::as_str),
            Some("a2aafc4b6fe57725")
        );
        assert!(history[0].get("digest").is_none());
        assert_eq!(history[0].get("rows").and_then(Json::as_u64), Some(342_511));
        // CI greps top-level keys as `"key": value`.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"digest\": \"a2aafc4b6fe57725\""), "{text}");
        assert!(text.contains("\"stages\": {"), "{text}");
        // A report compares clean against itself, row for row.
        let config = RegressConfig::default();
        let r = compare(&doc, &doc, &config).unwrap();
        assert_eq!(
            r.rows.len(),
            report.run.stages.len() + report.run.metrics.len() + 1
        );
        assert!(!r.regressed(), "{}", r.render_text(&config));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}

#[test]
fn history_keeps_the_newest_fifty() {
    let path = temp_report("cap");
    for seed in 0..HISTORY_CAP as u64 + 5 {
        report_at(&path, seed, vec![stage("generate", 1.0, None)], vec![])
            .write()
            .unwrap();
    }
    let doc = read_report(&path).unwrap();
    let history = doc.get("history").and_then(Json::as_arr).unwrap();
    assert_eq!(history.len(), HISTORY_CAP);
    let seeds: Vec<u64> = history
        .iter()
        .map(|e| {
            e.get("config")
                .and_then(|c| c.get("seed"))
                .and_then(Json::as_u64)
                .unwrap()
        })
        .collect();
    let expected: Vec<u64> = (5..HISTORY_CAP as u64 + 5).collect();
    assert_eq!(seeds, expected, "oldest dropped first, newest last");
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn corrupt_report_starts_a_fresh_history_with_a_warning() {
    let path = temp_report("corrupt");
    std::fs::write(&path, "{\"history\": [truncated").unwrap();
    let (history, warning) = prior_history(&path);
    assert!(history.is_empty());
    let warning = warning.expect("corrupt report warns");
    assert!(warning.contains("starting a fresh history"), "{warning}");

    report_at(&path, 7, vec![stage("generate", 1.0, None)], vec![])
        .write()
        .unwrap();
    let doc = read_report(&path).unwrap();
    assert_eq!(doc.get("history").and_then(Json::as_arr).unwrap().len(), 1);
    // A missing report is a fresh start without a warning.
    std::fs::remove_file(&path).unwrap();
    assert_eq!(prior_history(&path), (Vec::new(), None));
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}
