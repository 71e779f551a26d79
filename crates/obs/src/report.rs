//! One-stop trace report generation, shared by the `fw_trace_report`
//! binary and by the gates' `--trace` (`crate::gate`).

use crate::critpath::{critical_path, CritReport};
use crate::forest::build_forest;
use crate::trace::TraceDump;
use std::path::{Path, PathBuf};

/// Artifacts written by [`write_trace_reports`].
#[derive(Debug)]
pub struct TraceReportPaths {
    pub chrome: PathBuf,
    pub folded: PathBuf,
    pub critpath_txt: PathBuf,
    pub critpath_json: PathBuf,
    /// The critical-path report of the longest root, if any span closed.
    pub crit: Option<CritReport>,
}

/// Derive sibling artifact paths from a trace dump path by swapping the
/// extension: `X.trace.jsonl` → `X.chrome.json`, `X.folded`,
/// `X.critpath.txt`, `X.critpath.json`.
pub fn artifact_paths(trace_path: &Path) -> (PathBuf, PathBuf, PathBuf, PathBuf) {
    let stem = trace_path
        .file_name()
        .and_then(|n| n.to_str())
        .map(|n| n.strip_suffix(".trace.jsonl").unwrap_or(n))
        .unwrap_or("trace");
    let dir = trace_path.parent().unwrap_or_else(|| Path::new("."));
    (
        dir.join(format!("{stem}.chrome.json")),
        dir.join(format!("{stem}.folded")),
        dir.join(format!("{stem}.critpath.txt")),
        dir.join(format!("{stem}.critpath.json")),
    )
}

/// Render all three consumers of a dump next to `trace_path` and return
/// where they landed. The critical path anchors on the longest root
/// span (for pipeline runs that is `gate/pipeline`).
pub fn write_trace_reports(
    dump: &TraceDump,
    trace_path: &Path,
) -> std::io::Result<TraceReportPaths> {
    let (chrome, folded, critpath_txt, critpath_json) = artifact_paths(trace_path);
    std::fs::write(&chrome, crate::chrome::to_chrome_json(dump))?;
    std::fs::write(&folded, crate::flame::to_folded_stacks(dump))?;

    let forest = build_forest(dump);
    let crit = forest
        .longest_root()
        .map(|root| critical_path(dump, &forest, root));
    match &crit {
        Some(rep) => {
            std::fs::write(&critpath_txt, rep.render_text())?;
            std::fs::write(&critpath_json, rep.render_json())?;
        }
        None => {
            std::fs::write(&critpath_txt, "no spans recorded\n")?;
            std::fs::write(&critpath_json, "{\"entries\": []}\n")?;
        }
    }
    Ok(TraceReportPaths {
        chrome,
        folded,
        critpath_txt,
        critpath_json,
        crit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::testutil::dump;

    #[test]
    fn writes_all_artifacts_next_to_the_trace() {
        let d = dump(
            &["root", "a"],
            &[
                ('B', 1, 0, 1, 0, 0),
                ('B', 2, 1, 1, 1, 10_000),
                ('E', 2, 0, 1, 1, 60_000),
                ('E', 1, 0, 1, 0, 100_000),
            ],
        );
        let dir = std::env::temp_dir().join(format!("fw-obs-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("run.trace.jsonl");
        std::fs::write(&trace_path, d.to_jsonl()).unwrap();

        let paths = write_trace_reports(&d, &trace_path).unwrap();
        assert!(paths.chrome.ends_with("run.chrome.json"));
        let chrome = std::fs::read_to_string(&paths.chrome).unwrap();
        assert!(crate::Json::parse(&chrome).is_ok());
        let folded = std::fs::read_to_string(&paths.folded).unwrap();
        assert!(folded.contains("root;a "));
        let crit = paths.crit.expect("critical path computed");
        assert_eq!(crit.attributed_ns(), crit.total_ns);
        assert!(std::fs::read_to_string(&paths.critpath_json)
            .unwrap()
            .contains("\"attributed_ns\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
