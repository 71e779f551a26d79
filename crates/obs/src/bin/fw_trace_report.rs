//! Render a captured trace dump into its three consumer artifacts.
//!
//! ```text
//! fw_trace_report <run.trace.jsonl>
//! ```
//!
//! Writes `run.chrome.json` (Perfetto / chrome://tracing), `run.folded`
//! (flamegraph collapsed stacks) and `run.critpath.{txt,json}` next to
//! the input, and prints the critical-path table to stdout. The gates
//! write the same artifacts in-process under `--trace`; this tool
//! re-renders a saved dump.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let path = match args.next() {
        Some(p) if !p.starts_with('-') => std::path::PathBuf::from(p),
        _ => {
            eprintln!("usage: fw_trace_report <trace.jsonl>");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fw_trace_report: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let dump = match fw_obs::TraceDump::from_jsonl(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("fw_trace_report: malformed trace {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if dump.dropped > 0 {
        eprintln!(
            "fw_trace_report: warning: {} events dropped at capture (raise FW_TRACE_MAX)",
            dump.dropped
        );
    }
    match fw_obs::write_trace_reports(&dump, &path) {
        Ok(paths) => {
            println!(
                "trace: {} events on {} threads",
                dump.events.len(),
                dump.threads.len()
            );
            println!("chrome trace : {}", paths.chrome.display());
            println!("flamegraph   : {}", paths.folded.display());
            println!("critical path: {}", paths.critpath_txt.display());
            if let Some(crit) = &paths.crit {
                print!("{}", crit.render_text());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fw_trace_report: write failed: {e}");
            ExitCode::FAILURE
        }
    }
}
