//! Schedule ingest by file type — the one dispatcher behind the CLI
//! commands and the render service.
//!
//! `.swf` workload traces are converted through the bird's-eye pipeline
//! (cluster geometry from the trace header), everything else goes
//! through `parse_any`'s format sniffing. The service parses with
//! `threads = 1`: its concurrency comes from parallel requests, and a
//! deterministic single-threaded parse keeps per-request span trees
//! comparable across requests.

use jedule_core::{obs, Schedule};
use std::path::Path;

/// Parses already-read input text into a schedule. `path` only steers
/// format detection (extension hints) and prefixes errors; the text is
/// the source of truth, so the caller can digest it first. `threads`
/// is the workspace knob (`0` auto, `1` sequential, `n` workers) for
/// the line-oriented formats' chunked parallel ingest.
pub fn parse_schedule(src: &str, path: &Path, threads: usize) -> Result<Schedule, String> {
    let parsed = if path
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("swf"))
    {
        swf_to_schedule(src, threads)
    } else {
        jedule_xmlio::parse_any_parallel(src, Some(path), threads).map_err(|e| e.to_string())
    };
    parsed.map_err(|e| format!("{}: {e}", path.display()))
}

/// Converts an SWF workload trace into a renderable schedule. Node
/// count comes from the `MaxNodes`/`MaxProcs` header, falling back to
/// the widest job in the trace.
fn swf_to_schedule(src: &str, threads: usize) -> Result<Schedule, String> {
    let (header, jobs) =
        jedule_workloads::parse_swf_parallel(src, threads).map_err(|e| e.to_string())?;
    let total_nodes = header
        .max_nodes
        .or(header.max_procs)
        .unwrap_or_else(|| jobs.iter().map(|j| j.procs).max().unwrap_or(1));
    let opts = jedule_workloads::ConvertOptions {
        cluster_name: header.computer.unwrap_or_else(|| "swf".to_string()),
        total_nodes: total_nodes.max(1),
        reserved: 0,
        highlight_user: None,
        task_attrs: false,
    };
    // Node assignment + task building dominate SWF ingest; give them
    // their own span so `--timings` attributes the time.
    let _s = obs::span("ingest.convert");
    Ok(jedule_workloads::jobs_to_schedule(&jobs, &opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jedule_core::{Allocation, ScheduleBuilder, Task};

    #[test]
    fn parses_csv_by_content() {
        let s = ScheduleBuilder::new()
            .cluster(0, "c", 4)
            .task(Task::new("t", "computation", 0.0, 1.0).on(Allocation::contiguous(0, 0, 2)))
            .build()
            .unwrap();
        let csv = jedule_xmlio::write_schedule_csv(&s);
        let parsed = parse_schedule(&csv, Path::new("x.csv"), 1).unwrap();
        assert_eq!(parsed.tasks.len(), 1);
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        assert!(parse_schedule("not a schedule at all", Path::new("x.jed"), 1).is_err());
    }
}
