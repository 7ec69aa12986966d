//! Schedule ingest by file type, and [`acquire`]'s one choice between
//! an input's `.jpack` sidecar and its text — behind the CLI commands
//! and the render service.
//!
//! `.swf` workload traces are converted through the bird's-eye pipeline
//! (cluster geometry from the trace header), everything else goes
//! through `parse_any`'s format sniffing. The service ingests with
//! `threads = 1`: its concurrency comes from parallel requests, and a
//! deterministic single-threaded parse keeps per-request span trees
//! comparable across requests.

use jedule_core::snap::{self, PackError};
use jedule_core::{obs, PreparedSchedule, Schedule};
use std::path::Path;

/// What [`acquire`] found in the input's `.jpack` sidecar.
#[derive(Debug)]
pub enum Sidecar {
    /// Fresh: the pack was loaded and the text never read.
    Hit,
    /// Another format version, or built from other text.
    Stale,
    Corrupt(PackError),
    Absent,
}

/// Why [`acquire`] failed: the service answers a failed read (or text
/// that is not UTF-8) with 404 and a failed parse with 400.
#[derive(Debug)]
pub enum AcquireError {
    Read(String),
    Parse(String),
}

impl From<AcquireError> for String {
    fn from(e: AcquireError) -> String {
        let (AcquireError::Read(m) | AcquireError::Parse(m)) = e;
        m
    }
}

/// Loads `path` from a fresh `.jpack` sidecar, else from its text, and
/// returns the digest of the source text the bundle describes, the
/// bundle, and the sidecar's outcome. Nothing is written.
///
/// [`snap::load_if_fresh_with`] tests the sidecar against `digest`
/// when the caller holds one, else against [`digest_file`], which
/// streams beside the pack load on `threads` above 1. Any other outcome
/// reads the text once, digests that buffer and parses it ([`load_text`]).
pub fn acquire(
    path: &Path,
    threads: usize,
    digest: Option<u64>,
) -> Result<(u64, PreparedSchedule<'static>, Sidecar), AcquireError> {
    let pack = snap::sidecar_path(path);
    let sidecar = if pack.exists() {
        let current = || digest.map_or_else(|| digest_file(path), Ok);
        match snap::load_if_fresh_with(&pack, current, threads).map_err(AcquireError::Read)? {
            Ok(Some(p)) => {
                return Ok((
                    p.source_digest,
                    PreparedSchedule::from_pack(p),
                    Sidecar::Hit,
                ))
            }
            Ok(None) => Sidecar::Stale,
            Err(e) => Sidecar::Corrupt(e),
        }
    } else {
        Sidecar::Absent
    };
    let (digest, prepared) = load_text(path, threads)?;
    Ok((digest, prepared, sidecar))
}

/// Reads `path`'s text once, digests that buffer and parses it on
/// `threads` workers, so the digest describes exactly the bytes parsed.
pub fn load_text(
    path: &Path,
    threads: usize,
) -> Result<(u64, PreparedSchedule<'static>), AcquireError> {
    let src = read_source(path).map_err(AcquireError::Read)?;
    let digest = {
        let _s = obs::span("ingest.digest");
        snap::source_digest(src.as_bytes())
    };
    let schedule = parse_schedule(&src, path, threads).map_err(AcquireError::Parse)?;
    Ok((digest, PreparedSchedule::new(schedule)))
}

/// Reads a schedule input's text.
pub fn read_source(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The source digest of `path`'s bytes, streamed through a fixed buffer
/// so a fresh sidecar never costs a copy of the input.
pub fn digest_file(path: &Path) -> Result<u64, String> {
    let _s = obs::span("ingest.digest");
    std::fs::File::open(path)
        .and_then(snap::source_digest_reader)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
}

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

    fn csv(tasks: u32) -> String {
        let mut b = ScheduleBuilder::new().cluster(0, "c", 4);
        for i in 0..tasks {
            let t = f64::from(i);
            b = b.task(
                Task::new(format!("t{i}"), "computation", t, t + 1.0)
                    .on(Allocation::contiguous(0, 0, 2)),
            );
        }
        jedule_xmlio::write_schedule_csv(&b.build().unwrap())
    }

    /// A fresh directory holding `x.csv` with `text`.
    fn input(tag: &str, text: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("jedule_acquire_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.csv");
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn parses_csv_by_content() {
        let parsed = parse_schedule(&csv(1), Path::new("x.csv"), 1).unwrap();
        assert_eq!(parsed.tasks.len(), 1);
    }

    /// Absent, fresh, stale and corrupt sidecars at one and two workers:
    /// only a fresh one is loaded, and the digest returned is always
    /// that of the bytes the bundle came from.
    #[test]
    fn acquire_prefers_only_a_fresh_sidecar() {
        let path = input("outcomes", csv(3).as_bytes());
        let pack = snap::sidecar_path(&path);
        for threads in [1, 2] {
            let _ = std::fs::remove_file(&pack);
            let (digest, text, sidecar) = acquire(&path, threads, None).unwrap();
            assert!(matches!(sidecar, Sidecar::Absent));
            assert_eq!(digest, snap::source_digest(csv(3).as_bytes()));
            assert_eq!(text.task_count(), 3);

            snap::write_pack_file(&text, digest, &pack, threads).unwrap();
            let (hit_digest, hit, sidecar) = acquire(&path, threads, None).unwrap();
            assert!(matches!(sidecar, Sidecar::Hit));
            assert_eq!(hit_digest, digest);
            assert_eq!(hit.schedule(), text.schedule());

            // A digest the caller holds decides freshness in place of
            // the file's; a miss still returns the parsed bytes' digest.
            let (held, _, sidecar) = acquire(&path, threads, Some(digest ^ 1)).unwrap();
            assert!(matches!(sidecar, Sidecar::Stale));
            assert_eq!(held, digest);

            std::fs::write(&path, csv(2)).unwrap();
            let (edited, stale, sidecar) = acquire(&path, threads, None).unwrap();
            assert!(matches!(sidecar, Sidecar::Stale));
            assert_eq!(edited, snap::source_digest(csv(2).as_bytes()));
            assert_eq!(stale.task_count(), 2);
            std::fs::write(&path, csv(3)).unwrap();

            std::fs::write(&pack, b"JEDPACK1 but not really").unwrap();
            let (_, corrupt, sidecar) = acquire(&path, threads, None).unwrap();
            assert!(matches!(sidecar, Sidecar::Corrupt(_)));
            assert_eq!(corrupt.task_count(), 3);
        }
    }

    /// A read failure and a parse failure stay apart, with or without a
    /// sidecar to probe first.
    #[test]
    fn acquire_names_read_and_parse_failures() {
        let bad = input("errors", b"\xff\xfe not utf-8");
        assert!(matches!(acquire(&bad, 1, None), Err(AcquireError::Read(_))));
        let missing = bad.with_file_name("missing.csv");
        let err = acquire(&missing, 1, None).unwrap_err();
        assert!(matches!(err, AcquireError::Read(ref m) if m.starts_with("cannot read")));
        std::fs::write(&bad, "not a schedule at all").unwrap();
        std::fs::write(snap::sidecar_path(&bad), b"garbage").unwrap();
        assert!(matches!(
            acquire(&bad, 1, None),
            Err(AcquireError::Parse(_))
        ));
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        assert!(parse_schedule("not a schedule at all", Path::new("x.jed"), 1).is_err());
    }
}
