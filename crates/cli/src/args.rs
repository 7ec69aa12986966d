//! A tiny flag parser shared by the subcommands, plus the input
//! loading and digesting they share.

use jedule_core::{obs, snap};

/// Iterates over raw arguments, separating flags from positionals.
pub struct Args<'a> {
    argv: &'a [String],
    i: usize,
}

impl<'a> Args<'a> {
    pub fn new(argv: &'a [String]) -> Self {
        Args { argv, i: 0 }
    }

    /// Next raw argument, if any.
    pub fn next(&mut self) -> Option<&'a str> {
        let a = self.argv.get(self.i)?;
        self.i += 1;
        Some(a)
    }

    /// The value following a flag.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The value following a flag, parsed.
    pub fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
    }
}

/// Loads a schedule with format auto-detection (sequential ingest).
pub fn load_schedule(path: &str) -> Result<jedule_core::Schedule, String> {
    load_schedule_threads(path, 1)
}

/// Loads a schedule with format auto-detection and the workspace
/// `threads` knob (`0` auto, `1` sequential, `n` workers) for the
/// line-oriented formats' chunked parallel ingest. `.swf` workload
/// traces are converted through the bird's-eye pipeline with cluster
/// geometry taken from the trace header.
pub fn load_schedule_threads(path: &str, threads: usize) -> Result<jedule_core::Schedule, String> {
    parse_schedule_src(path, &read_source(path)?, threads)
}

/// Reads a schedule input's text.
pub fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The source digest of `path`'s bytes, streamed through a fixed buffer
/// so a fresh sidecar never costs a copy of the input.
pub fn digest_file(path: &str) -> Result<u64, String> {
    let _s = obs::span("ingest.digest");
    std::fs::File::open(path)
        .and_then(snap::source_digest_reader)
        .map_err(|e| format!("cannot read {path}: {e}"))
}

/// The source digest of already-read input text.
pub fn digest_source(src: &str) -> u64 {
    let _s = obs::span("ingest.digest");
    snap::source_digest(src.as_bytes())
}

/// Parses already-read source text with the same format auto-detection
/// as [`load_schedule_threads`] — shared with the paths that digest the
/// text they parse (`pack`, a sidecar miss).
pub fn parse_schedule_src(
    path: &str,
    src: &str,
    threads: usize,
) -> Result<jedule_core::Schedule, String> {
    let p = std::path::Path::new(path);
    if p.extension().is_some_and(|e| e.eq_ignore_ascii_case("swf")) {
        return swf_to_schedule(src, threads).map_err(|e| format!("{path}: {e}"));
    }
    jedule_xmlio::parse_any_parallel(src, Some(p), threads).map_err(|e| format!("{path}: {e}"))
}

/// Loads a schedule as a [`PreparedSchedule`](jedule_core::PreparedSchedule),
/// preferring a fresh `<input>.jpack` sidecar over re-parsing the text (the
/// `--pack-sidecar` mode of `render` / `view` / `compare`):
///
/// * a sidecar whose stored digest matches the input's bytes is mapped
///   and served directly — the input is only streamed through the
///   digest, never held in memory or parsed, and (unless the caller
///   materializes) no `Schedule` is ever built;
/// * a **stale** sidecar (digest mismatch after the input changed, or
///   another format version) is silently ignored and rewritten after
///   the text parse;
/// * a **corrupt** sidecar is reported to stderr, ignored, and
///   rewritten — it never fails the command.
///
/// A rewritten sidecar stores the digest of the very text it was parsed
/// from, so an input edited between the probe and the parse cannot leave
/// a pack that claims the wrong source.
pub fn load_prepared_sidecar(
    path: &str,
    threads: usize,
) -> Result<jedule_core::PreparedSchedule<'static>, String> {
    let sidecar = snap::sidecar_path(std::path::Path::new(path));
    if sidecar.exists() {
        match snap::load_if_fresh(&sidecar, digest_file(path)?) {
            Ok(Some(packed)) => return Ok(jedule_core::PreparedSchedule::from_pack(packed)),
            Ok(None) => {} // stale: fall back to the text silently
            Err(e) => eprintln!("jedule: ignoring sidecar {}: {e}", sidecar.display()),
        }
    }
    let src = read_source(path)?;
    let digest = digest_source(&src);
    let prep = jedule_core::PreparedSchedule::new(parse_schedule_src(path, &src, threads)?);
    if let Err(e) = snap::write_pack_file(&prep, digest, &sidecar) {
        eprintln!("jedule: cannot write sidecar {}: {e}", sidecar.display());
    }
    Ok(prep)
}

/// Converts an SWF workload trace into a renderable schedule. Node
/// count comes from the `MaxNodes`/`MaxProcs` header, falling back to
/// the widest job in the trace.
fn swf_to_schedule(src: &str, threads: usize) -> Result<jedule_core::Schedule, String> {
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

    #[test]
    fn walks_arguments() {
        let argv = vec!["a".to_string(), "-W".to_string(), "640".to_string()];
        let mut args = Args::new(&argv);
        assert_eq!(args.next(), Some("a"));
        assert_eq!(args.next(), Some("-W"));
        let w: f64 = args.parse("-W").unwrap();
        assert_eq!(w, 640.0);
        assert!(args.next().is_none());
    }

    #[test]
    fn missing_value_errors() {
        let argv = vec!["-W".to_string()];
        let mut args = Args::new(&argv);
        args.next();
        assert!(args.parse::<f64>("-W").is_err());
    }

    #[test]
    fn bad_value_errors() {
        let argv = vec!["abc".to_string()];
        let mut args = Args::new(&argv);
        let r: Result<f64, _> = args.parse("-W");
        assert!(r.is_err());
    }
}
