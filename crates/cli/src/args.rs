//! A tiny flag parser shared by the subcommands, plus the input
//! loading and digesting they share.

use jedule_core::{obs, snap};
use jedule_serve::ingest::parse_schedule;
use std::path::Path;

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
/// `threads` knob (see [`parse_schedule`]).
pub fn load_schedule_threads(path: &str, threads: usize) -> Result<jedule_core::Schedule, String> {
    parse_schedule(&read_source(path)?, Path::new(path), threads)
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
/// With `threads` above 1 the input streams through its digest while
/// the sidecar loads on the other workers; freshness is decided after
/// both, so a stale sidecar is ignored silently even when it is corrupt
/// too ([`snap::load_if_fresh_with`]). A rewritten sidecar stores the
/// digest of the very text it was parsed from, so an input edited
/// between the probe and the parse cannot leave a pack that claims the
/// wrong source.
pub fn load_prepared_sidecar(
    path: &str,
    threads: usize,
) -> Result<jedule_core::PreparedSchedule<'static>, String> {
    let sidecar = snap::sidecar_path(Path::new(path));
    if sidecar.exists() {
        match snap::load_if_fresh_with(&sidecar, || digest_file(path), threads)? {
            Ok(Some(packed)) => return Ok(jedule_core::PreparedSchedule::from_pack(packed)),
            Ok(None) => {} // stale: fall back to the text silently
            Err(e) => eprintln!("jedule: ignoring sidecar {}: {e}", sidecar.display()),
        }
    }
    let src = read_source(path)?;
    let digest = digest_source(&src);
    let prep = jedule_core::PreparedSchedule::new(parse_schedule(&src, Path::new(path), threads)?);
    if let Err(e) = snap::write_pack_file(&prep, digest, &sidecar) {
        eprintln!("jedule: cannot write sidecar {}: {e}", sidecar.display());
    }
    Ok(prep)
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
