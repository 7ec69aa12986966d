//! A tiny flag parser shared by the subcommands, plus the input
//! loading they share.

use jedule_core::{snap, PreparedSchedule, Schedule};
use jedule_serve::ingest::{acquire, parse_schedule, read_source, Sidecar};
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

/// Loads a schedule with format auto-detection and the workspace
/// `threads` knob (see [`parse_schedule`]).
pub fn load_schedule(path: &str, threads: usize) -> Result<Schedule, String> {
    let path = Path::new(path);
    parse_schedule(&read_source(path)?, path, threads)
}

/// Loads the input of `render`, `view` and `compare` on `threads`
/// workers: without `pack_sidecar` a plain parse (no digest, no probe);
/// with it, [`acquire`], rewriting a sidecar that missed with the digest
/// of the text parsed. A stale sidecar is replaced silently, a corrupt one is
/// named on stderr first, and no sidecar ever fails the command.
pub fn load_prepared(
    path: &str,
    threads: usize,
    pack_sidecar: bool,
) -> Result<PreparedSchedule<'static>, String> {
    if !pack_sidecar {
        return Ok(PreparedSchedule::new(load_schedule(path, threads)?));
    }
    let (digest, prepared, outcome) = acquire(Path::new(path), threads, None)?;
    let sidecar = snap::sidecar_path(Path::new(path));
    match outcome {
        Sidecar::Hit => return Ok(prepared),
        Sidecar::Corrupt(e) => eprintln!("jedule: ignoring sidecar {}: {e}", sidecar.display()),
        Sidecar::Stale | Sidecar::Absent => {}
    }
    if let Err(e) = snap::write_pack_file(&prepared, digest, &sidecar, threads) {
        eprintln!("jedule: cannot write sidecar {}: {e}", sidecar.display());
    }
    Ok(prepared)
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
