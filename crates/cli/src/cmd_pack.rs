//! `jedule pack` — builds (or checks) a `.jpack` binary snapshot of a
//! schedule: everything `PreparedSchedule` computes, serialized into a
//! mmap-ready section file so later renders skip the parse + prepare
//! cold path entirely (DESIGN.md §5f).

use crate::args::Args;
use crate::obs_cli::ObsSink;
use jedule_core::snap::{self, Freshness};
use jedule_core::{obs, PreparedSchedule};
use jedule_serve::ingest::{digest_file, load_text};
use std::path::{Path, PathBuf};

pub fn run(argv: &[String]) -> Result<(), String> {
    let mut args = Args::new(argv);
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut check = false;
    let mut threads = 0usize;
    let mut sink = ObsSink::default();

    while let Some(a) = args.next() {
        match a {
            "-o" | "--output" => output = Some(args.value(a)?.to_string()),
            "--check" => check = true,
            "-j" | "--threads" => threads = args.parse(a)?,
            flag if sink.accept(flag, &mut args)? => {}
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            positional => {
                if input.is_some() {
                    return Err(format!("unexpected extra argument {positional:?}"));
                }
                input = Some(positional.to_string());
            }
        }
    }
    let input = input.ok_or("pack needs an input schedule file")?;
    let _obs = sink.arm();

    let out_path = output
        .map(PathBuf::from)
        .unwrap_or_else(|| snap::sidecar_path(Path::new(&input)));

    if check {
        check_pack(&input, &out_path, digest_file(Path::new(&input))?, threads)?;
        return sink.finish();
    }

    // One read: the stored digest describes exactly the bytes parsed.
    let (digest, prep) = {
        let _s = obs::span("ingest");
        load_text(Path::new(&input), threads)?
    };
    snap::write_pack_file(&prep, digest, &out_path, threads)
        .map_err(|e| format!("cannot pack {input}: {e}"))?;
    let size = std::fs::metadata(&out_path).map(|m| m.len()).unwrap_or(0);
    sink.finish()?;
    eprintln!(
        "wrote {} ({} tasks, {} bytes, source digest {digest:016x})",
        out_path.display(),
        prep.task_count(),
        size
    );
    Ok(())
}

/// `--check`: fully loads an existing pack and reports freshness
/// against the current input bytes. Missing, stale (another format
/// version, or other source text) or corrupt packs exit nonzero so CI
/// can gate on it. The load validates on `threads` workers.
fn check_pack(input: &str, pack: &Path, digest: u64, threads: usize) -> Result<(), String> {
    if !pack.exists() {
        return Err(format!(
            "{}: no pack (run `jedule pack {input}`)",
            pack.display()
        ));
    }
    let info = snap::peek(pack).map_err(|e| format!("{}: {e}", pack.display()))?;
    let freshness = info.freshness(digest);
    if freshness == Freshness::StaleVersion {
        return Err(format!(
            "{}: stale (format v{}, this build reads v{}; run `jedule pack {input}`)",
            pack.display(),
            info.version,
            snap::PACK_VERSION
        ));
    }
    let packed =
        snap::load_threads(pack, threads).map_err(|e| format!("{}: {e}", pack.display()))?;
    if freshness == Freshness::StaleSource {
        return Err(format!(
            "{}: stale (pack digest {:016x}, input digest {digest:016x})",
            pack.display(),
            info.source_digest
        ));
    }
    let prep = PreparedSchedule::from_pack(packed);
    println!(
        "{}: fresh ({} tasks, {} clusters)",
        pack.display(),
        prep.task_count(),
        prep.clusters().len()
    );
    Ok(())
}
