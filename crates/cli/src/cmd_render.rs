//! `jedule render` — the batch command-line mode (paper, §II-D2).

use crate::args::{load_prepared_sidecar, load_schedule_threads, Args};
use crate::obs_cli::ObsSink;
use jedule_core::{obs, AlignMode, PreparedSchedule};
use jedule_render::{render_prepared, LodMode, OutputFormat, RenderOptions};
use std::path::PathBuf;

pub fn run(argv: &[String]) -> Result<(), String> {
    let mut args = Args::new(argv);
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut opts = RenderOptions::default();
    let mut gray = false;
    let mut cmap_path: Option<String> = None;
    let mut only_types: Vec<String> = Vec::new();
    let mut pack_sidecar = false;
    let mut sink = ObsSink::default();

    while let Some(a) = args.next() {
        match a {
            "-o" | "--output" => output = Some(args.value(a)?.to_string()),
            "-f" | "--format" => {
                let name = args.value(a)?;
                opts.format =
                    OutputFormat::parse(name).ok_or_else(|| format!("unknown format {name:?}"))?;
            }
            "-W" | "--width" => opts.width = args.parse(a)?,
            "-H" | "--height" => opts.height = Some(args.parse(a)?),
            "-c" | "--cmap" => cmap_path = Some(args.value(a)?.to_string()),
            "--gray" => gray = true,
            "--scaled" => opts.align = AlignMode::Scaled,
            "--aligned" => opts.align = AlignMode::Aligned,
            "--cluster" => opts.cluster = Some(args.parse(a)?),
            "--window" => {
                let t0: f64 = args.parse(a)?;
                let t1: f64 = args.parse(a)?;
                opts.time_window = Some((t0, t1));
            }
            "--title" => opts.title = Some(args.value(a)?.to_string()),
            "--no-meta" => opts.show_meta = false,
            "--no-labels" => opts.show_labels = false,
            "--no-composites" => opts.show_composites = false,
            "--util-profile" => opts.show_profile = true,
            "--only-type" => only_types.push(args.value(a)?.to_string()),
            "--pack-sidecar" => pack_sidecar = true,
            "--lod" => {
                let name = args.value(a)?;
                opts.lod = LodMode::parse(name)
                    .ok_or_else(|| format!("unknown LOD mode {name:?} (auto, off, force)"))?;
            }
            "-j" | "--threads" => opts.threads = args.parse(a)?,
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

    opts.validate()?;

    let input = input.ok_or("render needs an input schedule file")?;
    let _obs = sink.arm();

    // The `-j` knob drives ingest (chunked parallel parse for the
    // line-oriented formats) as well as the raster/encode stages. With
    // `--pack-sidecar` the ingest span covers the sidecar load (or the
    // parse + sidecar write on a miss) instead of the text parse.
    let prepared = {
        let _s = obs::span("ingest");
        let prepared = if pack_sidecar {
            load_prepared_sidecar(&input, opts.threads)?
        } else {
            PreparedSchedule::new(load_schedule_threads(&input, opts.threads)?)
        };
        if only_types.is_empty() {
            prepared
        } else {
            // Type filtering rewrites the task list, so it has to
            // materialize even a packed snapshot.
            let filtered = jedule_core::transform::filter_types(prepared.schedule(), |k| {
                only_types.iter().any(|t| t == k)
            });
            PreparedSchedule::new(filtered)
        }
    };

    if let Some(p) = cmap_path {
        let src = std::fs::read_to_string(&p).map_err(|e| format!("cannot read {p}: {e}"))?;
        opts.colormap = jedule_xmlio::read_colormap(&src).map_err(|e| format!("{p}: {e}"))?;
    }
    if gray {
        opts.colormap = opts.colormap.to_grayscale();
    }

    // The bundle's lazily built caches carry the `prepare.*` spans, so a
    // profiled batch render shows every pipeline stage.
    let bytes = render_prepared(&prepared, &opts);
    sink.finish()?;
    match output {
        Some(path) => {
            std::fs::write(&path, bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None if opts.format == OutputFormat::Ascii => {
            print!("{}", String::from_utf8_lossy(&bytes));
        }
        None => {
            let mut path = PathBuf::from(&input);
            path.set_extension(opts.format.extension());
            let path = path.to_string_lossy().into_owned();
            std::fs::write(&path, bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
    }
    Ok(())
}
