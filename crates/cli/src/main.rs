//! `jedule` — the command-line front end of the reproduction.
//!
//! Mirrors the original tool's two modes (paper, §II-D):
//!
//! * **command line mode** — `jedule render` produces publication
//!   graphics in batch, with the original's parameters (output format,
//!   width/height, color map, cluster time alignment);
//! * **interactive mode** — `jedule view` drives the `ViewState` model
//!   (zoom, pan, cluster selection, task inspection, reread) over an
//!   ANSI terminal rendering instead of a Swing window.
//!
//! Plus quality-of-life commands: `info` (validation + statistics),
//! `convert` (between the XML/CSV/JSONL formats) and `cmap` (emit the
//! standard color map of Fig. 2).

mod args;
mod cmd_compare;
mod cmd_convert;
mod cmd_info;
mod cmd_pack;
mod cmd_render;
mod cmd_serve;
mod cmd_view;
mod obs_cli;

use std::process::ExitCode;

const USAGE: &str = "\
jedule — visualize schedules of parallel applications

USAGE:
    jedule render <input> [options]    render a schedule to a graphic
    jedule view <input>                interactive terminal mode
    jedule info <input> [--json]       validate and print statistics
    jedule convert <input> -o <out>    convert between schedule formats
    jedule compare <a> <b> [-o out]    stats diff + stacked side-by-side chart
    jedule pack <input> [-o out]       build a .jpack binary snapshot
    jedule cmap                        print the standard color map XML
    jedule serve [options]             resident HTTP render service

RENDER OPTIONS:
    -o, --output <file>     output path (default: input + format ext)
    -f, --format <fmt>      svg | png | jpeg | ppm | pdf | ascii | html
                            (default svg; html emits one self-contained
                            interactive explorer page, no external assets)
    -W, --width <px>        canvas width (default 800)
    -H, --height <px>       canvas height (default: auto)
    -c, --cmap <file>       color map XML (default: standard map)
        --gray              convert the color map to gray scale
        --scaled            per-cluster local time axes
        --aligned           global time axis for all clusters (default)
        --cluster <id>      render only one cluster
        --window <t0> <t1>  restrict to a time window (t1 must exceed t0;
                            tasks outside it are culled via an interval index)
        --lod <mode>        auto | off | force — aggregate sub-pixel tasks
                            into per-row density strips (default auto)
        --title <text>      chart title
        --no-meta           hide the meta-info header
        --no-labels         hide task id labels
        --no-composites     do not draw composite (overlap) tasks
        --util-profile      add a busy-hosts-over-time strip
        --only-type <t>     keep only tasks of this type (repeatable)
        --pack-sidecar      keep a <input>.jpack binary snapshot beside
                            the input: fresh sidecars are mmap-loaded
                            instead of parsed (also on view/compare);
                            stale ones are silently rebuilt
    -j, --threads <n>       worker threads for ingest, sidecar validation,
                            LOD binning, raster and encode (0 = all cores,
                            1 = sequential; pixels identical either way)

PACK OPTIONS:
    -o, --output <file>     pack path (default: <input>.jpack)
        --check             validate an existing pack against the input
                            (exit nonzero when missing/stale/corrupt)
    -j, --threads <n>       parse (or --check validation) worker threads
                            (0 = all cores)

SERVE OPTIONS:
        --addr <host:port>  bind address (default 127.0.0.1:8017)
        --root <dir>        directory /render inputs are restricted to
                            (default .)
        --cache-cap <n>     max cached prepared schedules, and max
                            cached rendered bodies: one LRU of each
                            (default 64)
        --tile-cache-cap <n>  max cached render tiles shared across
                            views, LRU (default 1024, 0 disables)
        --access-log <file|->  stream one JSONL record per request
                            (append; `-` for stdout); /debug/log serves
                            the last 512 and /debug/trace/<id> the
                            last 32 requests either way
        --slow-ms <n>       pin traces of requests slower than <n> ms so
                            fast-request churn cannot evict them
    -j, --threads <n>       worker threads (0 = auto)
        --metrics-json <file|->  after SIGTERM drain, flush cumulative
                            registry metrics (jedule-metrics-v1)
    endpoints: /render (figure), /explore (interactive explorer shell;
    &tile=1 fetches window/LOD tiles), /meta (schedule JSON), /metrics,
    /metrics.json, /healthz, /debug/dash (live dashboard),
    /debug/log?n=&status=&path= (access-log tail), /debug/trace/<id>

OBSERVABILITY (render, compare, view):
        --timings           print the hierarchical span tree to stderr
        --profile <file|->  write a Chrome trace-event JSON (load it in
                            Perfetto / chrome://tracing, or feed it back
                            into `jedule render` as a schedule)
        --metrics-json <file|->  write flat stage/counter metrics JSON
                            (schema jedule-metrics-v1, diffable in CI)
    `-` writes the artifact to stdout for piping into CI tooling.
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &argv[1..];
    let result = match cmd.as_str() {
        "render" => cmd_render::run(rest),
        "view" => cmd_view::run(rest),
        "info" => cmd_info::run(rest),
        "convert" => cmd_convert::run(rest),
        "compare" => cmd_compare::run(rest),
        "pack" => cmd_pack::run(rest),
        "serve" => cmd_serve::run(rest),
        "cmap" => {
            print!(
                "{}",
                jedule_xmlio::write_colormap_string(&jedule_core::ColorMap::standard())
            );
            Ok(())
        }
        "help" | "-h" | "--help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `jedule help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("jedule: {msg}");
            ExitCode::FAILURE
        }
    }
}
