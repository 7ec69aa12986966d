//! perfbench — the compiled half of the jedule benchmark (README.md).
//!
//! `run.py` drives every workload against the release `jedule` binary;
//! this helper does the parts that need the library in-process or a
//! client fast enough not to be the bottleneck:
//!
//! ```text
//! perfbench gen <workload> <seed> <dir>        write the seeded input file
//! perfbench probe                              time a fixed compute loop
//! perfbench render-ref <input> <out.png>       in-process text-path render
//! perfbench trace-batch <input> <pack:0|1> <seconds> <min-ops> <ref.png>
//! perfbench render-views <input> <width> <windows-file>
//! perfbench client <addr> <targets> <conns> <seconds> <min-ops> <seed> <samples> <out>
//! ```
//!
//! Every subcommand prints one JSON object (or, for `render-views`,
//! one digest per line) on stdout and exits non-zero on any error.

mod batch;
mod client;
mod gen;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("perfbench: missing subcommand (see src/main.rs)");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "gen" => gen::gen(rest),
        "probe" => gen::probe(),
        "render-ref" => batch::render_ref(rest),
        "trace-batch" => batch::trace_batch(rest),
        "render-views" => client::render_views(rest),
        "client" => client::client(rest),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `i`-th positional argument, parsed.
fn arg<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> Result<T, String> {
    let raw = args
        .get(i)
        .ok_or_else(|| format!("missing argument <{what}>"))?;
    raw.parse()
        .map_err(|_| format!("<{what}>: cannot parse {raw:?}"))
}

/// Milliseconds in a `Duration`, as the reports print them.
fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A JSON array of numbers.
fn json_list<T: std::fmt::Display>(xs: &[T]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}
