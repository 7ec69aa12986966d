//! `jedule serve` — the resident render service (DESIGN.md §6b–c).
//!
//! Binds the epoll HTTP server from `jedule-serve`, wires SIGTERM /
//! SIGINT to its graceful-shutdown flag, and after the drain optionally
//! flushes the process-lifetime metrics registry as `jedule-metrics-v1`
//! JSON (`--metrics-json`, `-` for stdout) so a supervised run leaves
//! the same machine-readable record a batch run would.

use crate::args::Args;
use crate::obs_cli::emit_output;
use jedule_serve::{signal, ServeConfig, Server};

pub fn run(argv: &[String]) -> Result<(), String> {
    let mut args = Args::new(argv);
    let mut config = ServeConfig::default();
    let mut metrics_out: Option<String> = None;
    while let Some(a) = args.next() {
        match a {
            "--addr" => config.addr = args.value(a)?.to_string(),
            "--root" => config.root = args.value(a)?.into(),
            "--cache-cap" => config.cache_cap = args.parse(a)?,
            "--tile-cache-cap" => config.tile_cache_cap = args.parse(a)?,
            "--access-log" => config.access_log = Some(args.value(a)?.to_string()),
            "--slow-ms" => config.slow_ms = Some(args.parse(a)?),
            "-j" | "--threads" => config.workers = args.parse(a)?,
            "--metrics-json" => metrics_out = Some(args.value(a)?.to_string()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            positional => {
                return Err(format!(
                    "unexpected argument {positional:?} (serve takes only flags)"
                ))
            }
        }
    }

    let server = Server::bind(config)?;
    let registry = server.registry();
    signal::install_term_handler(server.shutdown_flag());
    eprintln!(
        "jedule serve: listening on http://{} — /healthz /render /explore /meta /metrics \
         /metrics.json /debug/dash /debug/log /debug/trace/<id>; \
         SIGTERM drains in-flight requests and exits",
        server.local_addr()
    );
    server.run()?;
    if let Some(p) = &metrics_out {
        emit_output(p, &registry.to_metrics_json(), "metrics")?;
    }
    eprintln!("jedule serve: drained, shut down cleanly");
    Ok(())
}
