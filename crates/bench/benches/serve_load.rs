//! serve_load — load-tests the resident `jedule serve` HTTP service
//! in-process over real loopback sockets: one cold `/render` (ingest +
//! prepare + render + encode), a cached-render latency series, an
//! ETag revalidation series (304, no body), a multi-client keep-alive
//! throughput run, and a two-pass distinct-window series that misses
//! the body cache on the second pass but reassembles warm tiles.
//! Results land in BENCH_serve.json, whose acceptance section perfgate
//! cross-checks in CI.
//!
//! Not a criterion harness: the unit of work is a whole HTTP request
//! against a live server, so the bench drives its own client loops and
//! reports percentiles instead of criterion medians.
//!
//! Set `JEDULE_BENCH_QUICK=1` to shrink the trace and request counts so
//! the harness can be smoke-tested in seconds. Quick mode prints its
//! numbers and leaves BENCH_serve.json alone: only a full run records.

use jedule_core::snap::source_digest;
use jedule_serve::{ServeConfig, Server, ServerHandle};
use jedule_workloads::convert::assigned_to_schedule;
use jedule_workloads::{synth_scale_trace, ConvertOptions};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;

const NODES: u32 = 1024;

/// Fresh servers per side of the sidecar cold-start comparison: one
/// cold request is at the mercy of the host, the median of five is not.
const COLD_SERVERS: usize = 5;

fn quick() -> bool {
    std::env::var_os("JEDULE_BENCH_QUICK").is_some()
}

/// A persistent keep-alive connection — the client the event loop is
/// built for: one TCP handshake, many requests.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

struct Reply {
    status: u16,
    etag: Option<String>,
    body: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// One GET on the persistent connection, optionally revalidating.
    fn get(&mut self, target: &str, if_none_match: Option<&str>) -> Reply {
        match if_none_match {
            Some(etag) => write!(
                self.writer,
                "GET {target} HTTP/1.1\r\nHost: bench\r\nIf-None-Match: {etag}\r\n\r\n"
            ),
            None => write!(self.writer, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n"),
        }
        .expect("send request");
        let mut status = 0u16;
        let mut etag = None;
        let mut len = 0usize;
        loop {
            let mut line = String::new();
            assert!(
                self.reader.read_line(&mut line).expect("read head") > 0,
                "server closed mid-head"
            );
            if line == "\r\n" {
                break;
            }
            if status == 0 {
                status = line
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .expect("status code");
            } else if let Some(v) = line.strip_prefix("ETag: ") {
                etag = Some(v.trim().to_string());
            } else if let Some(v) = line.strip_prefix("Content-Length: ") {
                len = v.trim().parse().expect("content length");
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body).expect("read body");
        Reply { status, etag, body }
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

/// Today's civil date from the system clock (proleptic Gregorian),
/// good enough to stamp the baseline.
fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut days = (secs / 86_400) as i64 + 719_468;
    let era = days.div_euclid(146_097);
    days = days.rem_euclid(146_097);
    let yoe = (days - days / 1460 + days / 36_524 - days / 146_096) / 365;
    let doy = days - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = era * 400 + yoe + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

fn start_server(jobs: usize, cache_cap: usize, tile_cache_cap: usize) -> (ServerHandle, PathBuf) {
    let root = std::env::temp_dir().join(format!("jedule_serve_load_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create bench root");
    let assigned = synth_scale_trace(jobs, NODES, 20070202);
    let schedule = assigned_to_schedule(
        &assigned,
        &ConvertOptions {
            cluster_name: "scale".into(),
            total_nodes: NODES,
            reserved: 0,
            highlight_user: None,
            task_attrs: false,
        },
    );
    std::fs::write(
        root.join("trace.csv"),
        jedule_xmlio::write_schedule_csv(&schedule),
    )
    .expect("write trace");
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        root: root.clone(),
        workers: 4,
        cache_cap,
        tile_cache_cap,
        ..ServeConfig::default()
    })
    .expect("bind bench server")
    .spawn();
    (server, root)
}

/// The median wall time of the first `/render` of `target` on each of
/// [`COLD_SERVERS`] fresh servers over `root`. Every body must digest to
/// `want`, and every server must count `sidecar_hits` sidecar hits.
fn median_cold_ms(root: &Path, target: &str, want: u64, sidecar_hits: u64) -> f64 {
    let mut ms: Vec<f64> = (0..COLD_SERVERS)
        .map(|_| {
            let server = Server::bind(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                root: root.to_path_buf(),
                workers: 4,
                cache_cap: 4,
                tile_cache_cap: 1_024,
                ..ServeConfig::default()
            })
            .expect("bind cold-start server")
            .spawn();
            let mut client = Client::connect(server.addr());
            let t = Instant::now();
            let r = client.get(target, None);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(r.status, 200, "cold render must succeed");
            assert_eq!(
                source_digest(&r.body),
                want,
                "every cold body must be byte-identical to the text cold render"
            );
            assert_eq!(
                server
                    .registry()
                    .counter_value("jedule_pack_sidecar_total", &[("result", "hit")]),
                sidecar_hits,
                "sidecar hits of one cold request"
            );
            server.shutdown().expect("graceful shutdown");
            ms
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

fn main() {
    let (jobs, cached_reqs, revals, clients, per_client, windows) = if quick() {
        (5_000, 200, 100, 4, 200, 16)
    } else {
        (50_000, 1_000, 500, 4, 2_000, 64)
    };
    eprintln!(
        "serve_load: {} mode, {jobs}-job trace, {cached_reqs} cached reqs, {revals} revalidations, \
         {clients}x{per_client} throughput reqs, {windows} windows x2 passes",
        if quick() { "quick" } else { "full" }
    );
    // The body cache is deliberately smaller than the window series so
    // the second window pass misses bodies and exercises warm tiles.
    let (server, root) = start_server(jobs, (windows / 4).max(4), 16_384);
    let addr = server.addr();
    let target = "/render?file=trace.csv&width=1600&lod=auto";

    // Cold: the first request pays ingest + prepare + render + encode.
    let mut client = Client::connect(addr);
    let t = Instant::now();
    let reply = client.get(target, None);
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(reply.status, 200, "cold render must succeed");
    assert!(!reply.body.is_empty());
    let etag = reply.etag.expect("render responses carry an ETag");

    // Cached latency: the same request now only touches the body cache.
    let mut lat_ms: Vec<f64> = (0..cached_reqs)
        .map(|_| {
            let t = Instant::now();
            let r = client.get(target, None);
            assert_eq!(r.status, 200);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    lat_ms.sort_by(|a, b| a.total_cmp(b));
    let (p50, p90, p99) = (
        percentile(&lat_ms, 0.50),
        percentile(&lat_ms, 0.90),
        percentile(&lat_ms, 0.99),
    );

    // Revalidation: If-None-Match answered 304 with no body — the
    // digest cache means not even a file read happens.
    let mut reval_ms: Vec<f64> = (0..revals)
        .map(|_| {
            let t = Instant::now();
            let r = client.get(target, Some(&etag));
            assert_eq!(r.status, 304, "matching validator must yield 304");
            assert!(r.body.is_empty(), "304 carries no body");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    reval_ms.sort_by(|a, b| a.total_cmp(b));
    let (rv_p50, rv_p99) = (percentile(&reval_ms, 0.50), percentile(&reval_ms, 0.99));

    // Cached throughput: several keep-alive clients hammering the same
    // hot entry, one connection each.
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut c = Client::connect(addr);
                for _ in 0..per_client {
                    assert_eq!(c.get(target, None).status, 200);
                }
            });
        }
    });
    let total = clients * per_client;
    let rps = total as f64 / t.elapsed().as_secs_f64();

    // Distinct windows, two passes. Pass 1 is the interactive pan/zoom
    // pattern: every request misses the body cache and renders through
    // the tile store (cold shards). The window series outnumbers the
    // body cache, so pass 2 misses bodies again — but every shard is
    // warm, and SVG assembly skips layout entirely.
    let window_target = |i: usize| {
        format!(
            "/render?file=trace.csv&width=1600&window={}:{}",
            i * 10,
            i * 10 + 50
        )
    };
    // The main connection sat idle through the throughput run; if that
    // took longer than the server's idle sweep, it was reaped. Fresh
    // connection, as any real client would open.
    let mut client = Client::connect(addr);
    let mut pass_digests = [Vec::new(), Vec::new()];
    let mut pass_mean_ms = [0.0f64; 2];
    for (pass, digests) in pass_digests.iter_mut().enumerate() {
        let t = Instant::now();
        for i in 0..windows {
            let r = client.get(&window_target(i), None);
            assert_eq!(r.status, 200);
            digests.push(source_digest(&r.body));
        }
        pass_mean_ms[pass] = t.elapsed().as_secs_f64() * 1e3 / windows as f64;
    }
    assert_eq!(
        pass_digests[0], pass_digests[1],
        "tile-assembled windows must be byte-identical to their cold renders"
    );
    let tile_speedup = pass_mean_ms[0] / pass_mean_ms[1];

    let reg = server.registry();
    let hits = reg.counter_value("jedule_render_cache_hits_total", &[]);
    let misses = reg.counter_value("jedule_render_cache_misses_total", &[]);
    let not_modified = reg.counter_value("jedule_render_not_modified_total", &[]);
    let renders = 1 + cached_reqs + total + 2 * windows;
    assert_eq!(
        hits + misses,
        renders as u64,
        "hit/miss counters must partition the 200 render responses exactly"
    );
    assert_eq!(not_modified, revals as u64, "every revalidation counted");
    let tile_hits = reg.counter_total("jedule_tile_cache_hits_total");
    let tile_misses = reg.counter_total("jedule_tile_cache_misses_total");
    let plan_hits = reg.counter_total("jedule_plan_cache_hits_total");
    let plan_misses = reg.counter_total("jedule_plan_cache_misses_total");
    assert_eq!(
        tile_hits + tile_misses,
        reg.counter_total("jedule_tile_lookups_total"),
        "tile hit/miss counters must partition tile lookups exactly"
    );
    server.shutdown().expect("graceful shutdown");

    // Sidecar cold start: fresh servers on the same root, first without
    // a sidecar, then with a fresh `.jpack` beside the input — whose
    // first /render must skip parse + prepare and map the pack instead,
    // byte-identically.
    let want = source_digest(&reply.body);
    let text_cold_ms = median_cold_ms(&root, target, want, 0);
    let input = root.join("trace.csv");
    let csv_bytes = std::fs::read(&input).expect("read trace");
    {
        let schedule = jedule_serve::ingest::parse_schedule(
            std::str::from_utf8(&csv_bytes).expect("csv is utf-8"),
            &input,
            1,
        )
        .expect("parse trace");
        let prep = jedule_core::PreparedSchedule::new(schedule);
        jedule_core::snap::write_pack_file(
            &prep,
            jedule_core::snap::source_digest(&csv_bytes),
            &jedule_core::snap::sidecar_path(&input),
            0,
        )
        .expect("write sidecar");
    }
    let sidecar_cold_ms = median_cold_ms(&root, target, want, 1);
    let _ = std::fs::remove_dir_all(&root);
    let sidecar_speedup = text_cold_ms / sidecar_cold_ms;

    let speedup = cold_ms / p50;
    eprintln!(
        "serve_load: cold {cold_ms:.2} ms; cached p50 {p50:.3} / p90 {p90:.3} / p99 {p99:.3} ms \
         ({speedup:.0}x vs cold); 304 p50 {rv_p50:.3} / p99 {rv_p99:.3} ms; \
         {rps:.0} req/s over {clients} keep-alive clients; \
         windows cold {:.2} ms -> warm tiles {:.2} ms ({tile_speedup:.1}x); \
         sidecar cold start {sidecar_cold_ms:.2} ms vs text {text_cold_ms:.2} ms \
         ({sidecar_speedup:.1}x, medians of {COLD_SERVERS} fresh servers); \
         {hits} hits / {misses} misses / {not_modified} 304s; \
         tiles {tile_hits} hits / {tile_misses} misses; plans {plan_hits} hits / {plan_misses} misses",
        pass_mean_ms[0], pass_mean_ms[1]
    );

    if quick() {
        eprintln!("serve_load: quick mode, BENCH_serve.json left as committed");
        return;
    }
    let json = format!(
        r#"{{
  "description": "Serve-mode baseline: crates/bench/benches/serve_load.rs. An in-process `jedule serve` instance (epoll event loop, 4 render workers, LRU body+prepared+tile caches) fed a {jobs}-job synthetic trace (synth_scale_trace, 1024 nodes) over real loopback keep-alive connections. Series: the cold first /render (ingest + prepare + render + encode), {cached_reqs} cached repeats of the identical request (latency percentiles, full HTTP round trip included), {revals} ETag revalidations (304, no body), {clients} persistent clients x {per_client} cached requests (throughput), and {windows} distinct-window requests in two passes — pass 1 cold shards, pass 2 misses the (undersized) body cache but reassembles warm tiles.",
  "command": "cargo bench -p jedule-bench --bench serve_load",
  "date": "{date}",
  "acceptance": {{
    "cached_render_vs_cold_speedup": {speedup:.1},
    "cached_render_vs_cold_required": 2.0,
    "tile_warm_window_speedup": {tile_speedup:.2},
    "tile_warm_window_required": 1.2,
    "sidecar_cold_first_request_speedup": {sidecar_speedup:.1},
    "sidecar_cold_first_request_required": 1.5,
    "hit_miss_partition_exact": true
  }},
  "results": {{
    "cached_render": {{
      "p50": "{p50:.3} ms",
      "p90": "{p90:.3} ms",
      "p99": "{p99:.3} ms",
      "requests": {cached_reqs}
    }},
    "etag_revalidation": {{
      "p50": "{rv_p50:.3} ms",
      "p99": "{rv_p99:.3} ms",
      "requests": {revals}
    }},
    "cached_throughput": {{
      "clients": {clients},
      "requests": {total},
      "requests_per_second": {rps:.0}
    }},
    "cold_first_request": {{ "wall": "{cold_ms:.2} ms" }},
    "cold_first_request_text_median": {{ "wall": "{text_cold_ms:.2} ms", "servers": {COLD_SERVERS} }},
    "cold_first_request_sidecar_median": {{ "wall": "{sidecar_cold_ms:.2} ms", "servers": {COLD_SERVERS} }},
    "distinct_windows": {{
      "cold_mean_per_window": "{cold_win:.2} ms",
      "warm_tile_mean_per_window": "{warm_win:.2} ms",
      "windows": {windows}
    }}
  }},
  "notes": [
    "Latencies are whole HTTP round trips on persistent loopback connections (request + full body read), not server-internal times; the server-side stage histograms live in /metrics.",
    "The hit/miss partition (hits + misses == 200 render responses, asserted every run) held: {hits} hits / {misses} misses across {renders} renders, plus {not_modified} 304 revalidations counted separately; tile lookups partitioned as {tile_hits} hits / {tile_misses} misses.",
    "Pass-2 window bodies were digest-identical to pass-1 (asserted): tile reassembly reproduces cold bytes exactly.",
    "304 revalidations touch only the stat-validated digest cache — no file read, no render — which is what keeps their p50 sub-millisecond.",
    "Sidecar cold start: over {COLD_SERVERS} fresh servers each, the first /render took a median {sidecar_cold_ms:.2} ms with a fresh .jpack sidecar beside the input vs {text_cold_ms:.2} ms from the text alone; every body was digest-identical to the text cold render (asserted), and each sidecar server counted exactly one jedule_pack_sidecar_total hit.",
    "Serve pins threads=1 per render; cached bodies are byte-identical to cold single-threaded renders (asserted in crates/serve/tests/serve_http.rs)."
  ]
}}
"#,
        date = today(),
        cold_win = pass_mean_ms[0],
        warm_win = pass_mean_ms[1],
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    std::fs::write(&out, json).expect("write BENCH_serve.json");
    eprintln!("wrote {}", out.display());
}
