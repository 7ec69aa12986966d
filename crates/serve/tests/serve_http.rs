//! End-to-end tests of the render service over real sockets: route
//! behavior, cache identity (served bytes == cold render bytes), the
//! hit/miss partition invariant under concurrency, the Prometheus
//! surface, per-request traces, and graceful shutdown.

use jedule_core::{Allocation, ScheduleBuilder, Task};
use jedule_serve::{render_options_from_params, ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

/// A tiny deterministic schedule written as CSV into a fresh temp root.
fn temp_root(tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("jedule_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let s = ScheduleBuilder::new()
        .cluster(0, "c0", 8)
        .task(Task::new("a", "computation", 0.0, 4.0).on(Allocation::contiguous(0, 0, 4)))
        .task(Task::new("b", "transfer", 2.0, 6.0).on(Allocation::contiguous(0, 2, 3)))
        .task(Task::new("c", "io", 1.0, 3.0).on(Allocation::contiguous(0, 5, 2)))
        .build()
        .unwrap();
    let csv = jedule_xmlio::write_schedule_csv(&s);
    std::fs::write(dir.join("sched.csv"), &csv).unwrap();
    (dir, csv)
}

fn start(tag: &str) -> (ServerHandle, PathBuf, String) {
    start_with(tag, |_| {})
}

/// Like [`start`], with a hook to adjust the config (cache caps) or the
/// root (drop a `.jpack` sidecar next to the input) before binding.
fn start_with(tag: &str, tweak: impl FnOnce(&mut ServeConfig)) -> (ServerHandle, PathBuf, String) {
    let (root, csv) = temp_root(tag);
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        root: root.clone(),
        workers: 4,
        cache_cap: 16,
        body_cache_cap: None,
        tile_cache_cap: 256,
        trace_keep: 8,
        ..ServeConfig::default()
    };
    tweak(&mut config);
    let server = Server::bind(config).unwrap();
    (server.spawn(), root, csv)
}

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn get(addr: SocketAddr, target: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head");
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let mut lines = head.lines();
    let status_line = lines.next().unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let headers = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: raw[head_end + 4..].to_vec(),
    }
}

/// Sends one request on an existing connection and reads one
/// Content-Length-framed response, leaving the connection usable.
fn get_keep_alive(stream: &mut TcpStream, target: &str) -> Reply {
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    read_framed(stream)
}

fn read_framed(stream: &mut TcpStream) -> Reply {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    let head_end = loop {
        assert_eq!(stream.read(&mut byte).unwrap(), 1, "peer closed mid-head");
        raw.push(byte[0]);
        if raw.ends_with(b"\r\n\r\n") {
            break raw.len();
        }
    };
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let len: usize = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("Content-Length"))
        .map(|(_, v)| v.parse().unwrap())
        .unwrap();
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    Reply {
        status,
        headers,
        body,
    }
}

#[test]
fn healthz_answers_with_request_ids() {
    let (server, _root, _csv) = start("healthz");
    let a = get(server.addr(), "/healthz");
    let b = get(server.addr(), "/healthz");
    assert_eq!(a.status, 200);
    assert_eq!(a.body, b"ok\n");
    let ida: u64 = a.header("X-Jedule-Request-Id").unwrap().parse().unwrap();
    let idb: u64 = b.header("X-Jedule-Request-Id").unwrap().parse().unwrap();
    assert_ne!(ida, idb, "each request gets its own id");
    assert_eq!(get(server.addr(), "/").status, 200);
    assert_eq!(get(server.addr(), "/nope").status, 404);
    server.shutdown().unwrap();
}

#[test]
fn render_bytes_match_cold_render_and_cache_hits() {
    let (server, root, csv) = start("identity");
    let first = get(server.addr(), "/render?file=sched.csv");
    let second = get(server.addr(), "/render?file=sched.csv");
    assert_eq!(first.status, 200);
    assert_eq!(first.header("Content-Type"), Some("image/svg+xml"));
    assert_eq!(
        first.body, second.body,
        "cached reply must be byte-identical"
    );

    // The service body must equal a cold, single-threaded render of the
    // same input with the same canonical options.
    let schedule = jedule_serve::ingest::parse_schedule(&csv, &root.join("sched.csv")).unwrap();
    let (opts, _key) = render_options_from_params(None, None, None, None).unwrap();
    let cold = jedule_render::render(&schedule, &opts);
    assert_eq!(first.body, cold);

    let reg = server.registry();
    assert_eq!(reg.counter_value("jedule_render_cache_hits_total", &[]), 1);
    assert_eq!(
        reg.counter_value("jedule_render_cache_misses_total", &[]),
        1
    );
    assert_eq!(
        reg.counter_value("jedule_prepared_cache_misses_total", &[]),
        1
    );
    server.shutdown().unwrap();
}

#[test]
fn windowed_png_render_matches_cold_render() {
    let (server, root, csv) = start("png");
    let target = "/render?file=sched.csv&fmt=png&width=400&window=1:5&lod=off";
    let reply = get(server.addr(), target);
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("Content-Type"), Some("image/png"));
    assert_eq!(&reply.body[..8], b"\x89PNG\r\n\x1a\n");

    let schedule = jedule_serve::ingest::parse_schedule(&csv, &root.join("sched.csv")).unwrap();
    let (opts, _) =
        render_options_from_params(Some("png"), Some("400"), Some("1:5"), Some("off")).unwrap();
    assert_eq!(reply.body, jedule_render::render(&schedule, &opts));
    server.shutdown().unwrap();
}

#[test]
fn concurrent_renders_are_identical_and_counters_partition() {
    let (server, root, csv) = start("concurrent");
    let addr = server.addr();
    const N: usize = 8;
    let bodies: Vec<Vec<u8>> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..N)
            .map(|_| s.spawn(move || get(addr, "/render?file=sched.csv&width=500")))
            .collect();
        joins
            .into_iter()
            .map(|j| {
                let r = j.join().unwrap();
                assert_eq!(r.status, 200);
                r.body
            })
            .collect()
    });
    let schedule = jedule_serve::ingest::parse_schedule(&csv, &root.join("sched.csv")).unwrap();
    let (opts, _) = render_options_from_params(None, Some("500"), None, None).unwrap();
    let cold = jedule_render::render(&schedule, &opts);
    for body in &bodies {
        assert_eq!(body, &cold, "every concurrent reply equals the cold render");
    }
    let reg = server.registry();
    let hits = reg.counter_value("jedule_render_cache_hits_total", &[]);
    let misses = reg.counter_value("jedule_render_cache_misses_total", &[]);
    assert_eq!(
        hits + misses,
        N as u64,
        "hit/miss counters partition render requests exactly (hits {hits}, misses {misses})"
    );
    assert!(misses >= 1);
    assert_eq!(
        reg.counter_value(
            "jedule_http_requests_total",
            &[("route", "/render"), ("status", "200")]
        ),
        N as u64
    );
    server.shutdown().unwrap();
}

#[test]
fn metrics_exposition_covers_requests_and_latency() {
    let (server, _root, _csv) = start("metrics");
    assert_eq!(get(server.addr(), "/render?file=sched.csv").status, 200);
    assert_eq!(get(server.addr(), "/healthz").status, 200);
    let m = get(server.addr(), "/metrics");
    assert_eq!(m.status, 200);
    assert!(m.header("Content-Type").unwrap().starts_with("text/plain"));
    let text = String::from_utf8(m.body).unwrap();
    assert!(text.contains("# TYPE jedule_http_requests_total counter"));
    assert!(text.contains("jedule_http_requests_total{route=\"/render\",status=\"200\"} 1"));
    assert!(text.contains("# TYPE jedule_http_request_duration_seconds histogram"));
    assert!(text
        .contains("jedule_http_request_duration_seconds_bucket{route=\"/render\",le=\"+Inf\"} 1"));
    assert!(text.contains("jedule_stage_duration_seconds_bucket{stage=\"serve.render\""));
    assert!(text.contains("jedule_uptime_seconds"));
    server.shutdown().unwrap();
}

#[test]
fn debug_trace_replays_recent_requests() {
    let (server, _root, _csv) = start("trace");
    let r = get(server.addr(), "/render?file=sched.csv");
    let id: u64 = r.header("X-Jedule-Request-Id").unwrap().parse().unwrap();
    let trace = get(server.addr(), &format!("/debug/trace/{id}"));
    assert_eq!(trace.status, 200);
    assert_eq!(trace.header("Content-Type"), Some("application/json"));
    let json = String::from_utf8(trace.body).unwrap();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("serve.request"));
    assert!(json.contains("serve.render"));
    assert_eq!(get(server.addr(), "/debug/trace/999999").status, 404);
    assert_eq!(get(server.addr(), "/debug/trace/junk").status, 400);
    server.shutdown().unwrap();
}

#[test]
fn inputs_outside_the_root_are_rejected() {
    let (server, _root, _csv) = start("jail");
    assert_eq!(get(server.addr(), "/render").status, 400);
    assert_eq!(
        get(server.addr(), "/render?file=../../etc/passwd").status,
        404
    );
    assert_eq!(get(server.addr(), "/render?file=/etc/passwd").status, 404);
    assert_eq!(get(server.addr(), "/render?file=missing.csv").status, 404);
    assert_eq!(
        get(server.addr(), "/render?file=sched.csv&fmt=gif").status,
        400
    );
    assert_eq!(
        get(server.addr(), "/render?file=sched.csv&window=9:1").status,
        400
    );
    server.shutdown().unwrap();
}

/// No `catch_unwind` can catch a stack overflow, so a reader that recursed
/// per nesting level would take the whole server down on a `.jed` or a
/// `.jsonl` nested 200k levels deep. Each must be a client error, and the
/// server must keep answering.
fn deep_input_is_a_client_error(name: &str, file: &str, contents: String) {
    let (server, root, _csv) = start(name);
    std::fs::write(root.join(file), contents).unwrap();
    let reply = get(server.addr(), &format!("/render?file={file}"));
    assert!(
        (400..500).contains(&reply.status),
        "status {}: {}",
        reply.status,
        String::from_utf8_lossy(&reply.body)
    );
    assert!(String::from_utf8_lossy(&reply.body).contains("parse error at"));
    assert_eq!(get(server.addr(), "/healthz").status, 200);
    assert_eq!(get(server.addr(), "/render?file=sched.csv").status, 200);
    server.shutdown().unwrap();
}

#[test]
fn deeply_nested_xml_is_a_client_error_and_the_server_survives() {
    let depth = 200_000;
    let deep = format!(
        "<jedule>{}{}</jedule>",
        "<a>".repeat(depth),
        "</a>".repeat(depth)
    );
    deep_input_is_a_client_error("deepxml", "deep.jed", deep);
}

#[test]
fn deeply_nested_jsonl_is_a_client_error_and_the_server_survives() {
    let depth = 200_000;
    let deep = format!("{}{}\n", "[".repeat(depth), "]".repeat(depth));
    deep_input_is_a_client_error("deepjsonl", "deep.jsonl", deep);
}

#[test]
fn keep_alive_reuses_one_connection_for_many_requests() {
    let (server, _root, _csv) = start("keepalive");
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut ids = Vec::new();
    for target in [
        "/healthz",
        "/render?file=sched.csv",
        "/render?file=sched.csv",
    ] {
        let r = get_keep_alive(&mut stream, target);
        assert_eq!(r.status, 200);
        assert_eq!(r.header("Connection"), Some("keep-alive"));
        ids.push(
            r.header("X-Jedule-Request-Id")
                .unwrap()
                .parse::<u64>()
                .unwrap(),
        );
    }
    assert!(
        ids.windows(2).all(|w| w[0] != w[1]),
        "distinct ids: {ids:?}"
    );

    // Two pipelined requests in one write come back in order.
    write!(
        stream,
        "GET /healthz HTTP/1.1\r\n\r\nGET / HTTP/1.1\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let first = read_framed(&mut stream);
    assert_eq!(first.body, b"ok\n");
    let second = read_framed(&mut stream);
    assert_eq!(second.status, 200);
    assert_eq!(second.header("Connection"), Some("close"));
    server.shutdown().unwrap();
}

#[test]
fn etag_revalidation_returns_304_with_no_body() {
    let (server, _root, _csv) = start("etag");
    let addr = server.addr();
    let first = get(addr, "/render?file=sched.csv");
    assert_eq!(first.status, 200);
    let etag = first
        .header("ETag")
        .expect("render carries ETag")
        .to_string();
    assert!(etag.starts_with('"') && etag.ends_with('"'), "{etag}");

    // Identical request + If-None-Match → 304, empty body, ETag echoed.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET /render?file=sched.csv HTTP/1.1\r\nHost: t\r\nIf-None-Match: {etag}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let not_modified = read_framed(&mut stream);
    assert_eq!(not_modified.status, 304);
    assert!(not_modified.body.is_empty());
    assert_eq!(not_modified.header("ETag"), Some(etag.as_str()));
    assert!(not_modified.header("X-Jedule-Request-Id").is_some());

    // A stale validator still gets the full body…
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET /render?file=sched.csv HTTP/1.1\r\nHost: t\r\nIf-None-Match: \"stale\"\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    assert_eq!(read_framed(&mut stream).status, 200);

    // …and different options produce a different ETag.
    let png = get(addr, "/render?file=sched.csv&fmt=png");
    assert_ne!(png.header("ETag"), Some(etag.as_str()));

    let reg = server.registry();
    assert_eq!(
        reg.counter_value("jedule_render_not_modified_total", &[]),
        1
    );
    // 304s sit outside the body-cache hit/miss partition.
    let hits = reg.counter_value("jedule_render_cache_hits_total", &[]);
    let misses = reg.counter_value("jedule_render_cache_misses_total", &[]);
    assert_eq!(
        hits + misses,
        3,
        "hits {hits} + misses {misses} cover the three 200s"
    );
    server.shutdown().unwrap();
}

#[test]
fn tile_counters_partition_lookups_exactly() {
    let (server, _root, _csv) = start("tilecount");
    let addr = server.addr();
    // Distinct windows defeat the body cache key but share the store.
    for t0 in 0..4 {
        let target = format!("/render?file=sched.csv&window={t0}:{}", t0 + 4);
        assert_eq!(get(addr, &target).status, 200);
        assert_eq!(get(addr, &target).status, 200);
    }
    let reg = server.registry();
    let hits = reg.counter_total("jedule_tile_cache_hits_total");
    let misses = reg.counter_total("jedule_tile_cache_misses_total");
    let lookups = reg.counter_total("jedule_tile_lookups_total");
    assert_eq!(hits + misses, lookups, "hit/miss partitions tile lookups");
    assert!(misses >= 4, "each distinct window shards at least once");
    server.shutdown().unwrap();
}

/// Packs the served input exactly as `jedule pack` would — the prepared
/// form of the parsed schedule, stamped with the digest of `stamp` (pass
/// the real input bytes for a fresh sidecar, anything else for a stale
/// one).
fn write_sidecar(root: &std::path::Path, csv: &str, stamp: &[u8]) {
    use jedule_core::snap;
    let input = root.join("sched.csv");
    let schedule = jedule_serve::ingest::parse_schedule(csv, &input).unwrap();
    let prep = jedule_core::PreparedSchedule::new(schedule);
    snap::write_pack_file(
        &prep,
        snap::source_digest(stamp),
        &snap::sidecar_path(&input),
    )
    .unwrap();
}

/// The cold-render reference bytes for the canonical options.
fn cold_reference(root: &std::path::Path, csv: &str) -> Vec<u8> {
    let schedule = jedule_serve::ingest::parse_schedule(csv, &root.join("sched.csv")).unwrap();
    let (opts, _key) = render_options_from_params(None, None, None, None).unwrap();
    jedule_render::render(&schedule, &opts)
}

#[test]
fn fresh_sidecar_serves_the_cold_first_request() {
    let (server, root, csv) = start("sidecar_fresh");
    write_sidecar(&root, &csv, csv.as_bytes());
    let first = get(server.addr(), "/render?file=sched.csv");
    assert_eq!(first.status, 200);
    assert_eq!(
        first.body,
        cold_reference(&root, &csv),
        "pack-served bytes must equal a cold text render"
    );
    let reg = server.registry();
    assert_eq!(
        reg.counter_value("jedule_pack_sidecar_total", &[("result", "hit")]),
        1
    );
    // The second request hits the prepared cache — no second probe.
    assert_eq!(get(server.addr(), "/render?file=sched.csv").status, 200);
    assert_eq!(reg.counter_total("jedule_pack_sidecar_total"), 1);
    server.shutdown().unwrap();
}

#[test]
fn stale_sidecar_is_silently_ignored() {
    let (server, root, csv) = start("sidecar_stale");
    write_sidecar(&root, &csv, b"bytes of an older revision");
    let first = get(server.addr(), "/render?file=sched.csv");
    assert_eq!(first.status, 200);
    assert_eq!(first.body, cold_reference(&root, &csv));
    let reg = server.registry();
    assert_eq!(
        reg.counter_value("jedule_pack_sidecar_total", &[("result", "stale")]),
        1
    );
    assert_eq!(
        reg.counter_value("jedule_pack_sidecar_total", &[("result", "hit")]),
        0
    );
    server.shutdown().unwrap();
}

/// A sidecar of an older format version is stale, not corrupt, even when
/// its stored source digest matches the input.
#[test]
fn older_version_sidecar_counts_as_stale() {
    let (server, root, csv) = start("sidecar_oldver");
    write_sidecar(&root, &csv, csv.as_bytes());
    let path = root.join("sched.csv.jpack");
    let mut pack = std::fs::read(&path).unwrap();
    let old = jedule_core::snap::PACK_VERSION - 1;
    pack[8..12].copy_from_slice(&old.to_le_bytes());
    std::fs::write(&path, &pack).unwrap();
    let first = get(server.addr(), "/render?file=sched.csv");
    assert_eq!(first.status, 200);
    assert_eq!(first.body, cold_reference(&root, &csv));
    let reg = server.registry();
    assert_eq!(
        reg.counter_value("jedule_pack_sidecar_total", &[("result", "stale")]),
        1
    );
    assert_eq!(
        reg.counter_value("jedule_pack_sidecar_total", &[("result", "error")]),
        0
    );
    server.shutdown().unwrap();
}

#[test]
fn corrupt_sidecar_is_skipped_with_an_error_count() {
    let (server, root, csv) = start("sidecar_corrupt");
    std::fs::write(root.join("sched.csv.jpack"), b"JEDPACK1 but not really").unwrap();
    let first = get(server.addr(), "/render?file=sched.csv");
    assert_eq!(first.status, 200);
    assert_eq!(first.body, cold_reference(&root, &csv));
    let reg = server.registry();
    assert_eq!(
        reg.counter_value("jedule_pack_sidecar_total", &[("result", "error")]),
        1
    );
    server.shutdown().unwrap();
}

#[test]
fn body_cache_cap_sizes_the_body_cache_independently() {
    let (server, _root, _csv) = start_with("bodycap", |c| c.body_cache_cap = Some(1));
    let addr = server.addr();
    // Two distinct render keys alternating through a one-slot body
    // cache evict each other every time; the prepared schedule (cap 16)
    // is parsed exactly once.
    for _ in 0..2 {
        assert_eq!(get(addr, "/render?file=sched.csv").status, 200);
        assert_eq!(get(addr, "/render?file=sched.csv&window=0:4").status, 200);
    }
    let reg = server.registry();
    assert_eq!(reg.counter_value("jedule_render_cache_hits_total", &[]), 0);
    assert_eq!(
        reg.counter_value("jedule_render_cache_misses_total", &[]),
        4
    );
    assert_eq!(
        reg.counter_value("jedule_prepared_cache_misses_total", &[]),
        1
    );
    server.shutdown().unwrap();
}

#[test]
fn shutdown_is_graceful_and_final() {
    let (server, _root, _csv) = start("shutdown");
    let addr = server.addr();
    assert_eq!(get(addr, "/healthz").status, 200);
    server.shutdown().unwrap();
    // The listener is gone: connecting (or at least speaking HTTP)
    // fails once the drain has finished.
    let alive = TcpStream::connect(addr)
        .map(|mut s| {
            let _ = write!(s, "GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = [0u8; 1];
            matches!(s.read(&mut buf), Ok(n) if n > 0)
        })
        .unwrap_or(false);
    assert!(!alive, "server must stop answering after shutdown");
}

#[test]
fn explore_shell_and_meta_endpoints() {
    let (server, _root, _csv) = start("explore");
    let addr = server.addr();

    // The shell is a single self-contained HTML page that knows its file.
    let shell = get(addr, "/explore?file=sched.csv");
    assert_eq!(shell.status, 200);
    assert!(shell
        .header("Content-Type")
        .unwrap()
        .starts_with("text/html"));
    let page = String::from_utf8(shell.body).unwrap();
    assert!(page.contains("\"mode\":\"serve\""));
    assert!(page.contains("sched.csv"));
    assert!(!page.contains("__JEDULE_"), "unfilled placeholder");
    assert!(
        !page.contains("src="),
        "shell must not load external assets"
    );

    // /meta returns the jedule-meta-v1 document with a validator.
    let meta = get(addr, "/meta?file=sched.csv&width=640");
    assert_eq!(meta.status, 200);
    assert_eq!(meta.header("Content-Type"), Some("application/json"));
    let etag = meta.header("ETag").expect("meta carries ETag").to_string();
    let json = String::from_utf8(meta.body).unwrap();
    assert!(json.contains("\"schema\":\"jedule-meta-v1\""));
    assert!(json.contains("\"taskCount\":3"));
    assert!(json.contains("\"panels\""));
    assert!(json.contains("\"kinds\""));

    // Revalidation works exactly like /render.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET /meta?file=sched.csv&width=640 HTTP/1.1\r\nHost: t\r\nIf-None-Match: {etag}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    assert_eq!(read_framed(&mut stream).status, 304);

    // Errors mirror /render semantics.
    assert_eq!(get(addr, "/explore").status, 400);
    assert_eq!(get(addr, "/meta").status, 400);
    assert_eq!(get(addr, "/meta?file=missing.csv").status, 404);
    assert_eq!(get(addr, "/explore?file=../../etc/passwd").status, 404);
    assert_eq!(get(addr, "/meta?file=sched.csv&width=1").status, 400);
    server.shutdown().unwrap();
}

#[test]
fn explore_tiles_are_byte_identical_to_render() {
    let (server, _root, _csv) = start("exploretile");
    let addr = server.addr();
    for params in [
        "file=sched.csv&fmt=svg&width=640",
        "file=sched.csv&fmt=svg&width=640&window=0:4",
        "file=sched.csv&fmt=svg&width=640&lod=force",
    ] {
        let direct = get(addr, &format!("/render?{params}"));
        let tile = get(addr, &format!("/explore?{params}&tile=1"));
        assert_eq!(direct.status, 200);
        assert_eq!(tile.status, 200);
        assert_eq!(
            tile.body, direct.body,
            "tile bytes must match /render for {params}"
        );
        assert_eq!(
            tile.header("ETag"),
            direct.header("ETag"),
            "tile validator must match /render for {params}"
        );
    }
    server.shutdown().unwrap();
}

#[test]
fn explore_pan_sequence_hits_the_tile_store() {
    // A one-slot body cache forces the A→B→A pan sequence to re-render
    // window A, which must be served (at least partly) from the tile
    // store rather than rasterized from scratch.
    let (server, _root, _csv) = start_with("explorepan", |c| c.body_cache_cap = Some(1));
    let addr = server.addr();
    let win_a = "/explore?file=sched.csv&tile=1&fmt=svg&width=640&window=0:4";
    let win_b = "/explore?file=sched.csv&tile=1&fmt=svg&width=640&window=2:6";
    let first = get(addr, win_a);
    assert_eq!(first.status, 200);
    let etag_a = first.header("ETag").unwrap().to_string();
    assert_eq!(get(addr, win_b).status, 200);
    let reg = server.registry();
    let hits_before = reg.counter_total("jedule_tile_cache_hits_total");
    assert_eq!(get(addr, win_a).status, 200);
    let hits_after = reg.counter_total("jedule_tile_cache_hits_total");
    assert!(
        hits_after > hits_before,
        "panning back must reuse cached tiles ({hits_before} → {hits_after})"
    );

    // The second visit to window A revalidates instead of re-downloading.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {win_a} HTTP/1.1\r\nHost: t\r\nIf-None-Match: {etag_a}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    assert_eq!(read_framed(&mut stream).status, 304);
    assert!(reg.counter_value("jedule_render_not_modified_total", &[]) >= 1);
    server.shutdown().unwrap();
}

#[test]
fn metrics_json_mirrors_the_prometheus_families() {
    let (server, _root, _csv) = start("metricsjson");
    let addr = server.addr();
    assert_eq!(get(addr, "/render?file=sched.csv").status, 200);
    assert_eq!(get(addr, "/healthz").status, 200);

    let json_reply = get(addr, "/metrics.json");
    assert_eq!(json_reply.status, 200);
    assert_eq!(json_reply.header("Content-Type"), Some("application/json"));
    let json = String::from_utf8(json_reply.body).unwrap();
    assert!(json.starts_with("{\"schema\":\"jedule-registry-v1\""));

    // Every family the Prometheus text exposition declares must appear
    // in the JSON twin (the registry unit tests prove exact key-for-key
    // agreement; this guards the HTTP plumbing end to end).
    let text = String::from_utf8(get(addr, "/metrics").body).unwrap();
    for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
        let family = line.split_whitespace().nth(2).unwrap();
        assert!(
            json.contains(&format!("\"{family}")),
            "family {family} missing from /metrics.json"
        );
    }
    // Spot-check the new introspection families and histogram shape.
    assert!(json.contains("\"jedule_build_info{"));
    assert!(json.contains("\"jedule_uptime_seconds\""));
    assert!(json.contains("\"jedule_connections_accepted_total\""));
    assert!(json.contains("\"jedule_http_request_duration_seconds{route="));
    assert!(json.contains("\"bounds\":["));
    assert!(json.contains("\"cumulative\":["));
    server.shutdown().unwrap();
}

#[test]
fn debug_dash_is_a_self_contained_page() {
    let (server, _root, _csv) = start("dash");
    let dash = get(server.addr(), "/debug/dash");
    assert_eq!(dash.status, 200);
    assert!(dash
        .header("Content-Type")
        .unwrap()
        .starts_with("text/html"));
    let page = String::from_utf8(dash.body).unwrap();
    assert!(page.contains("/metrics.json"), "dash polls /metrics.json");
    assert!(page.contains("<script>") && page.contains("</html>"));
    assert!(!page.contains("__JEDULE_"), "unfilled placeholder");
    assert!(
        !page.contains("http://") && !page.contains("https://"),
        "dash must not reference any external URL"
    );
    assert!(
        !page.contains("src=") && !page.contains("@import"),
        "dash must not load external assets"
    );
    server.shutdown().unwrap();
}

#[test]
fn debug_log_tails_newest_first_with_filters() {
    let (server, _root, _csv) = start("accesslog");
    let addr = server.addr();
    assert_eq!(get(addr, "/healthz").status, 200);
    assert_eq!(get(addr, "/render?file=sched.csv").status, 200);
    assert_eq!(get(addr, "/render?file=missing.csv").status, 404);

    let tail = get(addr, "/debug/log?n=10");
    assert_eq!(tail.status, 200);
    assert_eq!(tail.header("Content-Type"), Some("application/x-ndjson"));
    let body = String::from_utf8(tail.body).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 3, "three requests so far: {body}");
    // Newest first: the 404 tops the tail, the healthz closes it.
    assert!(lines[0].contains("\"status\":404"));
    assert!(lines[0].contains("\"cache\":\"error\""));
    assert!(lines[2].contains("/healthz"));
    for line in &lines {
        assert!(line.starts_with("{\"id\":"), "JSONL record: {line}");
        assert!(line.ends_with('}'), "JSONL record: {line}");
        assert!(line.contains("\"ts_ms\":") && line.contains("\"dur_us\":"));
    }
    // The ids in the tail resolve at /debug/trace/<id>.
    let id: u64 = lines[1]
        .split("\"id\":")
        .nth(1)
        .unwrap()
        .split(',')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(get(addr, &format!("/debug/trace/{id}")).status, 200);

    // Filters: by status, by path substring, and bad params → 400.
    let by_status = get(addr, "/debug/log?status=404&n=10");
    let body = String::from_utf8(by_status.body).unwrap();
    assert_eq!(body.lines().count(), 1, "{body}");
    assert!(body.contains("missing.csv"));
    let by_path = get(addr, "/debug/log?path=healthz&n=10");
    assert_eq!(String::from_utf8(by_path.body).unwrap().lines().count(), 1);
    assert_eq!(get(addr, "/debug/log?n=junk").status, 400);
    assert_eq!(get(addr, "/debug/log?status=junk").status, 400);
    server.shutdown().unwrap();
}

/// The acceptance invariant: access-log records partition exactly into
/// cache dispositions that agree with the registry counters.
#[test]
fn access_dispositions_partition_and_match_counters() {
    // A one-slot body cache so a pan A→B→A re-renders window A from the
    // tile store — exercising the `tile` disposition alongside the rest.
    let (server, _root, _csv) = start_with("dispo", |c| c.body_cache_cap = Some(1));
    let addr = server.addr();
    let win_a = "/render?file=sched.csv&width=640&window=0:4";
    let win_b = "/render?file=sched.csv&width=640&window=2:6";
    let first = get(addr, win_a);
    assert_eq!(first.status, 200);
    let etag_a = first.header("ETag").unwrap().to_string();
    assert_eq!(get(addr, win_b).status, 200);
    assert_eq!(get(addr, win_a).status, 200); // tile-assisted re-render
    assert_eq!(get(addr, "/healthz").status, 200); // disposition "none"
    assert_eq!(get(addr, "/render?file=nope.csv").status, 404);

    // One revalidation → disposition "revalidated".
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {win_a} HTTP/1.1\r\nHost: t\r\nIf-None-Match: {etag_a}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    assert_eq!(read_framed(&mut stream).status, 304);

    // Snapshot before tailing: the /debug/log request logs itself only
    // after its own response (the tail) has been built.
    let reg = server.registry();
    let records_before = reg.counter_value("jedule_access_log_records_total", &[]);
    let tail = get(addr, "/debug/log?n=100");
    let body = String::from_utf8(tail.body).unwrap();
    let count = |d: &str| {
        body.lines()
            .filter(|l| l.contains(&format!("\"cache\":\"{d}\"")))
            .count() as u64
    };
    let (hit, miss, tile, reval, error, none) = (
        count("hit"),
        count("miss"),
        count("tile"),
        count("revalidated"),
        count("error"),
        count("none"),
    );
    assert_eq!(
        hit + miss + tile + reval + error + none,
        body.lines().count() as u64,
        "every record carries exactly one known disposition: {body}"
    );

    assert_eq!(
        hit,
        reg.counter_value("jedule_render_cache_hits_total", &[])
    );
    assert_eq!(
        miss + tile,
        reg.counter_value("jedule_render_cache_misses_total", &[]),
        "miss and tile dispositions partition the body-cache misses"
    );
    assert_eq!(
        reval,
        reg.counter_value("jedule_render_not_modified_total", &[])
    );
    assert!(tile >= 1, "the pan-back render must be tile-assisted");
    assert_eq!(error, 1);
    assert_eq!(records_before, body.lines().count() as u64);
    server.shutdown().unwrap();
}

#[test]
fn access_log_streams_jsonl_and_slow_requests_pin_traces() {
    let (root_dir, _) = temp_root("logsink_dir");
    let log_path = root_dir.join("access.jsonl");
    let log_str = log_path.to_str().unwrap().to_string();
    let (server, _root, _csv) = start_with("logsink", move |c| {
        c.access_log = Some(log_str);
        c.slow_ms = Some(0); // every request counts as slow
    });
    let addr = server.addr();
    assert_eq!(get(addr, "/render?file=sched.csv").status, 200);
    assert_eq!(get(addr, "/healthz").status, 200);
    server.shutdown().unwrap();

    let streamed = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = streamed.lines().collect();
    assert_eq!(lines.len(), 2, "{streamed}");
    for line in &lines {
        assert!(line.starts_with("{\"id\":"), "well-formed JSONL: {line}");
        assert!(
            line.contains("\"slow\":true"),
            "slow-ms 0 marks all: {line}"
        );
        assert!(line.contains("\"stages_us\":{"), "per-stage micros: {line}");
    }
    assert!(lines[0].contains("\"opt\":"), "render records its opt key");
}

/// Satellite (b): responses the event loop generates without ever
/// reaching `handle_request` (malformed head → 400) still carry a
/// request id that resolves at `/debug/trace/<id>` and appears in the
/// access log under the `loop` route.
#[test]
fn loop_generated_errors_stay_correlatable() {
    let (server, _root, _csv) = start("looperr");
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"BOGUS nonsense\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let head = String::from_utf8_lossy(&raw);
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    let id: u64 = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Jedule-Request-Id: "))
        .expect("error response carries a request id")
        .trim()
        .parse()
        .unwrap();

    let trace = get(addr, &format!("/debug/trace/{id}"));
    assert_eq!(trace.status, 200, "loop 400 must leave a trace");
    assert!(String::from_utf8(trace.body)
        .unwrap()
        .contains("serve.loop_error"));

    let tail = get(addr, "/debug/log?status=400&n=10");
    let body = String::from_utf8(tail.body).unwrap();
    assert!(body.contains("(head-parse)"), "{body}");
    assert!(body.contains(&format!("\"id\":{id}")), "{body}");
    assert_eq!(
        server.registry().counter_value(
            "jedule_http_requests_total",
            &[("route", "loop"), ("status", "400")]
        ),
        1
    );
    server.shutdown().unwrap();
}
