//! # jedule-serve
//!
//! `jedule serve` — a resident render service over the batch pipeline
//! (DESIGN.md §6b/§6c). Where the CLI's observability is post-mortem
//! (one run, one span tree, one export), a long-lived process needs
//! *live* operational telemetry; this crate pairs a std-only HTTP/1.1
//! server with the continuous [`Registry`] in `jedule_core::obs`:
//!
//! * `GET /healthz` — liveness probe;
//! * `GET /render?file=…&fmt=svg|png&window=t0:t1&lod=…&width=…` —
//!   renders a schedule from the allow-listed root directory. Requests
//!   flow through a stack of caches: a stat-validated input digest
//!   cache, `ETag`/`If-None-Match` revalidation (304, no body), a
//!   rendered-body cache keyed on (digest, options), a
//!   [`PreparedSchedule`] cache, and the tile cache ([`tile`]) that
//!   reassembles figures from cached shards when the body cache
//!   misses;
//! * `GET /metrics` — Prometheus text exposition: request counters by
//!   route/status, latency histograms, cache hit/miss counters, and
//!   per-stage duration histograms aggregated from every request's
//!   span tree;
//! * `GET /debug/trace/<request-id>` — the Chrome trace-event JSON of
//!   one of the last `trace_keep` requests (ids are echoed on every
//!   response in `X-Jedule-Request-Id`), loadable in Perfetto.
//!
//! On Linux the socket layer is the epoll event loop in
//! [`event_loop`]: one thread multiplexes every connection
//! (keep-alive, pipelining, idle sweep) and a worker pool only
//! renders. Elsewhere a threaded keep-alive fallback serves one
//! connection per worker. Shutdown is graceful either way:
//! SIGTERM/SIGINT (or a programmatic flag) stops accepting, in-flight
//! requests drain, workers join, and the CLI then flushes a final
//! metrics snapshot.

pub mod cache;
#[cfg(target_os = "linux")]
pub mod epoll;
#[cfg(target_os = "linux")]
pub mod event_loop;
pub mod http;
pub mod ingest;
pub mod signal;
pub mod tile;
pub mod trace_ring;

use cache::LruCache;
use http::{Request, Response};
use jedule_core::obs::{self, AccessLog, AccessRecord, Collector, ObsReport, Registry};
use jedule_core::snap::source_digest;
use jedule_core::PreparedSchedule;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tile::TileStore;
use trace_ring::TraceRing;

/// Server configuration (the `jedule serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8017` (port 0 picks a free one).
    pub addr: String,
    /// Directory inputs are restricted to; `file=` parameters resolve
    /// inside it and may not escape it.
    pub root: PathBuf,
    /// Render worker threads (0 = one per core, at least 4).
    pub workers: usize,
    /// Maximum cached prepared schedules (LRU). Also the default for
    /// the rendered-body cache when `body_cache_cap` is unset.
    pub cache_cap: usize,
    /// Maximum cached rendered bodies (LRU); `None` follows
    /// `cache_cap`. Bodies and prepared schedules have very different
    /// footprints (an encoded PNG vs. a fully indexed million-task
    /// trace), so deployments can size the two independently.
    pub body_cache_cap: Option<usize>,
    /// Maximum cached figure shards in the tile cache (LRU). Sized in
    /// *tiles*, not figures — a window series cycling more views than
    /// `cache_cap` bodies stays warm here.
    pub tile_cache_cap: usize,
    /// Retained per-request span trees for `/debug/trace/<id>`.
    pub trace_keep: usize,
    /// Streams one JSONL access record per request to this path
    /// (`-` = stdout). `None` disables streaming; the in-memory ring
    /// behind `/debug/log` is always on.
    pub access_log: Option<String>,
    /// Retained records in the in-memory access-log ring
    /// (`/debug/log`).
    pub access_log_keep: usize,
    /// Requests slower than this many milliseconds are flagged `slow`
    /// in the access log and their full span tree is pinned in the
    /// trace ring (only other slow requests can evict it).
    pub slow_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:8017".to_string(),
            root: PathBuf::from("."),
            workers: 0,
            cache_cap: 64,
            body_cache_cap: None,
            tile_cache_cap: 1024,
            trace_keep: 32,
            access_log: None,
            access_log_keep: 512,
            slow_ms: None,
        }
    }
}

/// A cached rendered response body (shared — hits never copy).
struct Body {
    bytes: Arc<Vec<u8>>,
    content_type: &'static str,
}

/// A stat-validated content digest: as long as `(mtime, len)` match
/// the file on disk the digest is reused without re-reading, which is
/// what keeps 304 revalidations sub-millisecond on large traces.
struct FileDigest {
    mtime: std::time::SystemTime,
    len: u64,
    digest: u64,
}

struct State {
    root: PathBuf,
    registry: Registry,
    traces: TraceRing,
    prepared: LruCache<u64, PreparedSchedule<'static>>,
    bodies: LruCache<(u64, String), Body>,
    tiles: TileStore,
    digests: LruCache<PathBuf, FileDigest>,
    next_id: Arc<AtomicU64>,
    started: Instant,
    /// Bounded ring of per-request access records (`/debug/log`).
    access: AccessLog,
    /// Optional JSONL stream (`--access-log <file|->`), line-buffered
    /// per record so a tailing consumer sees requests as they finish.
    access_sink: Option<Mutex<Box<dyn std::io::Write + Send>>>,
    /// `--slow-ms` threshold, in microseconds.
    slow_us: Option<f64>,
}

/// A bound, not-yet-running server. [`Server::run`] blocks the calling
/// thread; [`Server::spawn`] runs it on a background thread and hands
/// back a [`ServerHandle`] (the shape tests and the bench use).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    workers: usize,
    state: Arc<State>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener and prepares shared state. The root directory
    /// must exist (it is canonicalized once here; per-request paths are
    /// canonicalized against it to stop traversal escapes).
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        let root = config
            .root
            .canonicalize()
            .map_err(|e| format!("serve root {}: {e}", config.root.display()))?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let registry = Registry::new();
        describe_metrics(&registry);
        let workers = if config.workers == 0 {
            jedule_core::parallel::effective_threads(0).max(4)
        } else {
            config.workers
        };
        // Build/identity metrics exist from the first scrape on, not
        // only after the first request.
        registry.gauge_set(
            "jedule_build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                (
                    "profile",
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    },
                ),
            ],
            1.0,
        );
        registry.gauge_set("jedule_uptime_seconds", &[], 0.0);
        registry.gauge_set("jedule_render_workers", &[], workers as f64);
        let access_sink: Option<Mutex<Box<dyn std::io::Write + Send>>> = match &config.access_log {
            None => None,
            Some(s) if s == "-" => Some(Mutex::new(Box::new(std::io::stdout()))),
            Some(p) => {
                let f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p)
                    .map_err(|e| format!("access log {p}: {e}"))?;
                Some(Mutex::new(Box::new(f)))
            }
        };
        Ok(Server {
            listener,
            addr,
            workers,
            state: Arc::new(State {
                root,
                registry,
                traces: TraceRing::new(config.trace_keep),
                prepared: LruCache::new(config.cache_cap),
                bodies: LruCache::new(config.body_cache_cap.unwrap_or(config.cache_cap)),
                tiles: TileStore::new(config.tile_cache_cap),
                digests: LruCache::new(config.cache_cap.max(64)),
                next_id: Arc::new(AtomicU64::new(0)),
                started: Instant::now(),
                access: AccessLog::new(config.access_log_keep),
                access_sink,
                slow_us: config.slow_ms.map(|ms| ms as f64 * 1e3),
            }),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The process-lifetime metrics registry (shared clone).
    pub fn registry(&self) -> Registry {
        self.state.registry.clone()
    }

    /// The flag that stops [`Server::run`]; hand it to
    /// [`signal::install_term_handler`] for SIGTERM wiring.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serves until the shutdown flag is set, then drains: in-flight
    /// requests finish, workers join, and the method returns for the
    /// caller's final flush. On Linux this is the epoll event loop;
    /// elsewhere, a threaded keep-alive accept loop.
    pub fn run(self) -> Result<(), String> {
        #[cfg(target_os = "linux")]
        {
            let state = Arc::clone(&self.state);
            let handler: event_loop::Handler =
                Arc::new(move |id, req| handle_request(&state, id, req));
            let loop_state = Arc::clone(&self.state);
            let telemetry = event_loop::LoopTelemetry {
                registry: self.state.registry.clone(),
                on_loop_response: Arc::new(move |id, status, detail| {
                    record_loop_response(&loop_state, id, status, detail)
                }),
            };
            event_loop::run(
                self.listener,
                self.workers,
                self.shutdown,
                Arc::clone(&self.state.next_id),
                handler,
                Some(telemetry),
            )
        }
        #[cfg(not(target_os = "linux"))]
        {
            run_threaded(self.listener, self.workers, self.shutdown, self.state)
        }
    }

    /// Runs the server on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let registry = self.registry();
        let shutdown = self.shutdown_flag();
        let join = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            registry,
            shutdown,
            join,
        }
    }
}

/// Handle to a running background server (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    registry: Registry,
    shutdown: Arc<AtomicBool>,
    join: std::thread::JoinHandle<Result<(), String>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn registry(&self) -> Registry {
        self.registry.clone()
    }

    /// Requests graceful shutdown and waits for the drain to finish.
    pub fn shutdown(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

/// The non-Linux fallback: a worker pool of blocking keep-alive
/// connection loops behind a polling accept loop.
#[cfg(not(target_os = "linux"))]
fn run_threaded(
    listener: TcpListener,
    workers: usize,
    shutdown: Arc<AtomicBool>,
    state: Arc<State>,
) -> Result<(), String> {
    use std::sync::{mpsc, Mutex};
    let (tx, rx) = mpsc::channel::<std::net::TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let mut joins = Vec::with_capacity(workers);
    for _ in 0..workers {
        let rx = Arc::clone(&rx);
        let state = Arc::clone(&state);
        joins.push(std::thread::spawn(move || loop {
            let next = rx.lock().unwrap().recv();
            match next {
                Ok(stream) => handle_connection(&state, stream),
                Err(_) => break, // sender dropped: drained, shut down
            }
        }));
    }
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("accept: {e}")),
        }
    }
    drop(tx);
    for j in joins {
        let _ = j.join();
    }
    Ok(())
}

/// Serves one blocking connection until the peer closes or opts out of
/// keep-alive (the non-Linux path).
#[cfg(not(target_os = "linux"))]
fn handle_connection(state: &State, mut stream: std::net::TcpStream) {
    use std::io::Write;
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    loop {
        let req = match http::read_request(&mut stream) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(e) => {
                let id = state.next_id.fetch_add(1, Ordering::SeqCst) + 1;
                let _ = stream.write_all(&Response::text(400, e + "\n").encode(id, false));
                record_loop_response(state, id, 400, "head-parse");
                return;
            }
        };
        let id = state.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let resp = handle_request(state, id, &req);
        let keep_alive = req.keep_alive;
        if stream.write_all(&resp.encode(id, keep_alive)).is_err() || !keep_alive {
            return;
        }
    }
}

fn describe_metrics(r: &Registry) {
    r.describe(
        "jedule_http_requests_total",
        "HTTP requests served, by route and status code",
    );
    r.describe(
        "jedule_http_request_duration_seconds",
        "End-to-end request latency, by route",
    );
    r.describe(
        "jedule_render_cache_hits_total",
        "Render requests answered from the rendered-body cache",
    );
    r.describe(
        "jedule_render_cache_misses_total",
        "Render requests that had to assemble or render output",
    );
    r.describe(
        "jedule_render_not_modified_total",
        "Render revalidations answered 304 from the ETag alone",
    );
    r.describe(
        "jedule_prepared_cache_hits_total",
        "Render requests that reused a cached PreparedSchedule",
    );
    r.describe(
        "jedule_prepared_cache_misses_total",
        "Render requests that ingested and prepared a schedule",
    );
    r.describe(
        "jedule_pack_sidecar_total",
        "Prepared-cache misses that probed a .jpack sidecar, by result",
    );
    r.describe(
        "jedule_tile_cache_hits_total",
        "Figure shards served from the tile cache, by format",
    );
    r.describe(
        "jedule_tile_cache_misses_total",
        "Figure shards rendered on a tile-cache miss, by format",
    );
    r.describe(
        "jedule_tile_lookups_total",
        "Tile-cache lookups (exactly hits + misses), by format",
    );
    r.describe(
        "jedule_plan_cache_hits_total",
        "Assemblies that reused a cached render plan (no layout)",
    );
    r.describe(
        "jedule_plan_cache_misses_total",
        "Assemblies that laid the scene out to build a plan",
    );
    r.describe(
        "jedule_stage_duration_seconds",
        "Per-stage durations aggregated from request span trees",
    );
    r.describe(
        "jedule_inflight_requests",
        "Requests currently being handled",
    );
    r.describe("jedule_uptime_seconds", "Seconds since the server started");
    r.describe(
        "jedule_render_cache_entries",
        "Rendered bodies currently cached",
    );
    r.describe(
        "jedule_prepared_cache_entries",
        "Prepared schedules currently cached",
    );
    r.describe(
        "jedule_tile_cache_entries",
        "Figure shards currently cached",
    );
    r.describe("jedule_plan_cache_entries", "Render plans currently cached");
    r.describe(
        "jedule_build_info",
        "Constant 1, with the build identity in the labels",
    );
    r.describe("jedule_render_workers", "Render worker threads in the pool");
    r.describe(
        "jedule_busy_workers",
        "Workers currently inside the request handler",
    );
    r.describe(
        "jedule_render_queue_depth",
        "Parsed requests queued for a worker",
    );
    r.describe(
        "jedule_render_queue_wait_seconds",
        "Time a parsed request waited in the render queue",
    );
    r.describe(
        "jedule_wake_dispatch_seconds",
        "Worker eventfd signal to event-loop response dispatch",
    );
    r.describe(
        "jedule_worker_job_seconds",
        "Handler time per job (sum/uptime*workers = busy fraction)",
    );
    r.describe(
        "jedule_connections",
        "Open connections by state (reading/busy/writing)",
    );
    r.describe(
        "jedule_connections_accepted_total",
        "Connections accepted since start",
    );
    r.describe(
        "jedule_connection_requests",
        "Responses served per connection (keep-alive reuse depth)",
    );
    r.describe(
        "jedule_idle_closed_total",
        "Connections closed by the idle sweep",
    );
    r.describe(
        "jedule_access_log_records_total",
        "Access records pushed into the /debug/log ring",
    );
}

/// Bounded-cardinality route label for metrics.
fn route_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/metrics.json" => "/metrics.json",
        "/render" => "/render",
        "/explore" => "/explore",
        "/meta" => "/meta",
        "/" => "/",
        "/debug/dash" => "/debug/dash",
        "/debug/log" => "/debug/log",
        p if p.starts_with("/debug/trace/") => "/debug/trace",
        _ => "other",
    }
}

/// The worker-side request handler: routing wrapped in per-request
/// instrumentation (span tree, counters, latency, trace retention).
/// Socket IO happens elsewhere — the event loop on Linux, the
/// connection loop otherwise.
fn handle_request(state: &State, request_id: u64, req: &Request) -> Response {
    state
        .registry
        .gauge_add("jedule_inflight_requests", &[], 1.0);
    let started = Instant::now();

    let col = Collector::new();
    let resp = {
        let _g = col.install();
        let _root = col.span_with("serve.request", format!("{} {}", req.method, req.path));
        // A panicking handler must cost one 500, not a worker thread.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(state, req)))
            .unwrap_or_else(|_| Response::text(500, "internal error (see server log)\n"))
    };

    let label = route_label(&req.path);
    let status = resp.status.to_string();
    state.registry.counter_add(
        "jedule_http_requests_total",
        &[("route", label), ("status", &status)],
        1,
    );
    let dur = started.elapsed();
    state.registry.observe(
        "jedule_http_request_duration_seconds",
        &[("route", label)],
        dur.as_secs_f64(),
    );
    let report = col.report();
    state.registry.absorb(&report);

    // Distill the request into one access record: per-stage micros from
    // the span tree, the canonical option key from the figure span's
    // detail, and the cache disposition from the one-shot counters.
    let dur_us = dur.as_secs_f64() * 1e6;
    let slow = state.slow_us.is_some_and(|t| dur_us >= t);
    let mut stages: BTreeMap<&str, f64> = BTreeMap::new();
    for s in &report.spans {
        *stages.entry(s.name).or_insert(0.0) += s.dur_us;
    }
    let opt_key = report
        .spans
        .iter()
        .find(|s| s.name == "serve.figure")
        .and_then(|s| s.detail.clone())
        .unwrap_or_default();
    emit_access(
        state,
        AccessRecord {
            id: request_id,
            unix_ms: unix_ms_now(),
            method: req.method.clone(),
            path: request_target(req),
            opt_key,
            status: resp.status,
            disposition: disposition(resp.status, &report).to_string(),
            dur_us,
            bytes: resp.body.len() as u64,
            stages_us: stages
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            slow,
        },
    );
    // A slow request's span tree is pinned: a burst of fast requests
    // cannot evict the trace the operator will actually ask for.
    state.traces.push_shared(request_id, Arc::new(report), slow);
    state
        .registry
        .gauge_add("jedule_inflight_requests", &[], -1.0);
    resp
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Classifies a finished request for the access log. For 200 figure
/// responses the categories partition exactly against the registry
/// counters: `hit` ↔ `jedule_render_cache_hits_total`, `revalidated` ↔
/// `jedule_render_not_modified_total`, and `miss` + `tile` ↔
/// `jedule_render_cache_misses_total` (`tile` = the body was assembled
/// with at least one warm shard). Errors are `error`; endpoints that
/// produce no figure are `none`.
/// The request line's target rebuilt from the decoded path and query —
/// `Request` does not keep the raw form, and the access log wants the
/// whole thing so `/debug/log?path=` can filter on inputs.
fn request_target(req: &Request) -> String {
    let mut target = req.path.clone();
    for (i, (k, v)) in req.query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        target.push_str(k);
        if !v.is_empty() {
            target.push('=');
            target.push_str(v);
        }
    }
    target
}

fn disposition(status: u16, report: &ObsReport) -> &'static str {
    if status >= 400 {
        "error"
    } else if report.counter("serve.not_modified") > 0 {
        "revalidated"
    } else if report.counter("serve.body_cache_hit") > 0 {
        "hit"
    } else if report.counter("serve.body_cache_miss") > 0 {
        if report.counter("serve.tile_hit") > 0 {
            "tile"
        } else {
            "miss"
        }
    } else {
        "none"
    }
}

/// Pushes a record into the ring and streams it as one JSONL line when
/// `--access-log` is set.
fn emit_access(state: &State, record: AccessRecord) {
    if let Some(sink) = &state.access_sink {
        let line = record.to_jsonl();
        let mut w = sink.lock().unwrap();
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
    state.access.push(record);
    state
        .registry
        .counter_add("jedule_access_log_records_total", &[], 1);
}

/// Records a loop-generated response (head-parse 400, oversize 400,
/// idle-sweep 408) that never reached [`handle_request`]: it is counted
/// under the `loop` route, access-logged with disposition `error`, and
/// given a minimal trace so `X-Jedule-Request-Id` still correlates with
/// `/debug/trace/<id>` and `/debug/log`.
fn record_loop_response(state: &State, request_id: u64, status: u16, detail: &'static str) {
    let status_str = status.to_string();
    state.registry.counter_add(
        "jedule_http_requests_total",
        &[("route", "loop"), ("status", &status_str)],
        1,
    );
    let col = Collector::new();
    {
        let _g = col.install();
        let _s = col.span_with("serve.loop_error", detail);
    }
    emit_access(
        state,
        AccessRecord {
            id: request_id,
            unix_ms: unix_ms_now(),
            method: "-".to_string(),
            path: format!("({detail})"),
            opt_key: String::new(),
            status,
            disposition: "error".to_string(),
            dur_us: 0.0,
            bytes: 0,
            stages_us: Vec::new(),
            slow: false,
        },
    );
    state.traces.push(request_id, col.report());
}

const INDEX: &str = "\
jedule serve — render service

  GET /healthz                         liveness probe
  GET /render?file=F&fmt=svg|png       render a schedule under the root
        [&window=t0:t1][&lod=auto|off|force][&width=px]
        responses carry an ETag; revalidate with If-None-Match for 304
  GET /explore?file=F[&width=px]       interactive HTML explorer shell
        with &tile=1 (+ the /render params): one window/LOD SVG tile,
        byte-identical to /render for the same parameters
  GET /meta?file=F[&width=px]          figure metadata JSON (extents,
        clusters/hosts, task count, kinds) the explorer boots from
  GET /metrics                         Prometheus text exposition
  GET /metrics.json                    the same snapshot as key-sorted JSON
  GET /debug/dash                      self-contained live dashboard (polls
        /metrics.json; qps, latency percentiles, cache tiers, queue depth)
  GET /debug/log[?n=N][&status=S][&path=substr]
        recent access records as JSONL, newest first
  GET /debug/trace/<request-id>        Chrome trace JSON of a recent request

Connections are persistent (HTTP/1.1 keep-alive, pipelining allowed).
";

fn route(state: &State, req: &Request) -> Response {
    if req.method != "GET" {
        return Response::text(405, "only GET is supported\n");
    }
    match req.path.as_str() {
        "/" => Response::text(200, INDEX),
        "/healthz" => Response::text(200, "ok\n"),
        "/metrics" => handle_metrics(state),
        "/metrics.json" => handle_metrics_json(state),
        "/debug/dash" => handle_dash(),
        "/debug/log" => handle_log(state, req),
        "/render" => match handle_render(state, req) {
            Ok(resp) => resp,
            Err(resp) => resp,
        },
        "/explore" => match handle_explore(state, req) {
            Ok(resp) => resp,
            Err(resp) => resp,
        },
        "/meta" => match handle_meta(state, req) {
            Ok(resp) => resp,
            Err(resp) => resp,
        },
        p => match p.strip_prefix("/debug/trace/") {
            Some(id) => handle_trace(state, id),
            None => Response::text(404, "not found; see / for the route list\n"),
        },
    }
}

/// Refreshes the point-in-time gauges both metrics endpoints snapshot,
/// so `/metrics` and `/metrics.json` always expose the same families.
fn set_runtime_gauges(state: &State) {
    let r = &state.registry;
    r.gauge_set(
        "jedule_uptime_seconds",
        &[],
        state.started.elapsed().as_secs_f64(),
    );
    r.gauge_set(
        "jedule_render_cache_entries",
        &[],
        state.bodies.len() as f64,
    );
    r.gauge_set(
        "jedule_prepared_cache_entries",
        &[],
        state.prepared.len() as f64,
    );
    r.gauge_set(
        "jedule_tile_cache_entries",
        &[],
        state.tiles.tiles_len() as f64,
    );
    r.gauge_set(
        "jedule_plan_cache_entries",
        &[],
        state.tiles.plans_len() as f64,
    );
}

fn handle_metrics(state: &State) -> Response {
    let _s = obs::span("serve.metrics_encode");
    set_runtime_gauges(state);
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body: Arc::new(state.registry.render_prometheus().into_bytes()),
        etag: None,
    }
}

/// `/metrics.json` — the registry snapshot as key-sorted JSON, same
/// families and series as the text exposition (the dash polls this).
fn handle_metrics_json(state: &State) -> Response {
    let _s = obs::span("serve.metrics_encode");
    set_runtime_gauges(state);
    Response {
        status: 200,
        content_type: "application/json",
        body: Arc::new(state.registry.render_json().into_bytes()),
        etag: None,
    }
}

/// `/debug/dash` — a single compiled-in, dependency-free HTML page
/// (same discipline as the explorer template: zero external requests).
/// All live data arrives by polling `/metrics.json` from the page.
fn handle_dash() -> Response {
    const DASH: &str = include_str!("dash.html");
    Response::bytes(200, "text/html; charset=utf-8", DASH.as_bytes().to_vec())
}

/// `/debug/log?n=&status=&path=` — tails the access-record ring as
/// JSONL, newest first.
fn handle_log(state: &State, req: &Request) -> Response {
    let n = match req.param("n") {
        None => 100,
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Response::text(400, format!("n: cannot parse {v:?}\n")),
        },
    };
    let status = match req.param("status") {
        None => None,
        Some(v) => match v.parse::<u16>() {
            Ok(s) => Some(s),
            Err(_) => return Response::text(400, format!("status: cannot parse {v:?}\n")),
        },
    };
    let mut out = String::new();
    for rec in state.access.tail(n, status, req.param("path")) {
        out.push_str(&rec.to_jsonl());
        out.push('\n');
    }
    Response::bytes(200, "application/x-ndjson", out.into_bytes())
}

fn handle_trace(state: &State, id: &str) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::text(400, "trace id must be a decimal request id\n");
    };
    match state.traces.get(id) {
        Some(report) => Response {
            status: 200,
            content_type: "application/json",
            body: Arc::new(report.to_chrome_trace().into_bytes()),
            etag: None,
        },
        None => Response::text(
            404,
            format!(
                "no retained trace for request {id}; retained ids: {:?}\n",
                state.traces.ids()
            ),
        ),
    }
}

/// Parses and bounds a `width` query parameter (shared by `/render`,
/// `/explore` and `/meta`, so every endpoint accepts the same range).
fn parse_width(width: Option<&str>) -> Result<f64, String> {
    let width: f64 = match width {
        None => 800.0,
        Some(w) => w
            .parse()
            .map_err(|_| format!("width: cannot parse {w:?}"))?,
    };
    if !(64.0..=8192.0).contains(&width) {
        return Err(format!("width {width} outside 64..=8192"));
    }
    Ok(width)
}

/// The parsed, canonicalized render parameters: the options to render
/// with plus the canonical cache-key string they serialize to.
pub fn render_options_from_params(
    fmt: Option<&str>,
    width: Option<&str>,
    window: Option<&str>,
    lod: Option<&str>,
) -> Result<(jedule_render::RenderOptions, String), String> {
    use jedule_render::{LodMode, OutputFormat, RenderOptions};
    let fmt = fmt.unwrap_or("svg");
    let format = match fmt.to_ascii_lowercase().as_str() {
        "svg" => OutputFormat::Svg,
        "png" => OutputFormat::Png,
        other => return Err(format!("fmt must be svg or png, got {other:?}")),
    };
    let width = parse_width(width)?;
    let time_window = match window {
        None => None,
        Some(w) => {
            let (a, b) = w
                .split_once(':')
                .or_else(|| w.split_once(','))
                .ok_or_else(|| format!("window must be t0:t1, got {w:?}"))?;
            let t0: f64 = a.parse().map_err(|_| format!("window t0: {a:?}"))?;
            let t1: f64 = b.parse().map_err(|_| format!("window t1: {b:?}"))?;
            if t1.partial_cmp(&t0) != Some(std::cmp::Ordering::Greater) {
                return Err(format!("window end {t1} must exceed start {t0}"));
            }
            Some((t0, t1))
        }
    };
    let lod = match lod {
        None => LodMode::Auto,
        Some(l) => LodMode::parse(l).ok_or_else(|| format!("lod must be auto|off|force: {l:?}"))?,
    };
    // One request = one deterministic sequential render (threads: 1);
    // service parallelism comes from concurrent requests, and pinning
    // the encoder keeps bodies byte-identical across worker counts.
    let opts = RenderOptions {
        format,
        width,
        time_window,
        lod,
        threads: 1,
        ..RenderOptions::default()
    };
    let key = format!(
        "fmt={};w={width};lod={lod:?};window={}",
        if format == jedule_render::OutputFormat::Png {
            "png"
        } else {
            "svg"
        },
        match time_window {
            Some((a, b)) => format!("{a}:{b}"),
            None => "full".to_string(),
        }
    );
    Ok((opts, key))
}

/// Resolves `file` strictly inside `root`. Rejects absolute paths and
/// parent components before touching the filesystem, then double-checks
/// the canonicalized result still lives under the canonicalized root
/// (symlinks cannot escape either).
pub fn resolve_under_root(root: &Path, file: &str) -> Result<PathBuf, String> {
    let rel = Path::new(file);
    if rel.is_absolute()
        || rel
            .components()
            .any(|c| matches!(c, Component::ParentDir | Component::Prefix(_)))
    {
        return Err(format!(
            "file {file:?} must be a relative path inside the serve root"
        ));
    }
    let joined = root.join(rel);
    let canon = joined
        .canonicalize()
        .map_err(|e| format!("file {file:?}: {e}"))?;
    if !canon.starts_with(root) {
        return Err(format!("file {file:?} escapes the serve root"));
    }
    Ok(canon)
}

/// The strong validator for a render response:
/// `"<content digest>-<option-key digest>"`. Same input bytes + same
/// canonical options ⇒ same body ⇒ same ETag.
fn etag_for(digest: u64, opt_key: &str) -> String {
    format!(
        "\"{digest:016x}-{:016x}\"",
        source_digest(opt_key.as_bytes())
    )
}

/// The input's content digest, re-reading the file only when its
/// `(mtime, len)` stat changed since the cached digest was computed.
/// Returns the source text too when the validation forced a read, so
/// the caller can parse without a second read.
fn digest_for(state: &State, path: &Path) -> Result<(u64, Option<String>), Response> {
    let meta = std::fs::metadata(path)
        .map_err(|e| Response::text(404, format!("{}: {e}\n", path.display())))?;
    let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
    let len = meta.len();
    let key = path.to_path_buf();
    if let Some(d) = state.digests.get(&key) {
        if d.mtime == mtime && d.len == len {
            obs::count("serve.digest_cache_hit", 1);
            return Ok((d.digest, None));
        }
    }
    let src = {
        let _s = obs::span("serve.read");
        std::fs::read_to_string(path)
            .map_err(|e| Response::text(404, format!("{}: {e}\n", path.display())))?
    };
    obs::count("serve.bytes_read", src.len() as u64);
    let digest = source_digest(src.as_bytes());
    state
        .digests
        .insert(key, Arc::new(FileDigest { mtime, len, digest }));
    Ok((digest, Some(src)))
}

/// Probes the input's `.jpack` sidecar on a prepared-cache miss.
/// `Some` only for a well-formed pack whose stored source digest
/// matches the current content digest. A stale sidecar (the input
/// changed since it was packed, or another format version) is skipped
/// silently; a corrupt one is skipped too — the server only ever
/// *reads* sidecars, so rebuilding is the operator's move (`jedule
/// pack`). Every outcome is counted.
fn load_pack_sidecar(
    state: &State,
    path: &Path,
    digest: u64,
) -> Option<jedule_core::snap::PackedSchedule> {
    let sidecar = jedule_core::snap::sidecar_path(path);
    if !sidecar.exists() {
        return None;
    }
    let (result, packed) = match jedule_core::snap::load_if_fresh(&sidecar, digest) {
        Ok(Some(p)) => ("hit", Some(p)),
        Ok(None) => ("stale", None),
        Err(_) => ("error", None),
    };
    state
        .registry
        .counter_add("jedule_pack_sidecar_total", &[("result", result)], 1);
    obs::count(
        match result {
            "hit" => "serve.pack_sidecar_hit",
            "stale" => "serve.pack_sidecar_stale",
            _ => "serve.pack_sidecar_error",
        },
        1,
    );
    packed
}

/// The prepared bundle for an input: prepared-cache hit, fresh `.jpack`
/// sidecar, or cold text ingest — the one acquisition path every
/// figure- or metadata-producing endpoint shares. `src` carries the
/// source text when the digest validation already read the file.
fn prepared_for(
    state: &State,
    path: &Path,
    digest: u64,
    mut src: Option<String>,
) -> Result<Arc<PreparedSchedule<'static>>, Response> {
    match state.prepared.get(&digest) {
        Some(p) => {
            state
                .registry
                .counter_add("jedule_prepared_cache_hits_total", &[], 1);
            Ok(p)
        }
        None => {
            state
                .registry
                .counter_add("jedule_prepared_cache_misses_total", &[], 1);
            // A fresh `.jpack` sidecar beats the text cold path: the
            // content digest just computed is exactly what the pack
            // header stores, so a digest match maps the snapshot
            // instead of parsing + preparing the text.
            match load_pack_sidecar(state, path, digest) {
                Some(packed) => Ok(state
                    .prepared
                    .insert(digest, Arc::new(PreparedSchedule::from_pack(packed)))),
                None => {
                    let src = match src.take() {
                        Some(s) => s,
                        None => {
                            let _s = obs::span("serve.read");
                            std::fs::read_to_string(path).map_err(|e| {
                                Response::text(404, format!("{}: {e}\n", path.display()))
                            })?
                        }
                    };
                    let schedule = ingest::parse_schedule(&src, path)
                        .map_err(|e| Response::text(400, e + "\n"))?;
                    Ok(state
                        .prepared
                        .insert(digest, Arc::new(PreparedSchedule::new(schedule))))
                }
            }
        }
    }
}

/// The one figure pipeline behind `/render` and `/explore?tile=1`:
/// digest → ETag revalidation → body cache → prepared schedule → tile
/// assembly. Both endpoints call exactly this with the same canonical
/// option key, so a tile fetched by the explorer is byte-identical to
/// the `/render` response for the same (fmt, width, window, lod) — and
/// warms the same caches.
fn figure_response(
    state: &State,
    req: &Request,
    path: &Path,
    opts: &jedule_render::RenderOptions,
    opt_key: &str,
) -> Result<Response, Response> {
    // The span detail carries the canonical option key up to the
    // access log (and times the whole figure pipeline as one stage).
    let _fig = obs::span_with("serve.figure", || opt_key.to_string());
    let content_type: &'static str = match opts.format {
        jedule_render::OutputFormat::Png => "image/png",
        _ => "image/svg+xml",
    };

    let (digest, src) = digest_for(state, path)?;
    let etag = etag_for(digest, opt_key);

    // Revalidation first: a matching ETag needs no body, no cache
    // lookup, not even a file read (the digest cache is stat-validated)
    // — this is the sub-millisecond 304 path. 304s sit outside the
    // hit/miss partition, which covers 200 responses only.
    if req.if_none_match(&etag) {
        state
            .registry
            .counter_add("jedule_render_not_modified_total", &[], 1);
        obs::count("serve.not_modified", 1);
        return Ok(Response::not_modified(content_type, etag));
    }

    // Exactly one of hits/misses per 200 render — the pair partitions
    // the figure-producing 200 responses minus revalidations, even when
    // concurrent misses race on the same key.
    if let Some(body) = state.bodies.get(&(digest, opt_key.to_string())) {
        state
            .registry
            .counter_add("jedule_render_cache_hits_total", &[], 1);
        obs::count("serve.body_cache_hit", 1);
        return Ok(
            Response::shared(200, body.content_type, Arc::clone(&body.bytes)).with_etag(etag),
        );
    }
    state
        .registry
        .counter_add("jedule_render_cache_misses_total", &[], 1);
    obs::count("serve.body_cache_miss", 1);

    let prepared = prepared_for(state, path, digest, src)?;

    // Body-cache miss ⇒ assemble from tiles. Warm shards skip layout
    // (SVG: pure concatenation; PNG: concatenate pixels + sequential
    // encode); only missing shards touch the scene, which is laid out
    // at most once, lazily.
    let (bytes, ct) = {
        let _s = obs::span("serve.render");
        state
            .tiles
            .render(&state.registry, digest, opts, opt_key, &mut |scratch| {
                let _s = obs::span("render.layout");
                jedule_render::layout_prepared_scratch(&prepared, opts, scratch)
            })
    };
    obs::count("serve.bytes_rendered", bytes.len() as u64);
    let bytes = Arc::new(bytes);
    state.bodies.insert(
        (digest, opt_key.to_string()),
        Arc::new(Body {
            bytes: Arc::clone(&bytes),
            content_type: ct,
        }),
    );
    Ok(Response::shared(200, ct, bytes).with_etag(etag))
}

/// Extracts the required `file` parameter and resolves it under the
/// serve root (shared by every figure endpoint).
fn resolve_file_param<'a>(
    state: &State,
    req: &'a Request,
    what: &str,
) -> Result<(&'a str, PathBuf), Response> {
    let file = req.param("file").ok_or_else(|| {
        Response::text(
            400,
            format!("{what} needs ?file=<path under the serve root>\n"),
        )
    })?;
    let path = resolve_under_root(&state.root, file).map_err(|e| Response::text(404, e + "\n"))?;
    Ok((file, path))
}

fn handle_render(state: &State, req: &Request) -> Result<Response, Response> {
    let (_, path) = resolve_file_param(state, req, "render")?;
    let (opts, opt_key) = render_options_from_params(
        req.param("fmt"),
        req.param("width"),
        req.param("window"),
        req.param("lod"),
    )
    .map_err(|msg| Response::text(400, msg + "\n"))?;
    figure_response(state, req, &path, &opts, &opt_key)
}

/// `/explore?file=F[&width=px]` — the interactive explorer. Without
/// `tile`, responds with the shared HTML shell (same template as
/// `--fmt html`, serve boot mode); with `&tile=1` plus the `/render`
/// parameters it is a figure fetch through [`figure_response`] — same
/// caches, same ETags, byte-identical bodies.
fn handle_explore(state: &State, req: &Request) -> Result<Response, Response> {
    let (file, path) = resolve_file_param(state, req, "explore")?;
    if req.param("tile").is_some() {
        let (opts, opt_key) = render_options_from_params(
            req.param("fmt"),
            req.param("width"),
            req.param("window"),
            req.param("lod"),
        )
        .map_err(|msg| Response::text(400, msg + "\n"))?;
        return figure_response(state, req, &path, &opts, &opt_key);
    }
    let width = parse_width(req.param("width")).map_err(|msg| Response::text(400, msg + "\n"))?;
    let shell = jedule_render::html::explore_shell(file, width);
    Ok(Response::bytes(
        200,
        "text/html; charset=utf-8",
        shell.into_bytes(),
    ))
}

/// `/meta?file=F[&width=px]` — the figure-metadata JSON the explorer
/// shell boots from: canvas + panel geometry at `width`, clusters,
/// extents, task count, kind legend, and (small schedules) the task
/// list for tooltips. Flows through the same digest/ETag/body-cache
/// stack as figures, keyed `meta;w=<width>`.
fn handle_meta(state: &State, req: &Request) -> Result<Response, Response> {
    let (_, path) = resolve_file_param(state, req, "meta")?;
    let width = parse_width(req.param("width")).map_err(|msg| Response::text(400, msg + "\n"))?;
    let opt_key = format!("meta;w={width}");
    let _fig = obs::span_with("serve.figure", || opt_key.clone());

    let (digest, src) = digest_for(state, &path)?;
    let etag = etag_for(digest, &opt_key);
    if req.if_none_match(&etag) {
        state
            .registry
            .counter_add("jedule_render_not_modified_total", &[], 1);
        obs::count("serve.not_modified", 1);
        return Ok(Response::not_modified("application/json", etag));
    }
    if let Some(body) = state.bodies.get(&(digest, opt_key.clone())) {
        state
            .registry
            .counter_add("jedule_render_cache_hits_total", &[], 1);
        obs::count("serve.body_cache_hit", 1);
        return Ok(
            Response::shared(200, body.content_type, Arc::clone(&body.bytes)).with_etag(etag),
        );
    }
    state
        .registry
        .counter_add("jedule_render_cache_misses_total", &[], 1);
    obs::count("serve.body_cache_miss", 1);

    let prepared = prepared_for(state, &path, digest, src)?;
    let opts = jedule_render::RenderOptions {
        width,
        threads: 1,
        ..jedule_render::RenderOptions::default()
    };
    let json = {
        let _s = obs::span("serve.meta_encode");
        jedule_render::html::meta_json(&prepared, &opts)
    };
    let bytes = Arc::new(json.into_bytes());
    state.bodies.insert(
        (digest, opt_key),
        Arc::new(Body {
            bytes: Arc::clone(&bytes),
            content_type: "application/json",
        }),
    );
    Ok(Response::shared(200, "application/json", bytes).with_etag(etag))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_labels_are_bounded() {
        assert_eq!(route_label("/render"), "/render");
        assert_eq!(route_label("/debug/trace/17"), "/debug/trace");
        assert_eq!(route_label("/anything/else"), "other");
    }

    #[test]
    fn render_params_defaults_and_errors() {
        let (opts, key) = render_options_from_params(None, None, None, None).unwrap();
        assert_eq!(opts.format, jedule_render::OutputFormat::Svg);
        assert_eq!(opts.width, 800.0);
        assert_eq!(opts.threads, 1);
        assert!(key.contains("fmt=svg") && key.contains("window=full"));
        assert!(render_options_from_params(Some("pdf"), None, None, None).is_err());
        assert!(render_options_from_params(None, Some("10"), None, None).is_err());
        assert!(render_options_from_params(None, None, Some("5:5"), None).is_err());
        assert!(render_options_from_params(None, None, Some("junk"), None).is_err());
        assert!(render_options_from_params(None, None, None, Some("bogus")).is_err());
        let (opts, key) =
            render_options_from_params(Some("png"), Some("640"), Some("1:2"), Some("off")).unwrap();
        assert_eq!(opts.format, jedule_render::OutputFormat::Png);
        assert_eq!(opts.time_window, Some((1.0, 2.0)));
        assert!(key.contains("window=1:2"));
    }

    #[test]
    fn root_resolution_blocks_traversal() {
        let dir = std::env::temp_dir().join("jedule_serve_root_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ok.csv"), "x").unwrap();
        let root = dir.canonicalize().unwrap();
        assert!(resolve_under_root(&root, "ok.csv").is_ok());
        assert!(resolve_under_root(&root, "../etc/passwd").is_err());
        assert!(resolve_under_root(&root, "/etc/passwd").is_err());
        assert!(resolve_under_root(&root, "missing.csv").is_err());
    }

    #[test]
    fn etags_are_strong_and_option_sensitive() {
        let a = etag_for(1, "fmt=svg");
        assert!(a.starts_with('"') && a.ends_with('"'));
        assert_eq!(a, etag_for(1, "fmt=svg"));
        assert_ne!(a, etag_for(1, "fmt=png"));
        assert_ne!(a, etag_for(2, "fmt=svg"));
    }
}
