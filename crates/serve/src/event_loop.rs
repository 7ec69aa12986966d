//! The Linux socket engine: one epoll thread owns every connection,
//! workers only render (DESIGN.md §6c).
//!
//! The previous server burned one thread per in-flight *connection* and
//! closed it after a single exchange; under keep-alive load most worker
//! time went to blocking reads. Here a single event-loop thread
//! multiplexes all sockets through [`crate::epoll`]: it accepts, feeds
//! bytes into per-connection [`RecvBuf`]s, and hands complete parsed
//! requests to a small worker pool over a channel. Workers never touch
//! sockets — they produce a serialized response head plus a shared body
//! (`Arc`, so cached bytes are not copied per request), signal an
//! eventfd, and the loop streams the buffer out, arming `EPOLLOUT` only
//! while a write is actually short.
//!
//! Connection lifecycle: `Reading` (accumulating a head) → `Busy` (one
//! request in flight; pipelined bytes stay buffered and request order
//! is preserved per connection) → `Writing` (draining head + body) →
//! back to `Reading` under keep-alive, or closed. Idle connections are
//! swept after `IDLE_TIMEOUT` (10 s); half-written heads get a best-effort
//! `408`. Shutdown is graceful: the listener is dropped first, reading
//! connections close, busy/writing ones finish, then the job channel
//! closes and the workers join.

#![cfg(target_os = "linux")]

use crate::epoll::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::http::{self, RecvBuf, Request, Response};
use jedule_core::obs::Registry;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Produces the response for one parsed request (the worker-side half;
/// [`crate`] passes the routing/metrics/trace closure).
pub type Handler = Arc<dyn Fn(u64, &Request) -> Response + Send + Sync>;

/// The loop's telemetry sink. The loop and the workers poke gauges and
/// histograms straight into the process [`Registry`], and loop-generated
/// responses (head-parse 400s, oversize 400s, idle-sweep 408s) — which
/// never reach the worker-side handler — are reported through
/// `on_loop_response` so the serve layer can still count, access-log
/// and trace-correlate them.
#[derive(Clone)]
pub struct LoopTelemetry {
    /// Process-lifetime metrics registry.
    pub registry: Registry,
    /// `(request_id, status, detail)` for every loop-generated response.
    pub on_loop_response: Arc<dyn Fn(u64, u16, &'static str) + Send + Sync>,
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Reading connections with no progress for this long are swept.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// epoll_wait tick; bounds shutdown-flag and idle-sweep latency.
const TICK_MS: i32 = 250;

/// Connection-census/queue-depth gauges refresh at most this often, so
/// a hot loop does not pay an O(connections) walk per event batch.
const CENSUS_EVERY: Duration = Duration::from_millis(100);

/// Dispatch-path latency buckets: eventfd wake-to-dispatch and render
/// queue wait sit in the tens of microseconds when healthy; what needs
/// resolving is the tail when the queue backs up.
const DISPATCH_BUCKETS_S: [f64; 10] = [
    0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5,
];

/// Keep-alive reuse-depth buckets (requests answered per connection).
const REUSE_BUCKETS: [f64; 7] = [1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0];

/// A parsed request on its way to a worker.
struct Job {
    token: u64,
    request_id: u64,
    req: Request,
    /// When the loop queued the job (render-queue wait telemetry).
    enqueued: Instant,
}

/// A finished response on its way back to the loop.
struct Done {
    token: u64,
    head: Vec<u8>,
    body: Arc<Vec<u8>>,
    keep_alive: bool,
    /// When the worker signaled the eventfd (wake-to-dispatch latency).
    finished: Instant,
}

/// A partially written response. `pos` indexes the virtual
/// concatenation head ++ body; the body is never copied.
struct OutBuf {
    head: Vec<u8>,
    body: Arc<Vec<u8>>,
    pos: usize,
}

impl OutBuf {
    fn new(head: Vec<u8>, body: Arc<Vec<u8>>) -> OutBuf {
        OutBuf { head, body, pos: 0 }
    }

    /// Writes as much as the socket accepts. `Ok(true)` = fully sent.
    fn write_some(&mut self, stream: &mut TcpStream) -> io::Result<bool> {
        loop {
            let chunk: &[u8] = if self.pos < self.head.len() {
                &self.head[self.pos..]
            } else {
                let off = self.pos - self.head.len();
                if off >= self.body.len() {
                    return Ok(true);
                }
                &self.body[off..]
            };
            match stream.write(chunk) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

enum Phase {
    /// Accumulating a request head.
    Reading,
    /// One request dispatched to the pool; awaiting its `Done`.
    Busy,
    /// Draining a response.
    Writing(OutBuf),
}

struct Conn {
    stream: TcpStream,
    rb: RecvBuf,
    phase: Phase,
    /// Close once the current write completes (`Connection: close`,
    /// parse error, or peer half-closed while we were busy).
    close_after: bool,
    last_activity: Instant,
    /// Responses fully handed to this connection (keep-alive reuse
    /// depth, observed into a histogram when the connection closes).
    served: u64,
}

struct EventLoop {
    ep: Epoll,
    conns: HashMap<u64, Conn>,
    job_tx: mpsc::Sender<Job>,
    next_id: Arc<AtomicU64>,
    next_token: u64,
    telemetry: LoopTelemetry,
    /// Jobs sent to the pool but not yet picked up by a worker.
    queue_depth: Arc<AtomicI64>,
    /// Workers currently inside the handler.
    busy_workers: Arc<AtomicI64>,
    last_census: Instant,
}

/// Runs the epoll server until `shutdown`, then drains. Blocks the
/// calling thread; worker threads are joined before returning.
pub fn run(
    listener: TcpListener,
    workers: usize,
    shutdown: Arc<AtomicBool>,
    next_id: Arc<AtomicU64>,
    handler: Handler,
    telemetry: LoopTelemetry,
) -> Result<(), String> {
    let ep = Epoll::new().map_err(|e| format!("epoll_create1: {e}"))?;
    let wake = Arc::new(EventFd::new().map_err(|e| format!("eventfd: {e}"))?);
    ep.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)
        .map_err(|e| format!("epoll add listener: {e}"))?;
    ep.add(wake.as_raw_fd(), TOKEN_WAKE, EPOLLIN)
        .map_err(|e| format!("epoll add eventfd: {e}"))?;

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let queue_depth = Arc::new(AtomicI64::new(0));
    let busy_workers = Arc::new(AtomicI64::new(0));
    let mut joins = Vec::with_capacity(workers);
    for _ in 0..workers.max(1) {
        let job_rx = Arc::clone(&job_rx);
        let done_tx = done_tx.clone();
        let wake = Arc::clone(&wake);
        let handler = Arc::clone(&handler);
        let registry = telemetry.registry.clone();
        let queue_depth = Arc::clone(&queue_depth);
        let busy_workers = Arc::clone(&busy_workers);
        joins.push(std::thread::spawn(move || loop {
            let job = match job_rx.lock().unwrap().recv() {
                Ok(j) => j,
                Err(_) => break, // sender dropped: drained, shut down
            };
            queue_depth.fetch_sub(1, Ordering::AcqRel);
            busy_workers.fetch_add(1, Ordering::AcqRel);
            registry.observe_with(
                "jedule_render_queue_wait_seconds",
                &[],
                &DISPATCH_BUCKETS_S,
                job.enqueued.elapsed().as_secs_f64(),
            );
            let job_start = Instant::now();
            let resp = handler(job.request_id, &job.req);
            registry.observe(
                "jedule_worker_job_seconds",
                &[],
                job_start.elapsed().as_secs_f64(),
            );
            busy_workers.fetch_sub(1, Ordering::AcqRel);
            let keep_alive = job.req.keep_alive;
            let done = Done {
                token: job.token,
                head: resp.encode_head(job.request_id, keep_alive),
                body: resp.body,
                keep_alive,
                finished: Instant::now(),
            };
            if done_tx.send(done).is_err() {
                break;
            }
            wake.signal();
        }));
    }
    drop(done_tx);

    let mut el = EventLoop {
        ep,
        conns: HashMap::new(),
        job_tx,
        next_id,
        next_token: FIRST_CONN_TOKEN,
        telemetry,
        queue_depth,
        busy_workers,
        last_census: Instant::now(),
    };
    let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
    let mut listener = Some(listener);

    loop {
        if shutdown.load(Ordering::SeqCst) {
            if listener.take().is_some() {
                // Dropping the listener closes its fd, which also
                // removes the epoll registration: no new connections.
            }
            // Reading connections have nothing owed to them; close.
            let idle: Vec<u64> = el
                .conns
                .iter()
                .filter(|(_, c)| matches!(c.phase, Phase::Reading))
                .map(|(t, _)| *t)
                .collect();
            for t in idle {
                el.close_conn(t);
            }
            if el.conns.is_empty() {
                break; // busy + writing all drained
            }
        }

        let n = match el.ep.wait(&mut events, TICK_MS) {
            Ok(n) => n,
            Err(e) => {
                drop(el.job_tx);
                for j in joins {
                    let _ = j.join();
                }
                return Err(format!("epoll_wait: {e}"));
            }
        };
        for ev in &events[..n] {
            let (token, bits) = (ev.data, ev.events);
            match token {
                TOKEN_LISTENER => {
                    if let Some(l) = &listener {
                        el.accept_ready(l);
                    }
                }
                TOKEN_WAKE => wake.drain(),
                _ => el.conn_event(token, bits),
            }
        }
        // Responses can be ready whether or not the eventfd edge was in
        // this batch; always drain the channel.
        while let Ok(done) = done_rx.try_recv() {
            el.on_done(done);
        }
        el.sweep_idle();
        el.publish_census();
    }

    drop(el.job_tx);
    for j in joins {
        let _ = j.join();
    }
    Ok(())
}

impl EventLoop {
    /// Removes a connection, observing its keep-alive reuse depth on
    /// the way out — the one funnel every close path goes through.
    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            if conn.served > 0 {
                self.telemetry.registry.observe_with(
                    "jedule_connection_requests",
                    &[],
                    &REUSE_BUCKETS,
                    conn.served as f64,
                );
            }
        }
    }

    /// Publishes the connection-state census and queue-depth gauges,
    /// rate-limited to [`CENSUS_EVERY`].
    fn publish_census(&mut self) {
        if self.last_census.elapsed() < CENSUS_EVERY {
            return;
        }
        self.last_census = Instant::now();
        let (mut reading, mut busy, mut writing) = (0u64, 0u64, 0u64);
        for c in self.conns.values() {
            match c.phase {
                Phase::Reading => reading += 1,
                Phase::Busy => busy += 1,
                Phase::Writing(_) => writing += 1,
            }
        }
        let r = &self.telemetry.registry;
        r.gauge_set(
            "jedule_connections",
            &[("state", "reading")],
            reading as f64,
        );
        r.gauge_set("jedule_connections", &[("state", "busy")], busy as f64);
        r.gauge_set(
            "jedule_connections",
            &[("state", "writing")],
            writing as f64,
        );
        r.gauge_set(
            "jedule_render_queue_depth",
            &[],
            self.queue_depth.load(Ordering::Acquire).max(0) as f64,
        );
        r.gauge_set(
            "jedule_busy_workers",
            &[],
            self.busy_workers.load(Ordering::Acquire).max(0) as f64,
        );
    }

    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Head and body go out as separate writes; without
                    // NODELAY, Nagle holds the small second write for
                    // the peer's delayed ACK (~40 ms per response).
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .ep
                        .add(stream.as_raw_fd(), token, EPOLLIN | EPOLLRDHUP)
                        .is_err()
                    {
                        continue;
                    }
                    self.telemetry.registry.counter_add(
                        "jedule_connections_accepted_total",
                        &[],
                        1,
                    );
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            rb: RecvBuf::new(),
                            phase: Phase::Reading,
                            close_after: false,
                            last_activity: Instant::now(),
                            served: 0,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn conn_event(&mut self, token: u64, bits: u32) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // closed earlier in this batch
        };
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(token);
            return;
        }
        conn.last_activity = Instant::now();
        match conn.phase {
            Phase::Writing(_) if bits & EPOLLOUT != 0 => self.advance_write(token),
            Phase::Reading if bits & (EPOLLIN | EPOLLRDHUP) != 0 => self.advance_read(token),
            Phase::Busy if bits & EPOLLRDHUP != 0 => {
                // Peer half-closed while we render; still deliver the
                // response, then close instead of re-arming.
                conn.close_after = true;
            }
            _ => {}
        }
    }

    /// Reads whatever the socket has, then tries to produce a request.
    fn advance_read(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut chunk = [0u8; 4096];
        let mut peer_closed = false;
        loop {
            // Never buffer past the head cap: take at most up to it and
            // let `next_request` reject the oversize before more reads.
            let want = chunk
                .len()
                .min(http::MAX_HEAD.saturating_sub(conn.rb.len()));
            if want == 0 {
                break;
            }
            match conn.stream.read(&mut chunk[..want]) {
                Ok(0) => {
                    peer_closed = true;
                    break;
                }
                Ok(n) => conn.rb.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        if peer_closed && self.conns.get(&token).map(|c| c.rb.is_empty()) == Some(true) {
            self.close_conn(token); // clean close between requests
            return;
        }
        self.next_request(token, peer_closed);
    }

    /// Drives a `Reading` connection forward: dispatches a buffered
    /// head, rejects an oversized or truncated one, or (re-)arms
    /// `EPOLLIN` to wait for more bytes.
    fn next_request(&mut self, token: u64, peer_closed: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if let Some(head) = conn.rb.take_head() {
            match http::parse_head(&head) {
                Ok(req) => {
                    let request_id = self.next_id.fetch_add(1, Ordering::SeqCst) + 1;
                    conn.phase = Phase::Busy;
                    // Only peer-close detection while a job is in
                    // flight; pipelined bytes stay queued in `rb`.
                    let _ = self.ep.modify(conn.stream.as_raw_fd(), token, EPOLLRDHUP);
                    self.queue_depth.fetch_add(1, Ordering::AcqRel);
                    if self
                        .job_tx
                        .send(Job {
                            token,
                            request_id,
                            req,
                            enqueued: Instant::now(),
                        })
                        .is_err()
                    {
                        self.queue_depth.fetch_sub(1, Ordering::AcqRel);
                        self.close_conn(token);
                    }
                }
                Err(e) => self.respond_inline(token, Response::text(400, e + "\n"), "head-parse"),
            }
            return;
        }
        if conn.rb.over_cap() {
            self.respond_inline(
                token,
                Response::text(400, "request head exceeds 16 KiB\n"),
                "head-oversize",
            );
        } else if peer_closed {
            self.close_conn(token); // truncated head: nothing to answer
        } else {
            let _ = self
                .ep
                .modify(conn.stream.as_raw_fd(), token, EPOLLIN | EPOLLRDHUP);
        }
    }

    /// Sends a loop-generated response (parse failures, oversize) and
    /// closes afterwards — the framing is unrecoverable. Reported via
    /// `on_loop_response` so the failure is still counted, access-logged
    /// and trace-correlatable even though no worker ever saw it.
    fn respond_inline(&mut self, token: u64, resp: Response, detail: &'static str) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let request_id = self.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let status = resp.status;
        conn.close_after = true;
        conn.served += 1;
        conn.phase = Phase::Writing(OutBuf::new(resp.encode_head(request_id, false), resp.body));
        (self.telemetry.on_loop_response)(request_id, status, detail);
        self.advance_write(token);
    }

    fn on_done(&mut self, done: Done) {
        self.telemetry.registry.observe_with(
            "jedule_wake_dispatch_seconds",
            &[],
            &DISPATCH_BUCKETS_S,
            done.finished.elapsed().as_secs_f64(),
        );
        let Some(conn) = self.conns.get_mut(&done.token) else {
            return; // connection died while rendering
        };
        conn.close_after |= !done.keep_alive;
        conn.served += 1;
        conn.phase = Phase::Writing(OutBuf::new(done.head, done.body));
        conn.last_activity = Instant::now();
        self.advance_write(done.token);
    }

    fn advance_write(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let Phase::Writing(out) = &mut conn.phase else {
            return;
        };
        match out.write_some(&mut conn.stream) {
            Ok(true) => {
                if conn.close_after {
                    self.close_conn(token);
                    return;
                }
                conn.phase = Phase::Reading;
                // A pipelined request may already be buffered; serve it
                // without waiting for another readiness edge.
                self.next_request(token, false);
            }
            Ok(false) => {
                let _ = self
                    .ep
                    .modify(conn.stream.as_raw_fd(), token, EPOLLOUT | EPOLLRDHUP);
            }
            Err(_) => {
                self.close_conn(token);
            }
        }
    }

    /// Closes `Reading` connections idle past [`IDLE_TIMEOUT`]; a
    /// half-sent head gets a best-effort `408` on the way out.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                matches!(c.phase, Phase::Reading)
                    && now.duration_since(c.last_activity) > IDLE_TIMEOUT
            })
            .map(|(t, _)| *t)
            .collect();
        for token in stale {
            let had_partial = self.conns.get(&token).is_some_and(|c| !c.rb.is_empty());
            if had_partial {
                let id = self.next_id.fetch_add(1, Ordering::SeqCst) + 1;
                if let Some(conn) = self.conns.get_mut(&token) {
                    let resp = Response::text(408, "timed out waiting for a complete head\n");
                    let _ = conn.stream.write_all(&resp.encode(id, false));
                    conn.served += 1;
                }
                (self.telemetry.on_loop_response)(id, 408, "idle-timeout");
            }
            self.telemetry
                .registry
                .counter_add("jedule_idle_closed_total", &[], 1);
            self.close_conn(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    type LoopErrors = Arc<Mutex<Vec<(u64, u16, &'static str)>>>;

    /// Telemetry into a fresh registry, recording every loop-generated
    /// response.
    fn recording_telemetry() -> (LoopTelemetry, Registry, LoopErrors) {
        let registry = Registry::new();
        let loop_errors: LoopErrors = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&loop_errors);
        let telemetry = LoopTelemetry {
            registry: registry.clone(),
            on_loop_response: Arc::new(move |id, status, detail| {
                sink.lock().unwrap().push((id, status, detail));
            }),
        };
        (telemetry, registry, loop_errors)
    }

    fn start(
        handler: Handler,
        telemetry: LoopTelemetry,
    ) -> (
        std::net::SocketAddr,
        Arc<AtomicBool>,
        std::thread::JoinHandle<Result<(), String>>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let join = std::thread::spawn(move || {
            run(
                listener,
                2,
                flag,
                Arc::new(AtomicU64::new(0)),
                handler,
                telemetry,
            )
        });
        (addr, shutdown, join)
    }

    fn echo_handler() -> Handler {
        Arc::new(|_id, req: &Request| Response::text(200, format!("path={}\n", req.path)))
    }

    /// Reads one Content-Length-framed response off a buffered stream.
    fn read_response(r: &mut BufReader<TcpStream>) -> (String, Vec<u8>) {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            assert!(r.read_line(&mut line).unwrap() > 0, "peer closed mid-head");
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let mut body = vec![0u8; len];
        std::io::Read::read_exact(r, &mut body).unwrap();
        (head, body)
    }

    #[test]
    fn keep_alive_serves_sequential_and_pipelined_requests() {
        let (addr, shutdown, join) = start(echo_handler(), recording_telemetry().0);
        let stream = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;

        // Two sequential requests on one connection.
        w.write_all(b"GET /a HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (head, body) = read_response(&mut r);
        assert!(head.contains("Connection: keep-alive"));
        assert_eq!(body, b"path=/a\n");
        w.write_all(b"GET /b HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (_, body) = read_response(&mut r);
        assert_eq!(body, b"path=/b\n");

        // Two pipelined requests in one write; responses in order.
        w.write_all(b"GET /p1 HTTP/1.1\r\n\r\nGET /p2 HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let (_, body) = read_response(&mut r);
        assert_eq!(body, b"path=/p1\n");
        let (head, body) = read_response(&mut r);
        assert_eq!(body, b"path=/p2\n");
        assert!(head.contains("Connection: close"));

        shutdown.store(true, Ordering::SeqCst);
        join.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_head_gets_400_and_close() {
        let (addr, shutdown, join) = start(echo_handler(), recording_telemetry().0);
        let mut w = TcpStream::connect(addr).unwrap();
        w.write_all(b"GET / HTTP/1.1\r\n").unwrap();
        let filler = vec![b'x'; 64 * 1024];
        let _ = w.write_all(&filler); // may fail once the 400 is queued
        let mut r = BufReader::new(w);
        let (head, _) = read_response(&mut r);
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        shutdown.store(true, Ordering::SeqCst);
        join.join().unwrap().unwrap();
    }

    #[test]
    fn truncated_head_closes_without_a_response() {
        let handled = Arc::new(AtomicU64::new(0));
        let count = Arc::clone(&handled);
        let handler: Handler = Arc::new(move |_id, _req| {
            count.fetch_add(1, Ordering::SeqCst);
            Response::text(200, "handled\n")
        });
        let (telemetry, _registry, loop_errors) = recording_telemetry();
        let (addr, shutdown, join) = start(handler, telemetry);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /x HTTP/1.1\r\nHost").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // The loop closes without answering: EOF, not a single byte.
        let mut got = Vec::new();
        stream.read_to_end(&mut got).unwrap();
        assert!(got.is_empty(), "{:?}", String::from_utf8_lossy(&got));
        shutdown.store(true, Ordering::SeqCst);
        join.join().unwrap().unwrap();
        assert_eq!(handled.load(Ordering::SeqCst), 0, "handler never runs");
        assert!(loop_errors.lock().unwrap().is_empty(), "no loop response");
    }

    #[test]
    fn telemetry_counts_connections_and_loop_errors() {
        let (telemetry, registry, loop_errors) = recording_telemetry();
        let (addr, shutdown, join) = start(echo_handler(), telemetry);

        // One keep-alive connection serving two requests, then closing.
        let stream = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        w.write_all(b"GET /a HTTP/1.1\r\n\r\n").unwrap();
        let _ = read_response(&mut r);
        w.write_all(b"GET /b HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let _ = read_response(&mut r);
        drop((r, w));

        // One malformed head: loop-generated 400, reported via callback.
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(b"BOGUS\r\n\r\n").unwrap();
        let mut rb = BufReader::new(bad);
        let (head, _) = read_response(&mut rb);
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        drop(rb);

        // Both connections must be fully closed (reuse depth recorded)
        // before shutdown snapshots the registry.
        let deadline = Instant::now() + Duration::from_secs(5);
        while registry
            .histogram("jedule_connection_requests", &[])
            .map_or(0, |h| h.count)
            < 2
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        shutdown.store(true, Ordering::SeqCst);
        join.join().unwrap().unwrap();

        assert_eq!(
            registry.counter_value("jedule_connections_accepted_total", &[]),
            2
        );
        // The keep-alive connection served 2, the malformed one 1.
        let reuse = registry
            .histogram("jedule_connection_requests", &[])
            .unwrap();
        assert_eq!(reuse.count, 2);
        assert!((reuse.sum - 3.0).abs() < 1e-9);
        // Two handled jobs flowed through the queue + workers.
        let wait = registry
            .histogram("jedule_render_queue_wait_seconds", &[])
            .unwrap();
        assert_eq!(wait.count, 2);
        let jobs = registry
            .histogram("jedule_worker_job_seconds", &[])
            .unwrap();
        assert_eq!(jobs.count, 2);
        let wake = registry
            .histogram("jedule_wake_dispatch_seconds", &[])
            .unwrap();
        assert_eq!(wake.count, 2);
        // The loop error surfaced exactly once with its detail tag.
        let errs = loop_errors.lock().unwrap();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].1, 400);
        assert_eq!(errs[0].2, "head-parse");
    }

    #[test]
    fn shutdown_drains_in_flight_requests() {
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let handler: Handler = Arc::new(move |_id, _req| {
            while !g.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
            }
            Response::text(200, "drained\n")
        });
        let (addr, shutdown, join) = start(handler, recording_telemetry().0);
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = stream.try_clone().unwrap();
        w.write_all(b"GET /slow HTTP/1.1\r\n\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(100)); // request reaches a worker
        shutdown.store(true, Ordering::SeqCst);
        gate.store(true, Ordering::SeqCst);
        let mut r = BufReader::new(stream);
        let (_, body) = read_response(&mut r);
        assert_eq!(body, b"drained\n");
        join.join().unwrap().unwrap();
    }
}
