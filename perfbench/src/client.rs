//! The loopback explorer client and the in-process view renders its
//! sampled bodies are checked against.

use crate::{arg, ms};
use jedule_core::{snap, PreparedSchedule};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// `render-views <input> <width> <windows-file>`: renders each window
/// (`t0:t1` per line) from the input's fresh sidecar with the options
/// `jedule serve` derives from the same query, and prints the body's
/// FNV-1a digest and length per line.
pub fn render_views(args: &[String]) -> Result<(), String> {
    let input: String = arg(args, 0, "input")?;
    let width: String = arg(args, 1, "width")?;
    let windows: String = arg(args, 2, "windows-file")?;
    let path = Path::new(&input);
    let src = std::fs::read(path).map_err(|e| format!("cannot read {input}: {e}"))?;
    let packed = snap::load_if_fresh(&snap::sidecar_path(path), snap::source_digest(&src))
        .map_err(|e| format!("sidecar: {e}"))?
        .ok_or("sidecar is stale")?;
    let prep = PreparedSchedule::from_pack(packed);
    let list = std::fs::read_to_string(&windows).map_err(|e| format!("{windows}: {e}"))?;
    for window in list.lines() {
        let (opts, _) = jedule_serve::render_options_from_params(
            Some("svg"),
            Some(&width),
            Some(window),
            None,
        )?;
        let body = jedule_render::render_prepared(&prep, &opts);
        println!("{:016x} {}", snap::source_digest(&body), body.len());
    }
    Ok(())
}

/// One keep-alive connection with a reusable receive buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// What one request saw. `head` is the response head's length, so the
/// body is `buf[head..head + body]`.
struct Reply {
    status: u16,
    ttfb: Duration,
    total: Duration,
    head: usize,
    body: usize,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 21],
        })
    }

    /// Sends `request` and reads the whole response, timing the first
    /// and the last byte from the start of the write.
    fn get(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        let t0 = Instant::now();
        self.stream.write_all(request)?;
        let mut filled = 0;
        let mut ttfb = None;
        let (head, body, status) = loop {
            if filled == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            let n = self.read_into(filled, self.buf.len())?;
            ttfb.get_or_insert_with(|| t0.elapsed());
            filled += n;
            if let Some(parsed) = parse_head(&self.buf[..filled])? {
                break parsed;
            }
        };
        let end = head + body;
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        while filled < end {
            filled += self.read_into(filled, end)?;
        }
        Ok(Reply {
            status,
            ttfb: ttfb.unwrap_or_default(),
            total: t0.elapsed(),
            head,
            body,
        })
    }

    fn read_into(&mut self, from: usize, to: usize) -> std::io::Result<usize> {
        match self.stream.read(&mut self.buf[from..to])? {
            0 => Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => Ok(n),
        }
    }
}

/// `(head length, Content-Length, status)` once the head is complete.
fn parse_head(buf: &[u8]) -> std::io::Result<Option<(usize, usize, u16)>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or_else(|| bad("no Content-Length"))?;
    Ok(Some((end + 4, len, status)))
}

/// SplitMix64: the seeded order each cycling connection walks.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One request as the output file records it.
struct Record {
    conn: usize,
    op: usize,
    target: usize,
    status: u16,
    ttfb_us: f64,
    total_us: f64,
    body: usize,
}

/// A sampled body: `(conn, op, target, bytes)`.
type Sample = (usize, usize, usize, Vec<u8>);

/// What one connection's thread returns.
type ConnResult = Result<(Vec<Record>, Vec<Sample>), String>;

/// `client <addr> <targets> <conns> <seconds> <min-ops> <seed> <samples>
/// <out>`: closed-loop clients, one keep-alive connection each, all in
/// this process. Each connection walks its own seeded permutation of
/// the target lines, repeatedly. Every connection stops once `seconds`
/// have passed and `min-ops` requests completed in total. `samples` lists `conn op`
/// pairs whose bodies are digested after the run. Writes one line per
/// request to `out` (`conn op target status ttfb_us total_us
/// body_bytes`) and prints a JSON summary with the sampled digests.
pub fn client(args: &[String]) -> Result<(), String> {
    let addr: String = arg(args, 0, "addr")?;
    let targets_file: String = arg(args, 1, "targets")?;
    let conns: usize = arg(args, 2, "conns")?;
    let seconds: f64 = arg(args, 3, "seconds")?;
    let min_ops: usize = arg(args, 4, "min-ops")?;
    let seed: u64 = arg(args, 5, "seed")?;
    let samples_file: String = arg(args, 6, "samples")?;
    let out: String = arg(args, 7, "out")?;
    let requests: Vec<Vec<u8>> = std::fs::read_to_string(&targets_file)
        .map_err(|e| format!("{targets_file}: {e}"))?
        .lines()
        .map(|t| format!("GET {t} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes())
        .collect();
    if requests.is_empty() {
        return Err("no targets".into());
    }
    let sampled: HashSet<(usize, usize)> = std::fs::read_to_string(&samples_file)
        .map_err(|e| format!("{samples_file}: {e}"))?
        .lines()
        .filter_map(|l| {
            let (c, o) = l.split_once(' ')?;
            Some((c.parse().ok()?, o.parse().ok()?))
        })
        .collect();

    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                let (requests, sampled) = (&requests, &sampled);
                let done = &done;
                let addr = addr.as_str();
                s.spawn(move || -> ConnResult {
                    let mut order: Vec<usize> = (0..requests.len()).collect();
                    let mut rng = seed ^ (c as u64).wrapping_mul(0xa076_1d64_78bd_642f);
                    for i in (1..order.len()).rev() {
                        order.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
                    }
                    let mut conn = Conn::open(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                    let (mut records, mut samples) = (Vec::new(), Vec::new());
                    for op in 0.. {
                        if start.elapsed().as_secs_f64() >= seconds
                            && done.load(Ordering::SeqCst) >= min_ops
                        {
                            break;
                        }
                        let target = order[op % order.len()];
                        let t0 = Instant::now();
                        let record = match conn.get(&requests[target]) {
                            Ok(r) => {
                                if sampled.contains(&(c, op)) {
                                    let body = conn.buf[r.head..r.head + r.body].to_vec();
                                    samples.push((c, op, target, body));
                                }
                                Record {
                                    conn: c,
                                    op,
                                    target,
                                    status: r.status,
                                    ttfb_us: ms(r.ttfb) * 1e3,
                                    total_us: ms(r.total) * 1e3,
                                    body: r.body,
                                }
                            }
                            Err(e) => {
                                eprintln!("perfbench client: conn {c} op {op}: {e}");
                                conn = Conn::open(addr)
                                    .map_err(|e| format!("reconnect {addr}: {e}"))?;
                                let us = ms(t0.elapsed()) * 1e3;
                                Record {
                                    conn: c,
                                    op,
                                    target,
                                    status: 0,
                                    ttfb_us: us,
                                    total_us: us,
                                    body: 0,
                                }
                            }
                        };
                        records.push(record);
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok((records, samples))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut lines = String::new();
    let mut digests = Vec::new();
    let (mut ops, mut failed) = (0usize, 0usize);
    for result in results {
        let (records, samples) = result?;
        for r in &records {
            ops += 1;
            failed += usize::from(r.status != 200);
            lines.push_str(&format!(
                "{} {} {} {} {:.3} {:.3} {}\n",
                r.conn, r.op, r.target, r.status, r.ttfb_us, r.total_us, r.body
            ));
        }
        for (c, op, target, body) in samples {
            digests.push(format!(
                "[{c},{op},{target},\"{:016x}\",{}]",
                snap::source_digest(&body),
                body.len()
            ));
        }
    }
    std::fs::write(&out, lines).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "{{\"ops\":{ops},\"failed\":{failed},\"elapsed_s\":{elapsed},\"samples\":[{}]}}",
        digests.join(",")
    );
    Ok(())
}
