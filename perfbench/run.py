#!/usr/bin/env python3
"""Jedule benchmark: file -> figure and request -> last byte.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the release `jedule` binary and the `perfbench` helper, generates
the workload's input from the seed, runs the set-up and the measured
phase against the binary, checks every output, and prints one JSON
object as the last line of stdout. `--trace 0` reports the end-to-end
metrics; `--trace 1` adds a separate traced pass and reports the
per-layer metrics. A report line with the host record, sample counts,
ratio bases and checks precedes the result. README.md describes the
workloads, the metrics and the single-class rule.
"""

import argparse
import datetime
import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each workload's measured phase runs for --seconds and at least
# `min_ops` ops. `tail` is the tail_ms percentile; at `min_ops` at least
# ten samples lie above it. The serve tail stops short of the highest
# such percentile: above p95 it follows the host's load spikes
# (README.md, "Tail percentiles").
WORKLOADS = {
    "batch_xml": {"kind": "batch", "pack": False, "min_ops": 40, "tail": 75},
    "batch_pack": {"kind": "batch", "pack": True, "min_ops": 40, "tail": 75},
    "serve_hot": {"kind": "serve", "conns": 2, "min_ops": 200, "tail": 95},
}
SETUP_REPEATS = 3
VIEW_WIDTH = 800  # the explorer's default width
VIEW_SHARE = 0.01  # each view spans 1% of the trace's extent
HOT_VIEWS = 32  # serve_hot working set, below the default body-cache cap (64)
CHECK_SAMPLES = 8  # requests per serve pass whose bodies are re-rendered
CLOSURE_TOLERANCE_PCT = 5.0  # traced batch layer sum vs traced op time

# Metric names and units come from the benchmark's contract file.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _CONTRACT = json.load(_f)
E2E_UNITS = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}
MIB = 1024.0 * 1024.0


class BenchError(Exception):
    """A step that makes the whole run meaningless (build, set-up, tool)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_tool(argv, **kw):
    """Runs a helper command to completion; its stdout, or BenchError."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, **kw)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} ... exited {proc.returncode}")
    return proc.stdout


def build():
    """Builds `jedule` and `perfbench` in release mode; their paths."""
    # One target directory for both packages (the helper is a
    # workspace of its own and would otherwise build under perfbench/).
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))
    env = dict(os.environ, CARGO_NET_OFFLINE="true", CARGO_TARGET_DIR=target)
    for extra in (["-p", "jedule-cli"], ["--manifest-path", os.path.join(HERE, "Cargo.toml")]):
        run_tool(["cargo", "build", "--release", "--quiet"] + extra, cwd=ROOT, env=env)
    tools = {
        "jedule": os.path.join(target, "release", "jedule"),
        "perfbench": os.path.join(target, "release", "perfbench"),
    }
    for path in tools.values():
        if not os.access(path, os.X_OK):
            raise BenchError(f"build left no executable at {path}")
    return tools


def host_record(args):
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "seed": args.seed,
        "command": ["python3"] + sys.argv,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def probe(tools):
    return json.loads(run_tool([tools["perfbench"], "probe"]))["probe_s"]


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with at least `pct`
    percent of the samples at or below it."""
    xs = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[min(rank, len(xs)) - 1]


def latency_metrics(lat_ms, pct):
    """p50 and the `pct` tail of per-op latencies; a failed op is `inf`."""
    tail = percentile(lat_ms, pct)
    beyond = sum(1 for x in lat_ms if x > tail)
    shape = {f"p{p:g}": finite(percentile(lat_ms, p)) for p in (25, 75, 90, 95, 99, 99.9)}
    return statistics.median(lat_ms), tail, {"tail_pct": pct, "n": len(lat_ms), "beyond_tail": beyond, **shape}


def median_or_zero(xs):
    return statistics.median(xs) if xs else 0.0


def timed_child(argv, stderr):
    """Spawns one program process and waits for it: (seconds from spawn
    to exit, exit code, peak RSS in KiB of that process alone)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    secs = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return secs, proc.returncode, usage.ru_maxrss


# --------------------------------------------------------------------------
# Batch workloads: one `jedule render` process per op.


def run_batch(spec, tools, work, args, res):
    gen = json.loads(run_tool([tools["perfbench"], "gen", args.workload, str(u64(args.seed)), work]))
    inp = os.path.join(work, gen["input"])
    ref = os.path.join(work, "ref.png")
    run_tool([tools["perfbench"], "render-ref", inp, ref])
    with open(ref, "rb") as f:
        ref_png = f.read()
    out = os.path.join(work, "out.png")
    render = [tools["jedule"], "render", inp] + (["--pack-sidecar"] if spec["pack"] else []) + ["-f", "png", "-o", out]
    sidecar = inp + ".jpack"

    def render_ok(errlog):
        """One render op: (seconds, peak RSS KiB, output correct)."""
        if os.path.exists(out):
            os.remove(out)
        secs, code, rss = timed_child(render, errlog)
        ok = code == 0 and os.path.exists(out)
        if ok:
            with open(out, "rb") as f:
                ok = f.read() == ref_png
        return secs, rss, ok

    with open(os.path.join(work, "jedule.log"), "ab") as errlog:
        # Set-up: (`jedule pack` plus) one warm-up render, several times.
        setup, pack_s, warm_ok = [], [], True
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            if spec["pack"]:
                secs, code, _ = timed_child([tools["jedule"], "pack", inp], errlog)
                if code != 0:
                    raise BenchError("jedule pack failed")
                pack_s.append(secs)
            warm_ok &= render_ok(errlog)[2]
            setup.append(time.perf_counter() - t0)
        stamp = sidecar_stamp(sidecar) if spec["pack"] else None
        flush_to_disk([inp, sidecar] if spec["pack"] else [inp])

        lat_ms, rss_kib, failed, mismatched, rebuilt = [], [], 0, 0, 0
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(lat_ms) < spec["min_ops"]:
            secs, rss, ok = render_ok(errlog)
            mismatched += not ok
            if spec["pack"] and sidecar_stamp(sidecar) != stamp:
                rebuilt += 1
                ok = False
                stamp = sidecar_stamp(sidecar)
            failed += not ok
            lat_ms.append(secs * 1e3 if ok else math.inf)
            rss_kib.append(rss)

    p50, tail, dist = latency_metrics(lat_ms, spec["tail"])
    res.ops(len(lat_ms), failed)
    res.check("the warm-up renders match the in-process render_prepared reference", warm_ok)
    res.check("every measured render exits 0 and matches the reference", mismatched == 0)
    if spec["pack"]:
        res.check(f"the sidecar was used, never rebuilt ({rebuilt} rebuilds)", rebuilt == 0)
    res.e2e(p50, tail, max(rss_kib) / 1024.0, statistics.median(setup))
    res.report.update(latency=dist, setup_s_samples=setup, png_bytes=len(ref_png))
    if spec["pack"]:
        res.layer("core.pack_build_s", statistics.median(pack_s), n=len(pack_s))
        res.layer("core.pack_mb", os.path.getsize(sidecar) / MIB)
    if args.trace:
        trace_batch(spec, tools, inp, ref, args, res, p50)


def sidecar_stamp(path):
    st = os.stat(path)
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def trace_batch(spec, tools, inp, ref, args, res, untraced_p50):
    """The traced pass: the same pipeline in-process, each public call
    timed (perfbench trace-batch)."""
    t = json.loads(run_tool([tools["perfbench"], "trace-batch", inp, "1" if spec["pack"] else "0",
                             str(args.seconds), str(spec["min_ops"]), ref]))
    n = t["ops"]
    res.ops(n, t["failed"])
    res.check("traced renders match the reference", t["failed"] == 0)
    layers = ["read_ms", "parse_ms", "digest_ms", "pack_load_ms", "prepare_ms", "layout_ms", "raster_ms", "png_ms"]
    sums = [sum(t[k][i] for k in layers if t[k]) for i in range(n)]
    closure = statistics.median(100.0 * s / op for s, op in zip(sums, t["op_ms"]))
    op_ms, layer_sum = statistics.median(t["op_ms"]), statistics.median(sums)
    med = {k: median_or_zero(t[k]) for k in layers}
    res.layer("cli.read_ms", med["read_ms"], n=n)
    res.layer("cli.overhead_ms", untraced_p50 - layer_sum, base=f"untraced p50_ms {untraced_p50:.3f} - traced layer sum {layer_sum:.3f}")
    res.layer("closure_pct", closure, n=n, base="traced layer sum / traced op time, per op")
    res.layer("trace.overhead_ms", op_ms - untraced_p50, base=f"traced op {op_ms:.3f} - untraced p50_ms {untraced_p50:.3f}")
    res.layer("xmlio.parse_ms", med["parse_ms"], n=len(t["parse_ms"]))
    if t["parse_ms"]:
        res.layer("xmlio.parse_mb_s", t["input_bytes"] / MIB / (med["parse_ms"] / 1e3), base=f"{t['input_bytes']} input bytes")
    res.layer("core.prepare_ms", med["prepare_ms"], n=n)
    res.layer("core.digest_ms", med["digest_ms"], n=len(t["digest_ms"]))
    res.layer("core.pack_load_ms", med["pack_load_ms"], n=len(t["pack_load_ms"]))
    res.layer("render.layout_ms", med["layout_ms"], n=n)
    for k in ("tasks_direct", "tasks_lod_binned", "lod_strips", "tasks_culled"):
        res.layer("render." + k, t[k])
    res.layer("render.raster_ms", med["raster_ms"], n=n)
    res.layer("render.png_ms", med["png_ms"], n=n)
    res.layer("render.png_mb_s", t["canvas_bytes"] / MIB / (med["png_ms"] / 1e3), base=f"{t['canvas_bytes']} raw RGB bytes")
    res.check(f"traced layer sum closes within {CLOSURE_TOLERANCE_PCT}% of the traced op time",
              closure >= 100.0 - CLOSURE_TOLERANCE_PCT)


# --------------------------------------------------------------------------
# Serve workloads: one `jedule serve` process, loopback clients.


class Server:
    """A running `jedule serve` on a free loopback port, serving `work`."""

    def __init__(self, jedule, work):
        log_path = os.path.join(work, "serve.log")
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen([jedule, "serve", "--addr", "127.0.0.1:0", "--root", work],
                                     stdout=subprocess.DEVNULL, stderr=self.log)
        self.port = None
        deadline = time.perf_counter() + 30
        while self.port is None:
            with open(log_path) as f:
                head = f.readline()
            if "listening on http://127.0.0.1:" in head:
                self.port = int(head.split("http://127.0.0.1:", 1)[1].split()[0])
            elif self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("jedule serve did not start")
            else:
                time.sleep(0.002)

    @property
    def addr(self):
        return f"127.0.0.1:{self.port}"

    def get(self, target):
        """One request on a fresh connection (the server's idle sweep
        closes connections left open across a measured phase)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", target)
            r = conn.getresponse()
            return r.status, r.read()
        finally:
            conn.close()

    def metrics(self):
        status, body = self.get("/metrics.json")
        if status != 200:
            raise BenchError(f"/metrics.json answered {status}")
        return json.loads(body)

    def reset_peak_rss(self):
        with open(f"/proc/{self.proc.pid}/clear_refs", "w") as f:
            f.write("5")

    def peak_rss_kib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM in /proc status")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def tile_target(window):
    return f"/explore?file=trace.csv&tile=1&fmt=svg&width={VIEW_WIDTH}&window={window}"


def seeded_windows(seed, extent, count):
    """`count` distinct 1% windows `t0:t1` at seeded positions (whole
    seconds, so the query text round-trips exactly)."""
    lo, hi = extent
    span = int(round((hi - lo) * VIEW_SHARE))
    rng = random.Random(seed)
    seen, out = set(), []
    while len(out) < count:
        t0 = int(lo) + int(rng.random() * (hi - lo - span))
        if t0 not in seen:
            seen.add(t0)
            out.append(f"{t0}:{t0 + span}")
    return out


def counter(snapshot, name, label=None):
    """Sum of a counter's series, optionally only the one `label`."""
    total = 0
    for key, v in snapshot["counters"].items():
        base, _, labels = key.partition("{")
        if base == name and (label is None or label in labels):
            total += v
    return total


def hist(snapshot, key):
    h = snapshot["histograms"].get(key)
    return (h["sum"], h["count"]) if h else (0.0, 0)


class Delta:
    """The difference between two /metrics.json snapshots."""

    def __init__(self, before, after):
        self.before, self.after = before, after

    def count(self, name, label=None):
        return counter(self.after, name, label) - counter(self.before, name, label)

    def hist(self, key):
        (s1, n1), (s0, n0) = hist(self.after, key), hist(self.before, key)
        return s1 - s0, n1 - n0

    def mean_ms(self, key):
        s, n = self.hist(key)
        return (s / n * 1e3 if n else 0.0), n

    def errors(self):
        """HTTP responses with a status of 400 or more, on any route."""
        total = 0
        for snap, sign in ((self.before, -1), (self.after, 1)):
            for key, v in snap["counters"].items():
                if key.startswith("jedule_http_requests_total{") and 'status="' in key:
                    total += sign * v * (int(key.split('status="', 1)[1][:3]) >= 400)
        return total


def serve_setup(tools, work, inp, first_window, views, pack):
    """One set-up: `jedule pack` (when `pack`), server start, the cold
    first request and the working set. Returns the running server, the
    set-up seconds, the pack seconds, the first response's milliseconds,
    the working set's body lengths and the registry snapshots around
    the working-set load (the cold-view fill)."""
    t0 = time.perf_counter()
    pack_s = None
    if pack:
        with open(os.path.join(work, "jedule.log"), "ab") as errlog:
            pack_s, code, _ = timed_child([tools["jedule"], "pack", inp], errlog)
        if code != 0:
            raise BenchError("jedule pack failed")
    server = Server(tools["jedule"], work)
    try:
        t1 = time.perf_counter()
        status, _ = server.get(tile_target(first_window))
        first_ms = (time.perf_counter() - t1) * 1e3
        if status != 200:
            raise BenchError(f"cold first request answered {status}")
        # The snapshots bracket the fill for the traced pass only, so
        # the timed set-up stays the program's own work.
        before = None if pack else server.metrics()
        body_len = []
        for w in views:
            status, body = server.get(tile_target(w))
            if status != 200:
                raise BenchError(f"working-set request answered {status}")
            body_len.append(len(body))
        fill = None if pack else Delta(before, server.metrics())
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0, pack_s, first_ms, body_len, fill


def serve_pass(spec, tools, work, inp, plan, args, setups, tag):
    """Sets up `setups` times (each with `jedule pack`; none when 0, for
    the traced pass, which starts one server on the existing sidecar),
    keeps the last server, and runs the measured phase against it,
    bracketed by the peak-RSS reset and two /metrics.json snapshots."""
    first_window, views, targets_file, samples = plan
    out = {"setup_s": [], "pack_s": [], "first_ms": []}
    for i in range(max(setups, 1)):
        server, secs, pack_s, first_ms, body_len, fill = serve_setup(
            tools, work, inp, first_window, views, setups > 0)
        out["setup_s"].append(secs)
        out["pack_s"].append(pack_s)
        out["first_ms"].append(first_ms)
        if i + 1 < setups:
            server.stop()
    out["fill"] = fill
    try:
        flush_to_disk([inp, inp + ".jpack"])
        samples_file = os.path.join(work, f"samples_{tag}.txt")
        with open(samples_file, "w") as f:
            f.write("".join(f"{c} {op}\n" for c, op in samples))
        requests = os.path.join(work, f"requests_{tag}.txt")
        server.reset_peak_rss()
        before = server.metrics()
        t0 = time.perf_counter()
        summary = json.loads(run_tool([tools["perfbench"], "client", server.addr, targets_file, str(spec["conns"]),
                                       str(args.seconds), str(spec["min_ops"]), str(u64(args.seed)),
                                       samples_file, requests]))
        out["wall"] = time.perf_counter() - t0
        after = server.metrics()
        out["peak_kib"] = server.peak_rss_kib()
    finally:
        server.stop()
    out["delta"] = Delta(before, after)
    out["workers"] = after["gauges"].get("jedule_render_workers", 0)
    out["sidecar_ok"] = (counter(after, "jedule_pack_sidecar_total", 'result="hit"') == 1
                         and counter(after, "jedule_pack_sidecar_total") == 1)
    out["samples"] = summary["samples"]
    out["records"] = []
    with open(requests) as f:
        for line in f:
            c, op, target, status, ttfb, total, body = line.split()
            ok = int(status) == 200 and int(body) == body_len[int(target)]
            out["records"].append(((int(c), int(op)), int(target), ok, float(ttfb), float(total), int(body)))
    return out


def flush_to_disk(paths):
    """Writes back the inputs just written, so disk writeback does not
    overlap the measured phase."""
    for path in paths:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def check_serve_pass(tools, work, inp, views, p, res, tag):
    """Checks one pass and returns its per-op latencies (failed = inf).
    Per op: status 200 with the body length the working-set load saw;
    for the seeded sample, the body digest of an in-process render of
    the same view. Per pass: the sidecar was mapped once, and the
    single-class counter deltas hold exactly."""
    failed = {key for key, _, ok, _, _, _ in p["records"] if not ok}
    windows_file = os.path.join(work, f"check_{tag}.txt")
    with open(windows_file, "w") as f:
        f.write("".join(views[t] + "\n" for _, _, t, _, _ in p["samples"]))
    expect = run_tool([tools["perfbench"], "render-views", inp, str(VIEW_WIDTH), windows_file]).split("\n")
    matched = 0
    for (c, op, _, digest, length), want in zip(p["samples"], expect):
        if want == f"{digest} {length}":
            matched += 1
        else:
            failed.add((c, op))
    ops = len(p["records"])
    res.ops(ops, len(failed))
    res.check(f"{tag}: every status is 200 with the working-set body length",
              all(ok for _, _, ok, _, _, _ in p["records"]))
    res.check(f"{tag}: {matched} of {len(p['samples'])} sampled bodies match an in-process render of the same view",
              matched == len(p["samples"]) > 0)
    res.check(f"{tag}: the server mapped the sidecar exactly once (jedule_pack_sidecar_total{{result=\"hit\"}} = 1)",
              p["sidecar_ok"])
    d = p["delta"]
    hits = d.count("jedule_render_cache_hits_total")
    misses = d.count("jedule_render_cache_misses_total")
    lookups = d.count("jedule_tile_lookups_total")
    res.check(f"{tag}: single class (body hits = ops, body misses = tile lookups = 0): "
              f"ops {ops}, body hits {hits}, body misses {misses}, tile lookups {lookups}",
              hits == ops and misses == 0 and lookups == 0)
    return [math.inf if key in failed else total / 1e3 for key, _, _, _, total, _ in p["records"]]


def run_serve(spec, tools, work, args, res):
    gen = json.loads(run_tool([tools["perfbench"], "gen", args.workload, str(u64(args.seed)), work]))
    inp = os.path.join(work, gen["input"])
    windows = seeded_windows(args.seed, gen["extent"], 1 + HOT_VIEWS)
    first_window, views = windows[0], windows[1:]
    targets_file = os.path.join(work, "targets.txt")
    with open(targets_file, "w") as f:
        f.write("".join(tile_target(w) + "\n" for w in views))
    # Seeded sample of measured requests whose bodies are re-rendered.
    rng = random.Random(args.seed ^ 0x5EED)
    per_conn = spec["min_ops"] // spec["conns"]
    samples = sorted((rng.randrange(spec["conns"]), op) for op in rng.sample(range(per_conn), CHECK_SAMPLES))
    plan = (first_window, views, targets_file, samples)

    p = serve_pass(spec, tools, work, inp, plan, args, SETUP_REPEATS, "measured")
    lat_ms = check_serve_pass(tools, work, inp, views, p, res, "measured")
    p50, tail, dist = latency_metrics(lat_ms, spec["tail"])
    res.e2e(p50, tail, p["peak_kib"] / 1024.0, statistics.median(p["setup_s"]))
    res.report.update(latency=dist, setup_s_samples=p["setup_s"], measured_wall_s=p["wall"])
    res.layer("core.pack_build_s", statistics.median(p["pack_s"]), n=len(p["pack_s"]))
    res.layer("core.pack_mb", os.path.getsize(inp + ".jpack") / MIB)
    res.layer("setup.first_response_ms", statistics.median(p["first_ms"]), n=len(p["first_ms"]))
    if args.trace:
        trace_serve(tools, work, inp, views, plan, args, res, p50, spec)


def trace_serve(tools, work, inp, views, plan, args, res, untraced_p50, spec):
    """The traced pass: a fresh server on the same sidecar loads the
    working set and replays the same request sequence. The tile-store
    numbers are /metrics.json deltas over the working-set load (cold
    views, the only phase that renders); the cache, loop and client
    numbers are deltas and timestamps over the measured phase."""
    p = serve_pass(spec, tools, work, inp, plan, args, 0, "traced")
    lat_ms = check_serve_pass(tools, work, inp, views, p, res, "traced")
    fill, d = p["fill"], p["delta"]
    n_fill = len(views)
    res.check(f"traced: the working-set load is one class (body misses = plan misses = {n_fill}, "
              f"body hits = tile hits = 0)",
              fill.count("jedule_render_cache_misses_total") == n_fill
              and fill.count("jedule_plan_cache_misses_total") == n_fill
              and fill.count("jedule_render_cache_hits_total") == 0
              and fill.count("jedule_tile_cache_hits_total") == 0)
    ok = [r for r in p["records"] if r[2]]
    res.layer("client.ttfb_ms", median_or_zero([r[3] / 1e3 for r in ok]), n=len(ok))
    res.layer("client.transfer_ms", median_or_zero([(r[4] - r[3]) / 1e3 for r in ok]), n=len(ok))
    res.layer("client.body_kb", median_or_zero([r[5] / 1024.0 for r in ok]), n=len(ok))
    traced_p50 = statistics.median(lat_ms)
    res.layer("trace.overhead_ms", traced_p50 - untraced_p50,
              base=f"traced p50 {traced_p50:.3f} - untraced p50_ms {untraced_p50:.3f}")
    stage = 'jedule_stage_duration_seconds{stage="%s"}'
    on_fill = f"registry delta over the {n_fill}-view working-set load"
    render_ms, n_render = fill.mean_ms(stage % "serve.render")
    layout_ms, n_layout = fill.mean_ms(stage % "render.layout")
    res.layer("serve.render_ms", render_ms, n=n_render, stat="mean of " + on_fill)
    res.layer("serve.layout_ms", layout_ms, n=n_layout, stat="mean of " + on_fill)
    res.layer("serve.svg_ms", render_ms - layout_ms, n=n_render, base="serve.render_ms - serve.layout_ms")
    res.layer("serve.plan_misses", fill.count("jedule_plan_cache_misses_total"), stat=on_fill)
    tile_hits, tile_misses = fill.count("jedule_tile_cache_hits_total"), fill.count("jedule_tile_cache_misses_total")
    lookups = fill.count("jedule_tile_lookups_total")
    res.layer("serve.tile_hits", tile_hits, stat=on_fill)
    res.layer("serve.tile_misses", tile_misses, stat=on_fill)
    res.layer("serve.tile_hit_ratio", tile_hits / lookups if lookups else 0.0, base=f"{lookups} tile lookups")
    figure_ms, n_figure = d.mean_ms(stage % "serve.figure")
    res.layer("serve.figure_ms", figure_ms, n=n_figure, stat="mean of registry delta")
    body_hits, body_misses = d.count("jedule_render_cache_hits_total"), d.count("jedule_render_cache_misses_total")
    figures = body_hits + body_misses
    res.layer("serve.body_hits", body_hits)
    res.layer("serve.body_misses", body_misses)
    res.layer("serve.body_hit_ratio", body_hits / figures if figures else 0.0, base=f"{figures} figure responses (200)")
    for name, key in (("serve.handler_ms", "jedule_worker_job_seconds"),
                      ("serve.queue_wait_ms", "jedule_render_queue_wait_seconds"),
                      ("serve.wake_dispatch_ms", "jedule_wake_dispatch_seconds")):
        v, n = d.mean_ms(key)
        res.layer(name, v, n=n, stat="mean of registry delta (includes the opening /metrics.json request)")
    busy_s, _ = d.hist("jedule_worker_job_seconds")
    workers, wall = p["workers"], p["wall"]
    res.layer("serve.worker_busy_frac", busy_s / (wall * workers) if workers else 0.0,
              base=f"{workers} workers x {wall:.3f} s measured wall time")
    res.layer("serve.errors", d.errors(), base="HTTP responses with status >= 400")


# --------------------------------------------------------------------------


class Result:
    """Collects metrics, checks and the report for one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.e2e_metrics = {}
        self.layers = {}
        self.report = {}

    def ops(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def check(self, what, ok):
        self.checks.append({"check": what, "ok": bool(ok)})
        if not ok:
            log(f"CHECK FAILED: {what}")

    def e2e(self, p50, tail, peak_mb, setup_s):
        self.e2e_metrics = {"p50_ms": p50, "tail_ms": tail, "peak_rss_mb": peak_mb, "setup_s": setup_s}

    def layer(self, name, value, **detail):
        self.layers[name] = dict(value=value, **detail)

    def correct(self):
        return self.failed == 0 and all(c["ok"] for c in self.checks)


def u64(seed):
    """The seed as the helper's unsigned 64-bit argument."""
    return seed % (1 << 64)


def finite(v):
    """JSON has no infinity: an all-failed latency prints as 1e300."""
    return v if math.isfinite(v) else 1e300


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = WORKLOADS[args.workload]
    # A terminated run still stops its server (the `finally` blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        tools = build()
    except (BenchError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    res = Result()
    res.report["host"] = host_record(args)
    try:
        probe_before = probe(tools)
        (run_batch if spec["kind"] == "batch" else run_serve)(spec, tools, work, args, res)
        res.report["probe_s"] = {"before": probe_before, "after": probe(tools)}
    except BenchError as e:
        log(f"{args.workload}: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res.report["checks"] = res.checks

    if args.trace:
        for name in LAYER_UNITS:
            res.layers.setdefault(name, {"value": 0.0, "note": "no work in this workload's measured phase"})
        res.report["per_layer"] = res.layers
        metrics = {k: {"value": finite(res.layers[k]["value"]), "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": finite(res.e2e_metrics[k]), "unit": u} for k, u in E2E_UNITS.items()}
    res.report["end_to_end"] = {k: finite(v) for k, v in res.e2e_metrics.items()}

    for name, m in metrics.items():
        log(f"{args.workload:10s} {name:24s} {m['value']:14.4f} {m['unit']}")
    log(f"{args.workload}: {res.attempted} ops attempted, {res.failed} failed, "
        f"correct={res.correct()}, probe {probe_before:.3f}s -> {res.report['probe_s']['after']:.3f}s")
    print(json.dumps({"report": res.report}))
    print(json.dumps({"correct": res.correct(), "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
