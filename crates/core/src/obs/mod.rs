//! Workspace-wide observability: hierarchical spans, monotonic counters,
//! and two exporters (Chrome trace-event JSON, flat metrics JSON).
//!
//! Every hot stage of the pipeline — ingest, prepare, layout, raster,
//! encode, and the scheduler/simulator crates — records where time goes
//! through this one module, so `--timings`, `--profile`, `--metrics-json`
//! and the CI perf-regression gate are all views over the same data
//! instead of parallel ad-hoc clocks.
//!
//! # Model
//!
//! A [`Collector`] owns a wall-clock epoch, a span list and a counter
//! table. Installing it (RAII, [`Collector::install`]) makes it the
//! *current* collector of the calling thread; the free functions
//! [`span`], [`count`] and [`handle`] then record into it. When no
//! collector is installed they are no-ops — a single thread-local read —
//! so instrumentation is effectively free in production renders and
//! cannot change output bytes (property-tested).
//!
//! Spans are hierarchical: a span opened while another is open on the
//! same thread becomes its child. Worker threads do not inherit the
//! parent thread's collector; [`crate::parallel::map_chunks`] captures a
//! [`Handle`] before spawning and [`Handle::attach`]es it inside each
//! worker, which keeps attribution explicit and data races impossible.
//! The handle also carries the span open where it was captured, so a
//! worker span nests under the stage that started it and lies inside
//! that stage's interval.
//!
//! # Exporters
//!
//! [`ObsReport::to_chrome_trace`] emits Chrome trace-event JSON (`ph:"X"`
//! complete events, microsecond timestamps) loadable in Perfetto or
//! `about://tracing`; [`ObsReport::to_metrics_json`] emits the flat
//! `jedule-metrics-v1` schema the CI gate diffs against checked-in
//! baselines; [`ObsReport::tree_report`] is the human `--timings` view.

pub mod access_log;
pub mod registry;

pub use access_log::{AccessLog, AccessRecord};
pub use registry::{HistogramSnapshot, Registry, DEFAULT_LATENCY_BUCKETS_S};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span: `[start_us, start_us + dur_us]` relative to the
/// collector's epoch, on thread `thread`, nested under `parent`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Collector-unique id (allocation order, not completion order).
    pub id: u32,
    /// Enclosing span on the same thread at open time, if any.
    pub parent: Option<u32>,
    /// Static stage name, e.g. `"render.layout"`.
    pub name: &'static str,
    /// Optional dynamic annotation (format name, chunk index, …).
    pub detail: Option<String>,
    /// Process-unique thread number (1-based, assignment order).
    pub thread: u64,
    /// Microseconds from the collector epoch to the span start.
    pub start_us: f64,
    /// Span duration in microseconds.
    pub dur_us: f64,
}

impl SpanRecord {
    /// Microseconds from the epoch to the span end.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

#[derive(Default)]
struct State {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<&'static str, u64>,
    next_id: u32,
}

struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

/// An observability sink: spans and counters accumulate here while it is
/// installed (or reached through a [`Handle`]). Cloning is cheap and
/// shares the sink.
#[derive(Clone)]
pub struct Collector {
    inner: Arc<Inner>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

thread_local! {
    /// Stack of installed collectors (innermost last), each with the span
    /// a [`Handle`] carried over from another thread: the parent of a
    /// span opened here while no span of this thread is open.
    static CURRENT: RefCell<Vec<(Collector, Option<u32>)>> = const { RefCell::new(Vec::new()) };
    /// Stack of open spans on this thread: (collector ptr, span id).
    static OPEN: RefCell<Vec<(usize, u32)>> = const { RefCell::new(Vec::new()) };
}

static THREAD_SEQ: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_NUM: u64 = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
}

fn thread_num() -> u64 {
    THREAD_NUM.with(|t| *t)
}

impl Collector {
    pub fn new() -> Collector {
        Collector {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            }),
        }
    }

    fn ptr(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Makes this the calling thread's current collector until the guard
    /// drops. Installs nest: the innermost wins.
    #[must_use = "dropping the guard immediately uninstalls the collector"]
    pub fn install(&self) -> InstallGuard {
        self.install_under(None)
    }

    fn install_under(&self, parent: Option<u32>) -> InstallGuard {
        CURRENT.with(|c| c.borrow_mut().push((self.clone(), parent)));
        InstallGuard {
            ptr: self.ptr(),
            _not_send: std::marker::PhantomData,
        }
    }

    /// Opens a span attributed to this collector on the calling thread.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_inner(name, None)
    }

    /// [`Collector::span`] with a dynamic annotation.
    pub fn span_with(&self, name: &'static str, detail: impl Into<String>) -> SpanGuard {
        self.span_inner(name, Some(detail.into()))
    }

    fn span_inner(&self, name: &'static str, detail: Option<String>) -> SpanGuard {
        let ptr = self.ptr();
        let parent = open_span(ptr);
        let id = {
            let mut st = self.inner.state.lock().unwrap();
            let id = st.next_id;
            st.next_id += 1;
            id
        };
        OPEN.with(|o| o.borrow_mut().push((ptr, id)));
        SpanGuard(Some(ActiveSpan {
            collector: self.clone(),
            id,
            parent,
            name,
            detail,
            start: Instant::now(),
        }))
    }

    /// Adds `n` to the named monotonic counter.
    pub fn count(&self, name: &'static str, n: u64) {
        let mut st = self.inner.state.lock().unwrap();
        *st.counters.entry(name).or_insert(0) += n;
    }

    /// Snapshots everything recorded so far. Spans are sorted by start
    /// time (ties by id, i.e. open order).
    pub fn report(&self) -> ObsReport {
        let st = self.inner.state.lock().unwrap();
        let mut spans = st.spans.clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        ObsReport {
            spans,
            counters: st
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        }
    }
}

/// RAII guard returned by [`Collector::install`]; uninstalls on drop.
pub struct InstallGuard {
    ptr: usize,
    /// Install/uninstall manipulate thread-local stacks; the guard must
    /// drop on the installing thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            let mut stack = c.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|(col, _)| col.ptr() == self.ptr) {
                stack.remove(pos);
            }
        });
    }
}

struct ActiveSpan {
    collector: Collector,
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    detail: Option<String>,
    start: Instant,
}

/// An open span; records itself on drop. No-op (`None`) when created
/// through the free functions with no collector installed.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard(Option<ActiveSpan>);

impl SpanGuard {
    /// A guard that records nothing.
    pub fn disabled() -> SpanGuard {
        SpanGuard(None)
    }

    /// The span's collector-unique id, if recording.
    pub fn id(&self) -> Option<u32> {
        self.0.as_ref().map(|a| a.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let end = Instant::now();
        let ptr = active.collector.ptr();
        OPEN.with(|o| {
            let mut stack = o.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&(p, id)| p == ptr && id == active.id)
            {
                stack.remove(pos);
            }
        });
        let epoch = active.collector.inner.epoch;
        let start_us = active.start.duration_since(epoch).as_secs_f64() * 1e6;
        let dur_us = end.duration_since(active.start).as_secs_f64() * 1e6;
        let mut st = active.collector.inner.state.lock().unwrap();
        st.spans.push(SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            detail: active.detail,
            thread: thread_num(),
            start_us,
            dur_us,
        });
    }
}

/// The calling thread's current collector, if one is installed.
pub fn current() -> Option<Collector> {
    CURRENT.with(|c| c.borrow().last().map(|(col, _)| col.clone()))
}

/// The span a new span of collector `ptr` nests under: this thread's
/// innermost open span when it belongs to that collector, else the span
/// a [`Handle`] carried to this thread.
fn open_span(ptr: usize) -> Option<u32> {
    OPEN.with(|o| {
        o.borrow()
            .last()
            .and_then(|&(p, id)| (p == ptr).then_some(id))
    })
    .or_else(|| {
        CURRENT.with(|c| {
            c.borrow()
                .iter()
                .rev()
                .find(|(col, _)| col.ptr() == ptr)
                .and_then(|&(_, parent)| parent)
        })
    })
}

/// Whether instrumentation is live on the calling thread.
pub fn enabled() -> bool {
    CURRENT.with(|c| !c.borrow().is_empty())
}

/// Opens a span on the current collector; no-op when none is installed.
pub fn span(name: &'static str) -> SpanGuard {
    match current() {
        Some(c) => c.span(name),
        None => SpanGuard(None),
    }
}

/// [`span`] with a lazily built annotation (the closure only runs when a
/// collector is installed).
pub fn span_with(name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    match current() {
        Some(c) => c.span_inner(name, Some(detail())),
        None => SpanGuard(None),
    }
}

/// Adds to a counter on the current collector; no-op when none is
/// installed.
pub fn count(name: &'static str, n: u64) {
    if let Some(c) = current() {
        c.count(name, n);
    }
}

/// A sendable reference to the current collector (or to nothing) and
/// the span open where it was taken, for handing instrumentation across
/// thread spawns: capture before spawning, [`Handle::attach`] inside the
/// worker.
#[derive(Clone)]
pub struct Handle(Option<(Collector, Option<u32>)>);

impl Handle {
    /// Installs the referenced collector on the calling thread for the
    /// guard's lifetime; spans opened there with no open span of their
    /// own nest under the span the handle recorded. `None` when the
    /// handle is empty (observability was disabled where the handle was
    /// taken).
    pub fn attach(&self) -> Option<InstallGuard> {
        self.0
            .as_ref()
            .map(|(col, parent)| col.install_under(*parent))
    }
}

/// Captures the calling thread's current collector, and the span open on
/// it, as a [`Handle`].
pub fn handle() -> Handle {
    Handle(current().map(|col| {
        let parent = open_span(col.ptr());
        (col, parent)
    }))
}

/// An immutable snapshot of a collector: spans sorted by start time,
/// counters sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    pub spans: Vec<SpanRecord>,
    pub counters: Vec<(String, u64)>,
}

impl ObsReport {
    /// The value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Summed duration (ms) of every span with this exact name.
    pub fn stage_total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum::<f64>()
            / 1e3
    }

    /// The spans whose parent is `parent` (`None` selects the roots),
    /// in start order.
    pub fn children_of(&self, parent: Option<u32>) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == parent).collect()
    }

    /// The span with this id, if present.
    pub fn find(&self, id: u32) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Chrome trace-event JSON (`{"traceEvents":[…]}` with `ph:"X"`
    /// complete events), loadable in Perfetto / `about://tracing`.
    /// Counters travel in `otherData.counters`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_string(s.name, &mut out);
            let _ = write!(
                out,
                ",\"cat\":\"jedule\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}",
                s.start_us, s.dur_us, s.thread
            );
            out.push_str(",\"args\":{");
            let _ = write!(out, "\"id\":{}", s.id);
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(d) = &s.detail {
                out.push_str(",\"detail\":");
                json_string(d, &mut out);
            }
            out.push_str("}}");
        }
        out.push_str("],\"otherData\":{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(k, &mut out);
            let _ = write!(out, ":{v}");
        }
        out.push_str("}}}");
        out
    }

    /// Flat machine-readable metrics (`jedule-metrics-v1`): per stage
    /// name its wall time (the length of the union of its spans'
    /// intervals), its worker time (their summed durations) and its span
    /// count, plus every counter.
    pub fn to_metrics_json(&self) -> String {
        let mut stages: BTreeMap<&'static str, Vec<&SpanRecord>> = BTreeMap::new();
        for s in &self.spans {
            stages.entry(s.name).or_default().push(s);
        }
        metrics_json(
            stages.iter().map(|(name, spans)| {
                let (wall_us, worker_us) = wall_and_worker_us(spans);
                (
                    *name,
                    StageMetrics {
                        wall_ms: wall_us / 1e3,
                        worker_ms: Some(worker_us / 1e3),
                        count: spans.len() as u64,
                    },
                )
            }),
            self.counters.iter().map(|(k, v)| (k.as_str(), *v)),
        )
    }

    /// Human-readable span tree (the `--timings` view). Sibling spans
    /// with the same name aggregate into one `×N` line showing the
    /// length of the union of their intervals, followed by their summed
    /// worker time when they overlap. Each parent gets an `(untracked)`
    /// line for the part of its wall time that no child covers, when
    /// that exceeds 1 µs. `total` is the wall time of the roots.
    pub fn tree_report(&self) -> String {
        let mut out = String::new();
        let roots = self.children_of(None);
        let total_us = wall_and_worker_us(&roots).0;
        self.tree_level(&roots, 0, &mut out);
        if roots.len() > 1 {
            let _ = writeln!(out, "total   {:10.3} ms", total_us / 1e3);
        }
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<38} {v}");
            }
        }
        out
    }

    fn tree_level(&self, spans: &[&SpanRecord], depth: usize, out: &mut String) {
        // Group same-named siblings, preserving first-start order.
        let mut order: Vec<&'static str> = Vec::new();
        let mut groups: BTreeMap<&'static str, Vec<&SpanRecord>> = BTreeMap::new();
        for s in spans {
            groups
                .entry(s.name)
                .or_insert_with(|| {
                    order.push(s.name);
                    Vec::new()
                })
                .push(s);
        }
        for name in order {
            let group = &groups[name];
            let (us, worker_us) = wall_and_worker_us(group);
            let label = match (group.len(), group[0].detail.as_deref()) {
                (1, Some(d)) => format!("{name} [{d}]"),
                (1, None) => name.to_string(),
                (n, _) => format!("{name} ×{n}"),
            };
            let indent = "  ".repeat(depth);
            let _ = write!(
                out,
                "{indent}{label:<width$} {:10.3} ms",
                us / 1e3,
                width = 40usize.saturating_sub(depth * 2)
            );
            if worker_us - us > 1.0 {
                let _ = write!(out, "  (worker {:.3} ms)", worker_us / 1e3);
            }
            out.push('\n');
            let mut children: Vec<&SpanRecord> = group
                .iter()
                .flat_map(|s| self.children_of(Some(s.id)))
                .collect();
            if !children.is_empty() {
                children.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
                self.tree_level(&children, depth + 1, out);
                let rest = us - wall_and_worker_us(&children).0;
                if rest > 1.0 {
                    let indent = "  ".repeat(depth + 1);
                    let _ = writeln!(
                        out,
                        "{indent}{:<width$} {:10.3} ms",
                        "(untracked)",
                        rest / 1e3,
                        width = 40usize.saturating_sub((depth + 1) * 2)
                    );
                }
            }
        }
    }
}

/// The wall time of `spans` (the length of the union of their
/// intervals) and their worker time (the sum of their durations), in
/// microseconds. The wall time never exceeds the worker time.
fn wall_and_worker_us(spans: &[&SpanRecord]) -> (f64, f64) {
    let mut intervals: Vec<(f64, f64)> = spans.iter().map(|s| (s.start_us, s.end_us())).collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    // In start order, each interval adds the part past the furthest end so far.
    let (mut wall, mut reach) = (0.0, f64::NEG_INFINITY);
    for (start, end) in intervals {
        if end > reach {
            wall += end - start.max(reach);
            reach = end;
        }
    }
    let worker: f64 = spans.iter().map(|s| s.dur_us).sum();
    (wall.min(worker), worker)
}

/// One stage of a `jedule-metrics-v1` document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageMetrics {
    /// Wall time: for spans, the length of the union of their intervals;
    /// a writer that holds only summed times writes the sum.
    pub wall_ms: f64,
    /// Summed span durations, when the writer holds the spans.
    pub worker_ms: Option<f64>,
    /// Spans or observations behind the row.
    pub count: u64,
}

/// Writes a flat `jedule-metrics-v1` document: one object per stage and
/// one number per counter, each in the order given (callers pass them
/// sorted by name). [`ObsReport::to_metrics_json`], the serve
/// [`Registry`] and the CI perf gate all write through it.
pub fn metrics_json<'a>(
    stages: impl IntoIterator<Item = (&'a str, StageMetrics)>,
    counters: impl IntoIterator<Item = (&'a str, u64)>,
) -> String {
    let mut out = String::from("{\"schema\":\"jedule-metrics-v1\",\"stages\":{");
    for (i, (name, m)) in stages.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(name, &mut out);
        let _ = write!(out, ":{{\"wall_ms\":{:.4}", m.wall_ms);
        if let Some(w) = m.worker_ms {
            let _ = write!(out, ",\"worker_ms\":{w:.4}");
        }
        let _ = write!(out, ",\"count\":{}}}", m.count);
    }
    out.push_str("},\"counters\":{");
    for (i, (k, v)) in counters.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(k, &mut out);
        let _ = write!(out, ":{v}");
    }
    out.push_str("}}\n");
    out
}

/// Minimal JSON string escaping (the exporters cannot depend on
/// `jedule-xmlio`'s JSON writer — that crate depends on this one).
fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_a_noop() {
        assert!(!enabled());
        assert!(current().is_none());
        let g = span("anything");
        assert!(g.id().is_none());
        drop(g);
        count("nothing", 5); // must not panic
        assert!(handle().attach().is_none());
    }

    #[test]
    fn spans_nest_per_thread() {
        let col = Collector::new();
        {
            let _g = col.install();
            assert!(enabled());
            let outer = span("outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = span("inner");
                assert_ne!(inner.id(), outer.id());
            }
            drop(outer);
            let free = span("free");
            assert!(free.id().is_some());
            drop(free);
            let rep = col.report();
            let inner = rep.spans.iter().find(|s| s.name == "inner").unwrap();
            assert_eq!(inner.parent, Some(outer_id));
            let free = rep.spans.iter().find(|s| s.name == "free").unwrap();
            assert_eq!(free.parent, None);
        }
        assert!(!enabled());
    }

    #[test]
    fn children_stay_inside_parents() {
        let col = Collector::new();
        let _g = col.install();
        {
            let _a = span("a");
            let _b = span("b");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let rep = col.report();
        let a = rep.spans.iter().find(|s| s.name == "a").unwrap();
        let b = rep.spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(b.parent, Some(a.id));
        assert!(b.start_us >= a.start_us);
        assert!(b.end_us() <= a.end_us());
        assert!(a.dur_us >= 1000.0);
    }

    #[test]
    fn counters_accumulate() {
        let col = Collector::new();
        let _g = col.install();
        count("tasks", 3);
        count("tasks", 4);
        count("other", 1);
        let rep = col.report();
        assert_eq!(rep.counter("tasks"), 7);
        assert_eq!(rep.counter("other"), 1);
        assert_eq!(rep.counter("absent"), 0);
    }

    #[test]
    fn handle_carries_collector_across_threads() {
        let col = Collector::new();
        let _g = col.install();
        let h = handle();
        let joins: Vec<_> = (0..3)
            .map(|i| {
                let h = h.clone();
                std::thread::spawn(move || {
                    let _att = h.attach();
                    let _s = span_with("worker", || format!("chunk {i}"));
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let rep = col.report();
        let workers: Vec<_> = rep.spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 3);
        // Worker spans are roots (no cross-thread parenting) on three
        // distinct threads.
        let mut threads: Vec<u64> = workers.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), 3);
        assert!(workers.iter().all(|s| s.parent.is_none()));
    }

    #[test]
    fn handle_nests_worker_spans_under_the_open_span() {
        let col = Collector::new();
        let _g = col.install();
        let stage = span("stage");
        let stage_id = stage.id();
        let h = handle();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _att = h.attach();
                let _w = span("worker");
                let _inner = span("inner");
            });
        });
        drop(stage);
        let rep = col.report();
        let find = |name| rep.spans.iter().find(|s| s.name == name).unwrap();
        let (stage, worker, inner) = (find("stage"), find("worker"), find("inner"));
        assert_eq!(worker.parent, stage_id);
        assert_ne!(worker.thread, stage.thread);
        assert_eq!(inner.parent, Some(worker.id));
        assert!(worker.start_us >= stage.start_us && worker.end_us() <= stage.end_us());
    }

    #[test]
    fn nested_install_wins_and_unwinds() {
        let a = Collector::new();
        let b = Collector::new();
        let _ga = a.install();
        {
            let _gb = b.install();
            let _s = span("into_b");
        }
        let _s = span("into_a");
        drop(_s);
        assert_eq!(a.report().spans.len(), 1);
        assert_eq!(a.report().spans[0].name, "into_a");
        assert_eq!(b.report().spans.len(), 1);
        assert_eq!(b.report().spans[0].name, "into_b");
    }

    #[test]
    fn chrome_trace_shape() {
        let col = Collector::new();
        {
            let _g = col.install();
            let _a = span("stage");
            let _b = col.span_with("sub", "de\"tail");
            count("bytes", 42);
        }
        let json = col.report().to_chrome_trace();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"stage\""));
        assert!(json.contains("\"detail\":\"de\\\"tail\""));
        assert!(json.contains("\"counters\":{\"bytes\":42}"));
    }

    #[test]
    fn metrics_json_aggregates_stages() {
        let col = Collector::new();
        {
            let _g = col.install();
            for _ in 0..3 {
                let _s = span("stage");
            }
            count("n", 9);
        }
        let json = col.report().to_metrics_json();
        assert!(json.contains("\"schema\":\"jedule-metrics-v1\""));
        assert!(json.contains("\"stage\":{\"wall_ms\":"));
        assert!(json.contains("\"count\":3"));
        assert!(json.contains("\"n\":9"));
    }

    #[test]
    fn tree_report_sums_and_indents() {
        let col = Collector::new();
        {
            let _g = col.install();
            let _root = span("root");
            let _c1 = span("child");
            drop(_c1);
            let _c2 = span("child");
        }
        let rep = col.report();
        let text = rep.tree_report();
        assert!(text.contains("root"), "{text}");
        assert!(text.contains("child ×2"), "{text}");
        // The root's duration bounds the children's sum.
        let root = rep.spans.iter().find(|s| s.name == "root").unwrap();
        let kids: f64 = rep
            .children_of(Some(root.id))
            .iter()
            .map(|s| s.dur_us)
            .sum();
        assert!(kids <= root.dur_us);
    }

    #[test]
    fn wall_time_is_the_union_of_intervals() {
        let rec = |id, start_us, dur_us| SpanRecord {
            id,
            parent: None,
            name: "s",
            detail: None,
            thread: 1,
            start_us,
            dur_us,
        };
        // [0, 10] and [5, 20] overlap, [12, 14] lies inside, [30, 31] is apart.
        let spans = [
            rec(0, 5.0, 15.0),
            rec(1, 0.0, 10.0),
            rec(2, 12.0, 2.0),
            rec(3, 30.0, 1.0),
        ];
        let refs: Vec<&SpanRecord> = spans.iter().collect();
        assert_eq!(wall_and_worker_us(&refs), (21.0, 28.0));
        let rep = ObsReport {
            spans: spans.to_vec(),
            counters: Vec::new(),
        };
        let text = rep.tree_report();
        assert!(text.contains("s ×4"), "{text}");
        assert!(text.contains("(worker 0.028 ms)"), "{text}");
        assert!(text.contains("total        0.021 ms"), "{text}");
    }

    #[test]
    fn report_spans_sorted_by_start() {
        let col = Collector::new();
        let _g = col.install();
        for _ in 0..5 {
            let _s = span("s");
        }
        let rep = col.report();
        for w in rep.spans.windows(2) {
            assert!(w[0].start_us <= w[1].start_us);
        }
    }
}
