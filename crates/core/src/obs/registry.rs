//! Continuous process-lifetime metrics for resident services.
//!
//! The span/counter machinery in [`super`] records **one run**: a CLI
//! invocation arms a [`super::Collector`], renders, and exports the
//! tree. A long-lived `jedule serve` process instead needs telemetry
//! that outlives any single request: cumulative counters, gauges, and
//! fixed-bucket latency histograms that keep aggregating for the whole
//! process lifetime.
//!
//! [`Registry`] is that aggregation point. Request handlers still
//! record into per-request [`super::Collector`]s (so every request has
//! a complete span tree for `/debug/trace/<id>`); when the request
//! finishes its [`super::ObsReport`] is [`Registry::absorb`]ed — every
//! span becomes one observation in a per-stage duration histogram and
//! every one-shot counter folds into a cumulative `_total` counter.
//! The registry then encodes as Prometheus text exposition format
//! ([`Registry::render_prometheus`]) for `GET /metrics`, or as the
//! same `jedule-metrics-v1` JSON the CLI writes
//! ([`Registry::to_metrics_json`]) for shutdown flushes.
//!
//! Everything is behind one mutex; scrape and update rates in a render
//! service are far below contention territory, and a single lock keeps
//! cross-metric snapshots consistent.

use super::{ObsReport, StageMetrics};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Default latency buckets in seconds: half a millisecond up to ten
/// seconds, roughly ×2–×2.5 steps — wide enough for both a cached SVG
/// body (microseconds) and a cold million-task PNG render (seconds).
pub const DEFAULT_LATENCY_BUCKETS_S: [f64; 14] = [
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// A label set: `(name, value)` pairs. Stored sorted by name so the
/// same logical series always maps to the same table key.
type Labels = Vec<(String, String)>;

/// One histogram series: fixed finite bucket upper bounds (sorted,
/// strictly increasing), one non-cumulative count per bucket plus an
/// overflow slot, and the sum/count of every observation.
#[derive(Debug, Clone, PartialEq)]
struct Hist {
    bounds: Vec<f64>,
    /// `counts[i]` = observations `v <= bounds[i]` (and above the
    /// previous bound); `counts[bounds.len()]` is the overflow bucket.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Hist {
    fn new(bounds: &[f64]) -> Hist {
        let mut b: Vec<f64> = bounds.iter().copied().filter(|v| v.is_finite()).collect();
        b.sort_by(f64::total_cmp);
        b.dedup();
        let n = b.len();
        Hist {
            bounds: b,
            counts: vec![0; n + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += v;
        self.count += 1;
    }
}

/// A read-only copy of one histogram series, for tests and encoders.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds, strictly increasing.
    pub bounds: Vec<f64>,
    /// Cumulative counts per bound (`cumulative[i]` = observations
    /// `<= bounds[i]`); the implicit `+Inf` bucket equals [`Self::count`].
    pub cumulative: Vec<u64>,
    pub sum: f64,
    pub count: u64,
}

#[derive(Default)]
struct Tables {
    help: BTreeMap<String, String>,
    counters: BTreeMap<String, BTreeMap<Labels, u64>>,
    gauges: BTreeMap<String, BTreeMap<Labels, f64>>,
    histograms: BTreeMap<String, BTreeMap<Labels, Hist>>,
}

/// A process-lifetime metrics registry: named counter, gauge and
/// histogram families, each fanned out by label set. Cloning is cheap
/// and shares the underlying tables (like [`super::Collector`]).
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Tables>>,
}

fn key_labels(labels: &[(&str, &str)]) -> Labels {
    let mut l: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    l
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Sets the `# HELP` text of a metric family. Metrics without a
    /// registered help line get a generic one.
    pub fn describe(&self, name: &str, help: &str) {
        let mut t = self.inner.lock().unwrap();
        t.help.insert(name.to_string(), help.to_string());
    }

    /// Adds `n` to a cumulative counter series (created at 0 on first
    /// touch).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        let mut t = self.inner.lock().unwrap();
        *t.counters
            .entry(name.to_string())
            .or_default()
            .entry(key_labels(labels))
            .or_insert(0) += n;
    }

    /// Sets a gauge series to `v`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        let mut t = self.inner.lock().unwrap();
        t.gauges
            .entry(name.to_string())
            .or_default()
            .insert(key_labels(labels), v);
    }

    /// Adds `delta` to a gauge series (created at 0 on first touch) —
    /// for in-flight style gauges.
    pub fn gauge_add(&self, name: &str, labels: &[(&str, &str)], delta: f64) {
        let mut t = self.inner.lock().unwrap();
        *t.gauges
            .entry(name.to_string())
            .or_default()
            .entry(key_labels(labels))
            .or_insert(0.0) += delta;
    }

    /// Records `v` into a histogram series with the
    /// [`DEFAULT_LATENCY_BUCKETS_S`].
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.observe_with(name, labels, &DEFAULT_LATENCY_BUCKETS_S, v);
    }

    /// Records `v` into a histogram series with explicit bucket upper
    /// bounds. The bounds are fixed when the series is first touched;
    /// later calls reuse the existing buckets (bounds passed then are
    /// ignored), so a family's series stay mutually comparable.
    pub fn observe_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64], v: f64) {
        let mut t = self.inner.lock().unwrap();
        t.histograms
            .entry(name.to_string())
            .or_default()
            .entry(key_labels(labels))
            .or_insert_with(|| Hist::new(bounds))
            .observe(v);
    }

    /// Folds one finished run into the process-lifetime aggregates:
    /// every span becomes an observation in
    /// `jedule_stage_duration_seconds{stage="<span name>"}` and every
    /// report counter adds to `jedule_<name>_total`.
    pub fn absorb(&self, report: &ObsReport) {
        for s in &report.spans {
            self.observe(
                "jedule_stage_duration_seconds",
                &[("stage", s.name)],
                s.dur_us / 1e6,
            );
        }
        for (k, v) in &report.counters {
            self.counter_add(&format!("jedule_{}_total", sanitize_name(k)), &[], *v);
        }
    }

    /// Current value of a counter series (0 when absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let t = self.inner.lock().unwrap();
        t.counters
            .get(name)
            .and_then(|s| s.get(&key_labels(labels)))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of a counter family across *all* its label sets — the value
    /// partition invariants are checked against (e.g. tile hits +
    /// misses == lookups must hold over every `fmt` label combined).
    pub fn counter_total(&self, name: &str) -> u64 {
        let t = self.inner.lock().unwrap();
        t.counters.get(name).map(|s| s.values().sum()).unwrap_or(0)
    }

    /// Current value of a gauge series, if it exists.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let t = self.inner.lock().unwrap();
        t.gauges
            .get(name)
            .and_then(|s| s.get(&key_labels(labels)))
            .copied()
    }

    /// Snapshot of a histogram series, if it exists, with buckets
    /// already accumulated the way the exposition format wants them.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramSnapshot> {
        let t = self.inner.lock().unwrap();
        let h = t.histograms.get(name)?.get(&key_labels(labels))?;
        let mut cumulative = Vec::with_capacity(h.bounds.len());
        let mut acc = 0u64;
        for &c in &h.counts[..h.bounds.len()] {
            acc += c;
            cumulative.push(acc);
        }
        Some(HistogramSnapshot {
            bounds: h.bounds.clone(),
            cumulative,
            sum: h.sum,
            count: h.count,
        })
    }

    /// Prometheus text exposition format (version 0.0.4): one
    /// `# HELP` / `# TYPE` pair per family, series sorted by name and
    /// label set, histograms expanded into cumulative `_bucket` lines
    /// (ending in `le="+Inf"` which always equals `_count`), `_sum` and
    /// `_count`. Metric and label names are sanitized to the allowed
    /// character set and label values are escaped.
    pub fn render_prometheus(&self) -> String {
        let t = self.inner.lock().unwrap();
        let mut out = String::new();
        for (name, series) in &t.counters {
            let name = sanitize_name(name);
            head(&mut out, &name, "counter", &t.help);
            for (labels, v) in series {
                let _ = writeln!(out, "{name}{} {v}", fmt_labels(labels, None));
            }
        }
        for (name, series) in &t.gauges {
            let name = sanitize_name(name);
            head(&mut out, &name, "gauge", &t.help);
            for (labels, v) in series {
                let _ = writeln!(out, "{name}{} {}", fmt_labels(labels, None), fmt_f64(*v));
            }
        }
        for (name, series) in &t.histograms {
            let name = sanitize_name(name);
            head(&mut out, &name, "histogram", &t.help);
            for (labels, h) in series {
                let mut acc = 0u64;
                for (i, &b) in h.bounds.iter().enumerate() {
                    acc += h.counts[i];
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {acc}",
                        fmt_labels(labels, Some(&fmt_f64(b)))
                    );
                }
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {}",
                    fmt_labels(labels, Some("+Inf")),
                    h.count
                );
                let _ = writeln!(
                    out,
                    "{name}_sum{} {}",
                    fmt_labels(labels, None),
                    fmt_f64(h.sum)
                );
                let _ = writeln!(out, "{name}_count{} {}", fmt_labels(labels, None), h.count);
            }
        }
        out
    }

    /// The same snapshot `render_prometheus` encodes, as key-sorted
    /// JSON — the `/metrics.json` payload a browser dashboard can poll
    /// without a Prometheus text parser. Keys are exactly the
    /// Prometheus series identifiers (sanitized name plus the same
    /// `{label="value"}` rendering), so the two expositions agree
    /// key-for-key: every counter/gauge sample line in the text format
    /// appears as one key here, and every histogram family+label-set
    /// appears once with its bounds, cumulative bucket counts, sum and
    /// count (the `+Inf` bucket is implied by `count`).
    pub fn render_json(&self) -> String {
        let t = self.inner.lock().unwrap();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for (name, series) in &t.counters {
            for (labels, v) in series {
                counters.insert(
                    format!("{}{}", sanitize_name(name), fmt_labels(labels, None)),
                    *v,
                );
            }
        }
        let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
        for (name, series) in &t.gauges {
            for (labels, v) in series {
                gauges.insert(
                    format!("{}{}", sanitize_name(name), fmt_labels(labels, None)),
                    *v,
                );
            }
        }
        let mut hists: BTreeMap<String, &Hist> = BTreeMap::new();
        for (name, series) in &t.histograms {
            for (labels, h) in series {
                hists.insert(
                    format!("{}{}", sanitize_name(name), fmt_labels(labels, None)),
                    h,
                );
            }
        }
        let mut out = String::from("{\"schema\":\"jedule-registry-v1\",\"counters\":{");
        for (i, (key, v)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            super::json_string(key, &mut out);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (key, v)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            super::json_string(key, &mut out);
            out.push(':');
            out.push_str(&json_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (key, h)) in hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            super::json_string(key, &mut out);
            out.push_str(":{\"bounds\":[");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_f64(*b));
            }
            out.push_str("],\"cumulative\":[");
            let mut acc = 0u64;
            for (j, c) in h.counts[..h.bounds.len()].iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                acc += c;
                let _ = write!(out, "{acc}");
            }
            let _ = write!(out, "],\"sum\":{},\"count\":{}}}", json_f64(h.sum), h.count);
        }
        out.push_str("}}\n");
        out
    }

    /// The registry as flat `jedule-metrics-v1` JSON — the same schema
    /// `--metrics-json` and the CI perf gate use, so a serve shutdown
    /// flush diffs with the same tooling. Histogram series become
    /// stages (`wall_ms` = summed observations, `count`), counters map
    /// directly; both sections are emitted in sorted key order.
    pub fn to_metrics_json(&self) -> String {
        let t = self.inner.lock().unwrap();
        let mut stages: BTreeMap<String, StageMetrics> = BTreeMap::new();
        for (name, series) in &t.histograms {
            for (labels, h) in series {
                let m = StageMetrics {
                    wall_ms: h.sum * 1e3,
                    worker_ms: None,
                    count: h.count,
                };
                stages.insert(series_key(name, labels), m);
            }
        }
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for (name, series) in &t.counters {
            for (labels, v) in series {
                counters.insert(series_key(name, labels), *v);
            }
        }
        super::metrics_json(
            stages.iter().map(|(k, m)| (k.as_str(), *m)),
            counters.iter().map(|(k, v)| (k.as_str(), *v)),
        )
    }
}

/// `name` or `name{l1="v1",...}` for a flat JSON key.
fn series_key(name: &str, labels: &Labels) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", body.join(","))
}

fn head(out: &mut String, name: &str, kind: &str, help: &BTreeMap<String, String>) {
    let text = help
        .get(name)
        .map(String::as_str)
        .unwrap_or("jedule metric");
    let _ = write!(out, "# HELP {name} ");
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('\n');
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Clamps a metric name to `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Clamps a label name to `[a-zA-Z_][a-zA-Z0-9_]*` (no colons).
fn sanitize_label(name: &str) -> String {
    let mut out = sanitize_name(name).replace(':', "_");
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Escapes a label value: backslash, double quote and newline.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// `{k1="v1",...}` (optionally with a trailing `le`), or `""` when
/// there are no labels at all.
fn fmt_labels(labels: &Labels, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_label(k), escape_label_value(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// JSON-safe float formatting: shortest round-trip decimal for finite
/// values, `null` for anything JSON cannot represent.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prometheus sample-value formatting: shortest round-trip decimal,
/// with the spec spellings for the non-finite values.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::super::Collector;
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let r = Registry::new();
        r.counter_add("reqs", &[("route", "/a")], 2);
        r.counter_add("reqs", &[("route", "/a")], 3);
        r.counter_add("reqs", &[("route", "/b")], 1);
        assert_eq!(r.counter_value("reqs", &[("route", "/a")]), 5);
        assert_eq!(r.counter_value("reqs", &[("route", "/b")]), 1);
        assert_eq!(r.counter_value("reqs", &[]), 0);
    }

    #[test]
    fn counter_total_sums_every_label_set() {
        let r = Registry::new();
        r.counter_add("tiles", &[("fmt", "svg")], 3);
        r.counter_add("tiles", &[("fmt", "png")], 4);
        r.counter_add("tiles", &[], 1);
        assert_eq!(r.counter_total("tiles"), 8);
        assert_eq!(r.counter_total("absent"), 0);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = Registry::new();
        r.counter_add("m", &[("a", "1"), ("b", "2")], 1);
        r.counter_add("m", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.counter_value("m", &[("a", "1"), ("b", "2")]), 2);
    }

    #[test]
    fn gauges_set_and_add() {
        let r = Registry::new();
        r.gauge_set("g", &[], 4.5);
        assert_eq!(r.gauge_value("g", &[]), Some(4.5));
        r.gauge_add("g", &[], -1.5);
        assert_eq!(r.gauge_value("g", &[]), Some(3.0));
        r.gauge_add("fresh", &[], 2.0);
        assert_eq!(r.gauge_value("fresh", &[]), Some(2.0));
    }

    #[test]
    fn histogram_buckets_fill_cumulatively() {
        let r = Registry::new();
        for v in [0.5, 1.0, 1.5, 20.0] {
            r.observe_with("h", &[], &[1.0, 2.0, 5.0], v);
        }
        let s = r.histogram("h", &[]).unwrap();
        assert_eq!(s.bounds, vec![1.0, 2.0, 5.0]);
        // 0.5 and 1.0 land in le=1 (boundary inclusive), 1.5 in le=2,
        // 20 overflows to +Inf only.
        assert_eq!(s.cumulative, vec![2, 3, 3]);
        assert_eq!(s.count, 4);
        assert!((s.sum - 23.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bounds_fixed_on_first_touch() {
        let r = Registry::new();
        r.observe_with("h", &[], &[1.0, 2.0], 0.1);
        r.observe_with("h", &[], &[100.0], 0.2); // ignored bounds
        let s = r.histogram("h", &[]).unwrap();
        assert_eq!(s.bounds, vec![1.0, 2.0]);
        assert_eq!(s.count, 2);
    }

    #[test]
    fn unsorted_or_infinite_bounds_are_normalized() {
        let r = Registry::new();
        r.observe_with("h", &[], &[5.0, 1.0, f64::INFINITY, 1.0], 3.0);
        let s = r.histogram("h", &[]).unwrap();
        assert_eq!(s.bounds, vec![1.0, 5.0]);
        assert_eq!(s.cumulative, vec![0, 1]);
    }

    #[test]
    fn absorb_turns_spans_into_stage_histograms() {
        let col = Collector::new();
        {
            let _g = col.install();
            let _a = super::super::span("serve.render");
            let _b = super::super::span("serve.encode");
            super::super::count("render.tasks", 7);
        }
        let r = Registry::new();
        r.absorb(&col.report());
        let h = r
            .histogram(
                "jedule_stage_duration_seconds",
                &[("stage", "serve.render")],
            )
            .unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(r.counter_value("jedule_render_tasks_total", &[]), 7);
    }

    #[test]
    fn prometheus_shape_and_escaping() {
        let r = Registry::new();
        r.describe("jedule_http_requests_total", "Requests\nby route \\ status");
        r.counter_add(
            "jedule_http_requests_total",
            &[("route", "/render"), ("status", "200")],
            3,
        );
        r.gauge_set("temp.gauge", &[("k", "va\"l\\ue\n")], 1.5);
        r.observe_with("lat", &[], &[0.5], 0.1);
        let text = r.render_prometheus();
        assert!(
            text.contains("# HELP jedule_http_requests_total Requests\\nby route \\\\ status\n")
        );
        assert!(text.contains("# TYPE jedule_http_requests_total counter\n"));
        assert!(text.contains("jedule_http_requests_total{route=\"/render\",status=\"200\"} 3\n"));
        // Metric name sanitized, label value escaped.
        assert!(text.contains("temp_gauge{k=\"va\\\"l\\\\ue\\n\"} 1.5\n"));
        assert!(text.contains("lat_bucket{le=\"0.5\"} 1\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("lat_sum 0.1\n"));
        assert!(text.contains("lat_count 1\n"));
    }

    #[test]
    fn sanitizers() {
        assert_eq!(sanitize_name("serve.cache-hit"), "serve_cache_hit");
        assert_eq!(sanitize_name("0bad"), "_bad");
        assert_eq!(sanitize_name(""), "_");
        assert_eq!(sanitize_name("a:b"), "a:b");
        assert_eq!(sanitize_label("a:b"), "a_b");
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(1.0), "1");
        assert_eq!(fmt_f64(0.005), "0.005");
    }

    #[test]
    fn metrics_json_is_sorted_and_flat() {
        let r = Registry::new();
        r.observe("zeta", &[], 0.001);
        r.observe("alpha", &[("stage", "s")], 0.002);
        r.counter_add("z_total", &[], 1);
        r.counter_add("a_total", &[], 2);
        let json = r.to_metrics_json();
        assert!(json.contains("\"schema\":\"jedule-metrics-v1\""));
        let alpha = json.find("alpha{stage=s}").unwrap();
        let zeta = json.find("\"zeta\"").unwrap();
        assert!(alpha < zeta);
        let a = json.find("\"a_total\":2").unwrap();
        let z = json.find("\"z_total\":1").unwrap();
        assert!(a < z);
    }

    /// Walks the whole exposition generically: every `_bucket` run must
    /// be cumulative (non-decreasing in `le` order) and end with a
    /// `le="+Inf"` row equal to the series' `_count`.
    #[test]
    fn exposition_buckets_are_monotone_and_close_at_count() {
        let r = Registry::new();
        for (i, v) in [1e-4, 0.003, 0.02, 0.4, 7.0, 99.0].into_iter().enumerate() {
            let route = if i % 2 == 0 { "/a" } else { "/b" };
            r.observe("jedule_lat_seconds", &[("route", route)], v);
            r.observe_with("coarse", &[], &[0.01, 1.0], v);
        }
        r.counter_add("jedule_http_requests_total", &[], 6);
        r.gauge_set("jedule_inflight", &[], 0.0);
        let text = r.render_prometheus();
        let mut prev: Option<(String, u64)> = None;
        let mut pending_inf: Option<u64> = None;
        let mut series_seen = 0;
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').unwrap();
            if let Some(le) = series.find("le=\"") {
                let prefix = series[..le].to_string();
                let v: u64 = value.parse().unwrap();
                if let Some((p, last)) = &prev {
                    if *p == prefix {
                        assert!(v >= *last, "bucket rows must be cumulative: {line}");
                    }
                }
                if series.contains("le=\"+Inf\"") {
                    pending_inf = Some(v);
                    series_seen += 1;
                }
                prev = Some((prefix, v));
            } else if series.split('{').next().unwrap().ends_with("_count") {
                let inf = pending_inf.take().expect("count follows its +Inf bucket");
                assert_eq!(
                    value.parse::<u64>().unwrap(),
                    inf,
                    "+Inf bucket must equal _count: {line}"
                );
            } else {
                prev = None;
            }
        }
        assert_eq!(series_seen, 3, "three histogram series exported");
        assert!(pending_inf.is_none(), "every +Inf row found its _count");
    }

    /// `/metrics.json` must agree key-for-key with the text
    /// exposition: every counter/gauge sample line maps to one JSON
    /// key, every histogram family+labels appears once, and nothing
    /// extra exists on either side.
    #[test]
    fn render_json_agrees_with_prometheus_text() {
        let r = Registry::new();
        r.counter_add(
            "jedule_http_requests_total",
            &[("route", "/render"), ("status", "200")],
            3,
        );
        r.counter_add(
            "jedule_http_requests_total",
            &[("route", "/metrics"), ("status", "200")],
            1,
        );
        r.gauge_set("jedule_inflight", &[], 2.0);
        r.gauge_set("jedule_connections", &[("state", "reading")], 4.0);
        r.observe(
            "jedule_request_duration_seconds",
            &[("route", "/render")],
            0.012,
        );
        r.observe_with("jedule_queue_depth", &[], &[1.0, 4.0, 16.0], 2.0);
        let json = r.render_json();
        let text = r.render_prometheus();

        // Collect series identifiers from the text exposition.
        let mut text_counters = std::collections::BTreeSet::new();
        let mut text_gauges = std::collections::BTreeSet::new();
        let mut text_hists = std::collections::BTreeSet::new();
        let mut kind = "";
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                kind = rest.split(' ').nth(1).unwrap();
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let series = line.rsplit_once(' ').unwrap().0;
            match kind {
                "counter" => {
                    text_counters.insert(series.to_string());
                }
                "gauge" => {
                    text_gauges.insert(series.to_string());
                }
                "histogram" => {
                    // Reduce `name_sum{labels}` to the family identity;
                    // skip _bucket/_count, _sum alone covers each series.
                    if let Some((name, labels)) = series.split_once('{') {
                        if let Some(fam) = name.strip_suffix("_sum") {
                            text_hists.insert(format!("{fam}{{{labels}"));
                        }
                    } else if let Some(fam) = series.strip_suffix("_sum") {
                        text_hists.insert(fam.to_string());
                    }
                }
                _ => panic!("unknown TYPE {kind}"),
            }
        }

        // Collect keys from the JSON (keys are JSON-escaped Prometheus
        // series identifiers: unescape \" and \\).
        let keys_in = |section: &str| -> std::collections::BTreeSet<String> {
            let start = json.find(&format!("\"{section}\":{{")).unwrap() + section.len() + 4;
            let mut depth = 1;
            let mut end = start;
            let bytes = json.as_bytes();
            let mut in_str = false;
            let mut esc = false;
            while depth > 0 {
                let c = bytes[end] as char;
                if esc {
                    esc = false;
                } else if in_str {
                    match c {
                        '\\' => esc = true,
                        '"' => in_str = false,
                        _ => {}
                    }
                } else {
                    match c {
                        '"' => in_str = true,
                        '{' => depth += 1,
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                end += 1;
            }
            let body = &json[start..end - 1];
            // Top-level keys: a quoted string followed by ':' at depth 0.
            let mut keys = std::collections::BTreeSet::new();
            let b = body.as_bytes();
            let mut i = 0;
            let mut d = 0;
            while i < b.len() {
                match b[i] as char {
                    '{' | '[' => {
                        d += 1;
                        i += 1;
                    }
                    '}' | ']' => {
                        d -= 1;
                        i += 1;
                    }
                    '"' if d == 0 => {
                        let mut j = i + 1;
                        let mut s = String::new();
                        loop {
                            match b[j] as char {
                                '\\' => {
                                    s.push(b[j + 1] as char);
                                    j += 2;
                                }
                                '"' => break,
                                c => {
                                    s.push(c);
                                    j += 1;
                                }
                            }
                        }
                        keys.insert(s);
                        // Skip past the value: advance to next ',' at d==0
                        // handled by the outer loop.
                        i = j + 1;
                    }
                    '"' => {
                        // A string inside a nested value; skip it whole.
                        let mut j = i + 1;
                        while (b[j] as char) != '"' {
                            j += if (b[j] as char) == '\\' { 2 } else { 1 };
                        }
                        i = j + 1;
                    }
                    _ => i += 1,
                }
            }
            keys
        };
        assert_eq!(keys_in("counters"), text_counters);
        assert_eq!(keys_in("gauges"), text_gauges);
        assert_eq!(keys_in("histograms"), text_hists);
        // Keys inside each section are emitted sorted.
        let c = keys_in("counters");
        let mut sorted: Vec<_> = c.iter().cloned().collect();
        sorted.sort();
        let order: Vec<_> = c.into_iter().collect();
        assert_eq!(order, sorted);
    }

    #[test]
    fn render_json_histogram_detail() {
        let r = Registry::new();
        for v in [0.5, 1.5, 9.0] {
            r.observe_with("h", &[], &[1.0, 2.0], v);
        }
        let json = r.render_json();
        assert!(json.contains("\"schema\":\"jedule-registry-v1\""));
        assert!(
            json.contains("\"h\":{\"bounds\":[1,2],\"cumulative\":[1,2],\"sum\":11,\"count\":3}"),
            "{json}"
        );
    }

    #[test]
    fn registry_is_send_sync_and_shared_via_clone() {
        fn check<T: Send + Sync + Clone>() {}
        check::<Registry>();
        let r = Registry::new();
        let r2 = r.clone();
        r2.counter_add("n", &[], 1);
        assert_eq!(r.counter_value("n", &[]), 1);
    }
}
