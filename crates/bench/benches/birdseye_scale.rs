//! Bird's-eye scale benchmarks: rendering 10k/100k/1M-task schedules at
//! a fixed 1920 px canvas, with and without level-of-detail aggregation,
//! plus interval-index window culling and streaming SWF parsing.
//!
//! These back the PR's acceptance numbers (see BENCH_birdseye.json):
//! at one million tasks LOD=auto must beat LOD=off by ≥ 10× and a 1%
//! time window must beat the full extent by ≥ 5×.
//!
//! Set `JEDULE_BENCH_QUICK=1` to shrink sizes and sample counts so CI
//! can smoke-test the harness in seconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jedule_core::{PreparedSchedule, Schedule};
use jedule_render::{render, render_prepared, LodMode, RenderOptions};
use jedule_workloads::convert::{assigned_to_schedule, workload_colormap};
use jedule_workloads::swf::{parse_swf, parse_swf_reader, write_swf};
use jedule_workloads::{synth_scale_trace, ConvertOptions};
use std::hint::black_box;

const NODES: u32 = 1024;
const WIDTH: f64 = 1920.0;

fn quick() -> bool {
    std::env::var_os("JEDULE_BENCH_QUICK").is_some()
}

fn sizes() -> Vec<usize> {
    if quick() {
        vec![2_000, 20_000]
    } else {
        vec![10_000, 100_000, 1_000_000]
    }
}

fn scale_schedule(jobs: usize) -> Schedule {
    let assigned = synth_scale_trace(jobs, NODES, 20070202);
    let opts = ConvertOptions {
        cluster_name: "scale".into(),
        total_nodes: NODES,
        reserved: 0,
        highlight_user: None,
        // Bird's-eye ingest: skip the per-task attr strings the renderer
        // never reads (see ConvertOptions::task_attrs).
        task_attrs: false,
    };
    assigned_to_schedule(&assigned, &opts)
}

fn birdseye_options(lod: LodMode) -> RenderOptions {
    let mut o = RenderOptions::default()
        .with_size(WIDTH, None)
        .with_colormap(workload_colormap())
        .with_lod(lod);
    o.show_labels = false;
    o.show_meta = false;
    // Independent batch jobs never overlap, so the composite sweep has
    // nothing to find; keep the measurement on the layout/back-end path.
    o.show_composites = false;
    o
}

fn extent(s: &Schedule) -> (f64, f64) {
    let lo = s
        .tasks
        .iter()
        .map(|t| t.start)
        .fold(f64::INFINITY, f64::min);
    let hi = s
        .tasks
        .iter()
        .map(|t| t.end)
        .fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

/// Full renders (layout → SVG) with and without LOD aggregation.
fn bench_lod(c: &mut Criterion) {
    let mut g = c.benchmark_group("birdseye_render_1920");
    g.sample_size(if quick() { 3 } else { 10 });
    for n in sizes() {
        let s = scale_schedule(n);
        g.bench_with_input(BenchmarkId::new("lod_auto", n), &s, |b, s| {
            b.iter(|| black_box(render(s, &birdseye_options(LodMode::Auto))))
        });
        g.bench_with_input(BenchmarkId::new("lod_off", n), &s, |b, s| {
            b.iter(|| black_box(render(s, &birdseye_options(LodMode::Off))))
        });
        g.bench_with_input(BenchmarkId::new("layout_only_auto", n), &s, |b, s| {
            let o = birdseye_options(LodMode::Auto);
            b.iter(|| black_box(jedule_render::layout(s, &o)))
        });
        g.bench_with_input(BenchmarkId::new("layout_only_off", n), &s, |b, s| {
            let o = birdseye_options(LodMode::Off);
            b.iter(|| black_box(jedule_render::layout(s, &o)))
        });
        // Layout served from a warmed PreparedSchedule, single-threaded.
        // The `layout_only_*` rows above measure a one-shot wrap of the
        // bare schedule (columns and extents built per call), so the gap
        // is the per-call cost of that wrap. BENCH_birdseye.json's
        // `soa_layout_1m_speedup` was recorded against the scalar
        // `Vec<Task>` layout those rows used to measure, since deleted.
        let prep = PreparedSchedule::new(s.clone());
        prep.warm();
        g.bench_with_input(
            BenchmarkId::new("layout_prepared_auto", n),
            &prep,
            |b, p| {
                let o = birdseye_options(LodMode::Auto).with_threads(1);
                let mut scratch = jedule_render::LayoutScratch::new();
                b.iter(|| black_box(jedule_render::layout_prepared_scratch(p, &o, &mut scratch)))
            },
        );
        g.bench_with_input(BenchmarkId::new("layout_prepared_off", n), &prep, |b, p| {
            let o = birdseye_options(LodMode::Off).with_threads(1);
            let mut scratch = jedule_render::LayoutScratch::new();
            b.iter(|| black_box(jedule_render::layout_prepared_scratch(p, &o, &mut scratch)))
        });
    }
    g.finish();
}

/// Interval-index culling: a 1% time window against the full extent.
/// LOD is off in both so the comparison isolates the index.
fn bench_window(c: &mut Criterion) {
    let mut g = c.benchmark_group("birdseye_window_1920");
    g.sample_size(if quick() { 3 } else { 10 });
    for n in sizes() {
        let s = scale_schedule(n);
        let (lo, hi) = extent(&s);
        let mid = lo + (hi - lo) * 0.5;
        let span = (hi - lo) * 0.01;
        g.bench_with_input(BenchmarkId::new("window_1pct", n), &s, |b, s| {
            let o = birdseye_options(LodMode::Off).with_time_window(mid, mid + span);
            b.iter(|| black_box(render(s, &o)))
        });
        g.bench_with_input(BenchmarkId::new("full_extent", n), &s, |b, s| {
            let o = birdseye_options(LodMode::Off);
            b.iter(|| black_box(render(s, &o)))
        });
        // The serve-shaped window render: cached extents + index +
        // columns, so the per-frame cost is bounded by the tasks the
        // window actually shows, not by per-render fixed work.
        let prep = PreparedSchedule::new(s.clone());
        prep.warm();
        g.bench_with_input(
            BenchmarkId::new("window_1pct_prepared", n),
            &prep,
            |b, p| {
                let o = birdseye_options(LodMode::Off).with_time_window(mid, mid + span);
                b.iter(|| black_box(render_prepared(p, &o)))
            },
        );
    }
    g.finish();
}

/// SWF parsing at scale: the whole-string parser vs the streaming
/// line-by-line reader (same grammar, byte-identical results).
fn bench_swf_parse(c: &mut Criterion) {
    let mut g = c.benchmark_group("swf_parse_scale");
    g.sample_size(if quick() { 3 } else { 10 });
    let n = if quick() { 20_000 } else { 1_000_000 };
    let jobs: Vec<_> = synth_scale_trace(n, NODES, 7)
        .into_iter()
        .map(|a| a.job)
        .collect();
    let text = write_swf(&Default::default(), &jobs);
    g.bench_with_input(BenchmarkId::new("parse_swf", n), &text, |b, t| {
        b.iter(|| black_box(parse_swf(t).unwrap()))
    });
    g.bench_with_input(BenchmarkId::new("parse_swf_reader", n), &text, |b, t| {
        b.iter(|| black_box(parse_swf_reader(t.as_bytes()).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_lod, bench_window, bench_swf_parse);
criterion_main!(benches);
