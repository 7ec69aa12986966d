//! Fig. 3 family: composite-task computation on overlap-heavy schedules.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jedule_core::{Allocation, PreparedSchedule, Schedule, ScheduleBuilder, Task};
use std::hint::black_box;

/// A schedule where computation and transfers overlap on every host — the
/// §II-C3 scenario at scale.
fn overlapping_schedule(tasks: usize, hosts: u32) -> Schedule {
    let mut b = ScheduleBuilder::new().cluster(0, "c0", hosts);
    for i in 0..tasks {
        let h = (i as u32) % hosts;
        let t = (i / hosts as usize) as f64 * 2.0;
        b = b
            .task(
                Task::new(format!("c{i}"), "computation", t, t + 2.0)
                    .on(Allocation::contiguous(0, h, 1)),
            )
            .task(
                Task::new(format!("x{i}"), "transfer", t + 1.0, t + 1.8)
                    .on(Allocation::contiguous(0, h, 1)),
            );
    }
    b.build_unchecked()
}

fn bench_composites(c: &mut Criterion) {
    let mut g = c.benchmark_group("composite_tasks");
    g.sample_size(10);
    for &n in &[500usize, 5_000, 50_000] {
        let s = overlapping_schedule(n, 32);
        g.bench_with_input(BenchmarkId::new("overlap_pairs", n), &s, |b, s| {
            // A fresh bundle per iteration: index, columns and the sweep.
            b.iter(|| black_box(PreparedSchedule::borrowed(s).composites(0).len()))
        });
    }
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    let s = overlapping_schedule(20_000, 32);
    let mut g = c.benchmark_group("schedule_stats");
    g.sample_size(10);
    g.bench_function("stats_40k_tasks", |b| {
        b.iter(|| {
            black_box(jedule_core::stats::schedule_stats(
                &PreparedSchedule::borrowed(&s),
            ))
        })
    });
    g.bench_function("idle_holes_40k_tasks", |b| {
        b.iter(|| {
            black_box(jedule_core::stats::idle_holes(
                &PreparedSchedule::borrowed(&s),
                0.01,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_composites, bench_stats);
criterion_main!(benches);
