//! Fig. 1 family: the Jedule XML format at scale.
//!
//! The paper stresses batch pipelines producing "hundreds or thousands of
//! schedules" and traces with "more than 200,000 individual tasks"; these
//! benches measure parse/serialize throughput at those sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jedule_core::{Allocation, Schedule, ScheduleBuilder, Task};
use jedule_xmlio::{read_schedule, write_schedule_string};
use std::hint::black_box;

fn synthetic_schedule(tasks: usize) -> Schedule {
    let hosts = 64u32;
    let mut b = ScheduleBuilder::new().cluster(0, "c0", hosts);
    for i in 0..tasks {
        let h = (i as u32) % hosts;
        let t = i as f64;
        b = b.task(
            Task::new(format!("t{i}"), "computation", t, t + 1.5)
                .on(Allocation::contiguous(0, h, 1)),
        );
    }
    b.build_unchecked()
}

fn bench_xml(c: &mut Criterion) {
    let mut g = c.benchmark_group("jedule_xml");
    for &n in &[1_000usize, 10_000, 200_000] {
        let schedule = synthetic_schedule(n);
        let text = write_schedule_string(&schedule);
        g.sample_size(10);
        g.bench_with_input(BenchmarkId::new("write", n), &schedule, |b, s| {
            b.iter(|| black_box(write_schedule_string(s)))
        });
        g.bench_with_input(BenchmarkId::new("parse", n), &text, |b, t| {
            b.iter(|| black_box(read_schedule(t).unwrap()))
        });
    }
    g.finish();
}

fn bench_alt_formats(c: &mut Criterion) {
    let schedule = synthetic_schedule(10_000);
    let csv = jedule_xmlio::csvfmt::write_schedule_csv(&schedule);
    let jsonl = jedule_xmlio::jsonl::write_schedule_jsonl(&schedule);
    let mut g = c.benchmark_group("alt_formats");
    g.sample_size(10);
    g.bench_function("csv_parse_10k", |b| {
        b.iter(|| black_box(jedule_xmlio::csvfmt::read_schedule_csv(&csv).unwrap()))
    });
    g.bench_function("jsonl_parse_10k", |b| {
        b.iter(|| black_box(jedule_xmlio::jsonl::read_schedule_jsonl(&jsonl).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_xml, bench_alt_formats);
criterion_main!(benches);
