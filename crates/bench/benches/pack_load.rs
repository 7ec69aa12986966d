//! Cold-load benchmarks for `.jpack` snapshots: the time from "bytes on
//! disk" to "a `PreparedSchedule` ready to serve windowed renders",
//! text path vs pack path.
//!
//! The text path pays parse (SWF → jobs → schedule) plus `warm()`
//! (interval index, extents, columns). The pack path mmaps the sidecar,
//! validates it (header, digest, section table, every CSR and index
//! row), and adopts the borrowed columns — no parse, no tree build, no
//! index construction. The stored index rows are gathered on first
//! query, not at load, so the `jpack_load` row no longer includes that
//! gather: BENCH_ingest.json's `jpack_load_1m_speedup` acceptance row,
//! the ratio of these two medians at one million tasks, compares a load
//! without the index against parse plus `warm()`.
//!
//! Set `JEDULE_BENCH_QUICK=1` to shrink sizes so CI can smoke-test the
//! harness in seconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jedule_core::{snap, PreparedSchedule};
use jedule_workloads::convert::jobs_to_schedule;
use jedule_workloads::swf::{parse_swf, write_swf, SwfHeader};
use jedule_workloads::{synth_scale_trace, ConvertOptions};
use std::hint::black_box;

const NODES: u32 = 1024;

fn quick() -> bool {
    std::env::var_os("JEDULE_BENCH_QUICK").is_some()
}

fn bench_pack_cold(c: &mut Criterion) {
    let mut g = c.benchmark_group("pack_cold");
    g.sample_size(10);
    let n = if quick() { 20_000 } else { 1_000_000 };

    let assigned = synth_scale_trace(n, NODES, 20070202);
    let opts = ConvertOptions {
        cluster_name: "scale".into(),
        total_nodes: NODES,
        reserved: 0,
        highlight_user: None,
        task_attrs: false,
    };
    let swf_text = write_swf(
        &SwfHeader {
            computer: Some("scale".into()),
            max_nodes: Some(NODES),
            max_procs: Some(NODES),
            raw: Vec::new(),
        },
        &assigned.iter().map(|a| a.job.clone()).collect::<Vec<_>>(),
    );
    let digest = snap::source_digest(swf_text.as_bytes());

    // The sidecar a `--pack-sidecar` run would leave behind: the exact
    // schedule the text cold path below produces, packed once.
    let (_, jobs) = parse_swf(&swf_text).unwrap();
    let prep = PreparedSchedule::new(jobs_to_schedule(&jobs, &opts));
    prep.warm();
    let dir = std::env::temp_dir().join(format!("jedule-pack-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let pack_path = dir.join("trace.swf.jpack");
    snap::write_pack_file(&prep, digest, &pack_path, 0).expect("write pack");

    // Text cold path: what a first render pays without a sidecar —
    // the CLI's SWF ingest (parse + node assignment + task building)
    // followed by a cache warm, mirroring `jedule_serve::ingest::acquire`
    // on a sidecar miss.
    g.bench_with_input(
        BenchmarkId::new("swf_parse_prepare", n),
        &swf_text,
        |b, t| {
            b.iter(|| {
                let (header, jobs) = parse_swf(black_box(t)).unwrap();
                let total = header.max_nodes.or(header.max_procs).unwrap_or(NODES);
                let o = ConvertOptions {
                    cluster_name: header.computer.unwrap_or_else(|| "swf".into()),
                    total_nodes: total.max(1),
                    reserved: 0,
                    highlight_user: None,
                    task_attrs: false,
                };
                let prep = PreparedSchedule::new(jobs_to_schedule(&jobs, &o));
                prep.warm();
                black_box(prep);
            })
        },
    );

    // Pack cold path: mmap + validate + adopt.
    g.bench_with_input(BenchmarkId::new("jpack_load", n), &pack_path, |b, p| {
        b.iter(|| {
            let packed = snap::load(black_box(p)).expect("pack loads");
            black_box(PreparedSchedule::from_pack(packed));
        })
    });

    // Pack write, for the one-time sidecar-build cost column.
    g.bench_with_input(BenchmarkId::new("jpack_write", n), &prep, |b, p| {
        b.iter(|| black_box(snap::write_pack(black_box(p), digest, 0).expect("pack writes")))
    });

    g.finish();
    std::fs::remove_file(&pack_path).ok();
    std::fs::remove_dir(&dir).ok();
}

criterion_group!(benches, bench_pack_cold);
criterion_main!(benches);
