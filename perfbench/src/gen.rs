//! Seeded inputs and the host speed probe.

use crate::arg;
use jedule_workloads::convert::assigned_to_schedule;
use jedule_workloads::{synth_scale_trace, ConvertOptions};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Node count of every generated trace (the existing scale benches' value).
const NODES: u32 = 1024;

/// `gen <workload> <seed> <dir>`: writes the workload's input into
/// `dir` and prints its name, task count, size and time extent. The
/// batch XML workload gets a 20k-task Jedule XML file; the others share
/// one 1M-task CSV trace.
pub fn gen(args: &[String]) -> Result<(), String> {
    let workload: String = arg(args, 0, "workload")?;
    let seed: u64 = arg(args, 1, "seed")?;
    let dir: String = arg(args, 2, "dir")?;
    let (tasks, name) = match workload.as_str() {
        "batch_xml" => (20_000, "trace.jed"),
        "batch_pack" | "serve_hot" => (1_000_000, "trace.csv"),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let schedule = assigned_to_schedule(
        &synth_scale_trace(tasks, NODES, seed),
        &ConvertOptions {
            cluster_name: "scale".into(),
            total_nodes: NODES,
            reserved: 0,
            highlight_user: None,
            task_attrs: false,
        },
    );
    let (t0, t1) = schedule
        .tasks
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), t| {
            (a.min(t.start), b.max(t.end))
        });
    let text = if name.ends_with(".jed") {
        jedule_xmlio::write_schedule_string(&schedule)
    } else {
        jedule_xmlio::write_schedule_csv(&schedule)
    };
    let path = Path::new(&dir).join(name);
    std::fs::write(&path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{{\"input\":\"{name}\",\"tasks\":{},\"bytes\":{},\"extent\":[{t0},{t1}]}}",
        schedule.tasks.len(),
        text.len()
    );
    Ok(())
}

/// Iterations of the probe loop: about 0.1 s on a 2020s server core.
const PROBE_ITERS: u64 = 60_000_000;

/// `probe`: times a fixed, allocation-free xorshift loop. Run before
/// and after each workload, it shows how fast the host was at the
/// time; a diagnostic, never a metric.
pub fn probe() -> Result<(), String> {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..black_box(PROBE_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    println!("{{\"probe_s\":{}}}", t.elapsed().as_secs_f64());
    Ok(())
}
