//! The §VII case study: a bird's-eye view of one day of a 1024-node
//! production cluster, with one user's jobs highlighted — the paper's
//! Fig. 13. Pass a Standard Workload Format file to use a real PWA
//! trace; without arguments a calibrated synthetic Thunder day is used.
//!
//! ```text
//! cargo run --release --example workload_day [trace.swf [day_index]]
//! ```

use jedule::core::stats::schedule_stats;
use jedule::prelude::*;
use jedule::workloads::convert::workload_colormap;
use jedule::workloads::swf::filter_finished_on_day;
use jedule::workloads::{
    jobs_to_schedule, parse_swf, synth_thunder_day, ConvertOptions, ThunderParams,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let (jobs, opts) = match args.first() {
        Some(path) => {
            let src = std::fs::read_to_string(path).expect("read SWF file");
            let (header, all) = parse_swf(&src).expect("parse SWF");
            let nodes = header.max_nodes.or(header.max_procs).unwrap_or(1024);
            let day: usize = args.get(1).and_then(|d| d.parse().ok()).unwrap_or(0);
            let total = all.len();
            let jobs = filter_finished_on_day(all, day as f64 * 86_400.0);
            println!(
                "trace {} ({}): {} jobs total, {} finished on day {day}",
                path,
                header.computer.as_deref().unwrap_or("unknown machine"),
                total,
                jobs.len()
            );
            (
                jobs,
                ConvertOptions {
                    total_nodes: nodes,
                    cluster_name: header.computer.unwrap_or_else(|| "cluster".into()),
                    ..Default::default()
                },
            )
        }
        None => {
            let params = ThunderParams::default();
            println!(
                "no trace given — synthesizing a Thunder-like day: {} jobs, {} nodes, first {} reserved",
                params.jobs, params.nodes, params.reserved
            );
            (synth_thunder_day(&params), ConvertOptions::default())
        }
    };

    let schedule = jobs_to_schedule(&jobs, &opts);
    let stats = schedule_stats(&PreparedSchedule::borrowed(&schedule));
    let highlighted = schedule
        .tasks
        .iter()
        .filter(|t| t.kind == "highlight")
        .count();
    println!(
        "schedule: {} jobs on {} nodes, utilization {:.1} %, {} jobs of user {} highlighted",
        stats.task_count,
        schedule.total_hosts(),
        stats.utilization * 100.0,
        highlighted,
        opts.highlight_user.unwrap_or(-1),
    );

    // Size histogram — the bird's-eye view is dominated by a few large
    // jobs, like the figure.
    let mut buckets = [0usize; 6];
    for t in &schedule.tasks {
        let p: u32 = t
            .attrs
            .iter()
            .find(|(k, _)| k == "procs")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(1);
        let b = match p {
            0..=1 => 0,
            2..=8 => 1,
            9..=32 => 2,
            33..=128 => 3,
            129..=512 => 4,
            _ => 5,
        };
        buckets[b] += 1;
    }
    println!(
        "job sizes: 1:{} 2-8:{} 9-32:{} 33-128:{} 129-512:{} >512:{}",
        buckets[0], buckets[1], buckets[2], buckets[3], buckets[4], buckets[5]
    );

    // Heaviest users — the candidates one would highlight.
    let wstats = jedule::workloads::workload_stats(&jobs);
    println!(
        "mean runtime {:.0} s, mean size {:.1} procs; top users by demand:",
        wstats.mean_runtime, wstats.mean_procs
    );
    for u in wstats.users.iter().take(3) {
        println!(
            "  user {:>6}: {:>4} jobs, {:.2e} processor-seconds",
            u.user, u.jobs, u.proc_seconds
        );
    }

    std::fs::create_dir_all("target/examples").unwrap();
    let mut ropts = RenderOptions::default()
        .with_size(1100.0, None)
        .with_colormap(workload_colormap())
        .with_title("one day of a 1024-node cluster (yellow = highlighted user)");
    ropts.show_labels = false; // 800+ rectangles: labels would be noise
    render_to_file(&schedule, &ropts, "target/examples/workload_day.svg").unwrap();
    println!("wrote target/examples/workload_day.svg");
}
