//! Figure-regeneration library for the Jedule reproduction.
//!
//! One builder per paper figure; the `figures` binary renders the
//! artifacts into `figures/` and prints the harness report that
//! `EXPERIMENTS.md` records. Criterion benches in `benches/` measure the
//! machinery behind each figure family.

use jedule_core::{AlignMode, ColorMap, Schedule, ScheduleBuilder, Task};
use jedule_core::{Allocation, HostSet};
use jedule_render::{OutputFormat, RenderOptions};
use jedule_sched::cpa::{fig4_dag, FIG4_PROCS};
use jedule_sched::{heft, schedule_dag, schedule_multi_dag, CpaVariant, CraPolicy, HeftResult};
use jedule_taskpool::sim::{NumaModel, SimParams};
use jedule_taskpool::trace::{trace_to_schedule, TraceScheduleOptions};
use jedule_taskpool::{build_qs_tree, simulate_tree, PivotStrategy, SimReport};
use jedule_workloads::convert::workload_colormap;
use jedule_workloads::{jobs_to_schedule, synth_thunder_day, ConvertOptions, ThunderParams};

/// Fig. 1 — the XML definition of a task: a round-tripped document.
pub fn fig1_xml() -> String {
    let s = ScheduleBuilder::new()
        .cluster(0, "cluster-0", 8)
        .task(Task::new("1", "computation", 0.0, 0.310).on(Allocation::contiguous(0, 0, 8)))
        .build()
        .expect("fig1 schedule is valid");
    jedule_xmlio::write_schedule_string(&s)
}

/// Fig. 2 — the standard color map as XML.
pub fn fig2_cmap() -> String {
    jedule_xmlio::write_colormap_string(&ColorMap::standard())
}

/// Fig. 3 — a schedule with overlapping computation (blue) and
/// communication (red) whose overlap Jedule shows as orange composites.
pub fn fig3_schedule() -> Schedule {
    ScheduleBuilder::new()
        .cluster(0, "cluster-0", 8)
        .cluster(1, "cluster-1", 4)
        .meta("figure", "3")
        .task(Task::new("c1", "computation", 0.0, 4.0).on(Allocation::contiguous(0, 0, 8)))
        .task(Task::new("t1", "transfer", 3.0, 5.5).on(Allocation::contiguous(0, 0, 4)))
        .task(Task::new("c2", "computation", 4.0, 8.0).on(Allocation::contiguous(0, 4, 4)))
        .task(Task::new("c3", "computation", 5.5, 9.0).on(Allocation::contiguous(0, 0, 4)))
        .task(Task::new("t2", "transfer", 7.5, 9.5).on(Allocation::contiguous(0, 6, 2)))
        .task(
            Task::new("c4", "computation", 1.0, 6.0)
                .on(Allocation::new(1, HostSet::from_hosts([0, 1, 3]))),
        )
        .task(Task::new("t3", "transfer", 4.5, 6.5).on(Allocation::contiguous(1, 0, 2)))
        .build()
        .expect("fig3 schedule is valid")
}

/// Fig. 4 — CPA (left) vs MCPA (right) on the crafted imbalanced DAG.
pub struct Fig4 {
    pub cpa: Schedule,
    pub mcpa: Schedule,
    pub cpa_makespan: f64,
    pub mcpa_makespan: f64,
    pub mcpa2_makespan: f64,
    pub mcpa2_winner: &'static str,
    pub cpa_utilization: f64,
    pub mcpa_utilization: f64,
}

pub fn fig4() -> Fig4 {
    let dag = fig4_dag();
    let cpa = schedule_dag(&dag, FIG4_PROCS, 1.0, CpaVariant::Cpa);
    let mcpa = schedule_dag(&dag, FIG4_PROCS, 1.0, CpaVariant::Mcpa);
    let poly = schedule_dag(&dag, FIG4_PROCS, 1.0, CpaVariant::Mcpa2);
    let util = |s: &Schedule| {
        jedule_core::stats::schedule_stats(&jedule_core::PreparedSchedule::borrowed(s)).utilization
    };
    Fig4 {
        cpa_makespan: cpa.makespan,
        mcpa_makespan: mcpa.makespan,
        mcpa2_makespan: poly.makespan,
        mcpa2_winner: poly.algorithm,
        cpa_utilization: util(&cpa.schedule),
        mcpa_utilization: util(&mcpa.schedule),
        cpa: cpa.schedule,
        mcpa: mcpa.schedule,
    }
}

/// Fig. 5 — four applications on 20 processors under constrained
/// resource allocation (the running text credits CRA_WORK, the figure
/// caption CRA_WIDTH; we follow the caption. The last application is
/// wide but cheap, so the processors at the top of the chart end up
/// "clearly underused" — the paper's observation about processors
/// 17-19).
pub fn fig5() -> jedule_sched::MultiDagResult {
    let mut dags: Vec<jedule_dag::Dag> = (0..3)
        .map(|i| {
            let mut d = jedule_dag::layered(&jedule_dag::GenParams {
                seed: 500 + i,
                depth: 6,
                width: 3,
                work_mean: 25.0 * (1.0 + i as f64 * 0.8),
                ..jedule_dag::GenParams::default()
            });
            d.name = format!("app{i}");
            d
        })
        .collect();
    // app3: wide (big share under the width policy) but with little work.
    let mut wide = jedule_dag::layered(&jedule_dag::GenParams {
        seed: 503,
        depth: 3,
        width: 8,
        width_jitter: 0.0,
        work_mean: 6.0,
        ..jedule_dag::GenParams::default()
    });
    wide.name = "app3".into();
    dags.push(wide);
    schedule_multi_dag(&dags, 20, 1.0, CraPolicy::Width { mu: 0.3 })
}

/// The per-application color map of Fig. 5.
pub fn fig5_colormap() -> ColorMap {
    ColorMap::per_type("apps", ["app0", "app1", "app2", "app3"])
}

/// Fig. 6 — the Montage workflow structure (DOT).
pub fn fig6_dot() -> String {
    jedule_dag::montage(10).to_dot()
}

/// Fig. 7 — the heterogeneous platform description.
pub fn fig7_text(realistic: bool) -> String {
    let p = if realistic {
        jedule_platform::fig7_platform_realistic()
    } else {
        jedule_platform::fig7_platform_flawed()
    };
    p.describe()
}

/// Figs. 8/9 — HEFT of Montage-50 on the Fig. 7 platform; `realistic`
/// selects the corrected backbone latency.
pub fn fig8_9(realistic: bool) -> (HeftResult, jedule_dag::Dag) {
    let dag = jedule_dag::montage(12); // 51 tasks ≈ the 50-node instance
    let platform = if realistic {
        jedule_platform::fig7_platform_realistic()
    } else {
        jedule_platform::fig7_platform_flawed()
    };
    (heft(&dag, &platform), dag)
}

/// Fig. 10 — the task-based execution scheme, Rust edition.
pub fn fig10_scheme() -> &'static str {
    r#"// initialization (master thread)
for unit in initial_work_units {
    pool.push(Job::new(unit.name, unit.run));
}
// working phase: parallel for each thread 1..=p
loop {
    let Some(task) = pool.pop(worker) else { break }; // get()
    (task.run)(&ctx);                                 // execute(), may spawn
    // free() — drop + outstanding counter decrement
}"#
}

/// Figs. 11/12 — Quicksort schedules on the simulated 64-worker NUMA
/// machine (32 dual-core processors).
pub struct QsFigure {
    pub schedule: Schedule,
    pub report: SimReport,
    pub tasks: usize,
}

/// Common simulated machine of the §VI case study.
fn altix_params(workers: u32) -> SimParams {
    SimParams {
        workers,
        numa: NumaModel::altix(),
        ..SimParams::default()
    }
}

/// Fig. 11 — random input, naive first-element pivot.
pub fn fig11(n: usize, workers: u32) -> QsFigure {
    let data = jedule_taskpool::quicksort::random_input(n, 1102);
    let (tree, _) = build_qs_tree(&data, PivotStrategy::First, (n / 2048).max(64));
    let report = simulate_tree(&tree, &altix_params(workers));
    let schedule = trace_to_schedule(
        &report.spans,
        workers,
        &TraceScheduleOptions {
            min_span: report.makespan * 1e-4,
            ..Default::default()
        },
    );
    QsFigure {
        schedule,
        tasks: tree.nodes.len(),
        report,
    }
}

/// Fig. 12 — inversely sorted input, middle pivot.
pub fn fig12(n: usize, workers: u32) -> QsFigure {
    let data = jedule_taskpool::quicksort::inverse_input(n);
    let (tree, _) = build_qs_tree(&data, PivotStrategy::Middle, (n / 2048).max(64));
    let report = simulate_tree(&tree, &altix_params(workers));
    let schedule = trace_to_schedule(
        &report.spans,
        workers,
        &TraceScheduleOptions {
            min_span: report.makespan * 1e-4,
            ..Default::default()
        },
    );
    QsFigure {
        schedule,
        tasks: tree.nodes.len(),
        report,
    }
}

/// Fig. 13 — the Thunder day, synthetic by default.
pub fn fig13() -> (Schedule, ColorMap) {
    let jobs = synth_thunder_day(&ThunderParams::default());
    let schedule = jobs_to_schedule(&jobs, &ConvertOptions::default());
    (schedule, workload_colormap())
}

/// Shared rendering defaults for figure output.
pub fn figure_options(title: &str, cmap: ColorMap) -> RenderOptions {
    RenderOptions::default()
        .with_format(OutputFormat::Svg)
        .with_size(900.0, None)
        .with_colormap(cmap)
        .with_title(title)
}

/// Renders a schedule to `figures/<name>.svg` and `.png`.
pub fn emit(schedule: &Schedule, name: &str, mut opts: RenderOptions) -> std::io::Result<()> {
    std::fs::create_dir_all("figures")?;
    opts.format = OutputFormat::Svg;
    jedule_render::render_to_file(schedule, &opts, format!("figures/{name}.svg"))?;
    opts.format = OutputFormat::Png;
    jedule_render::render_to_file(schedule, &opts, format!("figures/{name}.png"))?;
    Ok(())
}

/// Rendering options for the side-by-side Fig. 4 pair: aligned time mode
/// so the MCPA holes are visually comparable.
pub fn fig4_options(title: &str) -> RenderOptions {
    let mut o = figure_options(title, ColorMap::standard());
    o.align = AlignMode::Aligned;
    o.show_composites = false;
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_round_trips() {
        let xml = fig1_xml();
        let s = jedule_xmlio::read_schedule(&xml).unwrap();
        assert_eq!(s.tasks.len(), 1);
        assert_eq!(s.tasks[0].resource_count(), 8);
    }

    #[test]
    fn fig3_has_composites() {
        let prep = jedule_core::PreparedSchedule::new(fig3_schedule());
        assert!(!prep.composites(0).is_empty());
    }

    #[test]
    fn fig4_shape_matches_paper() {
        let f = fig4();
        assert!(f.cpa_makespan < f.mcpa_makespan);
        assert_eq!(f.mcpa2_winner, "CPA");
        assert!((f.mcpa2_makespan - f.cpa_makespan).abs() < 1e-9);
        assert!(f.cpa_utilization > f.mcpa_utilization);
    }

    #[test]
    fn fig5_partition_holds() {
        let r = fig5();
        jedule_sched::multidag::verify_partition(&r).unwrap();
        assert_eq!(r.apps.len(), 4);
        let shares: u32 = r.apps.iter().map(|a| a.share).sum();
        assert_eq!(shares, 20);
    }

    #[test]
    fn fig8_9_same_magnitude_makespans() {
        let (flawed, _) = fig8_9(false);
        let (real, _) = fig8_9(true);
        // The paper's headline: both schedules complete in (almost) the
        // same time — the bug was invisible in the makespan alone.
        let ratio = real.makespan / flawed.makespan;
        assert!(
            (0.8..=1.6).contains(&ratio),
            "flawed {} vs realistic {}",
            flawed.makespan,
            real.makespan
        );
    }

    #[test]
    fn fig11_12_shapes() {
        let f11 = fig11(1 << 16, 64);
        let f12 = fig12(1 << 16, 64);
        assert!(f11.report.utilization < 0.9);
        let frac = f12.report.single_worker_fraction();
        assert!((0.25..0.8).contains(&frac), "fig12 fraction {frac}");
        assert!(f11.tasks > 100);
    }

    #[test]
    fn fig13_schedule_valid() {
        let (s, cmap) = fig13();
        assert!(jedule_core::validate(&s).is_empty());
        assert_eq!(s.total_hosts(), 1024);
        assert!(cmap.get("highlight").is_some());
    }
}
