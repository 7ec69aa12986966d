//! Regenerates every figure of the paper's evaluation into `figures/`
//! and prints the per-figure report recorded in `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p jedule-bench --bin figures -- all
//! cargo run --release -p jedule-bench --bin figures -- fig4 fig9
//! cargo run --release -p jedule-bench --bin figures -- fig13 --swf trace.swf
//! ```

use jedule_bench as fig;
use jedule_core::stats::schedule_stats;
use jedule_core::{ColorMap, PreparedSchedule};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut swf: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--swf" {
            i += 1;
            swf = args.get(i).cloned();
        } else {
            wanted.push(args[i].clone());
        }
        i += 1;
    }
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = (1..=13).map(|n| format!("fig{n}")).collect();
    }

    std::fs::create_dir_all("figures").expect("create figures/");
    for name in &wanted {
        match name.as_str() {
            "fig1" => fig1(),
            "fig2" => fig2(),
            "fig3" => fig3(),
            "fig4" => fig4(),
            "fig5" => fig5(),
            "fig6" => fig6(),
            "fig7" => fig7(),
            "fig8" => fig8_9(false),
            "fig9" => fig8_9(true),
            "fig10" => fig10(),
            "fig11" => fig11(),
            "fig12" => fig12(),
            "fig13" => fig13(swf.as_deref()),
            other => eprintln!("unknown figure {other:?} (fig1..fig13 or all)"),
        }
    }
}

fn header(name: &str, what: &str) {
    println!("== {name}: {what}");
}

fn fig1() {
    header("fig1", "Jedule XML task definition");
    let xml = fig::fig1_xml();
    std::fs::write("figures/fig1_task.jed", &xml).expect("write fig1");
    let back = jedule_xmlio::read_schedule(&xml).expect("fig1 round-trips");
    println!(
        "   round-trip OK: task id=1 type=computation hosts={} start=0 end=0.31",
        back.tasks[0].resource_count()
    );
}

fn fig2() {
    header("fig2", "standard color map XML");
    let xml = fig::fig2_cmap();
    std::fs::write("figures/fig2_cmap.xml", &xml).expect("write fig2");
    let map = jedule_xmlio::read_colormap(&xml).expect("fig2 parses");
    println!(
        "   {} explicit types, {} composite rule(s)",
        map.entries().count(),
        map.composites().len()
    );
}

fn fig3() {
    header("fig3", "composite tasks (computation+transfer overlap)");
    let s = fig::fig3_schedule();
    let comps = PreparedSchedule::borrowed(&s).composites(0).len();
    fig::emit(
        &s,
        "fig3_composites",
        fig::figure_options("Figure 3 — composite tasks", ColorMap::standard()),
    )
    .expect("render fig3");
    println!(
        "   {} base tasks, {} composite region(s)",
        s.tasks.len(),
        comps
    );
}

fn fig4() {
    header("fig4", "CPA vs MCPA (load imbalance)");
    let f = fig::fig4();
    fig::emit(
        &f.cpa,
        "fig4_cpa",
        fig::fig4_options("Figure 4 (left) — CPA"),
    )
    .expect("render");
    fig::emit(
        &f.mcpa,
        "fig4_mcpa",
        fig::fig4_options("Figure 4 (right) — MCPA"),
    )
    .expect("render");
    println!(
        "   CPA   makespan {:8.2}  utilization {:5.1} %",
        f.cpa_makespan,
        f.cpa_utilization * 100.0
    );
    println!(
        "   MCPA  makespan {:8.2}  utilization {:5.1} %",
        f.mcpa_makespan,
        f.mcpa_utilization * 100.0
    );
    println!(
        "   MCPA2 makespan {:8.2}  (winner: {})",
        f.mcpa2_makespan, f.mcpa2_winner
    );
    println!(
        "   paper shape: CPA better, MCPA leaves holes, MCPA2 == CPA here -> {}",
        if f.cpa_makespan < f.mcpa_makespan && f.mcpa2_winner == "CPA" {
            "REPRODUCED"
        } else {
            "DIFFERS"
        }
    );
}

fn fig5() {
    header("fig5", "CRA_WIDTH: 4 applications on 20 processors");
    let r = fig::fig5();
    fig::emit(
        &r.schedule,
        "fig5_cra_width",
        fig::figure_options(
            "Figure 5 — CRA_WIDTH, 4 apps, 20 procs",
            fig::fig5_colormap(),
        ),
    )
    .expect("render");
    for a in &r.apps {
        println!(
            "   app{}: procs [{}..{}), makespan {:8.2}, stretch {:.3}",
            a.app,
            a.first_proc,
            a.first_proc + a.share,
            a.makespan,
            a.stretch
        );
    }
    let st = schedule_stats(&PreparedSchedule::borrowed(&r.schedule));
    let busy = &st.per_cluster[0].busy_per_host;
    let tail: f64 = busy[17..20].iter().sum::<f64>() / 3.0;
    let head: f64 = busy[..17].iter().sum::<f64>() / 17.0;
    println!(
        "   overall makespan {:.2}, max stretch {:.3}; procs 17-19 busy {:.1}s vs others {:.1}s avg -> {}",
        r.overall_makespan,
        r.max_stretch,
        tail,
        head,
        if tail < head { "underused, as in the paper" } else { "not underused with this seed" }
    );
    let report = jedule_sched::backfill(&r.schedule, |_, _| false);
    println!(
        "   conservative backfilling: idle {:.1}s -> {:.1}s, {} task(s) moved, no task delayed",
        report.idle_before, report.idle_after, report.moved
    );
}

fn fig6() {
    header("fig6", "Montage workflow structure");
    let dot = fig::fig6_dot();
    std::fs::write("figures/fig6_montage.dot", &dot).expect("write fig6 dot");
    let m = jedule_dag::montage(10);
    // Built-in layered drawing — no graphviz needed.
    let opts = jedule_render::DagVizOptions {
        title: Some("Figure 6 — Montage workflow (50-node class)".into()),
        ..Default::default()
    };
    std::fs::write(
        "figures/fig6_montage.svg",
        jedule_render::dag_to_svg(&m, &opts),
    )
    .expect("write fig6 svg");
    let metrics = jedule_dag::metrics(&m);
    println!(
        "   {} tasks, {} edges, {} levels, max width {}, avg parallelism {:.2}",
        metrics.tasks, metrics.edges, metrics.depth, metrics.max_width, metrics.avg_parallelism
    );
    println!("   wrote figures/fig6_montage.svg (built-in layout) and .dot (graphviz)");
}

fn fig7() {
    header("fig7", "heterogeneous platform");
    let text = fig::fig7_text(false);
    std::fs::write("figures/fig7_platform.txt", &text).expect("write fig7");
    print!(
        "{}",
        text.lines()
            .map(|l| format!("   {l}\n"))
            .collect::<String>()
    );
}

fn fig8_9(realistic: bool) {
    let (name, title) = if realistic {
        (
            "fig9",
            "Figure 9 — HEFT Montage, realistic backbone latency",
        )
    } else {
        (
            "fig8",
            "Figure 8 — HEFT Montage, flawed (equal) backbone latency",
        )
    };
    header(name, title);
    let (r, dag) = fig::fig8_9(realistic);
    fig::emit(
        &r.schedule,
        &format!("{name}_heft_montage"),
        fig::figure_options(
            title,
            ColorMap::per_type(
                "montage",
                [
                    "mProjectPP",
                    "mDiffFit",
                    "mConcatFit",
                    "mBgModel",
                    "mBackground",
                    "mImgtbl",
                    "mAdd",
                    "mShrink",
                    "mJPEG",
                ],
            ),
        ),
    )
    .expect("render");
    println!(
        "   makespan {:.1} s (paper: 140.9 s for both variants)",
        r.makespan
    );
    // The paper's telltale task: where did the mBackground tasks go?
    let platform = if realistic {
        jedule_platform::fig7_platform_realistic()
    } else {
        jedule_platform::fig7_platform_flawed()
    };
    let mut placements: Vec<(String, u32, u32)> = dag
        .tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind == "mBackground")
        .map(|(i, t)| {
            let host = r.of(i).expect("placed").host;
            (t.name.clone(), host, platform.host(host).unwrap().cluster)
        })
        .collect();
    placements.sort();
    let clusters: Vec<u32> = {
        let mut c: Vec<u32> = placements.iter().map(|p| p.2).collect();
        c.sort_unstable();
        c.dedup();
        c
    };
    println!(
        "   mBackground tasks on hosts {:?} (clusters {:?})",
        placements.iter().map(|p| p.1).collect::<Vec<_>>(),
        clusters
    );
    if !realistic {
        println!("   flawed platform: cross-cluster moves look free -> scattered placements");
    } else {
        println!("   realistic latency: fast clusters preferred, fewer odd migrations");
        // How strongly the backbone latency must rise before HEFT's
        // placements visibly consolidate (the paper's platform-bug knob):
        println!("   backbone-latency sweep (montage-50, cross-cluster dependence edges):");
        for mult in [1.0, 100.0, 10_000.0, 100_000.0] {
            let p = jedule_platform::fig7_platform(1e-4 * mult);
            let r = jedule_sched::heft(&dag, &p);
            let cross = dag
                .edges
                .iter()
                .filter(|e| {
                    let a = p.host(r.of(e.from).unwrap().host).unwrap().cluster;
                    let b = p.host(r.of(e.to).unwrap().host).unwrap().cluster;
                    a != b
                })
                .count();
            println!(
                "     latency x{:<8}: makespan {:>8.2} s, {} cross-cluster edges",
                mult, r.makespan, cross
            );
        }
    }
}

fn fig10() {
    header("fig10", "task-based execution scheme");
    let scheme = fig::fig10_scheme();
    std::fs::write("figures/fig10_scheme.rs.txt", scheme).expect("write fig10");
    println!(
        "{}",
        scheme
            .lines()
            .map(|l| format!("   {l}\n"))
            .collect::<String>()
    );
}

fn fig11() {
    header(
        "fig11",
        "Quicksort, random input, 64 workers (simulated Altix)",
    );
    let f = fig::fig11(1 << 20, 64);
    fig::emit(
        &f.schedule,
        "fig11_qs_random",
        fig::figure_options(
            "Figure 11 — Quicksort, random input",
            jedule_taskpool::trace::taskpool_colormap(),
        ),
    )
    .expect("render");
    println!(
        "   {} tasks, makespan {:.3} s, utilization {:.1} %, single-worker time {:.1} %",
        f.tasks,
        f.report.makespan,
        f.report.utilization * 100.0,
        f.report.single_worker_fraction() * 100.0
    );
    println!(
        "   paper shape: slow ramp-up + low-utilization holes -> utilization well below 100 %"
    );
}

fn fig12() {
    header("fig12", "Quicksort, inversely sorted input, middle pivot");
    let f = fig::fig12(1 << 20, 64);
    fig::emit(
        &f.schedule,
        "fig12_qs_inverse",
        fig::figure_options(
            "Figure 12 — Quicksort, inversely sorted input",
            jedule_taskpool::trace::taskpool_colormap(),
        ),
    )
    .expect("render");
    println!(
        "   {} tasks, makespan {:.3} s, single-worker fraction {:.1} % (paper: 'almost half')",
        f.tasks,
        f.report.makespan,
        f.report.single_worker_fraction() * 100.0
    );
}

fn fig13(swf: Option<&str>) {
    header("fig13", "LLNL Thunder day view (1024 nodes)");
    let (schedule, cmap) = match swf {
        Some(path) => {
            let src = std::fs::read_to_string(path).expect("read SWF trace");
            let (head, jobs) = jedule_workloads::parse_swf(&src).expect("parse SWF");
            let nodes = head.max_nodes.unwrap_or(1024);
            let day = jedule_workloads::swf::filter_finished_on_day(jobs, 0.0);
            println!("   using real trace {path}: {} jobs on day 0", day.len());
            let opts = jedule_workloads::ConvertOptions {
                total_nodes: nodes,
                ..Default::default()
            };
            (
                jedule_workloads::jobs_to_schedule(&day, &opts),
                jedule_workloads::convert::workload_colormap(),
            )
        }
        None => fig::fig13(),
    };
    let mut opts = fig::figure_options("Figure 13 — Thunder, one day, user 6447 highlighted", cmap);
    opts.show_labels = false;
    fig::emit(&schedule, "fig13_thunder_day", opts).expect("render");
    let st = schedule_stats(&PreparedSchedule::borrowed(&schedule));
    let highlighted = schedule
        .tasks
        .iter()
        .filter(|t| t.kind == "highlight")
        .count();
    println!(
        "   {} jobs ({} highlighted), utilization {:.1} %, nodes 0-19 reserved (empty rows)",
        st.task_count,
        highlighted,
        st.utilization * 100.0
    );
    // The analyst's companion numbers for the bird's-eye chart.
    let jobs = jedule_workloads::synth_thunder_day(&jedule_workloads::ThunderParams::default());
    for u in jedule_workloads::top_users(&jobs, 3) {
        println!(
            "   top user {}: {} jobs, {:.2e} processor-seconds",
            u.user, u.jobs, u.proc_seconds
        );
    }
}
