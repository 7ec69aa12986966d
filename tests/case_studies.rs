//! Cross-crate integration of the five case studies: each runs its full
//! substrate pipeline and checks the paper's qualitative claims.

use jedule::core::stats::schedule_stats;
use jedule::core::validate;
use jedule::prelude::*;

/// §III — CPA vs MCPA vs MCPA2 end to end, including XML round-trip of
/// the produced schedules and a simulator replay.
#[test]
fn case_study_mtask_scheduling() {
    use jedule::sched::cpa::{fig4_dag, FIG4_PROCS};
    use jedule::sched::{schedule_dag, CpaVariant};

    let dag = fig4_dag();
    let cpa = schedule_dag(&dag, FIG4_PROCS, 1.0, CpaVariant::Cpa);
    let mcpa = schedule_dag(&dag, FIG4_PROCS, 1.0, CpaVariant::Mcpa);
    let poly = schedule_dag(&dag, FIG4_PROCS, 1.0, CpaVariant::Mcpa2);

    // Fig. 4 claims.
    assert!(cpa.makespan < mcpa.makespan);
    assert_eq!(poly.makespan, cpa.makespan);
    let u = |s: &Schedule| schedule_stats(&PreparedSchedule::borrowed(s)).utilization;
    assert!(
        u(&cpa.schedule) > 2.0 * u(&mcpa.schedule),
        "MCPA leaves big holes"
    );

    // The schedules survive the XML pipeline.
    for r in [&cpa, &mcpa] {
        let xml = write_schedule_string(&r.schedule);
        assert_eq!(read_schedule(&xml).unwrap(), r.schedule);
    }

    // Simulator replay preserves the ordering of the algorithms.
    let platform = jedule::platform::homogeneous(FIG4_PROCS, 1.0);
    let sim_cpa = jedule::simx::simulate(&dag, &platform, &cpa.simx_mapping(&dag, 0)).unwrap();
    let sim_mcpa = jedule::simx::simulate(&dag, &platform, &mcpa.simx_mapping(&dag, 0)).unwrap();
    assert!(sim_cpa.makespan < sim_mcpa.makespan);
}

/// §IV — multi-DAG scheduling: partition constraint, stretch, fairness,
/// and backfilling without delay.
#[test]
fn case_study_multi_dag() {
    use jedule::dag::{layered, GenParams};
    use jedule::sched::multidag::verify_partition;
    use jedule::sched::{backfill, schedule_multi_dag, CraPolicy};

    let dags: Vec<_> = (0..4)
        .map(|i| {
            let mut d = layered(&GenParams {
                seed: 77 + i,
                ..GenParams::default()
            });
            d.name = format!("app{i}");
            d
        })
        .collect();

    let r = schedule_multi_dag(&dags, 20, 1.0, CraPolicy::Work { mu: 0.5 });
    verify_partition(&r).unwrap();
    assert!(validate(&r.schedule).is_empty());
    assert!(r.apps.iter().all(|a| a.stretch >= 0.999));
    assert!(r.max_stretch >= r.mean_stretch);

    let kinds: Vec<String> = r.schedule.tasks.iter().map(|t| t.kind.clone()).collect();
    let starts: Vec<f64> = r.schedule.tasks.iter().map(|t| t.start).collect();
    let report = backfill(&r.schedule, |i, j| {
        kinds[i] == kinds[j] && starts[i] < starts[j]
    });
    jedule::sched::backfill::verify_no_delay(&r.schedule, &report.schedule).unwrap();
    assert!(report.idle_after <= report.idle_before + 1e-9);
}

/// §V — HEFT on the Fig. 7 platform: valid schedules, the
/// makespan-equality phenomenon, and the multi-cluster Jedule view.
#[test]
fn case_study_heft_montage() {
    use jedule::dag::montage;
    use jedule::platform::{fig7_platform_flawed, fig7_platform_realistic};
    use jedule::sched::heft;

    let dag = montage(12);
    let flawed = heft(&dag, &fig7_platform_flawed());
    let real = heft(&dag, &fig7_platform_realistic());

    // "the overall makespan is the same for both schedules" — within a
    // small tolerance for our cost calibration.
    let ratio = real.makespan / flawed.makespan;
    assert!((0.95..=1.25).contains(&ratio), "ratio {ratio}");

    for r in [&flawed, &real] {
        assert!(validate(&r.schedule).is_empty());
        assert_eq!(r.schedule.clusters.len(), 4, "the multi-cluster view");
        // Every Montage stage appears as its own task type.
        assert!(r.schedule.task_types().len() == 9);
    }

    // Render with per-stage coloring, like Figs. 8/9.
    let svg = String::from_utf8(render(
        &real.schedule,
        &RenderOptions::default()
            .with_colormap(ColorMap::per_type("montage", real.schedule.task_types())),
    ))
    .unwrap();
    assert!(svg.contains("mBackground"));
}

/// §VI — the task pool: a real threaded run whose trace becomes a valid
/// Jedule schedule, and the simulated Fig. 12 half-time phenomenon.
#[test]
fn case_study_taskpool() {
    use jedule::taskpool::pool::{run_quicksort, PoolKind};
    use jedule::taskpool::quicksort::{build_qs_tree, inverse_input, PivotStrategy};
    use jedule::taskpool::sim::{simulate_tree, SimParams};
    use jedule::taskpool::trace::{trace_to_schedule, TraceScheduleOptions};

    // Real pool.
    let data = jedule::taskpool::quicksort::random_input(50_000, 3);
    let mut expect = data.clone();
    expect.sort_unstable();
    let (spans, sorted) = run_quicksort(PoolKind::WorkStealing, 4, data, 2048);
    assert_eq!(sorted, expect);
    let schedule = trace_to_schedule(&spans, 4, &TraceScheduleOptions::default());
    assert!(validate(&schedule).is_empty());
    assert!(schedule.tasks.iter().any(|t| t.kind == "exec"));

    // Simulated Fig. 12.
    let (tree, check) = build_qs_tree(&inverse_input(1 << 16), PivotStrategy::Middle, 512);
    assert!(check.windows(2).all(|w| w[0] <= w[1]));
    let report = simulate_tree(
        &tree,
        &SimParams {
            workers: 32,
            ..SimParams::default()
        },
    );
    let frac = report.single_worker_fraction();
    assert!((0.25..0.75).contains(&frac), "Fig. 12 fraction {frac}");
}

/// §VII — SWF → assignment → schedule → render pipeline with reserved
/// nodes and user highlighting.
#[test]
fn case_study_workload() {
    use jedule::workloads::swf::write_swf;
    use jedule::workloads::{
        jobs_to_schedule, parse_swf, synth_thunder_day, ConvertOptions, ThunderParams,
    };

    let params = ThunderParams {
        nodes: 256,
        reserved: 8,
        jobs: 200,
        users: 10,
        ..ThunderParams::default()
    };
    let mut jobs = synth_thunder_day(&params);
    // Synthetic day-relative times may start before t=0 (long jobs from
    // "yesterday"); real SWF submit times are nonnegative, so present the
    // day as day 1 of an archive.
    for j in &mut jobs {
        j.submit += 86_400.0;
    }

    // Round-trip through the SWF format, like a real archive file.
    let swf_text = write_swf(&Default::default(), &jobs);
    let (_, parsed) = parse_swf(&swf_text).unwrap();
    assert_eq!(parsed.len(), jobs.len());

    let opts = ConvertOptions {
        total_nodes: params.nodes,
        reserved: params.reserved,
        ..Default::default()
    };
    let schedule = jobs_to_schedule(&parsed, &opts);
    assert!(validate(&schedule).is_empty());
    for host in 0..params.reserved {
        assert!(schedule.tasks_on_host(0, host).is_empty());
    }

    // The bird's-eye view renders (no labels at this density).
    let ropts = RenderOptions {
        show_labels: false,
        ..Default::default()
    };
    let png = render(&schedule, &ropts.with_format(OutputFormat::Png));
    assert_eq!(&png[1..4], b"PNG");
}
