//! Multi-DAG scheduling with Constrained Resource Allocation (paper, §IV).
//!
//! A batch of `N` mixed-parallel applications shares one homogeneous
//! cluster. The CRA approach (N'takpé & Suter, PDSEC 2009) first
//! distributes the processors among the applications, then lets each
//! application build its own schedule within that constraint. The share
//! of application `i` is
//!
//! ```text
//! β_i = μ / |A|  +  (1 − μ) · W(i) / Σ_j W(j)
//! ```
//!
//! where `W(i) = Σ_{v∈V_i} T(v, p(v)) · p(v)` is the application's work
//! and `μ ∈ [0, 1]` trades work-proportionality against equality
//! (CRA_WORK). CRA_WIDTH substitutes the application's maximum level
//! width for `W`; CRA_EQUAL is `μ = 1`.
//!
//! Two metrics are optimized simultaneously: the overall makespan and the
//! *fairness* of the schedule, measured by the per-application **stretch**
//! — "the makespan achieved in the presence of resource contention
//! divided by the makespan that would have been achieved if the
//! application had had dedicated use of the cluster".

use crate::cpa::{schedule_dag, CpaVariant};
use jedule_core::{Allocation, HostSet, Schedule, ScheduleBuilder, Task};
use jedule_dag::analysis::levels;
use jedule_dag::Dag;

/// How the initial processor distribution is computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CraPolicy {
    /// β proportional to application work, blended by `mu`.
    Work { mu: f64 },
    /// β proportional to maximum level width, blended by `mu`.
    Width { mu: f64 },
    /// Equal shares (μ = 1).
    Equal,
}

impl CraPolicy {
    pub fn name(&self) -> &'static str {
        match self {
            CraPolicy::Work { .. } => "CRA_WORK",
            CraPolicy::Width { .. } => "CRA_WIDTH",
            CraPolicy::Equal => "CRA_EQUAL",
        }
    }
}

/// Per-application outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AppResult {
    pub app: usize,
    /// Processors granted (contiguous range within the cluster).
    pub share: u32,
    /// First processor of the range.
    pub first_proc: u32,
    /// Makespan within the shared schedule.
    pub makespan: f64,
    /// Makespan with the whole cluster dedicated to this application.
    pub dedicated_makespan: f64,
    /// `makespan / dedicated_makespan` (≥ 1; lower is better).
    pub stretch: f64,
}

/// Result of a multi-DAG scheduling run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiDagResult {
    pub apps: Vec<AppResult>,
    /// Maximum completion time among the applications.
    pub overall_makespan: f64,
    /// Maximum stretch (the fairness headline number).
    pub max_stretch: f64,
    pub mean_stretch: f64,
    /// Population standard deviation of the stretches (0 = perfectly fair).
    pub stretch_stddev: f64,
    /// The combined Jedule schedule, one task type per application
    /// ("each having its own color" — Fig. 5).
    pub schedule: Schedule,
}

/// The measure each policy distributes by.
fn measure(policy: CraPolicy, dag: &Dag, _cluster_size: u32, speed: f64) -> f64 {
    match policy {
        CraPolicy::Equal => 1.0,
        CraPolicy::Work { .. } => {
            // W(i) with the single-processor allocation — the submission-
            // time estimate (allocations are not known yet).
            dag.tasks.iter().map(|t| t.exec_time(1, speed)).sum()
        }
        CraPolicy::Width { .. } => {
            if dag.task_count() == 0 {
                return 1.0;
            }
            let lv = levels(dag);
            let max_level = *lv.iter().max().unwrap() as usize;
            let mut widths = vec![0u32; max_level + 1];
            for &l in &lv {
                widths[l as usize] += 1;
            }
            f64::from(*widths.iter().max().unwrap())
        }
    }
}

/// Computes integer shares from β values: every application gets at least
/// one processor; remainders go to the largest fractional parts.
pub fn shares(betas: &[f64], total_procs: u32) -> Vec<u32> {
    let n = betas.len();
    if n == 0 {
        return Vec::new();
    }
    let total = total_procs.max(n as u32);
    let sum: f64 = betas.iter().sum();
    let ideal: Vec<f64> = betas
        .iter()
        .map(|b| (b / sum.max(1e-300)) * f64::from(total))
        .collect();
    let mut share: Vec<u32> = ideal.iter().map(|v| (v.floor() as u32).max(1)).collect();
    // Fix up to sum exactly to `total`.
    let mut assigned: u32 = share.iter().sum();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        (ideal[b] - ideal[b].floor())
            .total_cmp(&(ideal[a] - ideal[a].floor()))
            .then(a.cmp(&b))
    });
    let mut i = 0;
    while assigned < total {
        share[order[i % n]] += 1;
        assigned += 1;
        i += 1;
    }
    // Over-assignment can only come from the `max(1)` floor; shave the
    // largest shares.
    while assigned > total {
        let max_idx = (0..n)
            .max_by(|&a, &b| share[a].cmp(&share[b]))
            .expect("non-empty");
        if share[max_idx] <= 1 {
            break; // cannot go below 1 each
        }
        share[max_idx] -= 1;
        assigned -= 1;
    }
    share
}

/// β values for a batch under a policy.
pub fn betas(policy: CraPolicy, dags: &[Dag], cluster_size: u32, speed: f64) -> Vec<f64> {
    let n = dags.len();
    if n == 0 {
        return Vec::new();
    }
    let mu = match policy {
        CraPolicy::Equal => 1.0,
        CraPolicy::Work { mu } | CraPolicy::Width { mu } => mu.clamp(0.0, 1.0),
    };
    let ws: Vec<f64> = dags
        .iter()
        .map(|d| measure(policy, d, cluster_size, speed))
        .collect();
    let wsum: f64 = ws.iter().sum();
    ws.iter()
        .map(|w| mu / n as f64 + (1.0 - mu) * w / wsum.max(1e-300))
        .collect()
}

/// Schedules a batch of applications on one cluster under a CRA policy.
/// Each application is scheduled with MCPA2 inside its processor range.
pub fn schedule_multi_dag(
    dags: &[Dag],
    total_procs: u32,
    speed: f64,
    policy: CraPolicy,
) -> MultiDagResult {
    let _s = jedule_core::obs::span_with("sched.multidag", || policy.name().to_string());
    let b = betas(policy, dags, total_procs, speed);
    let share = shares(&b, total_procs);
    schedule_with_shares(dags, &share, total_procs, speed, policy.name())
}

/// Partitioned scheduling with explicit shares (the common core of the
/// CRA policies and the moldable-job approach): each application gets a
/// contiguous processor range and is scheduled inside it with MCPA2.
pub fn schedule_with_shares(
    dags: &[Dag],
    share: &[u32],
    total_procs: u32,
    speed: f64,
    algorithm: &str,
) -> MultiDagResult {
    assert_eq!(share.len(), dags.len());
    let mut builder = ScheduleBuilder::new()
        .cluster(0, format!("cluster-{total_procs}"), total_procs)
        .meta("algorithm", algorithm)
        .meta("apps", dags.len().to_string());

    let mut apps = Vec::with_capacity(dags.len());
    let mut offset = 0u32;
    let mut overall = 0.0f64;

    for (i, dag) in dags.iter().enumerate() {
        let p = share[i].min(total_procs.saturating_sub(offset)).max(1);
        let inner = schedule_dag(dag, p, speed, CpaVariant::Mcpa2);
        let dedicated = schedule_dag(dag, total_procs, speed, CpaVariant::Mcpa2);
        let stretch = if dedicated.makespan > 0.0 {
            inner.makespan / dedicated.makespan
        } else {
            1.0
        };
        overall = overall.max(inner.makespan);

        for m in &inner.mapping.placed {
            let kind = format!("app{i}");
            let hosts = HostSet::from_hosts(m.procs.iter().map(|q| q + offset));
            let mut task = Task::new(
                format!("a{i}.{}", dag.tasks[m.task].name),
                kind,
                m.start,
                m.end,
            );
            task.allocations.push(Allocation::new(0, hosts));
            builder = builder.task(task);
        }

        apps.push(AppResult {
            app: i,
            share: p,
            first_proc: offset,
            makespan: inner.makespan,
            dedicated_makespan: dedicated.makespan,
            stretch,
        });
        offset += p;
    }

    let stretches: Vec<f64> = apps.iter().map(|a| a.stretch).collect();
    let max_stretch = stretches.iter().copied().fold(0.0, f64::max);
    let mean_stretch = if stretches.is_empty() {
        0.0
    } else {
        stretches.iter().sum::<f64>() / stretches.len() as f64
    };
    let var = if stretches.is_empty() {
        0.0
    } else {
        stretches
            .iter()
            .map(|s| (s - mean_stretch).powi(2))
            .sum::<f64>()
            / stretches.len() as f64
    };

    builder = builder.meta("makespan", format!("{overall:.4}"));
    builder = builder.meta("max_stretch", format!("{max_stretch:.4}"));

    MultiDagResult {
        apps,
        overall_makespan: overall,
        max_stretch,
        mean_stretch,
        stretch_stddev: var.sqrt(),
        schedule: builder.build_unchecked(),
    }
}

/// Approach 3 of §IV-A: treat each application as a single *moldable
/// job* whose execution time `T_i(p)` is its MCPA2 makespan on `p`
/// processors, then compute an allotment greedily minimizing the maximum
/// job completion time (all jobs start at once on disjoint processor
/// ranges, so the batch makespan is `max_i T_i(p_i)`).
pub fn moldable_shares(dags: &[Dag], total_procs: u32, speed: f64) -> Vec<u32> {
    let n = dags.len();
    if n == 0 {
        return Vec::new();
    }
    let total = total_procs.max(n as u32);
    // Makespan profiles T_i(p) for p = 1..=P (index 0 unused).
    let profile: Vec<Vec<f64>> = dags
        .iter()
        .map(|d| {
            let mut t = vec![f64::INFINITY; total as usize + 1];
            for p in 1..=total {
                t[p as usize] = schedule_dag(d, p, speed, CpaVariant::Mcpa2).makespan;
            }
            t
        })
        .collect();

    let mut share = vec![1u32; n];
    let mut left = total - n as u32;
    while left > 0 {
        // Give the next processor to the job that currently bounds the
        // makespan, provided it actually improves; otherwise to the
        // worst job that does improve.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            profile[b][share[b] as usize].total_cmp(&profile[a][share[a] as usize])
        });
        let mut gave = false;
        for &i in &order {
            let cur = share[i] as usize;
            if share[i] < total && profile[i][cur + 1] < profile[i][cur] - 1e-12 {
                share[i] += 1;
                left -= 1;
                gave = true;
                break;
            }
        }
        if !gave {
            break; // no job benefits from more processors
        }
    }
    share
}

/// Approach 3 end to end: moldable allotment + partitioned execution.
pub fn schedule_moldable(dags: &[Dag], total_procs: u32, speed: f64) -> MultiDagResult {
    let share = moldable_shares(dags, total_procs, speed);
    schedule_with_shares(dags, &share, total_procs, speed, "MOLDABLE")
}

/// Approach 1 of §IV-A: combine the task graphs into one and run a
/// standard heuristic (MCPA2) on the union. Applications share all
/// processors; fairness emerges (or not) from the list scheduler.
pub fn schedule_combined(dags: &[Dag], total_procs: u32, speed: f64) -> MultiDagResult {
    let (merged, map) = jedule_dag::merge_dags(dags);
    let inner = schedule_dag(&merged, total_procs, speed, CpaVariant::Mcpa2);

    let mut builder = ScheduleBuilder::new()
        .cluster(0, format!("cluster-{total_procs}"), total_procs)
        .meta("algorithm", "COMBINED")
        .meta("apps", dags.len().to_string());
    for m in &inner.mapping.placed {
        let task = Task::new(
            merged.tasks[m.task].name.clone(),
            merged.tasks[m.task].kind.clone(),
            m.start,
            m.end,
        );
        let mut task = task;
        task.allocations.push(Allocation::new(
            0,
            HostSet::from_hosts(m.procs.iter().copied()),
        ));
        builder = builder.task(task);
    }

    let mut apps = Vec::with_capacity(dags.len());
    for (i, dag) in dags.iter().enumerate() {
        let makespan = map
            .tasks_of(i)
            .filter_map(|t| inner.mapping.of(t))
            .map(|m| m.end)
            .fold(0.0f64, f64::max);
        let dedicated = schedule_dag(dag, total_procs, speed, CpaVariant::Mcpa2).makespan;
        apps.push(AppResult {
            app: i,
            share: total_procs,
            first_proc: 0,
            makespan,
            dedicated_makespan: dedicated,
            stretch: if dedicated > 0.0 {
                makespan / dedicated
            } else {
                1.0
            },
        });
    }

    let stretches: Vec<f64> = apps.iter().map(|a| a.stretch).collect();
    let max_stretch = stretches.iter().copied().fold(0.0, f64::max);
    let mean_stretch = if stretches.is_empty() {
        0.0
    } else {
        stretches.iter().sum::<f64>() / stretches.len() as f64
    };
    let var = if stretches.is_empty() {
        0.0
    } else {
        stretches
            .iter()
            .map(|x| (x - mean_stretch).powi(2))
            .sum::<f64>()
            / stretches.len() as f64
    };
    let overall = inner.makespan;
    builder = builder.meta("makespan", format!("{overall:.4}"));
    builder = builder.meta("max_stretch", format!("{max_stretch:.4}"));

    MultiDagResult {
        apps,
        overall_makespan: overall,
        max_stretch,
        mean_stretch,
        stretch_stddev: var.sqrt(),
        schedule: builder.build_unchecked(),
    }
}

/// Checks the property the Fig. 5 visualization confirmed: "the tasks of
/// each application are mapped on distinct processors" — i.e. every
/// application stays within its assigned range.
pub fn verify_partition(result: &MultiDagResult) -> Result<(), String> {
    for app in &result.apps {
        let kind = format!("app{}", app.app);
        let lo = app.first_proc;
        let hi = app.first_proc + app.share;
        for task in result.schedule.tasks.iter().filter(|t| t.kind == kind) {
            for a in &task.allocations {
                for r in a.hosts.ranges() {
                    if r.start < lo || r.end() > hi {
                        return Err(format!(
                            "app {} task {} uses hosts {} outside [{lo},{hi})",
                            app.app, task.id, a.hosts
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jedule_core::validate;
    use jedule_dag::{layered, GenParams};

    fn four_apps() -> Vec<Dag> {
        (0..4)
            .map(|i| {
                let mut d = layered(&GenParams {
                    seed: 100 + i,
                    depth: 5,
                    width: 3,
                    work_mean: 20.0 * (1.0 + i as f64),
                    ..GenParams::default()
                });
                d.name = format!("app{i}");
                d
            })
            .collect()
    }

    #[test]
    fn fig5_partition_respected() {
        // Four applications on a cluster of 20 processors (Fig. 5).
        let dags = four_apps();
        for policy in [
            CraPolicy::Work { mu: 0.5 },
            CraPolicy::Width { mu: 0.5 },
            CraPolicy::Equal,
        ] {
            let r = schedule_multi_dag(&dags, 20, 1.0, policy);
            verify_partition(&r).unwrap();
            assert!(validate(&r.schedule).is_empty());
            let total: u32 = r.apps.iter().map(|a| a.share).sum();
            assert_eq!(total, 20, "{}", policy.name());
        }
    }

    #[test]
    fn work_policy_gives_heavy_apps_more() {
        let dags = four_apps(); // app3 has 4× app0's mean work
        let r = schedule_multi_dag(&dags, 20, 1.0, CraPolicy::Work { mu: 0.0 });
        assert!(
            r.apps[3].share > r.apps[0].share,
            "{:?}",
            r.apps.iter().map(|a| a.share).collect::<Vec<_>>()
        );
    }

    #[test]
    fn equal_policy_gives_equal_shares() {
        let dags = four_apps();
        let r = schedule_multi_dag(&dags, 20, 1.0, CraPolicy::Equal);
        assert!(r.apps.iter().all(|a| a.share == 5));
    }

    #[test]
    fn mu_interpolates() {
        let dags = four_apps();
        let b0 = betas(CraPolicy::Work { mu: 0.0 }, &dags, 20, 1.0);
        let b1 = betas(CraPolicy::Work { mu: 1.0 }, &dags, 20, 1.0);
        // μ=1: equal; μ=0: proportional to work.
        assert!(b1.iter().all(|&b| (b - 0.25).abs() < 1e-12));
        assert!(b0[3] > b0[0]);
        // βs always sum to 1.
        assert!((b0.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((b1.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stretches_at_least_one() {
        let dags = four_apps();
        let r = schedule_multi_dag(&dags, 20, 1.0, CraPolicy::Work { mu: 0.5 });
        for a in &r.apps {
            assert!(a.stretch >= 0.999, "app {} stretch {}", a.app, a.stretch);
        }
        assert!(r.max_stretch >= r.mean_stretch);
        assert!(r.stretch_stddev >= 0.0);
    }

    #[test]
    fn shares_sum_and_minimum() {
        assert_eq!(shares(&[0.5, 0.3, 0.2], 10), vec![5, 3, 2]);
        let s = shares(&[0.97, 0.01, 0.01, 0.01], 8);
        assert_eq!(s.iter().sum::<u32>(), 8);
        assert!(s.iter().all(|&x| x >= 1));
        assert!(s[0] >= 5);
        // More apps than processors: clamped up.
        let s = shares(&[1.0, 1.0, 1.0], 2);
        assert_eq!(s.iter().sum::<u32>(), 3);
    }

    #[test]
    fn per_app_colors_via_types() {
        let dags = four_apps();
        let r = schedule_multi_dag(&dags, 20, 1.0, CraPolicy::Work { mu: 0.5 });
        let types = r.schedule.task_types();
        assert_eq!(types.len(), 4);
        for i in 0..4 {
            assert!(types.contains(&format!("app{i}").as_str()));
        }
    }

    #[test]
    fn empty_batch() {
        let r = schedule_multi_dag(&[], 20, 1.0, CraPolicy::Equal);
        assert_eq!(r.overall_makespan, 0.0);
        assert!(r.apps.is_empty());
    }

    #[test]
    fn combined_approach_schedules_everything() {
        let dags = four_apps();
        let r = schedule_combined(&dags, 20, 1.0);
        assert!(validate(&r.schedule).is_empty());
        let total_tasks: usize = dags.iter().map(|d| d.task_count()).sum();
        assert_eq!(r.schedule.tasks.len(), total_tasks);
        // One task type per application, like the CRA view.
        assert_eq!(r.schedule.task_types().len(), 4);
        assert!(r.overall_makespan > 0.0);
        assert_eq!(r.apps.len(), 4);
        // Per-app makespans never exceed the batch makespan.
        for a in &r.apps {
            assert!(a.makespan <= r.overall_makespan + 1e-9);
        }
    }

    #[test]
    fn combined_may_interleave_processors() {
        // Unlike CRA, the combined approach does not partition: at least
        // one processor should host tasks of two different applications.
        let dags = four_apps();
        let r = schedule_combined(&dags, 8, 1.0);
        let mut mixed = false;
        'outer: for h in 0..8u32 {
            let kinds: std::collections::HashSet<&str> = r
                .schedule
                .tasks
                .iter()
                .filter(|t| t.occupies(0, h))
                .map(|t| t.kind.as_str())
                .collect();
            if kinds.len() > 1 {
                mixed = true;
                break 'outer;
            }
        }
        assert!(mixed, "expected interleaved applications on some processor");
    }

    #[test]
    fn moldable_shares_sum_to_total() {
        let dags = four_apps();
        let share = moldable_shares(&dags, 20, 1.0);
        assert_eq!(share.len(), 4);
        assert!(share.iter().all(|&p| p >= 1));
        assert!(share.iter().sum::<u32>() <= 20);
    }

    #[test]
    fn moldable_minimizes_the_max() {
        // The greedy allotment should not be worse than equal shares on
        // the bounding application.
        let dags = four_apps();
        let equal = schedule_multi_dag(&dags, 20, 1.0, CraPolicy::Equal);
        let mold = schedule_moldable(&dags, 20, 1.0);
        verify_partition(&mold).unwrap();
        assert!(
            mold.overall_makespan <= equal.overall_makespan * 1.05,
            "moldable {} vs equal {}",
            mold.overall_makespan,
            equal.overall_makespan
        );
    }

    #[test]
    fn moldable_handles_empty_batch() {
        assert!(moldable_shares(&[], 20, 1.0).is_empty());
        let r = schedule_moldable(&[], 20, 1.0);
        assert_eq!(r.overall_makespan, 0.0);
    }

    #[test]
    fn underused_processors_detectable() {
        // The Fig. 5 observation: "processors 17 to 19 are clearly
        // underused" — with skewed shares, some partitions idle longer.
        use jedule_core::stats::cluster_stats;
        use jedule_core::PreparedSchedule;
        let dags = four_apps();
        let r = schedule_multi_dag(&dags, 20, 1.0, CraPolicy::Equal);
        let st = cluster_stats(&PreparedSchedule::borrowed(&r.schedule), 0).unwrap();
        let busy = &st.busy_per_host;
        let max_busy = busy.iter().copied().fold(0.0, f64::max);
        let min_busy = busy.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            min_busy < max_busy,
            "some processors should be less used: {busy:?}"
        );
    }
}
