//! Conservative backfilling post-pass (paper, §IV-B).
//!
//! "Jedule was also used to see the impact of a conservative backfilling
//! step applied at the end of the scheduling process. A comparison of the
//! Jedule outputs with and without backfilling allows for a check that no
//! task is delayed by this step. The reduction of the total idle time can
//! also be easily quantified."
//!
//! This pass compacts a finished schedule: visiting tasks in start order,
//! each task slides to the earliest time at which (a) all its
//! predecessors (same-application precedence, recovered from the task
//! ids) have finished, and (b) all its processors are idle. *Conservative*
//! means no task ever starts later than before, by construction.

use jedule_core::{PreparedSchedule, Schedule, Task};

/// Outcome of a backfilling pass.
#[derive(Debug, Clone, PartialEq)]
pub struct BackfillReport {
    pub schedule: Schedule,
    pub makespan_before: f64,
    pub makespan_after: f64,
    /// Total idle time inside the cluster extent, before/after.
    pub idle_before: f64,
    pub idle_after: f64,
    /// Number of tasks that moved earlier.
    pub moved: usize,
}

/// Half-open interval overlap.
fn overlaps(a0: f64, a1: f64, b0: f64, b1: f64) -> bool {
    a0 < b1 && b0 < a1
}

/// Do two tasks share at least one processor?
fn share_procs(a: &Task, b: &Task) -> bool {
    a.allocations.iter().any(|aa| {
        b.allocations
            .iter()
            .any(|ba| aa.cluster == ba.cluster && aa.hosts.intersects(&ba.hosts))
    })
}

/// Applies conservative backfilling to `schedule`.
///
/// Precondition: the input uses resources exclusively (no two tasks
/// overlap on a host), as scheduler outputs do. Tasks are still never
/// *delayed* on overlapping inputs, but serializing an inherited overlap
/// can extend the occupied span.
///
/// `deps(i, j)` must return true when task `i` must finish before task `j`
/// starts (the caller knows the application DAGs; for workloads without
/// precedence pass `|_, _| false`).
pub fn backfill<F>(schedule: &Schedule, deps: F) -> BackfillReport
where
    F: Fn(usize, usize) -> bool,
{
    let idle = |s: &Schedule| -> f64 {
        jedule_core::stats::schedule_stats(&PreparedSchedule::borrowed(s))
            .per_cluster
            .iter()
            .map(|c| c.idle_time)
            .sum()
    };
    let makespan_before = schedule.makespan();
    let idle_before = idle(schedule);

    let mut new_sched = schedule.clone();
    // Visit in nondecreasing original start time; ties by index for
    // determinism.
    let mut order: Vec<usize> = (0..schedule.tasks.len()).collect();
    order.sort_by(|&a, &b| {
        schedule.tasks[a]
            .start
            .total_cmp(&schedule.tasks[b].start)
            .then(a.cmp(&b))
    });

    let mut moved = 0usize;
    let mut done: Vec<usize> = Vec::with_capacity(order.len());
    for &i in &order {
        let dur = schedule.tasks[i].duration();
        // Earliest start from dependencies (against already-moved tasks —
        // `order` guarantees predecessors were processed first only if
        // they originally started earlier, which holds for any valid
        // schedule).
        let mut earliest = 0.0f64;
        for &j in &done {
            if deps(j, i) {
                earliest = earliest.max(new_sched.tasks[j].end);
            }
        }
        // Resource feasibility: scan candidate start times among
        // {earliest} ∪ {finish times of conflicting placed tasks}.
        let mut candidates: Vec<f64> = vec![earliest];
        for &j in &done {
            if share_procs(&schedule.tasks[i], &new_sched.tasks[j]) {
                candidates.push(new_sched.tasks[j].end);
            }
        }
        candidates.sort_by(f64::total_cmp);
        let mut start = new_sched.tasks[i].start; // never later than before
        for &c in &candidates {
            if c > new_sched.tasks[i].start {
                break;
            }
            if c < earliest {
                continue;
            }
            let free = done.iter().all(|&j| {
                !(share_procs(&schedule.tasks[i], &new_sched.tasks[j])
                    && overlaps(c, c + dur, new_sched.tasks[j].start, new_sched.tasks[j].end))
            });
            if free {
                start = c;
                break;
            }
        }
        if start < new_sched.tasks[i].start - 1e-12 {
            moved += 1;
        }
        new_sched.tasks[i].start = start;
        new_sched.tasks[i].end = start + dur;
        done.push(i);
    }

    let makespan_after = new_sched.makespan();
    let idle_after = idle(&new_sched);
    BackfillReport {
        schedule: new_sched,
        makespan_before,
        makespan_after,
        idle_before,
        idle_after,
        moved,
    }
}

/// Verifies the conservative property: no task starts later than in the
/// original schedule.
pub fn verify_no_delay(before: &Schedule, after: &Schedule) -> Result<(), String> {
    if before.tasks.len() != after.tasks.len() {
        return Err("task count changed".into());
    }
    for (b, a) in before.tasks.iter().zip(&after.tasks) {
        if a.start > b.start + 1e-12 {
            return Err(format!("task {} delayed: {} -> {}", b.id, b.start, a.start));
        }
        if (a.duration() - b.duration()).abs() > 1e-12 {
            return Err(format!("task {} changed duration", b.id));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jedule_core::{Allocation, ScheduleBuilder};

    fn gap_schedule() -> Schedule {
        // Host 0: [0,2); host 1: idle then [5,6) — b can slide to 0.
        ScheduleBuilder::new()
            .cluster(0, "c", 2)
            .task(Task::new("a", "t", 0.0, 2.0).on(Allocation::contiguous(0, 0, 1)))
            .task(Task::new("b", "t", 5.0, 6.0).on(Allocation::contiguous(0, 1, 1)))
            .build()
            .unwrap()
    }

    #[test]
    fn slides_task_into_gap() {
        let s = gap_schedule();
        let r = backfill(&s, |_, _| false);
        verify_no_delay(&s, &r.schedule).unwrap();
        let b = r.schedule.task_by_id("b").unwrap();
        assert_eq!(b.start, 0.0);
        assert_eq!(r.moved, 1);
        assert!(r.makespan_after < r.makespan_before);
        assert!(r.idle_after <= r.idle_before);
    }

    #[test]
    fn respects_dependencies() {
        let s = gap_schedule();
        // b depends on a (indices 0 → 1).
        let r = backfill(&s, |i, j| i == 0 && j == 1);
        verify_no_delay(&s, &r.schedule).unwrap();
        let b = r.schedule.task_by_id("b").unwrap();
        assert_eq!(b.start, 2.0); // right after a, not at 0
    }

    #[test]
    fn respects_resources() {
        // Both tasks on host 0: b cannot move before a ends.
        let s = ScheduleBuilder::new()
            .cluster(0, "c", 1)
            .task(Task::new("a", "t", 0.0, 2.0).on(Allocation::contiguous(0, 0, 1)))
            .task(Task::new("b", "t", 5.0, 6.0).on(Allocation::contiguous(0, 0, 1)))
            .build()
            .unwrap();
        let r = backfill(&s, |_, _| false);
        let b = r.schedule.task_by_id("b").unwrap();
        assert_eq!(b.start, 2.0);
    }

    #[test]
    fn already_tight_schedule_unchanged() {
        let s = ScheduleBuilder::new()
            .cluster(0, "c", 1)
            .task(Task::new("a", "t", 0.0, 2.0).on(Allocation::contiguous(0, 0, 1)))
            .task(Task::new("b", "t", 2.0, 4.0).on(Allocation::contiguous(0, 0, 1)))
            .build()
            .unwrap();
        let r = backfill(&s, |_, _| false);
        assert_eq!(r.moved, 0);
        assert_eq!(r.schedule, s);
    }

    #[test]
    fn multiprocessor_tasks_conflict_on_any_shared_host() {
        let s = ScheduleBuilder::new()
            .cluster(0, "c", 4)
            .task(Task::new("a", "t", 0.0, 3.0).on(Allocation::contiguous(0, 0, 3)))
            .task(Task::new("b", "t", 6.0, 8.0).on(Allocation::contiguous(0, 2, 2)))
            .build()
            .unwrap();
        let r = backfill(&s, |_, _| false);
        let b = r.schedule.task_by_id("b").unwrap();
        assert_eq!(b.start, 3.0); // host 2 shared with a
    }

    #[test]
    fn disjoint_hosts_move_to_zero() {
        let s = ScheduleBuilder::new()
            .cluster(0, "c", 4)
            .task(Task::new("a", "t", 0.0, 3.0).on(Allocation::contiguous(0, 0, 2)))
            .task(Task::new("b", "t", 6.0, 8.0).on(Allocation::contiguous(0, 2, 2)))
            .build()
            .unwrap();
        let r = backfill(&s, |_, _| false);
        assert_eq!(r.schedule.task_by_id("b").unwrap().start, 0.0);
    }

    #[test]
    fn cra_schedule_backfills_without_delay() {
        use crate::multidag::{schedule_multi_dag, CraPolicy};
        use jedule_dag::{layered, GenParams};
        let dags: Vec<_> = (0..3)
            .map(|i| {
                layered(&GenParams {
                    seed: i,
                    ..GenParams::default()
                })
            })
            .collect();
        let r = schedule_multi_dag(&dags, 16, 1.0, CraPolicy::Work { mu: 0.5 });
        // Conservative pass with *no* precedence knowledge would break
        // application DAG order; pass a same-app "everything earlier in
        // the same app precedes" over-approximation: never delays, never
        // reorders within an app.
        let kinds: Vec<String> = r.schedule.tasks.iter().map(|t| t.kind.clone()).collect();
        let starts: Vec<f64> = r.schedule.tasks.iter().map(|t| t.start).collect();
        let report = backfill(&r.schedule, |i, j| {
            kinds[i] == kinds[j] && starts[i] < starts[j]
        });
        verify_no_delay(&r.schedule, &report.schedule).unwrap();
        assert!(report.makespan_after <= report.makespan_before + 1e-9);
        assert!(report.idle_after <= report.idle_before + 1e-9);
    }
}
