//! Composite tasks (paper, §II-C3 and Fig. 3).
//!
//! A parallel system may execute tasks concurrently on the same resource.
//! For every resource shared by several tasks at the same time, Jedule
//! creates a *composite task* whose identifier is the concatenation of the
//! single task IDs and whose type is `"composite"`. The classic example is
//! the overlap of computation and communication on one host.
//!
//! The algorithm here sweeps each host's timeline once and merges identical
//! overlap segments across adjacent hosts, so a composite spanning many
//! hosts becomes a single multi-host task (one rectangle per contiguous
//! host run).

use crate::columns::TaskColumns;
use crate::hostset::HostSet;
use crate::index::ScheduleIndex;
use crate::model::{Allocation, Schedule, Task};
use crate::parallel::{chunk_bounds, effective_threads};
use std::collections::HashMap;

/// The type name assigned to generated composite tasks.
pub const COMPOSITE_KIND: &str = "composite";

/// Attribute key carrying the `+`-joined constituent task types.
pub const ATTR_TYPES: &str = "constituent_types";

/// Attribute key carrying the `+`-joined constituent task ids.
pub const ATTR_IDS: &str = "constituent_ids";

/// Options controlling composite computation.
#[derive(Debug, Clone, Copy)]
pub struct CompositeOptions {
    /// Overlap segments shorter than this are ignored (guards against
    /// floating-point touching of task boundaries).
    pub min_duration: f64,
    /// Worker threads for the per-host sweep: `0` = available
    /// parallelism, `1` = sequential. The output is identical for every
    /// worker count (hosts are chunked and merged in index order).
    pub threads: usize,
}

impl Default for CompositeOptions {
    fn default() -> Self {
        CompositeOptions {
            min_duration: 1e-12,
            threads: 0,
        }
    }
}

impl CompositeOptions {
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Key identifying a merged overlap segment: bit-exact start/end times
/// plus the sorted constituent task indices.
type SegKey = (u64, u64, Vec<usize>);

/// An overlap segment on one host before cross-host merging.
#[derive(Debug, Clone, PartialEq)]
struct Segment {
    start: f64,
    end: f64,
    /// Sorted indices of the overlapping tasks.
    tasks: Vec<usize>,
}

/// Computes the composite tasks of a schedule.
///
/// Returned tasks have type [`COMPOSITE_KIND`], an id of the form
/// `id1+id2+…`, and attributes [`ATTR_IDS`] / [`ATTR_TYPES`] used by color
/// maps to resolve composite colors.
pub fn composite_tasks(schedule: &Schedule, opts: &CompositeOptions) -> Vec<Task> {
    let index = ScheduleIndex::build_with_hosts(schedule);
    composite_impl(schedule, &index, opts, &|ti| {
        let t = &schedule.tasks[ti];
        (t.start, t.end)
    })
}

/// [`composite_tasks`] against a pre-built host-row index, with task
/// spans read from the columnar view's contiguous `starts`/`ends` slices
/// instead of striding across `Vec<Task>` structs — the sweep
/// [`crate::PreparedSchedule::composites`] caches. The column values are
/// bit-exact copies of the task fields, so the output is identical.
pub(crate) fn composite_tasks_columnar(
    schedule: &Schedule,
    index: &ScheduleIndex,
    cols: &TaskColumns,
    opts: &CompositeOptions,
) -> Vec<Task> {
    let (starts, ends) = (cols.starts(), cols.ends());
    composite_impl(schedule, index, opts, &|ti| (starts[ti], ends[ti]))
}

/// The shared sweep, generic (and monomorphized) over how a task index
/// resolves to its `(start, end)` span.
fn composite_impl<F>(
    schedule: &Schedule,
    index: &ScheduleIndex,
    opts: &CompositeOptions,
    span_of: &F,
) -> Vec<Task>
where
    F: Fn(usize) -> (f64, f64) + Sync,
{
    let mut out = Vec::new();
    for cluster in &schedule.clusters {
        let Some(ci) = index.cluster(cluster.id) else {
            continue;
        };
        // Per-host task lists come straight from the index rows, which
        // already deduplicate a task with several allocations on this
        // cluster (or one allocation listing a host twice) — without the
        // dedup the sweep would see the task overlap *itself* and emit
        // bogus `a+a` composites.
        let per_host: Vec<Vec<usize>> = (0..cluster.hosts)
            .map(|h| {
                ci.host(h)
                    .map(|seq| seq.entries().iter().map(|e| e.task as usize).collect())
                    .unwrap_or_default()
            })
            .collect();

        // Sweep each host (in parallel across hosts); key segments by
        // (bit-exact times, task set). The work list and the merge below
        // are both in ascending host order regardless of the worker
        // count, so the result is deterministic.
        let work: Vec<(u32, &[usize])> = per_host
            .iter()
            .enumerate()
            .filter(|(_, tasks)| tasks.len() >= 2)
            .map(|(host, tasks)| (host as u32, tasks.as_slice()))
            .collect();
        let workers = effective_threads(opts.threads).min(work.len()).max(1);

        let swept: Vec<Vec<(u32, Vec<Segment>)>> = if workers <= 1 {
            vec![work
                .iter()
                .map(|&(host, tasks)| (host, host_overlaps(span_of, tasks, opts)))
                .collect()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunk_bounds(work.len(), workers)
                    .into_iter()
                    .map(|(lo, hi)| {
                        let items = &work[lo..hi];
                        scope.spawn(move || {
                            items
                                .iter()
                                .map(|&(host, tasks)| (host, host_overlaps(span_of, tasks, opts)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("composite sweep worker panicked"))
                    .collect()
            })
        };

        let mut groups: HashMap<SegKey, Vec<u32>> = HashMap::new();
        for (host, segs) in swept.into_iter().flatten() {
            for seg in segs {
                groups
                    .entry((seg.start.to_bits(), seg.end.to_bits(), seg.tasks))
                    .or_default()
                    .push(host);
            }
        }

        let mut segs: Vec<(SegKey, Vec<u32>)> = groups.into_iter().collect();
        // Deterministic output order: by start, end, then constituent ids.
        segs.sort_by(|a, b| {
            f64::from_bits(a.0 .0)
                .total_cmp(&f64::from_bits(b.0 .0))
                .then(f64::from_bits(a.0 .1).total_cmp(&f64::from_bits(b.0 .1)))
                .then(a.0 .2.cmp(&b.0 .2))
        });

        for ((s_bits, e_bits, task_idx), hosts) in segs {
            let ids: Vec<&str> = task_idx
                .iter()
                .map(|&i| schedule.tasks[i].id.as_str())
                .collect();
            let mut types: Vec<&str> = task_idx
                .iter()
                .map(|&i| schedule.tasks[i].kind.as_str())
                .collect();
            types.sort_unstable();
            types.dedup();
            let task = Task::new(
                ids.join("+"),
                COMPOSITE_KIND,
                f64::from_bits(s_bits),
                f64::from_bits(e_bits),
            )
            .on(Allocation::new(cluster.id, HostSet::from_hosts(hosts)))
            .with_attr(ATTR_IDS, ids.join("+"))
            .with_attr(ATTR_TYPES, types.join("+"));
            out.push(task);
        }
    }
    out
}

/// Sweeps one host's tasks and returns maximal segments where at least two
/// tasks are simultaneously active.
fn host_overlaps<F>(span_of: &F, task_indices: &[usize], opts: &CompositeOptions) -> Vec<Segment>
where
    F: Fn(usize) -> (f64, f64),
{
    // Event sweep: +1 at start, -1 at end.
    let mut events: Vec<(f64, i32, usize)> = Vec::with_capacity(task_indices.len() * 2);
    for &ti in task_indices {
        let (start, end) = span_of(ti);
        if end > start {
            events.push((start, 1, ti));
            events.push((end, -1, ti));
        }
    }
    // Ends before starts at equal times so touching tasks don't overlap.
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut active: Vec<usize> = Vec::new();
    let mut out: Vec<Segment> = Vec::new();
    let mut prev_t = f64::NEG_INFINITY;
    for (t, delta, ti) in events {
        if active.len() >= 2 && t - prev_t > opts.min_duration {
            let mut tasks = active.clone();
            tasks.sort_unstable();
            // Extend the previous segment if it has the same constituents
            // and touches (can happen when an unrelated event splits it).
            // The comparison is strict: a gap of exactly `min_duration`
            // is a real (just-suppressed) interval, not floating-point
            // noise, and must keep the segments apart.
            if let Some(last) = out.last_mut() {
                if last.tasks == tasks && (last.end - prev_t).abs() < opts.min_duration {
                    last.end = t;
                } else {
                    out.push(Segment {
                        start: prev_t,
                        end: t,
                        tasks,
                    });
                }
            } else {
                out.push(Segment {
                    start: prev_t,
                    end: t,
                    tasks,
                });
            }
        }
        if delta > 0 {
            active.push(ti);
        } else if let Some(pos) = active.iter().position(|&x| x == ti) {
            active.swap_remove(pos);
        }
        prev_t = t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Cluster;

    fn schedule_with(tasks: Vec<Task>) -> Schedule {
        Schedule {
            clusters: vec![Cluster::new(0, "c0", 8)],
            tasks,
            meta: Default::default(),
        }
    }

    #[test]
    fn no_overlap_no_composites() {
        let s = schedule_with(vec![
            Task::new("a", "computation", 0.0, 1.0).on(Allocation::contiguous(0, 0, 4)),
            Task::new("b", "computation", 1.0, 2.0).on(Allocation::contiguous(0, 0, 4)),
        ]);
        assert!(composite_tasks(&s, &CompositeOptions::default()).is_empty());
    }

    #[test]
    fn simple_overlap_creates_one_composite() {
        let s = schedule_with(vec![
            Task::new("a", "computation", 0.0, 2.0).on(Allocation::contiguous(0, 0, 4)),
            Task::new("b", "transfer", 1.0, 3.0).on(Allocation::contiguous(0, 0, 4)),
        ]);
        let comps = composite_tasks(&s, &CompositeOptions::default());
        assert_eq!(comps.len(), 1);
        let c = &comps[0];
        assert_eq!(c.kind, COMPOSITE_KIND);
        assert_eq!(c.id, "a+b");
        assert_eq!(c.start, 1.0);
        assert_eq!(c.end, 2.0);
        assert_eq!(c.allocations.len(), 1);
        assert_eq!(c.allocations[0].hosts, HostSet::contiguous(0, 4));
        let types = c
            .attrs
            .iter()
            .find(|(k, _)| k == ATTR_TYPES)
            .map(|(_, v)| v.as_str());
        assert_eq!(types, Some("computation+transfer"));
    }

    #[test]
    fn partial_host_overlap_restricts_hosts() {
        let s = schedule_with(vec![
            Task::new("a", "computation", 0.0, 2.0).on(Allocation::contiguous(0, 0, 4)),
            Task::new("b", "transfer", 1.0, 3.0).on(Allocation::contiguous(0, 2, 4)),
        ]);
        let comps = composite_tasks(&s, &CompositeOptions::default());
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].allocations[0].hosts, HostSet::contiguous(2, 2));
    }

    #[test]
    fn triple_overlap_produces_staged_composites() {
        let s = schedule_with(vec![
            Task::new("a", "x", 0.0, 10.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("b", "y", 2.0, 8.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("c", "z", 4.0, 6.0).on(Allocation::contiguous(0, 0, 1)),
        ]);
        let comps = composite_tasks(&s, &CompositeOptions::default());
        // [2,4): a+b, [4,6): a+b+c, [6,8): a+b
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0].id, "a+b");
        assert_eq!((comps[0].start, comps[0].end), (2.0, 4.0));
        assert_eq!(comps[1].id, "a+b+c");
        assert_eq!((comps[1].start, comps[1].end), (4.0, 6.0));
        assert_eq!(comps[2].id, "a+b");
        assert_eq!((comps[2].start, comps[2].end), (6.0, 8.0));
    }

    #[test]
    fn touching_tasks_do_not_compose() {
        let s = schedule_with(vec![
            Task::new("a", "x", 0.0, 1.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("b", "y", 1.0, 2.0).on(Allocation::contiguous(0, 0, 1)),
        ]);
        assert!(composite_tasks(&s, &CompositeOptions::default()).is_empty());
    }

    #[test]
    fn composites_respect_cluster_boundaries() {
        let s = Schedule {
            clusters: vec![Cluster::new(0, "c0", 2), Cluster::new(1, "c1", 2)],
            tasks: vec![
                Task::new("a", "x", 0.0, 2.0).on(Allocation::contiguous(0, 0, 2)),
                Task::new("b", "y", 1.0, 3.0).on(Allocation::contiguous(1, 0, 2)),
            ],
            meta: Default::default(),
        };
        // Same host indices but different clusters: no shared resource.
        assert!(composite_tasks(&s, &CompositeOptions::default()).is_empty());
    }

    #[test]
    fn zero_duration_tasks_ignored() {
        let s = schedule_with(vec![
            Task::new("a", "x", 1.0, 1.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("b", "y", 0.0, 2.0).on(Allocation::contiguous(0, 0, 1)),
        ]);
        assert!(composite_tasks(&s, &CompositeOptions::default()).is_empty());
    }

    #[test]
    fn duplicate_allocations_do_not_self_compose() {
        // A task listed twice on the same host (two allocations on one
        // cluster) must not overlap itself and emit an `a+a` composite.
        let s = schedule_with(vec![Task::new("a", "computation", 0.0, 2.0)
            .on(Allocation::contiguous(0, 0, 2))
            .on(Allocation::contiguous(0, 1, 2))]);
        let comps = composite_tasks(&s, &CompositeOptions::default());
        assert!(
            comps.is_empty(),
            "lone task self-composed: {:?}",
            comps.iter().map(|c| c.id.as_str()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn duplicate_allocations_still_compose_with_real_overlaps() {
        // The deduped task still composes with a genuinely overlapping
        // one — as `a+b`, never `a+a` or `a+a+b`.
        let s = schedule_with(vec![
            Task::new("a", "computation", 0.0, 2.0)
                .on(Allocation::contiguous(0, 1, 1))
                .on(Allocation::contiguous(0, 1, 1)),
            Task::new("b", "transfer", 1.0, 3.0).on(Allocation::contiguous(0, 1, 1)),
        ]);
        let comps = composite_tasks(&s, &CompositeOptions::default());
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].id, "a+b");
        assert_eq!((comps[0].start, comps[0].end), (1.0, 2.0));
    }

    #[test]
    fn gap_of_exactly_min_duration_is_not_glued() {
        // a and b overlap throughout [0, 10]; c joins for exactly
        // min_duration at [5, 5.5]. The a+b+c segment is suppressed
        // (== min_duration), but the two surrounding a+b segments are
        // separated by that real interval and must NOT be merged into
        // one [0, 10] segment.
        let opts = CompositeOptions {
            min_duration: 0.5,
            ..CompositeOptions::default()
        };
        let s = schedule_with(vec![
            Task::new("a", "x", 0.0, 10.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("b", "y", 0.0, 10.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("c", "z", 5.0, 5.5).on(Allocation::contiguous(0, 0, 1)),
        ]);
        let comps = composite_tasks(&s, &opts);
        let ab: Vec<(f64, f64)> = comps
            .iter()
            .filter(|c| c.id == "a+b")
            .map(|c| (c.start, c.end))
            .collect();
        assert_eq!(
            ab,
            vec![(0.0, 5.0), (5.5, 10.0)],
            "boundary gap glued: {comps:?}"
        );
    }

    #[test]
    fn sub_min_duration_jitter_still_merges() {
        // The merge exists to bridge floating-point-sized splits from
        // unrelated events; a split far below min_duration still glues.
        let opts = CompositeOptions {
            min_duration: 0.5,
            ..CompositeOptions::default()
        };
        let s = schedule_with(vec![
            Task::new("a", "x", 0.0, 10.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("b", "y", 0.0, 10.0).on(Allocation::contiguous(0, 0, 1)),
            Task::new("c", "z", 5.0, 5.1).on(Allocation::contiguous(0, 0, 1)),
        ]);
        let comps = composite_tasks(&s, &opts);
        let ab: Vec<(f64, f64)> = comps
            .iter()
            .filter(|c| c.id == "a+b")
            .map(|c| (c.start, c.end))
            .collect();
        assert_eq!(ab, vec![(0.0, 10.0)]);
    }

    #[test]
    fn output_is_identical_for_any_worker_count() {
        // A many-host schedule with overlaps everywhere: the composite
        // list (content *and* order) must not depend on `threads`.
        let mut tasks = Vec::new();
        for i in 0..40u32 {
            let h = i % 8;
            let start = f64::from(i % 5);
            tasks.push(
                Task::new(
                    format!("t{i}"),
                    if i % 2 == 0 {
                        "computation"
                    } else {
                        "transfer"
                    },
                    start,
                    start + 2.0,
                )
                .on(Allocation::contiguous(0, h, 1 + (i % 3))),
            );
        }
        let s = schedule_with(tasks);
        let base = composite_tasks(&s, &CompositeOptions::default().with_threads(1));
        assert!(!base.is_empty());
        for threads in [0, 2, 3, 5, 8, 16] {
            let got = composite_tasks(&s, &CompositeOptions::default().with_threads(threads));
            assert_eq!(got, base, "threads={threads}");
        }
    }

    #[test]
    fn columnar_matches_task_walk_for_any_worker_count() {
        let mut tasks = Vec::new();
        for i in 0..40u32 {
            let h = i % 8;
            let start = f64::from(i % 5);
            tasks.push(
                Task::new(
                    format!("t{i}"),
                    if i % 2 == 0 { "x" } else { "y" },
                    start,
                    start + 2.0,
                )
                .on(Allocation::contiguous(0, h, 1 + (i % 3))),
            );
        }
        let s = schedule_with(tasks);
        let index = ScheduleIndex::build_with_hosts(&s);
        let cols = TaskColumns::build(&s);
        let base = composite_tasks(&s, &CompositeOptions::default().with_threads(1));
        assert!(!base.is_empty());
        for threads in [1, 2, 5] {
            let opts = CompositeOptions::default().with_threads(threads);
            let got = composite_tasks_columnar(&s, &index, &cols, &opts);
            assert_eq!(got, base, "threads={threads}");
        }
    }

    #[test]
    fn noncontiguous_composite_hosts() {
        // Overlap on hosts 0 and 2 only.
        let s = schedule_with(vec![
            Task::new("a", "x", 0.0, 2.0).on(Allocation::new(0, HostSet::from_hosts([0, 2]))),
            Task::new("b", "y", 1.0, 3.0).on(Allocation::contiguous(0, 0, 4)),
        ]);
        let comps = composite_tasks(&s, &CompositeOptions::default());
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].allocations[0].hosts, HostSet::from_hosts([0, 2]));
        assert!(!comps[0].allocations[0].hosts.is_contiguous());
    }
}
