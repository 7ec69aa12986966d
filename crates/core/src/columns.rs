//! Columnar (struct-of-arrays) task storage for the hot render path.
//!
//! A bird's-eye layout touches every task of a million-task schedule,
//! but only needs a handful of scalars per task: its time span, its
//! kind slot (for color resolution) and the host lanes it occupies.
//! Scanning `Vec<Task>` for those pays for everything else — each
//! `Task` is ~120 bytes with two heap `String`s plus `allocations` and
//! `attrs` `Vec`s, so the scan strides across scattered allocations and
//! chases pointers it never dereferences for pixels.
//!
//! [`TaskColumns`] is the same information laid out as parallel
//! columns, built once (inside [`crate::PreparedSchedule`], alongside
//! the interval index) and scanned linearly ever after:
//!
//! * `starts[ti]` / `ends[ti]` — the task's time span (16 contiguous
//!   bytes per task instead of a 120-byte struct);
//! * `kind_ids[ti]` — the slot of the task's kind in `kind_names`
//!   (first-appearance order). Renders resolve each *kind* against the
//!   color map once and then index the resolved table by slot, so the
//!   kind ids double as packed color indices;
//! * a CSR flattening of `task → allocations → host ranges`:
//!   `seg_offsets[ti]..seg_offsets[ti + 1]` indexes the per-segment
//!   `seg_clusters` / `seg_row0` / `seg_nrows` arrays, one entry per
//!   contiguous host range, in the exact order a `Task` walk visits
//!   them — consumers that must match the `Vec<Task>` path bit for bit
//!   (LOD accumulation order is `f32`-sensitive) rely on that order.
//!
//! The columns are immutable snapshots of the schedule they were built
//! from; `PreparedSchedule`'s immutability guarantees they never go
//! stale.

use crate::model::Schedule;
use crate::snap::Col;
use std::ops::Range;

/// One host-lane segment of a task: `nrows` rows starting at
/// cluster-local row `row0` of cluster `cluster`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seg {
    pub cluster: u32,
    pub row0: u32,
    pub nrows: u32,
}

/// Parallel per-task columns plus the CSR segment arrays. See the
/// module docs for the layout rationale. Numeric columns are `Col`s:
/// owned vectors when built from a parsed schedule, zero-copy borrows
/// into a mapped `.jpack` when loaded from a snapshot — consumers see
/// `&[T]` either way.
#[derive(Debug, Clone, Default)]
pub struct TaskColumns {
    starts: Col<f64>,
    ends: Col<f64>,
    kind_ids: Col<u32>,
    kind_names: Vec<String>,
    /// `seg_offsets[ti]..seg_offsets[ti + 1]` bounds task `ti`'s
    /// entries in the three segment arrays; length `tasks + 1`.
    seg_offsets: Col<u32>,
    seg_clusters: Col<u32>,
    seg_row0: Col<u32>,
    seg_nrows: Col<u32>,
}

impl TaskColumns {
    /// Builds the columns in one pass over the schedule's tasks. Kind
    /// slots are assigned in first-appearance order with the same
    /// last-kind memo the legend scan uses, so `kind_names` equals
    /// [`Schedule::task_types`] exactly.
    pub fn build(schedule: &Schedule) -> TaskColumns {
        let n = schedule.tasks.len();
        let mut starts = Vec::with_capacity(n);
        let mut ends = Vec::with_capacity(n);
        let mut kind_ids = Vec::with_capacity(n);
        let mut kind_names: Vec<String> = Vec::new();
        let mut seg_offsets = Vec::with_capacity(n + 1);
        let mut seg_clusters = Vec::with_capacity(n);
        let mut seg_row0 = Vec::with_capacity(n);
        let mut seg_nrows = Vec::with_capacity(n);
        seg_offsets.push(0);
        // Consecutive tasks of real traces overwhelmingly share one
        // kind; remembering the last slot makes the common case a
        // single string compare.
        let mut last: Option<(u32, &str)> = None;
        for t in &schedule.tasks {
            starts.push(t.start);
            ends.push(t.end);
            let slot = match last {
                Some((slot, kind)) if kind == t.kind => slot,
                _ => match kind_names.iter().position(|k| *k == t.kind) {
                    Some(i) => i as u32,
                    None => {
                        kind_names.push(t.kind.clone());
                        (kind_names.len() - 1) as u32
                    }
                },
            };
            last = Some((slot, t.kind.as_str()));
            kind_ids.push(slot);
            for a in &t.allocations {
                for r in a.hosts.ranges() {
                    seg_clusters.push(a.cluster);
                    seg_row0.push(r.start);
                    seg_nrows.push(r.nb);
                }
            }
            seg_offsets.push(seg_clusters.len() as u32);
        }
        TaskColumns {
            starts: starts.into(),
            ends: ends.into(),
            kind_ids: kind_ids.into(),
            kind_names,
            seg_offsets: seg_offsets.into(),
            seg_clusters: seg_clusters.into(),
            seg_row0: seg_row0.into(),
            seg_nrows: seg_nrows.into(),
        }
    }

    /// Assembles columns from prebuilt parts — the pack loader, after
    /// validating every invariant `build` establishes by construction
    /// (CSR shape, kind id ranges, equal column lengths).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        starts: Col<f64>,
        ends: Col<f64>,
        kind_ids: Col<u32>,
        kind_names: Vec<String>,
        seg_offsets: Col<u32>,
        seg_clusters: Col<u32>,
        seg_row0: Col<u32>,
        seg_nrows: Col<u32>,
    ) -> TaskColumns {
        TaskColumns {
            starts,
            ends,
            kind_ids,
            kind_names,
            seg_offsets,
            seg_clusters,
            seg_row0,
            seg_nrows,
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.starts.as_slice().len()
    }

    pub fn is_empty(&self) -> bool {
        self.starts.as_slice().is_empty()
    }

    /// Per-task start times, parallel to `schedule.tasks`.
    pub fn starts(&self) -> &[f64] {
        self.starts.as_slice()
    }

    /// Per-task end times, parallel to `schedule.tasks`.
    pub fn ends(&self) -> &[f64] {
        self.ends.as_slice()
    }

    /// Per-task kind slots into [`kind_names`](Self::kind_names) —
    /// the packed color indices once a render resolves each kind.
    pub fn kind_ids(&self) -> &[u32] {
        self.kind_ids.as_slice()
    }

    /// The distinct kinds in first-appearance order.
    pub fn kind_names(&self) -> &[String] {
        &self.kind_names
    }

    /// The CSR offsets array bounding each task's segments; length
    /// `tasks + 1`.
    pub fn seg_offsets(&self) -> &[u32] {
        self.seg_offsets.as_slice()
    }

    /// The segment-array range of task `ti`.
    #[inline]
    pub fn seg_range(&self, ti: usize) -> Range<usize> {
        let offs = self.seg_offsets.as_slice();
        offs[ti] as usize..offs[ti + 1] as usize
    }

    /// Per-segment cluster ids (indexed by [`seg_range`](Self::seg_range)).
    pub fn seg_clusters(&self) -> &[u32] {
        self.seg_clusters.as_slice()
    }

    /// Per-segment first cluster-local row.
    pub fn seg_row0(&self) -> &[u32] {
        self.seg_row0.as_slice()
    }

    /// Per-segment row count.
    pub fn seg_nrows(&self) -> &[u32] {
        self.seg_nrows.as_slice()
    }

    /// Task `ti`'s segments in `Task`-walk order.
    #[inline]
    pub fn segs(&self, ti: usize) -> impl Iterator<Item = Seg> + '_ {
        let clusters = self.seg_clusters.as_slice();
        let row0 = self.seg_row0.as_slice();
        let nrows = self.seg_nrows.as_slice();
        self.seg_range(ti).map(move |si| Seg {
            cluster: clusters[si],
            row0: row0[si],
            nrows: nrows[si],
        })
    }

    /// Whether task `ti` has any allocation on `cluster` — the columnar
    /// equivalent of `task.allocations.iter().any(|a| a.cluster == c)`.
    #[inline]
    pub fn on_cluster(&self, ti: usize, cluster: u32) -> bool {
        let clusters = self.seg_clusters.as_slice();
        self.seg_range(ti).any(|si| clusters[si] == cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScheduleBuilder;
    use crate::hostset::HostSet;
    use crate::model::{Allocation, Task};

    fn sched() -> Schedule {
        ScheduleBuilder::new()
            .cluster(0, "c0", 8)
            .cluster(3, "c1", 4)
            .task(Task::new("a", "computation", 1.0, 4.0).on(Allocation::contiguous(0, 0, 4)))
            .task(
                Task::new("b", "transfer", 3.0, 6.0)
                    .on(Allocation::new(0, HostSet::from_hosts([0, 1, 4, 5, 7])))
                    .on(Allocation::contiguous(3, 0, 2)),
            )
            .task(Task::new("c", "computation", 0.5, 5.0).on(Allocation::contiguous(3, 0, 4)))
            .task(Task::new("d", "computation", 2.0, 2.0))
            .build()
            .unwrap()
    }

    #[test]
    fn columns_mirror_tasks() {
        let s = sched();
        let cols = TaskColumns::build(&s);
        assert_eq!(cols.len(), s.tasks.len());
        for (ti, t) in s.tasks.iter().enumerate() {
            assert_eq!(cols.starts()[ti], t.start);
            assert_eq!(cols.ends()[ti], t.end);
            assert_eq!(cols.kind_names()[cols.kind_ids()[ti] as usize], t.kind);
            // Segments replay the allocation × range walk exactly.
            let want: Vec<Seg> = t
                .allocations
                .iter()
                .flat_map(|a| {
                    a.hosts.ranges().iter().map(|r| Seg {
                        cluster: a.cluster,
                        row0: r.start,
                        nrows: r.nb,
                    })
                })
                .collect();
            assert_eq!(cols.segs(ti).collect::<Vec<_>>(), want, "task {ti}");
        }
    }

    #[test]
    fn kind_names_match_first_appearance_order() {
        let s = sched();
        let cols = TaskColumns::build(&s);
        assert_eq!(
            cols.kind_names(),
            ["computation".to_string(), "transfer".to_string()]
        );
        assert_eq!(cols.kind_ids(), [0, 1, 0, 0]);
    }

    #[test]
    fn on_cluster_matches_allocation_scan() {
        let s = sched();
        let cols = TaskColumns::build(&s);
        for (ti, t) in s.tasks.iter().enumerate() {
            for cid in [0u32, 3, 9] {
                assert_eq!(
                    cols.on_cluster(ti, cid),
                    t.allocations.iter().any(|a| a.cluster == cid),
                    "task {ti} cluster {cid}"
                );
            }
        }
    }

    #[test]
    fn empty_schedule_and_allocation_free_task() {
        let cols = TaskColumns::build(&Schedule::new());
        assert!(cols.is_empty());
        assert_eq!(cols.seg_offsets(), [0]);
        let s = sched();
        let cols = TaskColumns::build(&s);
        // Task "d" has no allocations: empty segment range.
        assert_eq!(cols.seg_range(3).len(), 0);
        assert!(!cols.on_cluster(3, 0));
    }
}
