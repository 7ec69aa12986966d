//! Time alignment between clusters (paper, §II-C3).
//!
//! Each cluster schedule is self-contained with its own `[t_s, t_f]`
//! extent. Jedule offers two view modes: in the *scaled* view every cluster
//! is drawn using its local minima/maxima, while in the *aligned* view the
//! global minima/maxima are used for all clusters so that overall
//! utilization is directly comparable.
//!
//! [`crate::PreparedSchedule::extent_for`] computes both extents once
//! and caches them.

/// How cluster time axes are established.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlignMode {
    /// Every cluster uses its own local `[min start, max end]`.
    Scaled,
    /// Every cluster uses the global `[min start, max end]`.
    #[default]
    Aligned,
}

/// A time extent `[start, end]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeExtent {
    pub start: f64,
    pub end: f64,
}

impl TimeExtent {
    pub fn new(start: f64, end: f64) -> Self {
        TimeExtent { start, end }
    }

    pub fn span(&self) -> f64 {
        self.end - self.start
    }

    /// True if `t` lies within the extent (closed interval).
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start && t <= self.end
    }
}

/// Task-scan references for the extents [`crate::PreparedSchedule`]
/// caches: the semantics its extents must reproduce, scanned afresh on
/// every call.
#[cfg(test)]
pub(crate) mod scan {
    use super::{AlignMode, TimeExtent};
    use crate::model::Schedule;

    /// The local extent of one cluster: min start / max end over the
    /// tasks with an allocation on that cluster. `None` if the cluster
    /// runs no task.
    pub fn cluster_extent(schedule: &Schedule, cluster: u32) -> Option<TimeExtent> {
        let mut ext: Option<TimeExtent> = None;
        for t in &schedule.tasks {
            if t.allocations.iter().any(|a| a.cluster == cluster) {
                let e = ext.get_or_insert(TimeExtent::new(t.start, t.end));
                e.start = e.start.min(t.start);
                e.end = e.end.max(t.end);
            }
        }
        ext
    }

    /// The global extent over all tasks. `None` for an empty schedule.
    pub fn global_extent(schedule: &Schedule) -> Option<TimeExtent> {
        match (schedule.min_start(), schedule.max_end()) {
            (Some(s), Some(e)) => Some(TimeExtent::new(s, e)),
            _ => None,
        }
    }

    /// The extent to use when drawing `cluster` under the given mode.
    pub fn extent_for(schedule: &Schedule, cluster: u32, mode: AlignMode) -> Option<TimeExtent> {
        match mode {
            AlignMode::Scaled => cluster_extent(schedule, cluster),
            AlignMode::Aligned => global_extent(schedule),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Allocation, Cluster, Schedule, Task};
    use crate::PreparedSchedule;

    fn extent_for(s: &Schedule, cluster: u32, mode: AlignMode) -> Option<TimeExtent> {
        let bundle = PreparedSchedule::borrowed(s).extent_for(cluster, mode);
        assert_eq!(bundle, scan::extent_for(s, cluster, mode));
        bundle
    }

    fn cluster_extent(s: &Schedule, cluster: u32) -> Option<TimeExtent> {
        extent_for(s, cluster, AlignMode::Scaled)
    }

    fn global_extent(s: &Schedule) -> Option<TimeExtent> {
        let bundle = PreparedSchedule::borrowed(s).global_extent();
        assert_eq!(bundle, scan::global_extent(s));
        bundle
    }

    fn two_cluster_schedule() -> Schedule {
        Schedule {
            clusters: vec![Cluster::new(0, "c0", 4), Cluster::new(1, "c1", 4)],
            tasks: vec![
                Task::new("a", "t", 1.0, 5.0).on(Allocation::contiguous(0, 0, 4)),
                Task::new("b", "t", 10.0, 20.0).on(Allocation::contiguous(1, 0, 4)),
            ],
            meta: Default::default(),
        }
    }

    #[test]
    fn scaled_view_uses_local_extents() {
        let s = two_cluster_schedule();
        assert_eq!(
            extent_for(&s, 0, AlignMode::Scaled),
            Some(TimeExtent::new(1.0, 5.0))
        );
        assert_eq!(
            extent_for(&s, 1, AlignMode::Scaled),
            Some(TimeExtent::new(10.0, 20.0))
        );
    }

    #[test]
    fn aligned_view_uses_global_extent() {
        let s = two_cluster_schedule();
        for c in [0, 1] {
            assert_eq!(
                extent_for(&s, c, AlignMode::Aligned),
                Some(TimeExtent::new(1.0, 20.0))
            );
        }
    }

    #[test]
    fn cross_cluster_task_counts_for_both() {
        let mut s = two_cluster_schedule();
        s.tasks.push(
            Task::new("x", "transfer", 6.0, 7.0)
                .on(Allocation::contiguous(0, 0, 1))
                .on(Allocation::contiguous(1, 0, 1)),
        );
        assert_eq!(cluster_extent(&s, 0), Some(TimeExtent::new(1.0, 7.0)));
        assert_eq!(cluster_extent(&s, 1), Some(TimeExtent::new(6.0, 20.0)));
    }

    #[test]
    fn empty_cluster_extents() {
        let mut s = two_cluster_schedule();
        s.clusters.push(Cluster::new(2, "idle", 4));
        assert_eq!(extent_for(&s, 2, AlignMode::Scaled), None);
        // Aligned mode still draws the empty lane across the global span.
        assert_eq!(
            extent_for(&s, 2, AlignMode::Aligned),
            Some(TimeExtent::new(1.0, 20.0))
        );
    }

    #[test]
    fn empty_schedule_has_no_extent() {
        let s = Schedule {
            clusters: vec![Cluster::new(0, "c0", 4)],
            tasks: vec![],
            meta: Default::default(),
        };
        assert_eq!(global_extent(&s), None);
        assert_eq!(extent_for(&s, 0, AlignMode::Aligned), None);
    }

    #[test]
    fn extent_helpers() {
        let e = TimeExtent::new(2.0, 6.0);
        assert_eq!(e.span(), 4.0);
        assert!(e.contains(2.0));
        assert!(e.contains(6.0));
        assert!(!e.contains(6.1));
    }
}
