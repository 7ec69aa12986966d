//! Utilization and idle-time statistics.
//!
//! The case studies repeatedly reason about *holes* — idle CPU time — in
//! schedules (MCPA's load imbalance, underused processors 17–19 in the
//! CRA example, the Quicksort ramp-up). These helpers quantify what the
//! pictures show: per-host busy time, per-cluster utilization, and the
//! explicit list of idle holes.
//!
//! Each helper reads a [`PreparedSchedule`]: its per-host interval index,
//! cached extents and columns. Statistics of one bundle share one index,
//! and a pack-backed bundle answers without materializing its tasks.

use crate::align::{AlignMode, TimeExtent};
use crate::index::IntervalSeq;
use crate::model::Schedule;
use crate::prepared::PreparedSchedule;

/// An idle interval on one host.
#[derive(Debug, Clone, PartialEq)]
pub struct Hole {
    pub cluster: u32,
    pub host: u32,
    pub start: f64,
    pub end: f64,
}

impl Hole {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Statistics for one cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    pub cluster: u32,
    /// Local time extent (None if the cluster runs nothing).
    pub extent: Option<TimeExtent>,
    /// Busy time per host (union of task intervals, overlap counted once).
    pub busy_per_host: Vec<f64>,
    /// Fraction of `extent.span() * hosts` that is busy, in `[0, 1]`.
    pub utilization: f64,
    /// Total idle time inside the extent, summed over hosts.
    pub idle_time: f64,
}

/// Statistics for a whole schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleStats {
    pub per_cluster: Vec<ClusterStats>,
    pub makespan: f64,
    pub task_count: usize,
    /// Total work area: Σ duration × resources.
    pub total_area: f64,
    /// Overall utilization across all clusters against the global extent.
    pub utilization: f64,
}

/// Merges a host row's task intervals into disjoint busy intervals. The
/// per-host [`IntervalSeq`] is already sorted by start, so this is a single
/// linear pass — no per-host re-scan of the whole task list, no sort.
fn busy_intervals(seq: &IntervalSeq) -> Vec<(f64, f64)> {
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(seq.len());
    for e in seq.entries() {
        if e.end <= e.start {
            continue;
        }
        match out.last_mut() {
            Some(last) if e.start <= last.1 => last.1 = last.1.max(e.end),
            _ => out.push((e.start, e.end)),
        }
    }
    out
}

/// Computes per-cluster statistics against the cluster's local extent.
pub fn cluster_stats(prep: &PreparedSchedule, cluster: u32) -> Option<ClusterStats> {
    let c = prep.clusters().iter().find(|c| c.id == cluster)?;
    let ci = prep.index().cluster(cluster)?;
    let extent = prep.extent_for(cluster, AlignMode::Scaled);
    let busy: Vec<f64> = (0..c.hosts)
        .map(|h| {
            ci.host(h)
                .map(busy_intervals)
                .unwrap_or_default()
                .iter()
                .map(|(s, e)| e - s)
                .sum()
        })
        .collect();
    let (utilization, idle) = match extent {
        Some(ext) if ext.span() > 0.0 => {
            let cap = ext.span() * f64::from(c.hosts);
            let total_busy: f64 = busy.iter().sum();
            (
                (total_busy / cap).clamp(0.0, 1.0),
                (cap - total_busy).max(0.0),
            )
        }
        _ => (0.0, 0.0),
    };
    Some(ClusterStats {
        cluster,
        extent,
        busy_per_host: busy,
        utilization,
        idle_time: idle,
    })
}

/// Computes statistics for the whole schedule from the bundle's index,
/// extents and columns — a pack-backed bundle is never materialized.
pub fn schedule_stats(prep: &PreparedSchedule) -> ScheduleStats {
    let per_cluster: Vec<ClusterStats> = prep
        .clusters()
        .iter()
        .filter_map(|c| cluster_stats(prep, c.id))
        .collect();
    let makespan = prep.global_extent().map_or(0.0, |e| e.span());
    // Σ duration × resources, with each task's resources summed over its
    // host-lane segments (one per host range of each allocation).
    let cols = prep.columns();
    let total_area: f64 = (0..cols.len())
        .map(|ti| {
            let hosts: u32 = cols.segs(ti).map(|seg| seg.nrows).sum();
            (cols.ends()[ti] - cols.starts()[ti]) * f64::from(hosts)
        })
        .sum();
    let total_busy: f64 = per_cluster
        .iter()
        .map(|cs| cs.busy_per_host.iter().sum::<f64>())
        .sum();
    let total_hosts: u32 = prep.clusters().iter().map(|c| c.hosts).sum();
    let cap = makespan * f64::from(total_hosts);
    let utilization = if cap > 0.0 {
        (total_busy / cap).clamp(0.0, 1.0)
    } else {
        0.0
    };
    ScheduleStats {
        per_cluster,
        makespan,
        task_count: prep.task_count(),
        total_area,
        utilization,
    }
}

/// Lists every idle hole of at least `min_duration` inside each host's
/// cluster extent. The paper's MCPA case ("large holes that correspond to
/// idle CPU time") is detected by exactly this scan.
pub fn idle_holes(prep: &PreparedSchedule, min_duration: f64) -> Vec<Hole> {
    let index = prep.index();
    let mut holes = Vec::new();
    for c in prep.clusters() {
        let Some(ext) = prep.extent_for(c.id, AlignMode::Scaled) else {
            continue;
        };
        let Some(ci) = index.cluster(c.id) else {
            continue;
        };
        for host in 0..c.hosts {
            let busy = ci.host(host).map(busy_intervals).unwrap_or_default();
            let mut cursor = ext.start;
            for (s, e) in &busy {
                if s - cursor > min_duration {
                    holes.push(Hole {
                        cluster: c.id,
                        host,
                        start: cursor,
                        end: *s,
                    });
                }
                cursor = cursor.max(*e);
            }
            if ext.end - cursor > min_duration {
                holes.push(Hole {
                    cluster: c.id,
                    host,
                    start: cursor,
                    end: ext.end,
                });
            }
        }
    }
    holes
}

/// The exact piecewise-constant profile of busy hosts over time: returns
/// breakpoints `(t, busy)` meaning "from `t` (inclusive) until the next
/// breakpoint, `busy` hosts are occupied". Derived from task boundaries,
/// counting each host once even under overlapping tasks. This is the
/// "how many processors are actually running" curve the Quicksort case
/// study reads off the chart (2–4 processors during the holes).
pub fn utilization_profile(prep: &PreparedSchedule) -> Vec<(f64, u32)> {
    let index = prep.index();
    // Per (cluster, host) busy intervals, merged; then a global sweep.
    let mut events: Vec<(f64, i32)> = Vec::new();
    for c in prep.clusters() {
        let Some(ci) = index.cluster(c.id) else {
            continue;
        };
        for host in 0..c.hosts {
            for (s, e) in ci.host(host).map(busy_intervals).unwrap_or_default() {
                events.push((s, 1));
                events.push((e, -1));
            }
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut out: Vec<(f64, u32)> = Vec::new();
    let mut busy = 0i64;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        while i < events.len() && events[i].0 == t {
            busy += i64::from(events[i].1);
            i += 1;
        }
        let b = busy.max(0) as u32;
        match out.last() {
            Some(&(_, prev)) if prev == b => {}
            _ => out.push((t, b)),
        }
    }
    out
}

/// Number of busy hosts at time `t` (half-open task intervals), across all
/// clusters — the "how many processors are actually running" profile used
/// in the Quicksort case study.
pub fn busy_hosts_at(schedule: &Schedule, t: f64) -> u32 {
    // One pass over the tasks, then a range-union per cluster — instead of
    // re-scanning every task for every host row.
    let mut per_cluster: Vec<Vec<(u32, u32)>> = vec![Vec::new(); schedule.clusters.len()];
    for task in &schedule.tasks {
        if !(task.start <= t && t < task.end) {
            continue;
        }
        for a in &task.allocations {
            if let Some(ci) = schedule.clusters.iter().position(|c| c.id == a.cluster) {
                let cap = schedule.clusters[ci].hosts;
                for r in a.hosts.ranges() {
                    let end = (r.start + r.nb).min(cap);
                    if r.start < end {
                        per_cluster[ci].push((r.start, end));
                    }
                }
            }
        }
    }
    let mut n = 0u32;
    for mut ranges in per_cluster {
        ranges.sort_unstable();
        let mut cursor = 0u32;
        for (s, e) in ranges {
            let s = s.max(cursor);
            if e > s {
                n += e - s;
                cursor = e;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Allocation, Cluster, Task};

    fn s1() -> Schedule {
        Schedule {
            clusters: vec![Cluster::new(0, "c0", 2)],
            tasks: vec![
                Task::new("a", "t", 0.0, 2.0).on(Allocation::contiguous(0, 0, 1)),
                Task::new("b", "t", 3.0, 4.0).on(Allocation::contiguous(0, 0, 1)),
                Task::new("c", "t", 0.0, 4.0).on(Allocation::contiguous(0, 1, 1)),
            ],
            meta: Default::default(),
        }
    }

    #[test]
    fn busy_and_utilization() {
        let st = cluster_stats(&PreparedSchedule::new(s1()), 0).unwrap();
        assert_eq!(st.busy_per_host, vec![3.0, 4.0]);
        // Extent [0,4] × 2 hosts = 8 capacity, 7 busy.
        assert!((st.utilization - 7.0 / 8.0).abs() < 1e-12);
        assert!((st.idle_time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_counted_once() {
        let s = Schedule {
            clusters: vec![Cluster::new(0, "c0", 1)],
            tasks: vec![
                Task::new("a", "x", 0.0, 3.0).on(Allocation::contiguous(0, 0, 1)),
                Task::new("b", "y", 1.0, 2.0).on(Allocation::contiguous(0, 0, 1)),
            ],
            meta: Default::default(),
        };
        let st = cluster_stats(&PreparedSchedule::borrowed(&s), 0).unwrap();
        assert_eq!(st.busy_per_host, vec![3.0]);
        assert!((st.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn holes_found_between_tasks() {
        let holes = idle_holes(&PreparedSchedule::new(s1()), 1e-9);
        assert_eq!(holes.len(), 1);
        assert_eq!(holes[0].host, 0);
        assert_eq!((holes[0].start, holes[0].end), (2.0, 3.0));
        assert!((holes[0].duration() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_duration_filters_small_holes() {
        assert!(idle_holes(&PreparedSchedule::new(s1()), 1.5).is_empty());
    }

    #[test]
    fn busy_profile() {
        let s = s1();
        assert_eq!(busy_hosts_at(&s, 0.5), 2);
        assert_eq!(busy_hosts_at(&s, 2.5), 1);
        assert_eq!(busy_hosts_at(&s, 3.5), 2);
        assert_eq!(busy_hosts_at(&s, 4.0), 0); // half-open
        assert_eq!(busy_hosts_at(&s, -1.0), 0);
    }

    #[test]
    fn whole_schedule_stats() {
        let st = schedule_stats(&PreparedSchedule::new(s1()));
        assert_eq!(st.task_count, 3);
        assert_eq!(st.makespan, 4.0);
        assert!((st.total_area - 7.0).abs() < 1e-12);
        assert!((st.utilization - 7.0 / 8.0).abs() < 1e-12);
        assert_eq!(st.per_cluster.len(), 1);
    }

    #[test]
    fn empty_schedule_stats_are_zero() {
        let s = Schedule {
            clusters: vec![Cluster::new(0, "c0", 4)],
            tasks: vec![],
            meta: Default::default(),
        };
        let st = schedule_stats(&PreparedSchedule::borrowed(&s));
        assert_eq!(st.makespan, 0.0);
        assert_eq!(st.utilization, 0.0);
        assert!(idle_holes(&PreparedSchedule::borrowed(&s), 0.0).is_empty());
    }

    #[test]
    fn profile_matches_pointwise_probe() {
        let s = s1();
        let profile = utilization_profile(&PreparedSchedule::borrowed(&s));
        // Breakpoints strictly increasing, values change at each.
        for w in profile.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert_ne!(w[0].1, w[1].1);
        }
        // Consistency with busy_hosts_at at probe points.
        for probe in [0.0, 0.5, 2.0, 2.5, 3.0, 3.9] {
            let from_profile = profile
                .iter()
                .rev()
                .find(|&&(t, _)| t <= probe)
                .map(|&(_, b)| b)
                .unwrap_or(0);
            assert_eq!(from_profile, busy_hosts_at(&s, probe), "at {probe}");
        }
        // Ends at zero.
        assert_eq!(profile.last().unwrap().1, 0);
    }

    #[test]
    fn profile_counts_overlap_once() {
        let s = Schedule {
            clusters: vec![Cluster::new(0, "c0", 1)],
            tasks: vec![
                Task::new("a", "x", 0.0, 3.0).on(Allocation::contiguous(0, 0, 1)),
                Task::new("b", "y", 1.0, 2.0).on(Allocation::contiguous(0, 0, 1)),
            ],
            meta: Default::default(),
        };
        let profile = utilization_profile(&PreparedSchedule::borrowed(&s));
        assert_eq!(profile, vec![(0.0, 1), (3.0, 0)]);
    }

    #[test]
    fn trailing_hole_before_cluster_end() {
        // Host 1 idles from 2.0 to the cluster extent end 4.0.
        let s = Schedule {
            clusters: vec![Cluster::new(0, "c0", 2)],
            tasks: vec![
                Task::new("a", "t", 0.0, 4.0).on(Allocation::contiguous(0, 0, 1)),
                Task::new("b", "t", 0.0, 2.0).on(Allocation::contiguous(0, 1, 1)),
            ],
            meta: Default::default(),
        };
        let holes = idle_holes(&PreparedSchedule::borrowed(&s), 1e-9);
        assert_eq!(holes.len(), 1);
        assert_eq!(holes[0].host, 1);
        assert_eq!((holes[0].start, holes[0].end), (2.0, 4.0));
    }
}
