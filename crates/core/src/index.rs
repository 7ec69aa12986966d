//! Interval index over a schedule's tasks.
//!
//! Bird's-eye charts of production traces (paper §VII) put 10⁵–10⁶ tasks
//! behind a single picture. Layout, statistics and the composite sweep all
//! ask the same question — *which tasks intersect the time window `[t0, t1]`
//! on this cluster / host row?* — and answering it by scanning every task of
//! the schedule makes zoomed renders pay O(total) instead of O(visible).
//!
//! This module answers it in `O(log n + k')` per query: tasks are bucketed
//! per cluster (and optionally per host row), sorted by start time, and
//! carry a *max-finish prefix* so a query can binary-search both ends of
//! the candidate range:
//!
//! * entries are sorted by `(start, task index)`, so "first entry starting
//!   after `t1`" is one `partition_point`;
//! * `prefix_max_end[i] = max(end of entries 0..=i)` is non-decreasing, so
//!   "first entry from which *anything* reaches `t0`" is another.
//!
//! The scan between the two bounds touches only candidates; `k'` is the
//! number of entries in that range (≥ the true hit count `k`, but tight for
//! the shallow-nesting interval sets real schedules produce). Queries use
//! **closed-interval** intersection (`start <= t1 && end >= t0`): zero-width
//! tasks sitting exactly on a window edge are reported, and rendering clips
//! exactly afterwards, so culling can never change pixels inside the window.

use crate::model::{Cluster, Schedule};

/// One indexed task occurrence: the task's time span plus its index into
/// `schedule.tasks`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexEntry {
    pub start: f64,
    pub end: f64,
    /// Index into `Schedule::tasks`.
    pub task: u32,
}

/// A sequence of intervals sorted by start time with a max-finish prefix
/// structure, supporting `O(log n + k')` window queries.
#[derive(Debug, Clone, Default)]
pub struct IntervalSeq {
    entries: Vec<IndexEntry>,
    /// `prefix_max_end[i]` = max end over `entries[0..=i]`; non-decreasing.
    prefix_max_end: Vec<f64>,
}

impl IntervalSeq {
    fn from_entries(mut entries: Vec<IndexEntry>) -> Self {
        entries.sort_unstable_by(|a, b| a.start.total_cmp(&b.start).then(a.task.cmp(&b.task)));
        Self::from_sorted_entries(entries)
    }

    /// Builds the sequence from entries already in `(start, task)` order,
    /// computing only the prefix-max structure. The pack loader uses this
    /// after validating the stored order, skipping the O(n log n) sort.
    pub(crate) fn from_sorted_entries(entries: Vec<IndexEntry>) -> Self {
        let mut prefix_max_end = Vec::with_capacity(entries.len());
        let mut m = f64::NEG_INFINITY;
        for e in &entries {
            m = m.max(e.end);
            prefix_max_end.push(m);
        }
        IntervalSeq {
            entries,
            prefix_max_end,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The indexed entries in `(start, task)` order.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// Appends the task indices of all entries intersecting the closed
    /// window `[t0, t1]` onto `out`, in start order. An empty window
    /// (`t1 < t0`) matches nothing.
    pub fn query_into(&self, t0: f64, t1: f64, out: &mut Vec<usize>) {
        if t1 < t0 || self.entries.is_empty() {
            return;
        }
        // First entry starting strictly after the window: nothing from
        // there on can intersect.
        let hi = self.entries.partition_point(|e| e.start <= t1);
        // First position whose prefix max finish reaches the window:
        // everything before it ends strictly before t0.
        let lo = self.prefix_max_end[..hi].partition_point(|&m| m < t0);
        for e in &self.entries[lo..hi] {
            if e.end >= t0 {
                out.push(e.task as usize);
            }
        }
    }

    /// The task indices intersecting `[t0, t1]`, in start order.
    pub fn query(&self, t0: f64, t1: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_into(t0, t1, &mut out);
        out
    }
}

/// Per-cluster index: every task touching the cluster, plus (optionally)
/// one [`IntervalSeq`] per host row.
#[derive(Debug, Clone)]
pub struct ClusterIndex {
    pub cluster: u32,
    hosts: u32,
    tasks: IntervalSeq,
    per_host: Option<Vec<IntervalSeq>>,
}

impl ClusterIndex {
    /// Assembles a cluster index from prebuilt parts (the pack loader,
    /// after validating entry order and id ranges).
    pub(crate) fn from_parts(
        cluster: u32,
        hosts: u32,
        tasks: IntervalSeq,
        per_host: Option<Vec<IntervalSeq>>,
    ) -> Self {
        ClusterIndex {
            cluster,
            hosts,
            tasks,
            per_host,
        }
    }

    /// All tasks touching this cluster (each task once, even with several
    /// allocations on it).
    pub fn tasks(&self) -> &IntervalSeq {
        &self.tasks
    }

    /// The per-host sequence for cluster-local `host`, if the index was
    /// built with host rows and the row exists.
    pub fn host(&self, host: u32) -> Option<&IntervalSeq> {
        self.per_host.as_ref()?.get(host as usize)
    }

    /// Task indices of this cluster intersecting `[t0, t1]`, sorted
    /// ascending — i.e. in the schedule's original (painter's) order.
    pub fn query(&self, t0: f64, t1: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_into(t0, t1, &mut out);
        out
    }

    /// [`query`](Self::query) appending into a caller-owned buffer, so hot
    /// paths (the render candidate scan, serve tile misses) can reuse one
    /// allocation across calls. Appended entries are sorted ascending;
    /// anything already in `out` is left untouched.
    pub fn query_into(&self, t0: f64, t1: f64, out: &mut Vec<usize>) {
        let n0 = out.len();
        self.tasks.query_into(t0, t1, out);
        out[n0..].sort_unstable();
    }

    /// Task indices intersecting `[t0, t1]` on `host`, sorted ascending.
    /// Empty if the index was built without host rows.
    pub fn query_host(&self, host: u32, t0: f64, t1: f64) -> Vec<usize> {
        let mut out = Vec::new();
        if let Some(seq) = self.host(host) {
            seq.query_into(t0, t1, &mut out);
            out.sort_unstable();
        }
        out
    }
}

/// Interval index over a whole schedule, one [`ClusterIndex`] per cluster
/// in declaration order.
#[derive(Debug, Clone)]
pub struct ScheduleIndex {
    clusters: Vec<ClusterIndex>,
    with_hosts: bool,
}

impl ScheduleIndex {
    /// Assembles a schedule index from prebuilt cluster indexes (the pack
    /// loader).
    pub(crate) fn from_parts(clusters: Vec<ClusterIndex>, with_hosts: bool) -> Self {
        ScheduleIndex {
            clusters,
            with_hosts,
        }
    }

    /// Builds cluster-level *and* per-host-row sequences — one entry per
    /// (task, occupied host) pair. [`crate::PreparedSchedule::index`]
    /// caches the result for window culling, statistics, hit-testing and
    /// the composite sweep.
    pub fn build_with_hosts(schedule: &Schedule) -> Self {
        let mut per_cluster: Vec<Vec<IndexEntry>> = schedule
            .clusters
            .iter()
            .map(|_| Vec::with_capacity(schedule.tasks.len() / schedule.clusters.len().max(1)))
            .collect();
        let mut per_host: Vec<Vec<Vec<IndexEntry>>> = schedule
            .clusters
            .iter()
            .map(|c| vec![Vec::new(); c.hosts as usize])
            .collect();
        // Position of each cluster id in declaration order.
        let slot = |id: u32| schedule.clusters.iter().position(|c| c.id == id);
        for (ti, task) in schedule.tasks.iter().enumerate() {
            let entry = IndexEntry {
                start: task.start,
                end: task.end,
                task: ti as u32,
            };
            for alloc in &task.allocations {
                let Some(ci) = slot(alloc.cluster) else {
                    continue; // dangling allocation: validation's problem
                };
                // A task with several allocations on one cluster is still
                // one entry; pushes for a task are consecutive, so checking
                // the tail suffices.
                let bucket = &mut per_cluster[ci];
                if bucket.last().map(|e| e.task) != Some(entry.task) {
                    bucket.push(entry);
                }
                let rows = &mut per_host[ci];
                for h in alloc.hosts.iter() {
                    if let Some(row) = rows.get_mut(h as usize) {
                        if row.last().map(|e| e.task) != Some(entry.task) {
                            row.push(entry);
                        }
                    }
                }
            }
        }
        let clusters = schedule
            .clusters
            .iter()
            .zip(per_cluster)
            .zip(per_host)
            .map(
                |((c, entries), rows): ((&Cluster, _), Vec<_>)| ClusterIndex {
                    cluster: c.id,
                    hosts: c.hosts,
                    tasks: IntervalSeq::from_entries(entries),
                    per_host: Some(rows.into_iter().map(IntervalSeq::from_entries).collect()),
                },
            )
            .collect();
        ScheduleIndex {
            clusters,
            with_hosts: true,
        }
    }

    /// Whether per-host rows were built.
    pub fn has_hosts(&self) -> bool {
        self.with_hosts
    }

    /// The per-cluster indexes, in the schedule's cluster order.
    pub fn clusters(&self) -> &[ClusterIndex] {
        &self.clusters
    }

    /// Looks up the index of cluster `id`.
    pub fn cluster(&self, id: u32) -> Option<&ClusterIndex> {
        self.clusters.iter().find(|c| c.cluster == id)
    }

    /// Number of hosts of cluster `id` as recorded at build time.
    pub fn cluster_hosts(&self, id: u32) -> Option<u32> {
        self.cluster(id).map(|c| c.hosts)
    }
}

/// Reference semantics for index queries: the brute-force scan the index
/// must agree with (closed-interval intersection). Public so property tests
/// and benches can compare against it.
pub fn brute_force_query(schedule: &Schedule, cluster: u32, t0: f64, t1: f64) -> Vec<usize> {
    if t1 < t0 {
        return Vec::new();
    }
    schedule
        .tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            t.start <= t1 && t.end >= t0 && t.allocations.iter().any(|a| a.cluster == cluster)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Brute-force per-host reference: tasks occupying `host` on `cluster`
/// intersecting `[t0, t1]`, ascending.
pub fn brute_force_query_host(
    schedule: &Schedule,
    cluster: u32,
    host: u32,
    t0: f64,
    t1: f64,
) -> Vec<usize> {
    if t1 < t0 {
        return Vec::new();
    }
    schedule
        .tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.start <= t1 && t.end >= t0 && t.occupies(cluster, host))
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostset::HostSet;
    use crate::model::{Allocation, Cluster, Task};

    fn sample() -> Schedule {
        Schedule {
            clusters: vec![Cluster::new(0, "c0", 4), Cluster::new(7, "c1", 2)],
            tasks: vec![
                Task::new("a", "t", 0.0, 2.0).on(Allocation::contiguous(0, 0, 2)),
                Task::new("b", "t", 1.0, 3.0).on(Allocation::contiguous(0, 2, 2)),
                Task::new("c", "t", 4.0, 5.0).on(Allocation::contiguous(0, 1, 1)),
                Task::new("d", "u", 0.5, 4.5)
                    .on(Allocation::contiguous(0, 3, 1))
                    .on(Allocation::contiguous(7, 0, 2)),
                Task::new("e", "t", 2.5, 2.5).on(Allocation::contiguous(7, 1, 1)),
            ],
            meta: Default::default(),
        }
    }

    #[test]
    fn cluster_query_matches_brute_force() {
        let s = sample();
        let idx = ScheduleIndex::build_with_hosts(&s);
        for cid in [0u32, 7] {
            for (t0, t1) in [
                (0.0, 5.0),
                (-1.0, -0.5),
                (2.0, 2.0),
                (2.5, 2.5),
                (4.9, 10.0),
                (1.5, 1.6),
                (3.0, 4.0),
            ] {
                assert_eq!(
                    idx.cluster(cid).unwrap().query(t0, t1),
                    brute_force_query(&s, cid, t0, t1),
                    "cluster {cid} window [{t0}, {t1}]"
                );
            }
        }
    }

    #[test]
    fn host_query_matches_brute_force() {
        let s = sample();
        let idx = ScheduleIndex::build_with_hosts(&s);
        for (cid, hosts) in [(0u32, 4u32), (7, 2)] {
            let ci = idx.cluster(cid).unwrap();
            for h in 0..hosts {
                for (t0, t1) in [(0.0, 5.0), (2.0, 3.0), (4.5, 4.5), (5.5, 9.0)] {
                    assert_eq!(
                        ci.query_host(h, t0, t1),
                        brute_force_query_host(&s, cid, h, t0, t1),
                        "cluster {cid} host {h} window [{t0}, {t1}]"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_window_matches_nothing() {
        let s = sample();
        let idx = ScheduleIndex::build_with_hosts(&s);
        assert!(idx.cluster(0).unwrap().query(3.0, 2.0).is_empty());
        assert!(brute_force_query(&s, 0, 3.0, 2.0).is_empty());
    }

    #[test]
    fn zero_width_task_on_window_edge_is_reported() {
        let s = sample();
        let idx = ScheduleIndex::build_with_hosts(&s);
        // Task "e" is a point at t=2.5 on cluster 7 host 1.
        assert_eq!(idx.cluster(7).unwrap().query(2.5, 3.0), vec![3, 4]);
        // Host 1 holds both d (0.5–4.5, hosts 0–1) and the point task e.
        assert_eq!(idx.cluster(7).unwrap().query_host(1, 0.0, 2.5), vec![3, 4]);
        // A window ending exactly at the point still reports it.
        assert_eq!(idx.cluster(7).unwrap().query_host(1, 2.5, 2.5), vec![3, 4]);
    }

    #[test]
    fn multiple_allocations_deduplicated() {
        let s = Schedule {
            clusters: vec![Cluster::new(0, "c0", 4)],
            tasks: vec![Task::new("a", "t", 0.0, 1.0)
                .on(Allocation::contiguous(0, 0, 2))
                .on(Allocation::new(0, HostSet::from_hosts([1, 3])))],
            meta: Default::default(),
        };
        let idx = ScheduleIndex::build_with_hosts(&s);
        let ci = idx.cluster(0).unwrap();
        assert_eq!(ci.tasks().len(), 1);
        // Host 1 appears in both allocations but is indexed once.
        assert_eq!(ci.host(1).unwrap().len(), 1);
        assert_eq!(ci.query_host(1, 0.0, 1.0), vec![0]);
    }

    #[test]
    fn shallow_build_has_no_host_rows() {
        // The shape a pack's cluster rows gather into for window culling.
        let full = ScheduleIndex::build_with_hosts(&sample());
        let clusters = full
            .clusters()
            .iter()
            .map(|ci| ClusterIndex::from_parts(ci.cluster, ci.hosts, ci.tasks().clone(), None))
            .collect();
        let idx = ScheduleIndex::from_parts(clusters, false);
        assert!(!idx.has_hosts());
        assert_eq!(
            idx.cluster(0).unwrap().query(0.0, 9.0),
            full.cluster(0).unwrap().query(0.0, 9.0)
        );
        assert!(idx.cluster(0).unwrap().host(0).is_none());
        assert!(idx.cluster(0).unwrap().query_host(0, 0.0, 9.0).is_empty());
    }

    #[test]
    fn long_task_found_despite_later_starts_before_window() {
        // The prefix-max structure must find a long-running early task even
        // when many later-starting tasks end before the window.
        let mut tasks =
            vec![Task::new("long", "t", 0.0, 100.0).on(Allocation::contiguous(0, 0, 1))];
        for i in 0..50 {
            let t = 1.0 + i as f64;
            tasks.push(
                Task::new(format!("s{i}"), "t", t, t + 0.5).on(Allocation::contiguous(0, 0, 1)),
            );
        }
        let s = Schedule {
            clusters: vec![Cluster::new(0, "c0", 1)],
            tasks,
            meta: Default::default(),
        };
        let idx = ScheduleIndex::build_with_hosts(&s);
        assert_eq!(idx.cluster(0).unwrap().query(99.0, 99.5), vec![0]);
        assert_eq!(
            idx.cluster(0).unwrap().query(99.0, 99.5),
            brute_force_query(&s, 0, 99.0, 99.5)
        );
    }

    #[test]
    fn entries_sorted_by_start_with_prefix() {
        let idx = ScheduleIndex::build_with_hosts(&sample());
        let seq = idx.cluster(0).unwrap().tasks();
        for w in seq.entries().windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        assert_eq!(seq.len(), 4);
        assert!(!seq.is_empty());
    }
}
