//! A schedule prepared for rendering.
//!
//! Interactive trace browsing (zoom, pan, repeated `--window` renders)
//! asks for many views of one schedule, and every view needs the same
//! per-schedule fixed work: an extent scan, an interval index, the
//! legend's kind list and a columnar copy of the task spans. At a
//! million tasks that fixed work dominates a windowed render — the
//! tasks actually drawn are a tiny fraction of the trace.
//!
//! [`PreparedSchedule`] bundles a schedule with lazily built, cached
//! derived data so the fixed work is paid **once** and every subsequent
//! view is bounded by what it draws:
//!
//! * the per-cluster/per-host [`ScheduleIndex`] (window culling,
//!   composite sweep, hit-testing),
//! * global and per-cluster time extents for both [`AlignMode`]s,
//! * the columnar [`TaskColumns`] view, which also carries the distinct
//!   task kinds in first-appearance order plus a per-task kind slot
//!   (legend + classify/colormap memo), and
//! * the default composite-task sweep.
//!
//! It is also the only thing the renderer draws from. A bundle wraps an
//! owned schedule ([`PreparedSchedule::new`]), a borrowed one
//! ([`PreparedSchedule::borrowed`], the one-shot form behind
//! `render(&Schedule)`, no clone) or a loaded `.jpack` snapshot
//! ([`PreparedSchedule::from_pack`], caches pre-seeded).
//!
//! All caches are [`OnceLock`]s: a `PreparedSchedule` is `Send + Sync`,
//! costs nothing beyond the schedule itself until a consumer asks for a
//! piece, and hands out the same borrow on every later ask. The wrapped
//! schedule is immutable (no `&mut` accessor), so the caches can never
//! go stale.

use crate::align::{AlignMode, TimeExtent};
use crate::columns::TaskColumns;
use crate::composite::{composite_tasks_columnar, CompositeOptions};
use crate::index::ScheduleIndex;
use crate::model::{Cluster, MetaInfo, Schedule, Task};
use crate::obs;
use crate::snap::{PackNames, PackedSchedule};
use std::sync::OnceLock;

/// A [`Schedule`] plus memoized derived data for serving many renders.
///
/// ```
/// use jedule_core::{PreparedSchedule, ScheduleBuilder};
/// let s = ScheduleBuilder::new().cluster(0, "c", 4).build().unwrap();
/// let prep = PreparedSchedule::new(s);
/// let _idx = prep.index(); // built now, reused by every later call
/// assert!(prep.kinds().is_empty());
/// ```
#[derive(Debug)]
pub struct PreparedSchedule<'a> {
    source: Source<'a>,
    index: OnceLock<ScheduleIndex>,
    global: OnceLock<Option<TimeExtent>>,
    /// Each cluster's local extent, in cluster declaration order.
    per_cluster: OnceLock<Vec<Option<TimeExtent>>>,
    columns: OnceLock<TaskColumns>,
    composites: OnceLock<Vec<Task>>,
}

/// Where the tasks come from. Owned and borrowed sources hold the full
/// `Schedule` from the start; a packed source keeps the cheap structure
/// (clusters, meta, lazily read names) and materializes `schedule` only
/// on demand.
#[derive(Debug)]
enum Source<'a> {
    Owned(Schedule),
    Borrowed(&'a Schedule),
    Packed {
        clusters: Vec<Cluster>,
        meta: MetaInfo,
        names: PackNames,
        schedule: OnceLock<Schedule>,
    },
}

impl<'a> PreparedSchedule<'a> {
    /// Wraps a schedule. No derived data is built yet — each cache fills
    /// on first use.
    pub fn new(schedule: Schedule) -> Self {
        PreparedSchedule::with_source(Source::Owned(schedule))
    }

    /// Wraps a borrowed schedule without cloning it. Caches fill lazily
    /// exactly as for [`Self::new`], so a one-shot render of a bare
    /// schedule pays only for the pieces it reads.
    pub fn borrowed(schedule: &'a Schedule) -> Self {
        PreparedSchedule::with_source(Source::Borrowed(schedule))
    }

    fn with_source(source: Source<'a>) -> Self {
        PreparedSchedule {
            source,
            index: OnceLock::new(),
            global: OnceLock::new(),
            per_cluster: OnceLock::new(),
            columns: OnceLock::new(),
            composites: OnceLock::new(),
        }
    }

    /// Wraps a loaded `.jpack` snapshot. Every cache a windowed render
    /// touches (index, extents, columns, composites) is pre-seeded from
    /// the pack — the inverse of the text path, where the schedule is
    /// eager and the caches lazy. Here only the full `Schedule` (task
    /// structs with owned strings) stays lazy; rendering never asks for
    /// it.
    pub fn from_pack(packed: PackedSchedule) -> Self {
        let PackedSchedule {
            clusters,
            meta,
            columns,
            index,
            global,
            per_cluster,
            composites,
            names,
            ..
        } = packed;
        let prep = PreparedSchedule::with_source(Source::Packed {
            clusters,
            meta,
            names,
            schedule: OnceLock::new(),
        });
        let _ = prep.index.set(index);
        let _ = prep.global.set(global);
        let _ = prep.per_cluster.set(per_cluster);
        let _ = prep.columns.set(columns);
        let _ = prep.composites.set(composites);
        prep
    }

    /// Whether this schedule came from a `.jpack` snapshot.
    pub fn is_packed(&self) -> bool {
        matches!(self.source, Source::Packed { .. })
    }

    /// Whether the full `Schedule` exists. Owned and borrowed sources
    /// always have it; a packed source stays unmaterialized until
    /// something calls [`Self::schedule`] — tests use this to prove the
    /// render path never does.
    pub fn is_materialized(&self) -> bool {
        match &self.source {
            Source::Packed { schedule, .. } => schedule.get().is_some(),
            _ => true,
        }
    }

    /// The wrapped schedule. For packed sources this materializes the
    /// full task list (owned strings, allocations, attrs) on first call;
    /// paths that only render never pay it.
    pub fn schedule(&self) -> &Schedule {
        match &self.source {
            Source::Owned(s) => s,
            Source::Borrowed(s) => s,
            Source::Packed {
                clusters,
                meta,
                names,
                schedule,
            } => schedule.get_or_init(|| {
                let _s = obs::span("prepare.materialize");
                Schedule {
                    clusters: clusters.clone(),
                    tasks: names.build_tasks(self.columns.get().expect("packed columns preset")),
                    meta: meta.clone(),
                }
            }),
        }
    }

    /// The clusters, without materializing a packed schedule.
    pub fn clusters(&self) -> &[Cluster] {
        match &self.source {
            Source::Packed { clusters, .. } => clusters,
            _ => &self.schedule().clusters,
        }
    }

    /// The meta info, without materializing a packed schedule.
    pub fn meta(&self) -> &MetaInfo {
        match &self.source {
            Source::Packed { meta, .. } => meta,
            _ => &self.schedule().meta,
        }
    }

    /// Task `ti`'s id string, without materializing a packed schedule
    /// (label paths read it straight from the pack's string blob).
    pub fn task_id(&self, ti: usize) -> &str {
        match &self.source {
            Source::Packed { names, .. } => names.task_id(ti),
            _ => &self.schedule().tasks[ti].id,
        }
    }

    /// Number of tasks, without materializing a packed schedule.
    pub fn task_count(&self) -> usize {
        match &self.source {
            Source::Packed { .. } => self.columns.get().expect("packed columns preset").len(),
            _ => self.schedule().tasks.len(),
        }
    }

    /// Unwraps the schedule (materializing a packed source, cloning a
    /// borrowed one), dropping the caches.
    pub fn into_schedule(self) -> Schedule {
        self.schedule();
        match self.source {
            Source::Owned(s) => s,
            Source::Borrowed(s) => s.clone(),
            Source::Packed { schedule, .. } => schedule.into_inner().expect("just materialized"),
        }
    }

    /// The interval index, built with per-host rows on first use (a
    /// superset of the cluster-only index, so one cache serves window
    /// culling, the composite sweep, statistics and hit-testing alike).
    pub fn index(&self) -> &ScheduleIndex {
        if let Some(built) = self.index.get() {
            obs::count("prepared.cache_hit", 1);
            return built;
        }
        self.index.get_or_init(|| {
            let schedule = self.schedule();
            let _s = obs::span("prepare.index");
            obs::count("prepared.cache_build", 1);
            ScheduleIndex::build_with_hosts(schedule)
        })
    }

    /// The interval index if it already exists — preset by a pack, built
    /// by [`Self::warm`] or by an earlier caller — without building it.
    /// Window culling asks this way: for a one-shot render, building the
    /// host-row index costs more than the column scan it would save.
    pub fn index_if_built(&self) -> Option<&ScheduleIndex> {
        self.index.get()
    }

    /// Eagerly builds every cache a windowed render touches (index,
    /// extents, columns). Useful to move the one-time cost out of the
    /// first frame — e.g. before entering an interactive loop.
    pub fn warm(&self) -> &Self {
        self.index();
        self.global_extent();
        self.per_cluster_extents();
        self.columns();
        self
    }

    /// The global `[min start, max end]` extent (`None` when empty),
    /// equal to [`crate::align::global_extent`] — folded over the
    /// contiguous start/end columns with the same min/max accumulation.
    pub fn global_extent(&self) -> Option<TimeExtent> {
        if let Some(built) = self.global.get() {
            obs::count("prepared.cache_hit", 1);
            return *built;
        }
        *self.global.get_or_init(|| {
            let cols = self.columns();
            let _s = obs::span("prepare.extents");
            obs::count("prepared.cache_build", 1);
            let mut global: Option<TimeExtent> = None;
            for (&start, &end) in cols.starts().iter().zip(cols.ends()) {
                let g = global.get_or_insert(TimeExtent::new(start, end));
                g.start = g.start.min(start);
                g.end = g.end.max(end);
            }
            global
        })
    }

    /// Each cluster's local extent in declaration order, as
    /// [`crate::align::cluster_extent`] computes it. Only scaled axes
    /// read it, so aligned renders never pay its pass.
    fn per_cluster_extents(&self) -> &[Option<TimeExtent>] {
        if let Some(built) = self.per_cluster.get() {
            obs::count("prepared.cache_hit", 1);
            return built;
        }
        self.per_cluster.get_or_init(|| {
            let schedule = self.schedule();
            let _s = obs::span("prepare.extents");
            obs::count("prepared.cache_build", 1);
            // This walks the allocations, not the column segments: an
            // allocation with an empty host set has no segment but still
            // counts toward its cluster's extent.
            let slot = |id: u32| schedule.clusters.iter().position(|c| c.id == id);
            let mut per_cluster: Vec<Option<TimeExtent>> = vec![None; schedule.clusters.len()];
            for t in &schedule.tasks {
                for a in &t.allocations {
                    let Some(ci) = slot(a.cluster) else { continue };
                    let e = per_cluster[ci].get_or_insert(TimeExtent::new(t.start, t.end));
                    e.start = e.start.min(t.start);
                    e.end = e.end.max(t.end);
                }
            }
            per_cluster
        })
    }

    /// The extent to draw `cluster` with under `mode`, equal to
    /// [`crate::align::extent_for`] — cached instead of rescanned.
    pub fn extent_for(&self, cluster: u32, mode: AlignMode) -> Option<TimeExtent> {
        match mode {
            AlignMode::Aligned => self.global_extent(),
            AlignMode::Scaled => {
                let pos = self.clusters().iter().position(|c| c.id == cluster)?;
                self.per_cluster_extents()[pos]
            }
        }
    }

    /// The columnar task view ([`TaskColumns`]): per-task start/end/kind
    /// columns plus the CSR host-lane segments, built once and scanned
    /// linearly by the render hot path and the composite sweep.
    pub fn columns(&self) -> &TaskColumns {
        if let Some(built) = self.columns.get() {
            obs::count("prepared.cache_hit", 1);
            return built;
        }
        self.columns.get_or_init(|| {
            let schedule = self.schedule();
            let _s = obs::span("prepare.columns");
            obs::count("prepared.cache_build", 1);
            TaskColumns::build(schedule)
        })
    }

    /// The distinct task kinds in order of first appearance — exactly
    /// the list a legend scan over all tasks collects. Served from the
    /// columnar cache, whose `kind_ids` give each task's slot in it.
    pub fn kinds(&self) -> &[String] {
        self.columns().kind_names()
    }

    /// Composite tasks of overlap regions under default
    /// [`CompositeOptions`] — what the layout engine draws. Computed on
    /// first use (building the index if needed) and cached.
    pub fn composites(&self) -> &[Task] {
        if let Some(built) = self.composites.get() {
            obs::count("prepared.cache_hit", 1);
            return built.as_slice();
        }
        self.composites
            .get_or_init(|| {
                // Resolve the schedule, index and column dependencies
                // *before* opening the span so their build time is
                // attributed to prepare.index / prepare.columns, not here.
                let schedule = self.schedule();
                let index = self.index();
                let columns = self.columns();
                let _s = obs::span("prepare.composites");
                obs::count("prepared.cache_build", 1);
                composite_tasks_columnar(schedule, index, columns, &CompositeOptions::default())
            })
            .as_slice()
    }
}

impl From<Schedule> for PreparedSchedule<'_> {
    fn from(schedule: Schedule) -> Self {
        PreparedSchedule::new(schedule)
    }
}

impl std::ops::Deref for PreparedSchedule<'_> {
    type Target = Schedule;

    fn deref(&self) -> &Schedule {
        self.schedule()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::{extent_for, global_extent};
    use crate::builder::ScheduleBuilder;
    use crate::composite::composite_tasks;
    use crate::model::{Allocation, Task};

    fn sched() -> Schedule {
        ScheduleBuilder::new()
            .cluster(0, "c0", 8)
            .cluster(3, "c1", 4)
            .task(Task::new("a", "computation", 1.0, 4.0).on(Allocation::contiguous(0, 0, 4)))
            .task(Task::new("b", "transfer", 3.0, 6.0).on(Allocation::contiguous(0, 2, 2)))
            .task(Task::new("c", "computation", 0.5, 5.0).on(Allocation::contiguous(3, 0, 4)))
            .build()
            .unwrap()
    }

    #[test]
    fn extents_match_align_module() {
        let s = sched();
        let p = PreparedSchedule::new(s.clone());
        assert_eq!(p.global_extent(), global_extent(&s));
        for cid in [0u32, 3, 99] {
            for mode in [AlignMode::Scaled, AlignMode::Aligned] {
                assert_eq!(
                    p.extent_for(cid, mode),
                    extent_for(&s, cid, mode),
                    "cluster {cid} mode {mode:?}"
                );
            }
        }
    }

    #[test]
    fn empty_host_allocation_counts_toward_its_cluster_extent() {
        // An empty host set is a validation warning, not an error: the
        // task has no column segment on cluster 3 but still stretches
        // that cluster's scaled extent.
        let mut s = sched();
        s.tasks.push(
            Task::new("e", "computation", 0.25, 9.0)
                .on(Allocation::new(3, crate::hostset::HostSet::from_hosts([]))),
        );
        let p = PreparedSchedule::borrowed(&s);
        assert_eq!(p.global_extent(), global_extent(&s));
        for cid in [0u32, 3] {
            assert_eq!(
                p.extent_for(cid, AlignMode::Scaled),
                extent_for(&s, cid, AlignMode::Scaled),
                "cluster {cid}"
            );
        }
        assert_eq!(
            p.extent_for(3, AlignMode::Scaled),
            Some(TimeExtent::new(0.25, 9.0))
        );
    }

    #[test]
    fn empty_schedule_extents() {
        let s = ScheduleBuilder::new().cluster(0, "c", 2).build().unwrap();
        let p = PreparedSchedule::new(s.clone());
        assert_eq!(p.global_extent(), None);
        assert_eq!(p.extent_for(0, AlignMode::Scaled), None);
        // Aligned mode hands task-less clusters the global extent — which
        // is None here, matching align::extent_for.
        assert_eq!(
            p.extent_for(0, AlignMode::Aligned),
            extent_for(&s, 0, AlignMode::Aligned)
        );
    }

    #[test]
    fn kinds_in_first_appearance_order_with_slots() {
        let s = sched();
        let p = PreparedSchedule::new(s.clone());
        assert_eq!(
            p.kinds(),
            ["computation".to_string(), "transfer".to_string()]
        );
        let ids = p.columns().kind_ids();
        assert_eq!(ids, [0, 1, 0]);
        for (ti, t) in s.tasks.iter().enumerate() {
            assert_eq!(p.kinds()[ids[ti] as usize], t.kind);
        }
    }

    #[test]
    fn index_is_built_once_and_has_hosts() {
        let p = PreparedSchedule::new(sched());
        let a = p.index() as *const _;
        let b = p.index() as *const _;
        assert_eq!(a, b);
        assert!(p.index().has_hosts());
        assert_eq!(p.index().cluster(0).unwrap().query(0.0, 10.0), vec![0, 1]);
    }

    #[test]
    fn composites_match_uncached_sweep() {
        let s = sched();
        let p = PreparedSchedule::new(s.clone());
        let cold = composite_tasks(&s, &CompositeOptions::default());
        assert_eq!(p.composites(), cold.as_slice());
        // Cached: same borrow twice.
        assert_eq!(p.composites().as_ptr(), p.composites().as_ptr());
    }

    #[test]
    fn deref_and_unwrap() {
        let s = sched();
        let p = PreparedSchedule::from(s.clone());
        assert_eq!(p.tasks.len(), 3); // Deref
        assert_eq!(p.schedule(), &s);
        p.warm();
        assert_eq!(p.into_schedule(), s);
    }

    #[test]
    fn cache_counters_distinguish_build_from_hit() {
        let col = obs::Collector::new();
        let _g = col.install();
        let p = PreparedSchedule::new(sched());
        p.index();
        p.index();
        p.composites(); // hits index again, builds columns + composites
        let rep = col.report();
        assert_eq!(rep.counter("prepared.cache_build"), 3);
        assert!(rep.counter("prepared.cache_hit") >= 2);
        assert!(rep.spans.iter().any(|s| s.name == "prepare.index"));
        assert!(rep.spans.iter().any(|s| s.name == "prepare.columns"));
        assert!(rep.spans.iter().any(|s| s.name == "prepare.composites"));
    }

    #[test]
    fn prepared_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<PreparedSchedule<'static>>();
    }
}
