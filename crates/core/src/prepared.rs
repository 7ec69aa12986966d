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
//!   statistics, hit-testing and the composite sweep),
//! * global and per-cluster time extents for both [`AlignMode`]s,
//! * the columnar [`TaskColumns`] view, which also carries the distinct
//!   task kinds in first-appearance order plus a per-task kind slot
//!   (legend + classify/colormap memo), and
//! * the composite-task sweep.
//!
//! It is the only input of everything derived from a schedule: the
//! renderer, [`crate::stats`], [`crate::ViewState`] hit-testing and the
//! composite sweep all read its caches. A bundle wraps an
//! owned schedule ([`PreparedSchedule::new`]), a borrowed one
//! ([`PreparedSchedule::borrowed`], the one-shot form behind
//! `render(&Schedule)`, no clone) or a loaded `.jpack` snapshot
//! ([`PreparedSchedule::from_pack`]: columns, extents and composites
//! pre-seeded, the index gathered from the pack on first query).
//!
//! All caches are [`OnceLock`]s: a `PreparedSchedule` is `Send + Sync`,
//! costs nothing beyond the schedule itself until a consumer asks for a
//! piece, and hands out the same borrow on every later ask. The wrapped
//! schedule is immutable (no `&mut` accessor), so the caches can never
//! go stale.

use crate::align::{AlignMode, TimeExtent};
use crate::columns::TaskColumns;
use crate::composite;
use crate::index::ScheduleIndex;
use crate::model::{Cluster, MetaInfo, Schedule, Task};
use crate::obs;
use crate::snap::{PackIndex, PackNames, PackedSchedule};
use std::borrow::Cow;
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
/// and materializes `schedule` only on demand.
#[derive(Debug)]
enum Source<'a> {
    Owned(Schedule),
    Borrowed(&'a Schedule),
    Packed(Box<PackSource>),
}

/// A loaded pack's cheap structure (clusters, meta, lazily read names,
/// the stored index rows) and what is built from it on demand.
#[derive(Debug)]
struct PackSource {
    clusters: Vec<Cluster>,
    meta: MetaInfo,
    names: PackNames,
    index: PackIndex,
    /// The cluster rows alone, gathered for window culling.
    cull: OnceLock<ScheduleIndex>,
    schedule: OnceLock<Schedule>,
}

impl PackSource {
    /// Gathers the stored index rows ([`PackIndex::gather`]) under the
    /// span that names the cost.
    fn gather(&self, columns: &TaskColumns, with_hosts: bool) -> ScheduleIndex {
        let _s = obs::span("pack.index_gather");
        obs::count("prepared.cache_build", 1);
        self.index.gather(&self.clusters, columns, with_hosts)
    }
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

    /// Wraps a loaded `.jpack` snapshot. The extents, columns and
    /// composites are pre-seeded from the pack — the inverse of the text
    /// path, where the schedule is eager and the caches lazy. The
    /// interval index is gathered from the pack's validated rows on
    /// first query: the cluster rows for window culling
    /// ([`Self::cull_index`]), every row for [`Self::index`]. The full
    /// `Schedule` (task structs with owned strings) stays lazy; neither
    /// rendering nor gathering asks for it.
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
        let prep = PreparedSchedule::with_source(Source::Packed(Box::new(PackSource {
            clusters,
            meta,
            names,
            index,
            cull: OnceLock::new(),
            schedule: OnceLock::new(),
        })));
        let _ = prep.global.set(global);
        let _ = prep.per_cluster.set(per_cluster);
        let _ = prep.columns.set(columns);
        let _ = prep.composites.set(composites);
        prep
    }

    /// Whether this schedule came from a `.jpack` snapshot.
    pub fn is_packed(&self) -> bool {
        matches!(self.source, Source::Packed(_))
    }

    /// Whether the full `Schedule` exists. Owned and borrowed sources
    /// always have it; a packed source stays unmaterialized until
    /// something calls [`Self::schedule`] — tests use this to prove the
    /// render path never does.
    pub fn is_materialized(&self) -> bool {
        match &self.source {
            Source::Packed(p) => p.schedule.get().is_some(),
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
            Source::Packed(p) => p.schedule.get_or_init(|| {
                let _s = obs::span("prepare.materialize");
                Schedule {
                    clusters: p.clusters.clone(),
                    tasks: p
                        .names
                        .build_tasks(self.columns.get().expect("packed columns preset")),
                    meta: p.meta.clone(),
                }
            }),
        }
    }

    /// The clusters, without materializing a packed schedule.
    pub fn clusters(&self) -> &[Cluster] {
        match &self.source {
            Source::Packed(p) => &p.clusters,
            _ => &self.schedule().clusters,
        }
    }

    /// The meta info, without materializing a packed schedule.
    pub fn meta(&self) -> &MetaInfo {
        match &self.source {
            Source::Packed(p) => &p.meta,
            _ => &self.schedule().meta,
        }
    }

    /// Task `ti`'s id string, without materializing a packed schedule
    /// (label paths read it straight from the pack's string blob).
    pub fn task_id(&self, ti: usize) -> &str {
        match &self.source {
            Source::Packed(p) => p.names.task_id(ti),
            _ => &self.schedule().tasks[ti].id,
        }
    }

    /// Task `ti`. A packed source that is not materialized builds just
    /// this task from the pack; every other source lends it.
    pub fn task(&self, ti: usize) -> Cow<'_, Task> {
        match &self.source {
            Source::Packed(p) if p.schedule.get().is_none() => {
                Cow::Owned(p.names.build_task(self.columns(), ti))
            }
            _ => Cow::Borrowed(&self.schedule().tasks[ti]),
        }
    }

    /// Number of tasks, without materializing a packed schedule.
    pub fn task_count(&self) -> usize {
        match &self.source {
            Source::Packed(_) => self.columns.get().expect("packed columns preset").len(),
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
            Source::Packed(p) => p.schedule.into_inner().expect("just materialized"),
        }
    }

    /// The interval index with per-host rows, built on first use (a
    /// superset of the cluster-only index, so one cache serves window
    /// culling, the composite sweep, statistics and hit-testing alike).
    /// A pack gathers it from its stored rows without materializing the
    /// `Schedule`.
    pub fn index(&self) -> &ScheduleIndex {
        if let Some(built) = self.index.get() {
            obs::count("prepared.cache_hit", 1);
            return built;
        }
        self.index.get_or_init(|| {
            if let Source::Packed(p) = &self.source {
                return p.gather(self.columns(), true);
            }
            let schedule = self.schedule();
            let _s = obs::span("prepare.index");
            obs::count("prepared.cache_build", 1);
            ScheduleIndex::build_with_hosts(schedule)
        })
    }

    /// The index window culling queries: the full index once built (by
    /// [`Self::index`] or [`Self::warm`]), else a pack's cluster rows
    /// alone, gathered on first call and reused by every later view. A
    /// one-shot text bundle gets `None`: building its index from the
    /// tasks would cost more than the column scan it saves.
    pub fn cull_index(&self) -> Option<&ScheduleIndex> {
        if let Some(built) = self.index.get() {
            return Some(built);
        }
        match &self.source {
            Source::Packed(p) => Some(p.cull.get_or_init(|| p.gather(self.columns(), false))),
            _ => None,
        }
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
    /// folded over the contiguous start/end columns.
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

    /// Each cluster's local extent in declaration order: min start / max
    /// end over the tasks with an allocation on it. Only scaled axes and
    /// statistics read it, so aligned renders never pay its pass.
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

    /// The extent to draw `cluster` with under `mode`: its local extent
    /// when [`AlignMode::Scaled`] (`None` if it runs no task), the global
    /// one when [`AlignMode::Aligned`] — so a task-less cluster is still
    /// drawn as an empty lane across the global span.
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

    /// Composite tasks of overlap regions — what the layout engine draws.
    /// Computed on first use (building the index if needed), sweeping
    /// the host rows on `threads` workers (`0` = available parallelism),
    /// and cached; the result is the same for every worker count.
    pub fn composites(&self, threads: usize) -> &[Task] {
        if let Some(built) = self.composites.get() {
            obs::count("prepared.cache_hit", 1);
            return built.as_slice();
        }
        self.composites
            .get_or_init(|| {
                // Resolve the index and column dependencies *before*
                // opening the span so their build time is attributed to
                // prepare.index / prepare.columns, not here.
                self.index();
                self.columns();
                let _s = obs::span("prepare.composites");
                obs::count("prepared.cache_build", 1);
                composite::sweep(self, threads)
            })
            .as_slice()
    }
}

impl From<Schedule> for PreparedSchedule<'_> {
    fn from(schedule: Schedule) -> Self {
        PreparedSchedule::new(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::scan::{extent_for, global_extent};
    use crate::builder::ScheduleBuilder;
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
        let cold = PreparedSchedule::borrowed(&s).composites(2).to_vec();
        assert!(!cold.is_empty());
        assert_eq!(p.composites(1), cold.as_slice());
        // Cached: same borrow twice, whatever the second call asks for.
        assert_eq!(p.composites(1).as_ptr(), p.composites(2).as_ptr());
    }

    #[test]
    fn schedule_and_unwrap() {
        let s = sched();
        let p = PreparedSchedule::from(s.clone());
        assert_eq!(p.task(1).id, "b");
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
        p.composites(1); // hits index again, builds columns + composites
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
