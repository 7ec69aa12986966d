//! Interactive-mode semantics as a pure model (paper, §II-D1).
//!
//! The original Jedule opens a Swing window; everything the window *does* —
//! zooming with the mouse wheel, panning by dragging, zooming into a
//! selected rectangle, selecting a cluster, clicking a task to retrieve its
//! start/finish time and resource list — is viewport and hit-testing math.
//! [`ViewState`] implements that math so any front-end (the bundled
//! terminal UI, or a GUI toolkit) can drive it; this also makes the
//! interactive behaviour unit-testable.

use crate::align::{AlignMode, TimeExtent};
use crate::prepared::PreparedSchedule;

/// The visible window over a schedule: a time range × a global row range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewport {
    pub t0: f64,
    pub t1: f64,
    /// First visible global row (fractional to allow smooth panning).
    pub r0: f64,
    /// One past the last visible global row.
    pub r1: f64,
}

impl Viewport {
    pub fn time_span(&self) -> f64 {
        self.t1 - self.t0
    }

    pub fn row_span(&self) -> f64 {
        self.r1 - self.r0
    }
}

/// What a hit test found.
#[derive(Debug, Clone, PartialEq)]
pub enum HitTarget {
    /// A task (index into the schedule's tasks).
    Task(usize),
    /// An idle spot on `(cluster, host)`.
    Idle { cluster: u32, host: u32 },
    /// Outside the schedule entirely.
    Nothing,
}

/// The detail popup contents for a clicked task (paper: "Jedule displays
/// the start and finish time of the task and the list of resources").
#[derive(Debug, Clone, PartialEq)]
pub struct TaskInfo {
    pub id: String,
    pub kind: String,
    pub start: f64,
    pub end: f64,
    pub duration: f64,
    /// `(cluster id, cluster name, formatted host list)` per allocation.
    pub resources: Vec<(u32, String, String)>,
    pub attrs: Vec<(String, String)>,
}

/// Interactive view state over a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewState {
    pub viewport: Viewport,
    /// `None` = all clusters stacked; `Some(id)` = single-cluster view.
    pub cluster_filter: Option<u32>,
    pub align: AlignMode,
    pub selected_task: Option<usize>,
    /// Full extent used by `fit` (kept to clamp panning).
    full: Viewport,
}

impl ViewState {
    /// A view fitted to the whole schedule.
    pub fn fit(prep: &PreparedSchedule) -> ViewState {
        let ext = prep.global_extent().unwrap_or(TimeExtent::new(0.0, 1.0));
        let hosts: u32 = prep.clusters().iter().map(|c| c.hosts).sum();
        let rows = f64::from(hosts.max(1));
        let vp = Viewport {
            t0: ext.start,
            t1: if ext.span() > 0.0 {
                ext.end
            } else {
                ext.start + 1.0
            },
            r0: 0.0,
            r1: rows,
        };
        ViewState {
            viewport: vp,
            cluster_filter: None,
            align: AlignMode::Aligned,
            selected_task: None,
            full: vp,
        }
    }

    /// Mouse-wheel zoom: scales the time axis around `center` by `factor`
    /// (< 1 zooms in, > 1 zooms out). The zoom never exceeds the full
    /// extent.
    pub fn zoom_time(&mut self, factor: f64, center: f64) {
        let factor = factor.clamp(1e-6, 1e6);
        let span = (self.viewport.time_span() * factor)
            .min(self.full.time_span())
            .max(self.full.time_span() * 1e-9);
        let frac = if self.viewport.time_span() > 0.0 {
            (center - self.viewport.t0) / self.viewport.time_span()
        } else {
            0.5
        };
        self.viewport.t0 = center - span * frac;
        self.viewport.t1 = self.viewport.t0 + span;
        self.clamp();
    }

    /// Drag pan: shifts the view by `dt` seconds and `dr` rows.
    pub fn pan(&mut self, dt: f64, dr: f64) {
        self.viewport.t0 += dt;
        self.viewport.t1 += dt;
        self.viewport.r0 += dr;
        self.viewport.r1 += dr;
        self.clamp();
    }

    /// Zoom into an explicitly selected rectangle
    /// (paper: "zoom in by selecting a rectangular part").
    pub fn zoom_rect(&mut self, t0: f64, t1: f64, r0: f64, r1: f64) {
        if t1 > t0 {
            self.viewport.t0 = t0;
            self.viewport.t1 = t1;
        }
        if r1 > r0 {
            self.viewport.r0 = r0;
            self.viewport.r1 = r1;
        }
        self.clamp();
    }

    /// Resets the viewport to the full schedule.
    pub fn reset(&mut self) {
        self.viewport = self.full;
    }

    fn clamp(&mut self) {
        let vp = &mut self.viewport;
        let tspan = vp.time_span().min(self.full.time_span());
        if vp.t0 < self.full.t0 {
            vp.t0 = self.full.t0;
            vp.t1 = vp.t0 + tspan;
        }
        if vp.t1 > self.full.t1 {
            vp.t1 = self.full.t1;
            vp.t0 = vp.t1 - tspan;
        }
        let rspan = vp.row_span().min(self.full.row_span());
        if vp.r0 < self.full.r0 {
            vp.r0 = self.full.r0;
            vp.r1 = vp.r0 + rspan;
        }
        if vp.r1 > self.full.r1 {
            vp.r1 = self.full.r1;
            vp.r0 = vp.r1 - rspan;
        }
    }

    /// Selects which cluster is displayed (None = all).
    pub fn select_cluster(&mut self, cluster: Option<u32>) {
        self.cluster_filter = cluster;
    }

    /// Hit test at `(t, row)` in schedule coordinates, answered from the
    /// bundle's per-host interval index in O(log n + k) — what an
    /// interactive front-end wants on every mouse move over a
    /// million-task trace.
    ///
    /// When several tasks overlap at the point (a composite situation), the
    /// one that started last wins — that is the rectangle drawn on top.
    pub fn hit_test(&self, prep: &PreparedSchedule, t: f64, row: f64) -> HitTarget {
        if row < 0.0 {
            return HitTarget::Nothing;
        }
        // Clusters stack in declaration order.
        let mut host = row.floor() as u32;
        let mut hit = None;
        for c in prep.clusters() {
            if host < c.hosts {
                hit = Some(c.id);
                break;
            }
            host -= c.hosts;
        }
        let Some(cluster) = hit else {
            return HitTarget::Nothing;
        };
        if self.cluster_filter.is_some_and(|f| f != cluster) {
            return HitTarget::Nothing;
        }
        // Latest start wins (the rectangle drawn on top); candidates come
        // in ascending task index, so the lowest index wins a tie.
        let starts = prep.columns().starts();
        let ends = prep.columns().ends();
        let mut best: Option<usize> = None;
        let candidates = prep
            .index()
            .cluster(cluster)
            .map(|ci| ci.query_host(host, t, t));
        for i in candidates.unwrap_or_default() {
            if starts[i] <= t && t < ends[i] {
                match best {
                    Some(b) if starts[b] >= starts[i] => {}
                    _ => best = Some(i),
                }
            }
        }
        match best {
            Some(i) => HitTarget::Task(i),
            None => match prep.extent_for(cluster, self.align) {
                Some(e) if e.contains(t) => HitTarget::Idle { cluster, host },
                _ => HitTarget::Nothing,
            },
        }
    }

    /// Clicks a task: selects it and returns its info popup.
    pub fn click(&mut self, prep: &PreparedSchedule, t: f64, row: f64) -> Option<TaskInfo> {
        match self.hit_test(prep, t, row) {
            HitTarget::Task(i) => {
                self.selected_task = Some(i);
                Some(task_info(prep, i))
            }
            _ => {
                self.selected_task = None;
                None
            }
        }
    }
}

/// Builds the detail view for task `index`. A pack-backed bundle builds
/// that one task, never the whole schedule.
pub fn task_info(prep: &PreparedSchedule, index: usize) -> TaskInfo {
    let t = prep.task(index);
    TaskInfo {
        id: t.id.clone(),
        kind: t.kind.clone(),
        start: t.start,
        end: t.end,
        duration: t.duration(),
        resources: t
            .allocations
            .iter()
            .map(|a| {
                let name = prep
                    .clusters()
                    .iter()
                    .find(|c| c.id == a.cluster)
                    .map(|c| c.name.clone())
                    .unwrap_or_else(|| format!("cluster {}", a.cluster));
                (a.cluster, name, a.hosts.to_string())
            })
            .collect(),
        attrs: t.attrs.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::scan::extent_for;
    use crate::model::{Allocation, Cluster, Schedule, Task};

    fn sched() -> PreparedSchedule<'static> {
        PreparedSchedule::new(schedule())
    }

    fn schedule() -> Schedule {
        Schedule {
            clusters: vec![Cluster::new(0, "c0", 4), Cluster::new(1, "c1", 2)],
            tasks: vec![
                Task::new("a", "computation", 0.0, 10.0).on(Allocation::contiguous(0, 0, 4)),
                Task::new("b", "transfer", 5.0, 8.0).on(Allocation::contiguous(0, 1, 2)),
                Task::new("c", "computation", 2.0, 6.0).on(Allocation::contiguous(1, 0, 2)),
            ],
            meta: Default::default(),
        }
    }

    #[test]
    fn fit_covers_everything() {
        let v = ViewState::fit(&sched());
        assert_eq!(v.viewport.t0, 0.0);
        assert_eq!(v.viewport.t1, 10.0);
        assert_eq!(v.viewport.r0, 0.0);
        assert_eq!(v.viewport.r1, 6.0);
    }

    #[test]
    fn zoom_in_keeps_center() {
        let s = sched();
        let mut v = ViewState::fit(&s);
        v.zoom_time(0.5, 5.0);
        assert!((v.viewport.time_span() - 5.0).abs() < 1e-9);
        assert!((v.viewport.t0 - 2.5).abs() < 1e-9);
        assert!((v.viewport.t1 - 7.5).abs() < 1e-9);
    }

    #[test]
    fn zoom_out_clamps_to_full() {
        let s = sched();
        let mut v = ViewState::fit(&s);
        v.zoom_time(0.5, 5.0);
        v.zoom_time(100.0, 5.0);
        assert_eq!(v.viewport.t0, 0.0);
        assert_eq!(v.viewport.t1, 10.0);
    }

    #[test]
    fn pan_clamps_at_edges() {
        let s = sched();
        let mut v = ViewState::fit(&s);
        v.zoom_time(0.5, 5.0); // [2.5, 7.5]
        v.pan(100.0, 0.0);
        assert_eq!(v.viewport.t1, 10.0);
        v.pan(-100.0, 0.0);
        assert_eq!(v.viewport.t0, 0.0);
    }

    #[test]
    fn zoom_rect_sets_viewport() {
        let s = sched();
        let mut v = ViewState::fit(&s);
        v.zoom_rect(1.0, 3.0, 0.0, 2.0);
        assert_eq!(v.viewport.t0, 1.0);
        assert_eq!(v.viewport.t1, 3.0);
        assert_eq!(v.viewport.r1, 2.0);
        v.reset();
        assert_eq!(v.viewport.t1, 10.0);
    }

    #[test]
    fn hit_test_finds_topmost_task() {
        let s = sched();
        let v = ViewState::fit(&s);
        // Row 1 = cluster 0 host 1; at t=6 both a and b are active; b
        // started later so it is on top.
        assert_eq!(v.hit_test(&s, 6.0, 1.0), HitTarget::Task(1));
        // At t=1 only a.
        assert_eq!(v.hit_test(&s, 1.0, 1.0), HitTarget::Task(0));
        // Row 4 = cluster 1 host 0.
        assert_eq!(v.hit_test(&s, 3.0, 4.0), HitTarget::Task(2));
    }

    #[test]
    fn hit_test_idle_and_nothing() {
        let s = sched();
        let v = ViewState::fit(&s);
        // Cluster 1's local extent is [2,6]; t=1 inside aligned view is
        // idle only in aligned mode (extent covers it).
        assert_eq!(
            v.hit_test(&s, 1.0, 4.0),
            HitTarget::Idle {
                cluster: 1,
                host: 0
            }
        );
        assert_eq!(v.hit_test(&s, 3.0, 99.0), HitTarget::Nothing);
        assert_eq!(v.hit_test(&s, 3.0, -1.0), HitTarget::Nothing);
    }

    #[test]
    fn cluster_filter_masks_other_clusters() {
        let s = sched();
        let mut v = ViewState::fit(&s);
        v.select_cluster(Some(1));
        assert_eq!(v.hit_test(&s, 1.0, 1.0), HitTarget::Nothing);
        assert_eq!(v.hit_test(&s, 3.0, 4.0), HitTarget::Task(2));
    }

    #[test]
    fn click_returns_info() {
        let s = sched();
        let mut v = ViewState::fit(&s);
        let info = v.click(&s, 6.0, 1.0).unwrap();
        assert_eq!(info.id, "b");
        assert_eq!(info.kind, "transfer");
        assert_eq!(info.duration, 3.0);
        assert_eq!(
            info.resources,
            vec![(0, "c0".to_string(), "1-2".to_string())]
        );
        assert_eq!(v.selected_task, Some(1));
        // Clicking empty space clears the selection.
        assert!(v.click(&s, 1.0, 4.0).is_none());
        assert_eq!(v.selected_task, None);
    }

    /// The reference hit test: scans every task of the schedule.
    fn scan_hit_test(v: &ViewState, schedule: &Schedule, t: f64, row: f64) -> HitTarget {
        if row < 0.0 {
            return HitTarget::Nothing;
        }
        let Some((cluster, host)) = schedule.row_to_host(row.floor() as u32) else {
            return HitTarget::Nothing;
        };
        if v.cluster_filter.is_some_and(|f| f != cluster) {
            return HitTarget::Nothing;
        }
        let mut best: Option<usize> = None;
        for (i, task) in schedule.tasks.iter().enumerate() {
            if task.occupies(cluster, host) && task.start <= t && t < task.end {
                match best {
                    Some(b) if schedule.tasks[b].start >= task.start => {}
                    _ => best = Some(i),
                }
            }
        }
        match best {
            Some(i) => HitTarget::Task(i),
            None => match extent_for(schedule, cluster, v.align) {
                Some(e) if e.contains(t) => HitTarget::Idle { cluster, host },
                _ => HitTarget::Nothing,
            },
        }
    }

    #[test]
    fn indexed_hit_test_agrees_with_scan() {
        let s = schedule();
        let prep = PreparedSchedule::borrowed(&s);
        let mut v = ViewState::fit(&prep);
        let probes: Vec<(f64, f64)> = vec![
            (6.0, 1.0),
            (1.0, 1.0),
            (3.0, 4.0),
            (1.0, 4.0),
            (3.0, 99.0),
            (3.0, -1.0),
            (10.0, 0.0), // half-open: end time misses
            (0.0, 0.0),
        ];
        for &(t, row) in &probes {
            assert_eq!(
                v.hit_test(&prep, t, row),
                scan_hit_test(&v, &s, t, row),
                "probe t={t} row={row}"
            );
        }
        v.select_cluster(Some(1));
        for &(t, row) in &probes {
            assert_eq!(
                v.hit_test(&prep, t, row),
                scan_hit_test(&v, &s, t, row),
                "filtered probe t={t} row={row}"
            );
        }
    }

    #[test]
    fn fit_empty_schedule_is_sane() {
        let s = Schedule {
            clusters: vec![Cluster::new(0, "c0", 2)],
            tasks: vec![],
            meta: Default::default(),
        };
        let v = ViewState::fit(&PreparedSchedule::new(s));
        assert!(v.viewport.time_span() > 0.0);
        assert_eq!(v.viewport.r1, 2.0);
    }
}
