//! The Gantt-chart layout engine.
//!
//! Turns a [`Schedule`] plus [`RenderOptions`] into a [`Scene`]:
//!
//! * one panel per cluster, stacked vertically, each dividing its resource
//!   axis into `p` equal segments (paper, §II-A);
//! * a rectangle per task per contiguous host range (multiprocessor tasks
//!   with scattered resources get multiple rectangles);
//! * composite-task overlays for overlapping tasks (Fig. 3);
//! * scaled or aligned per-cluster time axes (§II-C3);
//! * a meta-info header and a task-type legend;
//! * task-id labels when they fit, honoring the color map's
//!   `min_fontsize_label`.
//!
//! Two mechanisms keep the stage sub-linear in task count for bird's-eye
//! charts of very large workloads:
//!
//! * **time-window culling** — when a `time_window` is set and the
//!   bundle already holds its [`ScheduleIndex`] (a `.jpack` load, after
//!   [`PreparedSchedule::warm`], or built by this render's composite
//!   sweep), candidate tasks come from an interval query instead of a
//!   full scan, so zooming into 1% of a trace touches ~1% of the tasks;
//! * **level-of-detail aggregation** ([`LodMode`]) — tasks narrower than
//!   `lod_threshold` pixels on screen are accumulated into a
//!   per-(host row, pixel column) coverage grid and emitted as one
//!   density strip per run of equally-colored columns, bounding the
//!   primitive count by the canvas area instead of the task count.
//!
//! Both are exact about what they skip: culling only drops tasks the
//! clipping guard would reject anyway (pixel-identical output,
//! property-tested), and LOD is deterministic — accumulation is either
//! sequential in task order or sharded so each grid cell is filled by
//! exactly one worker in task order, so the same schedule always yields
//! the same strips for every thread count.
//!
//! Every layout draws from a [`PreparedSchedule`]. The bare-schedule
//! entry point [`layout`] wraps its argument with
//! [`PreparedSchedule::borrowed`] (no clone), so the bundle's caches fill
//! for that one call; a kept bundle pays them once for every later view.
//! The hot loops (candidate collection, the LOD probe, task
//! classification, density binning and direct-rectangle emission) scan
//! the bundle's columnar [`TaskColumns`] view — contiguous `starts`/
//! `ends`/`kind_ids` slices plus CSR host-lane segments — instead of
//! striding across `Vec<Task>` structs, and are chunk-parallelized over
//! the columns with the `threads`/`JEDULE_THREADS` machinery. A warmed
//! bundle with a dirty scratch at any thread count draws byte-for-byte
//! what a one-shot wrap draws (property-tested in
//! `tests/prepared_props.rs`).

use crate::options::{LodMode, RenderOptions};
use crate::scene::{text_width, Anchor, Scene};
use crate::ticks;
use jedule_core::composite::{ATTR_TYPES, COMPOSITE_KIND};
use jedule_core::parallel::chunk_bounds;
use jedule_core::{
    effective_threads, Cluster, Color, ColorPair, PreparedSchedule, Schedule, ScheduleIndex, Task,
    TaskColumns, TimeExtent,
};

/// Below this many work items the columnar loops stay sequential: thread
/// spawn/join overhead beats the win on small renders, and serve pins
/// `threads = 1` anyway.
const PAR_MIN_ITEMS: usize = 8192;

const LEFT_MARGIN: f64 = 72.0;
const RIGHT_MARGIN: f64 = 12.0;
const TOP_PAD: f64 = 8.0;
const PANEL_GAP: f64 = 10.0;
const AXIS_H: f64 = 22.0;
const LEGEND_H: f64 = 20.0;
const PROFILE_H: f64 = 44.0;
const TITLE_H: f64 = 22.0;
const META_LINE_H: f64 = 13.0;

/// Picks a row height from the total resource count when no explicit
/// canvas height is requested.
fn auto_row_height(total_rows: u32) -> f64 {
    let r = f64::from(total_rows.max(1));
    (640.0 / r).clamp(1.0, 18.0)
}

struct Panel {
    cluster: Cluster,
    y: f64,
    row_h: f64,
    extent: Option<TimeExtent>,
}

/// The frame sizing a layout run and the HTML explorer both need: the
/// canvas height, the shared row height, the header block height and the
/// per-cluster panels with their y positions and drawn extents. One
/// computation feeds both [`layout_prepared_scratch`] and
/// [`frame_geometry`], so the explorer's hit-testing can never drift from
/// the drawn pixels.
struct FrameSizes {
    header_h: f64,
    height: f64,
    panels: Vec<Panel>,
}

fn frame_sizes(prep: &PreparedSchedule, opts: &RenderOptions) -> FrameSizes {
    let visible: Vec<&Cluster> = prep
        .clusters()
        .iter()
        .filter(|c| opts.cluster.is_none_or(|id| id == c.id))
        .collect();
    let total_rows: u32 = visible.iter().map(|c| c.hosts).sum();

    // Header sizing.
    let meta_lines = if opts.show_meta { prep.meta().len() } else { 0 };
    let header_h = TOP_PAD
        + if opts.title.is_some() { TITLE_H } else { 0.0 }
        + meta_lines as f64 * META_LINE_H;

    // Vertical sizing.
    let n_panels = visible.len().max(1) as f64;
    let profile_h = if opts.show_profile { PROFILE_H } else { 0.0 };
    let chrome = header_h + n_panels * (PANEL_GAP + AXIS_H) + LEGEND_H + profile_h;
    let row_h = match opts.height {
        Some(h) => ((h - chrome) / f64::from(total_rows.max(1))).max(1.0),
        None => auto_row_height(total_rows),
    };
    let height = opts
        .height
        .unwrap_or(chrome + row_h * f64::from(total_rows.max(1)));

    // Panels.
    let mut y = header_h;
    let mut panels: Vec<Panel> = Vec::with_capacity(visible.len());
    for c in &visible {
        y += PANEL_GAP;
        let mut extent = prep.extent_for(c.id, opts.align);
        if let Some((t0, t1)) = opts.time_window {
            if t1 > t0 {
                extent = Some(TimeExtent::new(t0, t1));
            }
        }
        panels.push(Panel {
            cluster: (*c).clone(),
            y,
            row_h,
            extent,
        });
        y += row_h * f64::from(c.hosts) + AXIS_H;
    }
    FrameSizes {
        header_h,
        height,
        panels,
    }
}

/// One cluster panel's plot rectangle and domain mapping, in scene
/// pixels. `x..x+w` spans `t0..t1` linearly and each of the `hosts` lanes
/// is `row_h` tall starting at `y` — exactly the mapping
/// [`layout`] draws with, exported so the HTML explorer can convert a
/// mouse position back into `(time, cluster, host)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PanelGeom {
    pub cluster: u32,
    pub name: String,
    pub x: f64,
    pub y: f64,
    pub w: f64,
    pub h: f64,
    pub row_h: f64,
    pub hosts: u32,
    /// The drawn time extent (the `time_window` when one is set); `None`
    /// when the cluster has no tasks and no window forces an axis.
    pub extent: Option<(f64, f64)>,
}

/// Whole-figure geometry for a schedule under given options: canvas size
/// plus one [`PanelGeom`] per visible cluster panel.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameGeom {
    pub width: f64,
    pub height: f64,
    pub panels: Vec<PanelGeom>,
}

/// Computes the figure geometry [`layout_prepared`] would draw for
/// `opts`, without building a scene.
pub fn frame_geometry(prep: &PreparedSchedule, opts: &RenderOptions) -> FrameGeom {
    let sizes = frame_sizes(prep, opts);
    let plot_x = LEFT_MARGIN;
    let plot_w = (opts.width - LEFT_MARGIN - RIGHT_MARGIN).max(10.0);
    FrameGeom {
        width: opts.width,
        height: sizes.height,
        panels: sizes
            .panels
            .into_iter()
            .map(|p| PanelGeom {
                cluster: p.cluster.id,
                name: p.cluster.name.clone(),
                x: plot_x,
                y: p.y,
                w: plot_w,
                h: p.row_h * f64::from(p.cluster.hosts),
                row_h: p.row_h,
                hosts: p.cluster.hosts,
                extent: p.extent.map(|e| (e.start, e.end)),
            })
            .collect(),
    }
}

/// Per-render task-classification table derived from a
/// [`PreparedSchedule`]: the cached kind list resolved against this
/// render's color map once, plus the per-task kind slots. Turns per-task
/// colormap resolution into an array lookup.
struct KindTable<'a> {
    pairs: Vec<ColorPair>,
    ids: &'a [u32],
}

/// Reusable per-render working memory for the columnar hot path: the
/// window-culling candidate list, the LOD-aggregated task list and the
/// directly drawn task list. A caller that renders repeatedly (the serve
/// tile store, a `--window` series) keeps one scratch per worker and
/// hands it to [`layout_prepared_scratch`], so steady-state renders stop
/// allocating these buffers per frame.
#[derive(Debug, Default)]
pub struct LayoutScratch {
    candidates: Vec<usize>,
    agg: Vec<u32>,
    direct: Vec<u32>,
}

impl LayoutScratch {
    pub fn new() -> Self {
        LayoutScratch::default()
    }
}

/// Lays out a schedule into a scene: a one-shot wrap of `schedule` in a
/// [`PreparedSchedule::borrowed`] bundle, drawn by [`layout_prepared`].
///
/// An invalid `time_window` (empty or reversed) is ignored here and the
/// full extent is drawn; callers that can report errors should run
/// [`RenderOptions::validate`] first — the CLI does, and rejects such
/// windows by name.
pub fn layout(schedule: &Schedule, opts: &RenderOptions) -> Scene {
    layout_prepared(&PreparedSchedule::borrowed(schedule), opts)
}

/// Lays out a [`PreparedSchedule`] into a scene. The extents, the legend
/// kind list and the composite sweep come from the bundle's caches, and
/// the task loops scan its [`TaskColumns`] — so repeated renders of one
/// bundle (zoom/pan, `--window` series, interactive redraws) only pay for
/// what they draw. A pack-backed bundle renders without materializing
/// its `Vec<Task>`.
pub fn layout_prepared(prep: &PreparedSchedule, opts: &RenderOptions) -> Scene {
    layout_prepared_scratch(prep, opts, &mut LayoutScratch::new())
}

/// [`layout_prepared`] with caller-owned [`LayoutScratch`], for render
/// loops that want zero per-frame buffer churn. The scratch carries no
/// outputs — only reusable capacity — so passing a dirty scratch from any
/// earlier render (even of another schedule) yields identical scenes.
pub fn layout_prepared_scratch(
    prep: &PreparedSchedule,
    opts: &RenderOptions,
    scratch: &mut LayoutScratch,
) -> Scene {
    let FrameSizes {
        header_h,
        height,
        panels,
    } = frame_sizes(prep, opts);
    let mut scene = Scene::new(opts.width, height);

    let plot_x = LEFT_MARGIN;
    let plot_w = (opts.width - LEFT_MARGIN - RIGHT_MARGIN).max(10.0);

    // Header.
    let mut y = TOP_PAD;
    if let Some(title) = &opts.title {
        scene.text(
            opts.width / 2.0,
            y + TITLE_H - 6.0,
            opts.colormap.config.font_size_label + 2.0,
            title.clone(),
            Color::BLACK,
            Anchor::Middle,
        );
        y += TITLE_H;
    }
    if opts.show_meta {
        for (k, v) in prep.meta().iter() {
            y += META_LINE_H;
            scene.text(
                plot_x,
                y - 3.0,
                opts.colormap.config.font_size_axes - 3.0,
                format!("{k} = {v}"),
                Color::new(90, 90, 90),
                Anchor::Start,
            );
        }
    }

    // The bottom edge of the panel stack, where the profile strip goes.
    let y = panels.last().map_or(header_h, |p| {
        p.y + p.row_h * f64::from(p.cluster.hosts) + AXIS_H
    });

    // A pack presets the composite sweep; a text bundle runs it once,
    // building its host-row interval index on the way.
    let composites: &[Task] = if opts.show_composites {
        prep.composites()
    } else {
        &[]
    };
    // Window culling queries the index only when the bundle already
    // holds one: for a one-shot render, building it would cost more than
    // the column scan it saves, and the scan's clip guard drops the same
    // tasks.
    let cull = opts.cull && opts.time_window.is_some_and(|(t0, t1)| t1 > t0);
    let index = if cull { prep.index_if_built() } else { None };

    // The legend lists every task type of the schedule (plus the
    // composite swatch), independent of the time window: zooming must not
    // change what the colors mean. Types only appear once at least one
    // panel actually plots tasks.
    let cols = prep.columns();
    let any_extent = panels.iter().any(|p| p.extent.is_some());
    let mut types_seen: Vec<String> = Vec::new();
    if any_extent {
        types_seen.extend_from_slice(cols.kind_names());
        if !composites.is_empty() {
            types_seen.push(COMPOSITE_KIND.to_string());
        }
    }

    // Resolve each cached kind against this render's color map once;
    // tasks then classify by slot lookup instead of string compares.
    let kinds = KindTable {
        pairs: cols
            .kind_names()
            .iter()
            .map(|k| opts.colormap.resolve(k))
            .collect(),
        ids: cols.kind_ids(),
    };
    for panel in &panels {
        draw_panel(
            &mut scene, prep, cols, &kinds, panel, opts, plot_x, plot_w, composites, index, scratch,
        );
    }

    // Utilization-profile strip.
    if opts.show_profile {
        draw_profile(&mut scene, prep, opts, plot_x, plot_w, y + PANEL_GAP / 2.0);
    }

    // Legend.
    draw_legend(
        &mut scene,
        opts,
        &types_seen,
        plot_x,
        height - LEGEND_H + 4.0,
    );

    scene
}

/// Draws the busy-hosts-over-time step curve as a filled strip.
fn draw_profile(
    scene: &mut Scene,
    prep: &PreparedSchedule,
    opts: &RenderOptions,
    plot_x: f64,
    plot_w: f64,
    y: f64,
) {
    use jedule_core::stats::utilization_profile_indexed;

    let h = PROFILE_H - 14.0;
    let Some(ext) = prep.global_extent() else {
        return;
    };
    let mut ext = ext;
    if let Some((t0, t1)) = opts.time_window {
        if t1 > t0 {
            ext = TimeExtent::new(t0, t1);
        }
    }
    let span = ext.span().max(1e-300);
    let total_hosts: u32 = prep.clusters().iter().map(|c| c.hosts).sum();
    let total = f64::from(total_hosts.max(1));
    let to_x = |t: f64| plot_x + ((t - ext.start) / span * plot_w).clamp(0.0, plot_w);

    scene.rect_stroked(plot_x, y, plot_w, h, Color::WHITE, Color::new(60, 60, 60));
    let fill = Color::new(0x9d, 0xc3, 0xe6);
    let profile = utilization_profile_indexed(prep.clusters(), prep.index());
    for (i, &(t, busy)) in profile.iter().enumerate() {
        if busy == 0 {
            continue;
        }
        let next_t = profile.get(i + 1).map_or(ext.end, |&(nt, _)| nt);
        let (seg0, seg1) = (t.max(ext.start), next_t.min(ext.end));
        if seg1 <= seg0 {
            continue;
        }
        let bar_h = h * f64::from(busy) / total;
        scene.rect(
            to_x(seg0),
            y + h - bar_h,
            to_x(seg1) - to_x(seg0),
            bar_h,
            fill,
        );
    }
    scene.text(
        plot_x - 4.0,
        y + opts.colormap.config.font_size_axes,
        (opts.colormap.config.font_size_axes - 3.0).max(5.0),
        "busy",
        Color::new(80, 80, 80),
        Anchor::End,
    );
}

/// Per-(host row, pixel column) coverage accumulator for LOD aggregation.
///
/// Each cell tracks the summed pixel coverage of the tasks deposited into
/// it plus coverage-weighted RGB sums, so a cell's display color is the
/// mean task color faded toward the white panel background by how full
/// the cell is.
///
/// A grid covers either a whole panel ([`LodGrid::new`]) or one
/// contiguous **row band** of it ([`LodGrid::band`]). Bands are how
/// density binning is parallelized without losing determinism:
/// every worker walks the full aggregated-task list in task order but
/// deposits only into the rows it owns, so each cell receives exactly the
/// additions the sequential pass would apply, in the same order — `f32`
/// accumulation is bit-identical for every worker count.
struct LodGrid {
    /// Global row of this band's first local row (0 for a full grid).
    row0: usize,
    /// Rows in this band.
    rows: usize,
    /// Rows of the whole panel (== `rows` for a full grid); segment row
    /// ranges clamp against this first, exactly like the sequential pass.
    total_rows: usize,
    cols: usize,
    /// `[coverage, r_sum, g_sum, b_sum]` per cell, **column-major**: a
    /// schedule walks tasks in (roughly) time order, so consecutive
    /// deposits land in the same pixel column across many host rows —
    /// storing each column contiguously keeps the hot working set at one
    /// column block (`rows × 16` bytes) instead of striding across the
    /// whole grid.
    cells: Vec<[f32; 4]>,
}

impl LodGrid {
    fn new(hosts: u32, plot_w: f64) -> Self {
        let rows = hosts.max(1) as usize;
        LodGrid::with_rows(0, rows, rows, plot_w)
    }

    /// A band covering global rows `r0..r1` of a `hosts`-row panel.
    fn band(hosts: u32, plot_w: f64, r0: usize, r1: usize) -> Self {
        LodGrid::with_rows(r0, r1 - r0, hosts.max(1) as usize, plot_w)
    }

    fn with_rows(row0: usize, rows: usize, total_rows: usize, plot_w: f64) -> Self {
        let cols = (plot_w.ceil() as usize).max(1);
        LodGrid {
            row0,
            rows,
            total_rows,
            cols,
            cells: vec![[0.0; 4]; rows * cols],
        }
    }

    /// The clipped column window of a task at `x0` (plot-relative) and
    /// width `w`: `(a, b, c0, c1)` or `None` when fully clipped out.
    #[inline]
    fn col_window(&self, x0: f64, w: f64) -> Option<(f64, f64, usize, usize)> {
        let a = x0.clamp(0.0, self.cols as f64);
        let b = (x0 + w.max(0.5)).clamp(0.0, self.cols as f64);
        if b <= a {
            return None;
        }
        let c0 = a.floor() as usize;
        let c1 = (b.ceil() as usize).min(self.cols);
        Some((a, b, c0, c1))
    }

    /// Deposits `overlap`-weighted color into local rows `lo..hi` of the
    /// columns spanning `[a, b]`.
    #[inline]
    fn deposit(
        &mut self,
        (a, b, c0, c1): (f64, f64, usize, usize),
        lo: usize,
        hi: usize,
        fill: Color,
    ) {
        for col in c0..c1 {
            let overlap = (b.min((col + 1) as f64) - a.max(col as f64)).max(0.0) as f32;
            if overlap <= 0.0 {
                continue;
            }
            let wr = overlap * f32::from(fill.r);
            let wg = overlap * f32::from(fill.g);
            let wb = overlap * f32::from(fill.b);
            let base = col * self.rows;
            for cell in &mut self.cells[base + lo..base + hi] {
                cell[0] += overlap;
                cell[1] += wr;
                cell[2] += wg;
                cell[3] += wb;
            }
        }
    }

    /// Clamps a global row span to this band's local rows.
    #[inline]
    fn local_rows(&self, gr0: usize, gr1: usize) -> (usize, usize) {
        let lo = gr0.clamp(self.row0, self.row0 + self.rows) - self.row0;
        let hi = gr1.clamp(self.row0, self.row0 + self.rows) - self.row0;
        (lo, hi)
    }

    /// Accumulates task `ti` by walking its CSR segments in `cols`; `x0`
    /// is the clipped left edge relative to the plot area and `w` the
    /// clipped on-screen width. A zero-duration task still deposits the
    /// 0.5 px sliver it would have been drawn with. The caller already
    /// established that the task is on `cluster` (classification
    /// filtered it).
    fn add_cols(
        &mut self,
        cols: &TaskColumns,
        ti: usize,
        cluster: u32,
        x0: f64,
        w: f64,
        fill: Color,
    ) {
        let Some(window) = self.col_window(x0, w) else {
            return;
        };
        let (seg_clusters, seg_row0, seg_nrows) =
            (cols.seg_clusters(), cols.seg_row0(), cols.seg_nrows());
        for si in cols.seg_range(ti) {
            if seg_clusters[si] != cluster {
                continue;
            }
            let gr0 = (seg_row0[si] as usize).min(self.total_rows);
            let gr1 = ((seg_row0[si] + seg_nrows[si]) as usize).min(self.total_rows);
            let (lo, hi) = self.local_rows(gr0, gr1);
            if hi > lo {
                self.deposit(window, lo, hi, fill);
            }
        }
    }

    /// Resolves a cell to its display color: the coverage-weighted mean
    /// task color alpha-blended onto the white panel background. A single
    /// division produces the combined `alpha / cov` scale; each channel
    /// then costs one multiply-add (the grid has ~2 million cells, so
    /// per-channel divisions were a measurable share of emission).
    fn cell_color_of(cell: [f32; 4]) -> Option<Color> {
        let [cov, r, g, b] = cell;
        if cov <= 0.0 {
            return None;
        }
        let alpha = f64::from(cov.min(1.0));
        let scale = alpha / f64::from(cov);
        let bias = 255.0 * (1.0 - alpha);
        let blend = |sum: f32| (f64::from(sum) * scale + bias).round().clamp(0.0, 255.0) as u8;
        Some(Color::new(blend(r), blend(g), blend(b)))
    }
}

/// Emits one rectangle per run of equally-colored columns per row; returns
/// the number of strips produced. `bands` is a full panel grid split into
/// contiguous row bands in ascending row order (a single full grid is the
/// degenerate one-band case). Columns are the outer loop (matching the
/// column-major storage, so each band's scan is sequential) with one open
/// run carried per **global** row; a strip is flushed when its row's color
/// changes. Visiting `(column, band, local row)` in that nesting yields
/// the exact `(column, global row)` sequence a single-grid emit produces,
/// so the strip list — order included — is independent of how the grid was
/// banded. Strips never overlap, so the output is also paint-order
/// independent.
fn emit_bands(bands: &[LodGrid], scene: &mut Scene, panel: &Panel, plot_x: f64) -> usize {
    let total_rows: usize = bands.iter().map(|b| b.rows).sum();
    let cols = bands.first().map_or(0, |b| b.cols);
    let mut strips = 0usize;
    // Per global row: (start column, color) of the open run.
    let mut open: Vec<Option<(usize, Color)>> = vec![None; total_rows];
    // A task deposits the same weights into every row it covers, so
    // vertically adjacent cells repeat exactly; memoizing on the raw
    // cell skips most color resolutions.
    let mut last_cell = [0.0f32; 4];
    let mut last_color: Option<Color> = None;
    for col in 0..=cols {
        let mut row = 0usize;
        for band in bands {
            let base = col * band.rows;
            for lrow in 0..band.rows {
                let color = if col < cols {
                    let cell = band.cells[base + lrow];
                    if cell != last_cell {
                        last_cell = cell;
                        last_color = LodGrid::cell_color_of(cell);
                    }
                    last_color
                } else {
                    None
                };
                let run = &mut open[row];
                match (&mut *run, color) {
                    (Some((_, rc)), Some(c)) if *rc == c => {}
                    (r, c) => {
                        if let Some((start, rc)) = r.take() {
                            scene.rect(
                                plot_x + start as f64,
                                panel.y + row as f64 * panel.row_h,
                                (col - start) as f64,
                                panel.row_h,
                                rc,
                            );
                            strips += 1;
                        }
                        *r = c.map(|c| (col, c));
                    }
                }
                row += 1;
            }
        }
    }
    strips
}

#[allow(clippy::too_many_arguments)]
fn draw_panel(
    scene: &mut Scene,
    prep: &PreparedSchedule,
    cols: &TaskColumns,
    kinds: &KindTable<'_>,
    panel: &Panel,
    opts: &RenderOptions,
    plot_x: f64,
    plot_w: f64,
    composites: &[Task],
    index: Option<&ScheduleIndex>,
    scratch: &mut LayoutScratch,
) {
    let c = &panel.cluster;
    let panel_h = panel.row_h * f64::from(c.hosts);
    let axes_size = opts.colormap.config.font_size_axes;

    // Frame and cluster name.
    scene.rect_stroked(
        plot_x,
        panel.y,
        plot_w,
        panel_h,
        Color::WHITE,
        Color::new(60, 60, 60),
    );
    scene.text(
        4.0,
        panel.y + axes_size,
        axes_size,
        c.name.clone(),
        Color::BLACK,
        Anchor::Start,
    );

    // Host labels: subsample so they never collide.
    let label_every = (axes_size / panel.row_h).ceil().max(1.0) as u32;
    if panel.row_h >= 3.0 {
        for h in (0..c.hosts).step_by(label_every as usize) {
            scene.text(
                plot_x - 4.0,
                panel.y + f64::from(h) * panel.row_h + panel.row_h / 2.0 + axes_size * 0.35,
                (axes_size - 3.0).max(5.0),
                h.to_string(),
                Color::new(80, 80, 80),
                Anchor::End,
            );
        }
    }

    let Some(ext) = panel.extent else {
        // Nothing scheduled on this cluster: frame + axis line only.
        scene.line(
            plot_x,
            panel.y + panel_h,
            plot_x + plot_w,
            panel.y + panel_h,
            Color::BLACK,
        );
        return;
    };
    let span = ext.span().max(1e-300);
    let to_x = |t: f64| plot_x + (t - ext.start) / span * plot_w;

    // Grid + axis ticks.
    let tick_vals = ticks::ticks(ext.start, ext.end, (plot_w / 90.0) as usize + 2);
    for &t in &tick_vals {
        let x = to_x(t);
        scene.line(x, panel.y, x, panel.y + panel_h, Color::new(225, 225, 225));
        scene.line(
            x,
            panel.y + panel_h,
            x,
            panel.y + panel_h + 4.0,
            Color::BLACK,
        );
        scene.text(
            x,
            panel.y + panel_h + AXIS_H - 6.0,
            axes_size - 2.0,
            ticks::format_tick(t),
            Color::BLACK,
            Anchor::Middle,
        );
    }
    scene.line(
        plot_x,
        panel.y + panel_h,
        plot_x + plot_w,
        panel.y + panel_h,
        Color::BLACK,
    );

    panel_tasks(
        scene, prep, cols, kinds, panel, opts, plot_x, plot_w, ext, index, scratch,
    );
    draw_panel_composites(scene, composites, c.id, panel, opts, &ext, to_x);
}

/// Draws the composite-task overlays of one panel. The composite list is
/// tiny next to the task array, so it stays on the `Task` walk instead of
/// columns.
fn draw_panel_composites(
    scene: &mut Scene,
    composites: &[Task],
    cluster: u32,
    panel: &Panel,
    opts: &RenderOptions,
    ext: &TimeExtent,
    to_x: impl Fn(f64) -> f64 + Copy,
) {
    for comp in composites {
        let types: Vec<&str> = comp
            .attrs
            .iter()
            .find(|(k, _)| k == ATTR_TYPES)
            .map(|(_, v)| v.split('+').collect())
            .unwrap_or_default();
        let pair = opts.colormap.resolve_composite(types);
        draw_task_rects(scene, comp, cluster, panel, opts, ext, to_x, pair);
    }
}

/// The panel body: candidate collection, LOD probe, task
/// classification, density binning and direct-rectangle emission, all as
/// linear scans over [`TaskColumns`]. Classification and binning fan out
/// over `opts.threads` workers above [`PAR_MIN_ITEMS`] items;
/// classification chunks concatenate in chunk order and binning shards by
/// row band, so the scene is byte-identical for every worker count.
#[allow(clippy::too_many_arguments)]
fn panel_tasks(
    scene: &mut Scene,
    prep: &PreparedSchedule,
    cols: &TaskColumns,
    kt: &KindTable<'_>,
    panel: &Panel,
    opts: &RenderOptions,
    plot_x: f64,
    plot_w: f64,
    ext: TimeExtent,
    index: Option<&ScheduleIndex>,
    scratch: &mut LayoutScratch,
) {
    let LayoutScratch {
        candidates,
        agg,
        direct,
    } = scratch;
    candidates.clear();
    agg.clear();
    direct.clear();

    let c = &panel.cluster;
    let span = ext.span().max(1e-300);
    let to_x = move |t: f64| plot_x + (t - ext.start) / span * plot_w;
    let (starts, ends) = (cols.starts(), cols.ends());

    // Candidates, filled into the reusable scratch buffer: with an index
    // the interval query narrows the scan to tasks intersecting the window
    // on this cluster. The query is a closed-interval superset of what the
    // clipping guard keeps, so culling never changes pixels.
    let cand: Option<&[usize]> = match index {
        Some(idx) => {
            if let Some(ci) = idx.cluster(c.id) {
                ci.query_into(ext.start, ext.end, candidates);
            }
            Some(candidates.as_slice())
        }
        None => None,
    };
    if let Some(q) = cand {
        scene.stats.culled += cols.len() - q.len();
    }

    // `Auto` engages aggregation only when sub-threshold tasks dominate
    // the visible schedule: with few of them the grid + strip overhead
    // exceeds what aggregation saves (drawing a minority of slivers
    // directly is cheap). A deterministic stride sample decides — over
    // ALL tasks, never the culled candidate set, so a windowed render
    // reaches the same verdict whether or not the interval index narrowed
    // its scan (culling must stay pixel-identical).
    let lod_engaged = match opts.lod {
        LodMode::Off => false,
        LodMode::Force => true,
        LodMode::Auto => {
            let n = cols.len();
            let stride = (n / 512).max(1);
            let (mut seen, mut below) = (0usize, 0usize);
            let mut i = 0;
            while i < n {
                let t0 = starts[i].max(ext.start);
                let t1 = ends[i].min(ext.end);
                if t1 >= t0 && !(t1 <= t0 && ends[i] - starts[i] > 0.0) {
                    seen += 1;
                    if to_x(t1) - to_x(t0) < opts.lod_threshold {
                        below += 1;
                    }
                }
                i += stride;
            }
            below * 2 > seen
        }
    };

    // Classification: split work items (candidates, or all tasks) into
    // the directly drawn list and the LOD-aggregated list. Chunk outputs
    // concatenate in chunk order, which is exactly the sequential item
    // order, so the lists — and everything drawn from them — are
    // independent of the worker count.
    let cid = c.id;
    let classify_chunk = |lo: usize, hi: usize, direct: &mut Vec<u32>, agg: &mut Vec<u32>| {
        let (mut aggregated, mut clipped) = (0usize, 0usize);
        for k in lo..hi {
            let ti = cand.map_or(k, |q| q[k]);
            let t0 = starts[ti].max(ext.start);
            let t1 = ends[ti].min(ext.end);
            if t1 < t0 || (t1 <= t0 && ends[ti] - starts[ti] > 0.0) {
                clipped += 1;
                continue;
            }
            let aggregate = match opts.lod {
                LodMode::Off => false,
                LodMode::Force => true,
                LodMode::Auto => lod_engaged && to_x(t1) - to_x(t0) < opts.lod_threshold,
            };
            if cols.on_cluster(ti, cid) {
                if aggregate {
                    aggregated += 1;
                    agg.push(ti as u32);
                } else {
                    direct.push(ti as u32);
                }
            } else {
                clipped += 1;
            }
        }
        (aggregated, clipped)
    };
    let n_items = cand.map_or(cols.len(), |q| q.len());
    let workers = if n_items >= PAR_MIN_ITEMS {
        effective_threads(opts.threads).min(n_items)
    } else {
        1
    };
    let (mut aggregated, mut clipped) = (0usize, 0usize);
    if workers <= 1 {
        (aggregated, clipped) = classify_chunk(0, n_items, direct, agg);
    } else {
        let chunks = std::thread::scope(|scope| {
            let handles: Vec<_> = chunk_bounds(n_items, workers)
                .into_iter()
                .map(|(lo, hi)| {
                    scope.spawn(move || {
                        let (mut d, mut a) = (Vec::new(), Vec::new());
                        let counts = classify_chunk(lo, hi, &mut d, &mut a);
                        (d, a, counts)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("layout classify worker panicked"))
                .collect::<Vec<_>>()
        });
        for (d, a, (n_agg, n_clip)) in chunks {
            direct.extend_from_slice(&d);
            agg.extend_from_slice(&a);
            aggregated += n_agg;
            clipped += n_clip;
        }
    }
    scene.stats.lod_aggregated += aggregated;
    scene.stats.clipped += clipped;

    // Density binning: every band worker walks the full aggregated list
    // in task order but only deposits the rows it owns, so each cell
    // accumulates bit-identically to the sequential pass. Strips go under
    // the individually drawn tasks.
    if !agg.is_empty() {
        let total_rows = c.hosts.max(1) as usize;
        let deposit_all = |grid: &mut LodGrid, agg: &[u32]| {
            for &ti in agg {
                let ti = ti as usize;
                let t0 = starts[ti].max(ext.start);
                let t1 = ends[ti].min(ext.end);
                let x = to_x(t0);
                let fill = kt.pairs[kt.ids[ti] as usize].bg;
                grid.add_cols(cols, ti, cid, x - plot_x, to_x(t1) - x, fill);
            }
        };
        let band_workers = if agg.len() >= PAR_MIN_ITEMS {
            effective_threads(opts.threads).min(total_rows)
        } else {
            1
        };
        let bands: Vec<LodGrid> = if band_workers <= 1 {
            let mut grid = LodGrid::new(c.hosts, plot_w);
            deposit_all(&mut grid, agg);
            vec![grid]
        } else {
            let agg: &[u32] = agg;
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunk_bounds(total_rows, band_workers)
                    .into_iter()
                    .map(|(r0, r1)| {
                        scope.spawn(move || {
                            let mut band = LodGrid::band(c.hosts, plot_w, r0, r1);
                            deposit_all(&mut band, agg);
                            band
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("layout binning worker panicked"))
                    .collect()
            })
        };
        scene.stats.lod_strips += emit_bands(&bands, scene, panel, plot_x);
    }

    // Direct rectangles, straight off the columns: a per-task slot lookup
    // for the color pair and a CSR segment walk for the lanes. The task
    // struct is only touched for its id, and only when labels are on.
    scene.reserve(
        direct.len(),
        0,
        if opts.show_labels { direct.len() } else { 0 },
    );
    let (seg_clusters, seg_row0, seg_nrows) =
        (cols.seg_clusters(), cols.seg_row0(), cols.seg_nrows());
    for &ti in direct.iter() {
        let ti = ti as usize;
        let pair = kt.pairs[kt.ids[ti] as usize];
        let t0 = starts[ti].max(ext.start);
        let t1 = ends[ti].min(ext.end);
        let x = to_x(t0);
        let w = (to_x(t1) - x).max(0.5);
        for si in cols.seg_range(ti) {
            if seg_clusters[si] != cid {
                continue;
            }
            let ry = panel.y + f64::from(seg_row0[si]) * panel.row_h;
            let rh = f64::from(seg_nrows[si]) * panel.row_h;
            scene.rect_stroked(
                x,
                ry,
                w,
                rh,
                pair.bg,
                pair.bg.to_grayscale().contrasting_fg(),
            );
            if opts.show_labels {
                let cfg = &opts.colormap.config;
                let id = prep.task_id(ti);
                let mut size = cfg.font_size_label.min(rh - 2.0);
                while size >= cfg.min_font_size_label && text_width(id, size) > w - 4.0 {
                    size -= 1.0;
                }
                if size >= cfg.min_font_size_label && rh >= size {
                    scene.text(
                        x + w / 2.0,
                        ry + rh / 2.0 + size * 0.4,
                        size,
                        id.to_string(),
                        pair.fg,
                        Anchor::Middle,
                    );
                }
            }
        }
    }
    scene.stats.lod_direct += direct.len();
}

/// Draws one task's rectangles (one per contiguous host range on
/// `cluster`) and its label when it fits.
#[allow(clippy::too_many_arguments)]
fn draw_task_rects(
    scene: &mut Scene,
    task: &Task,
    cluster: u32,
    panel: &Panel,
    opts: &RenderOptions,
    ext: &TimeExtent,
    to_x: impl Fn(f64) -> f64,
    pair: ColorPair,
) {
    // Clip to the panel extent (zooming drops invisible tasks). A
    // zero-duration task is kept only while it touches the window —
    // strictly outside it must not leave a sliver at the window edge.
    let t0 = task.start.max(ext.start);
    let t1 = task.end.min(ext.end);
    if t1 < t0 || (t1 <= t0 && task.duration() > 0.0) {
        return;
    }
    let x = to_x(t0);
    let w = (to_x(t1) - x).max(0.5);

    for a in &task.allocations {
        if a.cluster != cluster {
            continue;
        }
        for r in a.hosts.ranges() {
            let ry = panel.y + f64::from(r.start) * panel.row_h;
            let rh = f64::from(r.nb) * panel.row_h;
            scene.rect_stroked(
                x,
                ry,
                w,
                rh,
                pair.bg,
                pair.bg.to_grayscale().contrasting_fg(),
            );

            if opts.show_labels {
                let cfg = &opts.colormap.config;
                // Shrink the label to fit, but never below the configured
                // minimum font size — below that, omit it (paper's
                // min_fontsize_label knob).
                let mut size = cfg.font_size_label.min(rh - 2.0);
                while size >= cfg.min_font_size_label && text_width(&task.id, size) > w - 4.0 {
                    size -= 1.0;
                }
                if size >= cfg.min_font_size_label && rh >= size {
                    scene.text(
                        x + w / 2.0,
                        ry + rh / 2.0 + size * 0.4,
                        size,
                        task.id.clone(),
                        pair.fg,
                        Anchor::Middle,
                    );
                }
            }
        }
    }
}

fn draw_legend(scene: &mut Scene, opts: &RenderOptions, types: &[String], mut x: f64, y: f64) {
    let size = (opts.colormap.config.font_size_axes - 2.0).max(6.0);
    for kind in types {
        let pair = if kind == COMPOSITE_KIND {
            opts.colormap.resolve_composite([] as [&str; 0])
        } else {
            opts.colormap.resolve(kind)
        };
        scene.rect_stroked(x, y, 10.0, 10.0, pair.bg, Color::BLACK);
        scene.text(
            x + 14.0,
            y + 9.0,
            size,
            kind.clone(),
            Color::BLACK,
            Anchor::Start,
        );
        x += 14.0 + text_width(kind, size) + 16.0;
        if x > scene.width {
            break;
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // option tweaking reads clearer
mod tests {
    use super::*;
    use crate::options::RenderOptions;
    use jedule_core::{Allocation, HostSet, ScheduleBuilder};

    fn sched() -> Schedule {
        ScheduleBuilder::new()
            .cluster(0, "c0", 8)
            .cluster(1, "c1", 4)
            .meta("alg", "demo")
            .task(Task::new("a", "computation", 0.0, 4.0).on(Allocation::contiguous(0, 0, 8)))
            .task(Task::new("b", "transfer", 3.0, 6.0).on(Allocation::contiguous(0, 2, 2)))
            .task(Task::new("c", "computation", 1.0, 5.0).on(Allocation::contiguous(1, 0, 4)))
            .build()
            .unwrap()
    }

    fn rects(scene: &Scene) -> Vec<(f64, f64, f64, f64)> {
        scene.rects().iter().map(|r| (r.x, r.y, r.w, r.h)).collect()
    }

    fn has_text(scene: &Scene, wanted: &str) -> bool {
        scene.texts().iter().any(|t| t.text == wanted)
    }

    #[test]
    fn emits_rect_per_contiguous_range() {
        let s = ScheduleBuilder::new()
            .cluster(0, "c", 8)
            .task(
                Task::new("x", "t", 0.0, 1.0)
                    .on(Allocation::new(0, HostSet::from_hosts([0, 1, 4, 5, 7]))),
            )
            .build()
            .unwrap();
        let scene = layout(&s, &RenderOptions::default());
        // 1 panel frame + 3 task rects (ranges 0-1, 4-5, 7) + 1 legend swatch.
        let (r, _, _) = scene.census();
        assert_eq!(r, 1 + 3 + 1);
    }

    #[test]
    fn scene_has_positive_size_and_prims() {
        let scene = layout(&sched(), &RenderOptions::default());
        assert!(scene.width > 0.0 && scene.height > 0.0);
        let (r, l, t) = scene.census();
        assert!(r >= 5, "rects {r}");
        assert!(l > 4, "lines {l}");
        assert!(t > 4, "texts {t}");
    }

    #[test]
    fn cluster_filter_drops_other_panels() {
        let all = layout(&sched(), &RenderOptions::default());
        let mut o = RenderOptions::default();
        o.cluster = Some(1);
        let one = layout(&sched(), &o);
        assert!(one.height < all.height);
        let (r_all, ..) = all.census();
        let (r_one, ..) = one.census();
        assert!(r_one < r_all);
    }

    #[test]
    fn composites_add_rects() {
        let mut with = RenderOptions::default();
        with.show_composites = true;
        let mut without = RenderOptions::default();
        without.show_composites = false;
        let (rw, ..) = layout(&sched(), &with).census();
        let (ro, ..) = layout(&sched(), &without).census();
        // Tasks a and b overlap on hosts 2-3 of cluster 0 → 1 extra rect
        // and 1 extra legend entry.
        assert_eq!(rw, ro + 2);
    }

    #[test]
    fn time_window_clips_tasks() {
        let mut o = RenderOptions::default();
        o.time_window = Some((10.0, 20.0)); // beyond all tasks
        o.show_composites = false;
        let s = sched();
        let prep = PreparedSchedule::new(s.clone());
        prep.warm();
        let scene = layout_prepared(&prep, &o);
        // Only frames + legend remain.
        let task_rects: Vec<_> = rects(&scene)
            .into_iter()
            .filter(|(_, _, w, h)| *w > 1.0 && *h > 1.0 && *w < 700.0)
            .collect();
        // Panel frames are full-width; tasks were clipped away.
        assert!(
            task_rects
                .iter()
                .all(|(_, _, w, _)| *w > 600.0 || *w <= 10.0),
            "unexpected rects {task_rects:?}"
        );
        // Every task was culled by the warmed bundle's interval index.
        assert_eq!(scene.stats.culled, 2 * 3);
        // A one-shot render builds no index just to cull: its column scan
        // clips the same tasks and draws the same document.
        let one_shot = layout(&s, &o);
        assert_eq!(one_shot.stats.culled, 0);
        assert_eq!(one_shot.stats.clipped, 2 * 3);
        assert_eq!(crate::svg::to_svg(&one_shot), crate::svg::to_svg(&scene));
    }

    #[test]
    fn culled_render_matches_full_scan() {
        for window in [(2.0, 4.0), (0.5, 5.5), (3.9, 4.1)] {
            let mut culled = RenderOptions::default();
            culled.time_window = Some(window);
            let mut scanned = culled.clone();
            scanned.cull = false;
            let a = layout(&sched(), &culled);
            let b = layout(&sched(), &scanned);
            // Identical primitives in identical order (stats differ).
            assert_eq!(crate::svg::to_svg(&a), crate::svg::to_svg(&b));
            assert_eq!(b.stats.culled, 0);
        }
    }

    #[test]
    fn zero_duration_task_outside_window_leaves_no_sliver() {
        let s = ScheduleBuilder::new()
            .cluster(0, "c", 2)
            .task(Task::new("ev", "t", 1.0, 1.0).on(Allocation::contiguous(0, 0, 1)))
            .task(Task::new("w", "t", 10.0, 20.0).on(Allocation::contiguous(0, 1, 1)))
            .build()
            .unwrap();
        let mut o = RenderOptions::default();
        o.time_window = Some((10.0, 20.0));
        o.show_composites = false;
        let scene = layout(&s, &o);
        // Frame + task "w" + legend swatch; no 0.5 px sliver for "ev".
        let (r, _, _) = scene.census();
        assert_eq!(r, 3, "{:?}", rects(&scene));
    }

    #[test]
    fn lod_off_matches_auto_for_wide_tasks() {
        // Every task in sched() is far wider than 1 px at width 800.
        let mut auto = RenderOptions::default();
        auto.lod = LodMode::Auto;
        let mut off = RenderOptions::default();
        off.lod = LodMode::Off;
        let a = layout(&sched(), &auto);
        let b = layout(&sched(), &off);
        assert_eq!(crate::svg::to_svg(&a), crate::svg::to_svg(&b));
        assert_eq!(a.stats.lod_aggregated, 0);
        assert_eq!(a.stats.lod_direct, 3);
        assert_eq!(b.stats.lod_direct, 3);
    }

    #[test]
    fn lod_force_aggregates_into_strips() {
        let mut o = RenderOptions::default();
        o.lod = LodMode::Force;
        o.show_composites = false;
        let scene = layout(&sched(), &o);
        assert_eq!(scene.stats.lod_direct, 0);
        assert_eq!(scene.stats.lod_aggregated, 3);
        assert!(scene.stats.lod_strips > 0);
        // Strips replace the per-task stroked rects: no task labels.
        assert!(!has_text(&scene, "a"));
    }

    #[test]
    fn lod_auto_aggregates_subpixel_tasks() {
        // 20000 back-to-back tasks across an 800 px canvas: each is well
        // under one pixel wide.
        let mut b = ScheduleBuilder::new().cluster(0, "c", 4);
        for i in 0..20000 {
            let t = i as f64;
            b =
                b.task(
                    Task::new(format!("t{i}"), "computation", t, t + 1.0)
                        .on(Allocation::contiguous(0, (i % 4) as u32, 1)),
                );
        }
        let s = b.build().unwrap();
        let mut o = RenderOptions::default();
        o.show_composites = false;
        let scene = layout(&s, &o);
        assert_eq!(scene.stats.lod_aggregated, 20000);
        assert_eq!(scene.stats.lod_direct, 0);
        assert!(scene.stats.lod_strips > 0);
        // The strip count is bounded by rows × plot columns (4 × ~716),
        // not by the task count.
        let (r, _, _) = scene.census();
        assert!(r < 3000, "rects {r}");

        // Determinism: a second run yields the identical scene.
        let again = layout(&s, &o);
        assert_eq!(scene, again);
    }

    #[test]
    fn explicit_height_respected() {
        let mut o = RenderOptions::default();
        o.height = Some(480.0);
        let scene = layout(&sched(), &o);
        assert_eq!(scene.height, 480.0);
    }

    #[test]
    fn scaled_vs_aligned_differ() {
        use jedule_core::AlignMode;
        let mut scaled = RenderOptions::default();
        scaled.align = AlignMode::Scaled;
        scaled.show_composites = false;
        let mut aligned = RenderOptions::default();
        aligned.align = AlignMode::Aligned;
        aligned.show_composites = false;
        let s_scene = layout(&sched(), &scaled);
        let a_scene = layout(&sched(), &aligned);
        // Task "c" on cluster 1 spans the full width in scaled mode
        // (extent [1,5]) but not in aligned mode (extent [0,6]).
        assert_ne!(rects(&s_scene), rects(&a_scene));
    }

    #[test]
    fn labels_suppressed_below_min_font() {
        let s = ScheduleBuilder::new()
            .cluster(0, "c", 2)
            .task(
                Task::new("very-long-task-identifier", "t", 0.0, 0.001)
                    .on(Allocation::contiguous(0, 0, 1)),
            )
            .task(Task::new("q", "t", 0.001, 10.0).on(Allocation::contiguous(0, 1, 1)))
            .build()
            .unwrap();
        let mut o = RenderOptions::default();
        o.height = Some(300.0);
        o.lod = LodMode::Off; // the 0.001 s task is sub-pixel
        let scene = layout(&s, &o);
        assert!(!has_text(&scene, "very-long-task-identifier"));
        assert!(has_text(&scene, "q"));
    }

    #[test]
    fn meta_header_rendered_when_enabled() {
        let mut on = RenderOptions::default();
        on.show_meta = true;
        let mut off = RenderOptions::default();
        off.show_meta = false;
        let scene_on = layout(&sched(), &on);
        let scene_off = layout(&sched(), &off);
        let has_meta = |s: &Scene| s.texts().iter().any(|t| t.text.contains("alg = demo"));
        assert!(has_meta(&scene_on));
        assert!(!has_meta(&scene_off));
    }

    #[test]
    fn title_rendered() {
        let o = RenderOptions::default().with_title("CPA vs MCPA");
        let scene = layout(&sched(), &o);
        assert!(has_text(&scene, "CPA vs MCPA"));
    }

    #[test]
    fn huge_cluster_rows_shrink() {
        let mut b = ScheduleBuilder::new().cluster(0, "big", 1024);
        b = b.simple_task("job", 0.0, 10.0, 0, 0, 512);
        let s = b.build().unwrap();
        let scene = layout(&s, &RenderOptions::default());
        // Auto height stays bounded even for 1024 rows: 1 px per row
        // plus fixed chrome.
        assert!(scene.height < 1200.0, "height {}", scene.height);
    }

    #[test]
    fn profile_strip_adds_height_and_rects() {
        let mut with = RenderOptions::default();
        with.show_profile = true;
        let without = RenderOptions::default();
        let s_with = layout(&sched(), &with);
        let s_without = layout(&sched(), &without);
        assert!(s_with.height > s_without.height);
        let (r_with, ..) = s_with.census();
        let (r_without, ..) = s_without.census();
        // Frame + at least one busy bar.
        assert!(r_with >= r_without + 2, "{r_with} vs {r_without}");
        assert!(has_text(&s_with, "busy"));
    }

    #[test]
    fn empty_schedule_still_renders() {
        let s = ScheduleBuilder::new().cluster(0, "c", 4).build().unwrap();
        let scene = layout(&s, &RenderOptions::default());
        let (r, l, _) = scene.census();
        assert!(r >= 1);
        assert!(l >= 1);
    }

    /// A warmed bundle (index culling, one reused dirty scratch, several
    /// thread counts) draws byte-for-byte what a one-shot wrap draws
    /// (column scan, fresh scratch, one thread).
    #[test]
    fn warmed_layout_matches_one_shot_across_options() {
        use jedule_core::AlignMode;
        let s = sched();
        let prep = PreparedSchedule::new(s.clone());
        prep.warm();
        let mut variants: Vec<RenderOptions> = Vec::new();
        variants.push(RenderOptions::default());
        let mut o = RenderOptions::default();
        o.show_composites = false;
        variants.push(o);
        let mut o = RenderOptions::default();
        o.time_window = Some((2.0, 4.0));
        variants.push(o);
        let mut o = RenderOptions::default();
        o.time_window = Some((2.0, 4.0));
        o.show_composites = false;
        variants.push(o);
        let mut o = RenderOptions::default();
        o.align = AlignMode::Scaled;
        o.cluster = Some(1);
        variants.push(o);
        let mut o = RenderOptions::default();
        o.lod = LodMode::Force;
        o.show_profile = true;
        o.show_meta = true;
        variants.push(o);
        let mut scratch = LayoutScratch::new();
        for (i, o) in variants.iter().enumerate() {
            let mut scan = o.clone().with_threads(1);
            scan.cull = false;
            let one_shot = crate::svg::to_svg(&layout(&s, &scan));
            for threads in [1, 2, 3, 5] {
                let o = o.clone().with_threads(threads);
                let warm = layout_prepared_scratch(&prep, &o, &mut scratch);
                assert_eq!(
                    crate::svg::to_svg(&warm),
                    one_shot,
                    "variant {i}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn warmed_layout_empty_schedule() {
        let s = ScheduleBuilder::new().cluster(0, "c", 4).build().unwrap();
        let prep = PreparedSchedule::new(s.clone());
        prep.warm();
        let one_shot = layout(&s, &RenderOptions::default());
        let warm = layout_prepared(&prep, &RenderOptions::default());
        assert_eq!(crate::svg::to_svg(&one_shot), crate::svg::to_svg(&warm));
    }
}
