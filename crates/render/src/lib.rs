//! # jedule-render
//!
//! Rendering back-ends for the Jedule reproduction.
//!
//! A schedule is first turned into a resolution-independent [`Scene`] of
//! drawing primitives by the [`layout`](mod@layout) engine (panels per cluster, task
//! rectangles, composite overlays, axes, labels, meta header), then any
//! back-end serializes the scene:
//!
//! * [`svg`] — scalable vector graphics,
//! * [`png`] — true-color PNG via the built-in software rasterizer
//!   ([`raster`]) and a from-scratch encoder with fixed-Huffman DEFLATE,
//! * [`jpeg`] — baseline JFIF encoder (+ verification decoder),
//! * [`ppm`] — portable pixmap (handy for golden-image tests),
//! * [`pdf`] — single-page PDF 1.4 with Helvetica text, matching the
//!   paper's "high quality graphics … to be included in articles",
//! * [`ascii`] — ANSI terminal rendering used by the interactive mode.
//!
//! The choice of output format, canvas size, color map, alignment mode and
//! time window mirrors the original command-line parameters (paper,
//! §II-D2).

pub mod ascii;
pub mod dagviz;
pub mod deflate;
pub mod font;
pub mod html;
pub mod jpeg;
pub mod layout;
pub mod options;
pub mod pdf;
pub mod png;
pub mod ppm;
pub mod raster;
pub mod scene;
pub mod svg;
pub mod ticks;
pub mod tile;

pub use dagviz::{dag_scene, dag_to_svg, DagVizOptions};
pub use layout::{
    frame_geometry, layout, layout_prepared, layout_prepared_scratch, FrameGeom, LayoutScratch,
    PanelGeom,
};
pub use options::{LodMode, OutputFormat, RenderOptions};
pub use scene::{Anchor, LinePrim, PrimKind, PrimRef, RectPrim, Scene, SceneStats, TextPrim};

use jedule_core::{obs, PreparedSchedule, Schedule};

/// One-call rendering: lays out `schedule` and serializes it in
/// `options.format`, returning the output bytes — a one-shot wrap of
/// `schedule` in a [`PreparedSchedule::borrowed`] bundle, rendered by
/// [`render_prepared`].
pub fn render(schedule: &Schedule, options: &RenderOptions) -> Vec<u8> {
    render_prepared(&PreparedSchedule::borrowed(schedule), options)
}

/// Renders a [`PreparedSchedule`] in `options.format`, returning the
/// output bytes. Repeated renders of one bundle (interactive redraws,
/// `--window` series) reuse its cached extent/index/kind data instead of
/// rebuilding it per frame, and a bundle loaded from a `.jpack` snapshot
/// renders without ever materializing its `Schedule` (except for
/// `--fmt html` up to its embedded task cap). The raster back-ends
/// (PNG/JPEG/PPM) honor `options.threads`.
///
/// When an [`obs::Collector`] is installed the pipeline records spans
/// (`render` → `render.layout` / `render.raster` / `render.encode`) and
/// counters into it; with none installed instrumentation is a no-op and
/// the output bytes are identical either way (property-tested).
pub fn render_prepared(prep: &PreparedSchedule, options: &RenderOptions) -> Vec<u8> {
    let root = obs::span("render");
    let traced = root.id().is_some();
    let scene = {
        let _s = obs::span("render.layout");
        layout_prepared(prep, options)
    };
    if traced {
        let stats = scene.stats;
        obs::count("render.tasks_direct", stats.lod_direct as u64);
        obs::count("render.tasks_lod_binned", stats.lod_aggregated as u64);
        obs::count("render.lod_strips", stats.lod_strips as u64);
        obs::count("render.tasks_culled", stats.culled as u64);
        obs::count("render.tasks_clipped", stats.clipped as u64);
    }
    let raster_canvas = |threads| {
        let _s = obs::span("render.raster");
        raster::rasterize_threads(&scene, threads)
    };
    let encode = || obs::span("render.encode");
    let bytes = match options.format {
        OutputFormat::Svg => {
            let _s = encode();
            svg::to_svg(&scene).into_bytes()
        }
        OutputFormat::Png => {
            let canvas = raster_canvas(options.threads);
            let _s = encode();
            png::encode_with(&canvas, options.threads)
        }
        OutputFormat::Jpeg => {
            let canvas = raster_canvas(options.threads);
            let _s = encode();
            jpeg::encode(&canvas, 90)
        }
        OutputFormat::Ppm => {
            let canvas = raster_canvas(options.threads);
            let _s = encode();
            ppm::encode(&canvas)
        }
        OutputFormat::Pdf => {
            let _s = encode();
            pdf::to_pdf(&scene)
        }
        OutputFormat::Ascii => {
            let _s = encode();
            ascii::to_ascii(&scene, true).into_bytes()
        }
        OutputFormat::Html => {
            let _s = encode();
            html::to_html(prep, &scene, options).into_bytes()
        }
    };
    if traced {
        obs::count("encode.bytes_out", bytes.len() as u64);
    }
    bytes
}

/// Renders to a file, picking the format from `options`.
pub fn render_to_file(
    schedule: &Schedule,
    options: &RenderOptions,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    std::fs::write(path, render(schedule, options))
}
