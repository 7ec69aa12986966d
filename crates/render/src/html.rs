//! HTML explorer back-end: one self-contained interactive page.
//!
//! The static renderer ([`to_html`]) inlines the SVG scene — byte-for-byte
//! the [`crate::svg::to_svg`] document, property-tested — into a shell
//! with embedded CSS and vanilla JS: hover tooltips and click-for-details
//! from the task attributes, wheel/drag zoom-pan mirroring the
//! `ViewState` viewport math, and per-cluster focus (the paper's §II
//! interactive mode, in a browser). The page makes zero external
//! requests.
//!
//! The serve shell ([`explore_shell`]) is the SAME template with an empty
//! chart: its boot record points the JS at `/meta?file=...` for the
//! figure geometry and at `/explore?file=...&tile=1&...` for window/LOD
//! SVG tiles on pan/zoom. Sharing one `include_str!` template is what
//! keeps the static and the served explorer from drifting.
//!
//! Both modes boot from the same JSON shape ([`meta_json`]): canvas size,
//! per-panel plot rectangles and time extents (from
//! [`crate::layout::frame_geometry`], i.e. exactly what the layout
//! draws), clusters, the kind legend with resolved fill colors, and — up
//! to [`TASK_EMBED_CAP`] tasks — the task list the tooltip hit test scans
//! (latest start wins, like `ViewState::hit_test`).

use crate::layout::frame_geometry;
use crate::options::RenderOptions;
use crate::scene::Scene;
use crate::svg;
use jedule_core::PreparedSchedule;

/// Above this many tasks the meta JSON omits the per-task list (and sets
/// `"truncated": true`): a million-task bird's-eye page should not carry
/// a hundred-megabyte JSON blob for tooltips nobody can aim at anyway.
pub const TASK_EMBED_CAP: usize = 5000;

const TEMPLATE: &str = include_str!("explorer.html");

/// Escapes text interpolated into HTML content.
fn esc_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Appends a JSON string literal. `<`, `>` and `&` are emitted as
/// `\u00XX` escapes so the blob can sit inside a `<script>` element
/// without ever forming `</script` (or any other tag).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '<' => out.push_str("\\u003c"),
            '>' => out.push_str("\\u003e"),
            '&' => out.push_str("\\u0026"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a JSON number. JSON has no NaN/Infinity; a non-finite value
/// (which a valid schedule never produces) degrades to `null`.
fn push_num(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// The explorer boot/`/meta` JSON for a prepared schedule under `opts`.
///
/// Shape (`jedule-meta-v1`):
///
/// ```json
/// {
///   "schema": "jedule-meta-v1",
///   "width": 800, "height": 420,
///   "extent": {"t0": 0, "t1": 6},
///   "taskCount": 3, "truncated": false,
///   "clusters": [{"id": 0, "name": "c0", "hosts": 8}],
///   "panels": [{"cluster": 0, "name": "c0", "x": 72, "y": 47,
///               "w": 716, "h": 96, "rowH": 12, "hosts": 8,
///               "t0": 0, "t1": 6}],
///   "kinds": [{"name": "computation", "fill": "#..."}],
///   "tasks": [{"id": "a", "kind": "computation", "s": 0, "e": 4,
///              "alloc": [{"c": 0, "h": [[0, 8]]}],
///              "attrs": [["k", "v"]]}]
/// }
/// ```
///
/// `panels[*]` are the exact plot rectangles the layout draws
/// ([`frame_geometry`]); a panel with nothing scheduled omits `t0`/`t1`.
/// `extent` is the union of the panel extents (`null` when empty).
/// `tasks` is present only while `taskCount <= TASK_EMBED_CAP`.
///
/// Everything but `tasks` comes from the bundle's accessors (cached
/// extents, clusters, task count, kinds), so a pack-backed bundle
/// materializes its `Schedule` only to embed a task list under the cap.
pub fn meta_json(prep: &PreparedSchedule, opts: &RenderOptions) -> String {
    let geom = frame_geometry(prep, opts);
    let mut out = String::with_capacity(4096);
    out.push_str("{\"schema\":\"jedule-meta-v1\",\"width\":");
    push_num(&mut out, geom.width);
    out.push_str(",\"height\":");
    push_num(&mut out, geom.height);

    let mut extent: Option<(f64, f64)> = None;
    for p in &geom.panels {
        if let Some((a, b)) = p.extent {
            extent = Some(match extent {
                Some((lo, hi)) => (lo.min(a), hi.max(b)),
                None => (a, b),
            });
        }
    }
    out.push_str(",\"extent\":");
    match extent {
        Some((a, b)) => {
            out.push_str("{\"t0\":");
            push_num(&mut out, a);
            out.push_str(",\"t1\":");
            push_num(&mut out, b);
            out.push('}');
        }
        None => out.push_str("null"),
    }

    let n = prep.task_count();
    out.push_str(&format!(",\"taskCount\":{n}"));
    let truncated = n > TASK_EMBED_CAP;
    out.push_str(&format!(",\"truncated\":{truncated}"));

    out.push_str(",\"clusters\":[");
    for (i, c) in prep.clusters().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"id\":{},\"name\":", c.id));
        push_json_str(&mut out, &c.name);
        out.push_str(&format!(",\"hosts\":{}}}", c.hosts));
    }
    out.push(']');

    out.push_str(",\"panels\":[");
    for (i, p) in geom.panels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"cluster\":{},\"name\":", p.cluster));
        push_json_str(&mut out, &p.name);
        for (key, v) in [
            ("x", p.x),
            ("y", p.y),
            ("w", p.w),
            ("h", p.h),
            ("rowH", p.row_h),
        ] {
            out.push_str(&format!(",\"{key}\":"));
            push_num(&mut out, v);
        }
        out.push_str(&format!(",\"hosts\":{}", p.hosts));
        if let Some((a, b)) = p.extent {
            out.push_str(",\"t0\":");
            push_num(&mut out, a);
            out.push_str(",\"t1\":");
            push_num(&mut out, b);
        }
        out.push('}');
    }
    out.push(']');

    out.push_str(",\"kinds\":[");
    for (i, kind) in prep.kinds().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_str(&mut out, kind);
        out.push_str(&format!(
            ",\"fill\":\"{}\"}}",
            opts.colormap.resolve(kind).bg
        ));
    }
    out.push(']');

    if !truncated {
        out.push_str(",\"tasks\":[");
        for (i, t) in prep.schedule().tasks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            push_json_str(&mut out, &t.id);
            out.push_str(",\"kind\":");
            push_json_str(&mut out, &t.kind);
            out.push_str(",\"s\":");
            push_num(&mut out, t.start);
            out.push_str(",\"e\":");
            push_num(&mut out, t.end);
            out.push_str(",\"alloc\":[");
            for (j, a) in t.allocations.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"c\":{},\"h\":[", a.cluster));
                for (k, r) in a.hosts.ranges().iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{},{}]", r.start, r.nb));
                }
                out.push_str("]}");
            }
            out.push(']');
            if !t.attrs.is_empty() {
                out.push_str(",\"attrs\":[");
                for (j, (k, v)) in t.attrs.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push('[');
                    push_json_str(&mut out, k);
                    out.push(',');
                    push_json_str(&mut out, v);
                    out.push(']');
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push(']');
    }
    out.push('}');
    out
}

fn fill_template(title: &str, boot: &str, svg_doc: &str) -> String {
    TEMPLATE
        .replace("__JEDULE_TITLE__", &esc_html(title))
        .replacen("__JEDULE_BOOT__", boot, 1)
        .replacen("__JEDULE_SVG__", svg_doc, 1)
}

/// Renders the static explorer: the scene's SVG document (byte-identical
/// to [`svg::to_svg`]) inlined into the shared shell, booting from an
/// embedded [`meta_json`] record. One file, zero external references.
pub fn to_html(prep: &PreparedSchedule, scene: &Scene, opts: &RenderOptions) -> String {
    let mut boot = String::from("{\"mode\":\"static\",\"meta\":");
    boot.push_str(&meta_json(prep, opts));
    boot.push('}');
    let title = opts.title.as_deref().unwrap_or("jedule schedule");
    fill_template(title, &boot, &svg::to_svg(scene))
}

/// The serve-mode shell for `/explore?file=...`: the same template with
/// an empty chart and a boot record telling the JS which figure to
/// explore, at which canvas width. The page then fetches
/// `/meta?file=...` once and `/explore?...&tile=1` SVG tiles on
/// pan/zoom.
pub fn explore_shell(file: &str, width: f64) -> String {
    let mut boot = String::from("{\"mode\":\"serve\",\"file\":");
    push_json_str(&mut boot, file);
    boot.push_str(",\"width\":");
    push_num(&mut boot, width);
    boot.push('}');
    fill_template(file, &boot, "")
}

#[cfg(test)]
mod tests {
    use super::*;
    use jedule_core::{Allocation, Schedule, ScheduleBuilder, Task};

    fn sched() -> Schedule {
        ScheduleBuilder::new()
            .cluster(0, "c0", 8)
            .cluster(1, "c1", 4)
            .meta("alg", "demo")
            .task(
                Task::new("a", "computation", 0.0, 4.0)
                    .on(Allocation::contiguous(0, 0, 8))
                    .with_attr("note", "x < y & z"),
            )
            .task(Task::new("b", "transfer", 3.0, 6.0).on(Allocation::contiguous(1, 0, 4)))
            .build()
            .unwrap()
    }

    #[test]
    fn json_strings_cannot_break_out_of_script() {
        let mut s = String::new();
        push_json_str(&mut s, "</script><b>\"x\"\\</b>");
        assert!(!s.contains('<'));
        assert!(!s.contains('>'));
        assert_eq!(
            s,
            "\"\\u003c/script\\u003e\\u003cb\\u003e\\\"x\\\"\\\\\\u003c/b\\u003e\""
        );
    }

    #[test]
    fn meta_json_shape() {
        let s = sched();
        let m = meta_json(&PreparedSchedule::borrowed(&s), &RenderOptions::default());
        assert!(m.starts_with("{\"schema\":\"jedule-meta-v1\""));
        assert!(m.contains("\"taskCount\":2"));
        assert!(m.contains("\"truncated\":false"));
        assert!(m.contains("\"name\":\"c0\""));
        assert!(m.contains("\"tasks\":["));
        assert!(m.contains("\"alloc\":[{\"c\":0,\"h\":[[0,8]]}]"));
        // Attr values are escaped, never raw.
        assert!(m.contains("x \\u003c y \\u0026 z"));
        assert!(!m.contains("x < y"));
    }

    #[test]
    fn static_page_embeds_exact_svg_and_fills_all_placeholders() {
        let s = sched();
        let o = RenderOptions::default();
        let prep = PreparedSchedule::borrowed(&s);
        let scene = crate::layout::layout_prepared(&prep, &o);
        let page = to_html(&prep, &scene, &o);
        assert!(page.contains(&svg::to_svg(&scene)));
        assert!(!page.contains("__JEDULE_"));
        assert!(page.contains("\"mode\":\"static\""));
    }

    #[test]
    fn explore_shell_is_serve_mode_with_empty_chart() {
        let page = explore_shell("fig1_task.jed", 800.0);
        assert!(!page.contains("__JEDULE_"));
        assert!(page.contains("\"mode\":\"serve\""));
        assert!(page.contains("\"file\":\"fig1_task.jed\""));
        assert!(!page.contains("<svg"));
    }

    #[test]
    fn big_schedules_truncate_the_task_list() {
        let mut b = ScheduleBuilder::new().cluster(0, "c", 4);
        for i in 0..(TASK_EMBED_CAP + 1) {
            let t = i as f64;
            b = b.task(
                Task::new(format!("t{i}"), "w", t, t + 1.0).on(Allocation::contiguous(0, 0, 1)),
            );
        }
        let s = b.build().unwrap();
        let m = meta_json(&PreparedSchedule::borrowed(&s), &RenderOptions::default());
        assert!(m.contains("\"truncated\":true"));
        assert!(!m.contains("\"tasks\":["));
    }
}
