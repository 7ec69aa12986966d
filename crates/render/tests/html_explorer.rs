//! Properties of the HTML explorer back-end (`--fmt html`):
//!
//! * the page embeds an SVG document byte-identical to
//!   `svg::to_svg(layout(...))` for the same schedule and options — the
//!   explorer never re-derives pixels, it wraps the one true scene;
//! * the page is single-file: no external references (`http(s)://`
//!   outside the SVG xmlns declaration, `src=`, `@import`), no leftover
//!   template placeholders, balanced tags;
//! * the exported frame geometry matches the drawn scene's canvas and
//!   panel structure, so the JS hit-testing operates on exactly the
//!   rectangles the layout painted.

use jedule_core::{Allocation, PreparedSchedule, Schedule, ScheduleBuilder, Task};
use jedule_render::html::{explore_shell, to_html};
use jedule_render::{frame_geometry, layout, render, svg, LodMode, OutputFormat, RenderOptions};
use proptest::prelude::*;

fn arb_schedule() -> BoxedStrategy<Schedule> {
    proptest::collection::vec(
        (0.0f64..80.0, 0.1f64..15.0, 0u32..2, 0u32..6, 1u32..=3),
        1..40,
    )
    .prop_map(|tasks| {
        let mut b = ScheduleBuilder::new()
            .cluster(0, "alpha", 8)
            .cluster(1, "beta", 8)
            .meta("alg", "prop");
        for (i, (start, dur, cluster, first, nb)) in tasks.into_iter().enumerate() {
            b = b.task(
                Task::new(
                    format!("t{i}"),
                    if i % 2 == 0 {
                        "computation"
                    } else {
                        "transfer"
                    },
                    start,
                    start + dur,
                )
                .on(Allocation::contiguous(cluster, first, nb))
                .with_attr("slot", i.to_string()),
            );
        }
        b.build().expect("generated schedule is valid")
    })
    .boxed()
}

fn arb_options() -> BoxedStrategy<RenderOptions> {
    (
        200.0f64..900.0,
        any::<bool>(),
        any::<bool>(),
        (any::<bool>(), 0.0f64..40.0),
    )
        .prop_map(|(width, title, force_lod, (windowed, t0))| RenderOptions {
            format: OutputFormat::Html,
            width,
            title: title.then(|| "prop title".to_string()),
            lod: if force_lod {
                LodMode::Force
            } else {
                LodMode::Auto
            },
            time_window: windowed.then_some((t0, t0 + 10.0)),
            threads: 1,
            ..RenderOptions::default()
        })
        .boxed()
}

/// A page may reference `http://` exactly once: the SVG namespace
/// declaration. Everything else must be local.
fn external_refs(page: &str) -> Vec<&str> {
    page.lines()
        .filter(|l| {
            let l = l.replace("xmlns=\"http://www.w3.org/2000/svg\"", "");
            l.contains("http://")
                || l.contains("https://")
                || l.contains("src=")
                || l.contains("@import")
        })
        .collect()
}

fn tag_balance(page: &str, tag: &str) -> (usize, usize) {
    let opens = page.matches(&format!("<{tag}")).count();
    let closes = page.matches(&format!("</{tag}")).count();
    (opens, closes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole identity: the static html output embeds the SVG
    /// document byte-for-byte as `to_svg` produces it for the same
    /// schedule and options.
    #[test]
    fn static_html_embeds_byte_identical_svg(
        s in arb_schedule(),
        opts in arb_options(),
    ) {
        let scene = layout(&s, &opts);
        let expected_svg = svg::to_svg(&scene);
        let page = to_html(&PreparedSchedule::borrowed(&s), &scene, &opts);
        prop_assert!(page.contains(&expected_svg), "page does not embed the exact SVG");
        // The whole-pipeline render() for fmt html is that same page.
        let rendered = render(&s, &opts);
        prop_assert_eq!(String::from_utf8(rendered).unwrap(), page);
    }

    /// Single-file discipline and template hygiene, for arbitrary input.
    #[test]
    fn html_page_is_self_contained(
        s in arb_schedule(),
        opts in arb_options(),
    ) {
        let scene = layout(&s, &opts);
        let page = to_html(&PreparedSchedule::borrowed(&s), &scene, &opts);
        let refs = external_refs(&page);
        prop_assert!(refs.is_empty(), "external references: {refs:?}");
        prop_assert!(!page.contains("__JEDULE_"), "unfilled placeholder");
        for tag in ["html", "head", "body", "div", "script", "style", "svg"] {
            let (o, c) = tag_balance(&page, tag);
            prop_assert_eq!(o, c, "unbalanced <{}>", tag);
        }
    }

    /// The exported geometry describes the drawn scene: same canvas,
    /// one panel per cluster, panels inside the canvas.
    #[test]
    fn frame_geometry_matches_scene(
        s in arb_schedule(),
        opts in arb_options(),
    ) {
        let scene = layout(&s, &opts);
        let geom = frame_geometry(&PreparedSchedule::borrowed(&s), &opts);
        prop_assert_eq!(geom.width, scene.width);
        prop_assert_eq!(geom.height, scene.height);
        prop_assert_eq!(geom.panels.len(), s.clusters.len());
        for (p, c) in geom.panels.iter().zip(&s.clusters) {
            prop_assert_eq!(p.cluster, c.id);
            prop_assert_eq!(p.hosts, c.hosts);
            prop_assert!((p.h - p.row_h * f64::from(c.hosts)).abs() < 1e-9);
            prop_assert!(p.y >= 0.0 && p.y + p.h <= scene.height + 1e-9);
            prop_assert!(p.x >= 0.0 && p.x + p.w <= scene.width + 1e-9);
        }
    }
}

#[test]
fn serve_shell_is_self_contained_too() {
    let page = explore_shell("figures/fig1_task.jed", 800.0);
    let refs = external_refs(&page);
    assert!(refs.is_empty(), "external references: {refs:?}");
    assert!(!page.contains("__JEDULE_"));
    for tag in ["html", "head", "body", "div", "script", "style"] {
        let (o, c) = tag_balance(&page, tag);
        assert_eq!(o, c, "unbalanced <{tag}>");
    }
}

#[test]
fn hostile_ids_and_attrs_never_escape_their_contexts() {
    let s = ScheduleBuilder::new()
        .cluster(0, "c<script>alert(1)</script>", 2)
        .task(
            Task::new("</script><svg onload=x>", "bad&kind", 0.0, 1.0)
                .on(Allocation::contiguous(0, 0, 1))
                .with_attr("k<", "v>&\"'"),
        )
        .build()
        .unwrap();
    let opts = RenderOptions {
        format: OutputFormat::Html,
        title: Some("<title>".to_string()),
        threads: 1,
        ..RenderOptions::default()
    };
    let scene = layout(&s, &opts);
    let page = to_html(&PreparedSchedule::borrowed(&s), &scene, &opts);
    // The boot JSON escapes every angle bracket, so the only `</script`
    // sequences in the page are the two real closers.
    let (o, c) = tag_balance(&page, "script");
    assert_eq!(o, c);
    assert_eq!(c, 2, "task data leaked a script closer");
}
