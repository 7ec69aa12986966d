//! Property tests of the [`PreparedSchedule`] render path: a warmed
//! bundle (window culling through its interval index, a reused dirty
//! [`LayoutScratch`], any thread count) must draw pixel-identically to a
//! one-shot wrap of the same schedule (column scan, fresh scratch, one
//! thread), for any window, LOD mode, alignment and composite setting —
//! and repeated window renders from one warmed instance must each match
//! their one-shot counterpart.

use jedule_core::{AlignMode, Allocation, PreparedSchedule, Schedule, ScheduleBuilder, Task};
use jedule_render::{
    layout, layout_prepared, layout_prepared_scratch, ppm, raster, svg, LayoutScratch, LodMode,
    RenderOptions,
};
use proptest::prelude::*;

/// The reference options: one thread and no culling, so the one-shot
/// wrap always scans every column even when its composite sweep has
/// built an index.
fn scan(o: &RenderOptions) -> RenderOptions {
    RenderOptions {
        cull: false,
        ..o.clone().with_threads(1)
    }
}

/// Rasterized bytes of a one-shot layout of a bare schedule.
fn one_shot_pixels(s: &Schedule, o: &RenderOptions) -> Vec<u8> {
    ppm::encode(&raster::rasterize(&layout(s, &scan(o))))
}

/// Rasterized bytes of a layout served from a kept bundle.
fn prep_pixels(p: &PreparedSchedule, o: &RenderOptions) -> Vec<u8> {
    ppm::encode(&raster::rasterize(&layout_prepared(p, o)))
}

/// A bundle with every render cache built up front.
fn warmed(s: &Schedule) -> PreparedSchedule<'static> {
    let prep = PreparedSchedule::new(s.clone());
    prep.warm();
    prep
}

/// Two-cluster schedules (exercising the per-cluster extent cache),
/// possibly with sub-pixel and zero-duration tasks.
fn arb_schedule() -> BoxedStrategy<Schedule> {
    proptest::collection::vec(
        (0.0f64..100.0, 0.0f64..20.0, 0u32..2, 0u32..6, 1u32..=3),
        0..60,
    )
    .prop_map(|tasks| {
        let mut b = ScheduleBuilder::new()
            .cluster(0, "alpha", 8)
            .cluster(1, "beta", 8);
        for (i, (start, dur, cluster, first, nb)) in tasks.into_iter().enumerate() {
            b = b.task(
                Task::new(
                    format!("t{i}"),
                    if i % 3 == 0 { "a" } else { "b" },
                    start,
                    start + dur,
                )
                .on(Allocation::contiguous(cluster, first, nb)),
            );
        }
        b.build().expect("generated schedule is valid")
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prepared_render_is_pixel_identical(
        s in arb_schedule(),
        t0 in -10.0f64..110.0,
        span in 0.5f64..60.0,
        force_lod in any::<bool>(),
        composites in any::<bool>(),
        scaled in any::<bool>(),
    ) {
        let mut o = RenderOptions::default().with_time_window(t0, t0 + span);
        if force_lod {
            o = o.with_lod(LodMode::Force);
        }
        o.show_composites = composites;
        if scaled {
            o.align = AlignMode::Scaled;
        }
        prop_assert_eq!(prep_pixels(&warmed(&s), &o), one_shot_pixels(&s, &o));
    }

    /// One warmed instance serves a series of windows (the interactive
    /// zoom/pan pattern); each frame matches a one-shot render.
    #[test]
    fn prepared_window_series_is_pixel_identical(
        s in arb_schedule(),
        windows in proptest::collection::vec((0.0f64..100.0, 0.5f64..40.0), 1..5),
    ) {
        let prep = warmed(&s);
        for (t0, span) in windows {
            let o = RenderOptions::default().with_time_window(t0, t0 + span);
            prop_assert_eq!(prep_pixels(&prep, &o), one_shot_pixels(&s, &o));
        }
    }

    /// A warmed bundle with a dirty, reused scratch buffer and varying
    /// thread counts emits byte-for-byte the same SVG document as a
    /// one-shot layout — the scratch carries capacity, never state.
    #[test]
    fn columnar_scratch_and_threads_are_byte_identical(
        s in arb_schedule(),
        t0 in -10.0f64..110.0,
        span in 0.5f64..60.0,
        force_lod in any::<bool>(),
        composites in any::<bool>(),
    ) {
        let prep = warmed(&s);
        let mut scratch = LayoutScratch::new();
        let mut o = RenderOptions::default().with_time_window(t0, t0 + span);
        if force_lod {
            o = o.with_lod(LodMode::Force);
        }
        o.show_composites = composites;
        let one_shot = svg::to_svg(&layout(&s, &scan(&o)));
        for threads in [1usize, 2, 3, 5] {
            let o = o.clone().with_threads(threads);
            let warm = svg::to_svg(&layout_prepared_scratch(&prep, &o, &mut scratch));
            prop_assert_eq!(&warm, &one_shot, "{} threads", threads);
        }
    }
}

/// A schedule big enough to cross the layout parallel-engagement
/// threshold, so classification chunking and row-banded density binning
/// genuinely fan out: the scene must stay byte-identical to the
/// single-threaded one-shot scan for every thread count, LOD mode and a
/// zoomed window.
#[test]
fn parallel_columnar_layout_is_byte_identical_at_scale() {
    let mut b = ScheduleBuilder::new()
        .cluster(0, "c0", 24)
        .cluster(1, "c1", 8);
    for i in 0..12_000u32 {
        let start = f64::from(i % 997) * 0.11;
        let dur = 0.05 + f64::from(i % 7) * 0.4;
        let task = Task::new(
            format!("t{i}"),
            ["a", "b", "c"][(i % 3) as usize],
            start,
            start + dur,
        );
        b = b.task(if i % 5 == 0 {
            task.on(Allocation::contiguous(1, i % 8, 1))
        } else {
            task.on(Allocation::contiguous(0, i % 23, 1 + (i % 2)))
        });
    }
    let s = b.build().unwrap();
    let prep = warmed(&s);
    let mut scratch = LayoutScratch::new();
    let mut variants: Vec<RenderOptions> = [LodMode::Auto, LodMode::Off, LodMode::Force]
        .into_iter()
        .map(|lod| RenderOptions::default().with_lod(lod))
        .collect();
    variants.push(RenderOptions::default().with_time_window(20.0, 40.0));
    for (vi, v) in variants.iter().enumerate() {
        let one_shot = svg::to_svg(&layout(&s, &scan(v)));
        for threads in [1usize, 2, 3, 5] {
            let o = v.clone().with_threads(threads);
            let warm = svg::to_svg(&layout_prepared_scratch(&prep, &o, &mut scratch));
            assert!(
                warm == one_shot,
                "variant {vi} with {threads} threads differs"
            );
        }
    }
}
