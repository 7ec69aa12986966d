//! Byte-identity of renders served from a `.jpack` snapshot: encoding a
//! schedule to the binary pack, loading it back, and rendering through
//! the packed [`PreparedSchedule`] must produce *byte-for-byte* the same
//! SVG and PNG documents as a one-shot render of the original schedule —
//! including task-label text (served from the pack's string blob without
//! materializing tasks), the utilization profile (computed from the
//! packed index), meta lines, and composite glyphs.

use jedule_core::snap;
use jedule_core::{AlignMode, Allocation, PreparedSchedule, Schedule, ScheduleBuilder, Task};
use jedule_render::html::{meta_json, TASK_EMBED_CAP};
use jedule_render::{render, render_prepared, LodMode, OutputFormat, RenderOptions};
use proptest::prelude::*;

/// Round-trips a schedule through the in-memory pack encoder/loader.
fn packed(s: &Schedule) -> PreparedSchedule<'static> {
    let bytes = snap::write_pack(
        &PreparedSchedule::new(s.clone()),
        snap::source_digest(b"id"),
    )
    .expect("pack writes");
    PreparedSchedule::from_pack(snap::load_bytes(&bytes).expect("pack loads"))
}

/// Schedules with attributes, meta, a second cluster and mixed widths,
/// so labels, legends and the profile strip all carry real content.
fn arb_schedule() -> BoxedStrategy<Schedule> {
    proptest::collection::vec(
        (0.0f64..100.0, 0.0f64..20.0, 0u32..2, 0u32..6, 1u32..=3),
        0..50,
    )
    .prop_map(|tasks| {
        let mut b = ScheduleBuilder::new()
            .cluster(0, "alpha", 8)
            .cluster(1, "beta", 8)
            .meta("source", "pack_identity_props");
        for (i, (start, dur, cluster, first, nb)) in tasks.into_iter().enumerate() {
            b = b.task(
                Task::new(format!("t{i}"), ["a", "b", "c"][i % 3], start, start + dur)
                    .on(Allocation::contiguous(cluster, first, nb))
                    .with_attr("k", "v"),
            );
        }
        b.build().expect("generated schedule is valid")
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// SVG and PNG bytes from the packed path equal the cold path for
    /// any window / LOD / composite / alignment combination.
    #[test]
    fn pack_render_is_byte_identical(
        s in arb_schedule(),
        t0 in -10.0f64..110.0,
        span in 0.5f64..60.0,
        force_lod in any::<bool>(),
        composites in any::<bool>(),
        scaled in any::<bool>(),
        windowed in any::<bool>(),
    ) {
        let prep = packed(&s);
        for format in [OutputFormat::Svg, OutputFormat::Png] {
            let mut o = RenderOptions {
                format,
                ..RenderOptions::default()
            };
            if windowed {
                o = o.with_time_window(t0, t0 + span);
            }
            if force_lod {
                o = o.with_lod(LodMode::Force);
            }
            o.show_composites = composites;
            if scaled {
                o.align = AlignMode::Scaled;
            }
            prop_assert_eq!(
                render_prepared(&prep, &o),
                render(&s, &o),
                "format {:?}", format
            );
        }
    }

    /// The label/meta/profile decorations — the paths that read strings
    /// and stats straight out of the pack — are also byte-exact.
    #[test]
    fn pack_render_decorations_are_byte_identical(s in arb_schedule()) {
        let prep = packed(&s);
        for format in [OutputFormat::Svg, OutputFormat::Png] {
            let o = RenderOptions {
                format,
                show_labels: true,
                show_meta: true,
                show_profile: true,
                title: Some("pack identity".into()),
                ..RenderOptions::default()
            };
            prop_assert_eq!(
                render_prepared(&prep, &o),
                render(&s, &o),
                "format {:?}", format
            );
        }
    }
}

/// A packed render must never materialize the `Schedule` — the whole
/// point of the pack path. `is_materialized` still answering `false`
/// after a full decorated render proves `schedule()` was never called.
#[test]
fn packed_render_does_not_materialize() {
    let mut b = ScheduleBuilder::new().cluster(0, "c", 4).meta("m", "v");
    for i in 0..200u32 {
        let start = f64::from(i % 40) * 0.7;
        b = b.task(
            Task::new(format!("t{i}"), "work", start, start + 0.9).on(Allocation::contiguous(
                0,
                i % 4,
                1,
            )),
        );
    }
    let s = b.build().unwrap();
    let prep = packed(&s);
    let o = RenderOptions {
        show_labels: true,
        show_meta: true,
        show_profile: true,
        show_composites: true,
        ..RenderOptions::default()
    };
    let _ = render_prepared(&prep, &o);
    assert!(prep.is_packed());
    assert!(
        !prep.is_materialized(),
        "render of a packed schedule materialized the task vector"
    );
}

/// The explorer's `/meta` document of a pack over the task-embed cap
/// reads only the bundle's accessors: it equals the text-path document
/// and leaves the `Schedule` unmaterialized.
#[test]
fn packed_meta_json_over_the_cap_does_not_materialize() {
    let mut b = ScheduleBuilder::new()
        .cluster(0, "c", 4)
        .cluster(1, "d", 2)
        .meta("m", "v");
    for i in 0..=TASK_EMBED_CAP as u32 {
        let start = f64::from(i % 97) * 0.5;
        b = b.task(
            Task::new(
                format!("t{i}"),
                ["work", "io"][(i % 2) as usize],
                start,
                start + 0.4,
            )
            .on(Allocation::contiguous(i % 2, i % 2, 1)),
        );
    }
    let s = b.build().unwrap();
    let prep = packed(&s);
    let o = RenderOptions::default();
    let m = meta_json(&prep, &o);
    assert!(
        !prep.is_materialized(),
        "meta JSON of a packed schedule materialized the task vector"
    );
    assert!(m.contains("\"truncated\":true"));
    assert_eq!(m, meta_json(&PreparedSchedule::borrowed(&s), &o));
}
