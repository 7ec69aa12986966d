//! Property tests for the observability layer (DESIGN.md §6): turning
//! instrumentation on must never change what the pipeline produces, the
//! counters must partition the work they count, and the exported trace
//! must be well-formed with properly nested spans.

use jedule::core::obs::{self, Collector};
use jedule::core::PreparedSchedule;
use jedule::prelude::*;
use jedule::render::LodMode;
use proptest::prelude::*;

/// Strategy: an arbitrary valid schedule on one cluster of `hosts`.
fn arb_schedule(max_tasks: usize) -> impl Strategy<Value = Schedule> {
    let hosts = 16u32;
    let task = (
        0..hosts,      // first host
        1..=4u32,      // host count (clamped)
        0.0..100.0f64, // start
        0.01..20.0f64, // duration
        0..3u8,        // type selector
    );
    proptest::collection::vec(task, 1..max_tasks).prop_map(move |specs| {
        let mut b = ScheduleBuilder::new().cluster(0, "c0", hosts);
        for (i, (h, nb, start, dur, ty)) in specs.into_iter().enumerate() {
            let nb = nb.min(hosts - h);
            let kind = ["computation", "transfer", "io"][ty as usize];
            b =
                b.task(
                    Task::new(format!("t{i}"), kind, start, start + dur)
                        .on(Allocation::contiguous(0, h, nb.max(1))),
                );
        }
        b.build().expect("generated schedules are valid")
    })
}

fn formats() -> [OutputFormat; 4] {
    [
        OutputFormat::Svg,
        OutputFormat::Png,
        OutputFormat::Ppm,
        OutputFormat::Ascii,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A render under a live collector is byte-identical to the same
    /// render with no instrumentation installed, for every back-end.
    /// (threads = 1: the sequential path is the byte-identity anchor.)
    #[test]
    fn instrumented_render_is_byte_identical(s in arb_schedule(16), lod in 0..3usize) {
        for format in formats() {
            let mut opts = RenderOptions::default().with_format(format);
            opts.threads = 1;
            opts.lod = [LodMode::Auto, LodMode::Off, LodMode::Force][lod];
            let plain = render(&s, &opts);
            let col = Collector::new();
            let instrumented = {
                let _g = col.install();
                render(&s, &opts)
            };
            prop_assert_eq!(&plain, &instrumented, "format {:?} differs", format);
            // And the collector really was live for that render.
            prop_assert!(col.report().stage_total_ms("render") > 0.0);
        }
    }

    /// Every task the parser counted in ends up in exactly one of the
    /// renderer's buckets: drawn directly, folded into an LOD strip,
    /// culled by the window index, or clipped by classify.
    #[test]
    fn counters_partition_the_tasks(s in arb_schedule(24), window_sel in 0.0..1.0f64) {
        // Roughly one run in four renders the full extent (no window).
        let window = (window_sel < 0.75).then_some(window_sel);
        let csv = jedule::xmlio::write_schedule_csv(&s);
        let col = Collector::new();
        {
            let _g = col.install();
            let parsed = jedule::xmlio::parse_any(&csv, None).unwrap();
            let mut opts = RenderOptions {
                threads: 1,
                ..RenderOptions::default()
            };
            if let Some(w0) = window {
                // A window inside the extent so culling actually fires.
                opts.time_window = Some((w0 * 100.0, w0 * 100.0 + 25.0));
            }
            render(&parsed, &opts);
        }
        let r = col.report();
        let parsed = r.counter("ingest.tasks_parsed");
        let buckets = r.counter("render.tasks_direct")
            + r.counter("render.tasks_lod_binned")
            + r.counter("render.tasks_culled")
            + r.counter("render.tasks_clipped");
        prop_assert_eq!(parsed, buckets,
            "direct {} + lod {} + culled {} + clipped {} != parsed {}",
            r.counter("render.tasks_direct"),
            r.counter("render.tasks_lod_binned"),
            r.counter("render.tasks_culled"),
            r.counter("render.tasks_clipped"),
            parsed);
    }

    /// The exported Chrome trace is well-formed JSON, every span's
    /// parent exists, and children lie within their parent's interval:
    /// on the same thread at one worker, and also across threads at two,
    /// where raster and deflate bands nest under the stage that started
    /// them.
    #[test]
    fn exported_trace_is_wellformed_and_nested(s in arb_schedule(16)) {
        for threads in [1, 2] {
            check_trace_nesting(&s, threads);
        }
    }
}

fn check_trace_nesting(s: &Schedule, threads: usize) {
    let col = Collector::new();
    {
        let _g = col.install();
        let prep = PreparedSchedule::borrowed(s);
        prep.warm();
        let mut opts = RenderOptions::default().with_format(OutputFormat::Png);
        opts.threads = threads;
        jedule::render::render_prepared(&prep, &opts);
    }
    let report = col.report();
    let doc = jedule::xmlio::json::parse(&report.to_chrome_trace()).unwrap();
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    prop_assert_eq!(events.len(), report.spans.len());
    for ev in events {
        prop_assert_eq!(ev.get("ph").and_then(|p| p.as_str()), Some("X"));
        prop_assert!(ev.get("ts").and_then(|t| t.as_f64()).is_some());
        prop_assert!(ev.get("dur").and_then(|d| d.as_f64()).unwrap() >= 0.0);
        prop_assert!(ev.get("name").and_then(|n| n.as_str()).is_some());
    }
    // Nesting, on the span records themselves (the trace mirrors
    // them one-to-one, as asserted above).
    const SLACK_US: f64 = 1.0; // sub-µs clock granularity
    let mut cross_thread = 0;
    for span in &report.spans {
        let Some(pid) = span.parent else { continue };
        let parent = report.find(pid).expect("parent span exists");
        if threads == 1 {
            prop_assert_eq!(parent.thread, span.thread, "parents are per-thread");
        }
        cross_thread += usize::from(parent.thread != span.thread);
        prop_assert!(
            span.start_us + SLACK_US >= parent.start_us,
            "child {} starts before parent {}",
            span.name,
            parent.name
        );
        prop_assert!(
            span.end_us() <= parent.end_us() + SLACK_US,
            "child {} ends after parent {}",
            span.name,
            parent.name
        );
    }
    // The metrics view agrees with the span records.
    let metrics = jedule::xmlio::json::parse(&report.to_metrics_json()).unwrap();
    let render_ms = metrics
        .get("stages")
        .and_then(|st| st.get("render"))
        .and_then(|r| r.get("wall_ms"))
        .and_then(|w| w.as_f64())
        .unwrap();
    // wall_ms is serialized with 4 decimals; allow that rounding.
    prop_assert!((render_ms - report.stage_total_ms("render")).abs() < 1e-3);
    if threads > 1 {
        prop_assert!(cross_thread > 0, "no worker span nested across threads");
    }
}

/// The round-trip demo from the README: a trace exported by the
/// observability layer is itself a schedule Jedule can ingest.
#[test]
fn exported_trace_feeds_back_into_ingest() {
    let col = Collector::new();
    {
        let _g = col.install();
        let _outer = obs::span("render");
        let _inner = obs::span("render.layout");
        std::hint::black_box(0);
    }
    let trace = col.report().to_chrome_trace();
    let schedule = jedule::xmlio::parse_any(&trace, None).expect("trace parses as a schedule");
    assert_eq!(schedule.tasks.len(), 2);
    assert_eq!(schedule.meta.get("source"), Some("chrome-trace"));
}
