//! Concurrency and eviction-pressure tests of the serve-side
//! [`TileStore`]: assembled figures must be byte-identical to cold
//! whole-figure renders no matter how many threads race on the store or
//! how small the tile LRU is, and the hit/miss counters must partition
//! lookups exactly through it all.

use jedule_core::obs::Registry;
use jedule_core::{Allocation, PreparedSchedule, Schedule, ScheduleBuilder, Task};
use jedule_render::{layout, layout_prepared_scratch, OutputFormat, RenderOptions};
use jedule_serve::tile::TileStore;
use std::sync::Arc;

fn schedule(jobs: usize) -> Schedule {
    let mut b = ScheduleBuilder::new().cluster(0, "c0", 16);
    for i in 0..jobs {
        let start = (i as f64) * 0.7;
        b = b.task(
            Task::new(
                format!("t{i}"),
                if i % 2 == 0 {
                    "computation"
                } else {
                    "transfer"
                },
                start,
                start + 1.0 + (i % 5) as f64,
            )
            .on(Allocation::contiguous(
                0,
                (i % 12) as u32,
                1 + (i % 4) as u32,
            )),
        );
    }
    b.build().unwrap()
}

fn options(fmt: OutputFormat, window: Option<(f64, f64)>) -> (RenderOptions, String) {
    let opts = RenderOptions {
        format: fmt,
        width: 320.0,
        time_window: window,
        threads: 1,
        ..RenderOptions::default()
    };
    let key = format!("fmt={fmt:?};w=320;window={window:?}");
    (opts, key)
}

fn cold(s: &Schedule, opts: &RenderOptions) -> Vec<u8> {
    jedule_render::render(s, opts)
}

/// Many threads × many views × a tile cache far too small to hold them:
/// every assembled figure must still equal its cold render, and
/// hits + misses == lookups must hold exactly.
#[test]
fn concurrent_assembly_is_byte_identical_under_eviction_pressure() {
    let s = Arc::new(schedule(120));
    // Misses lay out through the kept bundle + scratch path the server
    // uses — its bytes must equal the one-shot renders below.
    let prep = Arc::new(PreparedSchedule::new((*s).clone()));
    // 8 views × 2 formats, but only 6 tiles of room: constant eviction.
    let store = Arc::new(TileStore::new(6));
    let reg = Registry::new();

    let views: Vec<Option<(f64, f64)>> = (0..8)
        .map(|i| {
            if i == 0 {
                None
            } else {
                Some((i as f64 * 5.0, i as f64 * 5.0 + 30.0))
            }
        })
        .collect();
    let mut expected = Vec::new();
    for fmt in [OutputFormat::Svg, OutputFormat::Png] {
        for w in &views {
            let (opts, key) = options(fmt, *w);
            expected.push((opts.clone(), key, cold(&s, &opts)));
        }
    }

    for threads in [1usize, 4, 8] {
        std::thread::scope(|scope| {
            for t in 0..threads {
                let store = Arc::clone(&store);
                let prep = Arc::clone(&prep);
                let reg = reg.clone();
                let expected = &expected;
                scope.spawn(move || {
                    // Each thread walks the views from a different
                    // offset so misses and hits interleave.
                    for i in 0..expected.len() {
                        let (opts, key, want) = &expected[(i + t * 3) % expected.len()];
                        let digest = 17;
                        let got = store.render(&reg, digest, opts, key, &mut |sc| {
                            layout_prepared_scratch(&prep, opts, sc)
                        });
                        assert_eq!(&got, want, "thread {t}, view {key}");
                    }
                });
            }
        });
    }

    let hits = reg.counter_total("jedule_tile_cache_hits_total");
    let misses = reg.counter_total("jedule_tile_cache_misses_total");
    let lookups = reg.counter_total("jedule_tile_lookups_total");
    assert_eq!(
        hits + misses,
        lookups,
        "partition must be exact (hits {hits}, misses {misses}, lookups {lookups})"
    );
    assert!(misses > 0, "a 6-tile cache must evict");
    assert!(hits > 0, "some shards must still be served warm");
}

/// A zero-capacity tile cache degenerates to always-cold rendering —
/// still byte-identical, every lookup a miss.
#[test]
fn zero_cap_store_stays_correct() {
    let s = schedule(40);
    let store = TileStore::new(0);
    let reg = Registry::new();
    for fmt in [OutputFormat::Svg, OutputFormat::Png] {
        let (opts, key) = options(fmt, None);
        let want = cold(&s, &opts);
        for _ in 0..2 {
            let got = store.render(&reg, 5, &opts, &key, &mut |_| layout(&s, &opts));
            assert_eq!(got, want);
        }
    }
    assert_eq!(reg.counter_total("jedule_tile_cache_hits_total"), 0);
    assert_eq!(
        reg.counter_total("jedule_tile_cache_misses_total"),
        reg.counter_total("jedule_tile_lookups_total")
    );
}

/// Warm assembly across formats: the second pass must not lay out at
/// all for SVG, and must reuse every raster band for PNG.
#[test]
fn warm_pass_skips_layout() {
    let s = schedule(60);
    let store = TileStore::new(4096);
    let reg = Registry::new();
    for fmt in [OutputFormat::Svg, OutputFormat::Png] {
        let (opts, key) = options(fmt, Some((3.0, 40.0)));
        let want = cold(&s, &opts);
        let mut layouts = 0;
        for pass in 0..2 {
            let got = store.render(&reg, 9, &opts, &key, &mut |_| {
                layouts += 1;
                layout(&s, &opts)
            });
            assert_eq!(got, want, "{fmt:?} pass {pass}");
        }
        assert_eq!(layouts, 1, "{fmt:?}: only the cold pass may lay out");
    }
}
