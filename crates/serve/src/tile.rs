//! The tile-sharded render path (DESIGN.md §6c): a body-cache miss
//! assembles mostly-cached shards instead of re-rendering the figure.
//!
//! A figure's output is deterministic in `(input digest, options)`, so
//! its shards are too. Each shard is cached under a [`TileKey`] —
//! `(digest, window-bucket, row-band, lod, fmt)` — in one LRU that is
//! deliberately *larger-grained* than the body cache: when a window
//! series cycles more distinct views than the body cache holds, the
//! tile cache still retains every view's shards, and a revisit
//! reassembles them without laying the scene out again.
//!
//! Two shard kinds, both byte-identity-preserving (the contract
//! `jedule_render::tile` property-tests):
//!
//! * **SVG** tiles are serialized fragments of painter's-order
//!   primitive ranges; assembly is `header + fragments + footer`, so an
//!   all-warm request is pure concatenation — no layout, no
//!   serialization.
//! * **PNG** tiles are raw RGB row-bands; assembly concatenates pixels
//!   and re-runs the *sequential* encoder (the same single-deflate
//!   stream a cold `threads = 1` render produces), so warm requests
//!   skip layout and rasterization but still pay the encode.
//!
//! Alongside the tiles sits a **plan cache** `(digest, option key) →`
//! [`RenderPlan`]: the few bytes of geometry (canvas dims, primitive
//! count, SVG header) needed to enumerate a figure's tile keys without
//! building its scene. Plan hit + all tiles warm ⇒ zero layout work.
//!
//! Every tile lookup increments exactly one of
//! `jedule_tile_cache_{hits,misses}_total{fmt=…}` plus
//! `jedule_tile_lookups_total{fmt=…}` — hits + misses == lookups is an
//! exact partition the tests and the bench assert.

use crate::cache::LruCache;
use jedule_core::obs::{self, Registry};
use jedule_core::snap::source_digest;
use jedule_render::{svg, tile as rtile, LayoutScratch, OutputFormat, RenderOptions, Scene};
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// Per-worker layout scratch handed to `make_scene`, reused across
    /// tile misses and across requests: steady-state misses stop
    /// allocating candidate/classification buffers per render.
    static SCRATCH: RefCell<LayoutScratch> = RefCell::new(LayoutScratch::new());
}

/// Identity of one cached shard of one figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TileKey {
    /// Content digest of the input bytes ([`source_digest`], XXH64).
    pub digest: u64,
    /// [`source_digest`] of the canonical `width × time-window` view
    /// string — distinct views never share tiles (layout scales to the
    /// window).
    pub window_bucket: u64,
    /// Shard index: pixel row-band for rasters, primitive range for SVG.
    pub row_band: u32,
    /// Level-of-detail mode (`LodMode` as a small code).
    pub lod: u8,
    /// Output format code (0 = svg, 1 = png).
    pub fmt: u8,
}

/// The view half of a [`TileKey`].
pub fn window_bucket(width: f64, window: Option<(f64, f64)>) -> u64 {
    let canon = match window {
        Some((a, b)) => format!("w={width};win={a}:{b}"),
        None => format!("w={width};win=full"),
    };
    source_digest(canon.as_bytes())
}

/// What assembly needs to know about a figure without its scene.
pub struct RenderPlan {
    pub content_type: &'static str,
    pub kind: PlanKind,
}

pub enum PlanKind {
    Svg {
        /// The document prologue ([`svg::svg_header`]).
        header: String,
        /// Painter's-order primitive count (determines the shard list).
        prims: usize,
    },
    Raster {
        /// Canvas pixel dimensions (determine the row-band list).
        width: usize,
        height: usize,
    },
}

/// The shared tile + plan caches and the assembly logic over them.
pub struct TileStore {
    plans: LruCache<(u64, String), RenderPlan>,
    tiles: LruCache<TileKey, Vec<u8>>,
}

impl TileStore {
    /// `cap` bounds the tile LRU (shards, not figures). Plans are tiny;
    /// their cache is bounded separately but generously.
    pub fn new(cap: usize) -> TileStore {
        TileStore {
            plans: LruCache::new(if cap == 0 { 0 } else { cap.max(64) }),
            tiles: LruCache::new(cap),
        }
    }

    pub fn tiles_len(&self) -> usize {
        self.tiles.len()
    }

    pub fn plans_len(&self) -> usize {
        self.plans.len()
    }

    /// Renders `opts` through the tile cache. `make_scene` is invoked
    /// at most once, and only when a plan or tile is missing — the
    /// all-warm path never lays out. The closure receives this worker
    /// thread's reusable [`LayoutScratch`] so misses can run the
    /// zero-churn `layout_prepared_scratch` path. Returns the exact
    /// bytes a cold sequential whole-figure render would produce, plus
    /// the content type.
    pub fn render(
        &self,
        registry: &Registry,
        digest: u64,
        opts: &RenderOptions,
        opt_key: &str,
        make_scene: &mut dyn FnMut(&mut LayoutScratch) -> Scene,
    ) -> (Vec<u8>, &'static str) {
        let fmt_code: u8 = match opts.format {
            OutputFormat::Png => 1,
            _ => 0,
        };
        let fmt_label = if fmt_code == 1 { "png" } else { "svg" };
        let lod_code = opts.lod as u8;
        let bucket = window_bucket(opts.width, opts.time_window);
        let mut scene_memo: Option<Scene> = None;
        // Lend the worker-local scratch to the (at most one) layout call.
        let mut build = || SCRATCH.with_borrow_mut(|sc| make_scene(sc));

        let plan_key = (digest, opt_key.to_string());
        let plan = match self.plans.get(&plan_key) {
            Some(p) => {
                registry.counter_add("jedule_plan_cache_hits_total", &[], 1);
                p
            }
            None => {
                registry.counter_add("jedule_plan_cache_misses_total", &[], 1);
                let s = scene_memo.get_or_insert_with(&mut build);
                let plan = match opts.format {
                    OutputFormat::Png => RenderPlan {
                        content_type: "image/png",
                        kind: PlanKind::Raster {
                            width: s.width.round().max(1.0) as usize,
                            height: s.height.round().max(1.0) as usize,
                        },
                    },
                    _ => RenderPlan {
                        content_type: "image/svg+xml",
                        kind: PlanKind::Svg {
                            header: svg::svg_header(s),
                            prims: s.len(),
                        },
                    },
                };
                self.plans.insert(plan_key, Arc::new(plan))
            }
        };

        let key = |row_band: u32| TileKey {
            digest,
            window_bucket: bucket,
            row_band,
            lod: lod_code,
            fmt: fmt_code,
        };
        let bytes = match &plan.kind {
            PlanKind::Svg { header, prims } => {
                let mut out = Vec::with_capacity(header.len() + prims * 64);
                out.extend_from_slice(header.as_bytes());
                for (band, (a, b)) in rtile::svg_ranges(*prims).into_iter().enumerate() {
                    let frag = self.tile(registry, fmt_label, key(band as u32), || {
                        let s = scene_memo.get_or_insert_with(&mut build);
                        svg::svg_fragment(s, a..b).into_bytes()
                    });
                    out.extend_from_slice(&frag);
                }
                out.extend_from_slice(svg::SVG_FOOTER.as_bytes());
                out
            }
            PlanKind::Raster { width, height } => {
                let mut bands = Vec::new();
                for (band, (r0, r1)) in rtile::raster_bands(*height).into_iter().enumerate() {
                    bands.push(self.tile(registry, fmt_label, key(band as u32), || {
                        let s = scene_memo.get_or_insert_with(&mut build);
                        rtile::raster_tile_pixels(s, r0, r1)
                    }));
                }
                let shared: Vec<&[u8]> = bands.iter().map(|b| b.as_slice()).collect();
                rtile::png_from_row_tiles(*width, *height, &shared)
            }
        };
        (bytes, plan.content_type)
    }

    /// One tile lookup: exactly one of hit/miss fires per call.
    fn tile(
        &self,
        registry: &Registry,
        fmt: &str,
        key: TileKey,
        make: impl FnOnce() -> Vec<u8>,
    ) -> Arc<Vec<u8>> {
        registry.counter_add("jedule_tile_lookups_total", &[("fmt", fmt)], 1);
        if let Some(t) = self.tiles.get(&key) {
            registry.counter_add("jedule_tile_cache_hits_total", &[("fmt", fmt)], 1);
            // Per-request visibility too: the access log classifies a
            // body-cache miss as "tile" when warm shards helped.
            obs::count("serve.tile_hit", 1);
            return t;
        }
        registry.counter_add("jedule_tile_cache_misses_total", &[("fmt", fmt)], 1);
        obs::count("serve.tile_miss", 1);
        self.tiles.insert(key, Arc::new(make()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jedule_render::LodMode;

    fn scene() -> Scene {
        let mut s = Scene::new(120.0, 90.0);
        s.rect(2.0, 3.0, 100.0, 30.0, jedule_core::Color::new(0, 0, 200));
        s.line(0.0, 0.0, 120.0, 90.0, jedule_core::Color::BLACK);
        s
    }

    fn opts(format: OutputFormat) -> RenderOptions {
        RenderOptions {
            format,
            threads: 1,
            ..RenderOptions::default()
        }
    }

    #[test]
    fn window_bucket_separates_views() {
        assert_ne!(
            window_bucket(800.0, None),
            window_bucket(800.0, Some((0.0, 1.0)))
        );
        assert_ne!(
            window_bucket(800.0, Some((0.0, 1.0))),
            window_bucket(640.0, Some((0.0, 1.0)))
        );
        assert_eq!(
            window_bucket(800.0, Some((0.0, 1.0))),
            window_bucket(800.0, Some((0.0, 1.0)))
        );
    }

    #[test]
    fn svg_assembly_matches_direct_serialization_warm_and_cold() {
        let store = TileStore::new(256);
        let reg = Registry::new();
        let want = svg::to_svg(&scene()).into_bytes();
        for pass in 0..2 {
            let mut calls = 0;
            let (got, ct) = store.render(
                &reg,
                1,
                &opts(OutputFormat::Svg),
                "k",
                &mut |_: &mut LayoutScratch| {
                    calls += 1;
                    scene()
                },
            );
            assert_eq!(got, want, "pass {pass}");
            assert_eq!(ct, "image/svg+xml");
            // Cold pass lays out once; warm pass not at all.
            assert_eq!(calls, if pass == 0 { 1 } else { 0 });
        }
        assert_eq!(reg.counter_total("jedule_plan_cache_hits_total"), 1);
        assert_eq!(reg.counter_total("jedule_plan_cache_misses_total"), 1);
    }

    #[test]
    fn png_assembly_matches_sequential_whole_figure_encode() {
        let store = TileStore::new(256);
        let reg = Registry::new();
        let s = scene();
        let canvas = jedule_render::raster::rasterize(&s);
        let want = jedule_render::png::encode(&canvas);
        for _ in 0..2 {
            let (got, ct) = store.render(
                &reg,
                2,
                &opts(OutputFormat::Png),
                "k",
                &mut |_: &mut LayoutScratch| scene(),
            );
            assert_eq!(got, want);
            assert_eq!(ct, "image/png");
        }
        // 90 rows → 2 bands; second pass all-warm.
        assert_eq!(reg.counter_total("jedule_tile_cache_misses_total"), 2);
        assert_eq!(reg.counter_total("jedule_tile_cache_hits_total"), 2);
        assert_eq!(reg.counter_total("jedule_tile_lookups_total"), 4);
    }

    #[test]
    fn lod_and_fmt_keep_tiles_apart() {
        let store = TileStore::new(256);
        let reg = Registry::new();
        let mut o = opts(OutputFormat::Svg);
        store.render(&reg, 3, &o, "k-auto", &mut |_: &mut LayoutScratch| scene());
        o.lod = LodMode::Force;
        store.render(&reg, 3, &o, "k-force", &mut |_: &mut LayoutScratch| scene());
        // Same digest, different lod: no tile sharing.
        assert_eq!(reg.counter_total("jedule_tile_cache_hits_total"), 0);
        assert_eq!(
            reg.counter_total("jedule_tile_cache_misses_total"),
            reg.counter_total("jedule_tile_lookups_total")
        );
    }
}
