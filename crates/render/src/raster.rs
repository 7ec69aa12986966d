//! A small software rasterizer: an RGB canvas with rectangle, line and
//! bitmap-text drawing. Used by the PNG and PPM back-ends.
//!
//! For multi-core rendering a canvas can be a horizontal *band* of a
//! larger image ([`Canvas::band`]): drawing always happens in global
//! image coordinates, and pixels outside the band are clipped. Because
//! every coordinate is rounded in global space (never translated first),
//! a band renders bit-identically to the same rows of a full canvas, so
//! [`rasterize_threads`] can split a scene across workers and
//! concatenate the bands without any visible seam.

use crate::font;
use crate::scene::{Anchor, PrimKind, Scene};
use jedule_core::{parallel, Color};

/// An RGB8 pixel canvas — either a whole image or one horizontal band
/// of it.
pub struct Canvas {
    pub width: usize,
    /// Number of rows stored in `pixels` (the band height; equals the
    /// image height for a full canvas).
    pub height: usize,
    /// First global image row covered by this canvas (0 for a full
    /// canvas). All drawing coordinates are global; rows outside
    /// `y0..y0 + height` are clipped.
    pub y0: usize,
    /// Row-major RGB triples for rows `y0..y0 + height`.
    pub pixels: Vec<u8>,
}

impl Canvas {
    /// Creates a canvas filled with `bg`.
    pub fn new(width: usize, height: usize, bg: Color) -> Self {
        Canvas::band(width, 0, height, bg)
    }

    /// Creates a band covering global rows `y0..y0 + rows` of a wider
    /// image, filled with `bg`.
    pub fn band(width: usize, y0: usize, rows: usize, bg: Color) -> Self {
        let mut pixels = vec![0u8; width * rows * 3];
        for p in pixels.chunks_exact_mut(3) {
            p[0] = bg.r;
            p[1] = bg.g;
            p[2] = bg.b;
        }
        Canvas {
            width,
            height: rows,
            y0,
            pixels,
        }
    }

    /// Sets one pixel, addressed in global image coordinates (silently
    /// clips to the band).
    pub fn put(&mut self, x: i64, y: i64, c: Color) {
        if x < 0 || y < 0 || x as usize >= self.width {
            return;
        }
        let (x, y) = (x as usize, y as usize);
        if y < self.y0 || y - self.y0 >= self.height {
            return;
        }
        let i = ((y - self.y0) * self.width + x) * 3;
        self.pixels[i] = c.r;
        self.pixels[i + 1] = c.g;
        self.pixels[i + 2] = c.b;
    }

    /// Reads one pixel by global image coordinates (None when out of
    /// bounds or outside the band).
    pub fn get(&self, x: usize, y: usize) -> Option<Color> {
        if x >= self.width || y < self.y0 || y - self.y0 >= self.height {
            return None;
        }
        let i = ((y - self.y0) * self.width + x) * 3;
        Some(Color::new(
            self.pixels[i],
            self.pixels[i + 1],
            self.pixels[i + 2],
        ))
    }

    /// Fills an axis-aligned rectangle (clipped).
    pub fn fill_rect(&mut self, x: f64, y: f64, w: f64, h: f64, c: Color) {
        let x0 = x.round().max(0.0) as usize;
        let x1 = ((x + w).round().max(0.0) as usize).min(self.width);
        // Rounded in global coordinates, then clipped to the band, so a
        // band fills exactly the rows a full canvas would.
        let gy0 = (y.round().max(0.0) as usize).max(self.y0);
        let gy1 = ((y + h).round().max(0.0) as usize).min(self.y0 + self.height);
        for yy in gy0..gy1 {
            let row = ((yy - self.y0) * self.width + x0) * 3;
            for i in 0..(x1.saturating_sub(x0)) {
                let p = row + i * 3;
                self.pixels[p] = c.r;
                self.pixels[p + 1] = c.g;
                self.pixels[p + 2] = c.b;
            }
        }
    }

    /// Draws a 1-pixel rectangle outline.
    pub fn stroke_rect(&mut self, x: f64, y: f64, w: f64, h: f64, c: Color) {
        let x0 = x.round() as i64;
        let y0 = y.round() as i64;
        let x1 = (x + w).round() as i64 - 1;
        let y1 = (y + h).round() as i64 - 1;
        if x1 < x0 || y1 < y0 {
            return;
        }
        for xx in x0..=x1 {
            self.put(xx, y0, c);
            self.put(xx, y1, c);
        }
        for yy in y0..=y1 {
            self.put(x0, yy, c);
            self.put(x1, yy, c);
        }
    }

    /// Bresenham line.
    pub fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, c: Color) {
        let (mut x0, mut y0) = (x1.round() as i64, y1.round() as i64);
        let (xe, ye) = (x2.round() as i64, y2.round() as i64);
        let dx = (xe - x0).abs();
        let dy = -(ye - y0).abs();
        let sx = if x0 < xe { 1 } else { -1 };
        let sy = if y0 < ye { 1 } else { -1 };
        let mut err = dx + dy;
        loop {
            self.put(x0, y0, c);
            if x0 == xe && y0 == ye {
                break;
            }
            let e2 = 2 * err;
            if e2 >= dy {
                err += dy;
                x0 += sx;
            }
            if e2 <= dx {
                err += dx;
                y0 += sy;
            }
        }
    }

    /// Draws text with the built-in 5×7 font. `y` is the baseline; `size`
    /// is the approximate glyph height in pixels (rounded to an integer
    /// scale factor ≥ 1).
    pub fn text(&mut self, x: f64, y: f64, size: f64, text: &str, c: Color, anchor: Anchor) {
        let scale = ((size / font::GLYPH_H as f64).round() as i64).max(1);
        let advance = font::ADVANCE as i64 * scale;
        let total = advance * text.chars().count() as i64;
        let mut pen_x = match anchor {
            Anchor::Start => x.round() as i64,
            Anchor::Middle => x.round() as i64 - total / 2,
            Anchor::End => x.round() as i64 - total,
        };
        let top = y.round() as i64 - font::GLYPH_H as i64 * scale;
        for ch in text.chars() {
            for (gx, gy) in font::lit_pixels(ch) {
                for dx in 0..scale {
                    for dy in 0..scale {
                        self.put(
                            pen_x + gx as i64 * scale + dx,
                            top + gy as i64 * scale + dy,
                            c,
                        );
                    }
                }
            }
            pen_x += advance;
        }
    }
}

/// Replays every primitive of `scene` onto `c` (a full canvas or a
/// band — the canvas clips). Iterates the scene's homogeneous batches, so
/// the long rectangle runs a task chart consists of draw without a
/// per-primitive kind dispatch, and a band can reject a whole run of
/// off-band rectangles with one bounds check each, cheaply.
fn draw_scene(c: &mut Canvas, scene: &Scene) {
    let band_top = c.y0 as f64;
    let band_bot = (c.y0 + c.height) as f64;
    for (kind, range) in scene.batches() {
        match kind {
            PrimKind::Rect => {
                for r in &scene.rects()[range] {
                    // Cheap band rejection before the rounding math; the
                    // 1px margin keeps `.5`-rounding ties in play.
                    if r.y + r.h < band_top - 1.0 || r.y > band_bot + 1.0 {
                        continue;
                    }
                    c.fill_rect(r.x, r.y, r.w, r.h, r.fill);
                    if let Some(s) = r.stroke {
                        c.stroke_rect(r.x, r.y, r.w, r.h, s);
                    }
                }
            }
            PrimKind::Line => {
                for l in &scene.lines()[range] {
                    c.line(l.x1, l.y1, l.x2, l.y2, l.color);
                }
            }
            PrimKind::Text => {
                for t in &scene.texts()[range] {
                    c.text(t.x, t.y, t.size, &t.text, t.color, t.anchor);
                }
            }
        }
    }
}

/// Rasterizes a scene into a canvas (sequentially).
pub fn rasterize(scene: &Scene) -> Canvas {
    let mut c = Canvas::new(
        scene.width.round().max(1.0) as usize,
        scene.height.round().max(1.0) as usize,
        scene.background,
    );
    draw_scene(&mut c, scene);
    c
}

/// Rasterizes only the global pixel rows `r0..r1` of a scene, as a
/// band canvas. Because every primitive rounds in global coordinates,
/// the band's pixels are bit-identical to rows `r0..r1` of
/// [`rasterize`]'s full canvas — the guarantee both the parallel
/// encoder and the serve-side tile cache (DESIGN.md §6c) build on.
pub fn rasterize_band(scene: &Scene, r0: usize, r1: usize) -> Canvas {
    let width = scene.width.round().max(1.0) as usize;
    let mut c = Canvas::band(width, r0, r1.saturating_sub(r0), scene.background);
    draw_scene(&mut c, scene);
    c
}

/// Rasterizes a scene with up to `threads` workers (`0` = all available
/// cores, `1` = the sequential [`rasterize`] path).
///
/// The image is split into contiguous horizontal bands, one per worker;
/// each worker replays the whole primitive list onto its band (the
/// canvas clips rows outside the band) and the bands are concatenated in
/// row order. Primitives are cheap to clip relative to the pixels they
/// fill, and all rounding happens in global coordinates, so the result
/// is bit-identical to the sequential rasterizer for any worker count.
pub fn rasterize_threads(scene: &Scene, threads: usize) -> Canvas {
    let width = scene.width.round().max(1.0) as usize;
    let height = scene.height.round().max(1.0) as usize;
    let workers = parallel::row_workers(threads, height);
    if workers <= 1 {
        return rasterize(scene);
    }
    let bands = parallel::map_chunks(
        "raster.band",
        &parallel::chunk_bounds(height, workers),
        |&(r0, r1)| rasterize_band(scene, r0, r1).pixels,
    );
    Canvas {
        width,
        height,
        y0: 0,
        pixels: bands.concat(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canvas_starts_with_background() {
        let c = Canvas::new(4, 4, Color::new(1, 2, 3));
        assert_eq!(c.get(0, 0), Some(Color::new(1, 2, 3)));
        assert_eq!(c.get(3, 3), Some(Color::new(1, 2, 3)));
        assert_eq!(c.get(4, 0), None);
    }

    #[test]
    fn fill_rect_clips() {
        let mut c = Canvas::new(4, 4, Color::WHITE);
        c.fill_rect(-10.0, -10.0, 100.0, 100.0, Color::BLACK);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(c.get(x, y), Some(Color::BLACK));
            }
        }
    }

    #[test]
    fn fill_rect_exact_bounds() {
        let mut c = Canvas::new(10, 10, Color::WHITE);
        c.fill_rect(2.0, 3.0, 4.0, 2.0, Color::BLACK);
        assert_eq!(c.get(2, 3), Some(Color::BLACK));
        assert_eq!(c.get(5, 4), Some(Color::BLACK));
        assert_eq!(c.get(6, 4), Some(Color::WHITE));
        assert_eq!(c.get(2, 5), Some(Color::WHITE));
        assert_eq!(c.get(1, 3), Some(Color::WHITE));
    }

    #[test]
    fn stroke_rect_outline_only() {
        let mut c = Canvas::new(10, 10, Color::WHITE);
        c.stroke_rect(1.0, 1.0, 5.0, 5.0, Color::BLACK);
        assert_eq!(c.get(1, 1), Some(Color::BLACK));
        assert_eq!(c.get(5, 1), Some(Color::BLACK));
        assert_eq!(c.get(3, 3), Some(Color::WHITE)); // interior untouched
    }

    #[test]
    fn lines_connect_endpoints() {
        let mut c = Canvas::new(10, 10, Color::WHITE);
        c.line(0.0, 0.0, 9.0, 9.0, Color::BLACK);
        assert_eq!(c.get(0, 0), Some(Color::BLACK));
        assert_eq!(c.get(9, 9), Some(Color::BLACK));
        assert_eq!(c.get(5, 5), Some(Color::BLACK));
    }

    #[test]
    fn text_paints_pixels() {
        let mut c = Canvas::new(40, 20, Color::WHITE);
        c.text(2.0, 15.0, 7.0, "A1", Color::BLACK, Anchor::Start);
        let black = (0..20)
            .flat_map(|y| (0..40).map(move |x| (x, y)))
            .filter(|&(x, y)| c.get(x, y) == Some(Color::BLACK))
            .count();
        assert!(black > 10, "text should paint pixels, got {black}");
    }

    #[test]
    fn anchored_text_positions() {
        let mut a = Canvas::new(60, 20, Color::WHITE);
        a.text(30.0, 15.0, 7.0, "X", Color::BLACK, Anchor::Middle);
        // Middle anchor: pixels around x=30.
        let min_x = (0..60)
            .find(|&x| (0..20).any(|y| a.get(x, y) == Some(Color::BLACK)))
            .unwrap();
        assert!((25..=30).contains(&min_x), "min_x={min_x}");
    }

    #[test]
    fn rasterize_scene() {
        let mut s = Scene::new(20.0, 10.0);
        s.rect(0.0, 0.0, 5.0, 5.0, Color::BLACK);
        let c = rasterize(&s);
        assert_eq!(c.width, 20);
        assert_eq!(c.height, 10);
        assert_eq!(c.get(1, 1), Some(Color::BLACK));
        assert_eq!(c.get(10, 5), Some(Color::WHITE));
    }

    /// A scene exercising every primitive with awkward fractional
    /// coordinates (including `.5` rounding ties) that cross band
    /// boundaries.
    fn busy_scene() -> Scene {
        let mut s = Scene::new(97.0, 211.0);
        s.rect(3.5, 10.5, 40.25, 77.5, Color::new(0, 0, 255));
        s.rect_stroked(
            20.0,
            60.0,
            50.0,
            120.0,
            Color::new(250, 220, 40),
            Color::BLACK,
        );
        s.rect(-5.0, 190.0, 500.0, 500.0, Color::new(10, 200, 10));
        s.line(0.0, 0.0, 96.0, 210.0, Color::BLACK);
        s.line(96.0, 13.7, 2.2, 207.9, Color::new(128, 0, 0));
        s.text(48.0, 100.0, 9.0, "bands", Color::BLACK, Anchor::Middle);
        s.text(2.0, 205.0, 7.0, "edge", Color::new(0, 99, 0), Anchor::Start);
        s
    }

    #[test]
    fn band_canvas_matches_full_canvas_rows() {
        let s = busy_scene();
        let full = rasterize(&s);
        for (y0, rows) in [(0usize, 211usize), (0, 50), (37, 64), (200, 11), (210, 1)] {
            let mut band = Canvas::band(full.width, y0, rows, s.background);
            draw_scene(&mut band, &s);
            let stride = full.width * 3;
            assert_eq!(
                band.pixels,
                &full.pixels[y0 * stride..(y0 + rows) * stride],
                "band at rows {y0}..{}",
                y0 + rows
            );
        }
    }

    #[test]
    fn threaded_rasterizer_is_pixel_identical() {
        let s = busy_scene();
        let full = rasterize(&s);
        for threads in [0, 2, 3, 5, 8, 64, 1000] {
            let t = rasterize_threads(&s, threads);
            assert_eq!((t.width, t.height), (full.width, full.height));
            assert_eq!(t.pixels, full.pixels, "threads={threads}");
        }
    }

    #[test]
    fn band_clips_out_of_band_drawing() {
        let mut band = Canvas::band(10, 5, 3, Color::WHITE);
        band.put(2, 0, Color::BLACK); // above the band
        band.put(2, 9, Color::BLACK); // below the band
        assert!(band.pixels.iter().all(|&b| b == 255));
        band.put(2, 6, Color::BLACK);
        assert_eq!(band.get(2, 6), Some(Color::BLACK));
        assert_eq!(band.get(2, 0), None);
    }
}
