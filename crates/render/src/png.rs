//! A from-scratch PNG encoder.
//!
//! Produces a valid true-color (8-bit RGB) PNG. Scanlines are compressed
//! with the crate's own fixed-Huffman DEFLATE ([`crate::deflate`]);
//! [`zlib_stored`] remains available for uncompressed output. Everything
//! is implemented in-tree — no compression or image dependencies.

use crate::raster::{rasterize, rasterize_threads, Canvas};
use crate::scene::Scene;
use jedule_core::parallel;

/// CRC-32 (ISO 3309) over `data`, as required for PNG chunks.
pub fn crc32(data: &[u8]) -> u32 {
    // Bitwise implementation; fine for chart-sized images.
    let mut crc = 0xffff_ffffu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Adler-32 checksum, as required by the zlib wrapper.
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let (mut a, mut b) = (1u32, 0u32);
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += u32::from(byte);
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// Wraps raw bytes in a zlib stream of stored (uncompressed) deflate
/// blocks.
pub fn zlib_stored(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + data.len() / 65_535 * 5 + 16);
    out.push(0x78); // CMF: deflate, 32K window
    out.push(0x01); // FLG: check bits, no dict, fastest
    let mut chunks = data.chunks(65_535).peekable();
    if data.is_empty() {
        out.extend_from_slice(&[0x01, 0x00, 0x00, 0xff, 0xff]);
    }
    while let Some(chunk) = chunks.next() {
        let last = chunks.peek().is_none();
        out.push(u8::from(last));
        let len = chunk.len() as u16;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out.extend_from_slice(&adler32(data).to_be_bytes());
    out
}

/// Combines the Adler-32 of two adjacent byte ranges: given
/// `a1 = adler32(A)`, `a2 = adler32(B)` and `len2 = B.len()`, returns
/// `adler32(A ++ B)` without touching the data (the zlib
/// `adler32_combine` identity). Lets the parallel PNG encoder checksum
/// each band independently and fold the results in band order.
pub fn adler32_combine(a1: u32, a2: u32, len2: u64) -> u32 {
    const MOD: u64 = 65_521;
    let rem = len2 % MOD;
    let s1a = u64::from(a1 & 0xffff);
    let s1b = u64::from(a1 >> 16);
    let s2a = u64::from(a2 & 0xffff);
    let s2b = u64::from(a2 >> 16);
    // B's running sum starts from A's low word instead of 1, which adds
    // (s1a - 1) at each of B's len2 steps to the high word.
    let a = (s1a + s2a + MOD - 1) % MOD;
    let b = (s1b + s2b + rem * ((s1a + MOD - 1) % MOD)) % MOD;
    ((b as u32) << 16) | a as u32
}

fn chunk(out: &mut Vec<u8>, kind: &[u8; 4], payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(kind);
    out.extend_from_slice(payload);
    let mut crc_input = Vec::with_capacity(4 + payload.len());
    crc_input.extend_from_slice(kind);
    crc_input.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&crc_input).to_be_bytes());
}

/// Assembles the PNG container around a ready-made zlib IDAT payload.
fn write_png(canvas: &Canvas, idat: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&[0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1a, b'\n']);

    // IHDR: width, height, bit depth 8, color type 2 (RGB), default rest.
    let mut ihdr = Vec::with_capacity(13);
    ihdr.extend_from_slice(&(canvas.width as u32).to_be_bytes());
    ihdr.extend_from_slice(&(canvas.height as u32).to_be_bytes());
    ihdr.extend_from_slice(&[8, 2, 0, 0, 0]);
    chunk(&mut out, b"IHDR", &ihdr);
    chunk(&mut out, b"IDAT", idat);
    chunk(&mut out, b"IEND", &[]);
    out
}

/// The raw (pre-compression) IDAT bytes for rows `r0..r1`: each
/// scanline prefixed with filter byte 0 (None).
fn raw_scanlines(canvas: &Canvas, r0: usize, r1: usize) -> Vec<u8> {
    let stride = canvas.width * 3;
    let mut raw = Vec::with_capacity((stride + 1) * (r1 - r0));
    for y in r0..r1 {
        raw.push(0);
        raw.extend_from_slice(&canvas.pixels[y * stride..(y + 1) * stride]);
    }
    raw
}

/// Encodes a canvas as a PNG file (sequentially, one deflate block).
pub fn encode(canvas: &Canvas) -> Vec<u8> {
    let raw = raw_scanlines(canvas, 0, canvas.height);
    jedule_core::obs::count("png.bytes_deflated", raw.len() as u64);
    write_png(canvas, &crate::deflate::zlib_compress(&raw))
}

/// Encodes a canvas as a PNG file with up to `threads` compression
/// workers (`0` = all available cores, `1` = the byte-identical
/// sequential [`encode`] path).
///
/// Each worker compresses a contiguous band of scanlines as an
/// independent sync-flushed deflate segment
/// ([`crate::deflate::deflate_fixed_sync`]) and computes its Adler-32;
/// the segments are stitched in band order into one zlib stream,
/// terminated by a final empty stored block, with the checksum folded
/// via [`adler32_combine`]. Any spec-compliant decoder reads the result;
/// the decoded pixels are identical to [`encode`]'s for every thread
/// count.
pub fn encode_with(canvas: &Canvas, threads: usize) -> Vec<u8> {
    let workers = parallel::row_workers(threads, canvas.height);
    if workers <= 1 {
        return encode(canvas);
    }
    let parts = parallel::map_chunks(
        "png.deflate_band",
        &parallel::chunk_bounds(canvas.height, workers),
        |&(r0, r1)| {
            let raw = raw_scanlines(canvas, r0, r1);
            let body = crate::deflate::deflate_fixed_sync(&raw);
            (body, adler32(&raw), raw.len() as u64)
        },
    );

    jedule_core::obs::count(
        "png.bytes_deflated",
        parts.iter().map(|(_, _, n)| n).sum::<u64>(),
    );
    let mut idat = Vec::with_capacity(parts.iter().map(|(b, _, _)| b.len()).sum::<usize>() + 11);
    idat.push(0x78);
    idat.push(0x9c); // FLG with check bits for CMF 0x78
    let mut adler = 1u32; // adler32 of the empty prefix
    for (body, band_adler, band_len) in &parts {
        idat.extend_from_slice(body);
        adler = adler32_combine(adler, *band_adler, *band_len);
    }
    // Final empty stored block terminates the deflate stream.
    idat.extend_from_slice(&[0x01, 0x00, 0x00, 0xff, 0xff]);
    idat.extend_from_slice(&adler.to_be_bytes());
    write_png(canvas, &idat)
}

/// Rasterizes a scene and encodes it as PNG (sequentially).
pub fn to_png(scene: &Scene) -> Vec<u8> {
    encode(&rasterize(scene))
}

/// Rasterizes a scene and encodes it as PNG, both with up to `threads`
/// workers (`0` = auto, `1` = sequential and byte-identical to
/// [`to_png`]).
pub fn to_png_threads(scene: &Scene, threads: usize) -> Vec<u8> {
    encode_with(&rasterize_threads(scene, threads), threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jedule_core::Color;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"IEND"), 0xae42_6082);
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11e6_0398);
    }

    fn parse_chunks(png: &[u8]) -> Vec<(String, Vec<u8>)> {
        assert_eq!(
            &png[..8],
            &[0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1a, b'\n']
        );
        let mut i = 8;
        let mut out = Vec::new();
        while i < png.len() {
            let len = u32::from_be_bytes(png[i..i + 4].try_into().unwrap()) as usize;
            let kind = String::from_utf8(png[i + 4..i + 8].to_vec()).unwrap();
            let payload = png[i + 8..i + 8 + len].to_vec();
            let stored_crc = u32::from_be_bytes(png[i + 8 + len..i + 12 + len].try_into().unwrap());
            let mut check = png[i + 4..i + 8 + len].to_vec();
            check.splice(..0, std::iter::empty());
            assert_eq!(crc32(&check), stored_crc, "chunk {kind} CRC");
            out.push((kind, payload));
            i += 12 + len;
        }
        out
    }

    /// Decodes any zlib stream this crate produces.
    fn zlib_decode(z: &[u8]) -> Vec<u8> {
        crate::deflate::zlib_decompress(z).expect("valid zlib stream")
    }

    #[test]
    fn png_structure_valid() {
        let c = Canvas::new(3, 2, Color::new(10, 20, 30));
        let png = encode(&c);
        let chunks = parse_chunks(&png);
        assert_eq!(chunks[0].0, "IHDR");
        assert_eq!(chunks.last().unwrap().0, "IEND");
        let ihdr = &chunks[0].1;
        assert_eq!(u32::from_be_bytes(ihdr[0..4].try_into().unwrap()), 3);
        assert_eq!(u32::from_be_bytes(ihdr[4..8].try_into().unwrap()), 2);
        assert_eq!(ihdr[8], 8); // bit depth
        assert_eq!(ihdr[9], 2); // RGB
    }

    #[test]
    fn png_pixels_roundtrip() {
        let mut c = Canvas::new(4, 3, Color::WHITE);
        c.put(1, 1, Color::new(255, 0, 0));
        let png = encode(&c);
        let chunks = parse_chunks(&png);
        let idat = &chunks.iter().find(|(k, _)| k == "IDAT").unwrap().1;
        let raw = zlib_decode(idat);
        assert_eq!(raw.len(), (4 * 3 + 1) * 3);
        // Row 1 starts at offset (stride+1)*1; pixel 1 at +1 (filter) + 3.
        let off = (4 * 3 + 1) + 1 + 3;
        assert_eq!(&raw[off..off + 3], &[255, 0, 0]);
    }

    #[test]
    fn zlib_stored_splits_large_payloads() {
        let data = vec![7u8; 70_000];
        let z = zlib_stored(&data);
        assert_eq!(zlib_decode(&z), data);
    }

    #[test]
    fn zlib_stored_empty_payload() {
        let z = zlib_stored(&[]);
        assert_eq!(zlib_decode(&z), Vec::<u8>::new());
    }

    #[test]
    fn compressed_idat_is_much_smaller_than_stored() {
        // A chart-like canvas: big uniform regions.
        let mut c = Canvas::new(400, 300, Color::WHITE);
        c.fill_rect(20.0, 20.0, 300.0, 100.0, Color::new(0, 0, 255));
        c.fill_rect(40.0, 150.0, 200.0, 80.0, Color::new(0xf1, 0, 0));
        let png = encode(&c);
        let raw_size = 400 * 300 * 3;
        assert!(
            png.len() < raw_size / 20,
            "png {} bytes for {} raw",
            png.len(),
            raw_size
        );
    }

    #[test]
    fn adler32_combine_matches_direct() {
        // Split points all over a structured buffer, including empties.
        let data: Vec<u8> = (0..9000u32).map(|i| (i * 7 + i / 300) as u8).collect();
        for split in [0, 1, 2, 4499, 8999, 9000] {
            let (a, b) = data.split_at(split);
            let combined = adler32_combine(adler32(a), adler32(b), b.len() as u64);
            assert_eq!(combined, adler32(&data), "split at {split}");
        }
        // Folding from the empty prefix (as encode_with does).
        let mut acc = 1u32;
        for chunk in data.chunks(1234) {
            acc = adler32_combine(acc, adler32(chunk), chunk.len() as u64);
        }
        assert_eq!(acc, adler32(&data));
    }

    fn chart(w: usize, h: usize) -> Canvas {
        let mut c = Canvas::new(w, h, Color::WHITE);
        c.fill_rect(
            3.0,
            2.0,
            w as f64 * 0.7,
            h as f64 * 0.4,
            Color::new(0, 0, 255),
        );
        c.fill_rect(
            10.0,
            h as f64 * 0.5,
            w as f64 * 0.5,
            h as f64 * 0.3,
            Color::new(200, 30, 30),
        );
        c.line(0.0, 0.0, w as f64 - 1.0, h as f64 - 1.0, Color::BLACK);
        c
    }

    #[test]
    fn parallel_encode_decodes_to_identical_pixels() {
        let c = chart(120, 90);
        let want = zlib_decode(
            &parse_chunks(&encode(&c))
                .into_iter()
                .find(|(k, _)| k == "IDAT")
                .unwrap()
                .1,
        );
        for threads in [2, 3, 7, 16, 90, 1000] {
            let png = encode_with(&c, threads);
            let chunks = parse_chunks(&png);
            let idat = &chunks.iter().find(|(k, _)| k == "IDAT").unwrap().1;
            assert_eq!(zlib_decode(idat), want, "threads={threads}");
        }
    }

    #[test]
    fn parallel_encode_is_deterministic() {
        let c = chart(64, 200);
        assert_eq!(encode_with(&c, 4), encode_with(&c, 4));
    }

    #[test]
    fn one_thread_is_byte_identical_to_sequential() {
        let c = chart(80, 60);
        assert_eq!(encode_with(&c, 1), encode(&c));
    }

    #[test]
    fn to_png_smoke() {
        let mut s = Scene::new(16.0, 16.0);
        s.rect(0.0, 0.0, 8.0, 8.0, Color::BLACK);
        let png = to_png(&s);
        assert!(png.len() > 50);
        assert_eq!(&png[1..4], b"PNG");
    }
}
