//! A from-scratch DEFLATE (RFC 1951) implementation: fixed-Huffman
//! compression with greedy LZ77 matching, plus the matching inflater.
//!
//! The PNG encoder originally used *stored* (uncompressed) deflate
//! blocks; chart rasters are extremely repetitive (solid rectangles), so
//! LZ77 with the fixed Huffman alphabet typically shrinks them by an
//! order of magnitude. The inflater exists so tests can verify the
//! encoder bit-exactly without external dependencies (and is reusable by
//! anyone reading our PNGs back).

/// LSB-first bit writer (DEFLATE's bit order).
struct BitWriter {
    out: Vec<u8>,
    bit_buf: u32,
    bit_count: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            bit_buf: 0,
            bit_count: 0,
        }
    }

    /// Writes `count` bits of `value`, LSB first.
    fn bits(&mut self, value: u32, count: u32) {
        self.bit_buf |= value << self.bit_count;
        self.bit_count += count;
        while self.bit_count >= 8 {
            self.out.push((self.bit_buf & 0xff) as u8);
            self.bit_buf >>= 8;
            self.bit_count -= 8;
        }
    }

    /// Writes a Huffman code (MSB of the code first).
    fn code(&mut self, code: u32, len: u32) {
        // Reverse the bit order, then emit LSB-first.
        let mut rev = 0u32;
        for i in 0..len {
            rev |= ((code >> i) & 1) << (len - 1 - i);
        }
        self.bits(rev, len);
    }

    /// Pads with zero bits to the next byte boundary.
    fn align(&mut self) {
        if self.bit_count > 0 {
            self.out.push((self.bit_buf & 0xff) as u8);
            self.bit_buf = 0;
            self.bit_count = 0;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.bit_count > 0 {
            self.out.push((self.bit_buf & 0xff) as u8);
        }
        self.out
    }
}

/// Length code table: `(code, extra_bits, base_length)`, RFC 1951 §3.2.5.
const LENGTH_CODES: [(u32, u32, u32); 29] = [
    (257, 0, 3),
    (258, 0, 4),
    (259, 0, 5),
    (260, 0, 6),
    (261, 0, 7),
    (262, 0, 8),
    (263, 0, 9),
    (264, 0, 10),
    (265, 1, 11),
    (266, 1, 13),
    (267, 1, 15),
    (268, 1, 17),
    (269, 2, 19),
    (270, 2, 23),
    (271, 2, 27),
    (272, 2, 31),
    (273, 3, 35),
    (274, 3, 43),
    (275, 3, 51),
    (276, 3, 59),
    (277, 4, 67),
    (278, 4, 83),
    (279, 4, 99),
    (280, 4, 115),
    (281, 5, 131),
    (282, 5, 163),
    (283, 5, 195),
    (284, 5, 227),
    (285, 0, 258),
];

/// Distance code table: `(code, extra_bits, base_distance)`.
const DIST_CODES: [(u32, u32, u32); 30] = [
    (0, 0, 1),
    (1, 0, 2),
    (2, 0, 3),
    (3, 0, 4),
    (4, 1, 5),
    (5, 1, 7),
    (6, 2, 9),
    (7, 2, 13),
    (8, 3, 17),
    (9, 3, 25),
    (10, 4, 33),
    (11, 4, 49),
    (12, 5, 65),
    (13, 5, 97),
    (14, 6, 129),
    (15, 6, 193),
    (16, 7, 257),
    (17, 7, 385),
    (18, 8, 513),
    (19, 8, 769),
    (20, 9, 1025),
    (21, 9, 1537),
    (22, 10, 2049),
    (23, 10, 3073),
    (24, 11, 4097),
    (25, 11, 6145),
    (26, 12, 8193),
    (27, 12, 12289),
    (28, 13, 16385),
    (29, 13, 24577),
];

/// Fixed-alphabet code for a literal/length symbol.
fn fixed_litlen(sym: u32) -> (u32, u32) {
    match sym {
        0..=143 => (0x30 + sym, 8),
        144..=255 => (0x190 + sym - 144, 9),
        256..=279 => (sym - 256, 7),
        _ => (0xC0 + sym - 280, 8),
    }
}

fn emit_length(w: &mut BitWriter, len: u32) {
    let idx = LENGTH_CODES
        .iter()
        .rposition(|&(_, _, base)| base <= len)
        .expect("length within 3..=258");
    let (code, extra, base) = LENGTH_CODES[idx];
    let (c, n) = fixed_litlen(code);
    w.code(c, n);
    if extra > 0 {
        w.bits(len - base, extra);
    }
}

fn emit_distance(w: &mut BitWriter, dist: u32) {
    let idx = DIST_CODES
        .iter()
        .rposition(|&(_, _, base)| base <= dist)
        .expect("distance within 1..=32768");
    let (code, extra, base) = DIST_CODES[idx];
    w.code(code, 5);
    if extra > 0 {
        w.bits(dist - base, extra);
    }
}

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 64;

fn hash3(data: &[u8], i: usize) -> usize {
    let v = u32::from(data[i]) | (u32::from(data[i + 1]) << 8) | (u32::from(data[i + 2]) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Writes one fixed-Huffman DEFLATE block covering all of `data` into
/// `w`: block header, greedy hash-chain LZ77 body, end-of-block symbol.
///
/// The chain links live in a ring of `WINDOW` slots (fewer for a short
/// input), indexed by position modulo the ring. The walk reads the link
/// of a candidate only while the candidate lies within `WINDOW` of the
/// current position, and a slot is overwritten only by a position a
/// whole ring later, so every link read is the one a chain as long as
/// the input would hold: the tokens are the same.
fn fixed_block(w: &mut BitWriter, data: &[u8], bfinal: bool) {
    w.bits(u32::from(bfinal), 1); // BFINAL
    w.bits(1, 2); // BTYPE = 01 (fixed Huffman)

    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mask = data.len().min(WINDOW).next_power_of_two() - 1;
    let mut prev = vec![usize::MAX; mask + 1];

    let mut i = 0usize;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash3(data, i);
            let mut cand = head[h];
            let mut chain = 0usize;
            while cand != usize::MAX && i - cand <= WINDOW && chain < MAX_CHAIN {
                let limit = (data.len() - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < limit && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l >= MAX_MATCH {
                        break;
                    }
                }
                cand = prev[cand & mask];
                chain += 1;
            }
            prev[i & mask] = head[h];
            head[h] = i;
        }

        if best_len >= MIN_MATCH {
            emit_length(w, best_len as u32);
            emit_distance(w, best_dist as u32);
            // Insert hash entries for the skipped positions so later
            // matches can refer into this run.
            for k in 1..best_len {
                let p = i + k;
                if p + MIN_MATCH <= data.len() {
                    let h = hash3(data, p);
                    prev[p & mask] = head[h];
                    head[h] = p;
                }
            }
            i += best_len;
        } else {
            let (c, n) = fixed_litlen(u32::from(data[i]));
            w.code(c, n);
            i += 1;
        }
    }

    // End of block.
    let (c, n) = fixed_litlen(256);
    w.code(c, n);
}

/// Compresses `data` as a single fixed-Huffman DEFLATE block with greedy
/// hash-chain LZ77 matching.
pub fn deflate_fixed(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    fixed_block(&mut w, data, true);
    w.finish()
}

/// Compresses `data` as one *non-final* fixed-Huffman block followed by
/// an empty non-final stored block (a zlib "sync flush", as in pigz).
///
/// The stored block byte-aligns the stream, so the returned byte
/// sequences from several calls concatenate into one legal DEFLATE
/// stream — the basis of the parallel PNG encoder, which compresses
/// image bands independently and stitches them (terminated by a final
/// empty stored block, see `png::encode_with`). Matches never reach
/// across band boundaries, costing a little compression for the
/// parallelism.
pub fn deflate_fixed_sync(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    fixed_block(&mut w, data, false);
    // Empty stored block: BFINAL=0, BTYPE=00, pad to byte, LEN=0, NLEN=!0.
    w.bits(0, 3);
    w.align();
    let mut out = w.finish();
    out.extend_from_slice(&[0x00, 0x00, 0xff, 0xff]);
    out
}

// ---------------------------------------------------------------------------
// Inflate (fixed-Huffman and stored blocks)
// ---------------------------------------------------------------------------

/// LSB-first bit reader.
struct BitReader<'a> {
    data: &'a [u8],
    byte: usize,
    bit: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            byte: 0,
            bit: 0,
        }
    }

    fn bit(&mut self) -> Result<u32, String> {
        let b = *self.data.get(self.byte).ok_or("unexpected end of stream")?;
        let v = (u32::from(b) >> self.bit) & 1;
        self.bit += 1;
        if self.bit == 8 {
            self.bit = 0;
            self.byte += 1;
        }
        Ok(v)
    }

    fn bits(&mut self, count: u32) -> Result<u32, String> {
        let mut v = 0u32;
        for i in 0..count {
            v |= self.bit()? << i;
        }
        Ok(v)
    }

    /// Huffman-style read: MSB-first accumulation.
    fn code_bit(&mut self, acc: u32) -> Result<u32, String> {
        Ok((acc << 1) | self.bit()?)
    }

    fn align_byte(&mut self) {
        if self.bit != 0 {
            self.bit = 0;
            self.byte += 1;
        }
    }
}

/// Decodes one fixed-alphabet literal/length symbol.
fn read_fixed_litlen(r: &mut BitReader) -> Result<u32, String> {
    let mut acc = 0u32;
    for _ in 0..7 {
        acc = r.code_bit(acc)?;
    }
    if acc <= 0x17 {
        return Ok(acc + 256);
    }
    acc = r.code_bit(acc)?; // 8 bits
    if (0x30..=0xBF).contains(&acc) {
        return Ok(acc - 0x30);
    }
    if (0xC0..=0xC7).contains(&acc) {
        return Ok(acc - 0xC0 + 280);
    }
    acc = r.code_bit(acc)?; // 9 bits
    if (0x190..=0x1FF).contains(&acc) {
        return Ok(acc - 0x190 + 144);
    }
    Err(format!("invalid fixed literal/length code {acc:#x}"))
}

/// Decompresses a DEFLATE stream of stored and/or fixed-Huffman blocks
/// (dynamic-Huffman blocks are not produced by this crate and rejected).
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, String> {
    let mut r = BitReader::new(data);
    let mut out = Vec::new();
    loop {
        let bfinal = r.bit()?;
        let btype = r.bits(2)?;
        match btype {
            0 => {
                r.align_byte();
                let len = usize::from(*r.data.get(r.byte).ok_or("truncated stored block")?)
                    | (usize::from(*r.data.get(r.byte + 1).ok_or("truncated stored block")?) << 8);
                let nlen = usize::from(*r.data.get(r.byte + 2).ok_or("truncated stored block")?)
                    | (usize::from(*r.data.get(r.byte + 3).ok_or("truncated stored block")?) << 8);
                if len != (!nlen & 0xffff) {
                    return Err("stored block LEN/NLEN mismatch".into());
                }
                let start = r.byte + 4;
                let end = start + len;
                out.extend_from_slice(r.data.get(start..end).ok_or("truncated stored data")?);
                r.byte = end;
                r.bit = 0;
            }
            1 => loop {
                let sym = read_fixed_litlen(&mut r)?;
                match sym {
                    0..=255 => out.push(sym as u8),
                    256 => break,
                    _ => {
                        let (_, extra, base) = LENGTH_CODES[(sym - 257) as usize];
                        let len = base + r.bits(extra)?;
                        let mut dacc = 0u32;
                        for _ in 0..5 {
                            dacc = r.code_bit(dacc)?;
                        }
                        if dacc >= 30 {
                            return Err(format!("invalid distance code {dacc}"));
                        }
                        let (_, dextra, dbase) = DIST_CODES[dacc as usize];
                        let dist = (dbase + r.bits(dextra)?) as usize;
                        if dist == 0 || dist > out.len() {
                            return Err("distance beyond output".into());
                        }
                        let from = out.len() - dist;
                        for k in 0..len as usize {
                            let b = out[from + k];
                            out.push(b);
                        }
                    }
                }
            },
            2 => return Err("dynamic Huffman blocks not supported".into()),
            _ => return Err("reserved block type".into()),
        }
        if bfinal == 1 {
            break;
        }
    }
    Ok(out)
}

/// Wraps fixed-Huffman deflate in a zlib stream (header + Adler-32).
pub fn zlib_compress(data: &[u8]) -> Vec<u8> {
    let body = deflate_fixed(data);
    let mut out = Vec::with_capacity(body.len() + 6);
    out.push(0x78);
    out.push(0x9c); // FLG with check bits for CMF 0x78
    out.extend_from_slice(&body);
    out.extend_from_slice(&crate::png::adler32(data).to_be_bytes());
    out
}

/// Unwraps a zlib stream produced by this crate (or by
/// [`crate::png::zlib_stored`]) and inflates it, checking the Adler-32.
pub fn zlib_decompress(data: &[u8]) -> Result<Vec<u8>, String> {
    if data.len() < 6 {
        return Err("zlib stream too short".into());
    }
    if data[0] & 0x0f != 8 {
        return Err("not a deflate zlib stream".into());
    }
    let body = &data[2..data.len() - 4];
    let out = inflate(body)?;
    let want = u32::from_be_bytes(data[data.len() - 4..].try_into().expect("4 bytes"));
    if crate::png::adler32(&out) != want {
        return Err("Adler-32 mismatch".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let z = zlib_compress(data);
        let back = zlib_decompress(&z).expect("decompresses");
        assert_eq!(back, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn ascii_text() {
        roundtrip(b"the quick brown fox jumps over the lazy dog");
    }

    #[test]
    fn repetitive_data_compresses_hard() {
        let data = vec![42u8; 100_000];
        let z = zlib_compress(&data);
        assert!(z.len() < data.len() / 50, "{} bytes", z.len());
        assert_eq!(zlib_decompress(&z).unwrap(), data);
    }

    #[test]
    fn scanline_like_data() {
        // Synthetic chart raster: long runs with filter bytes interleaved.
        let mut data = Vec::new();
        for row in 0..200 {
            data.push(0u8);
            for px in 0..300 {
                let c = if (px / 40 + row / 20) % 2 == 0 {
                    0x30
                } else {
                    0xC8
                };
                data.extend_from_slice(&[c, c / 2, 255 - c]);
            }
        }
        let z = zlib_compress(&data);
        assert!(z.len() < data.len() / 10, "{} vs {}", z.len(), data.len());
        assert_eq!(zlib_decompress(&z).unwrap(), data);
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        roundtrip(&data);
    }

    #[test]
    fn long_matches_cap_at_258() {
        let mut data = b"prefix".to_vec();
        data.extend(std::iter::repeat_n(b'x', 1000));
        data.extend_from_slice(b"suffix");
        roundtrip(&data);
    }

    #[test]
    fn pseudorandom_data_roundtrips() {
        // LCG noise — incompressible, exercises the literal path.
        let mut x = 12345u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn inflate_reads_stored_blocks_too() {
        let data = b"stored block payload".repeat(10);
        let z = crate::png::zlib_stored(&data);
        assert_eq!(zlib_decompress(&z).unwrap(), data);
    }

    #[test]
    fn inflate_rejects_corruption() {
        let mut z = zlib_compress(b"hello world hello world");
        let mid = z.len() / 2;
        z[mid] ^= 0xff;
        assert!(
            zlib_decompress(&z).is_err()
                || zlib_decompress(&z).unwrap() != b"hello world hello world"
        );
    }

    #[test]
    fn matches_across_block_of_distance_one() {
        // Overlapping copy (dist 1, len > 1) is the classic RLE case.
        let data = vec![7u8; 500];
        roundtrip(&data);
    }

    #[test]
    fn sync_segments_concatenate_into_one_stream() {
        // The parallel PNG encoder's contract: independently produced
        // sync-flushed segments, stitched in order and terminated by a
        // final empty stored block, inflate to the concatenated input.
        let parts: [&[u8]; 4] = [
            b"first band, quite repetitive repetitive repetitive",
            b"",
            b"second band",
            &[0u8; 1000],
        ];
        let mut stream = Vec::new();
        let mut want = Vec::new();
        for p in parts {
            stream.extend_from_slice(&deflate_fixed_sync(p));
            want.extend_from_slice(p);
        }
        stream.extend_from_slice(&[0x01, 0x00, 0x00, 0xff, 0xff]);
        assert_eq!(inflate(&stream).unwrap(), want);
    }

    /// The hash chain with one link per input position: the reference
    /// the ring must match token for token.
    fn fixed_block_full_chain(w: &mut BitWriter, data: &[u8], bfinal: bool) {
        w.bits(u32::from(bfinal), 1);
        w.bits(1, 2);
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; data.len()];
        let mut i = 0usize;
        while i < data.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= data.len() {
                let h = hash3(data, i);
                let mut cand = head[h];
                let mut chain = 0usize;
                while cand != usize::MAX && i - cand <= WINDOW && chain < MAX_CHAIN {
                    let limit = (data.len() - i).min(MAX_MATCH);
                    let mut l = 0usize;
                    while l < limit && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l >= MAX_MATCH {
                            break;
                        }
                    }
                    cand = prev[cand];
                    chain += 1;
                }
                prev[i] = head[h];
                head[h] = i;
            }
            if best_len >= MIN_MATCH {
                emit_length(w, best_len as u32);
                emit_distance(w, best_dist as u32);
                for k in 1..best_len {
                    let p = i + k;
                    if p + MIN_MATCH <= data.len() {
                        let h = hash3(data, p);
                        prev[p] = head[h];
                        head[h] = p;
                    }
                }
                i += best_len;
            } else {
                let (c, n) = fixed_litlen(u32::from(data[i]));
                w.code(c, n);
                i += 1;
            }
        }
        let (c, n) = fixed_litlen(256);
        w.code(c, n);
    }

    /// Both entry points through the full-length chain.
    fn reference(data: &[u8]) -> (Vec<u8>, Vec<u8>) {
        let mut w = BitWriter::new();
        fixed_block_full_chain(&mut w, data, true);
        let last = w.finish();
        let mut w = BitWriter::new();
        fixed_block_full_chain(&mut w, data, false);
        w.bits(0, 3);
        w.align();
        let mut sync = w.finish();
        sync.extend_from_slice(&[0x00, 0x00, 0xff, 0xff]);
        (last, sync)
    }

    #[test]
    fn ring_chain_matches_the_full_length_chain() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut noise = |n: usize, alphabet: u64| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % alphabet) as u8
                })
                .collect()
        };
        // Chart-like scanlines: filter byte, then runs of a few colors
        // whose boundaries drift row by row.
        let scanlines = |rows: usize, width: usize| -> Vec<u8> {
            let mut d = Vec::new();
            for row in 0..rows {
                d.push(u8::from(row % 3 == 0));
                for px in 0..width {
                    let c = [0xFF, 0x30, 0xC8, 0x7A][(px / 37 + row / 9 + px * row / 5000) % 4];
                    d.extend_from_slice(&[c, c / 2, 255 - c]);
                }
            }
            d
        };
        let mut inputs = vec![
            noise(200_000, 256),
            noise(150_000, 4),
            scanlines(120, 800),
            vec![0xAB; 300_000],
            [vec![1u8; 70_000], noise(5_000, 3), vec![1u8; 70_000]].concat(),
        ];
        for len in [WINDOW - 1, WINDOW, WINDOW + 1, 3 * WINDOW + 7] {
            inputs.push(noise(len, 5));
            inputs.push(scanlines(len / 2401 + 1, 800)[..len].to_vec());
            inputs.push(vec![7u8; len]);
        }
        for data in &inputs {
            let (last, sync) = reference(data);
            assert_eq!(deflate_fixed(data), last, "len {}", data.len());
            assert_eq!(deflate_fixed_sync(data), sync, "len {}", data.len());
        }
    }

    #[test]
    fn sync_segments_are_byte_aligned() {
        for data in [&b""[..], b"x", b"hello world hello world", &[9u8; 313]] {
            let seg = deflate_fixed_sync(data);
            // Ends with the empty stored block's LEN/NLEN…
            assert_eq!(&seg[seg.len() - 4..], &[0x00, 0x00, 0xff, 0xff]);
            // …and alone (with a terminator) forms a valid stream.
            let mut stream = seg.clone();
            stream.extend_from_slice(&[0x01, 0x00, 0x00, 0xff, 0xff]);
            assert_eq!(inflate(&stream).unwrap(), data);
        }
    }
}
