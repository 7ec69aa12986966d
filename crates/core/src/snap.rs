//! Binary schedule snapshots (`.jpack`) — the durable form of
//! everything [`PreparedSchedule`] computes.
//!
//! The cold path of a million-task trace pays full text parsing plus
//! index/extents/columns builds on every first touch. A *pack* is that
//! work done once and written down: a single little-endian, 8-byte-
//! aligned file holding the [`TaskColumns`] SoA, the per-host
//! [`ScheduleIndex`] (as sorted task-id lists), extents, the composite
//! sweep, the allocation/attribute structure needed to rebuild the
//! `Schedule` lazily, and one string blob that every name is an
//! `(offset, len)` into. Loading is `mmap(2)` (hand-declared FFI in the
//! `serve::signal`/`serve::epoll` house style; a `read()`-into-`Vec`
//! fallback elsewhere) followed by bounds-checked casts of the numeric
//! sections into borrowed column views — the hot render path never
//! copies them, and names materialize lazily from the blob.
//!
//! ## On-disk layout (version 2)
//!
//! ```text
//! header   48 B   magic "JEDPACK1", version u32, section_count u32,
//!                 source_digest u64, body_digest u64, file_len u64,
//!                 reserved u64
//! table    24 B × sections   { id u32, pad u32, off u64, len u64 }
//! sections …      each starting at an 8-byte-aligned offset
//! ```
//!
//! Everything is little-endian; loading on a big-endian host is a clean
//! [`PackError`], not a byte-swapping slow path. Both digests are
//! XXH64 with seed 0 ([`source_digest`]). `source_digest` is that of the
//! *source text* the pack was built from (the same digest serve's ETag
//! cache computes), which is what makes a sidecar self-invalidating:
//! edit the source and the stored digest no longer matches, so the pack
//! is ignored. `body_digest` covers everything after the header
//! (section table included), so any flipped, truncated or transplanted
//! byte fails the load before a single section is interpreted.
//!
//! Version 2 differs from version 1 only in its digests (version 1
//! stored FNV-1a variants). A pack with the magic but another version
//! is *stale*, not corrupt: [`peek`] reports its version,
//! [`load_if_fresh`] declines it like a pack of other source text, and
//! only [`load`] rejects it, with a [`PackError::Format`].
//!
//! Validation happens entirely inside [`load`]: section bounds and
//! alignment, CSR monotonicity, id ranges, row bounds against cluster
//! geometry, the `(start, task)` order of every stored index row, and
//! one UTF-8 pass over the blob with char-boundary checks for every
//! `(offset, len)` pair. After a successful load, every later access is
//! plain indexing — a hostile pack can produce a [`PackError`], never UB
//! or a panic.
//!
//! The index is validated at load but gathered on first query: the
//! loaded pack keeps its sorted id lists as borrowed sections, and
//! [`PreparedSchedule`] copies them into a [`ScheduleIndex`] only when
//! something asks — the cluster rows alone for window culling, every
//! row for [`PreparedSchedule::index`]. A full-extent render gathers
//! nothing.
//!
//! [`PreparedSchedule`]: crate::PreparedSchedule
//! [`TaskColumns`]: crate::TaskColumns
//! [`ScheduleIndex`]: crate::ScheduleIndex

use crate::align::TimeExtent;
use crate::columns::TaskColumns;
use crate::hostset::{HostRange, HostSet};
use crate::index::{ClusterIndex, IndexEntry, IntervalSeq, ScheduleIndex};
use crate::model::{Allocation, Cluster, MetaInfo, Task};
use crate::obs;
use crate::prepared::PreparedSchedule;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First 8 bytes of every pack.
pub const PACK_MAGIC: [u8; 8] = *b"JEDPACK1";
/// The format version this build writes and loads. A pack of any other
/// version is stale (see [`load_if_fresh`]).
pub const PACK_VERSION: u32 = 2;
/// Sidecar file extension, appended to the full input name
/// (`trace.swf` → `trace.swf.jpack`).
pub const PACK_EXT: &str = "jpack";

const HEADER_LEN: usize = 48;
const TABLE_ENTRY_LEN: usize = 24;
/// [`PACK_VERSION`] has exactly these sections, each exactly once.
const SEC_COUNT: u32 = 24;

const SEC_STARTS: u32 = 1;
const SEC_ENDS: u32 = 2;
const SEC_KIND_IDS: u32 = 3;
const SEC_SEG_OFFSETS: u32 = 4;
const SEC_SEG_CLUSTERS: u32 = 5;
const SEC_SEG_ROW0: u32 = 6;
const SEC_SEG_NROWS: u32 = 7;
const SEC_ID_OFFSETS: u32 = 8;
const SEC_BLOB: u32 = 9;
const SEC_KIND_NAME_OFFSETS: u32 = 10;
const SEC_CLUSTERS: u32 = 11;
const SEC_META: u32 = 12;
const SEC_EXTENTS: u32 = 13;
const SEC_IDX_CLUSTER_OFFSETS: u32 = 14;
const SEC_IDX_CLUSTER_IDS: u32 = 15;
const SEC_IDX_HOST_OFFSETS: u32 = 16;
const SEC_IDX_HOST_IDS: u32 = 17;
const SEC_ALLOC_OFFSETS: u32 = 18;
const SEC_ALLOC_CLUSTERS: u32 = 19;
const SEC_ALLOC_RANGE_OFFSETS: u32 = 20;
const SEC_ALLOC_RANGES: u32 = 21;
const SEC_ATTR_OFFSETS: u32 = 22;
const SEC_ATTR_QUADS: u32 = 23;
const SEC_COMPOSITES: u32 = 24;

/// Errors raised while writing or loading packs. `Io` wraps filesystem
/// failures; `Format` covers everything a hostile or stale pack can be
/// wrong about (bad magic, digest mismatch, truncation, out-of-bounds
/// sections, broken invariants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackError {
    Io(String),
    Format(String),
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::Io(m) => write!(f, "pack io: {m}"),
            PackError::Format(m) => write!(f, "pack format: {m}"),
        }
    }
}

impl std::error::Error for PackError {}

fn bad(msg: impl Into<String>) -> PackError {
    PackError::Format(msg.into())
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

const P1: u64 = 0x9E3779B185EBCA87;
const P2: u64 = 0xC2B2AE3D27D4EB4F;
const P3: u64 = 0x165667B19E3779F9;
const P4: u64 = 0x85EBCA77C2B2AE63;
const P5: u64 = 0x27D4EB2F165667C5;

/// Bytes per XXH64 stripe: one little-endian word for each of 4 lanes.
const STRIPE: usize = 32;

fn xxh_round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte word"))
}

/// Streaming XXH64 with seed 0, as published (Collet, `xxhash_spec.md`).
/// A partial stripe is carried across [`Xxh64::update`] calls, so every
/// way of chunking the input gives the same digest.
struct Xxh64 {
    lanes: [u64; 4],
    /// The partial stripe, `tail_len` bytes of it.
    tail: [u8; STRIPE],
    tail_len: usize,
    total: u64,
}

impl Xxh64 {
    fn new() -> Xxh64 {
        Xxh64 {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            tail: [0; STRIPE],
            tail_len: 0,
            total: 0,
        }
    }

    /// Feeds whole stripes of `bytes` to the lanes; returns the rest.
    fn stripes<'b>(&mut self, bytes: &'b [u8]) -> &'b [u8] {
        let [mut v1, mut v2, mut v3, mut v4] = self.lanes;
        let mut chunks = bytes.chunks_exact(STRIPE);
        for s in &mut chunks {
            v1 = xxh_round(v1, le64(&s[0..]));
            v2 = xxh_round(v2, le64(&s[8..]));
            v3 = xxh_round(v3, le64(&s[16..]));
            v4 = xxh_round(v4, le64(&s[24..]));
        }
        self.lanes = [v1, v2, v3, v4];
        chunks.remainder()
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.tail_len > 0 {
            let k = (STRIPE - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + k].copy_from_slice(&bytes[..k]);
            self.tail_len += k;
            bytes = &bytes[k..];
            if self.tail_len < STRIPE {
                return;
            }
            let stripe = self.tail;
            self.stripes(&stripe);
            self.tail_len = 0;
        }
        let rest = self.stripes(bytes);
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    fn finish(&self) -> u64 {
        let mut h = if self.total >= STRIPE as u64 {
            let [v1, v2, v3, v4] = self.lanes;
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for v in self.lanes {
                h = (h ^ xxh_round(0, v)).wrapping_mul(P1).wrapping_add(P4);
            }
            h
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut rest = &self.tail[..self.tail_len];
        while rest.len() >= 8 {
            h ^= xxh_round(0, le64(rest));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let w = u32::from_le_bytes(rest[..4].try_into().expect("4-byte word"));
            h ^= u64::from(w).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            rest = &rest[4..];
        }
        for &b in rest {
            h ^= u64::from(b).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^= h >> 32;
        h
    }
}

/// XXH64 (seed 0) of `bytes` — the workspace's one content digest. It
/// is the *source text* digest stored in a pack's header and the pack's
/// body digest, and serve keys its ETags, digest cache and tiles by it,
/// so a sidecar and serve's stat-validated digest cache agree byte for
/// byte.
pub fn source_digest(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::new();
    h.update(bytes);
    h.finish()
}

/// [`source_digest`] of everything `reader` yields, streamed through one
/// fixed buffer instead of a copy of the whole input. A sidecar
/// freshness check needs only the digest, never the text.
pub fn source_digest_reader(mut reader: impl std::io::Read) -> std::io::Result<u64> {
    let mut buf = vec![0u8; 1 << 16];
    let mut h = Xxh64::new();
    loop {
        match reader.read(&mut buf) {
            Ok(0) => return Ok(h.finish()),
            Ok(k) => h.update(&buf[..k]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// The backing buffer: mmap on Linux, an aligned heap copy elsewhere
// ---------------------------------------------------------------------------

/// The bytes of one pack file, kept alive for as long as any borrowed
/// column view needs them. On Linux this is a private read-only
/// `mmap(2)` of the file (page-aligned, so 8-byte section alignment is
/// inherited); elsewhere — or when mapping fails — it is a `read()`
/// into a `Vec<u64>`, whose allocation is 8-byte aligned by type.
pub struct PackBuf {
    ptr: *const u8,
    len: usize,
    backing: Backing,
}

enum Backing {
    #[cfg(target_os = "linux")]
    Mmap,
    /// Owns the bytes; never read through the field itself (access goes
    /// through `ptr`), only dropped.
    Heap(#[allow(dead_code)] Vec<u64>),
}

// SAFETY: the buffer is immutable after construction and the raw
// pointer targets memory owned by this value (a mapping it munmaps on
// drop, or a Vec it holds), so shared access from any thread is sound.
unsafe impl Send for PackBuf {}
unsafe impl Sync for PackBuf {}

impl fmt::Debug for PackBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.backing {
            #[cfg(target_os = "linux")]
            Backing::Mmap => "mmap",
            Backing::Heap(_) => "heap",
        };
        write!(f, "PackBuf({kind}, {} bytes)", self.len)
    }
}

impl Drop for PackBuf {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if matches!(self.backing, Backing::Mmap) {
            extern "C" {
                fn munmap(addr: *mut core::ffi::c_void, length: usize) -> i32;
            }
            // SAFETY: (ptr, len) is exactly the mapping mmap returned.
            unsafe { munmap(self.ptr as *mut core::ffi::c_void, self.len) };
        }
    }
}

impl PackBuf {
    fn bytes(&self) -> &[u8] {
        // SAFETY: (ptr, len) always describes owned, live, immutable
        // memory (see Backing).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Opens a file, preferring `mmap` on Linux and falling back to a
    /// heap read if mapping fails (e.g. a filesystem that refuses it).
    fn open(path: &Path) -> Result<PackBuf, PackError> {
        #[cfg(target_os = "linux")]
        if let Ok(buf) = PackBuf::mmap_open(path) {
            return Ok(buf);
        }
        PackBuf::heap_open(path)
    }

    /// Maps `path` read-only and private. The fd is closed on return;
    /// per mmap(2) the mapping survives it.
    #[cfg(target_os = "linux")]
    fn mmap_open(path: &Path) -> Result<PackBuf, PackError> {
        use std::os::unix::io::AsRawFd;
        // No libc crate anywhere in the workspace; like the serve
        // crate's signal/epoll modules this declares the one call it
        // needs. Constants are from the Linux UAPI (asm-generic/mman).
        extern "C" {
            fn mmap(
                addr: *mut core::ffi::c_void,
                length: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                offset: i64,
            ) -> *mut core::ffi::c_void;
        }
        const PROT_READ: i32 = 0x1;
        const MAP_PRIVATE: i32 = 0x2;
        let file = std::fs::File::open(path)
            .map_err(|e| PackError::Io(format!("{}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| PackError::Io(format!("{}: {e}", path.display())))?
            .len();
        if len == 0 {
            return Err(bad(format!("{}: empty file", path.display())));
        }
        let len = usize::try_from(len)
            .map_err(|_| bad(format!("{}: file too large to map", path.display())))?;
        // SAFETY: a fresh read-only private mapping of a file we hold an
        // fd to; failure is reported as MAP_FAILED (-1), checked below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr.is_null() || ptr as isize == -1 {
            return Err(PackError::Io(format!("{}: mmap failed", path.display())));
        }
        Ok(PackBuf {
            ptr: ptr as *const u8,
            len,
            backing: Backing::Mmap,
        })
    }

    fn heap_open(path: &Path) -> Result<PackBuf, PackError> {
        let bytes =
            std::fs::read(path).map_err(|e| PackError::Io(format!("{}: {e}", path.display())))?;
        Ok(PackBuf::from_bytes(&bytes))
    }

    /// Copies in-memory bytes into an 8-byte-aligned buffer — the
    /// non-mmap load path, and what in-memory round-trip tests use.
    fn from_bytes(bytes: &[u8]) -> PackBuf {
        let words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: the destination Vec<u64> spans at least bytes.len()
        // bytes and the ranges cannot overlap (fresh allocation).
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), words.as_ptr() as *mut u8, bytes.len());
        }
        PackBuf {
            ptr: words.as_ptr() as *const u8,
            len: bytes.len(),
            backing: Backing::Heap(words),
        }
    }
}

// ---------------------------------------------------------------------------
// Borrowed-vs-owned columns
// ---------------------------------------------------------------------------

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for u32 {}
}

/// Element types a column may borrow straight out of a pack: plain old
/// data where every bit pattern is a valid value, so a bounds- and
/// alignment-checked cast of file bytes can never manufacture an
/// invalid value. Sealed on purpose.
pub trait ColElem: sealed::Sealed + Copy + 'static {}
impl ColElem for f64 {}
impl ColElem for u32 {}

/// A typed view into a [`PackBuf`], constructed only by the validated
/// loader. Holding the `Arc` keeps the mapping alive for as long as any
/// clone of the column does.
pub(crate) struct PackSlice<T: ColElem> {
    _buf: Arc<PackBuf>,
    ptr: *const T,
    len: usize,
}

// SAFETY: immutable view of immutable memory kept alive by the Arc.
unsafe impl<T: ColElem> Send for PackSlice<T> {}
unsafe impl<T: ColElem> Sync for PackSlice<T> {}

impl<T: ColElem> Clone for PackSlice<T> {
    fn clone(&self) -> Self {
        PackSlice {
            _buf: Arc::clone(&self._buf),
            ptr: self.ptr,
            len: self.len,
        }
    }
}

impl<T: ColElem> PackSlice<T> {
    /// Builds a view after checking element-size divisibility, pointer
    /// alignment and buffer bounds. The only constructor.
    fn new(buf: &Arc<PackBuf>, off: usize, len_bytes: usize) -> Result<PackSlice<T>, PackError> {
        let size = std::mem::size_of::<T>();
        if len_bytes % size != 0 {
            return Err(bad(format!(
                "section length {len_bytes} not a multiple of element size {size}"
            )));
        }
        let end = off
            .checked_add(len_bytes)
            .ok_or_else(|| bad("section range overflows"))?;
        if end > buf.len {
            return Err(bad(format!(
                "section [{off}, {end}) out of file bounds ({})",
                buf.len
            )));
        }
        if off % std::mem::align_of::<T>() != 0 {
            return Err(bad(format!("section offset {off} is misaligned")));
        }
        // SAFETY: off <= buf.len (checked above) and the base pointer is
        // 8-byte aligned (page-aligned mmap or Vec<u64>), so ptr is a
        // valid, aligned pointer for len_bytes / size elements of T.
        let ptr = unsafe { buf.ptr.add(off) as *const T };
        Ok(PackSlice {
            _buf: Arc::clone(buf),
            ptr,
            len: len_bytes / size,
        })
    }

    fn as_slice(&self) -> &[T] {
        // SAFETY: invariants established in `new`; the memory outlives
        // self via the Arc.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

/// Column storage that is either owned (built from a parsed schedule)
/// or borrowed out of a mapped pack. Readers only ever see `&[T]`.
pub(crate) enum Col<T: ColElem> {
    Owned(Vec<T>),
    Packed(PackSlice<T>),
}

impl<T: ColElem> Col<T> {
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Col::Owned(v) => v,
            Col::Packed(p) => p.as_slice(),
        }
    }
}

impl<T: ColElem> From<Vec<T>> for Col<T> {
    fn from(v: Vec<T>) -> Self {
        Col::Owned(v)
    }
}

impl<T: ColElem> Clone for Col<T> {
    fn clone(&self) -> Self {
        match self {
            Col::Owned(v) => Col::Owned(v.clone()),
            Col::Packed(p) => Col::Packed(p.clone()),
        }
    }
}

impl<T: ColElem> Default for Col<T> {
    fn default() -> Self {
        Col::Owned(Vec::new())
    }
}

impl<T: ColElem + fmt::Debug> fmt::Debug for Col<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Both variants print their logical contents, so columns read as
        // plain slices in assertion messages.
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn u32c(v: usize, what: &str) -> Result<u32, PackError> {
    u32::try_from(v).map_err(|_| bad(format!("{what} ({v}) exceeds u32")))
}

fn le_u32s(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn le_f64s(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Interns strings into the blob, deduplicating repeats (attribute keys
/// and values repeat heavily in real traces).
#[derive(Default)]
struct Interner {
    seen: HashMap<String, (u32, u32)>,
}

impl Interner {
    fn intern(&mut self, blob: &mut Vec<u8>, s: &str) -> Result<(u32, u32), PackError> {
        if let Some(&pair) = self.seen.get(s) {
            return Ok(pair);
        }
        let off = u32c(blob.len(), "string blob size")?;
        let len = u32c(s.len(), "string length")?;
        blob.extend_from_slice(s.as_bytes());
        self.seen.insert(s.to_string(), (off, len));
        Ok((off, len))
    }
}

fn encode_extent(e: Option<TimeExtent>, out: &mut Vec<u8>) {
    match e {
        Some(x) => {
            out.extend_from_slice(&1u64.to_le_bytes());
            out.extend_from_slice(&x.start.to_le_bytes());
            out.extend_from_slice(&x.end.to_le_bytes());
        }
        None => {
            out.extend_from_slice(&0u64.to_le_bytes());
            out.extend_from_slice(&0f64.to_le_bytes());
            out.extend_from_slice(&0f64.to_le_bytes());
        }
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), PackError> {
    out.extend_from_slice(&u32c(s.len(), "composite string length")?.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn encode_composites(composites: &[Task]) -> Result<Vec<u8>, PackError> {
    let mut out = Vec::new();
    out.extend_from_slice(&u32c(composites.len(), "composite count")?.to_le_bytes());
    for t in composites {
        out.extend_from_slice(&t.start.to_le_bytes());
        out.extend_from_slice(&t.end.to_le_bytes());
        put_str(&mut out, &t.id)?;
        put_str(&mut out, &t.kind)?;
        out.extend_from_slice(&u32c(t.attrs.len(), "composite attrs")?.to_le_bytes());
        for (k, v) in &t.attrs {
            put_str(&mut out, k)?;
            put_str(&mut out, v)?;
        }
        out.extend_from_slice(&u32c(t.allocations.len(), "composite allocations")?.to_le_bytes());
        for a in &t.allocations {
            out.extend_from_slice(&a.cluster.to_le_bytes());
            let ranges = a.hosts.ranges();
            out.extend_from_slice(&u32c(ranges.len(), "composite ranges")?.to_le_bytes());
            for r in ranges {
                out.extend_from_slice(&r.start.to_le_bytes());
                out.extend_from_slice(&r.nb.to_le_bytes());
            }
        }
    }
    Ok(out)
}

/// Serializes a [`PreparedSchedule`] into pack bytes (building any
/// still-cold caches in the process). `src_digest` is [`source_digest`]
/// of the source text the schedule was parsed from — the staleness
/// validator every consumer checks before trusting the pack.
pub fn write_pack(prep: &PreparedSchedule, src_digest: u64) -> Result<Vec<u8>, PackError> {
    let _sp = obs::span("pack.write");
    let schedule = prep.schedule();
    let columns = prep.columns();
    let index = prep.index();
    let composites = prep.composites();
    let n = schedule.tasks.len();

    // String blob: task ids first (contiguous, so a CSR of n+1 offsets
    // addresses them), then kind names (same trick), then everything
    // else interned as explicit (off, len) pairs.
    let mut blob: Vec<u8> = Vec::new();
    let mut id_offsets: Vec<u32> = Vec::with_capacity(n + 1);
    for t in &schedule.tasks {
        id_offsets.push(u32c(blob.len(), "string blob size")?);
        blob.extend_from_slice(t.id.as_bytes());
    }
    id_offsets.push(u32c(blob.len(), "string blob size")?);
    let kinds = columns.kind_names();
    let mut kind_name_offsets: Vec<u32> = Vec::with_capacity(kinds.len() + 1);
    for k in kinds {
        kind_name_offsets.push(u32c(blob.len(), "string blob size")?);
        blob.extend_from_slice(k.as_bytes());
    }
    kind_name_offsets.push(u32c(blob.len(), "string blob size")?);
    let mut intern = Interner::default();

    // Cluster geometry: (id, hosts, name_off, name_len) per cluster.
    let mut cluster_quads: Vec<u32> = Vec::with_capacity(schedule.clusters.len() * 4);
    for c in &schedule.clusters {
        let (off, len) = intern.intern(&mut blob, &c.name)?;
        cluster_quads.extend_from_slice(&[c.id, c.hosts, off, len]);
    }

    // Meta entries in insertion order.
    let mut meta_quads: Vec<u32> = Vec::new();
    for (k, v) in schedule.meta.iter() {
        let (ko, kl) = intern.intern(&mut blob, k)?;
        let (vo, vl) = intern.intern(&mut blob, v)?;
        meta_quads.extend_from_slice(&[ko, kl, vo, vl]);
    }

    // Extents: global first, then per cluster in declaration order.
    let mut extents = Vec::with_capacity((1 + schedule.clusters.len()) * 24);
    encode_extent(prep.global_extent(), &mut extents);
    for c in &schedule.clusters {
        encode_extent(
            prep.extent_for(c.id, crate::align::AlignMode::Scaled),
            &mut extents,
        );
    }

    // The index, stored as sorted task-id lists (entry order). Start and
    // end values are gathered from the columns when the loaded bundle is
    // first queried, and the prefix-max structure is recomputed in the
    // same pass — both are cheaper to rebuild than to store and digest.
    let mut cl_offsets: Vec<u32> = vec![0];
    let mut cl_ids: Vec<u32> = Vec::new();
    let mut host_offsets: Vec<u32> = vec![0];
    let mut host_ids: Vec<u32> = Vec::new();
    for c in &schedule.clusters {
        let ci = index
            .cluster(c.id)
            .ok_or_else(|| bad(format!("index missing cluster {}", c.id)))?;
        cl_ids.extend(ci.tasks().entries().iter().map(|e| e.task));
        cl_offsets.push(u32c(cl_ids.len(), "index entries")?);
        for h in 0..c.hosts {
            if let Some(seq) = ci.host(h) {
                host_ids.extend(seq.entries().iter().map(|e| e.task));
            }
            host_offsets.push(u32c(host_ids.len(), "index host entries")?);
        }
    }

    // Allocation structure (for lazy Schedule materialization): a
    // task → allocation CSR, per-allocation cluster ids, and an
    // allocation → host-range CSR over (start, nb) pairs.
    let mut alloc_offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut alloc_clusters: Vec<u32> = Vec::new();
    let mut range_offsets: Vec<u32> = vec![0];
    let mut ranges: Vec<u32> = Vec::new();
    let mut attr_offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut attr_quads: Vec<u32> = Vec::new();
    alloc_offsets.push(0);
    attr_offsets.push(0);
    for t in &schedule.tasks {
        for a in &t.allocations {
            alloc_clusters.push(a.cluster);
            for r in a.hosts.ranges() {
                ranges.push(r.start);
                ranges.push(r.nb);
            }
            range_offsets.push(u32c(ranges.len() / 2, "host ranges")?);
        }
        alloc_offsets.push(u32c(alloc_clusters.len(), "allocations")?);
        for (k, v) in &t.attrs {
            let (ko, kl) = intern.intern(&mut blob, k)?;
            let (vo, vl) = intern.intern(&mut blob, v)?;
            attr_quads.extend_from_slice(&[ko, kl, vo, vl]);
        }
        attr_offsets.push(u32c(attr_quads.len() / 4, "attributes")?);
    }

    let sections: Vec<(u32, Vec<u8>)> = vec![
        (SEC_STARTS, le_f64s(columns.starts())),
        (SEC_ENDS, le_f64s(columns.ends())),
        (SEC_KIND_IDS, le_u32s(columns.kind_ids())),
        (SEC_SEG_OFFSETS, le_u32s(columns.seg_offsets())),
        (SEC_SEG_CLUSTERS, le_u32s(columns.seg_clusters())),
        (SEC_SEG_ROW0, le_u32s(columns.seg_row0())),
        (SEC_SEG_NROWS, le_u32s(columns.seg_nrows())),
        (SEC_ID_OFFSETS, le_u32s(&id_offsets)),
        (SEC_BLOB, blob),
        (SEC_KIND_NAME_OFFSETS, le_u32s(&kind_name_offsets)),
        (SEC_CLUSTERS, le_u32s(&cluster_quads)),
        (SEC_META, le_u32s(&meta_quads)),
        (SEC_EXTENTS, extents),
        (SEC_IDX_CLUSTER_OFFSETS, le_u32s(&cl_offsets)),
        (SEC_IDX_CLUSTER_IDS, le_u32s(&cl_ids)),
        (SEC_IDX_HOST_OFFSETS, le_u32s(&host_offsets)),
        (SEC_IDX_HOST_IDS, le_u32s(&host_ids)),
        (SEC_ALLOC_OFFSETS, le_u32s(&alloc_offsets)),
        (SEC_ALLOC_CLUSTERS, le_u32s(&alloc_clusters)),
        (SEC_ALLOC_RANGE_OFFSETS, le_u32s(&range_offsets)),
        (SEC_ALLOC_RANGES, le_u32s(&ranges)),
        (SEC_ATTR_OFFSETS, le_u32s(&attr_offsets)),
        (SEC_ATTR_QUADS, le_u32s(&attr_quads)),
        (SEC_COMPOSITES, encode_composites(composites)?),
    ];
    Ok(assemble(&sections, src_digest))
}

/// Lays out header + section table + 8-aligned sections, then patches
/// the body digest in.
fn assemble(sections: &[(u32, Vec<u8>)], src_digest: u64) -> Vec<u8> {
    let table_end = HEADER_LEN + sections.len() * TABLE_ENTRY_LEN;
    let mut offsets = Vec::with_capacity(sections.len());
    let mut cursor = table_end; // 48 + k·24 is already 8-aligned
    for (_, bytes) in sections {
        cursor = (cursor + 7) & !7;
        offsets.push(cursor);
        cursor += bytes.len();
    }
    let total = cursor;
    let mut out = vec![0u8; total];
    out[0..8].copy_from_slice(&PACK_MAGIC);
    out[8..12].copy_from_slice(&PACK_VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&(sections.len() as u32).to_le_bytes());
    out[16..24].copy_from_slice(&src_digest.to_le_bytes());
    // Body digest at 24..32 is patched below, once the body is laid out.
    out[32..40].copy_from_slice(&(total as u64).to_le_bytes());
    for (i, ((id, bytes), off)) in sections.iter().zip(&offsets).enumerate() {
        let e = HEADER_LEN + i * TABLE_ENTRY_LEN;
        out[e..e + 4].copy_from_slice(&id.to_le_bytes());
        out[e + 8..e + 16].copy_from_slice(&(*off as u64).to_le_bytes());
        out[e + 16..e + 24].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
        out[*off..off + bytes.len()].copy_from_slice(bytes);
    }
    let digest = source_digest(&out[HEADER_LEN..]);
    out[24..32].copy_from_slice(&digest.to_le_bytes());
    out
}

/// Writes a pack atomically: to a `.tmp` sibling first, then a rename,
/// so a concurrent reader never sees a half-written sidecar.
pub fn write_pack_file(
    prep: &PreparedSchedule,
    src_digest: u64,
    path: &Path,
) -> Result<(), PackError> {
    let bytes = write_pack(prep, src_digest)?;
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, &bytes).map_err(|e| PackError::Io(format!("{}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        PackError::Io(format!("{}: {e}", path.display()))
    })?;
    obs::count("pack.bytes_written", bytes.len() as u64);
    Ok(())
}

/// The conventional sidecar path for an input: the full file name plus
/// `.jpack` (`trace.swf` → `trace.swf.jpack`).
pub fn sidecar_path(input: &Path) -> PathBuf {
    let mut p = input.as_os_str().to_os_string();
    p.push(".");
    p.push(PACK_EXT);
    PathBuf::from(p)
}

// ---------------------------------------------------------------------------
// Header peek
// ---------------------------------------------------------------------------

/// The cheap header-only facts about a pack (no mapping, no digest
/// walk): what `jedule info` reports and what sidecar freshness checks
/// compare before committing to a full load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackInfo {
    /// The stored format version; a pack is current only at
    /// [`PACK_VERSION`].
    pub version: u32,
    /// The stored source digest ([`source_digest`] of the source text,
    /// in a current pack).
    pub source_digest: u64,
}

fn parse_header(head: &[u8]) -> Result<(u32, u32, u64, u64, u64), PackError> {
    if head.len() < HEADER_LEN {
        return Err(bad(format!(
            "truncated: {} bytes, header needs {HEADER_LEN}",
            head.len()
        )));
    }
    if head[0..8] != PACK_MAGIC {
        return Err(bad("bad magic (not a jpack file)"));
    }
    let version = u32::from_le_bytes(head[8..12].try_into().unwrap());
    let nsec = u32::from_le_bytes(head[12..16].try_into().unwrap());
    let src = u64::from_le_bytes(head[16..24].try_into().unwrap());
    let body = u64::from_le_bytes(head[24..32].try_into().unwrap());
    let file_len = u64::from_le_bytes(head[32..40].try_into().unwrap());
    Ok((version, nsec, src, body, file_len))
}

/// Reads only the 48-byte header of `path`. A pack of another format
/// version is not an error here: its version is returned, and callers
/// treat it as stale.
pub fn peek(path: &Path) -> Result<PackInfo, PackError> {
    use std::io::Read;
    let mut f =
        std::fs::File::open(path).map_err(|e| PackError::Io(format!("{}: {e}", path.display())))?;
    let mut head = [0u8; HEADER_LEN];
    f.read_exact(&mut head)
        .map_err(|_| bad(format!("{}: truncated header", path.display())))?;
    let (version, _, source_digest, _, _) = parse_header(&head)?;
    Ok(PackInfo {
        version,
        source_digest,
    })
}

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

/// One fully validated, loaded pack: the prepared caches ready to move
/// into a [`PreparedSchedule`] (via [`PreparedSchedule::from_pack`])
/// plus the lazily-materialized remainder.
#[derive(Debug)]
pub struct PackedSchedule {
    pub(crate) clusters: Vec<Cluster>,
    pub(crate) meta: MetaInfo,
    pub(crate) columns: TaskColumns,
    pub(crate) index: PackIndex,
    pub(crate) global: Option<TimeExtent>,
    pub(crate) per_cluster: Vec<Option<TimeExtent>>,
    pub(crate) composites: Vec<Task>,
    pub(crate) names: PackNames,
    /// The source digest stored in the header.
    pub source_digest: u64,
}

/// The lazily-read remainder of a pack: task-id strings and the
/// allocation/attribute structure, addressed by validated offsets into
/// the shared buffer. [`PackNames::task_id`] serves render labels
/// without materializing a `Schedule`; `build_tasks` materializes the
/// full task list when someone needs one.
pub struct PackNames {
    buf: Arc<PackBuf>,
    n: usize,
    id_off: usize,
    blob_off: usize,
    blob_len: usize,
    alloc_off: usize,
    n_allocs: usize,
    alloc_clusters_off: usize,
    range_off: usize,
    ranges_off: usize,
    n_ranges: usize,
    attr_off: usize,
    n_attrs: usize,
    attr_quads_off: usize,
}

impl fmt::Debug for PackNames {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PackNames({} tasks, {} allocs, {} attrs, blob {} B)",
            self.n, self.n_allocs, self.n_attrs, self.blob_len
        )
    }
}

impl PackNames {
    /// A validated u32 view (invariants established by `load`).
    fn u32s(&self, off: usize, count: usize) -> &[u32] {
        // SAFETY: every (off, count) pair stored in self came out of the
        // loader's bounds + alignment validation against this buffer.
        unsafe { std::slice::from_raw_parts(self.buf.ptr.add(off) as *const u32, count) }
    }

    fn blob_str(&self, off: u32, len: u32) -> &str {
        let b =
            &self.buf.bytes()[self.blob_off + off as usize..self.blob_off + (off + len) as usize];
        // The loader validated the whole blob as UTF-8 and every stored
        // (off, len) pair as char-boundary aligned.
        std::str::from_utf8(b).unwrap_or("")
    }

    /// Task `ti`'s id, straight from the blob.
    pub fn task_id(&self, ti: usize) -> &str {
        let offs = self.u32s(self.id_off, self.n + 1);
        self.blob_str(offs[ti], offs[ti + 1] - offs[ti])
    }

    /// Materializes the full task list (the lazy half of
    /// `PreparedSchedule::schedule()` for packed sources).
    pub(crate) fn build_tasks(&self, columns: &TaskColumns) -> Vec<Task> {
        let starts = columns.starts();
        let ends = columns.ends();
        let kind_ids = columns.kind_ids();
        let kinds = columns.kind_names();
        let alloc_offsets = self.u32s(self.alloc_off, self.n + 1);
        let alloc_clusters = self.u32s(self.alloc_clusters_off, self.n_allocs);
        let range_offsets = self.u32s(self.range_off, self.n_allocs + 1);
        let ranges = self.u32s(self.ranges_off, self.n_ranges * 2);
        let attr_offsets = self.u32s(self.attr_off, self.n + 1);
        let attr_quads = self.u32s(self.attr_quads_off, self.n_attrs * 4);
        let mut tasks = Vec::with_capacity(self.n);
        for ti in 0..self.n {
            let mut allocations = Vec::new();
            for ai in alloc_offsets[ti] as usize..alloc_offsets[ti + 1] as usize {
                let rs: Vec<HostRange> = (range_offsets[ai] as usize
                    ..range_offsets[ai + 1] as usize)
                    .map(|ri| HostRange {
                        start: ranges[ri * 2],
                        nb: ranges[ri * 2 + 1],
                    })
                    .collect();
                allocations.push(Allocation {
                    cluster: alloc_clusters[ai],
                    hosts: HostSet::from_ranges(rs),
                });
            }
            let attrs: Vec<(String, String)> = (attr_offsets[ti] as usize
                ..attr_offsets[ti + 1] as usize)
                .map(|qi| {
                    let q = &attr_quads[qi * 4..qi * 4 + 4];
                    (
                        self.blob_str(q[0], q[1]).to_string(),
                        self.blob_str(q[2], q[3]).to_string(),
                    )
                })
                .collect();
            tasks.push(Task {
                id: self.task_id(ti).to_string(),
                kind: kinds[kind_ids[ti] as usize].clone(),
                start: starts[ti],
                end: ends[ti],
                allocations,
                attrs,
            });
        }
        tasks
    }
}

/// The pack's stored interval index: the per-cluster and per-host
/// sorted task-id lists, borrowed from the shared buffer. [`load`] has
/// checked every row's id range and `(start, task)` order, so
/// [`PackIndex::gather`] cannot fail.
pub(crate) struct PackIndex {
    cluster_offsets: PackSlice<u32>,
    cluster_ids: PackSlice<u32>,
    host_offsets: PackSlice<u32>,
    host_ids: PackSlice<u32>,
}

impl fmt::Debug for PackIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PackIndex({} cluster entries, {} host entries)",
            self.cluster_ids.len, self.host_ids.len
        )
    }
}

impl PackIndex {
    /// Copies the stored rows into a [`ScheduleIndex`], reading each
    /// entry's span from `columns`: the cluster rows alone (what window
    /// culling queries), or every host row too when `with_hosts`.
    /// `clusters` and `columns` are the same pack's.
    pub(crate) fn gather(
        &self,
        clusters: &[Cluster],
        columns: &TaskColumns,
        with_hosts: bool,
    ) -> ScheduleIndex {
        let (starts, ends) = (columns.starts(), columns.ends());
        let seq = |ids: &[u32]| {
            IntervalSeq::from_sorted_entries(
                ids.iter()
                    .map(|&id| IndexEntry {
                        start: starts[id as usize],
                        end: ends[id as usize],
                        task: id,
                    })
                    .collect(),
            )
        };
        let (cl_offsets, cl_ids) = (self.cluster_offsets.as_slice(), self.cluster_ids.as_slice());
        let (host_offsets, host_ids) = (self.host_offsets.as_slice(), self.host_ids.as_slice());
        let mut cluster_indexes = Vec::with_capacity(clusters.len());
        let mut row = 0usize;
        for (ci, c) in clusters.iter().enumerate() {
            let tasks = seq(&cl_ids[cl_offsets[ci] as usize..cl_offsets[ci + 1] as usize]);
            let rows = row..row + c.hosts as usize;
            row = rows.end;
            let per_host = with_hosts.then(|| {
                rows.map(|r| seq(&host_ids[host_offsets[r] as usize..host_offsets[r + 1] as usize]))
                    .collect()
            });
            cluster_indexes.push(ClusterIndex::from_parts(c.id, c.hosts, tasks, per_host));
        }
        ScheduleIndex::from_parts(cluster_indexes, with_hosts)
    }
}

/// Byte ranges of the 24 sections, by id.
struct SectionTable {
    sections: [(usize, usize); SEC_COUNT as usize],
}

impl SectionTable {
    fn range(&self, id: u32) -> (usize, usize) {
        self.sections[(id - 1) as usize]
    }

    /// A typed view of section `id` that keeps `buf` alive.
    fn slice<T: ColElem>(&self, buf: &Arc<PackBuf>, id: u32) -> Result<PackSlice<T>, PackError> {
        let (off, len) = self.range(id);
        PackSlice::new(buf, off, len)
    }
}

/// A validated borrow of a u32 section (alignment and bounds come from
/// the table validation).
fn u32_section(buf: &PackBuf, (off, len): (usize, usize)) -> Result<&[u32], PackError> {
    if len % 4 != 0 {
        return Err(bad(format!("u32 section length {len} not a multiple of 4")));
    }
    // SAFETY: table validation checked off % 8 == 0 and off + len in
    // bounds; the base pointer is 8-aligned.
    Ok(unsafe { std::slice::from_raw_parts(buf.ptr.add(off) as *const u32, len / 4) })
}

fn f64_section(buf: &PackBuf, (off, len): (usize, usize)) -> Result<&[f64], PackError> {
    if len % 8 != 0 {
        return Err(bad(format!("f64 section length {len} not a multiple of 8")));
    }
    // SAFETY: as above; f64 accepts any bit pattern.
    Ok(unsafe { std::slice::from_raw_parts(buf.ptr.add(off) as *const f64, len / 8) })
}

/// Checks a CSR offsets array: expected length, starts at 0,
/// non-decreasing, final value equal to `total`.
fn check_csr(offs: &[u32], expect_len: usize, total: usize, what: &str) -> Result<(), PackError> {
    if offs.len() != expect_len {
        return Err(bad(format!(
            "{what}: {} offsets, expected {expect_len}",
            offs.len()
        )));
    }
    if offs.first().is_some_and(|&o| o != 0) {
        return Err(bad(format!("{what}: first offset must be 0")));
    }
    let mut prev = 0u32;
    for &o in offs {
        if o < prev {
            return Err(bad(format!("{what}: offsets decrease")));
        }
        prev = o;
    }
    if offs.last().copied().unwrap_or(0) as usize != total {
        return Err(bad(format!(
            "{what}: final offset {} != element count {total}",
            offs.last().copied().unwrap_or(0)
        )));
    }
    Ok(())
}

/// Checks monotone blob offsets with char-boundary validation against
/// the decoded blob.
fn check_blob_csr(
    offs: &[u32],
    expect_len: usize,
    blob: &str,
    what: &str,
) -> Result<(), PackError> {
    if offs.len() != expect_len {
        return Err(bad(format!(
            "{what}: {} offsets, expected {expect_len}",
            offs.len()
        )));
    }
    let mut prev = 0u32;
    for &o in offs {
        if o < prev {
            return Err(bad(format!("{what}: offsets decrease")));
        }
        if o as usize > blob.len() || !blob.is_char_boundary(o as usize) {
            return Err(bad(format!("{what}: offset {o} not a blob char boundary")));
        }
        prev = o;
    }
    Ok(())
}

fn check_blob_pair(off: u32, len: u32, blob: &str, what: &str) -> Result<(), PackError> {
    let end = off
        .checked_add(len)
        .ok_or_else(|| bad(format!("{what}: string range overflows")))?;
    if end as usize > blob.len()
        || !blob.is_char_boundary(off as usize)
        || !blob.is_char_boundary(end as usize)
    {
        return Err(bad(format!(
            "{what}: string [{off}, {end}) not a valid blob range"
        )));
    }
    Ok(())
}

/// Checks one stored index row: every task id in range and the entries
/// in `(start, task)` order — what [`PackIndex::gather`] relies on.
fn check_seq(ids: &[u32], starts: &[f64], what: &str) -> Result<(), PackError> {
    let n = starts.len();
    if ids.len() > n {
        return Err(bad(format!("{what}: {} entries for {n} tasks", ids.len())));
    }
    let mut prev: Option<(f64, u32)> = None;
    for &id in ids {
        let Some(&s) = starts.get(id as usize) else {
            return Err(bad(format!("{what}: task id {id} out of range ({n})")));
        };
        if let Some((ps, pid)) = prev {
            if ps.total_cmp(&s).then(pid.cmp(&id)) == std::cmp::Ordering::Greater {
                return Err(bad(format!("{what}: entries not sorted by (start, task)")));
            }
        }
        prev = Some((s, id));
    }
    Ok(())
}

/// Bounds-checked cursor over the byte-packed composite section.
struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PackError> {
        let end = self
            .i
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| bad("composites: truncated"))?;
        let s = &self.b[self.i..end];
        self.i = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, PackError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, PackError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, PackError> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| bad("composites: invalid UTF-8"))
    }
}

fn decode_composites(bytes: &[u8]) -> Result<Vec<Task>, PackError> {
    let mut cur = Cursor { b: bytes, i: 0 };
    let count = cur.u32()? as usize;
    // A composite needs at least its fixed-size fields (28 B); bound the
    // count so a hostile header can't force a huge up-front reservation.
    if count > bytes.len() / 28 + 1 {
        return Err(bad("composites: count exceeds section size"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let start = cur.f64()?;
        let end = cur.f64()?;
        let id = cur.string()?;
        let kind = cur.string()?;
        let n_attrs = cur.u32()? as usize;
        let mut attrs = Vec::new();
        for _ in 0..n_attrs {
            let k = cur.string()?;
            let v = cur.string()?;
            attrs.push((k, v));
        }
        let n_allocs = cur.u32()? as usize;
        let mut allocations = Vec::new();
        for _ in 0..n_allocs {
            let cluster = cur.u32()?;
            let n_ranges = cur.u32()? as usize;
            let mut rs = Vec::new();
            for _ in 0..n_ranges {
                let rstart = cur.u32()?;
                let nb = cur.u32()?;
                if rstart.checked_add(nb).is_none() {
                    return Err(bad("composites: host range overflows"));
                }
                rs.push(HostRange { start: rstart, nb });
            }
            allocations.push(Allocation {
                cluster,
                hosts: HostSet::from_ranges(rs),
            });
        }
        out.push(Task {
            id,
            kind,
            start,
            end,
            allocations,
            attrs,
        });
    }
    if cur.i != bytes.len() {
        return Err(bad("composites: trailing bytes"));
    }
    Ok(out)
}

fn decode_extent(b: &[u8]) -> Option<TimeExtent> {
    let present = u64::from_le_bytes(b[0..8].try_into().unwrap());
    (present != 0).then(|| TimeExtent {
        start: f64::from_le_bytes(b[8..16].try_into().unwrap()),
        end: f64::from_le_bytes(b[16..24].try_into().unwrap()),
    })
}

/// Loads and fully validates a pack file. See the module docs for the
/// validation contract; after `Ok`, every access is panic-free.
pub fn load(path: &Path) -> Result<PackedSchedule, PackError> {
    let buf = PackBuf::open(path)?;
    load_from(Arc::new(buf))
}

/// [`load`] over in-memory bytes (always the heap-copy backing) — what
/// round-trip and corruption tests drive.
pub fn load_bytes(bytes: &[u8]) -> Result<PackedSchedule, PackError> {
    load_from(Arc::new(PackBuf::from_bytes(bytes)))
}

fn load_from(buf: Arc<PackBuf>) -> Result<PackedSchedule, PackError> {
    let _sp = obs::span("pack.load");
    if cfg!(target_endian = "big") {
        return Err(bad("jpack sections are little-endian; unsupported host"));
    }
    let b = buf.bytes();
    let (version, nsec, src_digest, stored_body, file_len) = parse_header(b)?;
    if version != PACK_VERSION {
        return Err(bad(format!(
            "unsupported version {version} (supported: {PACK_VERSION})"
        )));
    }
    if file_len != b.len() as u64 {
        return Err(bad(format!(
            "file length {} != header length {file_len} (truncated?)",
            b.len()
        )));
    }
    if nsec != SEC_COUNT {
        return Err(bad(format!(
            "section count {nsec}, version {PACK_VERSION} has {SEC_COUNT}"
        )));
    }
    let table_end = HEADER_LEN + SEC_COUNT as usize * TABLE_ENTRY_LEN;
    if b.len() < table_end {
        return Err(bad("truncated section table"));
    }
    {
        let _d = obs::span("pack.digest");
        if source_digest(&b[HEADER_LEN..]) != stored_body {
            return Err(bad("body digest mismatch (corrupt pack)"));
        }
    }

    // Section table: every id exactly once, 8-aligned, in bounds.
    let mut sections = [(usize::MAX, 0usize); SEC_COUNT as usize];
    for i in 0..SEC_COUNT as usize {
        let e = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let id = u32::from_le_bytes(b[e..e + 4].try_into().unwrap());
        let off = u64::from_le_bytes(b[e + 8..e + 16].try_into().unwrap());
        let len = u64::from_le_bytes(b[e + 16..e + 24].try_into().unwrap());
        if id == 0 || id > SEC_COUNT {
            return Err(bad(format!("unknown section id {id}")));
        }
        let (off, len) = (
            usize::try_from(off).map_err(|_| bad("section offset overflows"))?,
            usize::try_from(len).map_err(|_| bad("section length overflows"))?,
        );
        if off % 8 != 0 {
            return Err(bad(format!("section {id}: offset {off} not 8-aligned")));
        }
        let end = off
            .checked_add(len)
            .ok_or_else(|| bad("section range overflows"))?;
        if off < table_end || end > b.len() {
            return Err(bad(format!(
                "section {id}: [{off}, {end}) outside payload [{table_end}, {})",
                b.len()
            )));
        }
        if sections[(id - 1) as usize].0 != usize::MAX {
            return Err(bad(format!("section {id} appears twice")));
        }
        sections[(id - 1) as usize] = (off, len);
    }
    if let Some(missing) = sections.iter().position(|&(o, _)| o == usize::MAX) {
        return Err(bad(format!("section {} missing", missing + 1)));
    }
    let table = SectionTable { sections };

    // --- Task columns -----------------------------------------------------
    let starts = f64_section(&buf, table.range(SEC_STARTS))?;
    let ends = f64_section(&buf, table.range(SEC_ENDS))?;
    let n = starts.len();
    if ends.len() != n {
        return Err(bad(format!("{} ends for {n} starts", ends.len())));
    }
    let kind_ids = u32_section(&buf, table.range(SEC_KIND_IDS))?;
    if kind_ids.len() != n {
        return Err(bad(format!("{} kind ids for {n} tasks", kind_ids.len())));
    }
    let seg_offsets = u32_section(&buf, table.range(SEC_SEG_OFFSETS))?;
    let seg_clusters = u32_section(&buf, table.range(SEC_SEG_CLUSTERS))?;
    let seg_row0 = u32_section(&buf, table.range(SEC_SEG_ROW0))?;
    let seg_nrows = u32_section(&buf, table.range(SEC_SEG_NROWS))?;
    check_csr(seg_offsets, n + 1, seg_clusters.len(), "segment offsets")?;
    if seg_row0.len() != seg_clusters.len() || seg_nrows.len() != seg_clusters.len() {
        return Err(bad("segment column lengths disagree"));
    }

    // --- Strings ----------------------------------------------------------
    let (blob_off, blob_len) = table.range(SEC_BLOB);
    let blob = std::str::from_utf8(&b[blob_off..blob_off + blob_len])
        .map_err(|_| bad("string blob is not valid UTF-8"))?;
    let id_offsets = u32_section(&buf, table.range(SEC_ID_OFFSETS))?;
    check_blob_csr(id_offsets, n + 1, blob, "task id offsets")?;
    let kind_name_offsets = u32_section(&buf, table.range(SEC_KIND_NAME_OFFSETS))?;
    if kind_name_offsets.is_empty() {
        return Err(bad("kind name offsets empty"));
    }
    check_blob_csr(
        kind_name_offsets,
        kind_name_offsets.len(),
        blob,
        "kind name offsets",
    )?;
    let n_kinds = kind_name_offsets.len() - 1;
    if let Some(&k) = kind_ids.iter().find(|&&k| k as usize >= n_kinds) {
        return Err(bad(format!("kind id {k} out of range ({n_kinds} kinds)")));
    }
    let kind_names: Vec<String> = (0..n_kinds)
        .map(|i| blob[kind_name_offsets[i] as usize..kind_name_offsets[i + 1] as usize].to_string())
        .collect();

    // --- Cluster geometry -------------------------------------------------
    let cluster_quads = u32_section(&buf, table.range(SEC_CLUSTERS))?;
    if cluster_quads.len() % 4 != 0 {
        return Err(bad("cluster section length not a multiple of 4 words"));
    }
    let ncl = cluster_quads.len() / 4;
    let mut clusters = Vec::with_capacity(ncl);
    for q in cluster_quads.chunks_exact(4) {
        check_blob_pair(q[2], q[3], blob, "cluster name")?;
        clusters.push(Cluster {
            id: q[0],
            hosts: q[1],
            name: blob[q[2] as usize..(q[2] + q[3]) as usize].to_string(),
        });
    }
    // Row bounds: every segment of a known cluster must fit its host
    // count, so the layout's grid deposit can index rows unchecked.
    let hosts_of = |cid: u32| clusters.iter().find(|c| c.id == cid).map(|c| c.hosts);
    for ((&sc, &r0), &nr) in seg_clusters.iter().zip(seg_row0).zip(seg_nrows) {
        if let Some(h) = hosts_of(sc) {
            let end = r0
                .checked_add(nr)
                .ok_or_else(|| bad("segment row range overflows"))?;
            if end > h {
                return Err(bad(format!(
                    "segment row range [{r0}, {end}) exceeds cluster {sc} hosts {h}"
                )));
            }
        }
    }

    // --- Meta -------------------------------------------------------------
    let meta_quads = u32_section(&buf, table.range(SEC_META))?;
    if meta_quads.len() % 4 != 0 {
        return Err(bad("meta section length not a multiple of 4 words"));
    }
    let mut meta = MetaInfo::default();
    for q in meta_quads.chunks_exact(4) {
        check_blob_pair(q[0], q[1], blob, "meta key")?;
        check_blob_pair(q[2], q[3], blob, "meta value")?;
        meta.set(
            blob[q[0] as usize..(q[0] + q[1]) as usize].to_string(),
            blob[q[2] as usize..(q[2] + q[3]) as usize].to_string(),
        );
    }

    // --- Extents ----------------------------------------------------------
    let (ext_off, ext_len) = table.range(SEC_EXTENTS);
    if ext_len != (1 + ncl) * 24 {
        return Err(bad(format!(
            "extent section {ext_len} B, expected {} for {ncl} clusters",
            (1 + ncl) * 24
        )));
    }
    let ext = &b[ext_off..ext_off + ext_len];
    let global = decode_extent(&ext[0..24]);
    let per_cluster: Vec<Option<TimeExtent>> = (0..ncl)
        .map(|i| decode_extent(&ext[(1 + i) * 24..(2 + i) * 24]))
        .collect();

    // --- Index ------------------------------------------------------------
    let cl_offsets = u32_section(&buf, table.range(SEC_IDX_CLUSTER_OFFSETS))?;
    let cl_ids = u32_section(&buf, table.range(SEC_IDX_CLUSTER_IDS))?;
    check_csr(cl_offsets, ncl + 1, cl_ids.len(), "index cluster offsets")?;
    let host_offsets = u32_section(&buf, table.range(SEC_IDX_HOST_OFFSETS))?;
    let host_ids = u32_section(&buf, table.range(SEC_IDX_HOST_IDS))?;
    let want_rows: u64 = clusters.iter().map(|c| c.hosts as u64).sum();
    let total_rows = usize::try_from(want_rows)
        .ok()
        .filter(|&r| r + 1 == host_offsets.len())
        .ok_or_else(|| {
            bad(format!(
                "index host offsets: {} rows for {want_rows} cluster hosts",
                host_offsets.len().saturating_sub(1)
            ))
        })?;
    check_csr(
        host_offsets,
        total_rows + 1,
        host_ids.len(),
        "index host offsets",
    )?;
    {
        let _c = obs::span("pack.index_check");
        let mut row = 0usize;
        for (ci, c) in clusters.iter().enumerate() {
            let ids = &cl_ids[cl_offsets[ci] as usize..cl_offsets[ci + 1] as usize];
            check_seq(ids, starts, "index cluster entries")?;
            for _ in 0..c.hosts {
                let ids = &host_ids[host_offsets[row] as usize..host_offsets[row + 1] as usize];
                check_seq(ids, starts, "index host entries")?;
                row += 1;
            }
        }
    }

    // --- Allocation / attribute structure (lazy, but validated now) -------
    let alloc_offsets = u32_section(&buf, table.range(SEC_ALLOC_OFFSETS))?;
    let alloc_clusters = u32_section(&buf, table.range(SEC_ALLOC_CLUSTERS))?;
    check_csr(
        alloc_offsets,
        n + 1,
        alloc_clusters.len(),
        "allocation offsets",
    )?;
    let n_allocs = alloc_clusters.len();
    let range_offsets = u32_section(&buf, table.range(SEC_ALLOC_RANGE_OFFSETS))?;
    let ranges = u32_section(&buf, table.range(SEC_ALLOC_RANGES))?;
    if ranges.len() % 2 != 0 {
        return Err(bad("host range section length is odd"));
    }
    check_csr(
        range_offsets,
        n_allocs + 1,
        ranges.len() / 2,
        "host range offsets",
    )?;
    for pair in ranges.chunks_exact(2) {
        if pair[0].checked_add(pair[1]).is_none() {
            return Err(bad("host range overflows"));
        }
    }
    let attr_offsets = u32_section(&buf, table.range(SEC_ATTR_OFFSETS))?;
    let attr_quads = u32_section(&buf, table.range(SEC_ATTR_QUADS))?;
    if attr_quads.len() % 4 != 0 {
        return Err(bad("attribute section length not a multiple of 4 words"));
    }
    check_csr(
        attr_offsets,
        n + 1,
        attr_quads.len() / 4,
        "attribute offsets",
    )?;
    for q in attr_quads.chunks_exact(4) {
        check_blob_pair(q[0], q[1], blob, "attribute key")?;
        check_blob_pair(q[2], q[3], blob, "attribute value")?;
    }

    // --- Composites -------------------------------------------------------
    let (comp_off, comp_len) = table.range(SEC_COMPOSITES);
    let composites = decode_composites(&b[comp_off..comp_off + comp_len])?;
    for t in &composites {
        for a in &t.allocations {
            if let (Some(h), Some(mx)) = (hosts_of(a.cluster), a.hosts.max_host()) {
                if mx >= h {
                    return Err(bad(format!(
                        "composite {:?}: host {mx} exceeds cluster {} hosts {h}",
                        t.id, a.cluster
                    )));
                }
            }
        }
    }

    // --- Assemble borrowed columns + the lazy remainder -------------------
    let columns = TaskColumns::from_parts(
        Col::Packed(table.slice(&buf, SEC_STARTS)?),
        Col::Packed(table.slice(&buf, SEC_ENDS)?),
        Col::Packed(table.slice(&buf, SEC_KIND_IDS)?),
        kind_names,
        Col::Packed(table.slice(&buf, SEC_SEG_OFFSETS)?),
        Col::Packed(table.slice(&buf, SEC_SEG_CLUSTERS)?),
        Col::Packed(table.slice(&buf, SEC_SEG_ROW0)?),
        Col::Packed(table.slice(&buf, SEC_SEG_NROWS)?),
    );
    let index = PackIndex {
        cluster_offsets: table.slice(&buf, SEC_IDX_CLUSTER_OFFSETS)?,
        cluster_ids: table.slice(&buf, SEC_IDX_CLUSTER_IDS)?,
        host_offsets: table.slice(&buf, SEC_IDX_HOST_OFFSETS)?,
        host_ids: table.slice(&buf, SEC_IDX_HOST_IDS)?,
    };
    let names = PackNames {
        buf: Arc::clone(&buf),
        n,
        id_off: table.range(SEC_ID_OFFSETS).0,
        blob_off,
        blob_len,
        alloc_off: table.range(SEC_ALLOC_OFFSETS).0,
        n_allocs,
        alloc_clusters_off: table.range(SEC_ALLOC_CLUSTERS).0,
        range_off: table.range(SEC_ALLOC_RANGE_OFFSETS).0,
        ranges_off: table.range(SEC_ALLOC_RANGES).0,
        n_ranges: ranges.len() / 2,
        attr_off: table.range(SEC_ATTR_OFFSETS).0,
        n_attrs: attr_quads.len() / 4,
        attr_quads_off: table.range(SEC_ATTR_QUADS).0,
    };
    obs::count("pack.bytes_loaded", b.len() as u64);
    Ok(PackedSchedule {
        clusters,
        meta,
        columns,
        index,
        global,
        per_cluster,
        composites,
        names,
        source_digest: src_digest,
    })
}

/// Loads `pack_path` only if it is at [`PACK_VERSION`] and its stored
/// source digest equals `src_digest` (the digest of the *current*
/// source text). `Ok(None)` means a stale pack — another format
/// version, or built from other text — and callers fall back to the
/// text path silently; `Err` means unreadable or corrupt.
pub fn load_if_fresh(
    pack_path: &Path,
    src_digest: u64,
) -> Result<Option<PackedSchedule>, PackError> {
    let info = peek(pack_path)?;
    if info.version != PACK_VERSION || info.source_digest != src_digest {
        return Ok(None);
    }
    let packed = load(pack_path)?;
    if packed.source_digest != src_digest {
        return Ok(None);
    }
    Ok(Some(packed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScheduleBuilder;
    use crate::model::Schedule;

    fn sched() -> Schedule {
        ScheduleBuilder::new()
            .cluster(0, "c0", 8)
            .cluster(3, "c1", 4)
            .meta("app", "demo")
            .task(
                Task::new("a", "computation", 1.0, 4.0)
                    .on(Allocation::contiguous(0, 0, 4))
                    .with_attr("user", "u1"),
            )
            .task(
                Task::new("b", "transfer", 3.0, 6.0)
                    .on(Allocation::new(0, HostSet::from_hosts([0, 1, 4, 5, 7])))
                    .on(Allocation::contiguous(3, 0, 2)),
            )
            .task(Task::new("c", "computation", 0.5, 5.0).on(Allocation::contiguous(3, 0, 4)))
            .build()
            .unwrap()
    }

    fn pack_of(s: &Schedule) -> Vec<u8> {
        let prep = PreparedSchedule::new(s.clone());
        write_pack(&prep, source_digest(b"src")).unwrap()
    }

    #[test]
    fn roundtrip_materializes_identical_schedule() {
        let s = sched();
        let packed = load_bytes(&pack_of(&s)).unwrap();
        assert_eq!(packed.source_digest, source_digest(b"src"));
        let prep = PreparedSchedule::from_pack(packed);
        assert_eq!(prep.schedule(), &s);
    }

    #[test]
    fn packed_caches_match_owned() {
        let s = sched();
        let owned = PreparedSchedule::new(s.clone());
        let packed = PreparedSchedule::from_pack(load_bytes(&pack_of(&s)).unwrap());
        assert_eq!(packed.columns().starts(), owned.columns().starts());
        assert_eq!(packed.columns().ends(), owned.columns().ends());
        assert_eq!(packed.columns().kind_ids(), owned.columns().kind_ids());
        assert_eq!(packed.columns().kind_names(), owned.columns().kind_names());
        assert_eq!(
            packed.columns().seg_offsets(),
            owned.columns().seg_offsets()
        );
        assert_eq!(packed.global_extent(), owned.global_extent());
        assert_eq!(packed.composites(), owned.composites());
        // Culling gathers the cluster rows alone; `index()` and `warm()`
        // gather every row. None of it materializes the schedule.
        let cull = packed.cull_index().unwrap();
        assert!(!cull.has_hosts());
        assert!(packed.index().has_hosts());
        packed.warm();
        assert!(!packed.is_materialized());
        for c in &s.clusters {
            let a = packed.index().cluster(c.id).unwrap();
            let b = owned.index().cluster(c.id).unwrap();
            assert_eq!(a.tasks().entries(), b.tasks().entries());
            assert_eq!(
                cull.cluster(c.id).unwrap().tasks().entries(),
                b.tasks().entries()
            );
            for h in 0..c.hosts {
                assert_eq!(
                    a.host(h).unwrap().entries(),
                    b.host(h).unwrap().entries(),
                    "cluster {} host {h}",
                    c.id
                );
            }
            assert_eq!(a.query(0.0, 10.0), b.query(0.0, 10.0));
        }
        // Once the full index exists, culling reuses it.
        assert!(std::ptr::eq(packed.cull_index().unwrap(), packed.index()));
    }

    #[test]
    fn loading_gathers_no_index() {
        let p = pack_of(&sched());
        let col = obs::Collector::new();
        let _g = col.install();
        let packed = PreparedSchedule::from_pack(load_bytes(&p).unwrap());
        let gathers = || {
            col.report()
                .spans
                .iter()
                .filter(|s| s.name == "pack.index_gather")
                .count()
        };
        assert_eq!(gathers(), 0);
        packed.cull_index();
        packed.cull_index();
        assert_eq!(gathers(), 1);
        packed.index();
        packed.index();
        assert_eq!(gathers(), 2);
        assert!(!packed.is_materialized());
    }

    #[test]
    fn text_bundles_cull_only_once_warmed() {
        let prep = PreparedSchedule::new(sched());
        assert!(prep.cull_index().is_none());
        prep.warm();
        assert!(std::ptr::eq(prep.cull_index().unwrap(), prep.index()));
    }

    #[test]
    fn source_digest_is_xxh64() {
        // Published XXH64 (seed 0) test vectors.
        let vectors: [(&[u8], u64); 4] = [
            (b"", 0xef46db3751d8e999),
            (b"a", 0xd24ec4f1a98c6e5b),
            (b"abc", 0x44bc2cf5ad770999),
            (
                b"Nobody inspects the spammish repetition",
                0xfbcea83c8a378bf1,
            ),
        ];
        for (input, want) in vectors {
            assert_eq!(source_digest(input), want, "{input:?}");
            assert_eq!(source_digest_reader(input).unwrap(), want, "{input:?}");
        }
    }

    #[test]
    fn task_ids_served_without_materialization() {
        let s = sched();
        let packed = load_bytes(&pack_of(&s)).unwrap();
        for (ti, t) in s.tasks.iter().enumerate() {
            assert_eq!(packed.names.task_id(ti), t.id);
        }
    }

    #[test]
    fn empty_schedule_roundtrips() {
        let s = ScheduleBuilder::new().cluster(0, "c", 2).build().unwrap();
        let packed = load_bytes(&pack_of(&s)).unwrap();
        let prep = PreparedSchedule::from_pack(packed);
        assert_eq!(prep.global_extent(), None);
        assert_eq!(prep.schedule(), &s);
    }

    #[test]
    fn sidecar_path_appends_extension() {
        assert_eq!(
            sidecar_path(Path::new("/x/trace.swf")),
            PathBuf::from("/x/trace.swf.jpack")
        );
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut p = pack_of(&sched());
        let mut q = p.clone();
        q[0] = b'X';
        assert!(matches!(load_bytes(&q), Err(PackError::Format(_))));
        p[8] = 99; // version
        assert!(matches!(load_bytes(&p), Err(PackError::Format(_))));
    }

    #[test]
    fn truncation_and_corruption_rejected() {
        let p = pack_of(&sched());
        for cut in [0, 10, HEADER_LEN, p.len() / 2, p.len() - 1] {
            assert!(
                matches!(load_bytes(&p[..cut]), Err(PackError::Format(_))),
                "cut at {cut}"
            );
        }
        for &flip in &[HEADER_LEN + 3, p.len() / 2, p.len() - 1] {
            let mut q = p.clone();
            q[flip] ^= 0xff;
            assert!(
                matches!(load_bytes(&q), Err(PackError::Format(_))),
                "flip at {flip}"
            );
        }
    }

    /// A pack of another format version is stale, not corrupt: `peek`
    /// reports the version, `load_if_fresh` declines it even when its
    /// source digest matches, and only `load` fails.
    #[test]
    fn other_versions_are_stale() {
        let dir = std::env::temp_dir().join(format!("jedule-snap-version-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.jed.jpack");
        for version in [PACK_VERSION - 1, PACK_VERSION + 1] {
            let mut p = pack_of(&sched());
            p[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &p).unwrap();
            let info = peek(&path).unwrap();
            assert_eq!(info.version, version);
            assert!(load_if_fresh(&path, source_digest(b"src"))
                .unwrap()
                .is_none());
            assert!(matches!(load(&path), Err(PackError::Format(_))));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_if_fresh_detects_stale_digest() {
        let p = pack_of(&sched());
        let packed = load_bytes(&p).unwrap();
        assert_eq!(packed.source_digest, source_digest(b"src"));
        // A mismatching source digest would be reported as stale by the
        // sidecar helpers; load_bytes itself doesn't compare sources.
        assert_ne!(source_digest(b"edited"), packed.source_digest);
    }
}
