//! Hostile-input property tests of the jpack loader: a pack written by
//! [`snap::write_pack`] must materialize the exact source schedule back,
//! and `snap::load_bytes` must answer *every* corruption — truncations,
//! bit flips, and structurally inconsistent section tables whose body
//! digest has been re-stamped to pass the integrity check — with a clean
//! `PackError`, never a panic and never an out-of-bounds access.

use jedule_core::snap::{self, load_bytes, source_digest, write_pack, PackError};
use jedule_core::{Allocation, HostSet, PreparedSchedule, Schedule, ScheduleBuilder, Task};
use proptest::prelude::*;
use std::io::{self, Read};

/// Mirrors the private layout constants in `snap.rs`; asserted against
/// the real file in `layout_constants_match` below so drift fails loudly.
const HEADER_LEN: usize = 48;
const TABLE_ENTRY_LEN: usize = 24;
const SEC_COUNT: usize = 24;

/// The digest the source text of every generated pack is stamped with.
const SRC: &[u8] = b"snap_props source text";

/// Re-implements the loader's word-at-a-time FNV-1a-64 body digest so a
/// test can corrupt the section table and then re-stamp the header,
/// forcing the *structural* validators (not the digest check) to be the
/// ones that reject the pack.
fn body_fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().unwrap());
        h = h.wrapping_mul(0x100000001b3);
    }
    for &b in chunks.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Overwrites the stored body digest with the digest of the (possibly
/// corrupted) body, so `load_bytes` gets past the integrity check.
fn restamp(pack: &mut [u8]) {
    let d = body_fnv(&pack[HEADER_LEN..]);
    pack[24..32].copy_from_slice(&d.to_le_bytes());
}

/// Section ids of the task start column and the stored index rows.
const SEC_STARTS: u32 = 1;
const SEC_IDX_CLUSTER_OFFSETS: u32 = 14;
const SEC_IDX_CLUSTER_IDS: u32 = 15;
const SEC_IDX_HOST_OFFSETS: u32 = 16;
const SEC_IDX_HOST_IDS: u32 = 17;

fn u32_at(pack: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(pack[off..off + 4].try_into().unwrap())
}

fn u64_at(pack: &[u8], off: usize) -> usize {
    u64::from_le_bytes(pack[off..off + 8].try_into().unwrap()) as usize
}

/// `(offset, length)` in bytes of section `id`, read from the table.
fn section(pack: &[u8], id: u32) -> (usize, usize) {
    (0..SEC_COUNT)
        .map(|i| HEADER_LEN + i * TABLE_ENTRY_LEN)
        .find(|&e| u32_at(pack, e) == id)
        .map(|e| (u64_at(pack, e + 8), u64_at(pack, e + 16)))
        .expect("section present")
}

/// Every single-entry corruption of one index section — the cluster
/// rows (id 15, CSR in 14) or the host rows (id 17, CSR in 16) — with
/// the digest re-stamped, paired with the message `load` must give:
/// each task id replaced by the task count, and each pair of adjacent
/// entries of one row with distinct starts swapped.
fn index_corruptions(pack: &[u8], offsets_id: u32, ids_id: u32) -> Vec<(Vec<u8>, String)> {
    let what = if ids_id == SEC_IDX_CLUSTER_IDS {
        "index cluster entries"
    } else {
        "index host entries"
    };
    let (starts_off, starts_len) = section(pack, SEC_STARTS);
    let n = starts_len / 8;
    let start_of = |id: u32| {
        f64::from_le_bytes(
            pack[starts_off + 8 * id as usize..][..8]
                .try_into()
                .unwrap(),
        )
    };
    let (offs_off, offs_len) = section(pack, offsets_id);
    let (ids_off, ids_len) = section(pack, ids_id);
    let id_at = |i: usize| ids_off + 4 * i;
    let mut out = Vec::new();
    for i in 0..ids_len / 4 {
        let mut q = pack.to_vec();
        q[id_at(i)..id_at(i) + 4].copy_from_slice(&(n as u32).to_le_bytes());
        restamp(&mut q);
        out.push((q, format!("{what}: task id {n} out of range ({n})")));
    }
    for r in 0..offs_len / 4 - 1 {
        let (lo, hi) = (
            u32_at(pack, offs_off + 4 * r) as usize,
            u32_at(pack, offs_off + 4 * r + 4) as usize,
        );
        for i in lo..hi.saturating_sub(1) {
            let (a, b) = (u32_at(pack, id_at(i)), u32_at(pack, id_at(i + 1)));
            if start_of(a) == start_of(b) {
                continue;
            }
            let mut q = pack.to_vec();
            q[id_at(i)..id_at(i) + 4].copy_from_slice(&b.to_le_bytes());
            q[id_at(i + 1)..id_at(i + 1) + 4].copy_from_slice(&a.to_le_bytes());
            restamp(&mut q);
            out.push((q, format!("{what}: entries not sorted by (start, task)")));
        }
    }
    out
}

/// Loads every index corruption of `pack` and checks each is rejected
/// by `load` itself, with the loader's own message. Returns how many
/// corruptions each section got (cluster rows, host rows).
fn assert_index_corruptions_rejected(pack: &[u8]) -> (usize, usize) {
    let mut counts = [0usize; 2];
    for (slot, (offsets_id, ids_id)) in [
        (SEC_IDX_CLUSTER_OFFSETS, SEC_IDX_CLUSTER_IDS),
        (SEC_IDX_HOST_OFFSETS, SEC_IDX_HOST_IDS),
    ]
    .into_iter()
    .enumerate()
    {
        for (q, want) in index_corruptions(pack, offsets_id, ids_id) {
            match load_bytes(&q) {
                Err(PackError::Format(m)) => assert!(m.contains(&want), "{m:?}, want {want:?}"),
                other => panic!("corrupt index accepted: {other:?}, want {want:?}"),
            }
            counts[slot] += 1;
        }
    }
    (counts[0], counts[1])
}

/// A reader that hands out at most `step` bytes per call and reports an
/// interruption before every other read.
struct ShortReader<'a> {
    bytes: &'a [u8],
    step: usize,
    interrupt: bool,
}

impl Read for ShortReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.interrupt = !self.interrupt;
        if self.interrupt {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let k = self.step.min(buf.len()).min(self.bytes.len());
        buf[..k].copy_from_slice(&self.bytes[..k]);
        self.bytes = &self.bytes[k..];
        Ok(k)
    }
}

/// Rich schedules: several clusters, multi-segment allocations over
/// non-contiguous host sets, task attributes, and meta entries — every
/// section of the pack format carries real content.
fn arb_schedule() -> BoxedStrategy<Schedule> {
    let alloc = (0u32..3, proptest::collection::btree_set(0u32..8, 1..5))
        .prop_map(|(cluster, hosts)| Allocation::new(cluster, HostSet::from_hosts(hosts)));
    let attrs = proptest::collection::vec(
        (
            proptest::string::string_regex("[a-z]{1,6}").expect("valid regex"),
            proptest::string::string_regex("[ -~]{0,8}").expect("valid regex"),
        ),
        0..3,
    );
    proptest::collection::vec(
        (
            0.0f64..50.0,
            0.0f64..10.0,
            0usize..3,
            proptest::collection::vec(alloc, 0..3),
            attrs,
        ),
        0..40,
    )
    .prop_map(|tasks| {
        let mut b = ScheduleBuilder::new()
            .cluster(0, "alpha", 8)
            .cluster(1, "beta", 8)
            .cluster(2, "gamma-γ", 8)
            .meta("generator", "snap_props")
            .meta("note", "hostile pack coverage");
        for (i, (start, dur, kind, allocs, attrs)) in tasks.into_iter().enumerate() {
            let mut t = Task::new(
                format!("t{i}"),
                ["a", "b", "cèll"][kind],
                start,
                start + dur,
            );
            for a in allocs {
                t = t.on(a);
            }
            for (k, v) in attrs {
                t = t.with_attr(k, v);
            }
            b = b.task(t);
        }
        b.build().expect("generated schedule is valid")
    })
    .boxed()
}

fn pack_of(s: &Schedule) -> Vec<u8> {
    write_pack(&PreparedSchedule::new(s.clone()), source_digest(SRC)).expect("pack writes")
}

#[test]
fn layout_constants_match() {
    let s = ScheduleBuilder::new().cluster(0, "c", 2).build().unwrap();
    let p = pack_of(&s);
    // Header magic + section count live where this file assumes.
    assert_eq!(&p[0..8], b"JEDPACK1");
    let nsec = u32::from_le_bytes(p[12..16].try_into().unwrap());
    assert_eq!(nsec as usize, SEC_COUNT);
    assert_eq!(
        body_fnv(&p[HEADER_LEN..]),
        u64::from_le_bytes(p[24..32].try_into().unwrap())
    );
    // Re-stamping a pristine pack is a no-op: it still loads.
    let mut q = p.clone();
    restamp(&mut q);
    assert_eq!(q, p);
    assert!(load_bytes(&q).is_ok());
}

/// Both kinds of index corruption, in both index sections, are caught
/// by `load` — the gather that follows it cannot fail.
#[test]
fn restamped_index_corruption_is_rejected_at_load() {
    let mut b = ScheduleBuilder::new()
        .cluster(0, "c0", 4)
        .cluster(1, "c1", 2);
    for i in 0..12u32 {
        let start = f64::from(i % 5);
        b = b.task(
            Task::new(format!("t{i}"), "work", start, start + 2.0).on(Allocation::contiguous(
                i % 2,
                0,
                2,
            )),
        );
    }
    let p = pack_of(&b.build().unwrap());
    let (cluster, host) = assert_index_corruptions_rejected(&p);
    // Both sections saw both kinds: 12 ids plus swaps in the cluster
    // rows, 24 ids plus swaps in the host rows.
    assert!(cluster > 12 && host > 24, "{cluster} {host}");
}

#[test]
fn streamed_digest_surfaces_read_errors() {
    struct Broken;
    impl Read for Broken {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Err(io::Error::other("disk on fire"))
        }
    }
    assert!(snap::source_digest_reader(Broken).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The streamed digest equals the in-memory one for any bytes and
    /// any read pattern: short reads, interruptions, inputs both under
    /// and over the internal buffer.
    #[test]
    fn streamed_digest_matches_source_digest(
        seed in any::<u64>(),
        len in prop_oneof![0usize..64, 0usize..200_000],
        step in prop_oneof![1usize..16, 1usize..100_000],
    ) {
        let mut x = seed | 1;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let reader = ShortReader { bytes: &bytes, step, interrupt: false };
        prop_assert_eq!(snap::source_digest_reader(reader).unwrap(), source_digest(&bytes));
        prop_assert_eq!(snap::source_digest_reader(&bytes[..]).unwrap(), source_digest(&bytes));
    }

    /// Out-of-range ids and out-of-order entries in any generated pack's
    /// cluster and host rows are rejected by `load`.
    #[test]
    fn restamped_index_corruption_is_always_rejected(s in arb_schedule()) {
        assert_index_corruptions_rejected(&pack_of(&s));
    }

    /// Write → load → materialize is the identity on schedules, and the
    /// stored source digest survives the trip.
    #[test]
    fn roundtrip_materializes_identical_schedule(s in arb_schedule()) {
        let p = pack_of(&s);
        let packed = load_bytes(&p).expect("pristine pack loads");
        prop_assert_eq!(packed.source_digest, source_digest(SRC));
        let prep = PreparedSchedule::from_pack(packed);
        prop_assert!(prep.is_packed());
        prop_assert_eq!(prep.task_count(), s.tasks.len());
        for (ti, t) in s.tasks.iter().enumerate() {
            prop_assert_eq!(prep.task_id(ti), t.id.as_str());
        }
        prop_assert_eq!(prep.into_schedule(), s);
    }

    /// Every truncation is rejected: the header stores the file length,
    /// so no prefix of a pack is itself a valid pack.
    #[test]
    fn any_truncation_is_rejected(s in arb_schedule(), frac in 0.0f64..1.0) {
        let p = pack_of(&s);
        let cut = ((p.len() as f64 * frac) as usize).min(p.len() - 1);
        prop_assert!(matches!(load_bytes(&p[..cut]), Err(PackError::Format(_))));
    }

    /// A single flipped bit anywhere never panics, and any flip in the
    /// body (everything after the header) is caught by the mandatory
    /// digest check. Header flips may land in the stored *source*
    /// digest or the reserved words — fields the loader carries rather
    /// than validates — so only no-panic is asserted there.
    #[test]
    fn bit_flips_never_panic_and_body_flips_are_caught(
        s in arb_schedule(),
        frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let p = pack_of(&s);
        let off = ((p.len() as f64 * frac) as usize).min(p.len() - 1);
        let mut q = p.clone();
        q[off] ^= 1u8 << bit;
        let r = load_bytes(&q);
        if off >= HEADER_LEN {
            prop_assert!(matches!(r, Err(PackError::Format(_))), "body flip at {}", off);
        } else if !(16..24).contains(&off) && !(40..48).contains(&off) {
            prop_assert!(matches!(r, Err(PackError::Format(_))), "header flip at {}", off);
        }
        // else: source-digest / reserved bytes — Ok or Err both fine,
        // reaching here without a panic is the property.
    }

    /// Structural corruption behind a valid digest: misaligned offsets,
    /// out-of-bounds lengths, and clobbered section ids must each be
    /// rejected by the table validators themselves.
    #[test]
    fn restamped_table_corruption_is_rejected(
        s in arb_schedule(),
        entry in 0usize..SEC_COUNT,
        mode in 0usize..4,
    ) {
        let p = pack_of(&s);
        let mut q = p.clone();
        let e = HEADER_LEN + entry * TABLE_ENTRY_LEN;
        match mode {
            // Offset no longer 8-aligned.
            0 => q[e + 8] |= 0x4,
            // Length runs past the end of the file.
            1 => q[e + 16..e + 24].copy_from_slice(&(p.len() as u64).to_le_bytes()),
            // Unknown section id (0 is reserved, 255 is out of range).
            2 => q[e..e + 4].copy_from_slice(&255u32.to_le_bytes()),
            // Duplicate id: one section vanishes, another doubles.
            _ => {
                let other = (entry + 1) % SEC_COUNT;
                let o = HEADER_LEN + other * TABLE_ENTRY_LEN;
                let id: [u8; 4] = q[o..o + 4].try_into().unwrap();
                q[e..e + 4].copy_from_slice(&id);
            }
        }
        restamp(&mut q);
        prop_assert!(
            matches!(load_bytes(&q), Err(PackError::Format(_))),
            "entry {} mode {}", entry, mode
        );
    }

    /// Arbitrary garbage — with or without a real jpack header grafted
    /// on front — never panics the loader.
    #[test]
    fn garbage_bytes_never_panic(
        tail in proptest::collection::vec(any::<u8>(), 0..512),
        graft_header in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        if graft_header {
            let s = ScheduleBuilder::new().cluster(0, "c", 2).build().unwrap();
            bytes.extend_from_slice(&pack_of(&s)[..HEADER_LEN]);
            let total = (HEADER_LEN + tail.len()) as u64;
            bytes[32..40].copy_from_slice(&total.to_le_bytes());
        }
        bytes.extend_from_slice(&tail);
        if graft_header {
            restamp(&mut bytes);
        }
        let _ = load_bytes(&bytes);
    }

    /// `load_if_fresh` on disk: fresh digests load, stale digests are
    /// declined without error, corrupt sidecars surface the error.
    #[test]
    fn load_if_fresh_states_are_distinguished(s in arb_schedule(), corrupt in any::<bool>()) {
        let dir = std::env::temp_dir().join(format!(
            "jedule-snap-props-{}-{corrupt}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.jed.jpack");
        let mut p = pack_of(&s);
        if corrupt {
            let mid = HEADER_LEN + (p.len() - HEADER_LEN) / 2;
            p[mid] ^= 0xff;
        }
        std::fs::write(&path, &p).unwrap();
        let fresh = snap::load_if_fresh(&path, source_digest(SRC));
        let stale = snap::load_if_fresh(&path, source_digest(b"other text"));
        if corrupt {
            prop_assert!(fresh.is_err());
        } else {
            prop_assert!(fresh.unwrap().is_some());
            prop_assert!(stale.unwrap().is_none());
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }
}
