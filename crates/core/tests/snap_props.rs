//! Hostile-input property tests of the jpack loader: a pack written by
//! [`snap::write_pack`] must materialize the exact source schedule back,
//! and `snap::load_bytes` must answer *every* corruption — truncations,
//! bit flips, and structurally inconsistent section tables whose body
//! digest has been re-stamped to pass the integrity check — with a clean
//! `PackError`, never a panic and never an out-of-bounds access.

use jedule_core::snap::{
    self, load_bytes, load_bytes_threads, source_digest, write_pack, PackError,
};
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

/// Overwrites the stored body digest with the digest of the (possibly
/// corrupted) body, so `load_bytes` gets past the integrity check and
/// the *structural* validators are the ones that reject the pack. The
/// body digest is the same XXH64 as the source digest.
fn restamp(pack: &mut [u8]) {
    let d = source_digest(&pack[HEADER_LEN..]);
    pack[24..32].copy_from_slice(&d.to_le_bytes());
}

/// Section ids of the task columns, the string blob and the stored
/// index rows.
const SEC_STARTS: u32 = 1;
const SEC_ENDS: u32 = 2;
const SEC_BLOB: u32 = 9;
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

/// Worker counts every corruption is loaded at: the sequential loader
/// and the parallel one with its index rows split two and three ways.
const WORKERS: [usize; 3] = [1, 2, 3];

/// Loads `pack` at every count in [`WORKERS`] and returns the one error
/// they all report, or panics if any load succeeds or two differ.
fn load_error(pack: &[u8]) -> PackError {
    let errs: Vec<PackError> = WORKERS
        .iter()
        .map(|&w| match load_bytes_threads(pack, w) {
            Ok(_) => panic!("corrupt pack accepted at {w} workers"),
            Err(e) => e,
        })
        .collect();
    for (w, e) in WORKERS.iter().zip(&errs) {
        assert_eq!(e, &errs[0], "{w} workers vs 1");
    }
    errs.into_iter().next().unwrap()
}

/// Loads every index corruption of `pack` and checks each is rejected
/// by `load` itself, with the loader's own message, at every worker
/// count. Returns how many corruptions each section got (cluster rows,
/// host rows).
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
            match load_error(&q) {
                PackError::Format(m) => assert!(m.contains(&want), "{m:?}, want {want:?}"),
                other => panic!("{other:?}, want {want:?}"),
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
    write_pack(&PreparedSchedule::new(s.clone()), source_digest(SRC), 1).expect("pack writes")
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
        source_digest(&p[HEADER_LEN..]),
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

/// The first id of row `r` of index section `ids_id` (CSR in
/// `offsets_id`), as a byte offset into `pack`.
fn row_start(pack: &[u8], offsets_id: u32, ids_id: u32, r: usize) -> usize {
    let (offs_off, _) = section(pack, offsets_id);
    section(pack, ids_id).0 + 4 * u32_at(pack, offs_off + 4 * r) as usize
}

/// Two corruptions in one pack, the first early in a cluster row and
/// the second late in a host row (so in another run of index rows on
/// every parallel split): the cluster row's error is the one reported,
/// at any worker count. A body-digest mismatch on top of a structural
/// error wins over it.
#[test]
fn earliest_error_wins_at_any_worker_count() {
    let mut b = ScheduleBuilder::new()
        .cluster(0, "c0", 6)
        .cluster(1, "c1", 6);
    for i in 0..48u32 {
        let start = f64::from(i);
        b = b.task(
            Task::new(format!("t{i}"), "work", start, start + 2.0).on(Allocation::contiguous(
                i % 2,
                i % 5,
                2,
            )),
        );
    }
    let p = pack_of(&b.build().unwrap());
    let n = section(&p, SEC_STARTS).1 / 8;
    let out_of_range = (n as u32).to_le_bytes();

    // Early in the first cluster row, late in the last host row.
    let early = row_start(&p, SEC_IDX_CLUSTER_OFFSETS, SEC_IDX_CLUSTER_IDS, 0);
    let (host_ids_off, host_ids_len) = section(&p, SEC_IDX_HOST_IDS);
    let late = host_ids_off + host_ids_len - 4;
    let mut q = p.clone();
    q[late..late + 4].copy_from_slice(&out_of_range);
    restamp(&mut q);
    assert_eq!(
        load_error(&q),
        PackError::Format(format!(
            "index host entries: task id {n} out of range ({n})"
        ))
    );
    q[early..early + 4].copy_from_slice(&out_of_range);
    restamp(&mut q);
    assert_eq!(
        load_error(&q),
        PackError::Format(format!(
            "index cluster entries: task id {n} out of range ({n})"
        ))
    );

    // A doubled section id fails the table check; a flipped blob byte
    // on top of it fails the body digest, which wins.
    let mut q = p.clone();
    let (e0, e1) = (HEADER_LEN, HEADER_LEN + TABLE_ENTRY_LEN);
    let id: [u8; 4] = q[e1..e1 + 4].try_into().unwrap();
    q[e0..e0 + 4].copy_from_slice(&id);
    restamp(&mut q);
    let table_err = load_error(&q);
    assert!(
        matches!(&table_err, PackError::Format(m) if m.contains("appears twice")),
        "{table_err:?}"
    );
    q[section(&p, SEC_BLOB).0] ^= 0x20;
    assert_eq!(
        load_error(&q),
        PackError::Format("body digest mismatch (corrupt pack)".into())
    );
}

/// Flipping bit 63 of two body words — the sign bits of two `f64`
/// columns entries, or the top bytes of two blob words — is caught by
/// the body digest itself. A multiply-only word fold carries the top
/// bit of a word only upward, so two such flips cancel in it.
#[test]
fn two_top_bit_flips_fail_the_body_digest() {
    let mut b = ScheduleBuilder::new().cluster(0, "c0", 8);
    for i in 0..40u32 {
        let start = f64::from(i);
        b = b.task(
            Task::new(format!("task-{i:04}"), "work", start, start + 3.0)
                .on(Allocation::contiguous(0, i % 8, 1)),
        );
    }
    let p = pack_of(&b.build().unwrap());
    let word = |id: u32, k: usize| {
        let (off, len) = section(&p, id);
        assert!(8 * k + 8 <= len, "section {id} has no word {k}");
        off + 8 * k
    };
    let pairs = [
        (word(SEC_STARTS, 0), word(SEC_STARTS, 1)),
        (word(SEC_STARTS, 3), word(SEC_STARTS, 39)),
        (word(SEC_ENDS, 10), word(SEC_ENDS, 30)),
        (word(SEC_STARTS, 5), word(SEC_ENDS, 5)),
        (word(SEC_BLOB, 0), word(SEC_BLOB, 7)),
        (word(SEC_ENDS, 2), word(SEC_BLOB, 20)),
    ];
    for (a, b) in pairs {
        let mut q = p.clone();
        q[a + 7] ^= 0x80;
        q[b + 7] ^= 0x80;
        match load_bytes(&q) {
            Err(PackError::Format(m)) => {
                assert!(m.contains("body digest mismatch"), "words at {a}, {b}: {m}")
            }
            other => panic!("words at {a}, {b}: {other:?}"),
        }
    }
}

/// Two digit edits, each in the top byte of a different 8-byte word of
/// CSV text, always change the source digest: 20k seeded pairs. A
/// multiply-only word fold keeps such differences in its top byte, where
/// two of them cancel about once in 227 pairs.
#[test]
fn paired_top_byte_digit_edits_change_the_source_digest() {
    let mut text = String::from("cluster,0,c0,64\n");
    for i in 0..64u32 {
        text.push_str(&format!(
            "task,t{i},work,{}.{},{}.5,0:{}\n",
            i * 37 % 1000,
            i % 10,
            i * 37 % 1000 + 12,
            i % 64
        ));
    }
    let text = text.into_bytes();
    let base = source_digest(&text);
    // Word indices whose byte 7 is a digit.
    let slots: Vec<usize> = (0..text.len() / 8)
        .filter(|w| text[8 * w + 7].is_ascii_digit())
        .collect();
    assert!(slots.len() > 100, "{} digit slots", slots.len());
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut edited = text.clone();
    for _ in 0..20_000 {
        let i = slots[next() as usize % slots.len()];
        let j = loop {
            let j = slots[next() as usize % slots.len()];
            if j != i {
                break j;
            }
        };
        for w in [i, j] {
            let at = 8 * w + 7;
            let d = text[at] - b'0';
            edited[at] = b'0' + (d + 1 + (next() % 9) as u8) % 10;
        }
        assert_ne!(source_digest(&edited), base, "words {i} and {j}");
        for w in [i, j] {
            edited[8 * w + 7] = text[8 * w + 7];
        }
    }
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
            matches!(load_error(&q), PackError::Format(_)),
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
