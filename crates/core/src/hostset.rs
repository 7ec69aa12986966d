//! Sets of hosts within a cluster.
//!
//! A Jedule task may occupy a *non-contiguous* set of resources, in which
//! case it is drawn as multiple rectangles (paper, §II-A). The XML format
//! expresses host sets as a list of `<hosts start=... nb=.../>` ranges;
//! [`HostSet`] is the normalized in-memory form: sorted, coalesced,
//! non-overlapping ranges of cluster-local host indices.

use std::fmt;

/// A contiguous range of `nb` hosts starting at cluster-local index `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostRange {
    pub start: u32,
    pub nb: u32,
}

impl HostRange {
    pub fn new(start: u32, nb: u32) -> Self {
        HostRange { start, nb }
    }

    /// `[start, start + nb)` from untrusted numbers, or `None` when its
    /// [`end`](Self::end) would pass `u32::MAX`. Every schedule reader
    /// builds its ranges here, so a range that would wrap or saturate
    /// is an error instead.
    pub fn checked(start: u64, nb: u64) -> Option<Self> {
        let end = start.checked_add(nb)?;
        (end <= u64::from(u32::MAX)).then(|| HostRange::new(start as u32, nb as u32))
    }

    /// One-past-the-end host index.
    pub fn end(&self) -> u32 {
        self.start + self.nb
    }

    pub fn contains(&self, host: u32) -> bool {
        host >= self.start && host < self.end()
    }
}

/// A normalized set of cluster-local host indices.
///
/// Representation: the overwhelmingly common case — a single contiguous
/// range per allocation — is stored **inline**, so reading it costs no
/// heap dereference. Layout walks every task's host set once per render
/// (10⁶ times for a bird's-eye chart), and the dependent pointer chase
/// `Task → allocations → HostSet → ranges` was a measurable share of the
/// scan; the inline fast path removes its last hop. Multi-range sets
/// spill to a `Vec` (invariant: `spill.len() >= 2` and `inline` unset),
/// which keeps the derived `PartialEq`/`Hash` canonical — every set has
/// exactly one representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct HostSet {
    inline: Option<HostRange>,
    spill: Vec<HostRange>,
}

impl HostSet {
    /// The empty host set.
    pub fn new() -> Self {
        HostSet::default()
    }

    /// A single contiguous range `[start, start + nb)`.
    pub fn contiguous(start: u32, nb: u32) -> Self {
        if nb == 0 {
            return HostSet::new();
        }
        HostSet {
            inline: Some(HostRange::new(start, nb)),
            spill: Vec::new(),
        }
    }

    /// Builds a normalized set from arbitrary (possibly overlapping,
    /// unsorted) ranges.
    pub fn from_ranges<I: IntoIterator<Item = HostRange>>(ranges: I) -> Self {
        Self::normalized(ranges.into_iter().collect())
    }

    /// Builds a set from individual host indices.
    pub fn from_hosts<I: IntoIterator<Item = u32>>(hosts: I) -> Self {
        let mut v: Vec<u32> = hosts.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        let mut ranges: Vec<HostRange> = Vec::new();
        let mut it = v.into_iter();
        if let Some(first) = it.next() {
            let mut start = first;
            let mut prev = first;
            for h in it {
                if h == prev + 1 {
                    prev = h;
                } else {
                    ranges.push(HostRange::new(start, prev - start + 1));
                    start = h;
                    prev = h;
                }
            }
            ranges.push(HostRange::new(start, prev - start + 1));
        }
        Self::normalized(ranges)
    }

    /// Sorts, coalesces and packs ranges into the canonical representation.
    fn normalized(mut v: Vec<HostRange>) -> HostSet {
        v.sort_unstable();
        let mut out: Vec<HostRange> = Vec::with_capacity(v.len());
        for r in v {
            if r.nb == 0 {
                continue;
            }
            match out.last_mut() {
                Some(last) if r.start <= last.end() => {
                    let new_end = last.end().max(r.end());
                    last.nb = new_end - last.start;
                }
                _ => out.push(r),
            }
        }
        match out.len() {
            0 => HostSet::default(),
            1 => HostSet {
                inline: Some(out[0]),
                spill: Vec::new(),
            },
            _ => HostSet {
                inline: None,
                spill: out,
            },
        }
    }

    /// Inserts a range, keeping the set normalized (sorted + coalesced).
    pub fn insert_range(&mut self, r: HostRange) {
        if r.nb == 0 {
            return;
        }
        let mut v = self.ranges().to_vec();
        v.push(r);
        *self = Self::normalized(v);
    }

    /// The normalized ranges (sorted, disjoint, maximal).
    pub fn ranges(&self) -> &[HostRange] {
        match &self.inline {
            Some(r) => std::slice::from_ref(r),
            None => &self.spill,
        }
    }

    /// Total number of hosts in the set.
    pub fn count(&self) -> u32 {
        self.ranges().iter().map(|r| r.nb).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.inline.is_none() && self.spill.is_empty()
    }

    /// True if the set is a single contiguous run (one rectangle suffices).
    pub fn is_contiguous(&self) -> bool {
        self.ranges().len() <= 1
    }

    pub fn contains(&self, host: u32) -> bool {
        // Ranges are sorted; binary search by start.
        self.ranges()
            .binary_search_by(|r| {
                if r.contains(host) {
                    std::cmp::Ordering::Equal
                } else if r.end() <= host {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            })
            .is_ok()
    }

    /// Smallest host index, if non-empty.
    pub fn min_host(&self) -> Option<u32> {
        self.ranges().first().map(|r| r.start)
    }

    /// Largest host index, if non-empty.
    pub fn max_host(&self) -> Option<u32> {
        self.ranges().last().map(|r| r.end() - 1)
    }

    /// Iterates all host indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.ranges().iter().flat_map(|r| r.start..r.end())
    }

    /// Set union.
    pub fn union(&self, other: &HostSet) -> HostSet {
        HostSet::from_ranges(self.ranges().iter().chain(other.ranges().iter()).copied())
    }

    /// Set intersection.
    pub fn intersect(&self, other: &HostSet) -> HostSet {
        let (xs, ys) = (self.ranges(), other.ranges());
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < xs.len() && j < ys.len() {
            let a = xs[i];
            let b = ys[j];
            let lo = a.start.max(b.start);
            let hi = a.end().min(b.end());
            if lo < hi {
                out.push(HostRange::new(lo, hi - lo));
            }
            if a.end() <= b.end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        // Intersecting normalized sets yields sorted disjoint ranges, but
        // adjacent ones may now touch; normalize to the canonical form.
        Self::normalized(out)
    }

    /// True if the two sets share at least one host.
    pub fn intersects(&self, other: &HostSet) -> bool {
        let (xs, ys) = (self.ranges(), other.ranges());
        let (mut i, mut j) = (0usize, 0usize);
        while i < xs.len() && j < ys.len() {
            let a = xs[i];
            let b = ys[j];
            if a.start.max(b.start) < a.end().min(b.end()) {
                return true;
            }
            if a.end() <= b.end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }
}

impl fmt::Display for HostSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for r in self.ranges() {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            if r.nb == 1 {
                write!(f, "{}", r.start)?;
            } else {
                write!(f, "{}-{}", r.start, r.end() - 1)?;
            }
        }
        Ok(())
    }
}

impl FromIterator<u32> for HostSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        HostSet::from_hosts(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_roundtrip() {
        let s = HostSet::contiguous(0, 8);
        assert_eq!(s.count(), 8);
        assert!(s.is_contiguous());
        assert_eq!(s.min_host(), Some(0));
        assert_eq!(s.max_host(), Some(7));
        assert_eq!(s.to_string(), "0-7");
    }

    #[test]
    fn checked_ranges_end_at_u32_max_at_most() {
        let max = u64::from(u32::MAX);
        assert_eq!(HostRange::checked(2, 3), Some(HostRange::new(2, 3)));
        assert_eq!(
            HostRange::checked(max - 1, 1),
            Some(HostRange::new(u32::MAX - 1, 1))
        );
        assert_eq!(
            HostRange::checked(0, max),
            Some(HostRange::new(0, u32::MAX))
        );
        assert_eq!(HostRange::checked(max, 2), None);
        assert_eq!(HostRange::checked(0, max + 1), None);
        assert_eq!(HostRange::checked(max + 1, 0), None);
        assert_eq!(HostRange::checked(u64::MAX, 1), None);
    }

    #[test]
    fn from_hosts_coalesces() {
        let s = HostSet::from_hosts([3, 1, 2, 7, 8, 5]);
        assert_eq!(s.ranges().len(), 3);
        assert_eq!(s.to_string(), "1-3,5,7-8");
        assert_eq!(s.count(), 6);
        assert!(!s.is_contiguous());
    }

    #[test]
    fn overlapping_ranges_merge() {
        let s = HostSet::from_ranges([HostRange::new(0, 4), HostRange::new(2, 4)]);
        assert_eq!(s.ranges(), &[HostRange::new(0, 6)]);
    }

    #[test]
    fn adjacent_ranges_merge() {
        let s = HostSet::from_ranges([HostRange::new(0, 4), HostRange::new(4, 4)]);
        assert_eq!(s.ranges(), &[HostRange::new(0, 8)]);
        assert!(s.is_contiguous());
    }

    #[test]
    fn contains_binary_search() {
        let s = HostSet::from_hosts([0, 1, 5, 6, 10]);
        for h in [0, 1, 5, 6, 10] {
            assert!(s.contains(h), "missing {h}");
        }
        for h in [2, 3, 4, 7, 9, 11, 100] {
            assert!(!s.contains(h), "spurious {h}");
        }
    }

    #[test]
    fn intersection_and_union() {
        let a = HostSet::from_hosts([0, 1, 2, 5, 6]);
        let b = HostSet::from_hosts([2, 3, 5]);
        assert_eq!(a.intersect(&b), HostSet::from_hosts([2, 5]));
        assert!(a.intersects(&b));
        assert_eq!(a.union(&b), HostSet::from_hosts([0, 1, 2, 3, 5, 6]));
        let c = HostSet::from_hosts([8, 9]);
        assert!(!a.intersects(&c));
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn empty_set() {
        let s = HostSet::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.min_host(), None);
        assert!(!s.contains(0));
        assert_eq!(s.to_string(), "");
    }

    #[test]
    fn zero_width_ranges_ignored() {
        let s = HostSet::from_ranges([HostRange::new(3, 0), HostRange::new(1, 2)]);
        assert_eq!(s.ranges(), &[HostRange::new(1, 2)]);
    }

    #[test]
    fn iter_matches_contains() {
        let s = HostSet::from_hosts([4, 9, 10, 11, 2]);
        let collected: Vec<u32> = s.iter().collect();
        assert_eq!(collected, vec![2, 4, 9, 10, 11]);
    }
}
