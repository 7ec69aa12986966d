//! Serving caches: input digests, a prepared-schedule cache, a
//! rendered-body cache and the per-tile cache, all LRU-bounded.
//!
//! Keying follows DESIGN.md §6b/§6c: the **prepared cache** maps an
//! input's content digest to its [`PreparedSchedule`] (index/extents/
//! kinds built once, shared by every view of that input), the **body
//! cache** maps `(digest, canonical option string)` to finished output
//! bytes so repeated identical requests skip layout and encoding
//! entirely, and the **tile cache** maps `(digest, window-bucket,
//! row-band, lod, fmt)` to one shard of a figure so a body-cache miss
//! assembles mostly-cached tiles. All hand out `Arc`s — a hit never
//! copies the cached value.
//!
//! [`PreparedSchedule`]: jedule_core::PreparedSchedule

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A small thread-safe LRU map. `get` refreshes recency; `insert`
/// evicts the least-recently-used entries down to `cap`. A `cap` of 0
/// disables caching entirely (every `get` misses).
///
/// Recency is a monotone tick; alongside the key map an inverse
/// tick→key index is maintained, so finding the eviction victim is a
/// `pop_first` — O(log n) per insert instead of the full-map
/// `min_by_key` scan this cache used to do on the hot path.
pub struct LruCache<K: Ord + Clone, V> {
    cap: usize,
    inner: Mutex<LruInner<K, V>>,
}

struct LruInner<K: Ord + Clone, V> {
    tick: u64,
    map: BTreeMap<K, (u64, Arc<V>)>,
    /// Inverse index: recency tick → key. Ticks are unique (one per
    /// touch), so this is a bijection with `map`'s tick column.
    by_tick: BTreeMap<u64, K>,
}

impl<K: Ord + Clone, V> LruCache<K, V> {
    pub fn new(cap: usize) -> LruCache<K, V> {
        LruCache {
            cap,
            inner: Mutex::new(LruInner {
                tick: 0,
                map: BTreeMap::new(),
                by_tick: BTreeMap::new(),
            }),
        }
    }

    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key)?;
        let old_tick = std::mem::replace(&mut entry.0, tick);
        let value = Arc::clone(&entry.1);
        inner.by_tick.remove(&old_tick);
        inner.by_tick.insert(tick, key.clone());
        Some(value)
    }

    /// Inserts (or refreshes) a value, returning the shared handle.
    pub fn insert(&self, key: K, value: Arc<V>) -> Arc<V> {
        if self.cap == 0 {
            return value;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((old_tick, _)) = inner.map.insert(key.clone(), (tick, Arc::clone(&value))) {
            inner.by_tick.remove(&old_tick);
        }
        inner.by_tick.insert(tick, key);
        while inner.map.len() > self.cap {
            match inner.by_tick.pop_first() {
                Some((_, oldest)) => inner.map.remove(&oldest),
                None => break,
            };
        }
        value
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, Arc::new(10));
        c.insert(2, Arc::new(20));
        assert_eq!(c.get(&1).as_deref(), Some(&10)); // refresh 1
        c.insert(3, Arc::new(30)); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1).as_deref(), Some(&10));
        assert_eq!(c.get(&3).as_deref(), Some(&30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_cap_disables_caching() {
        let c: LruCache<u32, u32> = LruCache::new(0);
        c.insert(1, Arc::new(10));
        assert_eq!(c.get(&1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, Arc::new(10));
        c.insert(2, Arc::new(20));
        c.insert(1, Arc::new(11)); // refresh + replace value
        c.insert(3, Arc::new(30)); // must evict 2, not 1
        assert_eq!(c.get(&1).as_deref(), Some(&11));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&3).as_deref(), Some(&30));
    }

    /// The tick index and the key map must stay a bijection through an
    /// arbitrary interleaving of gets, inserts and evictions — the
    /// invariant that makes `pop_first` a correct victim choice.
    #[test]
    fn tick_index_stays_consistent_under_churn() {
        let c: LruCache<u32, u32> = LruCache::new(8);
        let mut state = 0x243f6a8885a308d3u64; // deterministic LCG
        for step in 0..10_000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) as u32 % 24;
            if state % 3 == 0 {
                c.insert(key, Arc::new(step));
            } else {
                let _ = c.get(&key);
            }
            let inner = c.inner.lock().unwrap();
            assert!(inner.map.len() <= 8);
            assert_eq!(inner.map.len(), inner.by_tick.len(), "step {step}");
            for (k, (t, _)) in &inner.map {
                assert_eq!(inner.by_tick.get(t), Some(k), "step {step}");
            }
        }
    }

    /// LRU order survives the reverse-index implementation: a sweep
    /// over more keys than the cap keeps exactly the most recent ones.
    #[test]
    fn eviction_order_is_exact_lru() {
        let c: LruCache<u32, u32> = LruCache::new(4);
        for k in 0..10 {
            c.insert(k, Arc::new(k));
        }
        for k in 0..6 {
            assert_eq!(c.get(&k), None, "key {k} must be evicted");
        }
        for k in 6..10 {
            assert_eq!(c.get(&k).as_deref(), Some(&k));
        }
    }
}
