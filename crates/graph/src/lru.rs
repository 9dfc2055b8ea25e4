//! A bounded LRU map used to cap memoization tables.
//!
//! The minimizer's `implies` memo is bounded, but stopping caching once
//! the bound is reached would be a hit-rate cliff. [`LruCache`] degrades
//! gracefully instead: the memo
//! keeps its `capacity` most-recently-used entries and evicts the
//! coldest, so sustained churn degrades the hit rate smoothly instead of
//! to zero. The recency list is intrusive (u32 prev/next indices into a
//! slot arena), so an access is two `HashMap` probes and a handful of
//! index writes — no allocation after the arena fills.
//!
//! ```
//! use dscweaver_graph::LruCache;
//!
//! let mut cache: LruCache<u32, &str> = LruCache::new(2);
//! cache.insert(1, "one");
//! cache.insert(2, "two");
//! assert_eq!(cache.get(&1), Some(&"one")); // refreshes 1
//! cache.insert(3, "three"); // evicts 2, the least recently used
//! assert_eq!(cache.get(&2), None);
//! assert_eq!(cache.len(), 2);
//! assert_eq!(cache.evictions(), 1);
//! ```

use crate::fx::FxHashMap;
use std::hash::Hash;

const NIL: u32 = u32::MAX;

struct Slot<K, V> {
    key: K,
    val: V,
    prev: u32,
    next: u32,
}

/// A hash map bounded to `capacity` entries with least-recently-used
/// eviction. `capacity == 0` means unbounded (no eviction ever), keeping
/// the pre-existing "0 = no limit" knob convention.
pub struct LruCache<K, V> {
    map: FxHashMap<K, u32>,
    slots: Vec<Slot<K, V>>,
    head: u32,
    tail: u32,
    capacity: usize,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates an empty cache holding at most `capacity` entries
    /// (`0` = unbounded).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: FxHashMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            evictions: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured bound (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many entries have been evicted to make room so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        Some(&self.slots[idx as usize].val)
    }

    /// Looks up `key` without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        Some(&self.slots[idx as usize].val)
    }

    /// Inserts or updates `key`, marking it most-recently-used. At
    /// capacity, the least-recently-used entry is evicted and its slot
    /// reused.
    pub fn insert(&mut self, key: K, val: V) {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx as usize].val = val;
            self.detach(idx);
            self.attach_front(idx);
            return;
        }
        if self.capacity != 0 && self.map.len() >= self.capacity {
            let idx = self.tail;
            debug_assert_ne!(idx, NIL);
            self.detach(idx);
            let slot = &mut self.slots[idx as usize];
            self.map.remove(&slot.key);
            slot.key = key.clone();
            slot.val = val;
            self.map.insert(key, idx);
            self.attach_front(idx);
            self.evictions += 1;
            return;
        }
        let idx = self.slots.len() as u32;
        self.slots.push(Slot { key: key.clone(), val, prev: NIL, next: NIL });
        self.map.insert(key, idx);
        self.attach_front(idx);
    }

    fn detach(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[idx as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_in_order() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        for k in 0..3 {
            c.insert(k, k * 10);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions(), 0);
        c.insert(3, 30); // evicts 0
        c.insert(4, 40); // evicts 1
        assert_eq!(c.get(&0), None);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(&20));
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions(), 2);
    }

    #[test]
    fn get_refreshes_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.get(&1), Some(&1)); // 2 is now the LRU entry
        c.insert(3, 3);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&1));
        assert_eq!(c.get(&3), Some(&3));
    }

    #[test]
    fn insert_updates_existing_without_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 1);
        c.insert(2, 2);
        c.insert(1, 100);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.peek(&1), Some(&100));
        c.insert(3, 3); // 2 is the LRU entry after 1's refresh-by-update
        assert_eq!(c.get(&2), None);
    }

    #[test]
    fn zero_capacity_is_unbounded() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        for k in 0..10_000 {
            c.insert(k, k);
        }
        assert_eq!(c.len(), 10_000);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(&0), Some(&0));
    }

    #[test]
    fn capacity_one_thrashes_correctly() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(&2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn matches_naive_model_under_random_workload() {
        use dscweaver_prng::Rng;
        let mut rng = Rng::seed_from_u64(0xD5C_4EA);
        for cap in [1usize, 2, 7, 16] {
            let mut c: LruCache<u32, u32> = LruCache::new(cap);
            // Naive model: Vec of (key, val), front = most recent.
            let mut model: Vec<(u32, u32)> = Vec::new();
            for step in 0..4000u32 {
                let key = rng.random_range(24) as u32;
                if rng.random_bool(0.5) {
                    let got = c.get(&key).copied();
                    let want = model.iter().position(|&(k, _)| k == key).map(|i| {
                        let e = model.remove(i);
                        model.insert(0, e);
                        e.1
                    });
                    assert_eq!(got, want, "cap {cap} step {step} get {key}");
                } else {
                    c.insert(key, step);
                    if let Some(i) = model.iter().position(|&(k, _)| k == key) {
                        model.remove(i);
                    } else if model.len() >= cap {
                        model.pop();
                    }
                    model.insert(0, (key, step));
                }
                assert_eq!(c.len(), model.len());
            }
        }
    }
}
