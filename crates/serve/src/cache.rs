//! Sharded LRU cache of per-user top-K responses.
//!
//! Keys carry the engine *generation*, so a hot reload invalidates every
//! cached response without touching the cache: old-generation keys simply
//! stop being requested and age out. Sharding by user id keeps lock
//! contention off the request path — concurrent requests for different
//! users almost never share a shard mutex.
//!
//! Recency is tracked with a monotone per-shard tick (updated on hit);
//! eviction scans the full shard for the minimum tick. That is `O(capacity)`
//! per eviction, which for serving-cache sizes (hundreds to a few thousand
//! entries per shard) is cheaper and simpler than an intrusive list — and
//! never wrong about which entry is coldest.

use crate::engine::ReadPlan;
use lrgcn_obs::{registry, Counter};
use std::collections::HashMap;
use std::sync::Mutex;

/// What makes a cached response reusable: same engine generation, user,
/// cutoff, masking mode — and the same [`ReadPlan`]. The generation alone
/// is not enough: the same checkpoint served with a different plan (exact
/// vs int8 vs IVF, or a different probe width — the brownout controller
/// narrows it) gives different top-K lists at the same generation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Key {
    pub generation: u64,
    pub user: u32,
    pub k: usize,
    pub exclude_seen: bool,
    /// The read plan that produced the entry.
    pub plan: ReadPlan,
    /// Streaming fold-in delta version the entry was computed against
    /// (`StreamDelta::version`); `0` = nothing folded in. Each `/events`
    /// fold-in bumps it, invalidating cached answers the same way a
    /// reload's generation bump does.
    pub delta: u64,
}

struct Shard {
    map: HashMap<Key, (u64, Vec<(u32, f32)>)>,
    tick: u64,
}

/// The cache. `get`/`insert` record obs hit/miss counters.
pub struct TopKCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl TopKCache {
    /// `capacity` is the total entry budget, split evenly over `shards`
    /// (both are rounded up to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            per_shard_capacity,
        }
    }

    fn shard(&self, key: &Key) -> &Mutex<Shard> {
        &self.shards[key.user as usize % self.shards.len()]
    }

    pub fn get(&self, key: &Key) -> Option<Vec<(u32, f32)>> {
        let mut s = self.shard(key).lock().expect("cache shard poisoned");
        s.tick += 1;
        let tick = s.tick;
        match s.map.get_mut(key) {
            Some((last_used, items)) => {
                *last_used = tick;
                registry::add(Counter::ServeCacheHits, 1);
                Some(items.clone())
            }
            None => {
                registry::add(Counter::ServeCacheMisses, 1);
                None
            }
        }
    }

    /// Brownout-only lookup: any entry for the same `(user, k,
    /// exclude_seen, plan)` regardless of generation or delta
    /// version, preferring the entry closest to the requested generation
    /// (newest first). Under deep brownout (DESIGN.md §14, level 3) a
    /// slightly stale ranking beats a shed request; the handler marks the
    /// response `"stale": true` so clients can tell. The scan is
    /// `O(shard entries)` — acceptable exactly because it only runs while
    /// the server is already saturated and shards are small.
    pub fn get_stale(&self, key: &Key) -> Option<(u64, Vec<(u32, f32)>)> {
        let mut s = self.shard(key).lock().expect("cache shard poisoned");
        s.tick += 1;
        let tick = s.tick;
        let found = s
            .map
            .iter()
            .filter(|(k, _)| {
                k.user == key.user
                    && k.k == key.k
                    && k.exclude_seen == key.exclude_seen
                    && k.plan == key.plan
            })
            .max_by_key(|(k, _)| (k.generation, k.delta))
            .map(|(k, _)| *k)?;
        let (last_used, items) = s.map.get_mut(&found).expect("key just found");
        *last_used = tick;
        if found.generation != key.generation || found.delta != key.delta {
            registry::add(Counter::ServeStaleHits, 1);
        } else {
            registry::add(Counter::ServeCacheHits, 1);
        }
        Some((found.generation, items.clone()))
    }

    pub fn insert(&self, key: Key, items: Vec<(u32, f32)>) {
        let mut s = self.shard(&key).lock().expect("cache shard poisoned");
        s.tick += 1;
        let tick = s.tick;
        if s.map.len() >= self.per_shard_capacity && !s.map.contains_key(&key) {
            if let Some(coldest) = s
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| *k)
            {
                s.map.remove(&coldest);
            }
        }
        s.map.insert(key, (tick, items));
    }

    /// Live entries across all shards (test/diagnostic aid).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INT8: ReadPlan = ReadPlan { nprobe: 0, int8: true };

    fn key(user: u32, generation: u64) -> Key {
        Key {
            generation,
            user,
            k: 10,
            exclude_seen: true,
            plan: ReadPlan::default(),
            delta: 0,
        }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = TopKCache::new(8, 2);
        assert!(c.get(&key(1, 0)).is_none());
        c.insert(key(1, 0), vec![(7, 0.5)]);
        assert_eq!(c.get(&key(1, 0)), Some(vec![(7, 0.5)]));
        // A different generation is a different key: reload invalidates.
        assert!(c.get(&key(1, 1)).is_none());
        // So is a different read-path configuration at the same generation.
        assert!(c.get(&Key { plan: INT8, ..key(1, 0) }).is_none());
        let probe8 = ReadPlan { nprobe: 8, int8: false };
        assert!(c.get(&Key { plan: probe8, ..key(1, 0) }).is_none());
        // And so is a newer streaming fold-in delta version.
        assert!(c.get(&Key { delta: 1, ..key(1, 0) }).is_none());
    }

    #[test]
    fn stale_lookup_crosses_generations_but_not_shape() {
        let c = TopKCache::new(8, 1);
        c.insert(key(1, 3), vec![(7, 0.5)]);
        c.insert(key(1, 5), vec![(8, 0.9)]);
        // Fresh lookup at generation 9 misses; stale lookup serves the
        // newest matching generation.
        assert!(c.get(&key(1, 9)).is_none());
        assert_eq!(c.get_stale(&key(1, 9)), Some((5, vec![(8, 0.9)])));
        // An exact match is preferred and not counted as stale.
        assert_eq!(c.get_stale(&key(1, 5)), Some((5, vec![(8, 0.9)])));
        // Different k / masking / read path never cross over.
        assert!(c.get_stale(&Key { k: 20, ..key(1, 9) }).is_none());
        assert!(c
            .get_stale(&Key { exclude_seen: false, ..key(1, 9) })
            .is_none());
        assert!(c.get_stale(&Key { plan: INT8, ..key(1, 9) }).is_none());
        assert!(c.get_stale(&key(2, 9)).is_none(), "other user");
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // One shard of capacity 2 — deterministic eviction order.
        let c = TopKCache::new(2, 1);
        c.insert(key(1, 0), vec![(1, 1.0)]);
        c.insert(key(2, 0), vec![(2, 1.0)]);
        c.get(&key(1, 0)); // touch 1: now 2 is coldest
        c.insert(key(3, 0), vec![(3, 1.0)]);
        assert!(c.get(&key(1, 0)).is_some());
        assert!(c.get(&key(2, 0)).is_none());
        assert!(c.get(&key(3, 0)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let c = TopKCache::new(2, 1);
        c.insert(key(1, 0), vec![(1, 1.0)]);
        c.insert(key(2, 0), vec![(2, 1.0)]);
        c.insert(key(2, 0), vec![(2, 2.0)]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&key(2, 0)), Some(vec![(2, 2.0)]));
    }
}
