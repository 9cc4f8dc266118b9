//! Per-snapshot recommendation cache: a sharded LRU keyed by
//! `(epoch, agent, n)`.
//!
//! The epoch in the key is the correctness anchor: a lookup always carries
//! the epoch of the snapshot the worker pinned, so an entry computed
//! against an older generation can never be served after a swap — the key
//! simply no longer matches. [`RecCache::invalidate_before`] additionally
//! evicts the stale generation wholesale on publish so dead entries stop
//! occupying capacity.
//!
//! Sharding splits the key space across independent mutexes so concurrent
//! workers rarely contend; within a shard, eviction is exact LRU driven by
//! a per-shard access stamp (deterministic — no wall clock involved).

use std::sync::{Arc, Mutex};

use semrec_core::{AgentId, Recommendation};
use semrec_obs::Counter;

/// Cache key: snapshot epoch, target agent, and requested list length.
pub type CacheKey = (u64, AgentId, usize);

/// Point-in-time cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (including all lookups while disabled).
    pub misses: u64,
    /// Entries evicted by LRU capacity pressure.
    pub evictions: u64,
    /// Entries dropped wholesale by epoch invalidation.
    pub invalidated: u64,
    /// Entries carried across a snapshot swap (re-keyed to the new epoch
    /// instead of dropped — see [`RecCache::carry_into`]).
    pub carried: u64,
}

#[derive(Debug)]
struct Entry {
    key: CacheKey,
    value: Arc<Vec<Recommendation>>,
    /// Last-access stamp from the shard's logical counter.
    stamp: u64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: Vec<Entry>,
    accesses: u64,
}

/// The cells a [`RecCache`] counts on, one per [`CacheStats`] field. A
/// [`Server`](crate::server::Server) hands in handles from its own
/// registry; a standalone cache gets fresh ones.
#[derive(Debug, Default)]
pub(crate) struct CacheCounters {
    pub hits: Counter,
    pub misses: Counter,
    pub evictions: Counter,
    pub invalidated: Counter,
    pub carried: Counter,
}

/// A sharded LRU over recommendation lists.
///
/// `capacity` is the total entry budget, split evenly across shards
/// (rounded up, so the effective total can exceed `capacity` by at most
/// `shards - 1`). A capacity of 0 disables the cache entirely: every
/// lookup misses and inserts are dropped.
#[derive(Debug)]
pub struct RecCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    counters: CacheCounters,
}

impl RecCache {
    /// A cache with `capacity` total entries over `shards` shards.
    pub fn new(capacity: usize, shards: usize) -> Self {
        Self::with_counters(capacity, shards, CacheCounters::default())
    }

    /// [`RecCache::new`], counting on the caller's cells.
    pub(crate) fn with_counters(capacity: usize, shards: usize, counters: CacheCounters) -> Self {
        let shards = shards.max(1);
        let per_shard = if capacity == 0 { 0 } else { capacity.div_ceil(shards) };
        RecCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard,
            counters,
        }
    }

    /// True when the cache was built with capacity 0.
    pub fn is_disabled(&self) -> bool {
        self.per_shard == 0
    }

    /// Entries currently held, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().entries.len()).sum()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Effective total capacity (per-shard budget × shard count).
    pub fn capacity(&self) -> usize {
        self.per_shard * self.shards.len()
    }

    /// This cache's counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            evictions: self.counters.evictions.get(),
            invalidated: self.counters.invalidated.get(),
            carried: self.counters.carried.get(),
        }
    }

    fn shard_of(&self, key: &CacheKey) -> usize {
        // splitmix64 finalizer over (agent, n); epoch deliberately excluded
        // so one agent's entries colocate across generations and epoch
        // invalidation touches the same shards evenly.
        let mut x = (key.1.index() as u64) << 32 | key.2 as u64;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d049bb133111eb);
        x ^= x >> 31;
        (x % self.shards.len() as u64) as usize
    }

    /// Looks up `key`, refreshing its LRU stamp on hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<Recommendation>>> {
        if self.is_disabled() {
            self.counters.misses.inc();
            return None;
        }
        let mut shard = self.shards[self.shard_of(key)].lock().unwrap();
        shard.accesses += 1;
        let stamp = shard.accesses;
        match shard.entries.iter_mut().find(|e| e.key == *key) {
            Some(entry) => {
                entry.stamp = stamp;
                let value = Arc::clone(&entry.value);
                drop(shard);
                self.counters.hits.inc();
                Some(value)
            }
            None => {
                drop(shard);
                self.counters.misses.inc();
                None
            }
        }
    }

    /// Inserts (or refreshes) `key → value`, evicting the shard's least
    /// recently used entry if the shard is at its budget.
    pub fn insert(&self, key: CacheKey, value: Arc<Vec<Recommendation>>) {
        if self.is_disabled() {
            return;
        }
        let mut shard = self.shards[self.shard_of(&key)].lock().unwrap();
        shard.accesses += 1;
        let stamp = shard.accesses;
        if let Some(entry) = shard.entries.iter_mut().find(|e| e.key == key) {
            entry.value = value;
            entry.stamp = stamp;
            return;
        }
        if shard.entries.len() >= self.per_shard {
            let lru = shard
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("non-empty shard at capacity");
            shard.entries.swap_remove(lru);
            self.counters.evictions.inc();
        }
        shard.entries.push(Entry { key, value, stamp });
    }

    /// Selectively carries the previous generation across a snapshot swap:
    /// entries of epoch `new_epoch - 1` whose agent passes `keep` are
    /// re-keyed to `new_epoch` in place; everything else older than
    /// `new_epoch` is dropped. Returns `(carried, dropped)`.
    ///
    /// Soundness is the *caller's* contract (see `SwapPlan`): `keep` must
    /// only accept agents whose recommendations are byte-identical on the
    /// new snapshot, and the agent-id mapping must be stable between the
    /// two generations — otherwise a re-keyed entry would answer for the
    /// wrong agent. Because the shard function ignores the epoch, the
    /// old and new key of one entry live in the same shard, so re-keying
    /// never migrates entries and a raced insert under the new epoch is
    /// detected and resolved in favour of the fresh entry.
    pub fn carry_into(&self, new_epoch: u64, keep: &dyn Fn(AgentId) -> bool) -> (usize, usize) {
        let old_epoch = new_epoch.saturating_sub(1);
        let mut carried = 0;
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            let mut fresh: Vec<CacheKey> = shard
                .entries
                .iter()
                .filter(|e| e.key.0 == new_epoch)
                .map(|e| e.key)
                .collect();
            let before = shard.entries.len();
            shard.entries.retain_mut(|e| {
                if e.key.0 >= new_epoch {
                    return true;
                }
                let rekeyed = (new_epoch, e.key.1, e.key.2);
                if e.key.0 == old_epoch && keep(e.key.1) && !fresh.contains(&rekeyed) {
                    e.key = rekeyed;
                    fresh.push(rekeyed);
                    carried += 1;
                    true
                } else {
                    false
                }
            });
            dropped += before - shard.entries.len();
        }
        self.counters.carried.add(carried as u64);
        self.counters.invalidated.add(dropped as u64);
        (carried, dropped)
    }

    /// Drops every entry whose epoch is older than `epoch`. Called on
    /// snapshot publish so a dead generation stops occupying capacity;
    /// returns how many entries were removed.
    pub fn invalidate_before(&self, epoch: u64) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            let before = shard.entries.len();
            shard.entries.retain(|e| e.key.0 >= epoch);
            removed += before - shard.entries.len();
        }
        self.counters.invalidated.add(removed as u64);
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(epoch: u64, agent: usize, n: usize) -> CacheKey {
        (epoch, AgentId::from_index(agent), n)
    }

    fn value(score: f64) -> Arc<Vec<Recommendation>> {
        Arc::new(vec![Recommendation {
            product: semrec_core::ProductId::from_index(0),
            score,
            voters: 1,
        }])
    }

    #[test]
    fn hit_and_miss_are_counted() {
        let cache = RecCache::new(8, 2);
        assert!(cache.get(&key(1, 0, 10)).is_none());
        cache.insert(key(1, 0, 10), value(0.5));
        assert!(cache.get(&key(1, 0, 10)).is_some());
        assert!(cache.get(&key(1, 0, 5)).is_none(), "n is part of the key");
        assert!(cache.get(&key(2, 0, 10)).is_none(), "epoch is part of the key");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = RecCache::new(2, 1);
        cache.insert(key(1, 0, 10), value(0.1));
        cache.insert(key(1, 1, 10), value(0.2));
        // Touch entry 0 so entry 1 becomes the LRU victim.
        assert!(cache.get(&key(1, 0, 10)).is_some());
        cache.insert(key(1, 2, 10), value(0.3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1, 0, 10)).is_some(), "recently used must survive");
        assert!(cache.get(&key(1, 1, 10)).is_none(), "LRU must be evicted");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_without_growing() {
        let cache = RecCache::new(2, 1);
        cache.insert(key(1, 0, 10), value(0.1));
        cache.insert(key(1, 0, 10), value(0.9));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(1, 0, 10)).unwrap()[0].score, 0.9);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let cache = RecCache::new(0, 4);
        assert!(cache.is_disabled());
        cache.insert(key(1, 0, 10), value(0.1));
        assert!(cache.get(&key(1, 0, 10)).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn invalidate_before_drops_old_epochs_only() {
        let cache = RecCache::new(16, 4);
        for agent in 0..4 {
            cache.insert(key(1, agent, 10), value(0.1));
            cache.insert(key(2, agent, 10), value(0.2));
        }
        let removed = cache.invalidate_before(2);
        assert_eq!(removed, 4);
        assert_eq!(cache.len(), 4);
        for agent in 0..4 {
            assert!(cache.get(&key(1, agent, 10)).is_none());
            assert!(cache.get(&key(2, agent, 10)).is_some());
        }
        assert_eq!(cache.stats().invalidated, 4);
    }

    #[test]
    fn carry_into_rekeys_clean_entries_and_drops_the_rest() {
        let cache = RecCache::new(32, 4);
        for agent in 0..4 {
            cache.insert(key(1, agent, 10), value(agent as f64));
        }
        // Pre-old-epoch garbage must also go.
        cache.insert(key(0, 9, 10), value(9.0));
        // Agents 0 and 1 are clean; 2 and 3 are dirty.
        let (carried, dropped) = cache.carry_into(2, &|a| a.index() < 2);
        assert_eq!(carried, 2);
        assert_eq!(dropped, 3);
        assert!(cache.get(&key(2, 0, 10)).is_some(), "clean entry answers on the new epoch");
        assert_eq!(cache.get(&key(2, 1, 10)).unwrap()[0].score, 1.0);
        assert!(cache.get(&key(2, 2, 10)).is_none(), "dirty entry must not cross the swap");
        assert!(cache.get(&key(1, 0, 10)).is_none(), "old key is gone after re-keying");
        assert!(cache.get(&key(0, 9, 10)).is_none() && cache.get(&key(2, 9, 10)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.carried, 2);
        assert_eq!(stats.invalidated, 3);
    }

    #[test]
    fn carry_into_yields_to_raced_fresh_inserts() {
        // A worker may have already computed agent 0 against the new
        // snapshot before the carry runs; the fresh entry must win.
        let cache = RecCache::new(32, 1);
        cache.insert(key(1, 0, 10), value(0.1));
        cache.insert(key(2, 0, 10), value(0.9));
        let (carried, dropped) = cache.carry_into(2, &|_| true);
        assert_eq!(carried, 0, "the fresh entry already covers the key");
        assert_eq!(dropped, 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(2, 0, 10)).unwrap()[0].score, 0.9);
    }

    #[test]
    fn capacity_splits_across_shards() {
        let cache = RecCache::new(8, 4);
        assert_eq!(cache.capacity(), 8);
        for agent in 0..64 {
            cache.insert(key(1, agent, 10), value(0.1));
        }
        assert!(cache.len() <= cache.capacity(), "{} entries", cache.len());
    }
}
