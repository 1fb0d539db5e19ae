//! The serving layer's bounded plan cache: LRU over [`PlanKey`]s with a
//! **monotone logical access stamp** — no wall clock, no thread
//! identity, so the eviction sequence is a pure function of the access
//! sequence.
//!
//! Every access (hit or insert) happens under one mutex and advances a
//! logical clock; each entry remembers the stamp of its latest access.
//! When an insert pushes the map past the configured capacity, the
//! entry with the *smallest* stamp — the least recently used — is
//! evicted and counted. Under a serial access order the victim sequence
//! is therefore deterministic (stamps are unique, so there are no
//! ties), which is what `tests/serving_shape_churn.rs` locks; under
//! concurrent access the stamps follow the lock-acquisition order, so
//! eviction choices may vary with interleaving but the bound
//! `len() ≤ capacity` and the result bits of every served query never
//! do.
//!
//! Eviction is safe mid-planning: a querier holds an `Arc` to its
//! entry's [`OnceLock`] slot, so evicting the map entry never
//! invalidates a plan being computed or replayed — the shape merely has
//! to be re-planned (a fresh miss) when it is requested again.

use crate::engine::QueryPlan;
use crate::serving::PlanKey;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A bounded, LRU-evicting map from query shape to (lazily computed)
/// plan slot. Capacity `0` means unbounded — the cache never evicts.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: BTreeMap<PlanKey, CacheEntry>,
    /// Logical access clock: advanced on every [`PlanCache::slot`]
    /// call, under the mutex, so stamps are unique and strictly
    /// increasing in lock-acquisition order.
    clock: u64,
    evictions: u64,
}

#[derive(Debug)]
struct CacheEntry {
    slot: Arc<OnceLock<QueryPlan>>,
    /// Stamp of this entry's latest access (insert or lookup).
    last_use: u64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` distinct shapes
    /// (`0` = unbounded).
    pub fn new(capacity: usize) -> Self {
        PlanCache { capacity, inner: Mutex::new(CacheInner::default()) }
    }

    /// The configured capacity (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The slot for `key`: marks the entry most-recently-used, creating
    /// it on first sight and evicting the least-recently-used *other*
    /// entry when the capacity would be exceeded. The slot itself is
    /// initialized by the caller (outside this lock), so concurrent
    /// first requests for one shape serialize on the slot's
    /// [`OnceLock`], never on the map.
    pub fn slot(&self, key: PlanKey) -> Arc<OnceLock<QueryPlan>> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        let is_new = !inner.entries.contains_key(&key);
        let slot = {
            let entry = inner
                .entries
                .entry(key)
                .or_insert_with(|| CacheEntry { slot: Arc::new(OnceLock::new()), last_use: 0 });
            entry.last_use = stamp;
            Arc::clone(&entry.slot)
        };
        if is_new && self.capacity != 0 && inner.entries.len() > self.capacity {
            // The just-inserted key carries the largest stamp, so the
            // minimum is always an *other* entry (capacity ≥ 1) and,
            // stamps being unique, the victim is unambiguous.
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone())
                .expect("cache over capacity is non-empty");
            inner.entries.remove(&victim);
            inner.evictions += 1;
        }
        slot
    }

    /// Distinct shapes currently cached (always ≤ capacity when
    /// bounded).
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkij_temporal::params::PredicateParams;
    use tkij_temporal::query::table1;

    fn key(k: usize) -> PlanKey {
        PlanKey::new(&table1::q_om(PredicateParams::P1), k)
    }

    #[test]
    fn stays_within_capacity_and_counts_evictions() {
        let cache = PlanCache::new(3);
        for k in 1..=10 {
            cache.slot(key(k));
            assert!(cache.len() <= 3, "len {} exceeds capacity after k={k}", cache.len());
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 7);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let cache = PlanCache::new(2);
        let a = cache.slot(key(1));
        cache.slot(key(2));
        // Touch A: B becomes the LRU entry.
        cache.slot(key(1));
        cache.slot(key(3)); // evicts B
        assert_eq!(cache.evictions(), 1);
        // A survived: its slot is the same allocation as before.
        assert!(Arc::ptr_eq(&a, &cache.slot(key(1))));
        // B was evicted: re-requesting it makes a fresh slot and, A
        // having just been touched, evicts C as the new LRU entry.
        let b = cache.slot(key(2));
        assert_eq!(cache.evictions(), 2);
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn zero_capacity_never_evicts() {
        let cache = PlanCache::new(0);
        for k in 1..=50 {
            cache.slot(key(k));
        }
        assert_eq!(cache.len(), 50);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.capacity(), 0);
    }

    #[test]
    fn eviction_sequence_is_deterministic_under_serial_order() {
        let run = || {
            let cache = PlanCache::new(3);
            // A churn pattern mixing repeats and fresh shapes.
            for k in [1, 2, 3, 1, 4, 5, 2, 6, 1, 7, 3, 3, 8] {
                cache.slot(key(k));
            }
            (cache.len(), cache.evictions())
        };
        assert_eq!(run(), run());
        let (len, evictions) = run();
        assert_eq!(len, 3);
        assert!(evictions > 0, "the churn pattern must actually evict");
    }

    #[test]
    fn capacity_one_holds_the_latest_shape() {
        let cache = PlanCache::new(1);
        cache.slot(key(1));
        cache.slot(key(2));
        cache.slot(key(3));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 2);
        // The surviving entry is the most recent: touching it evicts
        // nothing.
        cache.slot(key(3));
        assert_eq!(cache.evictions(), 2);
    }
}
