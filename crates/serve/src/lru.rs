//! In-process LRU caches keyed by fingerprint, generic over what they hold.
//!
//! The backing [`deepsplit_core::store::ModelStore`] keeps model blobs;
//! decoding a model on every `/attack` request would dominate inference for
//! warm cells. The server therefore keeps the last `capacity` *decoded*
//! models behind [`std::sync::Arc`]s ([`ModelLru`]) — concurrent requests
//! for the same model share one allocation, and eviction is by least-recent
//! use. Two more caches of the same kind keep the server's layout work
//! bounded: the implemented layouts of the evaluation protocols it has
//! served, and the victim memo, which holds each victim spec's defended,
//! prepared design so that a warm `/attack` runs inference only (see
//! [`crate::server`]). None of the three grows without bound.

use deepsplit_core::fingerprint::CorpusFingerprint;
use deepsplit_core::sync::lock_or_recover;
use deepsplit_core::train::TrainedAttack;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Usage counters of an [`Lru`], for the `/metrics` endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LruCounters {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that fell through to the store.
    pub misses: usize,
    /// Entries dropped to make room.
    pub evictions: usize,
    /// Entries currently held.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
}

/// The mutable core of an [`Lru`]: the entry list plus an invalidation
/// generation, under one lock so "was anything invalidated since I started
/// deserializing?" and "insert my deserialization" are one atomic question.
#[derive(Debug)]
struct LruState<V> {
    /// Front = most recently used.
    entries: VecDeque<(CorpusFingerprint, Arc<V>)>,
    /// Bumped by every [`Lru::invalidate`].
    generation: u64,
}

/// A thread-safe LRU keyed by fingerprint. Capacity `0` disables caching
/// (every [`Lru::get`] misses, [`Lru::put`] is a no-op).
#[derive(Debug)]
pub struct Lru<V> {
    capacity: usize,
    state: Mutex<LruState<V>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

/// The server's cache of decoded models.
pub type ModelLru = Lru<TrainedAttack>;

impl<V> Lru<V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Lru<V> {
        Lru {
            capacity,
            state: Mutex::new(LruState {
                entries: VecDeque::new(),
                generation: 0,
            }),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// The cached value under `key`, promoted to most-recently-used.
    pub fn get(&self, key: &CorpusFingerprint) -> Option<Arc<V>> {
        let mut state = lock_or_recover(&self.state);
        let position = state.entries.iter().position(|(k, _)| k == key);
        let found = position.and_then(|i| state.entries.remove(i)).map(|entry| {
            let model = Arc::clone(&entry.1);
            state.entries.push_front(entry);
            model
        });
        drop(state);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// The current invalidation generation. Snapshot it *before* loading or
    /// deserializing a blob, then insert with [`Lru::put_if_fresh`] —
    /// an invalidation in between (a concurrent `PUT /models` overwrite)
    /// makes the insert a no-op, so a deserialization of the replaced blob
    /// can never outlive it in this cache.
    pub(crate) fn generation(&self) -> u64 {
        lock_or_recover(&self.state).generation
    }

    /// Inserts (or refreshes) `model` under `key`, evicting the least
    /// recently used entry beyond capacity.
    pub fn put(&self, key: CorpusFingerprint, model: Arc<V>) {
        self.put_if_fresh(key, model, None);
    }

    /// [`Lru::put`] that is dropped when the generation moved past
    /// `observed` (see [`Lru::generation`]). `None` always inserts.
    pub(crate) fn put_if_fresh(
        &self,
        key: CorpusFingerprint,
        model: Arc<V>,
        observed: Option<u64>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut state = lock_or_recover(&self.state);
        if let Some(observed) = observed {
            if state.generation != observed {
                return;
            }
        }
        if let Some(i) = state.entries.iter().position(|(k, _)| *k == key) {
            state.entries.remove(i);
        }
        state.entries.push_front((key, model));
        while state.entries.len() > self.capacity {
            state.entries.pop_back();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops the entry under `key` (if any) and advances the generation —
    /// used when a `PUT /models` overwrites a blob so a cached (or
    /// concurrently in-flight) deserialization cannot go stale.
    pub(crate) fn invalidate(&self, key: &CorpusFingerprint) {
        let mut state = lock_or_recover(&self.state);
        state.generation += 1;
        if let Some(i) = state.entries.iter().position(|(k, _)| k == key) {
            state.entries.remove(i);
        }
    }

    /// Current usage counters.
    pub(crate) fn counters(&self) -> LruCounters {
        LruCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: lock_or_recover(&self.state).entries.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsplit_core::store::conformance;

    fn arc_model(seed: u64) -> Arc<TrainedAttack> {
        Arc::new(conformance::model(seed))
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let lru = ModelLru::new(2);
        lru.put(conformance::key(1), arc_model(1));
        lru.put(conformance::key(2), arc_model(2));
        // Touch 1 so 2 becomes the eviction victim.
        assert!(lru.get(&conformance::key(1)).is_some());
        lru.put(conformance::key(3), arc_model(3));
        assert!(lru.get(&conformance::key(2)).is_none(), "2 was evicted");
        assert!(lru.get(&conformance::key(1)).is_some());
        assert!(lru.get(&conformance::key(3)).is_some());
        let c = lru.counters();
        assert_eq!((c.hits, c.misses, c.evictions, c.len), (3, 1, 1, 2));
        assert_eq!(c.capacity, 2);
    }

    #[test]
    fn put_refreshes_existing_entries() {
        let lru = ModelLru::new(2);
        lru.put(conformance::key(1), arc_model(1));
        let replacement = arc_model(9);
        lru.put(conformance::key(1), Arc::clone(&replacement));
        let got = lru.get(&conformance::key(1)).expect("entry present");
        assert!(Arc::ptr_eq(&got, &replacement), "put must replace");
        assert_eq!(lru.counters().len, 1, "refresh must not duplicate");
        lru.invalidate(&conformance::key(1));
        assert!(lru.get(&conformance::key(1)).is_none());
    }

    #[test]
    fn stale_puts_are_dropped_after_invalidation() {
        // The PUT-overwrite race: a resolver snapshots the generation, a
        // concurrent blob overwrite invalidates, and the resolver's insert
        // of the now-replaced deserialization must be dropped.
        let lru = ModelLru::new(2);
        let observed = lru.generation();
        lru.invalidate(&conformance::key(1)); // concurrent PUT /models
        lru.put_if_fresh(conformance::key(1), arc_model(1), Some(observed));
        assert!(
            lru.get(&conformance::key(1)).is_none(),
            "a deserialization of the replaced blob must not be cached"
        );
        // With a current snapshot the insert lands.
        let observed = lru.generation();
        lru.put_if_fresh(conformance::key(1), arc_model(1), Some(observed));
        assert!(lru.get(&conformance::key(1)).is_some());
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let lru = ModelLru::new(0);
        lru.put(conformance::key(1), arc_model(1));
        assert!(lru.get(&conformance::key(1)).is_none());
        assert_eq!(lru.counters().len, 0);
    }
}
