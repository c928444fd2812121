//! Result and partial-aggregate caching.
//!
//! Two invalidation signals keep cached answers correct without any
//! bookkeeping on the write path:
//!
//! * a **TTL** in simulated seconds bounds staleness for consumers, and
//! * the engine's **epoch** (the hierarchy's flush epoch plus any local
//!   invalidations) certifies structural freshness: archives above fog 1
//!   only change when a flush ships data upward (which also runs
//!   retention eviction), so an entry stamped with the current epoch
//!   cannot have been invalidated by upstream movement.
//!
//! Fog-1 stores do change between flushes — but only by appending records
//! at the clock frontier, which is why bucketed partials are only cached
//! for buckets that end at or before the instant they were computed (the
//! engine bumps its epoch if a backdated ingest breaks that assumption).

use std::collections::hash_map::Entry as MapEntry;
use std::collections::VecDeque;
use std::hash::Hash;

use scc_sensors::IdMap;

use crate::model::{AggPartial, Query, QueryAnswer, QueryKind, Scope, Selector, TimeWindow};

/// A bounded map with FIFO eviction, shared by both caches.
///
/// Entries removed out of band (stale reads) leave their order slot
/// behind; each slot carries the insertion sequence number, so eviction
/// skips slots whose entry was already dropped or re-inserted, and the
/// order queue is compacted whenever it exceeds twice the capacity.
/// Memory is therefore O(capacity) no matter the churn pattern.
#[derive(Debug, Clone)]
struct BoundedFifo<K, V> {
    /// Keys are built by this program from queries it planned, and the
    /// map is capacity-bounded and never iterated: an [`IdMap`].
    map: IdMap<K, Slot<V>>,
    order: VecDeque<(u64, K)>,
    capacity: usize,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct Slot<V> {
    value: V,
    seq: u64,
}

impl<K: Copy + Eq + Hash, V> BoundedFifo<K, V> {
    fn new(capacity: usize) -> Self {
        Self {
            map: IdMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            next_seq: 0,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// The value at `key` if `valid` accepts it, in one probe; a value
    /// it rejects is dropped. The order slot of a dropped entry stays
    /// behind; eviction/compaction skips it via the sequence check.
    fn get_valid(&mut self, key: &K, valid: impl FnOnce(&V) -> bool) -> Option<&V> {
        match self.map.entry(*key) {
            MapEntry::Occupied(slot) if valid(&slot.get().value) => Some(&slot.into_mut().value),
            MapEntry::Occupied(slot) => {
                slot.remove();
                None
            }
            MapEntry::Vacant(_) => None,
        }
    }

    fn insert(&mut self, key: K, value: V) {
        if let Some(slot) = self.map.get_mut(&key) {
            // In-place update keeps the original FIFO position.
            slot.value = value;
            return;
        }
        while self.map.len() >= self.capacity {
            match self.order.pop_front() {
                Some((seq, old)) => {
                    if self.map.get(&old).is_some_and(|s| s.seq == seq) {
                        self.map.remove(&old);
                        break;
                    }
                }
                None => break,
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.order.push_back((seq, key));
        self.map.insert(key, Slot { value, seq });
        if self.order.len() > 2 * self.capacity {
            let map = &self.map;
            self.order
                .retain(|(seq, k)| map.get(k).is_some_and(|s| s.seq == *seq));
        }
    }

    #[cfg(test)]
    fn order_len(&self) -> usize {
        self.order.len()
    }
}

/// Cache identity of a query: everything except the requesting origin —
/// the answer depends on the data selected, not on who asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    selector: Selector,
    scope: Scope,
    window: TimeWindow,
    kind: QueryKind,
}

impl From<&Query> for CacheKey {
    fn from(q: &Query) -> Self {
        Self {
            selector: q.selector,
            scope: q.scope,
            window: q.window,
            kind: q.kind,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    answer: QueryAnswer,
    stored_at_s: u64,
    epoch: u64,
}

/// A bounded, deterministic result cache: TTL + epoch validity checks on
/// read, FIFO eviction on insert.
#[derive(Debug, Clone)]
pub struct ResultCache {
    inner: BoundedFifo<CacheKey, Entry>,
    ttl_s: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` answers for `ttl_s`.
    pub fn new(ttl_s: u64, capacity: usize) -> Self {
        Self {
            inner: BoundedFifo::new(capacity),
            ttl_s,
        }
    }

    /// Number of resident entries (some may be stale until touched).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    /// Returns the cached answer if it is still valid at `now_s` under
    /// `epoch`; drops it otherwise.
    pub fn get(&mut self, key: &CacheKey, now_s: u64, epoch: u64) -> Option<QueryAnswer> {
        self.inner
            .get_valid(key, |e| {
                e.epoch == epoch && now_s.saturating_sub(e.stored_at_s) < self.ttl_s
            })
            .map(|e| e.answer.clone())
    }

    /// Stores an answer, evicting oldest-inserted entries when full.
    pub fn put(&mut self, key: CacheKey, answer: QueryAnswer, now_s: u64, epoch: u64) {
        self.inner.insert(
            key,
            Entry {
                answer,
                stored_at_s: now_s,
                epoch,
            },
        );
    }
}

/// Which node a cached partial was computed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKey {
    /// A fog-1 node by section.
    Fog1(u16),
    /// A fog-2 node by district.
    Fog2(u16),
    /// The cloud archive.
    Cloud,
}

/// Cache identity of one aggregation bucket at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartialKey {
    /// Where the partial was folded.
    pub node: NodeKey,
    /// Data selection it covers.
    pub selector: Selector,
    /// Scope it was filtered to.
    pub scope: Scope,
    /// Bucket start (a multiple of the bucket width).
    pub bucket_start_s: u64,
}

#[derive(Debug, Clone)]
struct PartialEntry {
    partial: AggPartial,
    epoch: u64,
}

/// A bounded cache of per-bucket mergeable partials, epoch-invalidated.
/// Aggregate queries merge cached bucket partials instead of rescanning
/// the archive — the decomposability payoff of §V.A at serving time.
#[derive(Debug, Clone)]
pub struct PartialCache {
    inner: BoundedFifo<PartialKey, PartialEntry>,
}

impl PartialCache {
    /// An empty cache holding at most `capacity` bucket partials.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: BoundedFifo::new(capacity),
        }
    }

    /// Number of resident partials.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    /// Merges the cached partial for `key` into `acc` if one is valid
    /// under `epoch`; reports whether it was a hit.
    pub fn merge_into(&mut self, key: &PartialKey, epoch: u64, acc: &mut AggPartial) -> bool {
        match self.inner.get_valid(key, |e| e.epoch == epoch) {
            Some(entry) => {
                acc.merge(&entry.partial);
                true
            }
            None => false,
        }
    }

    /// Stores a freshly folded bucket partial.
    pub fn put(&mut self, key: PartialKey, partial: AggPartial, epoch: u64) {
        self.inner.insert(key, PartialEntry { partial, epoch });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AggregateResult;
    use scc_sensors::SensorType;

    fn key(from: u64, until: u64) -> CacheKey {
        CacheKey {
            selector: Selector::Type(SensorType::Traffic),
            scope: Scope::Section(0),
            window: TimeWindow::new(from, until),
            kind: QueryKind::Aggregate,
        }
    }

    fn answer(count: u64) -> QueryAnswer {
        QueryAnswer::Aggregate(AggregateResult {
            count,
            sum: 0.0,
            mean: None,
            min: None,
            max: None,
            variance: None,
            distinct_sensors: 0,
        })
    }

    #[test]
    fn ttl_and_epoch_invalidate() {
        let mut c = ResultCache::new(60, 8);
        c.put(key(0, 100), answer(5), 1_000, 1);
        assert!(c.get(&key(0, 100), 1_059, 1).is_some(), "within TTL");
        assert!(c.get(&key(0, 100), 1_060, 1).is_none(), "TTL expired");
        c.put(key(0, 100), answer(5), 1_000, 1);
        assert!(c.get(&key(0, 100), 1_001, 2).is_none(), "flush epoch moved");
        assert!(c.is_empty(), "stale entries are dropped on read");
    }

    #[test]
    fn fifo_eviction_bounds_the_cache() {
        let mut c = ResultCache::new(1_000, 3);
        for i in 0..5u64 {
            c.put(key(i, i + 1), answer(i), 0, 1);
        }
        assert_eq!(c.len(), 3);
        assert!(c.get(&key(0, 1), 0, 1).is_none(), "oldest evicted");
        assert!(c.get(&key(4, 5), 0, 1).is_some(), "newest kept");
    }

    #[test]
    fn update_in_place_does_not_grow_the_order_queue() {
        let mut c = ResultCache::new(1_000, 2);
        for _ in 0..10 {
            c.put(key(0, 1), answer(1), 0, 1);
        }
        c.put(key(1, 2), answer(2), 0, 1);
        assert_eq!(c.len(), 2, "repeated puts of one key occupy one slot");
        assert_eq!(c.inner.order_len(), 2);
    }

    #[test]
    fn stale_churn_on_one_key_keeps_memory_bounded() {
        // One recurring key invalidated by an epoch bump every round:
        // the map never reaches capacity, yet the order queue must not
        // grow without bound (it compacts at 2x capacity).
        let mut c = ResultCache::new(1_000, 4);
        for epoch in 0..100u64 {
            assert!(c.get(&key(0, 1), 0, epoch).is_none());
            c.put(key(0, 1), answer(epoch), 0, epoch);
        }
        assert_eq!(c.len(), 1);
        assert!(
            c.inner.order_len() <= 8,
            "order queue leaked: {} slots for 1 live entry",
            c.inner.order_len()
        );
        // The surviving entry is the freshest one.
        match c.get(&key(0, 1), 0, 99) {
            Some(QueryAnswer::Aggregate(a)) => assert_eq!(a.count, 99),
            other => panic!("expected the last answer, got {other:?}"),
        }
    }

    #[test]
    fn eviction_skips_reinserted_keys() {
        // A key dropped as stale and re-inserted gets a fresh sequence;
        // the leftover order slot must not evict the new entry.
        let mut c = ResultCache::new(1_000, 2);
        c.put(key(0, 1), answer(0), 0, 1);
        assert!(c.get(&key(0, 1), 0, 2).is_none(), "stale drop");
        c.put(key(0, 1), answer(1), 0, 2);
        c.put(key(1, 2), answer(2), 0, 2);
        c.put(key(2, 3), answer(3), 0, 2); // evicts the oldest live slot
        assert_eq!(c.len(), 2);
        assert!(
            c.get(&key(2, 3), 0, 2).is_some(),
            "newest insert must survive"
        );
    }

    #[test]
    fn key_hash_spreads_bucket_starts_over_the_low_bits() {
        // Keys that differ only in a bucket start (a multiple of 900):
        // the table indexes by the low bits, and 4 096 keys thrown at
        // 4 096 slots fill ≈63 % of them when the hash is any good. The
        // raw product would reach a quarter at most.
        use std::hash::BuildHasher;
        let build = scc_sensors::idhash::BuildIdHasher::default();
        let slots: std::collections::HashSet<u64> = (0..4_096u64)
            .map(|k| PartialKey {
                node: NodeKey::Fog2(3),
                selector: Selector::Type(SensorType::Traffic),
                scope: Scope::City,
                bucket_start_s: k * 900,
            })
            .map(|key| build.hash_one(key) & 0xfff)
            .collect();
        assert!(
            slots.len() > 2_300,
            "only {} of 4096 slots hit",
            slots.len()
        );
    }

    #[test]
    fn partial_cache_merges_hits_and_respects_epoch() {
        use crate::model::AggPartial;
        let mut pc = PartialCache::new(8);
        let k = PartialKey {
            node: NodeKey::Fog2(3),
            selector: Selector::Type(SensorType::Traffic),
            scope: Scope::District(3),
            bucket_start_s: 900,
        };
        let mut acc = AggPartial::empty();
        assert!(!pc.merge_into(&k, 1, &mut acc), "cold");
        pc.put(k, AggPartial::empty(), 1);
        assert!(pc.merge_into(&k, 1, &mut acc), "hit");
        assert!(!pc.merge_into(&k, 2, &mut acc), "epoch invalidates");
        assert!(pc.is_empty());
    }
}
