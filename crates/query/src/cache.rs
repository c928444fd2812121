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

use crate::model::{
    AggPartial, AggState, Query, QueryAnswer, QueryKind, Scope, Selector, TimeWindow,
};

/// A bounded map with FIFO eviction — the result caches' store, and the
/// policy [`PartialCache`] reproduces over its bucket series.
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
pub(crate) enum NodeKey {
    /// A fog-1 node by section.
    Fog1(u16),
    /// A fog-2 node by district.
    Fog2(u16),
    /// The cloud archive.
    Cloud,
}

/// Identity of one bucket **series**: every bucket one node folded for
/// one selection — what an aggregate leg probes once before walking its
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SeriesKey {
    /// Where the partials were folded.
    pub node: NodeKey,
    /// Data selection they cover.
    pub selector: Selector,
    /// Scope they were filtered to.
    pub scope: Scope,
}

/// A series of a [`PartialCache`], as [`PartialCache::series`] names it.
/// Stays valid for the cache's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SeriesId(u32);

#[derive(Debug, Clone)]
struct Bucket {
    start_s: u64,
    /// Insertion sequence number, matched against the order queue.
    seq: u64,
    epoch: u64,
    partial: AggPartial,
}

/// A bounded cache of per-bucket mergeable partials, epoch-invalidated.
/// Aggregate queries merge cached bucket partials instead of rescanning
/// the archive — the decomposability payoff of §V.A at serving time.
///
/// Buckets are held per series, each a short run sorted by bucket start:
/// a leg pays one table probe for its series and a search of that run
/// per bucket. Capacity, eviction and staleness are the result caches'
/// FIFO policy unchanged, over all buckets of all series at once:
/// `capacity` counts bucket partials, an in-place update keeps its FIFO
/// position, a stale bucket is dropped when read, and the one order
/// queue carries sequence numbers and is compacted at twice the
/// capacity. The series table itself only grows, bounded by the
/// topology: a node is asked for its own shard or a scope it contains
/// (73 + 83 + 84 `(node, scope)` pairs) under one of 26 selectors.
#[derive(Debug, Clone)]
pub(crate) struct PartialCache {
    /// Keys are built by this program from queries it planned: an
    /// [`IdMap`], never iterated.
    ids: IdMap<SeriesKey, SeriesId>,
    /// Bucket runs by [`SeriesId`], each sorted by `start_s`.
    series: Vec<Vec<Bucket>>,
    /// `(sequence, series, bucket start)` in insertion order.
    order: VecDeque<(u64, SeriesId, u64)>,
    capacity: usize,
    len: usize,
    next_seq: u64,
}

/// Where the bucket starting at `start_s` is, or would go, in `run`.
fn locate(run: &[Bucket], start_s: u64) -> std::result::Result<usize, usize> {
    run.binary_search_by_key(&start_s, |b| b.start_s)
}

impl PartialCache {
    /// An empty cache holding at most `capacity` bucket partials.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            ids: IdMap::default(),
            series: Vec::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            len: 0,
            next_seq: 0,
        }
    }

    /// The series of `key`, opened empty on first sight.
    pub(crate) fn series(&mut self, key: SeriesKey) -> SeriesId {
        match self.ids.entry(key) {
            MapEntry::Occupied(slot) => *slot.get(),
            MapEntry::Vacant(slot) => {
                let id = SeriesId(self.series.len() as u32);
                self.series.push(Vec::new());
                *slot.insert(id)
            }
        }
    }

    /// Merges the series' cached partial for the bucket at
    /// `bucket_start_s` into `acc` if one is valid under `epoch`;
    /// reports whether it was a hit. A stale one is dropped.
    pub(crate) fn merge_at<A: AggState>(
        &mut self,
        series: SeriesId,
        bucket_start_s: u64,
        epoch: u64,
        acc: &mut A,
    ) -> bool {
        let run = &mut self.series[series.0 as usize];
        let Ok(at) = locate(run, bucket_start_s) else {
            return false;
        };
        if run[at].epoch == epoch {
            acc.merge(&run[at].partial);
            true
        } else {
            // The order slot stays behind; eviction and compaction skip
            // it by its sequence number.
            run.remove(at);
            self.len -= 1;
            false
        }
    }

    /// Stores a freshly folded partial for the series' bucket at
    /// `bucket_start_s`, evicting the oldest-inserted bucket of any
    /// series when full.
    pub(crate) fn put_at(
        &mut self,
        series: SeriesId,
        bucket_start_s: u64,
        partial: AggPartial,
        epoch: u64,
    ) {
        let run = &mut self.series[series.0 as usize];
        if let Ok(at) = locate(run, bucket_start_s) {
            // In-place update keeps the original FIFO position.
            run[at].partial = partial;
            run[at].epoch = epoch;
            return;
        }
        while self.len >= self.capacity {
            let Some((seq, old, start_s)) = self.order.pop_front() else {
                break;
            };
            let run = &mut self.series[old.0 as usize];
            if let Ok(at) = locate(run, start_s) {
                if run[at].seq == seq {
                    run.remove(at);
                    self.len -= 1;
                    break;
                }
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.order.push_back((seq, series, bucket_start_s));
        let run = &mut self.series[series.0 as usize];
        let at = run.partition_point(|b| b.start_s < bucket_start_s);
        run.insert(
            at,
            Bucket {
                start_s: bucket_start_s,
                seq,
                epoch,
                partial,
            },
        );
        self.len += 1;
        if self.order.len() > 2 * self.capacity {
            let series = &self.series;
            self.order.retain(|&(seq, id, start_s)| {
                let run = &series[id.0 as usize];
                locate(run, start_s).is_ok_and(|at| run[at].seq == seq)
            });
        }
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
            sum: Some(0.0),
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
        assert_eq!(c.inner.map.len(), 0, "stale entries are dropped on read");
    }

    #[test]
    fn fifo_eviction_bounds_the_cache() {
        let mut c = ResultCache::new(1_000, 3);
        for i in 0..5u64 {
            c.put(key(i, i + 1), answer(i), 0, 1);
        }
        assert_eq!(c.inner.map.len(), 3);
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
        assert_eq!(
            c.inner.map.len(),
            2,
            "repeated puts of one key occupy one slot"
        );
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
        assert_eq!(c.inner.map.len(), 1);
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
        assert_eq!(c.inner.map.len(), 2);
        assert!(
            c.get(&key(2, 3), 0, 2).is_some(),
            "newest insert must survive"
        );
    }

    #[test]
    fn key_hash_spreads_bucket_starts_over_the_low_bits() {
        // Keys that differ only in a bucket-aligned window (multiples of
        // 900): the table indexes by the low bits, and 4 096 keys thrown
        // at 4 096 slots fill ≈63 % of them when the hash is any good.
        // The raw product would reach a quarter at most.
        use std::hash::BuildHasher;
        let build = scc_sensors::idhash::BuildIdHasher::default();
        let slots: std::collections::HashSet<u64> = (0..4_096u64)
            .map(|k| key(k * 900, (k + 1) * 900))
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
            series: SeriesKey {
                node: NodeKey::Fog2(3),
                selector: Selector::Type(SensorType::Traffic),
                scope: Scope::District(3),
            },
            bucket_start_s: 900,
        };
        let mut acc = AggPartial::empty();
        assert!(!pc.merge_into(&k, 1, &mut acc), "cold");
        pc.put(k, AggPartial::empty(), 1);
        assert!(pc.merge_into(&k, 1, &mut acc), "hit");
        assert!(!pc.merge_into(&k, 2, &mut acc), "epoch invalidates");
        assert_eq!(pc.len, 0);
    }

    /// The old form of [`PartialCache`], kept as the reference model:
    /// one flat [`BoundedFifo`] keyed by the whole bucket identity.
    struct FlatPartialCache(BoundedFifo<PartialKey, (AggPartial, u64)>);

    impl FlatPartialCache {
        fn merge_into(&mut self, key: &PartialKey, epoch: u64, acc: &mut AggPartial) -> bool {
            match self.0.get_valid(key, |e| e.1 == epoch) {
                Some(entry) => {
                    acc.merge(&entry.0);
                    true
                }
                None => false,
            }
        }

        fn put(&mut self, key: PartialKey, partial: AggPartial, epoch: u64) {
            self.0.insert(key, (partial, epoch));
        }
    }

    /// Cache identity of one aggregation bucket at one node.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct PartialKey {
        /// The series the bucket belongs to.
        series: SeriesKey,
        /// Bucket start (a multiple of the bucket width).
        bucket_start_s: u64,
    }

    impl PartialCache {
        /// [`PartialCache::merge_at`] for one bucket named in full.
        fn merge_into<A: AggState>(&mut self, key: &PartialKey, epoch: u64, acc: &mut A) -> bool {
            let series = self.series(key.series);
            self.merge_at(series, key.bucket_start_s, epoch, acc)
        }

        /// [`PartialCache::put_at`] for one bucket named in full.
        fn put(&mut self, key: PartialKey, partial: AggPartial, epoch: u64) {
            let series = self.series(key.series);
            self.put_at(series, key.bucket_start_s, partial, epoch);
        }

        /// The epoch of the resident bucket at `key`, stale or not.
        fn resident_epoch(&self, key: &PartialKey) -> Option<u64> {
            let run = &self.series[self.ids.get(&key.series)?.0 as usize];
            locate(run, key.bucket_start_s).ok().map(|at| run[at].epoch)
        }
    }

    proptest::proptest! {
        #[test]
        fn series_cache_keeps_the_flat_fifo_policy(
            capacity in proptest::sample::select(vec![1usize, 2, 7]),
            ops in proptest::collection::vec((0u8..10, 0u16..3, 0u8..2, 0usize..2, 0u64..6), 1..300),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let universe = |node: u16, sel: u8, scope: usize, bucket: u64| PartialKey {
                series: SeriesKey {
                    node: if node == 2 { NodeKey::Cloud } else { NodeKey::Fog2(node) },
                    selector: Selector::Type(
                        [SensorType::Traffic, SensorType::Weather][sel as usize],
                    ),
                    scope: [Scope::City, Scope::District(3)][scope],
                },
                bucket_start_s: bucket * 900,
            };
            let mut series = PartialCache::new(capacity);
            let mut flat = FlatPartialCache(BoundedFifo::new(capacity));
            let (mut got, mut want) = (AggPartial::empty(), AggPartial::empty());
            let mut epoch = 1u64;
            for (step, &(kind, node, sel, scope, bucket)) in ops.iter().enumerate() {
                let key = universe(node, sel, scope, bucket);
                match kind {
                    // A flush wave: everything resident goes stale.
                    0 => epoch += 1,
                    1..=5 => prop_assert_eq!(
                        series.merge_into(&key, epoch, &mut got),
                        flat.merge_into(&key, epoch, &mut want),
                        "verdict at step {}", step
                    ),
                    _ => {
                        // A partial that names its put, so a hit merges
                        // the right one.
                        let mut part = AggPartial::empty();
                        part.absorb(step as f64, step as u64);
                        series.put(key, part.clone(), epoch);
                        flat.put(key, part, epoch);
                    }
                }
                prop_assert_eq!(series.len, flat.0.map.len());
                prop_assert_eq!(series.order.len(), flat.0.order_len());
                prop_assert!(series.order.len() <= 2 * capacity);
            }
            prop_assert_eq!(&got, &want, "the hits merged the same partials");
            for node in 0..3 {
                for sel in 0..2 {
                    for scope in 0..2 {
                        for bucket in 0..6 {
                            let key = universe(node, sel, scope, bucket);
                            prop_assert_eq!(
                                series.resident_epoch(&key),
                                flat.0.map.get(&key).map(|slot| slot.value.1),
                                "survivor {:?}", key
                            );
                        }
                    }
                }
            }
        }
    }
}
