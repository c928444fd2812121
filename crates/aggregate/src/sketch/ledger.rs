//! The per-node sketch ledger: epoch-keyed, CRC-checked bucket partials
//! that survive raw-record compaction.
//!
//! Every F2C node keeps one [`SketchLedger`]. A fog-1 node folds each
//! flush batch into per-`(section, type, bucket)` [`AggPartial`]s and
//! ships the encoded partials upward alongside the raw records; fog-2
//! and the cloud fold the incoming shipments into their own ledgers (a
//! CRC failure is counted and refuses its whole shipment, never silently
//! merged) instead of ever re-scanning raw records for aggregate state.
//!
//! Two watermarks make ledger answers *provable*:
//!
//! * a per-section **seal frontier** ([`SketchLedger::sealed_through`]):
//!   every record of that section created before the frontier that the
//!   owning node has shipped/received is folded in — so an *absent*
//!   bucket below the frontier is provably empty, not merely unsealed;
//! * an **eviction watermark** ([`SketchLedger::evicted_before_s`]):
//!   ledger compaction ([`SketchLedger::evict_older_than`]) never
//!   removes buckets at or after it, mirroring the tiered store's raw
//!   watermark — but with a much longer horizon, because bucket
//!   partials are constant-size where raw records are not.
//!
//! Entries also keep the owner-local flush epoch that last touched them.
//! Nothing outside this file's tests reads it: the epoch stays because
//! the benchmark's calls to [`SketchLedger::fold`] and
//! [`SketchLedger::fold_encoded`] pass it. Staleness *proofs* never read
//! it: a warm-sketch answer is offered exactly when the window end lies
//! at or before the seal frontier *and* the owner has nothing pending
//! below it (the planner's check).

use std::collections::hash_map::Entry as Slot;
use std::collections::HashMap;
use std::num::NonZeroU64;

use scc_sensors::{heap, SensorType};

use super::{AggPartial, AggState};
use crate::{Error, Result};

/// Identity of one folded bucket partial: which section produced the
/// records, which sensor type they are, and the bucket's start instant
/// (a multiple of the ledger's bucket width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SketchKey {
    /// Producing section (fog-1 catchment), from the record descriptors.
    pub section: u16,
    /// Sensor type of the folded records.
    pub ty: SensorType,
    /// Bucket start in seconds (multiple of the bucket width).
    pub bucket_start_s: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    partial: AggPartial,
    /// Owner-local flush epoch that last folded into this bucket.
    epoch: u64,
}

impl Entry {
    fn merge(&mut self, partial: &AggPartial, epoch: u64) {
        self.partial.merge(partial);
        self.epoch = self.epoch.max(epoch);
    }
}

/// Epoch-keyed store of bucket partials with seal and eviction
/// watermarks.
///
/// Two watermarks make ledger answers *provable*: a per-section **seal
/// frontier** ([`SketchLedger::sealed_through`] — every record of the
/// section created before it that the owner has shipped/received is
/// folded in, so an absent sealed bucket is provably empty) and an
/// **eviction watermark** ([`SketchLedger::evicted_before_s`] —
/// compaction never removes buckets at or after it). Entries remember
/// the owner-local flush epoch that last touched them.
///
/// # Examples
///
/// ```
/// use f2c_aggregate::sketch::{AggPartial, SketchKey, SketchLedger};
/// use scc_sensors::SensorType;
///
/// let mut ledger = SketchLedger::new(900)?;
/// let key = SketchKey { section: 21, ty: SensorType::Traffic, bucket_start_s: 0 };
/// let mut partial = AggPartial::empty();
/// partial.absorb(4.2, 7);
/// ledger.fold(key, &partial, 1);
/// ledger.seal(21, 900);
/// assert!(ledger.covers(21, 0, 900));
/// let mut acc = AggPartial::empty();
/// ledger.merge_range(21, SensorType::Traffic, 0, 900, &mut acc);
/// assert_eq!(acc.count(), 1);
/// # Ok::<(), f2c_aggregate::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct SketchLedger {
    bucket_s: u64,
    entries: HashMap<SketchKey, Entry>,
    sealed: HashMap<u16, u64>,
    evicted_before_s: u64,
    folds: u64,
    crc_failures: u64,
}

impl SketchLedger {
    /// An empty ledger bucketing at `bucket_s`-second boundaries.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyWindow`] on a zero bucket width.
    pub fn new(bucket_s: u64) -> Result<Self> {
        NonZeroU64::new(bucket_s)
            .map(Self::with_bucket)
            .ok_or(Error::EmptyWindow)
    }

    /// An empty ledger bucketing at `bucket_s`-second boundaries, for a
    /// width known to be non-zero.
    pub fn with_bucket(bucket_s: NonZeroU64) -> Self {
        Self {
            bucket_s: bucket_s.get(),
            entries: HashMap::new(),
            sealed: HashMap::new(),
            evicted_before_s: 0,
            folds: 0,
            crc_failures: 0,
        }
    }

    /// The bucket width in seconds.
    pub fn bucket_s(&self) -> u64 {
        self.bucket_s
    }

    /// Start of the bucket containing `t_s`.
    pub fn bucket_start(&self, t_s: u64) -> u64 {
        t_s - t_s % self.bucket_s
    }

    /// Number of resident bucket partials.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ledger holds no partials.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Heap bytes at rest: the entry table and each partial's
    /// registers, and the seal frontiers. Entries are removed by
    /// compaction, so their table is priced from its length (see
    /// [`heap::table_bytes`]).
    pub fn heap_bytes(&self) -> u64 {
        heap::table_bytes::<(SketchKey, Entry)>(self.entries.len())
            + self
                .entries
                .values()
                .map(|e| e.partial.heap_bytes())
                .sum::<u64>()
            + heap::table_bytes::<(u16, u64)>(self.sealed.capacity())
    }

    /// Total partials folded in (local folds + decoded shipments).
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// Shipped partials refused for failing their CRC or layout checks.
    pub fn crc_failures(&self) -> u64 {
        self.crc_failures
    }

    /// Merges `partial` into the bucket at `key`, stamping it with the
    /// owner's flush `epoch`; a vacant bucket takes a copy.
    pub fn fold(&mut self, key: SketchKey, partial: &AggPartial, epoch: u64) {
        match self.slot(key) {
            Slot::Occupied(entry) => entry.into_mut().merge(partial, epoch),
            Slot::Vacant(slot) => {
                slot.insert(Entry {
                    partial: partial.clone(),
                    epoch,
                });
            }
        }
    }

    /// [`SketchLedger::fold`] of a partial the caller is done with: a
    /// vacant bucket takes it as it is.
    pub fn fold_owned(&mut self, key: SketchKey, partial: AggPartial, epoch: u64) {
        match self.slot(key) {
            Slot::Occupied(entry) => entry.into_mut().merge(&partial, epoch),
            Slot::Vacant(slot) => {
                slot.insert(Entry { partial, epoch });
            }
        }
    }

    /// Counts one fold and looks `key` up once.
    fn slot(&mut self, key: SketchKey) -> Slot<'_, SketchKey, Entry> {
        debug_assert_eq!(key.bucket_start_s % self.bucket_s, 0, "unaligned key");
        self.folds += 1;
        self.entries.entry(key)
    }

    /// Decodes one shipped partial (verifying its CRC) and folds it in.
    ///
    /// # Errors
    ///
    /// As [`SketchLedger::decode_shipped`]; a refused shipment merges
    /// nothing.
    pub fn fold_encoded(&mut self, key: SketchKey, bytes: &[u8], epoch: u64) -> Result<()> {
        let partial = self.decode_shipped(bytes)?;
        self.fold_owned(key, partial, epoch);
        Ok(())
    }

    /// Decodes one shipped partial, verifying its CRC, without folding
    /// it: a receiver decodes a whole shipment before it accepts any of
    /// it, and a fog-2 receiver folds a copy and relays the original.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptPartial`], counted in
    /// [`SketchLedger::crc_failures`]: the shipment is refused.
    pub fn decode_shipped(&mut self, bytes: &[u8]) -> Result<AggPartial> {
        AggPartial::decode(bytes).inspect_err(|_| self.crc_failures += 1)
    }

    /// Advances `section`'s seal frontier to at least `through_s`:
    /// every record of the section created before it that the owner has
    /// shipped/received is folded in.
    pub fn seal(&mut self, section: u16, through_s: u64) {
        let slot = self.sealed.entry(section).or_insert(0);
        *slot = (*slot).max(through_s);
    }

    /// The seal frontier of `section` (0 when never sealed).
    pub fn sealed_through(&self, section: u16) -> u64 {
        self.sealed.get(&section).copied().unwrap_or(0)
    }

    /// Whether the ledger *provably* covers `[from_s, until_s)` for
    /// `section`: the window is bucket-aligned, nothing in it was
    /// compacted away, and the seal frontier reaches the window end. A
    /// shipment lands whole or not at all, so a seal never passes a
    /// partial that was refused. (The owner's pending frontier is the
    /// caller's check — the ledger cannot see unflushed arrivals.)
    pub fn covers(&self, section: u16, from_s: u64, until_s: u64) -> bool {
        from_s.is_multiple_of(self.bucket_s)
            && until_s.is_multiple_of(self.bucket_s)
            && from_s >= self.evicted_before_s
            && until_s <= self.sealed_through(section)
    }

    /// The bucket partial at `key`, with the epoch that last folded it.
    pub fn entry(&self, key: &SketchKey) -> Option<(&AggPartial, u64)> {
        self.entries.get(key).map(|e| (&e.partial, e.epoch))
    }

    /// Merges every resident bucket of `(section, ty)` inside the
    /// **bucket-aligned** `[from_s, until_s)` into `acc` — a partial
    /// about to be stored, or a request's accumulator; returns how
    /// many partials were merged. Absent buckets are provably empty when
    /// [`SketchLedger::covers`] holds — callers must check it first
    /// (bucket partials cannot be sliced, so an unaligned window would
    /// over-include; debug builds assert the alignment).
    pub fn merge_range<A: AggState>(
        &self,
        section: u16,
        ty: SensorType,
        from_s: u64,
        until_s: u64,
        acc: &mut A,
    ) -> u64 {
        debug_assert!(
            from_s.is_multiple_of(self.bucket_s) && until_s.is_multiple_of(self.bucket_s),
            "merge_range needs a bucket-aligned window, got [{from_s}, {until_s})"
        );
        let mut merged = 0;
        let mut bucket = self.bucket_start(from_s);
        while bucket < until_s {
            let key = SketchKey {
                section,
                ty,
                bucket_start_s: bucket,
            };
            if let Some(entry) = self.entries.get(&key) {
                acc.merge(&entry.partial);
                merged += 1;
            }
            bucket += self.bucket_s;
        }
        merged
    }

    /// Compaction: drops every bucket that ends at or before
    /// `deadline_s` and advances the eviction watermark to the last
    /// complete bucket boundary, so [`SketchLedger::covers`] stays
    /// honest. Returns the number of dropped partials.
    pub fn evict_older_than(&mut self, deadline_s: u64) -> usize {
        let boundary = self.bucket_start(deadline_s);
        if boundary == 0 {
            return 0;
        }
        self.evicted_before_s = self.evicted_before_s.max(boundary);
        let before = self.entries.len();
        self.entries
            .retain(|k, _| k.bucket_start_s + self.bucket_s > boundary);
        before - self.entries.len()
    }

    /// The compaction watermark: every bucket starting at or after this
    /// instant is still resident.
    pub fn evicted_before_s(&self) -> u64 {
        self.evicted_before_s
    }

    /// Iterates the resident keys (arbitrary order).
    pub fn keys(&self) -> impl Iterator<Item = &SketchKey> {
        self.entries.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(section: u16, bucket: u64) -> SketchKey {
        SketchKey {
            section,
            ty: SensorType::Traffic,
            bucket_start_s: bucket,
        }
    }

    fn partial(values: &[(f64, u64)]) -> AggPartial {
        let mut p = AggPartial::empty();
        for &(v, k) in values {
            p.absorb(v, k);
        }
        p
    }

    #[test]
    fn zero_bucket_width_is_refused() {
        assert!(matches!(SketchLedger::new(0), Err(Error::EmptyWindow)));
    }

    #[test]
    fn folds_merge_and_stamp_the_latest_epoch() {
        let mut ledger = SketchLedger::new(900).unwrap();
        ledger.fold(key(3, 900), &partial(&[(1.0, 1)]), 1);
        ledger.fold(key(3, 900), &partial(&[(5.0, 2)]), 4);
        let (p, epoch) = ledger.entry(&key(3, 900)).unwrap();
        assert_eq!(p.count(), 2);
        assert_eq!(p.minmax().extremes(), Some((1.0, 5.0)));
        assert_eq!(epoch, 4);
        assert_eq!(ledger.folds(), 2);
    }

    /// A partial absorbed from empty, as a fog-1 flush builds one, from
    /// sensor-style magnitudes (hundredths, counters, zero, negatives).
    fn absorbed(obs: &[(i64, u64)]) -> AggPartial {
        let mut p = AggPartial::empty();
        for &(hundredths, key) in obs {
            p.absorb(hundredths as f64 / 100.0, key);
        }
        p
    }

    proptest::proptest! {
        #[test]
        fn a_moved_partial_is_one_merged_into_an_empty_one(
            obs in proptest::collection::vec((-300i64..300, 0u64..2_000), 0..600),
        ) {
            // The relay's vacant entry once merged the partial into
            // `AggPartial::empty()`; it now takes the partial itself.
            let p = absorbed(&obs);
            let wire = AggPartial::decode(&p.encode()).unwrap();
            let mut merged = AggPartial::empty();
            merged.merge(&wire);
            proptest::prop_assert_eq!(merged.encode(), wire.encode());
        }

        #[test]
        fn folding_owned_partials_stores_what_folding_copies_did(
            folds in proptest::collection::vec(
                (0u16..3, 0u64..3, proptest::collection::vec((-300i64..300, 0u64..50), 0..40)),
                0..20,
            ),
        ) {
            // The fold as it was: a lookup, then a merge or a cloned
            // insert.
            let mut model: HashMap<SketchKey, AggPartial> = HashMap::new();
            let mut ledger = SketchLedger::new(900).unwrap();
            for (section, bucket, obs) in &folds {
                let k = key(*section, 900 * bucket);
                let p = absorbed(obs);
                match model.get_mut(&k) {
                    Some(entry) => entry.merge(&p),
                    None => {
                        model.insert(k, p.clone());
                    }
                }
                ledger.fold_owned(k, p, 1);
            }
            proptest::prop_assert_eq!(ledger.len(), model.len());
            for (k, p) in &model {
                let (stored, _) = ledger.entry(k).unwrap();
                proptest::prop_assert_eq!(stored.encode(), p.encode());
            }
        }
    }

    #[test]
    fn encoded_folds_verify_their_crc() {
        let mut ledger = SketchLedger::new(900).unwrap();
        let wire = partial(&[(2.0, 9)]).encode();
        ledger.fold_encoded(key(0, 0), &wire, 1).unwrap();
        let mut bad = wire.clone();
        bad[8] ^= 1;
        assert!(ledger.fold_encoded(key(0, 900), &bad, 1).is_err());
        assert!(matches!(
            ledger.decode_shipped(&bad),
            Err(Error::CorruptPartial { .. })
        ));
        assert_eq!(ledger.crc_failures(), 2, "every refusal is counted");
        assert_eq!(ledger.len(), 1, "the corrupt shipment was not merged");
    }

    #[test]
    fn coverage_requires_alignment_seal_and_residency() {
        let mut ledger = SketchLedger::new(900).unwrap();
        ledger.seal(7, 2_700);
        assert!(ledger.covers(7, 0, 2_700));
        assert!(ledger.covers(7, 900, 1_800));
        assert!(!ledger.covers(7, 0, 3_600), "past the seal frontier");
        assert!(!ledger.covers(7, 0, 1_000), "unaligned end");
        assert!(!ledger.covers(7, 10, 910), "unaligned start");
        assert!(!ledger.covers(8, 0, 900), "other sections are unsealed");
    }

    #[test]
    fn merge_range_folds_only_the_window() {
        let mut ledger = SketchLedger::new(900).unwrap();
        for bucket in [0u64, 900, 1_800, 2_700] {
            ledger.fold(
                key(1, bucket),
                &partial(&[(bucket as f64, bucket / 900)]),
                1,
            );
        }
        let mut acc = AggPartial::empty();
        let merged = ledger.merge_range(1, SensorType::Traffic, 900, 2_700, &mut acc);
        assert_eq!(merged, 2);
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.minmax().extremes(), Some((900.0, 1_800.0)));
        // Other types and sections stay out.
        let mut other = AggPartial::empty();
        assert_eq!(
            ledger.merge_range(1, SensorType::Weather, 0, 3_600, &mut other),
            0
        );
    }

    #[test]
    fn compaction_drops_old_buckets_and_moves_the_watermark() {
        let mut ledger = SketchLedger::new(900).unwrap();
        for bucket in [0u64, 900, 1_800] {
            ledger.fold(key(2, bucket), &partial(&[(1.0, 1)]), 1);
        }
        ledger.seal(2, 2_700);
        let dropped = ledger.evict_older_than(1_000);
        assert_eq!(dropped, 1, "only the bucket fully before 900 goes");
        assert_eq!(ledger.evicted_before_s(), 900);
        assert!(!ledger.covers(2, 0, 900), "evicted windows stop proving");
        assert!(ledger.covers(2, 900, 2_700), "surviving windows still do");
        // The watermark never moves backwards.
        ledger.evict_older_than(500);
        assert_eq!(ledger.evicted_before_s(), 900);
    }

    #[test]
    fn seals_are_monotone() {
        let mut ledger = SketchLedger::new(60).unwrap();
        ledger.seal(0, 600);
        ledger.seal(0, 120);
        assert_eq!(ledger.sealed_through(0), 600);
        assert_eq!(ledger.sealed_through(1), 0);
    }
}
