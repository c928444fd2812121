//! Data archive: "storing data for short and long terms consumption"
//! (§II). [`ArchiveStore`] is the storage tier used at every F2C layer —
//! temporary at fog 1 and fog 2, permanent at the cloud — with the
//! time-based eviction that implements the paper's "reversed memory
//! hierarchy" upward migration (§IV.B).

use std::collections::BTreeMap;

use scc_sensors::Category;

use crate::phase::{Block, Phase, PhaseContext};
use crate::record::DataRecord;
use crate::{Error, Result};

/// A time-indexed record store.
///
/// Records are keyed by `(creation time, insertion sequence)`, so range
/// queries by data age are cheap and eviction pops the oldest data first.
///
/// # Examples
///
/// ```
/// use scc_dlc::preservation::ArchiveStore;
/// use scc_dlc::DataRecord;
/// use scc_sensors::{Reading, SensorId, SensorType, Value};
///
/// let mut store = ArchiveStore::new();
/// for t in 0..10u64 {
///     let r = Reading::new(SensorId::new(SensorType::Traffic, 0), t * 100, Value::Counter(t));
///     store.insert(DataRecord::from_reading(r));
/// }
/// assert_eq!(store.len(), 10);
/// assert_eq!(store.query_range(200, 500).unwrap().len(), 3); // t=200,300,400
/// let evicted = store.evict_older_than(500);
/// assert_eq!(evicted.len(), 5);
/// assert_eq!(store.len(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ArchiveStore {
    records: BTreeMap<(u64, u64), DataRecord>,
    seq: u64,
}

impl ArchiveStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts one record.
    pub fn insert(&mut self, record: DataRecord) {
        let key = (record.descriptor().created_s(), self.seq);
        self.seq += 1;
        self.records.insert(key, record);
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total wire-encoded size of the stored records, summed over the
    /// store on demand (nothing on the insert or eviction path reads it).
    pub fn wire_bytes(&self) -> u64 {
        self.records.values().map(DataRecord::wire_len).sum()
    }

    /// Creation time of the oldest stored record.
    pub fn earliest_s(&self) -> Option<u64> {
        self.records.keys().next().map(|(t, _)| *t)
    }

    /// Creation time of the newest stored record.
    pub fn latest_s(&self) -> Option<u64> {
        self.records.keys().next_back().map(|(t, _)| *t)
    }

    /// Records created in `[from_s, until_s)`.
    ///
    /// # Errors
    ///
    /// [`Error::InvertedRange`] if `until_s < from_s`.
    pub fn query_range(&self, from_s: u64, until_s: u64) -> Result<Vec<&DataRecord>> {
        if until_s < from_s {
            return Err(Error::InvertedRange { from_s, until_s });
        }
        Ok(self.range(from_s, until_s).collect())
    }

    /// Iterates records created in `[from_s, until_s)`, oldest first,
    /// without materializing them. An inverted range yields nothing.
    ///
    /// This is the scan primitive for the query layer: consumers filter
    /// and fold in place instead of cloning the archive slice.
    pub fn range(&self, from_s: u64, until_s: u64) -> impl DoubleEndedIterator<Item = &DataRecord> {
        let until_s = until_s.max(from_s);
        self.records
            .range((from_s, 0)..(until_s, 0))
            .map(|(_, r)| r)
    }

    /// All records of one category, oldest first.
    pub fn query_category(&self, category: Category) -> Vec<&DataRecord> {
        self.records
            .values()
            .filter(|r| r.sensor_type().category() == category)
            .collect()
    }

    /// Removes and returns every record created strictly before
    /// `deadline_s`, oldest first — the upward-migration primitive.
    pub fn evict_older_than(&mut self, deadline_s: u64) -> Vec<DataRecord> {
        let keep = self.records.split_off(&(deadline_s, 0));
        std::mem::replace(&mut self.records, keep)
            .into_values()
            .collect()
    }

    /// Removes everything, returning it oldest first.
    pub fn drain(&mut self) -> Vec<DataRecord> {
        std::mem::take(&mut self.records).into_values().collect()
    }

    /// Iterates stored records oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &DataRecord> {
        self.records.values()
    }
}

/// Pass-through phase that archives every record it sees.
#[derive(Debug, Clone, Default)]
pub struct ArchivePhase {
    store: ArchiveStore,
}

impl ArchivePhase {
    /// Creates the phase with an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying store.
    pub fn store(&self) -> &ArchiveStore {
        &self.store
    }

    /// Mutable store access (eviction, migration).
    pub fn store_mut(&mut self) -> &mut ArchiveStore {
        &mut self.store
    }
}

impl Phase for ArchivePhase {
    fn name(&self) -> &'static str {
        "data-archive"
    }

    fn block(&self) -> Block {
        Block::Preservation
    }

    fn run(&mut self, batch: Vec<DataRecord>, _ctx: &PhaseContext) -> Vec<DataRecord> {
        for rec in &batch {
            self.store.insert(rec.clone());
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{Reading, SensorId, SensorType, Value};

    fn rec(ty: SensorType, idx: u32, t: u64) -> DataRecord {
        DataRecord::from_reading(Reading::new(
            SensorId::new(ty, idx),
            t,
            Value::Counter(u64::from(idx)),
        ))
    }

    #[test]
    fn range_queries_are_half_open() {
        let mut s = ArchiveStore::new();
        for t in [100u64, 200, 300] {
            s.insert(rec(SensorType::Traffic, 0, t));
        }
        assert_eq!(s.query_range(100, 300).unwrap().len(), 2);
        assert_eq!(s.query_range(100, 301).unwrap().len(), 3);
        assert_eq!(s.query_range(0, 100).unwrap().len(), 0);
    }

    #[test]
    fn range_iterates_without_allocation_and_reverses() {
        let mut s = ArchiveStore::new();
        for t in [100u64, 200, 300] {
            s.insert(rec(SensorType::Traffic, 0, t));
        }
        let fwd: Vec<u64> = s
            .range(100, 301)
            .map(|r| r.descriptor().created_s())
            .collect();
        assert_eq!(fwd, [100, 200, 300]);
        let newest = s.range(0, 1_000).next_back().unwrap();
        assert_eq!(newest.descriptor().created_s(), 300);
        // Inverted ranges are empty rather than panicking.
        assert_eq!(s.range(300, 100).count(), 0);
    }

    #[test]
    fn inverted_range_rejected() {
        let s = ArchiveStore::new();
        assert!(matches!(
            s.query_range(10, 5),
            Err(Error::InvertedRange { .. })
        ));
    }

    #[test]
    fn duplicate_timestamps_are_all_kept() {
        let mut s = ArchiveStore::new();
        for i in 0..5 {
            s.insert(rec(SensorType::Traffic, i, 100));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.query_range(100, 101).unwrap().len(), 5);
    }

    #[test]
    fn eviction_is_oldest_first_and_updates_bytes() {
        let mut s = ArchiveStore::new();
        for t in [300u64, 100, 200] {
            s.insert(rec(SensorType::ParkingSpot, 0, t));
        }
        let before = s.wire_bytes();
        let evicted = s.evict_older_than(250);
        assert_eq!(evicted.len(), 2);
        assert_eq!(evicted[0].descriptor().created_s(), 100);
        assert_eq!(evicted[1].descriptor().created_s(), 200);
        assert_eq!(s.len(), 1);
        assert!(s.wire_bytes() < before);
        assert_eq!(s.earliest_s(), Some(300));
    }

    #[test]
    fn category_query_filters() {
        let mut s = ArchiveStore::new();
        s.insert(rec(SensorType::Traffic, 0, 1));
        s.insert(rec(SensorType::ElectricityMeter, 0, 2));
        s.insert(rec(SensorType::BicycleFlow, 0, 3));
        assert_eq!(s.query_category(Category::Urban).len(), 2);
        assert_eq!(s.query_category(Category::Energy).len(), 1);
        assert_eq!(s.query_category(Category::Noise).len(), 0);
    }

    #[test]
    fn drain_empties_everything() {
        let mut s = ArchiveStore::new();
        s.insert(rec(SensorType::Weather, 0, 5));
        let all = s.drain();
        assert_eq!(all.len(), 1);
        assert!(s.is_empty());
        assert_eq!(s.wire_bytes(), 0);
        assert_eq!(s.earliest_s(), None);
    }

    #[test]
    fn archive_phase_is_pass_through_with_side_effect() {
        let mut phase = ArchivePhase::new();
        let batch = vec![
            rec(SensorType::Weather, 0, 1),
            rec(SensorType::Weather, 1, 2),
        ];
        let out = phase.run(batch.clone(), &PhaseContext::at(10));
        assert_eq!(out, batch);
        assert_eq!(phase.store().len(), 2);
    }
}
