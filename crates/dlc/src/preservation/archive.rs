//! Data archive: "storing data for short and long terms consumption"
//! (§II). [`ArchiveStore`] is the storage tier used at every F2C layer —
//! temporary at fog 1 and fog 2, permanent at the cloud — with the
//! time-based eviction that implements the paper's "reversed memory
//! hierarchy" upward migration (§IV.B).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use scc_sensors::{Category, SensorType};

use crate::phase::{Block, Phase, PhaseContext};
use crate::record::DataRecord;
use crate::{Error, Result};

/// A time-indexed record store.
///
/// The records sit in one run sorted by creation time, arrival order
/// among equals, beside a dense column of those creation times: a range,
/// a count or an eviction is two binary searches over packed `u64`s and a
/// slice of the run. Per sensor type the store also keeps the sorted
/// distinct creation times at which that type reported, so "when did type
/// X last report in this window" is a binary search, not a walk.
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
/// assert_eq!(store.latest_of_type(SensorType::Traffic, 0, 500), Some(400));
/// let evicted = store.evict_older_than(500);
/// assert_eq!(evicted.len(), 5);
/// assert_eq!(store.len(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ArchiveStore {
    /// The run: ordered by creation time, arrival order among equals.
    records: Vec<DataRecord>,
    /// `times[i]` is the creation time of `records[i]`.
    times: Vec<u64>,
    /// Indexed by [`SensorType::ordinal`]: the ascending distinct creation
    /// times of the stored records of that type.
    type_times: [Vec<u64>; SensorType::ALL.len()],
}

impl ArchiveStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts one record. One older than the newest stored record is
    /// placed after its equals by shifting the newer tail; late arrivals
    /// in bulk belong in [`ArchiveStore::insert_batch`].
    pub fn insert(&mut self, record: DataRecord) {
        let created = record.descriptor().created_s();
        self.note_type_time(record.sensor_type(), created);
        if self.times.last().is_none_or(|&newest| newest <= created) {
            self.times.push(created);
            self.records.push(record);
        } else {
            let at = self.times.partition_point(|&t| t <= created);
            self.times.insert(at, created);
            self.records.insert(at, record);
        }
    }

    /// Inserts a batch, in any order: the batch is appended to the run,
    /// and only if that broke the order is the overlapped tail — the
    /// stored records newer than the batch's oldest, plus the batch —
    /// stably sorted back. A batch no older than the store is a plain
    /// append; equal creation times keep stored-before-batch and the
    /// batch's own order.
    pub fn insert_batch(&mut self, batch: Vec<DataRecord>) {
        let held = self.records.len();
        let Some(oldest) = self.append(batch) else {
            return;
        };
        let settled = self.times[..held].partition_point(|&t| t <= oldest);
        let tail = &mut self.records[settled..];
        tail.sort_by_key(|r| r.descriptor().created_s());
        for (slot, record) in self.times[settled..].iter_mut().zip(tail.iter()) {
            *slot = record.descriptor().created_s();
        }
    }

    /// Appends `batch` to the run and the columns as it comes. Returns the
    /// batch's oldest creation time if that left the run out of order,
    /// `None` if the run is still sorted.
    fn append(&mut self, batch: Vec<DataRecord>) -> Option<u64> {
        let mut newest = self.times.last().copied().unwrap_or(0);
        let mut oldest = u64::MAX;
        let mut in_order = true;
        let mut noted = None;
        for record in &batch {
            let created = record.descriptor().created_s();
            in_order &= newest <= created;
            newest = created;
            oldest = oldest.min(created);
            // Waves arrive type by type at one instant: skip the repeats.
            let key = (record.sensor_type(), created);
            if noted != Some(key) {
                self.note_type_time(key.0, created);
                noted = Some(key);
            }
            self.times.push(created);
        }
        self.records.extend(batch);
        (!in_order).then_some(oldest)
    }

    /// Records that `ty` reported at `created_s`.
    fn note_type_time(&mut self, ty: SensorType, created_s: u64) {
        let column = &mut self.type_times[ty.ordinal()];
        if column.last().is_none_or(|&newest| newest < created_s) {
            column.push(created_s);
        } else if let Err(at) = column.binary_search(&created_s) {
            column.insert(at, created_s);
        }
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
        self.records.iter().map(DataRecord::wire_len).sum()
    }

    /// Creation time of the oldest stored record.
    pub fn earliest_s(&self) -> Option<u64> {
        self.times.first().copied()
    }

    /// Creation time of the newest stored record.
    pub fn latest_s(&self) -> Option<u64> {
        self.times.last().copied()
    }

    /// How many stored records were created strictly before `t_s` — the
    /// position in the run where creation time `t_s` starts. The count of
    /// a window `[a, b)` is `rank(b) - rank(a)`.
    pub fn rank(&self, t_s: u64) -> usize {
        self.times.partition_point(|&t| t < t_s)
    }

    /// The latest creation time in `[from_s, until_s)` at which a record
    /// of type `ty` is stored.
    pub fn latest_of_type(&self, ty: SensorType, from_s: u64, until_s: u64) -> Option<u64> {
        let column = &self.type_times[ty.ordinal()];
        let before = column.partition_point(|&t| t < until_s);
        let latest = *column.get(before.checked_sub(1)?)?;
        (latest >= from_s).then_some(latest)
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
        let from = self.rank(from_s);
        let until = self.rank(until_s).max(from);
        self.records[from..until].iter()
    }

    /// All records of one category, oldest first.
    pub fn query_category(&self, category: Category) -> Vec<&DataRecord> {
        self.records
            .iter()
            .filter(|r| r.sensor_type().category() == category)
            .collect()
    }

    /// Removes and returns every record created strictly before
    /// `deadline_s`, oldest first — the upward-migration primitive.
    pub fn evict_older_than(&mut self, deadline_s: u64) -> Vec<DataRecord> {
        self.evict_front(deadline_s).collect()
    }

    /// Drops every record created strictly before `deadline_s` without
    /// materializing them; returns how many went.
    pub fn discard_older_than(&mut self, deadline_s: u64) -> usize {
        self.evict_front(deadline_s).len()
    }

    /// The front of the run created strictly before `deadline_s`, as a
    /// drain; the time and type columns are trimmed to match up front.
    fn evict_front(&mut self, deadline_s: u64) -> std::vec::Drain<'_, DataRecord> {
        let expired = self.rank(deadline_s);
        if expired > 0 {
            self.times.drain(..expired);
            for column in &mut self.type_times {
                let gone = column.partition_point(|&t| t < deadline_s);
                column.drain(..gone);
            }
        }
        self.records.drain(..expired)
    }

    /// Removes everything, returning it oldest first.
    pub fn drain(&mut self) -> Vec<DataRecord> {
        std::mem::take(self).records
    }

    /// Iterates stored records oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &DataRecord> {
        self.records.iter()
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
        self.store.insert_batch(batch.clone());
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

    fn order(s: &ArchiveStore) -> Vec<(u64, u32)> {
        s.iter()
            .map(|r| (r.descriptor().created_s(), r.reading().sensor().index()))
            .collect()
    }

    #[test]
    fn late_single_insert_lands_after_its_equals() {
        let mut s = ArchiveStore::new();
        for (i, t) in [100u64, 200, 200, 300].into_iter().enumerate() {
            s.insert(rec(SensorType::Traffic, i as u32, t));
        }
        s.insert(rec(SensorType::Traffic, 9, 200));
        assert_eq!(
            order(&s),
            [(100, 0), (200, 1), (200, 2), (200, 9), (300, 3)]
        );
        assert_eq!(s.rank(200), 1);
        assert_eq!(s.rank(201), 4);
    }

    #[test]
    fn batch_newer_than_the_store_is_a_plain_append() {
        let mut s = ArchiveStore::new();
        s.insert_batch(vec![
            rec(SensorType::Traffic, 0, 100),
            rec(SensorType::Traffic, 1, 200),
        ]);
        // Equal to the newest stored second still counts as in order.
        let newer = vec![
            rec(SensorType::Weather, 2, 200),
            rec(SensorType::Weather, 3, 250),
        ];
        assert_eq!(s.append(newer), None, "nothing to sort back");
        assert_eq!(order(&s), [(100, 0), (200, 1), (200, 2), (250, 3)]);
        assert_eq!(s.latest_of_type(SensorType::Weather, 0, 1_000), Some(250));
        assert_eq!(s.append(Vec::new()), None);
    }

    #[test]
    fn batch_older_than_the_tail_lands_in_order() {
        let mut s = ArchiveStore::new();
        for (i, t) in [100u64, 200, 300, 400].into_iter().enumerate() {
            s.insert(rec(SensorType::Traffic, i as u32, t));
        }
        // Unsorted, wholly older than the stored tail (300, 400), one tie
        // with a stored second: stored-before-batch, batch order kept.
        s.insert_batch(vec![
            rec(SensorType::Weather, 7, 250),
            rec(SensorType::Weather, 8, 200),
            rec(SensorType::Weather, 9, 250),
        ]);
        assert_eq!(
            order(&s),
            [
                (100, 0),
                (200, 1),
                (200, 8),
                (250, 7),
                (250, 9),
                (300, 2),
                (400, 3)
            ]
        );
        let times: Vec<u64> = s
            .range(0, u64::MAX)
            .map(|r| r.descriptor().created_s())
            .collect();
        assert_eq!(
            times,
            [100, 200, 200, 250, 250, 300, 400],
            "time column re-synced"
        );
        assert_eq!(s.latest_of_type(SensorType::Weather, 0, 250), Some(200));
        assert_eq!(s.latest_of_type(SensorType::Weather, 201, 250), None);
        assert_eq!(
            s.latest_of_type(SensorType::Traffic, 0, u64::MAX),
            Some(400)
        );
    }

    #[test]
    fn discarding_counts_what_eviction_would_return() {
        let mut a = ArchiveStore::new();
        for t in [300u64, 100, 200, 200] {
            a.insert(rec(SensorType::ParkingSpot, 0, t));
        }
        let mut b = a.clone();
        assert_eq!(a.discard_older_than(250), b.evict_older_than(250).len());
        assert_eq!(order(&a), order(&b));
        assert_eq!(a.latest_of_type(SensorType::ParkingSpot, 0, 300), None);
        assert_eq!(a.discard_older_than(250), 0);
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
