//! Data archive: "storing data for short and long terms consumption"
//! (§II). [`ArchiveStore`] is the storage tier used at every F2C layer —
//! temporary at fog 1 and fog 2, permanent at the cloud — with the
//! time-based eviction that implements the paper's "reversed memory
//! hierarchy" upward migration (§IV.B).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use scc_sensors::SensorType;

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

    /// Inserts a batch, in any order — the one-run case of
    /// [`ArchiveStore::insert_runs`]. Equal creation times keep
    /// stored-before-batch and the batch's own order.
    pub fn insert_batch(&mut self, batch: Vec<DataRecord>) {
        self.insert_runs([batch]);
    }

    /// Inserts one flush wave's shipments, each in any order, as if they
    /// were inserted one [`ArchiveStore::insert_batch`] after another:
    /// the run ends up ordered by creation time, and among equals stored
    /// records come first, then the shipments in the order given, each in
    /// its own order. Returns the oldest creation time inserted, `None`
    /// when every shipment was empty.
    ///
    /// A shipment out of order is first stably sorted on its own. The
    /// shipments are then merged by `(creation time, shipment index)`
    /// straight onto the end of the run — reserved once, every record
    /// moved once — and only if that merged run starts before the newest
    /// stored record is the overlapped tail stably sorted back. Stable
    /// sorts compose, so this is the run sequential batches would leave.
    pub fn insert_runs(&mut self, runs: impl IntoIterator<Item = Vec<DataRecord>>) -> Option<u64> {
        let mut runs = runs
            .into_iter()
            .filter(|run| !run.is_empty())
            .map(|mut run| {
                if !run.is_sorted_by_key(created_s) {
                    run.sort_by_key(created_s);
                }
                run.into_iter()
            });
        // The first shipment is held apart, so a lone one needs no list.
        let mut first = runs.next()?;
        let mut rest: Vec<std::vec::IntoIter<DataRecord>> = runs.collect();
        let total = first.len() + rest.iter().map(ExactSizeIterator::len).sum::<usize>();
        let held = self.records.len();
        let newest_held = self.times.last().copied();
        self.records.reserve(total);
        self.times.reserve(total);
        // Instant by instant: the oldest time at any head, then every
        // shipment's records at that time, in shipment order.
        let mut noted = None;
        while let Some(t) = std::iter::once(&first)
            .chain(&rest)
            .filter_map(|head| head.as_slice().first())
            .map(created_s)
            .min()
        {
            for head in std::iter::once(&mut first).chain(&mut rest) {
                let mut n = 0;
                for record in head.as_slice().iter().take_while(|r| created_s(r) == t) {
                    // Waves arrive type by type at one instant: skip the repeats.
                    let key = (record.sensor_type(), t);
                    if noted != Some(key) {
                        self.note_type_time(key.0, t);
                        noted = Some(key);
                    }
                    n += 1;
                }
                self.times.extend(std::iter::repeat_n(t, n));
                if n == head.len() {
                    // The rest of a run moves as one block, the common
                    // case of an ingest wave (one run, one instant).
                    self.records.extend(std::mem::take(head));
                } else {
                    self.records.extend(head.by_ref().take(n));
                }
            }
        }
        let oldest = self.times[held];
        if newest_held.is_some_and(|newest| newest > oldest) {
            let settled = self.times[..held].partition_point(|&t| t <= oldest);
            let tail = &mut self.records[settled..];
            tail.sort_by_key(created_s);
            for (slot, record) in self.times[settled..].iter_mut().zip(tail.iter()) {
                *slot = created_s(record);
            }
        }
        Some(oldest)
    }

    /// Records that `ty` reported at `created_s`.
    fn note_type_time(&mut self, ty: SensorType, created_s: u64) {
        let column = &mut self.type_times[ty.ordinal()];
        match column.last() {
            Some(&newest) if newest == created_s => {}
            Some(&newest) if newest > created_s => {
                if let Err(at) = column.binary_search(&created_s) {
                    column.insert(at, created_s);
                }
            }
            _ => column.push(created_s),
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
    /// `Error::InvertedRange` if `until_s < from_s`.
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

/// The run's sort key.
fn created_s(record: &DataRecord) -> u64 {
    record.descriptor().created_s()
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
        assert_eq!(s.insert_runs([newer]), Some(200));
        assert_eq!(order(&s), [(100, 0), (200, 1), (200, 2), (250, 3)]);
        assert_eq!(s.latest_of_type(SensorType::Weather, 0, 1_000), Some(250));
        assert_eq!(s.insert_runs([Vec::new(), Vec::new()]), None);
        assert_eq!(s.insert_runs(Vec::new()), None);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn a_wave_merges_by_time_then_shipment() {
        let mut s = ArchiveStore::new();
        s.insert(rec(SensorType::Traffic, 0, 100));
        // Three shipments at overlapping instants, one of them unsorted:
        // time first, then shipment order, then each shipment's own order.
        let oldest = s.insert_runs([
            vec![
                rec(SensorType::Traffic, 1, 100),
                rec(SensorType::Traffic, 2, 300),
            ],
            vec![
                rec(SensorType::Weather, 3, 300),
                rec(SensorType::Weather, 4, 200),
                rec(SensorType::Weather, 5, 100),
            ],
            Vec::new(),
            vec![rec(SensorType::Traffic, 6, 200)],
        ]);
        assert_eq!(oldest, Some(100));
        assert_eq!(
            order(&s),
            [
                (100, 0),
                (100, 1),
                (100, 5),
                (200, 4),
                (200, 6),
                (300, 2),
                (300, 3)
            ]
        );
        assert_eq!(s.latest_of_type(SensorType::Weather, 0, 300), Some(200));
        assert_eq!(s.latest_of_type(SensorType::Traffic, 101, 300), Some(200));
        assert_eq!(s.rank(200), 3);
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

    impl ArchiveStore {
        /// `insert_batch` as it was before a wave merged in one pass: the
        /// batch appended as it came, then — only if that broke the order
        /// — the overlapped tail stably sorted back. The reference
        /// `insert_runs` is held to, one shipment after another.
        fn insert_batch_by_tail_sort(&mut self, batch: Vec<DataRecord>) {
            let held = self.records.len();
            let mut newest = self.times.last().copied().unwrap_or(0);
            let (mut oldest, mut in_order) = (u64::MAX, true);
            for record in &batch {
                let created = created_s(record);
                in_order &= newest <= created;
                newest = created;
                oldest = oldest.min(created);
                self.note_type_time(record.sensor_type(), created);
                self.times.push(created);
            }
            self.records.extend(batch);
            if in_order {
                return;
            }
            let settled = self.times[..held].partition_point(|&t| t <= oldest);
            let tail = &mut self.records[settled..];
            tail.sort_by_key(created_s);
            for (slot, record) in self.times[settled..].iter_mut().zip(tail.iter()) {
                *slot = created_s(record);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn one_merge_per_wave_leaves_the_columns_sequential_batches_left(
            // Per wave, per shipment: (shape, instant, length, salt).
            waves in proptest::collection::vec(
                proptest::collection::vec((0u8..5, 0u64..40, 0usize..12, proptest::prelude::any::<u64>()), 0..6),
                1..6,
            ),
            // Past 400 nothing is evicted between waves.
            evict_at in 0u64..800,
        ) {
            let (mut merged, mut sequential) = (ArchiveStore::new(), ArchiveStore::new());
            let mut next = 0u32;
            for (w, wave) in waves.iter().enumerate() {
                let runs: Vec<Vec<DataRecord>> = wave
                    .iter()
                    .map(|&(shape, at, n, salt)| {
                        let base = 100 * w as u64 + at;
                        (0..n as u64)
                            .map(|i| {
                                let t = match shape {
                                    0 => base + i * (salt % 3),                  // sorted
                                    1 => (salt.rotate_left(i as u32 * 7) >> 3) % 500, // unsorted
                                    2 => base.saturating_sub(150 + i),           // older than the store
                                    _ => base,                                   // one instant
                                };
                                next += 1;
                                let ty = SensorType::ALL[((salt >> (i % 8)) % 3) as usize * 7];
                                rec(ty, next, t)
                            })
                            .collect()
                    })
                    .collect();
                let want = runs.iter().flatten().map(created_s).min();
                for run in runs.clone() {
                    sequential.insert_batch_by_tail_sort(run);
                }
                proptest::prop_assert_eq!(merged.insert_runs(runs), want);
                proptest::prop_assert!(merged.records == sequential.records);
                proptest::prop_assert_eq!(&merged.times, &sequential.times);
                proptest::prop_assert_eq!(&merged.type_times, &sequential.type_times);
                if evict_at < 400 && w % 2 == 1 {
                    merged.discard_older_than(evict_at);
                    sequential.discard_older_than(evict_at);
                }
            }
        }
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
    fn drain_empties_everything() {
        let mut s = ArchiveStore::new();
        s.insert(rec(SensorType::Weather, 0, 5));
        let all = s.drain();
        assert_eq!(all.len(), 1);
        assert!(s.is_empty());
        assert_eq!(s.wire_bytes(), 0);
        assert_eq!(s.earliest_s(), None);
    }
}
