//! The tiered store: one node's slice of the "reversed memory hierarchy"
//! (§IV.B) — data is born at the lowest tier and migrates *upward*, the
//! opposite of a CPU cache hierarchy. Each node stores recent data locally
//! (for real-time access), periodically ships everything received since the
//! previous flush to its parent, and evicts what has outlived its
//! retention.

use scc_dlc::preservation::ArchiveStore;
use scc_dlc::DataRecord;

use crate::policy::RetentionPolicy;

/// A node-local record store with a pending-ship queue and retention.
///
/// Shipping is by *arrival*, not by creation time: a record that reaches
/// the node late (e.g. deferred by an off-peak flush window downstream)
/// still ships on the next flush instead of being skipped.
///
/// # Examples
///
/// ```
/// use f2c_core::{TieredStore, RetentionPolicy};
/// use scc_dlc::DataRecord;
/// use scc_sensors::{Reading, SensorId, SensorType, Value};
///
/// let mut store = TieredStore::new(RetentionPolicy::keep(3600));
/// for t in 0..4u64 {
///     let r = Reading::new(SensorId::new(SensorType::Traffic, 0), t * 900, Value::Counter(t));
///     store.insert(DataRecord::from_reading(r));
/// }
/// let batch = store.take_flush_batch(3600);
/// assert_eq!(batch.len(), 4);           // everything received so far ships
/// assert!(store.take_flush_batch(3600).is_empty()); // nothing new
/// assert_eq!(store.len(), 4);           // local copies stay for real-time reads
/// ```
#[derive(Debug, Clone, Default)]
pub struct TieredStore {
    archive: ArchiveStore,
    pending: Vec<DataRecord>,
    retention: Option<RetentionPolicy>,
    /// Root stores (the cloud) have no parent; they skip the pending queue.
    is_root: bool,
    /// Oldest creation time among the pending records, if any.
    pending_earliest_s: Option<u64>,
    /// Highest eviction deadline ever applied: every record received with
    /// a creation time at or after this is still held locally.
    evicted_before_s: u64,
}

impl TieredStore {
    /// A store with `retention` that queues arrivals for upward shipping.
    pub fn new(retention: RetentionPolicy) -> Self {
        Self {
            retention: Some(retention),
            ..Self::default()
        }
    }

    /// A permanent root store (cloud tier): nothing is ever shipped or
    /// evicted.
    pub fn permanent() -> Self {
        Self {
            is_root: true,
            ..Self::default()
        }
    }

    /// Inserts one record.
    pub fn insert(&mut self, record: DataRecord) {
        if !self.is_root {
            self.note_pending(record.descriptor().created_s());
            self.pending.push(record.clone());
        }
        self.archive.insert(record);
    }

    /// Inserts a batch, in any creation-time order — the one-shipment
    /// case of `TieredStore::insert_runs`.
    pub fn insert_batch(&mut self, records: Vec<DataRecord>) {
        self.insert_runs([records]);
    }

    /// Inserts one flush wave's shipments, each in any creation-time
    /// order, as one merge into the archive's run
    /// ([`ArchiveStore::insert_runs`]). The shipments queue for the next
    /// hop as they arrived: in the order given, each in its own order.
    pub(crate) fn insert_runs(&mut self, runs: impl IntoIterator<Item = Vec<DataRecord>>) {
        let mut pending = (!self.is_root).then_some(&mut self.pending);
        let queued = runs.into_iter().inspect(|run| {
            if let Some(pending) = pending.as_mut() {
                pending.extend_from_slice(run);
            }
        });
        if let Some(oldest) = self.archive.insert_runs(queued) {
            if !self.is_root {
                self.note_pending(oldest);
            }
        }
    }

    fn note_pending(&mut self, created_s: u64) {
        self.pending_earliest_s = Some(
            self.pending_earliest_s
                .map_or(created_s, |e| e.min(created_s)),
        );
    }

    /// Number of locally stored records.
    pub fn len(&self) -> usize {
        self.archive.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.archive.is_empty()
    }

    /// Number of records awaiting the next flush.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The records awaiting the next flush, in arrival order: what a
    /// flush encodes in place before its parent answers.
    pub(crate) fn pending(&self) -> &[DataRecord] {
        &self.pending
    }

    /// Heap bytes at rest: the archive's, and the pending queue's at its
    /// capacity with its composite records' field vectors — a pending
    /// record is a second copy of an archived one.
    pub fn heap_bytes(&self) -> u64 {
        self.archive.heap_bytes()
            + scc_sensors::heap::vec_bytes(&self.pending)
            + self.pending.iter().map(DataRecord::heap_bytes).sum::<u64>()
    }

    /// Total wire size of the stored records.
    pub fn wire_bytes(&self) -> u64 {
        self.archive.wire_bytes()
    }

    /// Read access to the archive (queries).
    pub fn archive(&self) -> &ArchiveStore {
        &self.archive
    }

    /// Iterates locally held records created in `[from_s, until_s)`,
    /// oldest first, without cloning: the archive's chunk slices
    /// ([`ArchiveStore::range`]) flattened. The query executor walks the
    /// slices themselves.
    pub fn range(&self, from_s: u64, until_s: u64) -> impl DoubleEndedIterator<Item = &DataRecord> {
        self.archive.range(from_s, until_s).flatten()
    }

    /// The completeness watermark: the store still holds *every* record it
    /// ever received whose creation time is at or after this instant.
    /// Planners use it to decide whether a window can be answered here or
    /// has aged out upward.
    pub fn evicted_before_s(&self) -> u64 {
        self.evicted_before_s
    }

    /// Oldest creation time still awaiting the next flush, or `None` when
    /// the pending queue is empty. A parent tier is complete for windows
    /// ending at or before this frontier.
    pub fn pending_earliest_s(&self) -> Option<u64> {
        self.pending_earliest_s
    }

    /// Whether everything created before `until_s` has left the pending
    /// queue (i.e. has been flushed to the tier above — and, on the
    /// sketch plane, folded into the node's ledger). The planner's
    /// propagation proof and the warm-sketch staleness check both read
    /// this frontier.
    pub fn settled_through(&self, until_s: u64) -> bool {
        self.pending_earliest_s.is_none_or(|e| e >= until_s)
    }

    /// Takes everything received since the previous flush for upward
    /// shipping. Local copies remain until retention evicts them — that is
    /// what keeps real-time access fast while the data also climbs the
    /// hierarchy. `_now_s` documents the flush instant for callers; the
    /// batch itself is arrival-defined.
    pub fn take_flush_batch(&mut self, _now_s: u64) -> Vec<DataRecord> {
        self.pending_earliest_s = None;
        std::mem::take(&mut self.pending)
    }

    /// Evicts records past retention at `now_s`; returns the evicted count.
    pub fn evict_expired(&mut self, now_s: u64) -> usize {
        match self.retention.and_then(|r| r.eviction_deadline(now_s)) {
            Some(deadline) => {
                self.evicted_before_s = self.evicted_before_s.max(deadline);
                self.archive.discard_older_than(deadline)
            }
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{Reading, SensorId, SensorType, Value};

    fn rec(t: u64) -> DataRecord {
        DataRecord::from_reading(Reading::new(
            SensorId::new(SensorType::ParkingSpot, 0),
            t,
            Value::Flag(t.is_multiple_of(2)),
        ))
    }

    #[test]
    fn flush_batches_partition_the_stream() {
        let mut s = TieredStore::new(RetentionPolicy { keep_s: None });
        for t in 0..5 {
            s.insert(rec(t * 100));
        }
        let b1 = s.take_flush_batch(500);
        for t in 5..10 {
            s.insert(rec(t * 100));
        }
        let b2 = s.take_flush_batch(1000);
        assert_eq!(b1.len(), 5);
        assert_eq!(b2.len(), 5);
        // No record shipped twice, none lost.
        assert!(s.take_flush_batch(2000).is_empty());
    }

    #[test]
    fn retention_evicts_but_flushing_does_not() {
        let mut s = TieredStore::new(RetentionPolicy::keep(1000));
        for t in 0..10 {
            s.insert(rec(t * 500));
        }
        s.take_flush_batch(5000);
        assert_eq!(s.len(), 10, "flush keeps local copies");
        let evicted = s.evict_expired(5000);
        // Deadline 4000: evicts creation times 0..3500 (8 records).
        assert_eq!(evicted, 8);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn permanent_store_never_evicts_or_queues() {
        let mut s = TieredStore::permanent();
        for t in 0..5 {
            s.insert(rec(t));
        }
        assert_eq!(s.evict_expired(u64::MAX), 0);
        assert_eq!(s.len(), 5);
        assert_eq!(s.pending_len(), 0);
        assert!(s.take_flush_batch(100).is_empty());
    }

    #[test]
    fn late_data_still_ships() {
        // A record created long ago but arriving now ships on the next
        // flush — arrival-based queues cannot lose stragglers.
        let mut s = TieredStore::new(RetentionPolicy { keep_s: None });
        s.insert(rec(1000));
        s.take_flush_batch(2000);
        s.insert(rec(500)); // late arrival, created before the last flush
        let batch = s.take_flush_batch(3000);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].descriptor().created_s(), 500);
    }

    #[test]
    fn pending_len_tracks_queue() {
        let mut s = TieredStore::new(RetentionPolicy { keep_s: None });
        s.insert(rec(1));
        s.insert(rec(2));
        assert_eq!(s.pending_len(), 2);
        s.take_flush_batch(10);
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn watermark_and_pending_frontier_track_completeness() {
        let mut s = TieredStore::new(RetentionPolicy::keep(1000));
        assert_eq!(s.evicted_before_s(), 0);
        assert_eq!(s.pending_earliest_s(), None);
        s.insert(rec(700));
        s.insert(rec(300));
        assert_eq!(s.pending_earliest_s(), Some(300));
        s.take_flush_batch(800);
        assert_eq!(s.pending_earliest_s(), None);
        // Eviction advances the watermark even when nothing is removed yet.
        s.evict_expired(1200);
        assert_eq!(s.evicted_before_s(), 200);
        s.evict_expired(2000);
        assert_eq!(s.evicted_before_s(), 1000);
        // The watermark never moves backwards.
        s.evict_expired(1500);
        assert_eq!(s.evicted_before_s(), 1000);
    }

    #[test]
    fn range_reads_do_not_disturb_pending() {
        let mut s = TieredStore::new(RetentionPolicy { keep_s: None });
        for t in 0..5 {
            s.insert(rec(t * 100));
        }
        let seen: Vec<u64> = s
            .range(100, 400)
            .map(|r| r.descriptor().created_s())
            .collect();
        assert_eq!(seen, [100, 200, 300]);
        assert_eq!(s.pending_len(), 5, "reads must not consume the queue");
    }

    #[test]
    fn a_wave_queues_and_stores_what_batch_after_batch_did() {
        let rec = |idx: u32, t: u64| {
            DataRecord::from_reading(Reading::new(
                SensorId::new(SensorType::Traffic, idx),
                t,
                Value::Counter(u64::from(idx)),
            ))
        };
        let mut idx = 0;
        let mut run = |times: &[u64]| -> Vec<DataRecord> {
            times
                .iter()
                .map(|&t| {
                    idx += 1;
                    rec(idx, t)
                })
                .collect()
        };
        // Sorted, unsorted, older than the store, one-instant ties, empty.
        let waves = [
            vec![run(&[500, 600, 700]), run(&[650, 500, 900])],
            vec![
                run(&[900, 900, 900]),
                Vec::new(),
                run(&[100, 50]),
                run(&[900]),
            ],
            vec![Vec::new()],
            vec![run(&[1_000]), run(&[300, 1_000, 20])],
        ];
        for (root, mut merged, mut sequential) in [
            (
                false,
                TieredStore::new(RetentionPolicy::keep(10_000)),
                TieredStore::new(RetentionPolicy::keep(10_000)),
            ),
            (true, TieredStore::permanent(), TieredStore::permanent()),
        ] {
            for (w, wave) in waves.iter().enumerate() {
                for shipment in wave.clone() {
                    sequential.insert_batch(shipment);
                }
                merged.insert_runs(wave.clone());
                let order = |s: &TieredStore| -> Vec<u32> {
                    s.archive()
                        .iter()
                        .map(|r| r.reading().sensor().index())
                        .collect()
                };
                assert_eq!(order(&merged), order(&sequential), "wave {w}");
                assert_eq!(merged.pending_len(), sequential.pending_len());
                assert_eq!(merged.pending_earliest_s(), sequential.pending_earliest_s());
                if root {
                    assert_eq!(merged.pending_len(), 0);
                    assert_eq!(merged.pending_earliest_s(), None);
                }
                if w == 1 {
                    // The pending queue is arrival order, shipment by shipment.
                    let (a, b) = (merged.take_flush_batch(0), sequential.take_flush_batch(0));
                    assert_eq!(a, b);
                    if !root {
                        let shipped: Vec<u64> =
                            a.iter().map(|r| r.descriptor().created_s()).collect();
                        assert_eq!(
                            shipped,
                            [500, 600, 700, 650, 500, 900, 900, 900, 900, 100, 50, 900]
                        );
                    }
                }
            }
            assert_eq!(merged.take_flush_batch(0), sequential.take_flush_batch(0));
        }
    }

    #[test]
    fn wire_bytes_track_inserts() {
        let mut s = TieredStore::permanent();
        assert_eq!(s.wire_bytes(), 0);
        s.insert(rec(1));
        assert!(s.wire_bytes() > 0);
    }
}
