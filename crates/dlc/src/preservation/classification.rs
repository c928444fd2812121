//! Data classification: "classifying and ordering data before storing, and
//! eventually implementing the appropriate techniques for data versioning,
//! data lineage or data provenance" (§IV.B).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use scc_sensors::wire::{self, Sink};
use scc_sensors::{Category, IdMap, SensorId, SensorType};

use crate::phase::{Phase, PhaseContext};
use crate::record::DataRecord;

/// Version and provenance chain for one sensor's record stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lineage {
    /// Number of records classified for this sensor so far.
    pub version: u64,
    /// Hash chained over every classified record (provenance digest).
    pub digest: u64,
}

/// Orders batches canonically (creation time, category, type, sensor) and
/// maintains a per-sensor version counter and provenance hash chain.
///
/// Time leads the order because the store this phase feeds is indexed by
/// time: [`crate::preservation::ArchiveStore::insert_runs`] stably sorts
/// whatever it is handed by creation time, so of any canonical order only
/// its time-major refinement survives into the archive. Producing that
/// refinement here means the batch is sorted once — the archive sees a
/// run already in order and merges it into its wave — and a sensor's
/// chain visits its records in creation order, ties in arrival order,
/// exactly as it would under a category-major sort.
#[derive(Debug, Clone, Default)]
pub struct ClassificationPhase {
    /// Keyed by the ids of the city's own sensors; never iterated.
    lineage: IdMap<SensorId, Lineage>,
}

/// FNV-1a as a wire-line sink.
struct Fnv(u64);

impl Sink for Fnv {
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl ClassificationPhase {
    /// Creates the phase.
    pub fn new() -> Self {
        Self::default()
    }

    fn chain(digest: u64, rec: &DataRecord) -> u64 {
        // FNV-1a over the record's wire form, seeded with the prior
        // digest; the line streams into the hash and is never built.
        let mut h = Fnv(digest ^ 0xcbf2_9ce4_8422_2325);
        wire::write_line(&mut h, rec.reading());
        h.0
    }
}

/// The canonical order: creation time, category, type, sensor.
fn classification_key(r: &DataRecord) -> (u64, Category, SensorType, SensorId) {
    (
        r.descriptor().created_s(),
        r.sensor_type().category(),
        r.sensor_type(),
        r.reading().sensor(),
    )
}

impl Phase for ClassificationPhase {
    fn name(&self) -> &'static str {
        "data-classification"
    }

    fn run(&mut self, mut batch: Vec<DataRecord>, _ctx: &PhaseContext) -> Vec<DataRecord> {
        // A shipment is already in this order or is the concatenation of
        // shipments that are (fog 2 relays its children's, each
        // classified by this key below it), so a stable sort that finds
        // and merges presorted runs is a few linear merges here. Any
        // stable sort by this one key gives the same order.
        batch.sort_by_key(classification_key);
        for rec in &batch {
            let entry = self
                .lineage
                .entry(rec.reading().sensor())
                .or_insert(Lineage {
                    version: 0,
                    digest: 0,
                });
            entry.version += 1;
            entry.digest = Self::chain(entry.digest, rec);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{Reading, Value};

    /// Current lineage for a sensor, if any record was classified.
    fn lineage_of(phase: &ClassificationPhase, sensor: SensorId) -> Option<Lineage> {
        phase.lineage.get(&sensor).copied()
    }

    fn rec(ty: SensorType, idx: u32, t: u64, v: u64) -> DataRecord {
        DataRecord::from_reading(Reading::new(SensorId::new(ty, idx), t, Value::Counter(v)))
    }

    #[test]
    fn batches_are_canonically_ordered() {
        let mut phase = ClassificationPhase::new();
        let batch = vec![
            rec(SensorType::Weather, 0, 50, 1),
            rec(SensorType::ElectricityMeter, 0, 99, 2),
            rec(SensorType::ParkingSpot, 1, 50, 3),
            rec(SensorType::ElectricityMeter, 0, 10, 4),
            rec(SensorType::ParkingSpot, 0, 50, 5),
            rec(SensorType::ElectricityMeter, 3, 50, 6),
        ];
        let out = phase.run(batch, &PhaseContext::at(0));
        let order: Vec<(u64, SensorType, u32)> = out
            .iter()
            .map(|r| {
                let id = r.reading().sensor();
                (r.descriptor().created_s(), id.sensor_type(), id.index())
            })
            .collect();
        // Time first; within one second Energy < Parking < Urban in
        // category order, then by sensor.
        assert_eq!(
            order,
            vec![
                (10, SensorType::ElectricityMeter, 0),
                (50, SensorType::ElectricityMeter, 3),
                (50, SensorType::ParkingSpot, 0),
                (50, SensorType::ParkingSpot, 1),
                (50, SensorType::Weather, 0),
                (99, SensorType::ElectricityMeter, 0),
            ]
        );
    }

    /// The phase as it was: a category-major stable sort (which the
    /// archive then stably re-sorted by time), and a chain over the built
    /// wire line. The reference the single time-major sort is held to.
    #[derive(Default)]
    struct CategoryMajorPhase {
        lineage: std::collections::HashMap<SensorId, Lineage>,
    }

    impl CategoryMajorPhase {
        fn run(&mut self, mut batch: Vec<DataRecord>) -> Vec<DataRecord> {
            batch.sort_by_key(|r| {
                (
                    r.sensor_type().category(),
                    r.sensor_type(),
                    r.descriptor().created_s(),
                    r.reading().sensor(),
                )
            });
            for rec in &batch {
                let entry = self
                    .lineage
                    .entry(rec.reading().sensor())
                    .or_insert(Lineage {
                        version: 0,
                        digest: 0,
                    });
                entry.version += 1;
                let mut h = entry.digest ^ 0xcbf2_9ce4_8422_2325;
                for b in wire::encode(rec.reading()).bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01B3);
                }
                entry.digest = h;
            }
            batch
        }
    }

    proptest::proptest! {
        #[test]
        fn one_time_major_sort_archives_what_two_sorts_did(
            // Shipments of (type, sensor, second, value) from a dozen
            // seconds and a few sensors: heavy timestamp ties, several
            // districts' worth of one wave split across `run` calls, and
            // late arrivals older than what the archive already holds.
            shipments in proptest::collection::vec(
                proptest::collection::vec((0usize..21, 0u32..3, 0u64..12, 0u64..4), 0..40),
                1..8,
            ),
        ) {
            use crate::preservation::ArchiveStore;
            let mut phase = ClassificationPhase::new();
            let mut model = CategoryMajorPhase::default();
            let (mut archive, mut model_archive) = (ArchiveStore::new(), ArchiveStore::new());
            for shipment in &shipments {
                let batch: Vec<DataRecord> = shipment
                    .iter()
                    .map(|&(ty, idx, t, v)| rec(SensorType::ALL[ty], idx, 900 * t, v))
                    .collect();
                archive.insert_batch(phase.run(batch.clone(), &PhaseContext::at(0)));
                model_archive.insert_batch(model.run(batch));
                let run: Vec<&DataRecord> = archive.iter().collect();
                let model_run: Vec<&DataRecord> = model_archive.iter().collect();
                proptest::prop_assert_eq!(run, model_run);
                for t in (0..=12).map(|t| 900 * t) {
                    proptest::prop_assert_eq!(archive.rank(t), model_archive.rank(t));
                    for ty in SensorType::ALL {
                        proptest::prop_assert_eq!(
                            archive.latest_of_type(ty, 0, t),
                            model_archive.latest_of_type(ty, 0, t)
                        );
                    }
                }
            }
            for ty in SensorType::ALL {
                for idx in 0..3 {
                    let id = SensorId::new(ty, idx);
                    proptest::prop_assert_eq!(
                        lineage_of(&phase, id),
                        model.lineage.get(&id).copied()
                    );
                }
            }
        }
    }

    /// The phase as it was before it merged presorted runs: the same key,
    /// computed once per record by `sort_by_cached_key` (a key vector, a
    /// comparison sort and a permutation).
    #[derive(Default)]
    struct CachedKeyPhase {
        lineage: std::collections::HashMap<SensorId, Lineage>,
    }

    impl CachedKeyPhase {
        fn run(&mut self, mut batch: Vec<DataRecord>) -> Vec<DataRecord> {
            batch.sort_by_cached_key(classification_key);
            for rec in &batch {
                let entry = self
                    .lineage
                    .entry(rec.reading().sensor())
                    .or_insert(Lineage {
                        version: 0,
                        digest: 0,
                    });
                entry.version += 1;
                entry.digest = ClassificationPhase::chain(entry.digest, rec);
            }
            batch
        }
    }

    proptest::proptest! {
        #[test]
        fn merging_presorted_runs_classifies_what_the_cached_key_sort_did(
            // Shipments, each the concatenation of runs already in
            // classification order (a fog-2 shipment of its children's),
            // over a few seconds and sensors: heavy ties on the whole key
            // between records whose values differ, so stability shows.
            shipments in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((0usize..21, 0u32..3, 0u64..4, 0u64..4), 0..25),
                    0..8,
                ),
                1..5,
            ),
            unsorted_tail in proptest::collection::vec((0usize..21, 0u32..3, 0u64..4, 0u64..4), 0..6),
        ) {
            let mut phase = ClassificationPhase::new();
            let mut model = CachedKeyPhase::default();
            let record = |&(ty, idx, t, v): &(usize, u32, u64, u64)| {
                rec(SensorType::ALL[ty], idx, 900 * t, v)
            };
            for (i, runs) in shipments.iter().enumerate() {
                let mut shipment: Vec<DataRecord> = Vec::new();
                for run in runs {
                    let mut run: Vec<DataRecord> = run.iter().map(record).collect();
                    run.sort_by_cached_key(classification_key);
                    shipment.extend(run);
                }
                if i == 0 {
                    // One shipment that is not runs at all.
                    shipment.extend(unsorted_tail.iter().map(record));
                }
                let ours = phase.run(shipment.clone(), &PhaseContext::at(0));
                proptest::prop_assert_eq!(ours, model.run(shipment));
            }
            for ty in SensorType::ALL {
                for idx in 0..3 {
                    let id = SensorId::new(ty, idx);
                    proptest::prop_assert_eq!(
                        lineage_of(&phase, id),
                        model.lineage.get(&id).copied()
                    );
                }
            }
        }
    }

    #[test]
    fn versions_count_per_sensor() {
        let mut phase = ClassificationPhase::new();
        let id_a = SensorId::new(SensorType::Traffic, 1);
        phase.run(
            vec![
                rec(SensorType::Traffic, 1, 0, 1),
                rec(SensorType::Traffic, 1, 1, 2),
                rec(SensorType::Traffic, 2, 0, 3),
            ],
            &PhaseContext::at(0),
        );
        assert_eq!(lineage_of(&phase, id_a).unwrap().version, 2);
        assert_eq!(
            lineage_of(&phase, SensorId::new(SensorType::Traffic, 2))
                .unwrap()
                .version,
            1
        );
        assert_eq!(
            lineage_of(&phase, SensorId::new(SensorType::Traffic, 9)),
            None
        );
    }

    #[test]
    fn digest_depends_on_content_and_order() {
        let mut a = ClassificationPhase::new();
        let mut b = ClassificationPhase::new();
        // Same records, same order (classification sorts them identically).
        a.run(
            vec![
                rec(SensorType::Traffic, 1, 0, 1),
                rec(SensorType::Traffic, 1, 60, 2),
            ],
            &PhaseContext::at(0),
        );
        b.run(
            vec![rec(SensorType::Traffic, 1, 0, 1)],
            &PhaseContext::at(0),
        );
        b.run(
            vec![rec(SensorType::Traffic, 1, 60, 2)],
            &PhaseContext::at(60),
        );
        let id = SensorId::new(SensorType::Traffic, 1);
        // Chaining is incremental: batch split must not change the digest.
        assert_eq!(lineage_of(&a, id), lineage_of(&b, id));

        // Different content -> different digest.
        let mut c = ClassificationPhase::new();
        c.run(
            vec![
                rec(SensorType::Traffic, 1, 0, 9),
                rec(SensorType::Traffic, 1, 60, 2),
            ],
            &PhaseContext::at(0),
        );
        assert_ne!(
            lineage_of(&a, id).unwrap().digest,
            lineage_of(&c, id).unwrap().digest
        );
    }
}
