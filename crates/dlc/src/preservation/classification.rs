//! Data classification: "classifying and ordering data before storing, and
//! eventually implementing the appropriate techniques for data versioning,
//! data lineage or data provenance" (§IV.B).

use scc_sensors::{Category, SensorId, SensorType};

use crate::record::DataRecord;

/// Orders a shipment canonically: creation time, category, type, sensor,
/// ties in arrival order.
///
/// Time leads the order because the store this feeds is indexed by
/// time: [`crate::preservation::ArchiveStore::insert_runs`] stably sorts
/// whatever it is handed by creation time, so of any canonical order only
/// its time-major refinement survives into the archive. Producing that
/// refinement here means the shipment is sorted once — the archive sees a
/// run already in order and merges it into its wave.
///
/// Only the cloud classifies: nothing below it sorts by this key. A fog-2
/// shipment is its children's shipments in the order they landed, each
/// in ingest order, so it is a concatenation of runs, each ordered by
/// creation time but not by category, type and sensor within an instant.
/// The stable sort really merges here; it is not a check of an order
/// already made. Any stable sort by this one key gives the same order.
pub fn classify(batch: &mut [DataRecord]) {
    batch.sort_by_key(classification_key);
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

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{Reading, Value};

    fn rec(ty: SensorType, idx: u32, t: u64, v: u64) -> DataRecord {
        DataRecord::from_reading(Reading::new(SensorId::new(ty, idx), t, Value::Counter(v)))
    }

    #[test]
    fn batches_are_canonically_ordered() {
        let mut batch = vec![
            rec(SensorType::Weather, 0, 50, 1),
            rec(SensorType::ElectricityMeter, 0, 99, 2),
            rec(SensorType::ParkingSpot, 1, 50, 3),
            rec(SensorType::ElectricityMeter, 0, 10, 4),
            rec(SensorType::ParkingSpot, 0, 50, 5),
            rec(SensorType::ElectricityMeter, 3, 50, 6),
        ];
        classify(&mut batch);
        let order: Vec<(u64, SensorType, u32)> = batch
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

    /// Classification as it once was: a category-major stable sort, which
    /// the archive then stably re-sorted by time. The reference the single
    /// time-major sort is held to.
    fn category_major(mut batch: Vec<DataRecord>) -> Vec<DataRecord> {
        batch.sort_by_key(|r| {
            (
                r.sensor_type().category(),
                r.sensor_type(),
                r.descriptor().created_s(),
                r.reading().sensor(),
            )
        });
        batch
    }

    proptest::proptest! {
        #[test]
        fn one_time_major_sort_archives_what_two_sorts_did(
            // Shipments of (type, sensor, second, value) from a dozen
            // seconds and a few sensors: heavy timestamp ties, several
            // districts' worth of one wave split across `classify` calls,
            // and late arrivals older than what the archive already holds.
            shipments in proptest::collection::vec(
                proptest::collection::vec((0usize..21, 0u32..3, 0u64..12, 0u64..4), 0..40),
                1..8,
            ),
        ) {
            use crate::preservation::ArchiveStore;
            let (mut archive, mut model_archive) = (ArchiveStore::new(), ArchiveStore::new());
            for shipment in &shipments {
                let mut batch: Vec<DataRecord> = shipment
                    .iter()
                    .map(|&(ty, idx, t, v)| rec(SensorType::ALL[ty], idx, 900 * t, v))
                    .collect();
                model_archive.insert_batch(category_major(batch.clone()));
                classify(&mut batch);
                archive.insert_batch(batch);
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
        }
    }

    // The reference: classification as it was before it merged presorted
    // runs, the same key computed once per record by `sort_by_cached_key`
    // (a key vector, a comparison sort and a permutation).
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
                let mut model = shipment.clone();
                model.sort_by_cached_key(classification_key);
                classify(&mut shipment);
                proptest::prop_assert_eq!(shipment, model);
            }
        }
    }
}
