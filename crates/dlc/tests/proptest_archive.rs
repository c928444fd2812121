//! Model equivalence for [`ArchiveStore`]: the time-sorted run with its
//! time and type columns must behave, call for call, like the ordered map
//! keyed `(creation time, arrival sequence)` it replaced — under any
//! interleaving of single inserts, batches of every shape, flush waves of
//! several shipments, evictions and drains. A wave goes into one store as
//! one [`ArchiveStore::insert_runs`] and into a second as one
//! [`ArchiveStore::insert_batch`] per shipment; both must read like the
//! map.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use scc_dlc::preservation::ArchiveStore;
use scc_dlc::DataRecord;
use scc_sensors::{Reading, SensorId, SensorType, Value};

/// The reference: records keyed by `(created, arrival sequence)`.
#[derive(Default)]
struct Model {
    records: BTreeMap<(u64, u64), DataRecord>,
    seq: u64,
}

impl Model {
    fn insert(&mut self, record: DataRecord) {
        let key = (record.descriptor().created_s(), self.seq);
        self.seq += 1;
        self.records.insert(key, record);
    }

    fn range(&self, from_s: u64, until_s: u64) -> Vec<&DataRecord> {
        let until_s = until_s.max(from_s);
        self.records
            .range((from_s, 0)..(until_s, 0))
            .map(|(_, r)| r)
            .collect()
    }

    fn evict_older_than(&mut self, deadline_s: u64) -> Vec<DataRecord> {
        let keep = self.records.split_off(&(deadline_s, 0));
        std::mem::replace(&mut self.records, keep)
            .into_values()
            .collect()
    }

    fn latest_of_type(&self, ty: SensorType, from_s: u64, until_s: u64) -> Option<u64> {
        self.records
            .values()
            .filter(|r| r.sensor_type() == ty)
            .map(|r| r.descriptor().created_s())
            .filter(|&t| from_s <= t && t < until_s)
            .max()
    }
}

/// Creation times cluster in a narrow band (so duplicates and overlaps
/// are the norm) with the odd one at the top of the `u64` range.
fn time_of(raw: u64) -> u64 {
    if raw.is_multiple_of(61) {
        u64::MAX - raw % 3
    } else {
        raw % 400
    }
}

/// One shipment of `n` records in one of four shapes, made by `record`
/// from a type pick and a creation time.
fn shipment(
    record: &mut impl FnMut(u64, u64) -> DataRecord,
    store: &ArchiveStore,
    (shape, t, n, raw, salt): (usize, u64, usize, u64, u64),
) -> Vec<DataRecord> {
    (0..n as u64)
        .map(|i| {
            let created = match shape {
                // Sorted, starting anywhere.
                0 => t.saturating_add(i * (salt % 3)),
                // Unsorted.
                1 => time_of(salt.rotate_left(i as u32 * 7) ^ raw),
                // Late: older than the newest held, or than everything held.
                2 => {
                    let anchor = if salt.is_multiple_of(2) {
                        store.latest_s()
                    } else {
                        store.earliest_s()
                    };
                    anchor.unwrap_or(t).saturating_sub(n as u64 - i)
                }
                // One instant.
                _ => t,
            };
            record(salt.wrapping_add(i / 2), created)
        })
        .collect()
}

fn check(store: &ArchiveStore, model: &Model, a: u64, b: u64) -> Result<(), TestCaseError> {
    let held: Vec<&DataRecord> = model.records.values().collect();
    prop_assert_eq!(store.iter().collect::<Vec<_>>(), held.clone());
    prop_assert_eq!(store.len(), held.len());
    prop_assert_eq!(store.is_empty(), held.is_empty());
    let created = |r: &&DataRecord| r.descriptor().created_s();
    prop_assert_eq!(store.earliest_s(), held.first().map(created));
    prop_assert_eq!(store.latest_s(), held.last().map(created));
    // The asked window, the same inverted, and both open to the top.
    for (from_s, until_s) in [(a, b), (b, a), (a, u64::MAX), (0, b), (u64::MAX, u64::MAX)] {
        let want = model.range(from_s, until_s);
        prop_assert_eq!(
            store.range(from_s, until_s).flatten().collect::<Vec<_>>(),
            want.clone()
        );
        let mut backwards = want.clone();
        backwards.reverse();
        prop_assert_eq!(
            store
                .range(from_s, until_s)
                .flatten()
                .rev()
                .collect::<Vec<_>>(),
            backwards
        );
        prop_assert_eq!(
            store.rank(until_s.max(from_s)) - store.rank(from_s),
            want.len()
        );
        for ty in SensorType::ALL {
            prop_assert_eq!(
                store.latest_of_type(ty, from_s, until_s),
                model.latest_of_type(ty, from_s, until_s),
                "{:?} in [{}, {})",
                ty,
                from_s,
                until_s
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_run_behaves_like_the_ordered_map_it_replaced(
        ops in proptest::collection::vec(
            (0u8..15, any::<u64>(), 0usize..10, 0usize..4, any::<u64>()),
            0..60,
        ),
    ) {
        let mut store = ArchiveStore::new();
        let mut sequential = ArchiveStore::new();
        let mut model = Model::default();
        let mut next_sensor = 0u32;
        let mut record = |ty_pick: u64, created: u64| {
            // Few types, so the type columns see real traffic; a fresh
            // sensor index per record, so arrival order is observable.
            let ty = SensorType::ALL[(ty_pick % 4) as usize * 5];
            next_sensor += 1;
            DataRecord::from_reading(Reading::new(
                SensorId::new(ty, next_sensor),
                created,
                Value::Counter(u64::from(next_sensor)),
            ))
        };
        for &(op, raw, n, shape, salt) in &ops {
            let t = time_of(raw);
            match op {
                0..=3 => {
                    let rec = record(salt, t);
                    model.insert(rec.clone());
                    sequential.insert(rec.clone());
                    store.insert(rec);
                }
                4..=8 => {
                    let batch = shipment(&mut record, &store, (shape, t, n, raw, salt));
                    for rec in &batch {
                        model.insert(rec.clone());
                    }
                    sequential.insert_batch(batch.clone());
                    store.insert_batch(batch);
                }
                12..=14 => {
                    // A wave: up to four shipments, each its own shape —
                    // the fifth shape is an empty shipment.
                    let runs: Vec<Vec<DataRecord>> = (0..=salt % 4)
                        .map(|j| {
                            let shape = (shape + j as usize) % 5;
                            let n = if shape == 4 { 0 } else { (n + j as usize) % 10 };
                            shipment(&mut record, &store, (shape, t.saturating_add(j), n, raw ^ j, salt ^ j))
                        })
                        .collect();
                    for rec in runs.iter().flatten() {
                        model.insert(rec.clone());
                    }
                    let oldest = runs.iter().flatten().map(|r| r.descriptor().created_s()).min();
                    for run in runs.clone() {
                        sequential.insert_batch(run);
                    }
                    prop_assert_eq!(store.insert_runs(runs), oldest);
                }
                9 => {
                    let evicted = model.evict_older_than(t);
                    prop_assert_eq!(sequential.evict_older_than(t), evicted.clone());
                    prop_assert_eq!(store.evict_older_than(t), evicted);
                }
                10 => {
                    sequential.discard_older_than(t);
                    prop_assert_eq!(
                        store.discard_older_than(t),
                        model.evict_older_than(t).len()
                    );
                }
                _ if salt.is_multiple_of(3) => {
                    let all = std::mem::take(&mut model.records);
                    sequential.drain();
                    prop_assert_eq!(store.drain(), all.into_values().collect::<Vec<_>>());
                }
                _ => {}
            }
            check(&sequential, &model, t, time_of(salt))?;
            check(&store, &model, t, time_of(salt))?;
        }
    }
}
