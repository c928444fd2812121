//! Property-based tests on DLC invariants: quality monotonicity, archive
//! query algebra, eviction accounting, classification order.

use proptest::prelude::*;
use scc_dlc::preservation::{classify, ArchiveStore};
use scc_dlc::quality::QualityPolicy;
use scc_dlc::DataRecord;
use scc_sensors::{Reading, SensorId, SensorType, Value};

fn record(idx: u32, t: u64, v: i64) -> DataRecord {
    DataRecord::from_reading(Reading::new(
        SensorId::new(SensorType::Temperature, idx),
        t,
        Value::Scalar(v),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quality_score_decreases_with_violations(
        v in -10_000i64..10_000,
        created in 0u64..100_000,
        collected in 0u64..100_000,
    ) {
        let policy = QualityPolicy::paper_default();
        let report = policy.assess(
            SensorType::Temperature,
            &Value::Scalar(v),
            created,
            collected,
        );
        let expected = 1.0 - 0.34 * report.violations().len() as f64;
        prop_assert!((report.score() - expected.max(0.0)).abs() < 1e-12);
        prop_assert_eq!(report.passed(), report.score() >= 0.5);
    }

    #[test]
    fn archive_range_queries_partition(
        times in proptest::collection::vec(0u64..10_000, 0..200),
        split in 0u64..10_000,
    ) {
        let mut store = ArchiveStore::new();
        for (i, &t) in times.iter().enumerate() {
            store.insert(record(i as u32, t, 0));
        }
        let below = store.query_range(0, split).unwrap().len();
        let above = store.query_range(split, u64::MAX).unwrap().len();
        prop_assert_eq!(below + above, times.len());
    }

    #[test]
    fn wire_bytes_is_the_sum_over_held_records_under_any_interleaving(
        ops in proptest::collection::vec((0u8..8, 0u64..10_000, any::<i64>()), 0..120),
    ) {
        // Mostly inserts, some evictions, the odd drain — against a plain
        // vector of what the store must still hold.
        let mut store = ArchiveStore::new();
        let mut held: Vec<DataRecord> = Vec::new();
        for (i, &(op, t, v)) in ops.iter().enumerate() {
            match op {
                0 => {
                    let gone = store.evict_older_than(t);
                    held.retain(|r| r.descriptor().created_s() >= t);
                    prop_assert!(gone.iter().all(|r| r.descriptor().created_s() < t));
                }
                1 if t % 7 == 0 => {
                    prop_assert_eq!(store.drain().len(), held.len());
                    held.clear();
                }
                _ => {
                    let rec = record(i as u32, t, v);
                    held.push(rec.clone());
                    store.insert(rec);
                }
            }
            prop_assert_eq!(store.len(), held.len());
            prop_assert_eq!(
                store.wire_bytes(),
                held.iter().map(DataRecord::wire_len).sum::<u64>()
            );
        }
    }

    #[test]
    fn eviction_plus_survivors_equals_total(
        times in proptest::collection::vec(0u64..10_000, 0..200),
        deadline in 0u64..12_000,
    ) {
        let mut store = ArchiveStore::new();
        for (i, &t) in times.iter().enumerate() {
            store.insert(record(i as u32, t, 0));
        }
        let total = store.len();
        let evicted = store.evict_older_than(deadline);
        prop_assert_eq!(evicted.len() + store.len(), total);
        for r in evicted {
            prop_assert!(r.descriptor().created_s() < deadline);
        }
        for r in store.iter() {
            prop_assert!(r.descriptor().created_s() >= deadline);
        }
    }

    #[test]
    fn classification_sort_is_stable_under_permutation(
        times in proptest::collection::vec(0u64..1_000, 1..50),
    ) {
        let batch: Vec<DataRecord> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| record(i as u32 % 3, t, i as i64))
            .collect();
        let mut reversed = batch.clone();
        reversed.reverse();
        let mut a = batch.clone();
        classify(&mut a);
        let mut b = reversed;
        classify(&mut b);
        // (1) Classification is a permutation: nothing lost or invented.
        let multiset = |recs: &[DataRecord]| {
            let mut keys: Vec<String> = recs
                .iter()
                .map(|r| scc_sensors::wire::encode(r.reading()))
                .collect();
            keys.sort();
            keys
        };
        prop_assert_eq!(multiset(&a), multiset(&batch));
        prop_assert_eq!(multiset(&a), multiset(&b));
        // (2) Both outputs are sorted by the canonical key (ties may keep
        // arbitrary relative order of identical keys).
        let key = |r: &DataRecord| {
            (
                r.descriptor().created_s(),
                r.sensor_type().category(),
                r.sensor_type(),
                r.reading().sensor(),
            )
        };
        for out in [&a, &b] {
            for w in out.windows(2) {
                prop_assert!(key(&w[0]) <= key(&w[1]));
            }
        }
    }
}
