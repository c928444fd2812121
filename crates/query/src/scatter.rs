//! Merging scatter-gather partials at the gather fog-2 node.
//!
//! Every fan-out leg answers its shard independently; this module folds
//! the per-leg partial results into the final answer:
//!
//! * **aggregates** — [`AggPartial`] merge, exact for count / extremes /
//!   distinct sketches and within rounding for sums (the §V.A
//!   decomposability across *nodes* rather than across time buckets);
//!   the engine's own legs skip the partial and fold straight into the
//!   accumulator this merge is built on,
//! * **points** — the per-leg winners race by the engine's canonical
//!   `(created, sensor)` rank,
//! * **ranges** — a k-way ordered merge over the per-leg record streams
//!   with dedup by record identity, so a record replicated across tiers
//!   can never appear twice in one answer.
//!
//! Merging is order-insensitive: any permutation of the legs produces
//! the same answer, which is what makes the workload replay transcripts
//! stable under fan-out.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use scc_dlc::DataRecord;

use crate::model::{finalize, AggAcc, AggPartial, AggState, PointSample, QueryAnswer};

/// `(identity, leg index, position in leg)` — one k-way merge cursor.
type MergeCursor = ((u64, u64), usize, usize);

/// Canonical identity of one stored observation — the same projection
/// the brute-force test oracle dedups the hierarchy by.
fn identity(rec: &DataRecord) -> (u64, u64) {
    (
        rec.descriptor().created_s(),
        rec.reading().sensor().seed_material(),
    )
}

/// Merges the per-leg aggregate partials into one finalized bundle —
/// what the gather does with partials that *arrive*. (The engine's own
/// legs fold straight into its accumulator and are never materialised.)
pub fn merge_aggregates(legs: Vec<AggPartial>) -> QueryAnswer {
    let mut acc = AggAcc::new();
    for leg in &legs {
        acc.merge(leg);
        acc.end_leg();
    }
    QueryAnswer::Aggregate(finalize(&acc))
}

/// Merges the per-leg latest observations: the city-wide latest is the
/// maximum of the shard winners under the canonical `(created, sensor)`
/// rank every complete source agrees on.
pub(crate) fn merge_points(legs: impl IntoIterator<Item = Option<PointSample>>) -> QueryAnswer {
    QueryAnswer::Point(
        legs.into_iter()
            .flatten()
            .max_by_key(|p| (p.created_s, p.sensor.seed_material())),
    )
}

/// K-way ordered merge of the per-leg record streams, deduplicated by
/// record identity. Legs cover disjoint shards by construction, but a
/// record that climbed tiers between two legs' reads must still appear
/// exactly once, so dedup is enforced rather than assumed.
pub fn merge_ranges(mut legs: Vec<Vec<DataRecord>>) -> QueryAnswer {
    // Leg streams arrive in creation order from the archive scan; ties
    // at equal creation times are ordered by sensor identity so the heap
    // sees each stream monotone in the full merge key.
    for leg in &mut legs {
        leg.sort_by_key(identity);
    }
    let mut heap: BinaryHeap<Reverse<MergeCursor>> = legs
        .iter()
        .enumerate()
        .filter(|(_, leg)| !leg.is_empty())
        .map(|(i, leg)| Reverse((identity(&leg[0]), i, 0)))
        .collect();
    let mut out: Vec<DataRecord> = Vec::with_capacity(legs.iter().map(Vec::len).sum());
    let mut last: Option<(u64, u64)> = None;
    while let Some(Reverse((key, leg, pos))) = heap.pop() {
        if last != Some(key) {
            out.push(legs[leg][pos].clone());
            last = Some(key);
        }
        if pos + 1 < legs[leg].len() {
            heap.push(Reverse((identity(&legs[leg][pos + 1]), leg, pos + 1)));
        }
    }
    QueryAnswer::Records(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{Reading, SensorId, SensorType, Value};

    fn rec(idx: u32, t: u64, v: f64) -> DataRecord {
        DataRecord::from_reading(Reading::new(
            SensorId::new(SensorType::Traffic, idx),
            t,
            Value::from_f64(v),
        ))
    }

    fn sample(idx: u32, t: u64) -> PointSample {
        PointSample {
            created_s: t,
            sensor: SensorId::new(SensorType::Traffic, idx),
            value: 1.0,
        }
    }

    #[test]
    fn aggregate_merge_equals_flat_fold() {
        let records: Vec<DataRecord> = (0..40)
            .map(|i| rec(i % 5, 100 + u64::from(i), 2.5))
            .collect();
        let mut flat = AggPartial::empty();
        for r in &records {
            crate::model::absorb_record(&mut flat, r);
        }
        let legs: Vec<AggPartial> = records
            .chunks(7)
            .map(|chunk| {
                let mut p = AggPartial::empty();
                for r in chunk {
                    crate::model::absorb_record(&mut p, r);
                }
                p
            })
            .collect();
        match merge_aggregates(legs) {
            QueryAnswer::Aggregate(a) => {
                let f = finalize(&flat);
                assert_eq!(a.count, f.count);
                assert_eq!(a.min, f.min);
                assert_eq!(a.max, f.max);
                assert_eq!(a.distinct_sensors, f.distinct_sensors);
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    /// The old form of [`merge_aggregates`], kept as the reference
    /// model: one sparse partial merged per leg.
    fn merge_aggregates_reference(legs: &[AggPartial]) -> crate::model::AggregateResult {
        let mut acc = AggPartial::empty();
        for leg in legs {
            acc.merge(leg);
        }
        finalize(&acc)
    }

    proptest::proptest! {
        #[test]
        fn aggregate_merge_keeps_every_bit_of_the_per_leg_partial_merge(
            legs in proptest::collection::vec(
                proptest::collection::vec((-1.0e6..1.0e6f64, 0u64..4_000), 0..120),
                0..24,
            ),
        ) {
            let legs: Vec<AggPartial> = legs
                .iter()
                .map(|observations| {
                    let mut p = AggPartial::empty();
                    for &(v, key) in observations {
                        p.absorb(v, key);
                    }
                    p
                })
                .collect();
            let want = merge_aggregates_reference(&legs);
            let QueryAnswer::Aggregate(got) = merge_aggregates(legs) else {
                panic!("expected aggregate");
            };
            let bits = |v: Option<f64>| v.map(f64::to_bits);
            proptest::prop_assert_eq!(got.count, want.count);
            proptest::prop_assert_eq!(got.sum.to_bits(), want.sum.to_bits());
            proptest::prop_assert_eq!(bits(got.mean), bits(want.mean));
            proptest::prop_assert_eq!(bits(got.variance), bits(want.variance));
            proptest::prop_assert_eq!(bits(got.min), bits(want.min));
            proptest::prop_assert_eq!(bits(got.max), bits(want.max));
            proptest::prop_assert_eq!(got.distinct_sensors, want.distinct_sensors);
        }
    }

    #[test]
    fn point_merge_picks_the_canonical_latest() {
        let legs = vec![
            Some(sample(3, 100)),
            None,
            Some(sample(9, 120)),
            Some(sample(1, 120)),
        ];
        match merge_points(legs) {
            QueryAnswer::Point(Some(p)) => {
                assert_eq!(p.created_s, 120);
                assert_eq!(p.sensor, SensorId::new(SensorType::Traffic, 9));
            }
            other => panic!("expected a point, got {other:?}"),
        }
        assert_eq!(merge_points(vec![None, None]), QueryAnswer::Point(None));
    }

    #[test]
    fn range_merge_is_ordered_and_deduped() {
        let a = vec![rec(0, 100, 1.0), rec(0, 300, 1.0)];
        let b = vec![rec(1, 100, 1.0), rec(1, 200, 1.0)];
        let dup = vec![rec(0, 300, 1.0)]; // replicated across tiers
        match merge_ranges(vec![a, b, dup]) {
            QueryAnswer::Records(out) => {
                let keys: Vec<(u64, u64)> = out.iter().map(identity).collect();
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(keys, sorted, "merge output is ordered and unique");
                assert_eq!(out.len(), 4, "the replicated record appears once");
            }
            other => panic!("expected records, got {other:?}"),
        }
    }

    #[test]
    fn merge_is_leg_order_insensitive() {
        let legs = || {
            vec![
                vec![rec(0, 100, 1.0), rec(2, 150, 1.0)],
                vec![rec(1, 100, 1.0)],
                vec![rec(3, 50, 1.0)],
            ]
        };
        let forward = merge_ranges(legs());
        let mut reversed = legs();
        reversed.reverse();
        assert_eq!(forward, merge_ranges(reversed));
    }
}
