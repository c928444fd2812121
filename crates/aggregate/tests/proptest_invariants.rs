//! Property-based tests on the aggregation library's mathematical
//! invariants: decomposability laws, the dedup filter's output — and the
//! sparse-first HyperLogLog held, step by step, to the dense model in
//! `reference/`.

mod reference;

use f2c_aggregate::functions::{fold, Decomposable, MinMax, Moments};
use f2c_aggregate::sketch::{AggPartial, AggState, HyperLogLog, Registers};
use f2c_aggregate::RedundancyFilter;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use reference::{DenseHll, RefPartial};
use scc_sensors::{Reading, SensorId, SensorType, Value};

/// `(index, rank)` entries for about `permille`/1000 of a precision-`p`
/// sketch's registers, in no order and with repeats — the last write to
/// an index wins, as on the wire. `high` draws ranks up to the cap
/// `64 - p + 1`, past the `52 - p` below which the estimate may sum
/// the occupied registers alone.
fn crafted_entries(p: u32, seed: u64, permille: u32, high: bool) -> Vec<(u16, u8)> {
    let m = 1u64 << p;
    let top = if high { u64::from(64 - p + 1) } else { 6 };
    let mut state = seed;
    let mut next = || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..m * u64::from(permille) / 1000)
        .map(|_| ((next() % m) as u16, 1 + (next() % top) as u8))
        .collect()
}

/// The dense registers `entries` mean.
fn dense_of(p: u32, entries: &[(u16, u8)]) -> DenseHll {
    let mut model = DenseHll::new(p);
    for &(i, r) in entries {
        model.registers[usize::from(i)] = r;
    }
    model
}

/// Everything the sketch must share with its dense model: registers,
/// estimate, the form its occupancy dictates, and an `==` that agrees
/// with register equality.
fn check_against_model(hll: &HyperLogLog, model: &DenseHll) -> Result<(), TestCaseError> {
    prop_assert_eq!(&DenseHll::of(hll), model);
    prop_assert_eq!(hll.estimate(), model.estimate());
    match hll.registers() {
        Registers::Sparse(entries) => {
            prop_assert!(model.is_sparse(), "sparse past the threshold");
            prop_assert!(entries.iter().all(|&(_, r)| r != 0));
            prop_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        }
        Registers::Dense(_) => prop_assert!(!model.is_sparse(), "dense below the threshold"),
    }
    let rebuilt = HyperLogLog::from_registers(model.precision, model.registers.clone()).unwrap();
    prop_assert_eq!(hll, &rebuilt);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hll_merge_is_idempotent_and_commutative(
        keys in proptest::collection::vec(any::<u32>(), 0..2000),
    ) {
        let mut a = HyperLogLog::new(10).unwrap();
        for k in &keys { a.add(&k.to_le_bytes()); }
        let mut twice = a.clone();
        twice.merge(&a);
        prop_assert_eq!(&twice, &a, "merge with self must be identity");
    }

    #[test]
    fn hll_matches_the_dense_model_step_by_step(
        p in proptest::sample::select(vec![4u32, 10, 16]),
        steps in proptest::collection::vec(
            (0u8..5, any::<u64>(), 0u32..700, any::<bool>()),
            1..10,
        ),
    ) {
        let mut hll = HyperLogLog::new(p).unwrap();
        let mut model = DenseHll::new(p);
        let mut snapshot = (hll.clone(), model.clone());
        for (kind, seed, permille, high) in steps {
            match kind {
                0 => {
                    for key in seed..seed + u64::from(permille % 64) {
                        hll.add(&key.to_le_bytes());
                        model.add(&key.to_le_bytes());
                    }
                }
                1 | 2 => {
                    // Merge a crafted sketch, built through either
                    // constructor, into this one or this one into it.
                    let entries = crafted_entries(p, seed, permille, high);
                    let other_model = dense_of(p, &entries);
                    let mut other = if seed % 2 == 0 {
                        HyperLogLog::from_sparse(p, entries).unwrap()
                    } else {
                        HyperLogLog::from_registers(p, other_model.registers.clone()).unwrap()
                    };
                    check_against_model(&other, &other_model)?;
                    model.merge(&other_model);
                    if kind == 1 {
                        hll.merge(&other);
                    } else {
                        other.merge(&hll);
                        hll = other;
                    }
                }
                3 => {
                    prop_assert_eq!(&hll.clone(), &hll);
                    snapshot = (hll.clone(), model.clone());
                }
                _ => {
                    // What a wire roundtrip does to the registers.
                    let back = match hll.registers().clone() {
                        Registers::Sparse(entries) => HyperLogLog::from_sparse(p, entries),
                        Registers::Dense(block) => HyperLogLog::from_registers(p, block),
                    };
                    prop_assert_eq!(&back.unwrap(), &hll);
                }
            }
            check_against_model(&hll, &model)?;
            prop_assert_eq!(hll == snapshot.0, model == snapshot.1);
        }
    }

    #[test]
    fn partial_matches_the_reference_codec_step_by_step(
        steps in proptest::collection::vec(
            (0u8..5, any::<u64>(), 0u32..500, any::<bool>()),
            1..10,
        ),
    ) {
        let mut partial = AggPartial::empty();
        let mut model = RefPartial::empty();
        for (kind, seed, permille, high) in steps {
            match kind {
                0 => {
                    // A small key universe, so runs overlap and a few of
                    // them walk the sketch across the promotion.
                    for key in (seed % 2_000..).take(permille as usize % 200) {
                        partial.absorb(key as f64 * 0.5 - 7.0, key);
                        model.absorb(key as f64 * 0.5 - 7.0, key);
                    }
                }
                1 | 2 => {
                    // A partial only the wire can deliver: crafted
                    // registers, ranks up to the cap.
                    let mut other_model = RefPartial::empty();
                    other_model.absorb_value(1.0);
                    other_model.distinct = dense_of(10, &crafted_entries(10, seed, permille, high));
                    let mut other = AggPartial::decode(&other_model.encode()).unwrap();
                    model.merge(&other_model);
                    if kind == 1 {
                        partial.merge(&other);
                    } else {
                        other.merge(&partial);
                        partial = other;
                    }
                }
                3 => prop_assert_eq!(&partial.clone(), &partial),
                _ => prop_assert_eq!(&AggPartial::decode(&partial.encode()).unwrap(), &partial),
            }
            prop_assert_eq!(partial.encode(), model.encode());
            prop_assert_eq!(partial.count(), model.count);
            prop_assert_eq!(partial.distinct_estimate(), model.distinct_estimate());
            prop_assert_eq!(&AggPartial::decode(&model.encode()).unwrap(), &partial);
        }
    }

    #[test]
    fn decomposable_types_obey_merge_associativity(
        xs in proptest::collection::vec(-10_000_000i64..10_000_000, 0..60),
        ys in proptest::collection::vec(-10_000_000i64..10_000_000, 0..60),
        zs in proptest::collection::vec(-10_000_000i64..10_000_000, 0..60),
    ) {
        fn assoc<S: Decomposable + PartialEq + std::fmt::Debug>(
            xs: &[i64], ys: &[i64], zs: &[i64],
        ) -> (S, S) {
            // Whole hundredths, as every reading is.
            let values = |hs: &[i64]| fold(hs.iter().map(|&h| h as f64 / 100.0));
            let (x, y, z): (S, S, S) = (values(xs), values(ys), values(zs));
            let mut left = x.clone();
            left.merge(&y);
            left.merge(&z);
            let mut yz = y;
            yz.merge(&z);
            let mut right = x;
            right.merge(&yz);
            (left, right)
        }
        let (l, r) = assoc::<MinMax>(&xs, &ys, &zs);
        prop_assert_eq!(l, r);
        let (l, r) = assoc::<Moments>(&xs, &ys, &zs);
        prop_assert_eq!(l, r);
    }

    #[test]
    fn dedup_output_has_no_consecutive_repeats_per_sensor(
        raw in proptest::collection::vec((0u32..5, 0i64..50), 0..400),
    ) {
        let mut filter = RedundancyFilter::new();
        let readings: Vec<Reading> = raw
            .iter()
            .enumerate()
            .map(|(t, (idx, v))| {
                Reading::new(
                    SensorId::new(SensorType::Temperature, *idx),
                    t as u64,
                    Value::Scalar(*v),
                )
            })
            .collect();
        let kept = filter.filter_batch(readings);
        // Invariant: per sensor, consecutive kept values always differ.
        let mut last: std::collections::HashMap<SensorId, Value> =
            std::collections::HashMap::new();
        for r in kept {
            if let Some(prev) = last.get(&r.sensor()) {
                prop_assert_ne!(prev, r.value());
            }
            last.insert(r.sensor(), r.value().clone());
        }
    }
}

/// The merge that crosses the sparse/dense threshold, exactly at it, in
/// both operand orders — and the one that stops one register short.
#[test]
fn hll_promotion_boundary_in_both_merge_orders() {
    for p in [4u32, 10, 16] {
        let threshold = (1usize << p).div_ceil(3);
        let below: Vec<(u16, u8)> = (0..threshold as u16 - 1).map(|i| (i * 2, 3)).collect();
        let sketch = |entries: &[(u16, u8)]| HyperLogLog::from_sparse(p, entries.to_vec()).unwrap();
        for (extra, crosses) in [((1u16, 9u8), true), ((0, 9), false)] {
            let mut model = dense_of(p, &below);
            model.merge(&dense_of(p, &[extra]));
            assert_eq!(model.is_sparse(), !crosses);
            let (mut ab, mut ba) = (sketch(&below), sketch(&[extra]));
            ab.merge(&sketch(&[extra]));
            ba.merge(&sketch(&below));
            for merged in [&ab, &ba] {
                assert_eq!(DenseHll::of(merged), model, "p={p} extra={extra:?}");
                assert_eq!(merged.estimate(), model.estimate());
                assert_eq!(
                    matches!(merged.registers(), Registers::Dense(_)),
                    crosses,
                    "p={p} extra={extra:?}"
                );
            }
            assert_eq!(ab, ba);
        }
    }
}
