//! Cross-crate property-based tests: invariants that must hold for any
//! workload, not just the Barcelona catalog.

use f2c_smartcity::aggregate::functions::{fold, Decomposable, Moments};
use f2c_smartcity::aggregate::RedundancyFilter;
use f2c_smartcity::compress;
use f2c_smartcity::core::{F2cNode, FlushPolicy, RetentionPolicy};
use f2c_smartcity::sensors::{
    wire, Catalog, Reading, ReadingGenerator, SensorId, SensorType, Value,
};
use proptest::prelude::*;

fn sensor_type_strategy() -> impl Strategy<Value = SensorType> {
    proptest::sample::select(SensorType::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wire_roundtrip_for_any_generated_stream(
        ty in sensor_type_strategy(),
        pop in 1u32..30,
        seed in any::<u64>(),
        waves in 1u64..10,
    ) {
        let mut gen = ReadingGenerator::for_population(ty, pop, seed);
        for w in 0..waves {
            for r in gen.wave(w * 60) {
                let line = wire::encode(&r);
                prop_assert_eq!(wire::parse(&line).unwrap(), r);
            }
        }
    }

    #[test]
    fn wire_encoded_len_is_the_length_of_the_encoding(
        ty in sensor_type_strategy(),
        index in any::<u32>(),
        ts in any::<u64>(),
        model in 0u8..5,
        raw in any::<u64>(),
        fields in proptest::collection::vec(any::<i64>(), 0..9),
    ) {
        // Every value model under every type: the line grammar does not
        // care whether the two agree, and neither may the counter.
        let value = match model {
            0 => Value::Scalar(raw as i64),
            1 => Value::Counter(raw),
            2 => Value::Flag(raw & 1 == 1),
            3 => Value::Level(raw as u8),
            _ => Value::Composite(fields),
        };
        let r = Reading::new(SensorId::new(ty, index), ts, value);
        prop_assert_eq!(wire::encoded_len(&r), wire::encode(&r).len());
    }

    #[test]
    fn dedup_then_dedup_is_identity(
        ty in sensor_type_strategy(),
        seed in any::<u64>(),
    ) {
        // Filtering an already-filtered stream removes nothing: dedup is
        // idempotent per sensor.
        let mut gen = ReadingGenerator::for_population(ty, 20, seed);
        let mut first = RedundancyFilter::new();
        let mut kept = Vec::new();
        for w in 0..30u64 {
            kept.extend(first.filter_batch(gen.wave(w * 60)));
        }
        let mut second = RedundancyFilter::new();
        let rekept = second.filter_batch(kept.clone());
        prop_assert_eq!(rekept, kept);
    }

    #[test]
    fn compress_roundtrips_any_wire_batch(
        ty in sensor_type_strategy(),
        pop in 1u32..50,
        seed in any::<u64>(),
    ) {
        let mut gen = ReadingGenerator::for_population(ty, pop, seed);
        let mut batch = Vec::new();
        for w in 0..5u64 {
            batch.extend(gen.wave(w * 300));
        }
        let encoded = wire::encode_batch(&batch);
        let packed = compress::compress(&encoded).unwrap();
        prop_assert_eq!(compress::decompress(&packed).unwrap(), encoded);
    }

    #[test]
    fn decomposable_merge_is_order_insensitive(
        values in proptest::collection::vec(-1e6f64..1e6, 1..100),
        split in 1usize..99,
    ) {
        let split = split.min(values.len());
        let (a, b) = values.split_at(split);
        let mut left: Moments = fold(a.iter().copied());
        let right: Moments = fold(b.iter().copied());
        let mut rev_left: Moments = fold(b.iter().copied());
        let rev_right: Moments = fold(a.iter().copied());
        left.merge(&right);
        rev_left.merge(&rev_right);
        prop_assert_eq!(left.count, rev_left.count);
        prop_assert!((left.sum - rev_left.sum).abs() < 1e-6);
        prop_assert_eq!(left.count, values.len() as u64);
    }

    #[test]
    fn node_conservation_offered_equals_stored_plus_suppressed(
        ty in sensor_type_strategy(),
        seed in any::<u64>(),
        waves in 1u64..20,
    ) {
        let catalog = Catalog::barcelona();
        let mut node = F2cNode::fog1(
            0, 0, FlushPolicy::paper_fog1(), RetentionPolicy::keep(86_400)).unwrap();
        let mut gen = ReadingGenerator::for_population(ty, 15, seed);
        let mut offered = 0u64;
        let mut stored = 0u64;
        for w in 0..waves {
            let out = node.ingest_wave(gen.wave(w * 600), w * 600 + 1, &catalog).unwrap();
            offered += out.offered;
            stored += out.stored;
            prop_assert!(out.kept_bytes <= out.raw_bytes);
        }
        prop_assert!(stored <= offered);
        let batch = node.flush(waves * 600 + 1, &catalog).unwrap();
        prop_assert_eq!(batch.records.len() as u64, stored);
    }

    #[test]
    fn flush_is_exactly_once_under_any_schedule(
        flush_times in proptest::collection::vec(1u64..10_000, 1..10),
    ) {
        // However flushes are scheduled, each record ships exactly once.
        let catalog = Catalog::barcelona();
        let mut node = F2cNode::fog1(
            0, 0, FlushPolicy::plain(60), RetentionPolicy::keep(86_400)).unwrap();
        let mut gen = ReadingGenerator::for_population(SensorType::Traffic, 10, 1);
        let mut times = flush_times;
        times.sort_unstable();
        let mut shipped = 0u64;
        let mut ingested = 0u64;
        for (wave, t) in times.into_iter().enumerate() {
            let wave = wave as u64;
            let out = node.ingest_wave(gen.wave(wave), t.saturating_sub(1).max(wave), &catalog).unwrap();
            ingested += out.stored;
            shipped += node.flush(t, &catalog).unwrap().records.len() as u64;
        }
        shipped += node.flush(20_000, &catalog).unwrap().records.len() as u64;
        prop_assert_eq!(shipped, ingested);
    }

    #[test]
    fn reading_equality_is_the_dedup_relation(
        idx in 0u32..5,
        t1 in 0u64..1000,
        t2 in 0u64..1000,
        v in -100.0f64..100.0,
    ) {
        let a = Reading::new(SensorId::new(SensorType::Temperature, idx), t1, Value::from_f64(v));
        let b = Reading::new(SensorId::new(SensorType::Temperature, idx), t2, Value::from_f64(v));
        prop_assert!(a.is_redundant_with(&b));
        let c = Reading::new(SensorId::new(SensorType::Temperature, idx), t2, Value::from_f64(v + 1.0));
        prop_assert!(!a.is_redundant_with(&c));
    }
}
