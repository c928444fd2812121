//! Property-based oracle for the `tsenc` flush codec: every batch the
//! encoder accepts must decode back record-for-record — per technique,
//! per column, and through the composed stream codec with its
//! cross-batch dictionary state — and every batch it refuses must name
//! its first odd record. Decoding must never panic on garbage.

use f2c_compress::tsenc::{
    self, decode_column, encode_column, encode_column_as, StreamDecoder, StreamEncoder, Technique,
    MODE_COLUMNAR,
};
use f2c_compress::Error;
use proptest::prelude::*;
use scc_sensors::{Located, Reading, SensorId, SensorType, Shape, Value};

/// Raw entropy for one reading: `(type index, sensor index, timestamp,
/// value entropy, composite fields)`.
type RawReading = (usize, u32, u64, u64, Vec<i64>);

/// A value of `ty`'s shape's variant, so the batch stays regular. The
/// codec does not check a composite's arity, so `fields` may be any
/// length.
fn value_for(ty: SensorType, raw: u64, fields: &[i64]) -> Value {
    match ty.shape() {
        Shape::Flag => Value::Flag(raw & 1 == 1),
        Shape::Counter => Value::Counter(raw),
        Shape::Level => Value::Level(raw as u8),
        Shape::Composite { .. } => Value::Composite(fields.to_vec()),
        Shape::Scalar => Value::Scalar(raw as i64),
    }
}

/// Whether `reading`'s value is of its type's shape's variant.
fn regular_value(reading: &Reading) -> bool {
    std::mem::discriminant(reading.value())
        == std::mem::discriminant(&value_for(reading.sensor_type(), 0, &[]))
}

fn regular(raws: &[RawReading]) -> Vec<Reading> {
    raws.iter()
        .map(|(t, idx, ts, raw, fields)| {
            let ty = SensorType::ALL[t % SensorType::ALL.len()];
            Reading::new(SensorId::new(ty, *idx), *ts, value_for(ty, *raw, fields))
        })
        .collect()
}

/// Readings whose values may contradict their types' shapes (so the
/// encoder refuses some batches): the value is drawn from a possibly
/// different type's shape.
fn possibly_irregular(raws: &[RawReading]) -> Vec<Reading> {
    raws.iter()
        .map(|(t, idx, ts, raw, fields)| {
            let ty = SensorType::ALL[t % SensorType::ALL.len()];
            let value_ty = SensorType::ALL[(t / 31) % SensorType::ALL.len()];
            Reading::new(
                SensorId::new(ty, *idx),
                *ts,
                value_for(value_ty, *raw, fields),
            )
        })
        .collect()
}

/// A reading and the section it ships from.
#[derive(Debug, Clone, PartialEq)]
struct Sited(Reading, u16);

impl AsRef<Reading> for Sited {
    fn as_ref(&self) -> &Reading {
        &self.0
    }
}

impl Located for Sited {
    fn section(&self) -> u16 {
        self.1
    }
}

fn raw_reading() -> impl Strategy<Value = RawReading> {
    (
        0usize..1024,
        0u32..500,
        0u64..4_000_000_000,
        any::<u64>(),
        proptest::collection::vec(any::<i64>(), 0..8),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_technique_roundtrips_arbitrary_columns(
        values in proptest::collection::vec(any::<u64>(), 0..300),
    ) {
        for technique in Technique::ALL {
            let mut buf = Vec::new();
            encode_column_as(technique, &values, &mut buf);
            let mut pos = 0;
            let (tag, back) = decode_column(&buf, &mut pos, values.len() as u64).unwrap();
            prop_assert_eq!(tag, technique);
            prop_assert_eq!(&back, &values, "technique {:?}", technique);
            prop_assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn probed_column_choice_is_cheapest_and_roundtrips(
        values in proptest::collection::vec(any::<u64>(), 0..300),
    ) {
        let mut probed = Vec::new();
        let chosen = encode_column(&values, &mut probed);
        for technique in Technique::ALL {
            let mut forced = Vec::new();
            encode_column_as(technique, &values, &mut forced);
            prop_assert!(
                probed.len() <= forced.len(),
                "probe chose {:?} ({} B) but {:?} is smaller ({} B)",
                chosen, probed.len(), technique, forced.len()
            );
        }
        let mut pos = 0;
        let (_, back) = decode_column(&probed, &mut pos, values.len() as u64).unwrap();
        prop_assert_eq!(back, values);
    }

    #[test]
    fn composed_codec_roundtrips_arbitrary_batches(
        raws in proptest::collection::vec(raw_reading(), 0..200),
    ) {
        let readings = regular(&raws);
        let encoded = tsenc::encode_once(&readings).unwrap();
        prop_assert_eq!(tsenc::decode_once(&encoded).unwrap(), readings);
    }

    #[test]
    fn irregular_batches_are_refused_at_their_first_odd_record(
        raws in proptest::collection::vec(raw_reading(), 0..120),
    ) {
        let readings = possibly_irregular(&raws);
        let first_odd = readings.iter().position(|r| !regular_value(r));
        let mut enc = StreamEncoder::new();
        match (enc.encode_batch(&readings), first_odd) {
            (Ok(encoded), None) => {
                prop_assert_eq!(tsenc::decode_once(&encoded).unwrap(), readings);
            }
            (Err(Error::UnshippableRecord { record, .. }), Some(odd)) => {
                prop_assert_eq!(record, odd);
                prop_assert_eq!(enc.dict_len(), 0, "a refused batch stages nothing");
            }
            (outcome, odd) => prop_assert!(false, "{:?} with first odd record {:?}", outcome, odd),
        }
    }

    #[test]
    fn stream_roundtrips_consecutive_batches_with_dictionary_state(
        all in proptest::collection::vec(raw_reading(), 0..240),
        cuts in proptest::collection::vec(0usize..240, 1..6),
    ) {
        // Slice one stream of readings into consecutive batches at
        // arbitrary cut points; the encoder/decoder pair must stay in
        // dictionary lock-step across every boundary.
        let readings = regular(&all);
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(readings.len())).collect();
        cuts.sort_unstable();
        let mut enc = StreamEncoder::new();
        let mut dec = StreamDecoder::new();
        let mut start = 0usize;
        for end in cuts.into_iter().chain([readings.len()]) {
            let batch = &readings[start..end];
            start = end;
            let payload = enc.encode_batch(batch).unwrap();
            prop_assert_eq!(dec.decode_batch(&payload).unwrap(), batch.to_vec());
            prop_assert_eq!(enc.dict_len(), dec.dict_len());
        }
    }

    #[test]
    fn decode_records_is_decode_batch_plus_sections(
        raws in proptest::collection::vec(raw_reading(), 1..120),
        sections in proptest::collection::vec(0u16..6, 120),
    ) {
        let batch = regular(&raws);
        let sited: Vec<Sited> = batch
            .iter()
            .zip(&sections)
            .map(|(r, &section)| Sited(r.clone(), section))
            .collect();
        let payload = StreamEncoder::new().encode_batch(&sited).unwrap();
        prop_assert_eq!(StreamDecoder::new().decode_batch(&payload).unwrap(), batch);
        let mut decoder = StreamDecoder::new();
        let decoded = decoder.decode_records(&payload, 0..=u16::MAX, Sited).unwrap();
        prop_assert_eq!(&decoded, &sited);

        // A receiver that accepts one section fewer refuses the batch at
        // its first record from that section, and commits nothing.
        let top = sited.iter().map(|s| s.1).max().unwrap();
        let accepted = if top == 0 { 1..=u16::MAX } else { 0..=top - 1 };
        let mut refuser = StreamDecoder::new();
        prop_assert_eq!(
            refuser.decode_records(&payload, accepted, Sited),
            Err(Error::ForeignSection { section: top })
        );
        prop_assert_eq!(refuser.dict_len(), 0);
        prop_assert_eq!(refuser.decode_records(&payload, 0..=top, Sited).unwrap(), decoded);
        prop_assert_eq!(refuser.dict_len(), decoder.dict_len());
    }

    #[test]
    fn skewed_regular_cadence_stays_columnar_and_roundtrips(
        n in 16usize..128,
        base in 0u64..1_000_000,
        period in 1u64..3600,
        jitter in proptest::collection::vec(0u64..3, 128),
        pool in 1u32..6,
    ) {
        // The flush-shipment shape: a small sensor pool polled on a
        // cadence with sub-period skew, counters marching upward.
        let readings: Vec<Reading> = (0..n)
            .map(|i| {
                Reading::new(
                    SensorId::new(SensorType::Traffic, i as u32 % pool),
                    base + i as u64 * period + jitter[i],
                    Value::Counter(1000 + i as u64 * 7),
                )
            })
            .collect();
        let encoded = tsenc::encode_once(&readings).unwrap();
        prop_assert_eq!(encoded[4], MODE_COLUMNAR, "regular cadence must ship columnar");
        prop_assert_eq!(tsenc::decode_once(&encoded).unwrap(), readings);
    }

    #[test]
    fn incompressible_regular_batches_ship_columnar_in_dictionary_lock_step(
        raws in proptest::collection::vec((0u32..500, any::<u64>(), any::<u64>()), 2..200),
        cut in 0usize..200,
    ) {
        // Uniform random counters at random instants over many sensors:
        // regular, but with nothing for a column technique to find. The
        // stream still ships columnar and both dictionaries take every
        // sensor.
        let readings: Vec<Reading> = raws
            .iter()
            .map(|&(idx, ts, count)| {
                Reading::new(SensorId::new(SensorType::Traffic, idx), ts, Value::Counter(count))
            })
            .collect();
        let mut sensors: Vec<u32> = raws.iter().map(|r| r.0).collect();
        sensors.sort_unstable();
        sensors.dedup();
        let mut enc = StreamEncoder::new();
        let mut dec = StreamDecoder::new();
        let (first, second) = readings.split_at(cut.min(readings.len()));
        for batch in [first, second] {
            let payload = enc.encode_batch(batch).unwrap();
            prop_assert_eq!(payload[4], MODE_COLUMNAR);
            prop_assert_eq!(dec.decode_batch(&payload).unwrap(), batch.to_vec());
            prop_assert_eq!(enc.dict_len(), dec.dict_len());
        }
        prop_assert_eq!(enc.dict_len(), sensors.len());
    }

    #[test]
    fn constant_runs_compress_hard_and_roundtrip(
        n in 1usize..400,
        ts in 0u64..1_000_000,
        level in any::<u8>(),
    ) {
        let readings: Vec<Reading> = (0..n)
            .map(|_| {
                Reading::new(
                    SensorId::new(SensorType::ContainerGlass, 3),
                    ts,
                    Value::Level(level),
                )
            })
            .collect();
        let encoded = tsenc::encode_once(&readings).unwrap();
        prop_assert_eq!(tsenc::decode_once(&encoded).unwrap(), readings);
        // A constant batch is pure runs: the stream must stay tiny no
        // matter how long the run gets.
        prop_assert!(encoded.len() < 64, "{} records -> {} B", n, encoded.len());
    }

    #[test]
    fn decode_never_panics_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        // Any outcome but a panic.
        let _ = tsenc::decode_once(&data);
    }

    #[test]
    fn decode_never_panics_on_sealed_garbage(
        mode in any::<u8>(),
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // A syntactically sealed stream (magic + valid CRC) over an
        // arbitrary mode and body: the decoder must reach the body
        // parsers and still never panic or over-allocate.
        let mut data = Vec::with_capacity(body.len() + 9);
        data.extend_from_slice(&tsenc::MAGIC);
        data.push(mode);
        data.extend_from_slice(&body);
        let crc = f2c_compress::crc32::checksum(&data[4..]);
        data.extend_from_slice(&crc.to_le_bytes());
        let _ = tsenc::decode_once(&data);
    }
}

#[test]
fn empty_and_single_record_edges_roundtrip() {
    let empty = tsenc::encode_once(&[]).unwrap();
    assert_eq!(tsenc::decode_once(&empty).unwrap(), Vec::<Reading>::new());

    let one = vec![Reading::new(
        SensorId::new(SensorType::Weather, 0),
        86_400,
        Value::Composite(vec![i64::MIN, 0, i64::MAX]),
    )];
    let encoded = tsenc::encode_once(&one).unwrap();
    assert_eq!(tsenc::decode_once(&encoded).unwrap(), one);
}

#[test]
fn extreme_timestamps_and_magnitudes_roundtrip() {
    let readings = vec![
        Reading::new(
            SensorId::new(SensorType::Traffic, u32::MAX),
            u64::MAX,
            Value::Counter(u64::MAX),
        ),
        Reading::new(SensorId::new(SensorType::Traffic, 0), 0, Value::Counter(0)),
        Reading::new(
            SensorId::new(SensorType::NoiseAmbient, 1),
            1,
            Value::Scalar(i64::MIN),
        ),
        Reading::new(
            SensorId::new(SensorType::NoiseAmbient, 2),
            u64::MAX - 1,
            Value::Scalar(i64::MAX),
        ),
    ];
    let encoded = tsenc::encode_once(&readings).unwrap();
    assert_eq!(tsenc::decode_once(&encoded).unwrap(), readings);
}
