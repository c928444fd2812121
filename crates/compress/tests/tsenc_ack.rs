//! The flush stream under an ACK/NACK schedule: a sender stages each
//! batch's dictionary additions and commits them only when the receiver
//! acknowledges the payload. A batch lost on the way, or refused by the
//! receiver's decoder (a CRC that fails, a section the receiver does not
//! accept from the sender), is re-shipped merged with the next one, a
//! batch the encoder refuses stages nothing, and the two dictionaries
//! never drift apart.

use f2c_compress::tsenc::{StreamDecoder, StreamEncoder, MODE_COLUMNAR};
use f2c_compress::Error;
use proptest::prelude::*;
use scc_sensors::{Reading, SensorId, SensorType, Value};

/// `count` Traffic counters from sensor `first` on, at second `t`; an
/// `odd` wave adds a parking spot reporting a scalar, which contradicts
/// its type's shape, so the encoder refuses the batch.
fn wave(first: u32, count: u32, t: u64, odd: bool) -> Vec<Reading> {
    let mut readings: Vec<Reading> = (first..first + count)
        .map(|i| {
            Reading::new(
                SensorId::new(SensorType::Traffic, i),
                t,
                Value::Counter(u64::from(i) * 7 + t),
            )
        })
        .collect();
    if odd {
        readings.push(Reading::new(
            SensorId::new(SensorType::ParkingSpot, first),
            t,
            Value::Scalar(-1),
        ));
    }
    readings
}

/// How the receiver answers one shipment.
#[derive(Debug, Clone, Copy)]
enum Answer {
    /// The payload arrives and decodes: ACK.
    Ack,
    /// The payload never arrives: NACK.
    Lost,
    /// The payload arrives with a byte flipped; the CRC refuses it: NACK.
    Damaged,
    /// The payload names a section the receiver does not accept from
    /// this sender: NACK.
    Foreign,
}

fn answer() -> impl Strategy<Value = Answer> {
    proptest::sample::select(vec![
        Answer::Ack,
        Answer::Lost,
        Answer::Damaged,
        Answer::Foreign,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn only_acknowledged_batches_advance_either_dictionary(
        steps in proptest::collection::vec((0u32..40, 1u32..12, any::<bool>(), answer()), 1..24),
    ) {
        let mut encoder = StreamEncoder::new();
        let mut decoder = StreamDecoder::new();
        // The sender's queue: what it has not yet had acknowledged.
        let mut pending: Vec<Reading> = Vec::new();
        for (step, &(first, count, odd, answer)) in steps.iter().enumerate() {
            let batch = wave(first, count, 900 * step as u64, odd);
            if odd {
                // The odd record is the last; nothing is staged, so a
                // commit now commits nothing.
                let before = encoder.dict_len();
                let refused = encoder.stage_batch(&[pending.as_slice(), &batch].concat());
                prop_assert!(
                    matches!(
                        refused,
                        Err(Error::UnshippableRecord { record, .. })
                            if record == pending.len() + batch.len() - 1
                    ),
                    "{:?}", refused
                );
                encoder.commit();
                prop_assert_eq!(encoder.dict_len(), before);
                continue;
            }
            pending.extend(batch);
            let mut payload = encoder.stage_batch(&pending).unwrap();
            match answer {
                Answer::Ack => {
                    prop_assert_eq!(&decoder.decode_batch(&payload).unwrap(), &pending);
                    encoder.commit();
                    pending.clear();
                }
                Answer::Lost => encoder.discard(),
                Answer::Damaged => {
                    let mid = payload.len() / 2;
                    payload[mid] ^= 0xFF;
                    let refused = decoder.decode_batch(&payload);
                    prop_assert!(
                        matches!(refused, Err(Error::ChecksumMismatch { .. })),
                        "{:?}", refused
                    );
                    encoder.discard();
                }
                Answer::Foreign => {
                    // Bare readings ship as section 0.
                    let refused = decoder.decode_records(&payload, 1..=1, |r, _| r);
                    prop_assert_eq!(refused, Err(Error::ForeignSection { section: 0 }));
                    encoder.discard();
                }
            }
            prop_assert_eq!(encoder.dict_len(), decoder.dict_len(), "after step {}", step);
        }
    }
}

#[test]
fn a_mismatching_batch_commits_nothing() {
    let mut encoder = StreamEncoder::new();
    let mut decoder = StreamDecoder::new();
    let batch = wave(0, 10, 900, false);
    let payload = encoder.encode_batch(&batch).unwrap();
    assert_eq!(payload[4], MODE_COLUMNAR);
    // The batch ships section 0; a receiver that accepts only section 1
    // from this sender refuses it whole.
    assert_eq!(
        decoder.decode_records(&payload, 1..=1, |r, _| r),
        Err(Error::ForeignSection { section: 0 })
    );
    assert_eq!(decoder.dict_len(), 0, "a refused batch adds no sensor");
    assert_eq!(decoder.decode_records(&payload, 0..=0, |r, _| r), Ok(batch));
    assert_eq!(decoder.dict_len(), encoder.dict_len());
}

#[test]
fn a_refused_batch_leaves_the_encoder_as_it_was() {
    let mut encoder = StreamEncoder::new();
    // Five new sensors ahead of the odd record would have been staged.
    let odd = wave(0, 5, 900, true);
    assert!(matches!(
        encoder.stage_batch(&odd),
        Err(Error::UnshippableRecord { record: 5, .. })
    ));
    encoder.commit();
    assert_eq!(encoder.dict_len(), 0);
    // The next batch codes its sensors as if the refused one never was.
    let next = wave(0, 10, 1_800, false);
    let mut fresh = StreamDecoder::new();
    assert_eq!(
        fresh.decode_batch(&encoder.encode_batch(&next).unwrap()),
        Ok(next)
    );
    // Mid-stream, over committed sensors, the same.
    assert!(encoder.stage_batch(&wave(20, 3, 2_700, true)).is_err());
    encoder.commit();
    assert_eq!(encoder.dict_len(), 10);
    let after = wave(5, 10, 3_600, false);
    assert_eq!(
        fresh.decode_batch(&encoder.encode_batch(&after).unwrap()),
        Ok(after)
    );
    assert_eq!((encoder.dict_len(), fresh.dict_len()), (15, 15));
}

#[test]
fn a_discarded_batch_is_staged_again_byte_for_byte() {
    let mut encoder = StreamEncoder::new();
    let first = wave(0, 10, 900, false);
    let refused = encoder.stage_batch(&first).unwrap();
    encoder.discard();
    assert_eq!(encoder.dict_len(), 0);
    assert_eq!(encoder.stage_batch(&first).unwrap(), refused);
    encoder.commit();
    assert_eq!(encoder.dict_len(), 10);
    // Committing twice commits once.
    encoder.commit();
    assert_eq!(encoder.dict_len(), 10);
}
