//! `tsenc` known-answer vectors: frozen hex fixtures for each column
//! technique and for full streams (empty, single- and multi-type,
//! dictionary-persistent, two-section), plus the refusal of an irregular
//! batch. The codec is deterministic, so any byte of drift in these
//! fixtures is a wire-format break — bump the stream magic before
//! changing them. `TSF2` added the section column; a `TSF1` stream is
//! refused by its magic.

use f2c_compress::tsenc::{
    self, decode_column, encode_column_as, StreamDecoder, StreamEncoder, Technique, MODE_COLUMNAR,
};
use f2c_compress::Error;
use scc_sensors::{Located, Reading, SensorId, SensorType, Value};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex literal");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// Every technique over the same flush-cadence column (15-minute
/// boundaries), encode *and* decode sides pinned.
#[test]
fn column_techniques_match_known_answers() {
    let column: Vec<u64> = vec![900, 1800, 2700, 3600, 4500];
    let vectors: &[(Technique, &str)] = &[
        (Technique::Raw, "000a8407880e8c15901c9423"),
        (Technique::Delta, "010a8407880e880e880e880e"),
        (Technique::DeltaOfDelta, "02078407880e000000"),
        (Technique::Rle, "030f840701880e018c1501901c01942301"),
        (Technique::Dict, "0410058407880e8c15901c94230001020304"),
        (Technique::Xor, "050a84078c09841b9c09843f"),
    ];
    for (technique, expected) in vectors {
        let mut buf = Vec::new();
        encode_column_as(*technique, &column, &mut buf);
        assert_eq!(hex(&buf), *expected, "encode KAT for {technique:?}");
        let mut pos = 0;
        let (tag, back) = decode_column(&unhex(expected), &mut pos, column.len() as u64).unwrap();
        assert_eq!(tag, *technique);
        assert_eq!(back, column, "decode KAT for {technique:?}");
    }
    // A runny column: RLE packs each (value, run) pair once.
    let runs: Vec<u64> = vec![5, 5, 5, 5, 9, 9, 9];
    let mut buf = Vec::new();
    encode_column_as(Technique::Rle, &runs, &mut buf);
    assert_eq!(hex(&buf), "030405040903");
}

/// The empty batch: magic, columnar mode, two zero varints, three empty
/// column frames, CRC.
#[test]
fn empty_batch_stream_matches_known_answer() {
    let expected = "54534632000000000000000000ae1409e6";
    let encoded = tsenc::encode_once(&[]).unwrap();
    assert_eq!(hex(&encoded), expected);
    assert_eq!(tsenc::decode_once(&unhex(expected)).unwrap(), vec![]);
}

/// One traffic counter reading, columnar with one dictionary addition.
#[test]
fn single_record_stream_matches_known_answer() {
    let readings = vec![Reading::new(
        SensorId::new(SensorType::Traffic, 7),
        900,
        Value::Counter(42),
    )];
    let expected = "5453463200010113070001000001000002840700012a32e500a4";
    let encoded = tsenc::encode_once(&readings).unwrap();
    assert_eq!(hex(&encoded), expected);
    assert_eq!(encoded[4], MODE_COLUMNAR);
    assert_eq!(tsenc::decode_once(&unhex(expected)).unwrap(), readings);
}

/// A mixed-type batch over two flush cadences: counters, flags, levels
/// and one composite, exercising every column plane in one stream.
#[test]
fn multi_type_stream_matches_known_answer() {
    let readings = vec![
        Reading::new(
            SensorId::new(SensorType::Traffic, 0),
            900,
            Value::Counter(1200),
        ),
        Reading::new(
            SensorId::new(SensorType::Traffic, 1),
            900,
            Value::Counter(880),
        ),
        Reading::new(
            SensorId::new(SensorType::ParkingSpot, 4),
            900,
            Value::Flag(true),
        ),
        Reading::new(
            SensorId::new(SensorType::ContainerGlass, 2),
            900,
            Value::Level(63),
        ),
        Reading::new(
            SensorId::new(SensorType::Weather, 0),
            900,
            Value::Composite(vec![2150, -40, 990]),
        ),
        Reading::new(
            SensorId::new(SensorType::Traffic, 0),
            1800,
            Value::Counter(1207),
        ),
        Reading::new(
            SensorId::new(SensorType::Traffic, 1),
            1800,
            Value::Counter(893),
        ),
        Reading::new(
            SensorId::new(SensorType::ParkingSpot, 4),
            1800,
            Value::Flag(false),
        ),
    ];
    let expected = "54534632000805130013010f040a02140000080001020304000102030200080306840705\
                    880e0300013f000201000008b009f006b709fd060001030005cc214fbc0fcd2e84a5";
    let encoded = tsenc::encode_once(&readings).unwrap();
    assert_eq!(hex(&encoded), expected);
    assert_eq!(tsenc::decode_once(&unhex(expected)).unwrap(), readings);
}

/// Two consecutive batches of one stream: the second carries no
/// dictionary additions (both sensors committed by the first) and is
/// strictly smaller for it. Both sides of the dictionary lifecycle are
/// pinned byte-for-byte.
#[test]
fn dictionary_persistent_stream_matches_known_answers() {
    let batch_a = vec![
        Reading::new(
            SensorId::new(SensorType::Traffic, 0),
            900,
            Value::Counter(100),
        ),
        Reading::new(
            SensorId::new(SensorType::Traffic, 1),
            900,
            Value::Counter(200),
        ),
    ];
    let batch_b = vec![
        Reading::new(
            SensorId::new(SensorType::Traffic, 0),
            1800,
            Value::Counter(107),
        ),
        Reading::new(
            SensorId::new(SensorType::Traffic, 1),
            1800,
            Value::Counter(211),
        ),
    ];
    let expected_a = "545346320002021300130100020001000200000103840700000364c8012c2d2d35";
    let expected_b = "5453463200020000020001000200000103880e0000036bd301cfd2da0b";

    let mut enc = StreamEncoder::new();
    let payload_a = enc.encode_batch(&batch_a).unwrap();
    let payload_b = enc.encode_batch(&batch_b).unwrap();
    assert_eq!(hex(&payload_a), expected_a);
    assert_eq!(hex(&payload_b), expected_b);
    assert!(payload_b.len() < payload_a.len());

    let mut dec = StreamDecoder::new();
    assert_eq!(dec.decode_batch(&unhex(expected_a)).unwrap(), batch_a);
    assert_eq!(dec.decode_batch(&unhex(expected_b)).unwrap(), batch_b);
    assert_eq!(dec.dict_len(), 2);
}

/// An irregular batch (a counter-shaped sensor shipping a flag) once
/// rode the DEFLATE fallback; its known answer is now a refusal naming
/// the record, and the frozen fallback bytes decode to an unknown mode.
#[test]
fn irregular_batch_fallback_matches_known_answer() {
    let readings = vec![Reading::new(
        SensorId::new(SensorType::Traffic, 0),
        900,
        Value::Flag(true),
    )];
    let refused = Err(Error::UnshippableRecord {
        record: 0,
        reason: "value variant contradicts its sensor type's shape",
    });
    assert_eq!(tsenc::encode_once(&readings), refused);
    let mut enc = StreamEncoder::new();
    assert_eq!(enc.stage_batch(&readings), refused);
    assert_eq!(enc.dict_len(), 0);
    // The frozen fallback stream is `TSF1`: refused by its magic, and,
    // relabeled `TSF2` (the CRC does not cover the magic), by its mode.
    let retired = unhex("5453463101465a4331070000000000000002c11c9c00011300840702017606e9fe");
    assert_eq!(
        tsenc::decode_once(&retired),
        Err(Error::BadMagic { found: *b"TSF1" })
    );
    let mut relabeled = retired;
    relabeled[..4].copy_from_slice(&tsenc::MAGIC);
    assert_eq!(
        tsenc::decode_once(&relabeled),
        Err(Error::Malformed {
            reason: "unknown stream mode",
            offset: 4,
        })
    );
}

/// A traffic reading and the section it ships from.
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

/// A fog-2 batch: two child shipments, sections 10 and 11, each one run
/// of the section column, whose sensors share section-local ids. The
/// receiver that accepts both sections decodes the batch; one that
/// accepts only the first refuses it at the second.
#[test]
fn two_section_stream_matches_known_answer() {
    let batch: Vec<Sited> = [(10, 0, 310), (10, 1, 440), (11, 0, 95), (11, 1, 120)]
        .into_iter()
        .map(|(section, index, count)| {
            let id = SensorId::new(SensorType::Traffic, index);
            Sited(Reading::new(id, 900, Value::Counter(count)), section)
        })
        .collect();
    let expected =
        "545346320004021300130100040001000100040a0a0b0b03038407040006b602b8035f78f55c79ea";
    let encoded = StreamEncoder::new().encode_batch(&batch).unwrap();
    assert_eq!(hex(&encoded), expected);
    let decoded = StreamDecoder::new().decode_records(&unhex(expected), 10..=11, Sited);
    assert_eq!(decoded, Ok(batch));
    let mut decoder = StreamDecoder::new();
    assert_eq!(
        decoder.decode_records(&unhex(expected), 10..=10, Sited),
        Err(Error::ForeignSection { section: 11 })
    );
    assert_eq!(decoder.dict_len(), 0);
}
