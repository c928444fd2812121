//! `tsenc` known-answer vectors: frozen hex fixtures for each column
//! technique and for full streams (empty, single- and multi-type,
//! dictionary-persistent), plus the refusal of an irregular batch. The
//! codec is deterministic, so any byte of drift in these fixtures is a
//! wire-format break — bump the stream magic before changing them.

use f2c_compress::tsenc::{
    self, decode_column, encode_column_as, StreamDecoder, StreamEncoder, Technique, MODE_COLUMNAR,
};
use f2c_compress::Error;
use scc_sensors::{Reading, SensorId, SensorType, Value};

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

/// The empty batch: magic, columnar mode, two zero varints, CRC.
#[test]
fn empty_batch_stream_matches_known_answer() {
    let expected = "54534631000000000000007edf6c9d";
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
    let expected = "5453463100010113070001000002840700012aaf725584";
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
    let expected = "54534631000805130013010f040a021400000800010203040001020306840705880e\
                    0300013f000201000008b009f006b709fd060001030005cc214fbc0f9115909d";
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
    let expected_a = "5453463100020213001301000200010103840700000364c801144c4b01";
    let expected_b = "54534631000200000200010103880e0000036bd301f9211662";

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
    let retired = "5453463101465a4331070000000000000002c11c9c00011300840702017606e9fe";
    assert_eq!(
        tsenc::decode_once(&unhex(retired)),
        Err(Error::Malformed {
            reason: "unknown stream mode",
            offset: 4,
        })
    );
}
