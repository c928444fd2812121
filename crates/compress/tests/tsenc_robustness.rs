//! Adversarial-input robustness for the `tsenc` decoder: truncated,
//! bit-flipped and length-lying streams must return `Err` — never
//! panic, never allocate past the validated counts — and a failed
//! decode must leave the stream decoder's dictionary untouched so a
//! clean re-delivery still applies.

use f2c_compress::tsenc::{
    self, put_varint, StreamDecoder, StreamEncoder, MAX_RECORDS, MODE_COLUMNAR, MODE_FALLBACK,
};
use f2c_compress::{crc32, deflate, Error};
use scc_sensors::{Reading, SensorId, SensorType, Value};

/// Seals `mode | body` into a full stream with valid magic and CRC, so
/// the crafted lie reaches the body parsers instead of being caught by
/// the checksum.
fn seal(mode: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 9);
    out.extend_from_slice(&tsenc::MAGIC);
    out.push(mode);
    out.extend_from_slice(body);
    let crc = crc32::checksum(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn sample_batch() -> Vec<Reading> {
    (0..20)
        .map(|i| {
            Reading::new(
                SensorId::new(SensorType::Traffic, i % 3),
                900 + u64::from(i) * 900,
                Value::Counter(1000 + u64::from(i) * 7),
            )
        })
        .collect()
}

#[test]
fn every_truncation_of_a_valid_stream_fails_cleanly() {
    for readings in [sample_batch(), Vec::new()] {
        let encoded = tsenc::encode_once(&readings).unwrap();
        for len in 0..encoded.len() {
            assert!(
                tsenc::decode_once(&encoded[..len]).is_err(),
                "prefix of {len}/{} bytes decoded",
                encoded.len()
            );
        }
    }
}

#[test]
fn every_bitflip_of_a_valid_stream_fails_cleanly() {
    let encoded = tsenc::encode_once(&sample_batch()).unwrap();
    for i in 0..encoded.len() {
        for bit in 0..8 {
            let mut bad = encoded.clone();
            bad[i] ^= 1u8 << bit;
            assert!(
                tsenc::decode_once(&bad).is_err(),
                "flip of bit {bit} at byte {i} decoded"
            );
        }
    }
}

#[test]
fn record_count_lies_are_rejected_without_allocation() {
    // n beyond the hard cap: refused by the size guard, not by OOM.
    let mut body = Vec::new();
    put_varint(&mut body, MAX_RECORDS + 1);
    put_varint(&mut body, 0);
    assert!(matches!(
        tsenc::decode_once(&seal(MODE_COLUMNAR, &body)),
        Err(Error::SizeLimitExceeded { .. })
    ));

    // n within the cap but far past the actual data: the column decoder
    // must hit EOF, not materialize 4M phantom records.
    let mut body = Vec::new();
    put_varint(&mut body, MAX_RECORDS);
    put_varint(&mut body, 0);
    assert!(tsenc::decode_once(&seal(MODE_COLUMNAR, &body)).is_err());
}

#[test]
fn dictionary_lies_are_rejected() {
    // More staged additions than records.
    let mut body = Vec::new();
    put_varint(&mut body, 1);
    put_varint(&mut body, 2);
    assert!(matches!(
        tsenc::decode_once(&seal(MODE_COLUMNAR, &body)),
        Err(Error::Malformed { .. })
    ));

    // A staged addition with an unknown sensor type code.
    let mut body = Vec::new();
    put_varint(&mut body, 1);
    put_varint(&mut body, 1);
    body.push(200); // only 21 types exist
    put_varint(&mut body, 0);
    assert!(matches!(
        tsenc::decode_once(&seal(MODE_COLUMNAR, &body)),
        Err(Error::Malformed { .. })
    ));

    // A codes column referencing a dictionary slot that was never
    // committed nor staged.
    let mut body = Vec::new();
    put_varint(&mut body, 1); // one record
    put_varint(&mut body, 0); // no additions, empty dictionary
    body.push(0); // codes column: Raw
    put_varint(&mut body, 1);
    put_varint(&mut body, 5); // code 5 of an empty dictionary
    assert!(tsenc::decode_once(&seal(MODE_COLUMNAR, &body)).is_err());
}

#[test]
fn column_frame_length_lies_are_rejected() {
    // A frame claiming a body far past the end of the stream.
    let mut body = Vec::new();
    put_varint(&mut body, 1);
    put_varint(&mut body, 1);
    body.push(19); // Traffic's index in SensorType::ALL
    put_varint(&mut body, 0);
    body.push(0); // codes column: Raw
    put_varint(&mut body, 1 << 40); // lying frame length
    assert!(matches!(
        tsenc::decode_once(&seal(MODE_COLUMNAR, &body)),
        Err(Error::UnexpectedEof { .. })
    ));

    // A frame whose declared length exceeds what its decoder consumes.
    let mut stream_body = Vec::new();
    put_varint(&mut stream_body, 1);
    put_varint(&mut stream_body, 1);
    stream_body.push(19);
    put_varint(&mut stream_body, 0);
    stream_body.push(0); // codes column: Raw
    put_varint(&mut stream_body, 3); // three bytes declared…
    put_varint(&mut stream_body, 0); // …one consumed (code 0)
    stream_body.extend_from_slice(&[0, 0]); // slack the frame lies about
    assert!(matches!(
        tsenc::decode_once(&seal(MODE_COLUMNAR, &stream_body)),
        Err(Error::Malformed { .. })
    ));
}

#[test]
fn rle_runs_that_overshoot_the_column_are_rejected() {
    let mut body = Vec::new();
    put_varint(&mut body, 1); // one record
    put_varint(&mut body, 1); // one staged sensor
    body.push(19); // Traffic
    put_varint(&mut body, 0);
    // Codes column: RLE claiming a 200-run for a 1-int column.
    let mut rle = Vec::new();
    put_varint(&mut rle, 0); // value
    put_varint(&mut rle, 200); // run
    body.push(3); // Technique::Rle
    put_varint(&mut body, rle.len() as u64);
    body.extend_from_slice(&rle);
    assert!(matches!(
        tsenc::decode_once(&seal(MODE_COLUMNAR, &body)),
        Err(Error::Malformed { .. })
    ));
}

#[test]
fn unknown_mode_and_technique_tags_are_rejected() {
    assert!(matches!(
        tsenc::decode_once(&seal(7, &[])),
        Err(Error::Malformed { .. })
    ));

    let mut body = Vec::new();
    put_varint(&mut body, 1);
    put_varint(&mut body, 1);
    body.push(19);
    put_varint(&mut body, 0);
    body.push(9); // no such technique
    put_varint(&mut body, 0);
    assert!(matches!(
        tsenc::decode_once(&seal(MODE_COLUMNAR, &body)),
        Err(Error::Malformed { .. })
    ));
}

#[test]
fn fallback_bodies_are_validated_end_to_end() {
    // Garbage that is not a deflate stream.
    assert!(tsenc::decode_once(&seal(MODE_FALLBACK, &[0xde, 0xad, 0xbe, 0xef])).is_err());

    // A genuine deflate stream whose verbatim payload lies about its
    // record count.
    let mut verbatim = Vec::new();
    put_varint(&mut verbatim, 100); // declares 100 records, carries none
    let packed = deflate::compress(&verbatim).unwrap();
    assert!(tsenc::decode_once(&seal(MODE_FALLBACK, &packed)).is_err());

    // A genuine deflate stream with trailing bytes after the last
    // record.
    let mut verbatim = Vec::new();
    put_varint(&mut verbatim, 0);
    verbatim.extend_from_slice(b"junk");
    let packed = deflate::compress(&verbatim).unwrap();
    assert!(matches!(
        tsenc::decode_once(&seal(MODE_FALLBACK, &packed)),
        Err(Error::Malformed { .. })
    ));
}

#[test]
fn value_range_lies_are_rejected() {
    // A flag column carrying a 2: ParkingSpot is index 15 in ALL.
    let mut body = Vec::new();
    put_varint(&mut body, 1);
    put_varint(&mut body, 1);
    body.push(15); // ParkingSpot
    put_varint(&mut body, 0);
    body.push(0); // codes: Raw [0]
    put_varint(&mut body, 1);
    put_varint(&mut body, 0);
    body.push(0); // timestamps: Raw [900]
    let mut ts = Vec::new();
    put_varint(&mut ts, 900);
    put_varint(&mut body, ts.len() as u64);
    body.extend_from_slice(&ts);
    body.push(0); // flag column: Raw [2] — out of range
    let mut flag = Vec::new();
    put_varint(&mut flag, 2);
    put_varint(&mut body, flag.len() as u64);
    body.extend_from_slice(&flag);
    assert!(matches!(
        tsenc::decode_once(&seal(MODE_COLUMNAR, &body)),
        Err(Error::Malformed { .. })
    ));
}

#[test]
fn failed_decodes_leave_the_stream_dictionary_untouched() {
    let mut enc = StreamEncoder::new();
    let mut dec = StreamDecoder::new();
    let first = sample_batch();
    let payload_a = enc.encode_batch(&first).unwrap();
    assert_eq!(dec.decode_batch(&payload_a).unwrap(), first);
    let committed = dec.dict_len();
    assert!(committed > 0);

    // A second batch arrives damaged in every possible single-byte way:
    // each attempt must fail AND leave the dictionary where it was.
    let second = vec![Reading::new(
        SensorId::new(SensorType::ParkingSpot, 9),
        19_800,
        Value::Flag(true),
    )];
    let payload_b = enc.encode_batch(&second).unwrap();
    for i in 0..payload_b.len() {
        let mut bad = payload_b.clone();
        bad[i] ^= 0xFF;
        assert!(dec.decode_batch(&bad).is_err());
        assert_eq!(dec.dict_len(), committed, "corrupt byte {i} moved the dict");
    }

    // The clean re-delivery still applies and advances both sides.
    assert_eq!(dec.decode_batch(&payload_b).unwrap(), second);
    assert_eq!(dec.dict_len(), enc.dict_len());
}

#[test]
fn declared_dictionary_additions_cost_linear_time() {
    // The re-add check runs per declared addition; were it a scan of the
    // additions so far, this payload's 150 000 of them would take tens of
    // seconds to refuse or accept. A set probe makes it the payload's size.
    const ADDITIONS: u32 = 150_000;
    let additions = |last: u32| {
        let mut body = Vec::new();
        put_varint(&mut body, u64::from(ADDITIONS));
        put_varint(&mut body, u64::from(ADDITIONS));
        for index in (0..ADDITIONS - 1).chain([last]) {
            body.push(SensorType::Traffic.ordinal() as u8);
            put_varint(&mut body, u64::from(index));
        }
        body
    };
    // All distinct, then no columns: read to the end, refused as truncated.
    let distinct = seal(MODE_COLUMNAR, &additions(ADDITIONS - 1));
    let started = std::time::Instant::now();
    assert!(matches!(
        tsenc::decode_once(&distinct),
        Err(Error::UnexpectedEof { .. })
    ));
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "decode time must follow payload bytes, took {elapsed:?}"
    );

    // The last addition repeats the first staged one: still refused, at
    // the repeat's own offset.
    let body = additions(0);
    let repeat_at = 5 + body.len() - 2;
    assert_eq!(
        tsenc::decode_once(&seal(MODE_COLUMNAR, &body)),
        Err(Error::Malformed {
            reason: "dictionary re-adds a known sensor",
            offset: repeat_at,
        })
    );
}
