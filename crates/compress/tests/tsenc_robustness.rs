//! Adversarial-input robustness for the `tsenc` decoder: truncated,
//! bit-flipped and length-lying streams must return `Err` — never
//! panic, never allocate past the validated counts — and a failed
//! decode must leave the stream decoder's dictionary untouched so a
//! clean re-delivery still applies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use f2c_compress::tsenc::{
    self, put_varint, StreamDecoder, StreamEncoder, MAX_RECORDS, MODE_COLUMNAR,
};
use f2c_compress::{crc32, deflate, Error};
use scc_sensors::{Reading, SensorId, SensorType, Value};

thread_local! {
    /// The largest single allocation this thread has asked for.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct LargestAlloc;

fn note(bytes: usize) {
    // `try_with`: allocations during thread teardown find the slot gone.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the record is a plain thread-local
// integer and touches no memory the allocator hands out.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

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

/// Decodes `stream` on a fresh decoder.
fn decode(stream: &[u8]) -> Result<Vec<Reading>, Error> {
    StreamDecoder::new().decode_batch(stream)
}

#[test]
fn every_truncation_of_a_valid_stream_fails_cleanly() {
    for readings in [sample_batch(), Vec::new()] {
        let encoded = tsenc::encode_once(&readings).unwrap();
        assert_eq!(decode(&encoded), Ok(readings.clone()));
        for len in 0..encoded.len() {
            assert!(
                decode(&encoded[..len]).is_err(),
                "prefix of {len}/{} bytes decoded",
                encoded.len()
            );
        }
    }
}

#[test]
fn every_bitflip_of_a_valid_stream_fails_cleanly() {
    let batch = sample_batch();
    let encoded = tsenc::encode_once(&batch).unwrap();
    for i in 0..encoded.len() {
        for bit in 0..8 {
            let mut bad = encoded.clone();
            bad[i] ^= 1u8 << bit;
            assert!(
                decode(&bad).is_err(),
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
        decode(&seal(MODE_COLUMNAR, &body)),
        Err(Error::SizeLimitExceeded { .. })
    ));

    // n within the cap but far past the actual data: the column decoder
    // must hit EOF, not materialize 4M phantom records.
    let mut body = Vec::new();
    put_varint(&mut body, MAX_RECORDS);
    put_varint(&mut body, 0);
    assert!(decode(&seal(MODE_COLUMNAR, &body)).is_err());
}

/// The largest single allocation `f` makes on this thread, with its
/// outcome.
fn largest_alloc_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

#[test]
fn declared_column_counts_allocate_nothing_the_body_cannot_hold() {
    // 18 bytes: MAX_RECORDS records, no additions, and a codes frame
    // holding one Rle run of one record. The decoder once reserved the
    // whole declared column (32 MiB) before reading the run.
    let mut rle = Vec::new();
    put_varint(&mut rle, MAX_RECORDS);
    put_varint(&mut rle, 0);
    rle.push(3); // Technique::Rle
    put_varint(&mut rle, 2);
    put_varint(&mut rle, 0); // value
    put_varint(&mut rle, 1); // run
    let rle = seal(MODE_COLUMNAR, &rle);
    assert_eq!(rle.len(), 18);

    // 20 bytes: a Dict codes frame that declares 4 M distinct values and
    // holds none. The decoder once reserved all of them up front.
    let mut dict = Vec::new();
    put_varint(&mut dict, MAX_RECORDS);
    put_varint(&mut dict, 0);
    dict.push(4); // Technique::Dict
    put_varint(&mut dict, 4);
    put_varint(&mut dict, MAX_RECORDS); // n_distinct
    let dict = seal(MODE_COLUMNAR, &dict);
    assert_eq!(dict.len(), 20);

    for (what, stream) in [("rle", &rle), ("dict", &dict)] {
        let (decoded, largest) = largest_alloc_in(|| StreamDecoder::new().decode_batch(stream));
        assert!(
            matches!(decoded, Err(Error::UnexpectedEof { .. })),
            "{what}: {decoded:?}"
        );
        assert!(
            largest <= 1024,
            "{what}: decode allocated {largest} B at once"
        );
    }
}

#[test]
fn dictionary_lies_are_rejected() {
    // More staged additions than records.
    let mut body = Vec::new();
    put_varint(&mut body, 1);
    put_varint(&mut body, 2);
    assert!(matches!(
        decode(&seal(MODE_COLUMNAR, &body)),
        Err(Error::Malformed { .. })
    ));

    // A staged addition with an unknown sensor type code.
    let mut body = Vec::new();
    put_varint(&mut body, 1);
    put_varint(&mut body, 1);
    body.push(200); // only 21 types exist
    put_varint(&mut body, 0);
    assert!(matches!(
        decode(&seal(MODE_COLUMNAR, &body)),
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
    assert!(decode(&seal(MODE_COLUMNAR, &body)).is_err());
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
        decode(&seal(MODE_COLUMNAR, &body)),
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
        decode(&seal(MODE_COLUMNAR, &stream_body)),
        Err(Error::Malformed { .. })
    ));
}

#[test]
fn section_column_lies_are_rejected() {
    // One Traffic record, its sensor staged, its code 0; then `sections`.
    let body = |sections: &[u8]| {
        let mut body = Vec::new();
        put_varint(&mut body, 1);
        put_varint(&mut body, 1);
        body.push(SensorType::Traffic.ordinal() as u8);
        put_varint(&mut body, 0);
        body.push(0); // codes: Raw [0]
        put_varint(&mut body, 1);
        put_varint(&mut body, 0);
        body.extend_from_slice(sections);
        seal(MODE_COLUMNAR, &body)
    };
    // A section frame claiming a body far past the end of the stream.
    let mut past_the_end = vec![0];
    put_varint(&mut past_the_end, 1 << 40);
    assert!(matches!(
        decode(&body(&past_the_end)),
        Err(Error::UnexpectedEof { .. })
    ));
    // A frame declaring three bytes and consuming one (section 0).
    assert!(matches!(
        decode(&body(&[0, 3, 0, 0, 0])),
        Err(Error::Malformed {
            reason: "column frame length disagrees with its body",
            ..
        })
    ));
    // An Rle frame whose one run covers 200 sections of a one-record batch.
    assert!(matches!(
        decode(&body(&[3, 3, 0, 0xc8, 0x01])),
        Err(Error::Malformed {
            reason: "RLE runs do not sum to the column count",
            ..
        })
    ));
    // A section beyond 16 bits.
    let mut wide = vec![0];
    let mut section = Vec::new();
    put_varint(&mut section, 1 << 16);
    put_varint(&mut wide, section.len() as u64);
    wide.extend_from_slice(&section);
    assert!(matches!(
        decode(&body(&wide)),
        Err(Error::Malformed {
            reason: "section exceeds 16 bits",
            ..
        })
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
        decode(&seal(MODE_COLUMNAR, &body)),
        Err(Error::Malformed { .. })
    ));
}

#[test]
fn unknown_mode_and_technique_tags_are_rejected() {
    assert!(matches!(
        decode(&seal(7, &[])),
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
        decode(&seal(MODE_COLUMNAR, &body)),
        Err(Error::Malformed { .. })
    ));
}

/// A stream tagged mode 1, the retired DEFLATE-over-verbatim fallback
/// body, is refused by its mode byte whatever it carries, with a valid
/// CRC.
#[test]
fn fallback_bodies_are_validated_end_to_end() {
    let mode_one = |stream: &[u8]| {
        assert_eq!(
            decode(stream),
            Err(Error::Malformed {
                reason: "unknown stream mode",
                offset: 4,
            })
        );
    };
    // The frozen vector the encoder once wrote for a Traffic counter
    // reporting a flag: a `TSF1` stream, refused by its magic, and by its
    // mode once relabeled `TSF2` (the CRC does not cover the magic).
    let retired = "5453463101465a4331070000000000000002c11c9c00011300840702017606e9fe";
    let mut retired: Vec<u8> = (0..retired.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&retired[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(decode(&retired), Err(Error::BadMagic { found: *b"TSF1" }));
    retired[..4].copy_from_slice(&tsenc::MAGIC);
    mode_one(&retired);

    // Garbage, genuine DEFLATE bodies, and a body that is valid columnar.
    mode_one(&seal(1, &[0xde, 0xad, 0xbe, 0xef]));
    let mut verbatim = Vec::new();
    put_varint(&mut verbatim, 100); // declares 100 records, carries none
    mode_one(&seal(1, &deflate::compress(&verbatim).unwrap()));
    let valid = tsenc::encode_once(&sample_batch()).unwrap();
    mode_one(&seal(1, &valid[5..valid.len() - 4]));

    // A refused stream leaves the dictionary for a clean re-delivery.
    let mut decoder = StreamDecoder::new();
    assert!(decoder.decode_batch(&retired).is_err());
    assert_eq!(decoder.dict_len(), 0);
    assert_eq!(decoder.decode_batch(&valid), Ok(sample_batch()));
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
    body.push(0); // sections: Raw [0]
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
        decode(&seal(MODE_COLUMNAR, &body)),
        Err(Error::Malformed { .. })
    ));
}

#[test]
fn failed_decodes_leave_the_stream_dictionary_untouched() {
    let mut enc = StreamEncoder::new();
    let mut dec = StreamDecoder::new();
    let first = sample_batch();
    let payload_a = enc.encode_batch(&first).unwrap();
    assert_eq!(dec.decode_batch(&payload_a), Ok(first));
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
    assert_eq!(dec.decode_batch(&payload_b), Ok(second));
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
        decode(&distinct),
        Err(Error::UnexpectedEof { .. })
    ));
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "decode time must follow payload bytes, took {elapsed:?}"
    );

    // The last addition repeats the first staged one: still refused, at
    // the repeat's own offset.
    let body = additions(0);
    let repeat_at = 5 + body.len() - 2;
    assert_eq!(
        decode(&seal(MODE_COLUMNAR, &body)),
        Err(Error::Malformed {
            reason: "dictionary re-adds a known sensor",
            offset: repeat_at,
        })
    );
}
