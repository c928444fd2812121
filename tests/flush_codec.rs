//! Flush-codec differential conformance: capture every encoded shipment
//! a seeded city actually puts on the wire (both hops, warm-up and live
//! sharded load) and hold the corpus to three oracles — an independent
//! stream decoder decodes every batch to records that re-encode to the
//! same bytes, the `tsenc` payload never costs more than DEFLATE over
//! the decoded records' wire text plus the stream envelope, and the
//! corpus-wide uplink total lands the compression win the bench gates
//! on.

use std::collections::BTreeMap;

use f2c_smartcity::compress::{deflate, tsenc};
use f2c_smartcity::core::runtime::populate_city;
use f2c_smartcity::core::{F2cCity, Parallelism, ShipmentRecord};
use f2c_smartcity::dlc::DataRecord;
use f2c_smartcity::query::{parallel, EngineConfig, QueryEngine, WorkloadConfig};
use f2c_smartcity::sensors::wire;

/// One seeded corpus: warm a Barcelona city with the shipment tap open,
/// then keep it open through a sharded closed-loop workload with live
/// flush waves, and return every shipment that crossed either hop.
fn corpus(seed: u64, threads: usize) -> Vec<ShipmentRecord> {
    let mut city = F2cCity::barcelona().expect("city builds");
    city.set_parallelism(Parallelism::new(threads));
    city.set_capture_shipments(true);
    populate_city(&mut city, 20_000, seed, 3_600, 900).expect("warm-up runs");
    let mut engine = QueryEngine::new(city, EngineConfig::default());
    let config = WorkloadConfig {
        seed,
        requests: 800,
        users: 16,
        start_s: 3_600,
        flush_period_s: 300,
        ingest_period_s: 300,
        ingest_scale: 5_000,
        ..WorkloadConfig::default()
    };
    parallel::run(&mut engine, &config).expect("sharded workload runs");
    engine.city_mut().take_shipment_log()
}

#[test]
fn captured_shipments_decode_and_beat_deflate() {
    // Two seeds: the encoder no longer runs a trial DEFLATE per batch, so
    // oracle 2 below is the tripwire for "columnar never loses on real
    // traffic" and should see more than one city's worth of it.
    for seed in [2017, 4711] {
        check_corpus(seed, &corpus(seed, 4));
    }
}

fn check_corpus(seed: u64, corpus: &[ShipmentRecord]) {
    assert!(
        corpus.len() > 50,
        "seed {seed}: corpus suspiciously small ({} shipments) — the tap captured nothing",
        corpus.len()
    );
    assert!(
        corpus.iter().any(|s| s.hop == 1) && corpus.iter().any(|s| s.hop == 2),
        "seed {seed}: corpus must cover both flush hops"
    );

    // Oracle 1: a fresh decoder per (hop, origin) stream, fed in capture
    // order, decodes every batch — from nothing but the captured bytes,
    // as the receiver did — to records that an encoder fed the same
    // stream writes back to the same bytes: the decode lost nothing.
    let mut decoders: BTreeMap<(u8, u16), tsenc::StreamDecoder> = BTreeMap::new();
    let mut encoders: BTreeMap<(u8, u16), tsenc::StreamEncoder> = BTreeMap::new();
    let mut uplink = 0u64;
    let mut deflated = 0u64;
    let mut records = 0u64;
    for (i, shipment) in corpus.iter().enumerate() {
        let decoder = decoders.entry((shipment.hop, shipment.origin)).or_default();
        let decoded = decoder
            .decode_records(&shipment.payload, 0..=u16::MAX, |reading, section| {
                let mut record = DataRecord::from_reading(reading);
                record.set_location(0, section);
                record
            })
            .unwrap_or_else(|e| panic!("seed {seed} shipment {i} fails to decode: {e}"));
        let encoder = encoders.entry((shipment.hop, shipment.origin)).or_default();
        assert_eq!(
            encoder.encode_batch(&decoded).expect("decoded records encode"),
            shipment.payload,
            "seed {seed} shipment {i} (hop {} origin {}): its decoded records encode to other bytes",
            shipment.hop,
            shipment.origin
        );

        // Oracle 2: the codec never loses to DEFLATE over the records'
        // wire text inside the same envelope.
        let text = wire::encode_batch(&decoded);
        let packed = deflate::compress(&text).expect("wire text deflates");
        assert!(
            shipment.payload.len() <= packed.len() + tsenc::ENVELOPE_LEN,
            "seed {seed} shipment {i} (hop {} origin {}): tsenc {} B > deflate {} B + {} B framing",
            shipment.hop,
            shipment.origin,
            shipment.payload.len(),
            packed.len(),
            tsenc::ENVELOPE_LEN,
        );
        uplink += shipment.payload.len() as u64;
        deflated += packed.len() as u64;
        records += decoded.len() as u64;
    }

    // Oracle 3: across the whole corpus the columnar planes must beat
    // plain DEFLATE by a wide margin, not merely tie it — this is the
    // win `flush.bytes_per_record` gates in CI, reproduced from first
    // principles.
    assert!(records > 0, "seed {seed}: corpus carried no records");
    assert!(
        (uplink as f64) < 0.75 * deflated as f64,
        "seed {seed}: corpus uplink {uplink} B is not meaningfully below deflate {deflated} B"
    );
}

#[test]
fn shipment_corpus_is_seed_deterministic_and_thread_invariant() {
    // The capture tap rides the same canonical merge order as every
    // other observable: the corpus must be identical at any worker
    // thread count, and must change with the seed.
    let base = corpus(2017, 1);
    let wide = corpus(2017, 4);
    assert_eq!(
        base, wide,
        "shipment corpus differs between threads=1 and threads=4"
    );
    let other = corpus(2018, 1);
    assert_ne!(base, other, "different seeds must change the corpus");
}

#[test]
fn irregular_batches_are_refused_identically_from_records_and_readings() {
    use f2c_smartcity::compress::Error;
    use f2c_smartcity::sensors::{Reading, SensorId, SensorType, Value};
    // A parking spot shipping a scalar contradicts its type's shape, so
    // the encoder refuses the batch and names that record — from either
    // form, staging nothing.
    let readings: Vec<Reading> = (0..50u32)
        .map(|i| {
            let value = if i == 31 {
                Value::Scalar(200)
            } else {
                Value::Flag(i % 2 == 0)
            };
            Reading::new(SensorId::new(SensorType::ParkingSpot, i), 900, value)
        })
        .collect();
    let records: Vec<DataRecord> = readings
        .iter()
        .cloned()
        .map(DataRecord::from_reading)
        .collect();
    let mut encoder = tsenc::StreamEncoder::new();
    let from_records = encoder.encode_batch(&records);
    assert!(matches!(
        from_records,
        Err(Error::UnshippableRecord { record: 31, .. })
    ));
    assert_eq!(encoder.dict_len(), 0);
    assert_eq!(tsenc::encode_once(&readings), from_records);
}
