//! End-to-end integration: raw sensor waves → fog-1 acquisition → fog-2 →
//! cloud preservation, across all crates.

use f2c_smartcity::core::{F2cCity, F2cNode, FlushPolicy, RetentionPolicy};
use f2c_smartcity::sensors::{Catalog, ReadingGenerator, SensorType};

/// A lone fog-1 node with the paper's policies.
fn fog1() -> F2cNode {
    F2cNode::fog1(
        0,
        0,
        FlushPolicy::paper_fog1(),
        RetentionPolicy::keep(86_400),
    )
    .unwrap()
}

#[test]
fn readings_survive_the_full_hierarchy() {
    let mut city = F2cCity::barcelona().unwrap();
    let mut gen = ReadingGenerator::for_population(SensorType::Weather, 40, 5);

    let mut stored_total = 0u64;
    for wave in 0..24u64 {
        let t = wave * 300;
        stored_total += city.ingest(0, gen.wave(t), t + 1).unwrap().stored;
    }
    city.flush_all(7200).unwrap();
    assert_eq!(city.fog2(0).store().len() as u64, stored_total);
    assert_eq!(city.cloud().store().len() as u64, stored_total);
    // Every record at the cloud is fully described and quality-tagged.
    for rec in city.cloud().store().archive().iter() {
        assert!(rec.descriptor().is_fully_described());
        assert!(rec.quality().expect("assessed at fog 1").passed());
    }
}

#[test]
fn fog1_retention_keeps_realtime_data_local_after_flush() {
    let catalog = Catalog::barcelona();
    let mut fog1 = fog1();
    let mut gen = ReadingGenerator::for_population(SensorType::ParkingSpot, 20, 3);
    for wave in 0..4u64 {
        let t = wave * 900;
        fog1.ingest_wave(gen.wave(t), t + 1, &catalog).unwrap();
    }
    let stored_before = fog1.store().len();
    let batch = fog1.flush(3600, &catalog).unwrap();
    assert!(!batch.records.is_empty());
    // Flushing ships copies; local data stays for real-time reads.
    assert_eq!(fog1.store().len(), stored_before);
    // A day later, retention has evicted everything.
    let _ = fog1.flush(2 * 86_400, &catalog).unwrap();
    assert!(fog1.store().is_empty());
}

#[test]
fn compression_reduces_what_crosses_the_uplink() {
    let catalog = Catalog::barcelona();
    let mut fog1 = fog1();
    let mut gen = ReadingGenerator::for_population(SensorType::NoiseTrafficZone, 300, 4);
    for wave in 0..10u64 {
        let t = wave * 60;
        fog1.ingest_wave(gen.wave(t), t + 1, &catalog).unwrap();
    }
    let batch = fog1.flush(600, &catalog).unwrap();
    let compressed = batch.compressed_bytes().expect("paper policy compresses");
    assert!(
        compressed * 2 < batch.wire_bytes(),
        "compression should at least halve Sentilo text ({} vs {})",
        compressed,
        batch.wire_bytes()
    );
    assert_eq!(batch.uplink_bytes(), compressed);
}
