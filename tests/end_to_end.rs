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
    // Two sections of different districts, each with its own sensor type,
    // so a cloud record's type names the fog 1 that ingested it.
    let sources = [(0, SensorType::Weather), (40, SensorType::Traffic)];
    assert_ne!(city.district_of(0), city.district_of(40));
    let mut gens: Vec<_> = sources
        .iter()
        .map(|&(_, ty)| ReadingGenerator::for_population(ty, 40, 5))
        .collect();

    let mut stored = [0u64; 2];
    for wave in 0..24u64 {
        let t = wave * 300;
        for (i, &(section, _)) in sources.iter().enumerate() {
            stored[i] += city.ingest(section, gens[i].wave(t), t + 1).unwrap().stored;
        }
    }
    city.flush_all(7200).unwrap();
    for (i, &(section, _)) in sources.iter().enumerate() {
        let fog2 = city.fog2(city.district_of(section));
        assert_eq!(fog2.store().len() as u64, stored[i]);
    }
    assert_eq!(city.cloud().store().len() as u64, stored[0] + stored[1]);
    // Every record at the cloud still carries the location its fog 1
    // gave it, three tiers up.
    for rec in city.cloud().store().archive().iter() {
        let section = sources
            .iter()
            .find(|&&(_, ty)| ty == rec.sensor_type())
            .map(|&(section, _)| section)
            .expect("only the two sources reach the cloud");
        let d = rec.descriptor();
        assert_eq!(d.section(), Some(section as u16));
        assert_eq!(d.district(), Some(city.district_of(section) as u16));
        assert_eq!(d.created_s(), rec.reading().timestamp_s());
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
    fog1.commit_flush(3600);
    assert!(!batch.records.is_empty());
    // Flushing ships copies; local data stays for real-time reads.
    assert_eq!(fog1.store().len(), stored_before);
    // A day later, retention has evicted everything.
    let _ = fog1.flush(2 * 86_400, &catalog).unwrap();
    fog1.commit_flush(2 * 86_400);
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
