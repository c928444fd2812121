//! End-to-end integration: raw sensor waves → fog-1 acquisition → fog-2 →
//! cloud preservation, across all crates.

use std::cmp::Ordering;

use f2c_smartcity::compress::tsenc;
use f2c_smartcity::core::runtime::populate_city;
use f2c_smartcity::core::{F2cCity, F2cNode, FlushPolicy, Parallelism, RetentionPolicy};
use f2c_smartcity::dlc::DataRecord;
use f2c_smartcity::sensors::{wire, Catalog, ReadingGenerator, SensorType};

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

/// `records` in one order that does not depend on which tier holds
/// them: by location, creation time and sensor, then by value.
fn sorted<'a>(records: impl IntoIterator<Item = &'a DataRecord>) -> Vec<DataRecord> {
    let key = |r: &DataRecord| {
        let d = r.descriptor();
        let id = r.reading().sensor();
        (
            d.district(),
            d.section(),
            d.created_s(),
            id.sensor_type(),
            id.index(),
        )
    };
    let mut out: Vec<DataRecord> = records.into_iter().cloned().collect();
    out.sort_by(|a, b| match key(a).cmp(&key(b)) {
        Ordering::Equal => wire::encode(a.reading()).cmp(&wire::encode(b.reading())),
        unequal => unequal,
    });
    out
}

#[test]
fn settled_upper_tiers_store_what_fog1_acquisition_stored() {
    // Every tier above fog 1 stores the records it decoded, never a copy
    // of its sender's: once a seeded warm-up has settled (its last wave
    // ships both hops), fog 2 and the cloud each hold exactly what the
    // fog-1 acquisition blocks stored, location included, at any
    // worker-thread count. A receiver that mislocates a record fails
    // here.
    for threads in [1, 4] {
        let mut city = F2cCity::barcelona().unwrap();
        city.set_parallelism(Parallelism::new(threads));
        let outcome = populate_city(&mut city, 20_000, 2017, 3_600, 900).unwrap();
        let fog1 =
            sorted((0..city.section_count()).flat_map(|s| city.fog1(s).store().archive().iter()));
        assert_eq!(fog1.len() as u64, outcome.stored, "fog 1 evicted nothing");
        assert!(fog1.iter().all(|r| r.descriptor().section().is_some()));
        let fog2 =
            sorted((0..city.district_count()).flat_map(|d| city.fog2(d).store().archive().iter()));
        assert!(fog1 == fog2, "threads={threads}: fog 2 differs from fog 1");
        let cloud = sorted(city.cloud().store().archive().iter());
        assert!(
            fog1 == cloud,
            "threads={threads}: the cloud differs from fog 1"
        );
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
    assert!(batch.payload.is_some());
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
    let payload = batch.payload.as_deref().expect("pending records ship");
    let text = wire::encode_batch(&tsenc::decode_once(payload).unwrap());
    assert!(
        payload.len() * 2 < text.len(),
        "compression should at least halve Sentilo text ({} vs {})",
        payload.len(),
        text.len()
    );
    assert_eq!(batch.uplink_bytes(), payload.len() as u64);
}
