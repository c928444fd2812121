//! Integration over the assembled city: participatory sensing through
//! `F2cCity`'s write path, across all crates.

use f2c_smartcity::core::F2cCity;
use f2c_smartcity::sensors::sources::ParticipatorySource;

#[test]
fn participatory_readings_flow_through_the_hierarchy() {
    let mut city = F2cCity::barcelona().unwrap();
    let mut phones = ParticipatorySource::new(200, 73, 11);
    let mut offered = 0u64;
    let mut stored = 0u64;
    for round in 0..10u64 {
        let t = round * 300;
        // Group contributions by the section the device is currently in.
        let mut per_section: Vec<Vec<_>> = (0..73).map(|_| Vec::new()).collect();
        for (section, reading) in phones.tick(t) {
            per_section[section as usize].push(reading);
        }
        for (section, readings) in per_section.into_iter().enumerate() {
            if readings.is_empty() {
                continue;
            }
            let out = city.ingest(section, readings, t + 1).unwrap();
            offered += out.offered;
            stored += out.stored;
        }
    }
    assert_eq!(offered, 2_000);
    assert!(stored < offered, "phone noise repeats get deduped too");
    let (fog1_bytes, fog2_bytes) = city.flush_all(4_000).unwrap();
    assert!(fog1_bytes > 0);
    assert_eq!(fog1_bytes, fog2_bytes);
    assert_eq!(city.cloud().store().len() as u64, stored);
}
