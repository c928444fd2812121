//! The SCC-DLC model across blocks: quality is checked exactly once, in
//! the acquisition block (the paper's design invariant).

use f2c_smartcity::core::F2cCity;
use f2c_smartcity::dlc::acquisition::AcquisitionBlock;
use f2c_smartcity::dlc::phase::PhaseContext;
use f2c_smartcity::dlc::quality::Violation;
use f2c_smartcity::obs::Labels;
use f2c_smartcity::sensors::{Reading, ReadingGenerator, SensorId, SensorType, Value};

#[test]
fn quality_is_checked_exactly_once_in_acquisition() {
    // The paper: "it is not necessary to implement any data quality phase
    // in the data processing nor in the data preservation blocks".
    let failing = || {
        // Six fields, the first out of range, and two hours old at
        // collection: two violations.
        Reading::new(
            SensorId::new(SensorType::AirQuality, 10),
            0,
            Value::Composite(vec![500_000, 0, 0, 0, 0, 0]),
        )
    };
    let mut acquisition = AcquisitionBlock::new("Barcelona", 0, 0);
    let mut gen = ReadingGenerator::for_population(SensorType::AirQuality, 10, 3);
    let mut wave = gen.wave(7_200);
    wave.push(failing());
    let out = acquisition.ingest(wave, &PhaseContext::at(7_201));
    assert_eq!(out.len(), 10);
    // Out of range and stale, in `Violation::ALL` order.
    assert_eq!(
        acquisition.refused().violations,
        [1, 1, 0],
        "assessed in acquisition"
    );

    // The city counts what acquisition refused, and no block after it
    // assesses again: flushing to the cloud moves no count.
    let mut city = F2cCity::barcelona().unwrap();
    let mut gen = ReadingGenerator::for_population(SensorType::AirQuality, 10, 3);
    let counted = |city: &F2cCity| {
        Violation::ALL.map(|kind| {
            let labels = Labels::new().service("ingest").kind(kind.label());
            city.metrics()
                .counter_named("ingest_quality_violations", labels)
        })
    };
    let mut wave = gen.wave(7_200);
    wave.push(failing());
    let stored = city.ingest(0, wave, 7_201).unwrap().stored;
    assert_eq!(counted(&city), [Some(1), Some(1), Some(0)]);
    city.flush_all(9_000).unwrap();
    assert_eq!(counted(&city), [Some(1), Some(1), Some(0)]);
    assert_eq!(city.cloud().store().len() as u64, stored);
}
