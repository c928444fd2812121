//! The SCC-DLC model across blocks: acquisition output feeds processing
//! and preservation per the Fig. 1 flows, with quality checked exactly
//! once (the paper's design invariant).

use f2c_smartcity::dlc::acquisition::AcquisitionBlock;
use f2c_smartcity::dlc::age::AgePolicy;
use f2c_smartcity::dlc::phase::{Phase, PhaseContext};
use f2c_smartcity::dlc::preservation::{ArchivePhase, ClassificationPhase};
use f2c_smartcity::dlc::processing::{AnalysisPhase, ProcessPhase};
use f2c_smartcity::dlc::{AgeClass, Block, Pipeline};
use f2c_smartcity::sensors::{ReadingGenerator, SensorType};

#[test]
fn acquisition_to_processing_to_preservation() {
    let mut acquisition = AcquisitionBlock::new("Barcelona", 1, 5);

    let mut processing = Pipeline::new(Block::Processing);
    processing
        .push(Box::new(ProcessPhase::celsius_to_fahrenheit()))
        .unwrap();
    processing.push(Box::new(AnalysisPhase::new(4.0))).unwrap();

    let mut preservation = Pipeline::new(Block::Preservation);
    preservation
        .push(Box::new(ClassificationPhase::new()))
        .unwrap();
    let archive_idx = preservation.len();
    preservation.push(Box::new(ArchivePhase::new())).unwrap();
    let _ = archive_idx;

    let mut gen = ReadingGenerator::for_population(SensorType::Temperature, 30, 8);
    let mut processed_total = 0usize;
    let mut preserved_total = 0usize;
    for wave in 0..20u64 {
        let t = wave * 900;
        let ctx = PhaseContext::at(t + 1);
        let acquired = acquisition.ingest(gen.wave(t), &ctx);
        processed_total += processing.run(acquired.clone(), &ctx).len();
        preserved_total += preservation.run(acquired, &ctx).len();
    }
    // Fresh records take both paths (non-exclusive flows of Fig. 1).
    assert!(processed_total > 0);
    assert_eq!(processed_total, preserved_total);
}

#[test]
fn quality_is_checked_exactly_once_in_acquisition() {
    // The paper: "it is not necessary to implement any data quality phase
    // in the data processing nor in the data preservation blocks".
    let mut acquisition = AcquisitionBlock::new("Barcelona", 0, 0);
    let mut gen = ReadingGenerator::for_population(SensorType::AirQuality, 10, 3);
    let out = acquisition.ingest(gen.wave(0), &PhaseContext::at(1));
    for rec in &out {
        assert!(rec.quality().is_some(), "quality tagged in acquisition");
    }
    // Processing preserves the existing quality report untouched.
    let mut processing = Pipeline::new(Block::Processing);
    processing
        .push(Box::new(ProcessPhase::new(vec![])))
        .unwrap();
    let processed = processing.run(out.clone(), &PhaseContext::at(2));
    for (a, b) in out.iter().zip(&processed) {
        assert_eq!(a.quality(), b.quality());
    }
}

#[test]
fn age_classes_route_to_the_layers_of_section_iv_b() {
    let mut acquisition = AcquisitionBlock::new("Barcelona", 2, 9);
    let mut gen = ReadingGenerator::for_population(SensorType::BicycleFlow, 5, 1);
    let records = acquisition.ingest(gen.wave(1_000), &PhaseContext::at(1_000));
    assert!(!records.is_empty());
    let policy = AgePolicy::paper_default();
    for rec in &records {
        // At collection time the records are real-time (fog 1)...
        assert_eq!(rec.age_class(1_100, &policy), AgeClass::RealTime);
        // ...and a day later they are historical (the cloud).
        assert_eq!(rec.age_class(1_000 + 90_000, &policy), AgeClass::Historical);
    }
}

#[test]
fn mixed_block_pipelines_are_impossible_to_build() {
    let mut processing = Pipeline::new(Block::Processing);
    assert!(processing.push(Box::new(ArchivePhase::new())).is_err());
    let mut preservation = Pipeline::new(Block::Preservation);
    assert!(preservation
        .push(Box::new(AnalysisPhase::new(3.0)))
        .is_err());
}

#[test]
fn analysis_extracts_higher_value_data_that_can_be_preserved() {
    let mut analysis = AnalysisPhase::new(3.0);
    let mut gen = ReadingGenerator::for_population(SensorType::NoiseLeisureZone, 20, 4);
    for wave in 0..100u64 {
        let records = gen
            .wave(wave * 60)
            .into_iter()
            .map(f2c_smartcity::dlc::DataRecord::from_reading)
            .collect();
        analysis.run(records, &PhaseContext::at(wave * 60));
    }
    let summary = analysis.summary();
    let moments = summary.per_type[&SensorType::NoiseLeisureZone];
    assert_eq!(moments.count, 2000);
    // The extracted knowledge (mean noise level) is physically plausible.
    let mean = moments.mean().unwrap();
    assert!((25.0..=115.0).contains(&mean), "mean {mean}");
}
