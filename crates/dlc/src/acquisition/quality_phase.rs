//! Data quality: refuses every reading whose value contradicts its sensor
//! type's [`Shape`](scc_sensors::Shape), assesses the rest against the
//! [`QualityPolicy`] and drops failures, "assessing and guaranteeing
//! higher data quality" at fog layer 1 (§IV.A).

use scc_sensors::Reading;

use crate::phase::PhaseContext;
use crate::quality::{QualityPolicy, QualityTally};

/// Quality assessment phase.
#[derive(Debug, Clone, Default)]
pub(crate) struct QualityPhase {
    policy: QualityPolicy,
    /// What the current wave refused; reset at the start of each wave.
    pub(crate) refused: QualityTally,
}

impl QualityPhase {
    /// Assess and *drop* records that fail (the paper's design: downstream
    /// blocks receive only quality-checked data).
    pub(crate) fn dropping_failures() -> Self {
        Self {
            policy: QualityPolicy::paper_default(),
            refused: QualityTally::default(),
        }
    }

    /// Assesses one reading collected at `ctx.now_s` and returns whether
    /// it passed and stays; a refused one is tallied. A value its type's
    /// shape does not admit (another variant, or a composite of another
    /// field count) is refused unscored: no later phase, store or codec
    /// ever sees one.
    pub(crate) fn check(&mut self, reading: &Reading, ctx: &PhaseContext) -> bool {
        if !reading.sensor_type().shape().admits(reading.value()) {
            self.refused.misshaped += 1;
            return false;
        }
        let report = self.policy.assess(
            reading.sensor_type(),
            reading.value(),
            reading.timestamp_s(),
            ctx.now_s,
        );
        let passed = report.passed();
        if !passed {
            for &kind in report.violations() {
                self.refused.violations[kind as usize] += 1;
            }
        }
        passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;
    use crate::record::DataRecord;
    use scc_sensors::{SensorId, SensorType, Value};

    /// The phase over a whole wave: the reference pipeline's step
    /// (`acquisition::tests::Model`).
    impl Phase for QualityPhase {
        fn name(&self) -> &'static str {
            "data-quality"
        }

        fn run(&mut self, mut batch: Vec<DataRecord>, ctx: &PhaseContext) -> Vec<DataRecord> {
            self.refused = QualityTally::default();
            batch.retain(|rec| self.check(rec.reading(), ctx));
            batch
        }
    }

    fn reading(created: u64, v: f64) -> Reading {
        Reading::new(
            SensorId::new(SensorType::Temperature, 0),
            created,
            Value::from_f64(v),
        )
    }

    #[test]
    fn passing_records_are_kept() {
        let mut phase = QualityPhase::dropping_failures();
        let rec = DataRecord::from_reading(reading(100, 21.0));
        let out = phase.run(vec![rec], &PhaseContext::at(110));
        assert_eq!(out.len(), 1);
        assert_eq!(phase.refused, QualityTally::default());
    }

    #[test]
    fn double_violation_is_dropped() {
        let mut phase = QualityPhase::dropping_failures();
        // Out of range AND stale (created 0, assessed at 10000).
        let rec = DataRecord::from_reading(reading(0, 500.0));
        let out = phase.run(vec![rec], &PhaseContext::at(10_000));
        assert!(out.is_empty());
        // Under both violations, in `Violation::ALL` order.
        assert_eq!(phase.refused.violations, [1, 1, 0]);
        // The next wave counts from zero.
        phase.run(Vec::new(), &PhaseContext::at(10_001));
        assert_eq!(phase.refused, QualityTally::default());
    }

    #[test]
    fn staleness_is_measured_against_the_acquisition_clock() {
        let mut phase = QualityPhase::dropping_failures();
        // Out of range, and an hour and a second old at collection.
        assert!(!phase.check(&reading(100, 500.0), &PhaseContext::at(3_701)));
        // One violation alone still passes.
        assert!(phase.check(&reading(100, 500.0), &PhaseContext::at(3_700)));
    }

    #[test]
    fn misshaped_values_are_refused_before_scoring() {
        let mut phase = QualityPhase::dropping_failures();
        let mut check = |ty: SensorType, value: Value| {
            phase.check(
                &Reading::new(SensorId::new(ty, 0), 0, value),
                &PhaseContext::at(0),
            )
        };
        // Weather reports five fields; a traffic counter is no scalar.
        assert!(!check(
            SensorType::Weather,
            Value::Composite(vec![100, 200])
        ));
        assert!(!check(SensorType::Traffic, Value::from_f64(3.0)));
        assert!(check(
            SensorType::Weather,
            Value::Composite(vec![100, 200, 300, 400, 500]),
        ));
        let refused = phase.refused;
        assert_eq!((refused.misshaped, refused.violations), (2, [0; 3]));
    }
}
