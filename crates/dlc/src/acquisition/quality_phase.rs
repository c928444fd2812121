//! Data quality: refuses every record whose value contradicts its sensor
//! type's [`Shape`](scc_sensors::Shape), assesses the rest against the
//! [`QualityPolicy`] and drops failures, "assessing and guaranteeing
//! higher data quality" at fog layer 1 (§IV.A).

use crate::phase::{Phase, PhaseContext};
use crate::quality::QualityPolicy;
use crate::record::DataRecord;

/// Quality assessment phase.
#[derive(Debug, Clone, Default)]
pub(crate) struct QualityPhase {
    policy: QualityPolicy,
}

impl QualityPhase {
    /// Assess and *drop* records that fail (the paper's design: downstream
    /// blocks receive only quality-checked data).
    pub(crate) fn dropping_failures() -> Self {
        Self {
            policy: QualityPolicy::paper_default(),
        }
    }

    /// Assesses one record and attaches the report; returns whether the
    /// record passed and stays. A value its type's shape does not admit
    /// (another variant, or a composite of another field count) is
    /// refused unscored: no later phase, store or codec ever sees one.
    pub(crate) fn check(&mut self, rec: &mut DataRecord, ctx: &PhaseContext) -> bool {
        if !rec.sensor_type().shape().admits(rec.reading().value()) {
            return false;
        }
        let collected = rec.descriptor().collected_s().unwrap_or(ctx.now_s);
        let report = self.policy.assess(
            rec.sensor_type(),
            rec.reading().value(),
            rec.descriptor().created_s(),
            collected,
        );
        let keep = report.passed();
        rec.set_quality(report);
        keep
    }
}

impl Phase for QualityPhase {
    fn name(&self) -> &'static str {
        "data-quality"
    }

    fn run(&mut self, batch: Vec<DataRecord>, ctx: &PhaseContext) -> Vec<DataRecord> {
        let mut out = Vec::with_capacity(batch.len());
        for mut rec in batch {
            if self.check(&mut rec, ctx) {
                out.push(rec);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{Reading, SensorId, SensorType, Value};

    fn rec(created: u64, v: f64) -> DataRecord {
        DataRecord::from_reading(Reading::new(
            SensorId::new(SensorType::Temperature, 0),
            created,
            Value::from_f64(v),
        ))
    }

    #[test]
    fn passing_records_are_tagged_and_kept() {
        let mut phase = QualityPhase::dropping_failures();
        let out = phase.run(vec![rec(100, 21.0)], &PhaseContext::at(110));
        assert_eq!(out.len(), 1);
        assert!(out[0].quality().unwrap().passed());
    }

    #[test]
    fn double_violation_is_dropped() {
        let mut phase = QualityPhase::dropping_failures();
        // Out of range AND stale (created 0, assessed at 10000).
        let out = phase.run(vec![rec(0, 500.0)], &PhaseContext::at(10_000));
        assert!(out.is_empty());
    }

    #[test]
    fn misshaped_values_are_refused_before_scoring() {
        let mut phase = QualityPhase::dropping_failures();
        let mut check = |ty: SensorType, value: Value| {
            let mut rec = DataRecord::from_reading(Reading::new(SensorId::new(ty, 0), 0, value));
            (
                phase.check(&mut rec, &PhaseContext::at(0)),
                rec.quality().cloned(),
            )
        };
        // Weather reports five fields; a traffic counter is no scalar.
        assert_eq!(
            check(SensorType::Weather, Value::Composite(vec![100, 200])),
            (false, None)
        );
        assert_eq!(
            check(SensorType::Traffic, Value::from_f64(3.0)),
            (false, None)
        );
        let (kept, report) = check(
            SensorType::Weather,
            Value::Composite(vec![100, 200, 300, 400, 500]),
        );
        assert!(kept && report.is_some_and(|r| r.violations().is_empty()));
    }

    #[test]
    fn uses_collection_stamp_when_present() {
        let mut r = rec(100, 21.0);
        r.descriptor_mut().stamp_collected(150);
        let mut phase = QualityPhase::dropping_failures();
        // Phase context is far in the future, but staleness is measured
        // against the *collection* stamp (50 s), so the record passes.
        let out = phase.run(vec![r], &PhaseContext::at(1_000_000));
        assert_eq!(out.len(), 1);
        assert!(out[0].quality().unwrap().passed());
    }
}
