//! Data quality: assesses every record against the [`QualityPolicy`] and
//! (optionally) drops failures, "assessing and guaranteeing higher data
//! quality" at fog layer 1 (§IV.A).

use crate::phase::{Block, Phase, PhaseContext};
use crate::quality::QualityPolicy;
use crate::record::DataRecord;

/// Quality assessment phase.
#[derive(Debug, Clone, Default)]
pub struct QualityPhase {
    policy: QualityPolicy,
    drop_failures: bool,
    dropped: u64,
}

impl QualityPhase {
    /// Assess and *drop* records that fail (the paper's design: downstream
    /// blocks receive only quality-checked data).
    pub fn dropping_failures() -> Self {
        Self {
            policy: QualityPolicy::paper_default(),
            drop_failures: true,
            dropped: 0,
        }
    }

    /// Assess but keep failures (tagged with their reports) — useful for
    /// audit pipelines.
    pub fn tagging_only() -> Self {
        Self {
            policy: QualityPolicy::paper_default(),
            drop_failures: false,
            dropped: 0,
        }
    }

    /// Overrides the policy.
    pub fn with_policy(mut self, policy: QualityPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Records dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Assesses one record and attaches the report; returns whether the
    /// record stays (it passed, or failures are kept). A dropped record
    /// is counted here.
    pub fn check(&mut self, rec: &mut DataRecord, ctx: &PhaseContext) -> bool {
        let collected = rec.descriptor().collected_s().unwrap_or(ctx.now_s);
        let report = self.policy.assess(
            rec.sensor_type(),
            rec.reading().value(),
            rec.descriptor().created_s(),
            collected,
        );
        let keep = report.passed() || !self.drop_failures;
        rec.set_quality(report);
        if !keep {
            self.dropped += 1;
        }
        keep
    }
}

impl Phase for QualityPhase {
    fn name(&self) -> &'static str {
        "data-quality"
    }

    fn block(&self) -> Block {
        Block::Acquisition
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
        assert_eq!(phase.dropped(), 0);
    }

    #[test]
    fn double_violation_is_dropped() {
        let mut phase = QualityPhase::dropping_failures();
        // Out of range AND stale (created 0, assessed at 10000).
        let out = phase.run(vec![rec(0, 500.0)], &PhaseContext::at(10_000));
        assert!(out.is_empty());
        assert_eq!(phase.dropped(), 1);
    }

    #[test]
    fn tagging_only_keeps_failures() {
        let mut phase = QualityPhase::tagging_only();
        let out = phase.run(vec![rec(0, 500.0)], &PhaseContext::at(10_000));
        assert_eq!(out.len(), 1);
        assert!(!out[0].quality().unwrap().passed());
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
