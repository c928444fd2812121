//! Data filtering: "performs some optimizations, such as data aggregation"
//! (§II). The paper's evaluated optimization is redundant-data
//! elimination, wrapped here as a phase over records.

use f2c_aggregate::RedundancyFilter;
use scc_sensors::Reading;

use crate::phase::{Block, Phase, PhaseContext};
use crate::record::DataRecord;

/// Drops records whose reading repeats the sensor's previous value.
#[derive(Debug, Default)]
pub struct FilteringPhase {
    filter: RedundancyFilter,
}

impl FilteringPhase {
    /// The paper's configuration: pure redundant-data elimination.
    pub fn paper_default() -> Self {
        Self {
            filter: RedundancyFilter::new(),
        }
    }

    /// A variant that re-admits unchanged values every `heartbeat_s`
    /// seconds so silence stays distinguishable from constancy.
    pub fn with_heartbeat(heartbeat_s: u64) -> Self {
        Self {
            filter: RedundancyFilter::with_heartbeat(heartbeat_s),
        }
    }

    /// Decides whether `reading` is forwarded: a repeat of the sensor's
    /// previous value is not. Runs on the reading, before it is wrapped
    /// in a record.
    pub fn admit(&mut self, reading: &Reading) -> bool {
        self.filter.admit(reading)
    }

    /// Accumulated dedup statistics.
    pub fn stats(&self) -> f2c_aggregate::DedupStats {
        self.filter.stats()
    }
}

impl Phase for FilteringPhase {
    fn name(&self) -> &'static str {
        "data-filtering"
    }

    fn block(&self) -> Block {
        Block::Acquisition
    }

    fn run(&mut self, batch: Vec<DataRecord>, _ctx: &PhaseContext) -> Vec<DataRecord> {
        batch
            .into_iter()
            .filter(|rec| self.admit(rec.reading()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{Reading, SensorId, SensorType, Value};

    fn rec(t: u64, v: f64) -> DataRecord {
        DataRecord::from_reading(Reading::new(
            SensorId::new(SensorType::Temperature, 0),
            t,
            Value::from_f64(v),
        ))
    }

    #[test]
    fn repeats_are_filtered() {
        let mut phase = FilteringPhase::paper_default();
        let out = phase.run(
            vec![rec(0, 1.0), rec(60, 1.0), rec(120, 2.0), rec(180, 2.0)],
            &PhaseContext::at(200),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(phase.stats().suppressed, 2);
    }

    #[test]
    fn state_persists_across_batches() {
        let mut phase = FilteringPhase::paper_default();
        phase.run(vec![rec(0, 5.0)], &PhaseContext::at(0));
        let out = phase.run(vec![rec(60, 5.0)], &PhaseContext::at(60));
        assert!(out.is_empty(), "repeat in a later batch must be caught");
    }

    #[test]
    fn heartbeat_variant_readmits() {
        let mut phase = FilteringPhase::with_heartbeat(100);
        phase.run(vec![rec(0, 5.0)], &PhaseContext::at(0));
        let out = phase.run(vec![rec(150, 5.0)], &PhaseContext::at(150));
        assert_eq!(out.len(), 1);
    }
}
