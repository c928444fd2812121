//! Data filtering: "performs some optimizations, such as data aggregation"
//! (§II). The paper's evaluated optimization is redundant-data
//! elimination, wrapped here as a phase over records.

use f2c_aggregate::RedundancyFilter;
use scc_sensors::Reading;

use crate::phase::{Phase, PhaseContext};
use crate::record::DataRecord;

/// Drops records whose reading repeats the sensor's previous value.
#[derive(Debug, Default)]
pub(crate) struct FilteringPhase {
    filter: RedundancyFilter,
}

impl FilteringPhase {
    /// The paper's configuration: pure redundant-data elimination.
    pub(crate) fn paper_default() -> Self {
        Self {
            filter: RedundancyFilter::new(),
        }
    }

    /// Decides whether `reading` is forwarded: a repeat of the sensor's
    /// previous value is not. Runs on the reading, before it is wrapped
    /// in a record.
    pub(crate) fn admit(&mut self, reading: &Reading) -> bool {
        self.filter.admit(reading)
    }
}

impl Phase for FilteringPhase {
    fn name(&self) -> &'static str {
        "data-filtering"
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
        let times: Vec<u64> = out.iter().map(|r| r.reading().timestamp_s()).collect();
        assert_eq!(times, vec![0, 120], "the two repeats are dropped");
    }

    #[test]
    fn state_persists_across_batches() {
        let mut phase = FilteringPhase::paper_default();
        phase.run(vec![rec(0, 5.0)], &PhaseContext::at(0));
        let out = phase.run(vec![rec(60, 5.0)], &PhaseContext::at(60));
        assert!(out.is_empty(), "repeat in a later batch must be caught");
    }
}
