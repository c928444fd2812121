//! Data collection: the entry phase. Stamps every record with its
//! collection time (the fog node's clock), making staleness measurable by
//! the quality phase downstream.

use crate::phase::{Phase, PhaseContext};
use crate::record::DataRecord;

/// Stamps collection time on incoming records.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CollectionPhase;

impl CollectionPhase {
    /// Creates the phase.
    pub(crate) fn new() -> Self {
        Self
    }

    /// Stamps one record with the collection time.
    pub(crate) fn stamp(&self, rec: &mut DataRecord, ctx: &PhaseContext) {
        rec.descriptor_mut().stamp_collected(ctx.now_s);
    }
}

impl Phase for CollectionPhase {
    fn name(&self) -> &'static str {
        "data-collection"
    }

    fn run(&mut self, mut batch: Vec<DataRecord>, ctx: &PhaseContext) -> Vec<DataRecord> {
        for rec in &mut batch {
            self.stamp(rec, ctx);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{Reading, SensorId, SensorType, Value};

    #[test]
    fn stamps_collection_time() {
        let rec = DataRecord::from_reading(Reading::new(
            SensorId::new(SensorType::Temperature, 0),
            100,
            Value::from_f64(20.0),
        ));
        let mut phase = CollectionPhase::new();
        let out = phase.run(vec![rec], &PhaseContext::at(105));
        assert_eq!(out[0].descriptor().collected_s(), Some(105));
        assert_eq!(out[0].descriptor().created_s(), 100);
    }

    #[test]
    fn never_drops_records() {
        let recs: Vec<DataRecord> = (0..10)
            .map(|i| {
                DataRecord::from_reading(Reading::new(
                    SensorId::new(SensorType::Traffic, i),
                    0,
                    Value::Counter(0),
                ))
            })
            .collect();
        let mut phase = CollectionPhase::new();
        assert_eq!(phase.run(recs, &PhaseContext::at(0)).len(), 10);
    }
}
