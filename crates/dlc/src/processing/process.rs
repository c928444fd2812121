//! Data process: "a set of processes to transform raw data into more
//! sophisticated data/information" (§II).

use scc_sensors::{Reading, Value};

use crate::phase::{Block, Phase, PhaseContext};
use crate::record::DataRecord;

/// One value transformation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transform {
    /// Affine rescale: `v * factor + offset` (unit conversion).
    Scale {
        /// Multiplicative factor.
        factor: f64,
        /// Additive offset.
        offset: f64,
    },
    /// Clamp into `[min, max]`.
    Clamp {
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
    /// Round to `decimals` decimal places.
    Round {
        /// Number of decimal places to keep.
        decimals: u32,
    },
}

impl Transform {
    fn apply(self, v: f64) -> f64 {
        match self {
            Transform::Scale { factor, offset } => v * factor + offset,
            Transform::Clamp { min, max } => v.clamp(min, max),
            Transform::Round { decimals } => {
                let k = 10f64.powi(decimals as i32);
                (v * k).round() / k
            }
        }
    }
}

/// Applies an ordered list of transforms to every record's magnitude,
/// replacing the value with the transformed scalar and stamping the
/// modification time.
#[derive(Debug, Clone, Default)]
pub struct ProcessPhase {
    transforms: Vec<Transform>,
}

impl ProcessPhase {
    /// A phase applying `transforms` in order.
    pub fn new(transforms: Vec<Transform>) -> Self {
        Self { transforms }
    }

    /// Celsius → Fahrenheit, a concrete unit-conversion example.
    pub fn celsius_to_fahrenheit() -> Self {
        Self::new(vec![Transform::Scale {
            factor: 9.0 / 5.0,
            offset: 32.0,
        }])
    }
}

impl Phase for ProcessPhase {
    fn name(&self) -> &'static str {
        "data-process"
    }

    fn block(&self) -> Block {
        Block::Processing
    }

    fn run(&mut self, batch: Vec<DataRecord>, ctx: &PhaseContext) -> Vec<DataRecord> {
        batch
            .into_iter()
            .map(|rec| {
                let mut v = rec.reading().value().magnitude();
                for t in &self.transforms {
                    v = t.apply(v);
                }
                let reading = Reading::new(
                    rec.reading().sensor(),
                    rec.reading().timestamp_s(),
                    Value::from_f64(v),
                );
                let mut out = DataRecord::from_reading(reading);
                *out.descriptor_mut() = rec.descriptor().clone();
                out.descriptor_mut().stamp_modified(ctx.now_s);
                if let Some(q) = rec.quality() {
                    out.set_quality(q.clone());
                }
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{SensorId, SensorType};

    fn rec(v: f64) -> DataRecord {
        DataRecord::from_reading(Reading::new(
            SensorId::new(SensorType::Temperature, 0),
            100,
            Value::from_f64(v),
        ))
    }

    #[test]
    fn unit_conversion_works() {
        let mut phase = ProcessPhase::celsius_to_fahrenheit();
        let out = phase.run(vec![rec(100.0)], &PhaseContext::at(200));
        assert_eq!(out[0].reading().value().as_f64(), Some(212.0));
        assert_eq!(out[0].descriptor().modified_s(), Some(200));
    }

    #[test]
    fn transforms_compose_in_order() {
        let mut phase = ProcessPhase::new(vec![
            Transform::Scale {
                factor: 2.0,
                offset: 0.0,
            },
            Transform::Clamp {
                min: 0.0,
                max: 10.0,
            },
        ]);
        let out = phase.run(vec![rec(50.0)], &PhaseContext::at(0));
        assert_eq!(out[0].reading().value().as_f64(), Some(10.0));
    }

    #[test]
    fn rounding_quantizes() {
        let mut phase = ProcessPhase::new(vec![Transform::Round { decimals: 1 }]);
        let out = phase.run(vec![rec(3.26)], &PhaseContext::at(0));
        assert_eq!(out[0].reading().value().as_f64(), Some(3.3));
    }

    #[test]
    fn descriptor_and_quality_are_preserved() {
        let mut r = rec(1.0);
        r.descriptor_mut().set_location("Barcelona".into(), 1, 2);
        r.set_quality(crate::quality::QualityReport::perfect());
        let mut phase = ProcessPhase::new(vec![]);
        let out = phase.run(vec![r], &PhaseContext::at(5));
        assert_eq!(out[0].descriptor().city(), Some("Barcelona"));
        assert!(out[0].quality().unwrap().passed());
    }
}
