//! A single sensor observation.

use serde::{Deserialize, Serialize};

use crate::{SensorId, SensorType, Value};

/// One observation: who measured what, when.
///
/// Timestamps are seconds since the start of the simulated day (or epoch —
/// the substrate does not care, only ordering and age computations do).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Reading {
    sensor: SensorId,
    timestamp_s: u64,
    value: Value,
}

impl Reading {
    /// Creates a reading.
    pub fn new(sensor: SensorId, timestamp_s: u64, value: Value) -> Self {
        Self {
            sensor,
            timestamp_s,
            value,
        }
    }

    /// The reporting sensor.
    pub fn sensor(&self) -> SensorId {
        self.sensor
    }

    /// The sensor's type.
    pub fn sensor_type(&self) -> SensorType {
        self.sensor.sensor_type()
    }

    /// Observation time, seconds.
    pub fn timestamp_s(&self) -> u64 {
        self.timestamp_s
    }

    /// The measured value.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// Whether `other` is a redundant repetition of this reading: same
    /// sensor, same value (timestamps may differ — that is the point).
    pub fn is_redundant_with(&self, other: &Reading) -> bool {
        self.sensor == other.sensor && self.value == other.value
    }
}

/// Lets a consumer of readings take `&[Reading]` and `&[R]` for any
/// record type `R` that wraps one, without a copy in between.
impl AsRef<Reading> for Reading {
    fn as_ref(&self) -> &Reading {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id() -> SensorId {
        SensorId::new(SensorType::Temperature, 1)
    }

    #[test]
    fn redundancy_ignores_timestamp() {
        let a = Reading::new(id(), 100, Value::from_f64(20.0));
        let b = Reading::new(id(), 160, Value::from_f64(20.0));
        let c = Reading::new(id(), 160, Value::from_f64(20.1));
        assert!(a.is_redundant_with(&b));
        assert!(!a.is_redundant_with(&c));
    }

    #[test]
    fn redundancy_requires_same_sensor() {
        let a = Reading::new(
            SensorId::new(SensorType::Temperature, 1),
            0,
            Value::Flag(true),
        );
        let b = Reading::new(
            SensorId::new(SensorType::Temperature, 2),
            0,
            Value::Flag(true),
        );
        assert!(!a.is_redundant_with(&b));
    }
}
