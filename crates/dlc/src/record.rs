//! The unit of data flowing through the life cycle.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use scc_sensors::{Reading, SensorType};
use serde::{Deserialize, Serialize};

use crate::descriptor::Descriptor;
use crate::quality::QualityReport;

/// One observation plus everything the life cycle has learned about it.
///
/// A record is copied into every tier it reaches, so its size is the
/// archive's unit of memory: 104 bytes — a 40-byte reading, 48 bytes of
/// tags and a 16-byte optional quality report.
///
/// # Examples
///
/// ```
/// use scc_dlc::DataRecord;
/// use scc_sensors::{Reading, SensorId, SensorType, Value};
///
/// let r = Reading::new(SensorId::new(SensorType::Weather, 1), 60, Value::from_f64(18.0));
/// let rec = DataRecord::from_reading(r);
/// assert_eq!(rec.descriptor().created_s(), 60);
/// assert!(rec.quality().is_none()); // not yet assessed
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataRecord {
    reading: Reading,
    descriptor: Descriptor,
    quality: Option<QualityReport>,
}

impl DataRecord {
    /// Wraps a raw reading; the descriptor starts with only the creation
    /// time (the reading's timestamp).
    pub fn from_reading(reading: Reading) -> Self {
        let descriptor = Descriptor::created_at(reading.timestamp_s());
        Self {
            reading,
            descriptor,
            quality: None,
        }
    }

    /// The wrapped observation.
    pub fn reading(&self) -> &Reading {
        &self.reading
    }

    /// The sensor type (convenience).
    pub fn sensor_type(&self) -> SensorType {
        self.reading.sensor_type()
    }

    /// The descriptor tags.
    pub fn descriptor(&self) -> &Descriptor {
        &self.descriptor
    }

    /// Mutable descriptor access (used by phases).
    pub fn descriptor_mut(&mut self) -> &mut Descriptor {
        &mut self.descriptor
    }

    /// The quality assessment, if the quality phase ran.
    pub fn quality(&self) -> Option<&QualityReport> {
        self.quality.as_ref()
    }

    /// Records a quality assessment.
    pub(crate) fn set_quality(&mut self, report: QualityReport) {
        self.quality = Some(report);
    }

    /// Approximate wire size of this record in bytes (its Sentilo text
    /// encoding) — used for traffic accounting of record batches.
    pub fn wire_len(&self) -> u64 {
        scc_sensors::wire::encoded_len(&self.reading) as u64 + 1
    }
}

/// A record lends its reading, so a codec over readings takes records
/// as they are.
impl AsRef<Reading> for DataRecord {
    fn as_ref(&self) -> &Reading {
        &self.reading
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::QualityReport;
    use scc_sensors::{SensorId, Value};

    fn record(t: u64) -> DataRecord {
        DataRecord::from_reading(Reading::new(
            SensorId::new(SensorType::Temperature, 0),
            t,
            Value::from_f64(20.0),
        ))
    }

    #[test]
    fn creation_time_comes_from_reading() {
        let rec = record(1234);
        assert_eq!(rec.descriptor().created_s(), 1234);
        assert_eq!(rec.reading().timestamp_s(), 1234);
    }

    #[test]
    fn quality_is_settable_once_assessed() {
        let mut rec = record(0);
        rec.set_quality(QualityReport::perfect());
        assert!(rec.quality().unwrap().passed());
    }

    #[test]
    fn wire_len_matches_encoding() {
        let rec = record(99);
        let line = scc_sensors::wire::encode(rec.reading());
        assert_eq!(rec.wire_len(), line.len() as u64 + 1);
    }
}
