//! The unit of data flowing through the life cycle.

use scc_sensors::{Located, Reading, SensorType};
use serde::{Deserialize, Serialize};

use crate::descriptor::{Descriptor, Location};

/// One observation and where it was acquired.
///
/// A record is copied into every tier it reaches, so its size is the
/// archive's unit of memory: 48 bytes — a 40-byte reading and the
/// district and section the description phase located it in. Every other
/// tag is derived on read ([`DataRecord::descriptor`]).
///
/// # Examples
///
/// ```
/// use scc_dlc::DataRecord;
/// use scc_sensors::{Reading, SensorId, SensorType, Value};
///
/// let r = Reading::new(SensorId::new(SensorType::Weather, 1), 60, Value::from_f64(18.0));
/// let mut rec = DataRecord::from_reading(r);
/// assert_eq!(rec.descriptor().created_s(), 60);
/// assert_eq!(rec.descriptor().section(), None); // not yet described
/// rec.set_location(3, 21);
/// assert_eq!(rec.descriptor().district(), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataRecord {
    reading: Reading,
    location: Option<Location>,
}

impl DataRecord {
    /// Wraps a raw reading, not yet located.
    pub fn from_reading(reading: Reading) -> Self {
        Self {
            reading,
            location: None,
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

    /// The description tags, computed from the record.
    #[inline]
    pub fn descriptor(&self) -> Descriptor {
        Descriptor {
            created_s: self.reading.timestamp_s(),
            location: self.location,
        }
    }

    /// Locates the record in `section` of `district` of the city the
    /// description phase serves.
    pub fn set_location(&mut self, district: u16, section: u16) {
        self.location = Some(Location { district, section });
    }

    /// Heap bytes the record owns beyond its own size: a composite
    /// reading's field vector, nothing otherwise.
    pub fn heap_bytes(&self) -> u64 {
        self.reading.value().heap_bytes()
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

/// A record ships with the section it was acquired in; one that skipped
/// the description phase ships as section 0, like a bare reading.
impl Located for DataRecord {
    fn section(&self) -> u16 {
        self.location.map_or(0, |l| l.section)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn wire_len_matches_encoding() {
        let rec = record(99);
        let line = scc_sensors::wire::encode(rec.reading());
        assert_eq!(rec.wire_len(), line.len() as u64 + 1);
    }
}
