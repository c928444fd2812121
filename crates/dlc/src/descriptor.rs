//! Data description tags (§IV.A): "data description can be performed in
//! order to tag data according to the city business model considered, for
//! instance, timing information (creation, collection, modification, etc.),
//! location positioning (city, country, GPS coordinates), authoring,
//! privacy, and so on."

use serde::{Deserialize, Serialize};

/// Privacy class per sensor category; no record holds one (tests only).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum PrivacyLevel {
    /// Publishable through open-data interfaces.
    Public,
    /// Restricted to city services.
    Restricted,
    /// Contains personal or sensitive information.
    Private,
}

/// Where a record was acquired: the district and section of the fog-1
/// node whose description phase tagged it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Location {
    pub(crate) district: u16,
    pub(crate) section: u16,
}

/// The tags describing one record, computed from the record on read
/// ([`DataRecord::descriptor`](crate::DataRecord::descriptor)).
///
/// A record stores its reading and its location, and nothing else; every
/// other tag is derived or held once:
/// - the creation time is the reading's timestamp;
/// - the location is what the description phase wrote at fog 1, absent
///   on a record that skipped it — visibly untagged rather than
///   silently defaulted;
/// - authoring and privacy are functions of the sensor type's category
///   (its Sentilo provider, and the description phase's per-category
///   privacy class);
/// - the collection time is the acquisition clock, which the quality
///   phase reads where it assesses staleness;
/// - the city is held once by the tagging phase
///   ([`AcquisitionBlock::city`](crate::acquisition::AcquisitionBlock::city)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    pub(crate) created_s: u64,
    pub(crate) location: Option<Location>,
}

impl Descriptor {
    /// Creation (measurement) time, seconds.
    #[inline]
    pub fn created_s(&self) -> u64 {
        self.created_s
    }

    /// District index.
    #[inline]
    pub fn district(&self) -> Option<u16> {
        self.location.map(|l| l.district)
    }

    /// Section (fog-1 area) index.
    #[inline]
    pub fn section(&self) -> Option<u16> {
        self.location.map(|l| l.section)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataRecord;
    use scc_sensors::{Reading, SensorId, SensorType, Value};

    fn record(created_s: u64) -> DataRecord {
        let id = SensorId::new(SensorType::Temperature, 0);
        DataRecord::from_reading(Reading::new(id, created_s, Value::from_f64(20.0)))
    }

    #[test]
    fn fresh_descriptor_is_untagged() {
        let d = record(100).descriptor();
        assert_eq!(d.created_s(), 100);
        assert_eq!((d.district(), d.section()), (None, None));
    }

    #[test]
    fn full_tagging_roundtrip() {
        let mut rec = record(u64::MAX);
        for (district, section) in [(0, 0), (3, 21), (u16::MAX, u16::MAX)] {
            rec.set_location(district, section);
            let d = rec.descriptor();
            assert_eq!(d.created_s(), u64::MAX);
            assert_eq!((d.district(), d.section()), (Some(district), Some(section)));
        }
        assert_ne!(rec.descriptor(), record(u64::MAX).descriptor());
        assert_ne!(
            rec,
            record(u64::MAX),
            "a located record differs from an unlocated one"
        );
    }

    #[test]
    fn privacy_levels_order_by_sensitivity() {
        assert!(PrivacyLevel::Public < PrivacyLevel::Restricted);
        assert!(PrivacyLevel::Restricted < PrivacyLevel::Private);
    }
}
