//! Data dissemination: "providing a user interface for public or private
//! access to stored data, and responsible for implementing any protection,
//! privacy or security policies according to the city business
//! requirements" (§IV.B).

use scc_sensors::Category;

use crate::descriptor::PrivacyLevel;
use crate::preservation::ArchiveStore;
use crate::record::DataRecord;
use crate::{Error, Result};

/// Who is asking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessRole {
    /// Anonymous open-data consumer.
    Public,
    /// An authenticated city service.
    Service,
    /// Platform administration.
    Administrator,
}

impl AccessRole {
    /// Whether this role may read records at `level`.
    pub fn may_read(self, level: PrivacyLevel) -> bool {
        matches!(
            (self, level),
            (_, PrivacyLevel::Public)
                | (
                    AccessRole::Service | AccessRole::Administrator,
                    PrivacyLevel::Restricted,
                )
                | (AccessRole::Administrator, PrivacyLevel::Private)
        )
    }
}

/// Query constraints for the portal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryFilter {
    /// Restrict to one category.
    pub category: Option<Category>,
    /// Creation-time range `[from_s, until_s)`; `None` means unbounded.
    pub range_s: Option<(u64, u64)>,
}

/// The open-data access interface over an [`ArchiveStore`].
///
/// # Examples
///
/// ```
/// use scc_dlc::preservation::{ArchiveStore, AccessRole, OpenDataPortal, QueryFilter};
/// use scc_dlc::{DataRecord, PrivacyLevel};
/// use scc_sensors::{Reading, SensorId, SensorType, Value};
///
/// let mut store = ArchiveStore::new();
/// let mut rec = DataRecord::from_reading(Reading::new(
///     SensorId::new(SensorType::Weather, 0), 100, Value::from_f64(20.0)));
/// rec.descriptor_mut().set_privacy(PrivacyLevel::Public);
/// store.insert(rec);
///
/// let portal = OpenDataPortal::new();
/// let hits = portal.query(&store, AccessRole::Public, QueryFilter::default())?;
/// assert_eq!(hits.len(), 1);
/// # Ok::<(), scc_dlc::Error>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenDataPortal;

impl OpenDataPortal {
    /// Creates the portal.
    pub fn new() -> Self {
        Self
    }

    /// Queries `store` as `role`.
    ///
    /// Untagged records (no privacy level) are treated as
    /// [`PrivacyLevel::Private`] — fail closed.
    ///
    /// # Errors
    ///
    /// * [`Error::InvertedRange`] for a bad time range,
    /// * [`Error::AccessDenied`] when an explicit category request yields
    ///   only records the role may not read (the request was comprehensible
    ///   but forbidden, which is worth distinguishing from "no data").
    pub fn query<'a>(
        &self,
        store: &'a ArchiveStore,
        role: AccessRole,
        filter: QueryFilter,
    ) -> Result<Vec<&'a DataRecord>> {
        if let Some((from, until)) = filter.range_s {
            if until < from {
                return Err(Error::InvertedRange {
                    from_s: from,
                    until_s: until,
                });
            }
        }
        let mut denied = 0usize;
        let mut matched = 0usize;
        let mut out = Vec::new();
        for rec in store.iter() {
            if let Some(cat) = filter.category {
                if rec.sensor_type().category() != cat {
                    continue;
                }
            }
            if let Some((from, until)) = filter.range_s {
                let t = rec.descriptor().created_s();
                if t < from || t >= until {
                    continue;
                }
            }
            matched += 1;
            let level = rec.descriptor().privacy().unwrap_or(PrivacyLevel::Private);
            if role.may_read(level) {
                out.push(rec);
            } else {
                denied += 1;
            }
        }
        if matched > 0 && out.is_empty() && denied == matched {
            if let Some(cat) = filter.category {
                return Err(Error::AccessDenied {
                    provider: cat.provider().to_owned(),
                    policy: "privacy",
                });
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{Reading, SensorId, SensorType, Value};

    fn stored(ty: SensorType, t: u64, privacy: Option<PrivacyLevel>) -> DataRecord {
        let mut rec =
            DataRecord::from_reading(Reading::new(SensorId::new(ty, 0), t, Value::Counter(1)));
        if let Some(p) = privacy {
            rec.descriptor_mut().set_privacy(p);
        }
        rec
    }

    fn store() -> ArchiveStore {
        let mut s = ArchiveStore::new();
        s.insert(stored(SensorType::Weather, 10, Some(PrivacyLevel::Public)));
        s.insert(stored(
            SensorType::ElectricityMeter,
            20,
            Some(PrivacyLevel::Restricted),
        ));
        s.insert(stored(SensorType::ParkingSpot, 30, None)); // untagged
        s
    }

    #[test]
    fn public_sees_only_public() {
        let s = store();
        let portal = OpenDataPortal::new();
        let hits = portal
            .query(&s, AccessRole::Public, QueryFilter::default())
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].sensor_type(), SensorType::Weather);
    }

    #[test]
    fn city_service_sees_restricted_too() {
        let s = store();
        let portal = OpenDataPortal::new();
        let hits = portal
            .query(&s, AccessRole::Service, QueryFilter::default())
            .unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn administrator_sees_untagged_fail_closed_records() {
        let s = store();
        let portal = OpenDataPortal::new();
        let hits = portal
            .query(&s, AccessRole::Administrator, QueryFilter::default())
            .unwrap();
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn explicit_forbidden_category_is_an_error() {
        let s = store();
        let portal = OpenDataPortal::new();
        let err = portal
            .query(
                &s,
                AccessRole::Public,
                QueryFilter {
                    category: Some(Category::Energy),
                    range_s: None,
                },
            )
            .unwrap_err();
        assert!(matches!(err, Error::AccessDenied { .. }));
    }

    #[test]
    fn empty_category_is_not_an_error() {
        let s = store();
        let portal = OpenDataPortal::new();
        let hits = portal
            .query(
                &s,
                AccessRole::Public,
                QueryFilter {
                    category: Some(Category::Noise),
                    range_s: None,
                },
            )
            .unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn time_range_filters() {
        let s = store();
        let portal = OpenDataPortal::new();
        let hits = portal
            .query(
                &s,
                AccessRole::Administrator,
                QueryFilter {
                    category: None,
                    range_s: Some((15, 31)),
                },
            )
            .unwrap();
        assert_eq!(hits.len(), 2);
        let err = portal
            .query(
                &s,
                AccessRole::Administrator,
                QueryFilter {
                    category: None,
                    range_s: Some((31, 15)),
                },
            )
            .unwrap_err();
        assert!(matches!(err, Error::InvertedRange { .. }));
    }

    #[test]
    fn role_matrix() {
        assert!(AccessRole::Public.may_read(PrivacyLevel::Public));
        assert!(!AccessRole::Public.may_read(PrivacyLevel::Restricted));
        assert!(!AccessRole::Public.may_read(PrivacyLevel::Private));
        assert!(AccessRole::Service.may_read(PrivacyLevel::Restricted));
        assert!(!AccessRole::Service.may_read(PrivacyLevel::Private));
        assert!(AccessRole::Administrator.may_read(PrivacyLevel::Private));
    }
}
