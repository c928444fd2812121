//! Data description tags (§IV.A): "data description can be performed in
//! order to tag data according to the city business model considered, for
//! instance, timing information (creation, collection, modification, etc.),
//! location positioning (city, country, GPS coordinates), authoring,
//! privacy, and so on."

use std::sync::Arc;

use scc_sensors::Category;
use serde::{Deserialize, Serialize};

/// Privacy classification attached by the description phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PrivacyLevel {
    /// Publishable through open-data interfaces.
    Public,
    /// Restricted to city services.
    Restricted,
    /// Contains personal or sensitive information.
    Private,
}

/// Tags describing one data record.
///
/// Built incrementally: collection stamps timing, description fills
/// location/authoring/privacy. Missing tags are `None` — a record that
/// skipped the description phase is visibly untagged rather than silently
/// defaulted.
///
/// A record is copied at every tier it reaches, so the tags are shared,
/// never copied: the city name is one `Arc<str>` per tagging phase and
/// the authoring entity is the Sentilo provider of a [`Category`], held
/// as the category. Cloning a descriptor allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Descriptor {
    created_s: u64,
    collected_s: Option<u64>,
    modified_s: Option<u64>,
    city: Option<Arc<str>>,
    district: Option<u16>,
    section: Option<u16>,
    authoring: Option<Category>,
    privacy: Option<PrivacyLevel>,
}

impl Descriptor {
    /// A descriptor knowing only the creation time (sensor timestamp).
    pub fn created_at(created_s: u64) -> Self {
        Self {
            created_s,
            collected_s: None,
            modified_s: None,
            city: None,
            district: None,
            section: None,
            authoring: None,
            privacy: None,
        }
    }

    /// Creation (measurement) time, seconds.
    pub fn created_s(&self) -> u64 {
        self.created_s
    }

    /// Collection time (when a fog node ingested the record).
    pub fn collected_s(&self) -> Option<u64> {
        self.collected_s
    }

    /// Last modification time (set by processing phases).
    pub fn modified_s(&self) -> Option<u64> {
        self.modified_s
    }

    /// City name.
    pub fn city(&self) -> Option<&str> {
        self.city.as_deref()
    }

    /// District index.
    pub fn district(&self) -> Option<u16> {
        self.district
    }

    /// Section (fog-1 area) index.
    pub fn section(&self) -> Option<u16> {
        self.section
    }

    /// Authoring entity (provider).
    pub fn authoring(&self) -> Option<&str> {
        self.authoring.map(Category::provider)
    }

    /// Privacy classification.
    pub fn privacy(&self) -> Option<PrivacyLevel> {
        self.privacy
    }

    /// Stamps the collection time.
    pub fn stamp_collected(&mut self, at_s: u64) {
        self.collected_s = Some(at_s);
    }

    /// Stamps a modification time.
    pub fn stamp_modified(&mut self, at_s: u64) {
        self.modified_s = Some(at_s);
    }

    /// Sets the location tags. The city name is shared, not copied: a
    /// tagging phase hands every record a clone of one `Arc`.
    pub fn set_location(&mut self, city: Arc<str>, district: u16, section: u16) {
        self.city = Some(city);
        self.district = Some(district);
        self.section = Some(section);
    }

    /// Sets the authoring tag to `category`'s provider.
    pub fn set_authoring(&mut self, category: Category) {
        self.authoring = Some(category);
    }

    /// Sets the privacy tag.
    pub fn set_privacy(&mut self, level: PrivacyLevel) {
        self.privacy = Some(level);
    }

    /// Whether the descriptor carries the full tag set the description
    /// phase is responsible for.
    pub fn is_fully_described(&self) -> bool {
        self.collected_s.is_some()
            && self.city.is_some()
            && self.district.is_some()
            && self.section.is_some()
            && self.authoring.is_some()
            && self.privacy.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_descriptor_is_untagged() {
        let d = Descriptor::created_at(100);
        assert_eq!(d.created_s(), 100);
        assert!(!d.is_fully_described());
        assert_eq!(d.privacy(), None);
    }

    #[test]
    fn full_tagging_roundtrip() {
        let mut d = Descriptor::created_at(100);
        d.stamp_collected(105);
        d.set_location("Barcelona".into(), 3, 21);
        d.set_authoring(Category::Energy);
        d.set_privacy(PrivacyLevel::Public);
        assert!(d.is_fully_described());
        assert_eq!(d.collected_s(), Some(105));
        assert_eq!(d.city(), Some("Barcelona"));
        assert_eq!(d.district(), Some(3));
        assert_eq!(d.section(), Some(21));
        assert_eq!(d.authoring(), Some("ENERGY"));
        assert_eq!(d.privacy(), Some(PrivacyLevel::Public));
    }

    #[test]
    fn privacy_levels_order_by_sensitivity() {
        assert!(PrivacyLevel::Public < PrivacyLevel::Restricted);
        assert!(PrivacyLevel::Restricted < PrivacyLevel::Private);
    }

    #[test]
    fn modification_stamp_is_independent() {
        let mut d = Descriptor::created_at(0);
        d.stamp_modified(50);
        assert_eq!(d.modified_s(), Some(50));
        assert_eq!(d.collected_s(), None);
    }
}
