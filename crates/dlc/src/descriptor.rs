//! Data description tags (§IV.A): "data description can be performed in
//! order to tag data according to the city business model considered, for
//! instance, timing information (creation, collection, modification, etc.),
//! location positioning (city, country, GPS coordinates), authoring,
//! privacy, and so on."

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
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
/// location/authoring/privacy. Missing tags read as `None` — a record
/// that skipped the description phase is visibly untagged rather than
/// silently defaulted.
///
/// A record is copied at every tier it reaches, so the tags are shared,
/// never copied: the city name is one `Arc<str>` per tagging phase and
/// the authoring entity is the Sentilo provider of a [`Category`], held
/// as the category. Cloning a descriptor allocates nothing.
///
/// The tags are held at their final size, 48 bytes: the two optional
/// instants are plain `u64`s behind a stamp bitset, and district and
/// section are plain `u16`s present exactly when the city is
/// ([`Descriptor::set_location`] is their only setter). An absent field
/// is held at 0, so the derived `==` still means "same tags".
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Descriptor {
    created_s: u64,
    /// Meaningful when `stamps & COLLECTED`; 0 otherwise.
    collected_s: u64,
    city: Option<Arc<str>>,
    /// Meaningful when `city` is set; 0 otherwise.
    district: u16,
    /// Meaningful when `city` is set; 0 otherwise.
    section: u16,
    authoring: Option<Category>,
    privacy: Option<PrivacyLevel>,
    stamps: u8,
}

/// `stamps` bit: the collection time is set.
const COLLECTED: u8 = 1;

impl Descriptor {
    /// A descriptor knowing only the creation time (sensor timestamp).
    pub(crate) fn created_at(created_s: u64) -> Self {
        Self {
            created_s,
            collected_s: 0,
            city: None,
            district: 0,
            section: 0,
            authoring: None,
            privacy: None,
            stamps: 0,
        }
    }

    /// Creation (measurement) time, seconds.
    pub fn created_s(&self) -> u64 {
        self.created_s
    }

    /// Collection time (when a fog node ingested the record).
    pub(crate) fn collected_s(&self) -> Option<u64> {
        (self.stamps & COLLECTED != 0).then_some(self.collected_s)
    }

    /// City name. Written for provenance; only tests read it back.
    #[cfg(test)]
    pub(crate) fn city(&self) -> Option<&str> {
        self.city.as_deref()
    }

    /// District index.
    pub fn district(&self) -> Option<u16> {
        self.city.as_ref().map(|_| self.district)
    }

    /// Section (fog-1 area) index.
    pub fn section(&self) -> Option<u16> {
        self.city.as_ref().map(|_| self.section)
    }

    /// Authoring entity (provider). Written for provenance; only tests
    /// read it back.
    #[cfg(test)]
    pub(crate) fn authoring(&self) -> Option<&str> {
        self.authoring.map(Category::provider)
    }

    /// Privacy classification. Only tests read it back.
    #[cfg(test)]
    pub(crate) fn privacy(&self) -> Option<PrivacyLevel> {
        self.privacy
    }

    /// Stamps the collection time.
    pub(crate) fn stamp_collected(&mut self, at_s: u64) {
        self.collected_s = at_s;
        self.stamps |= COLLECTED;
    }

    /// Sets the location tags. The city name is shared, not copied: a
    /// tagging phase hands every record a clone of one `Arc`.
    pub fn set_location(&mut self, city: Arc<str>, district: u16, section: u16) {
        self.city = Some(city);
        self.district = district;
        self.section = section;
    }

    /// Sets the authoring tag to `category`'s provider.
    pub(crate) fn set_authoring(&mut self, category: Category) {
        self.authoring = Some(category);
    }

    /// Sets the privacy tag.
    pub(crate) fn set_privacy(&mut self, level: PrivacyLevel) {
        self.privacy = Some(level);
    }

    /// Whether the descriptor carries the full tag set the description
    /// phase is responsible for.
    pub fn is_fully_described(&self) -> bool {
        self.stamps & COLLECTED != 0
            && self.city.is_some()
            && self.authoring.is_some()
            && self.privacy.is_some()
    }
}

/// Prints the tags as they read, absent ones as `None`.
impl fmt::Debug for Descriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Descriptor")
            .field("created_s", &self.created_s)
            .field("collected_s", &self.collected_s())
            .field("city", &self.city)
            .field("district", &self.district())
            .field("section", &self.section())
            .field("authoring", &self.authoring)
            .field("privacy", &self.privacy)
            .finish()
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
    fn descriptor_is_48_bytes() {
        assert!(std::mem::size_of::<Descriptor>() <= 48);
    }

    /// The descriptor as it was: every tag its own `Option`. The reference
    /// the compact layout is held to.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Model {
        created_s: u64,
        collected_s: Option<u64>,
        city: Option<Arc<str>>,
        district: Option<u16>,
        section: Option<u16>,
        authoring: Option<Category>,
        privacy: Option<PrivacyLevel>,
    }

    impl Model {
        fn created_at(created_s: u64) -> Self {
            Self {
                created_s,
                collected_s: None,
                city: None,
                district: None,
                section: None,
                authoring: None,
                privacy: None,
            }
        }

        fn apply(&mut self, d: &mut Descriptor, op: (u8, u64, u16, u16)) {
            let (pick, at_s, district, section) = op;
            let category = Category::ALL[at_s as usize % Category::ALL.len()];
            let level = [
                PrivacyLevel::Public,
                PrivacyLevel::Restricted,
                PrivacyLevel::Private,
            ][at_s as usize % 3];
            match pick {
                0 => {
                    self.collected_s = Some(at_s);
                    d.stamp_collected(at_s);
                }
                1 => {
                    let city: Arc<str> = ["Barcelona", "Girona"][at_s as usize % 2].into();
                    self.city = Some(Arc::clone(&city));
                    (self.district, self.section) = (Some(district), Some(section));
                    d.set_location(city, district, section);
                }
                2 => {
                    self.authoring = Some(category);
                    d.set_authoring(category);
                }
                _ => {
                    self.privacy = Some(level);
                    d.set_privacy(level);
                }
            }
        }

        fn agrees(&self, d: &Descriptor) -> bool {
            d.created_s() == self.created_s
                && d.collected_s() == self.collected_s
                && d.city() == self.city.as_deref()
                && d.district() == self.district
                && d.section() == self.section
                && d.authoring() == self.authoring.map(Category::provider)
                && d.privacy() == self.privacy
                && d.is_fully_described()
                    == (self.collected_s.is_some()
                        && self.city.is_some()
                        && self.district.is_some()
                        && self.section.is_some()
                        && self.authoring.is_some()
                        && self.privacy.is_some())
                && format!("{d:?}") == format!("{self:?}").replacen("Model", "Descriptor", 1)
        }
    }

    /// Instants and indices at both ends of their ranges, and a few between.
    fn edge_u64(raw: u64) -> u64 {
        [0, 1, 900, u64::MAX - 1, u64::MAX, raw][(raw % 6) as usize]
    }

    fn edge_u16(raw: u16) -> u16 {
        [0, 1, u16::MAX, raw][(raw % 4) as usize]
    }

    proptest::proptest! {
        #[test]
        fn compact_tags_read_like_the_options_they_replaced(
            created in proptest::prelude::any::<u64>(),
            ops in proptest::collection::vec(
                (0u8..4, proptest::prelude::any::<u64>(), proptest::prelude::any::<u16>(), proptest::prelude::any::<u16>()),
                0..12,
            ),
            others in proptest::collection::vec(
                (0u8..4, proptest::prelude::any::<u64>(), proptest::prelude::any::<u16>(), proptest::prelude::any::<u16>()),
                0..12,
            ),
        ) {
            let created = edge_u64(created);
            let (mut d, mut model) = (Descriptor::created_at(created), Model::created_at(created));
            let (mut e, mut other) = (Descriptor::created_at(created), Model::created_at(created));
            proptest::prop_assert!(model.agrees(&d));
            for (step, &(pick, at, district, section)) in ops.iter().enumerate() {
                let op = (pick, edge_u64(at), edge_u16(district), edge_u16(section));
                model.apply(&mut d, op);
                proptest::prop_assert!(model.agrees(&d), "{:?} vs {:?}", d, model);
                // A second descriptor walks another sequence, then the
                // same one: `==` must mean "same tags" throughout.
                let op = others.get(step).map_or(op, |&(pick, at, district, section)| {
                    (pick, edge_u64(at), edge_u16(district), edge_u16(section))
                });
                other.apply(&mut e, op);
                proptest::prop_assert!(other.agrees(&e));
                proptest::prop_assert_eq!(d == e, model == other);
                proptest::prop_assert!(d.clone() == d);
            }
        }
    }
}
