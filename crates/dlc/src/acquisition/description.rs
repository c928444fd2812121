//! Data description: tags records with location, authoring and privacy
//! according to the city business model (§IV.A).

use crate::record::DataRecord;

/// Locates every record in this node's district and section. The other
/// tags need no per-record copy: authoring and privacy follow the sensor
/// type's category, and the city is held here once.
#[derive(Debug, Clone)]
pub(crate) struct DescriptionPhase {
    /// The city every record this phase tags is located in, held once
    /// here rather than in each record.
    city: Box<str>,
    district: u16,
    section: u16,
}

impl DescriptionPhase {
    /// Tags for a fog node covering `section` of `district` in `city`.
    pub(crate) fn new(city: &str, district: u16, section: u16) -> Self {
        Self {
            city: city.into(),
            district,
            section,
        }
    }

    /// The city the tagged records are located in.
    pub(crate) fn city(&self) -> &str {
        &self.city
    }

    /// Writes the record's location.
    pub(crate) fn describe(&self, rec: &mut DataRecord) {
        rec.set_location(self.district, self.section);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::PrivacyLevel;
    use crate::phase::{Phase, PhaseContext};
    use scc_sensors::{Category, Reading, SensorId, SensorType, Value};

    impl DescriptionPhase {
        /// Default privacy classification per category: meter data can
        /// reveal household occupancy, so energy is restricted; the other
        /// Sentilo categories are municipal open data. A function of the
        /// category, so no record carries it.
        fn privacy_for(category: Category) -> PrivacyLevel {
            match category {
                Category::Energy => PrivacyLevel::Restricted,
                _ => PrivacyLevel::Public,
            }
        }
    }

    /// The phase over a whole wave: the reference pipeline's step
    /// (`acquisition::tests::Model`).
    impl Phase for DescriptionPhase {
        fn name(&self) -> &'static str {
            "data-description"
        }

        fn run(&mut self, mut batch: Vec<DataRecord>, _ctx: &PhaseContext) -> Vec<DataRecord> {
            for rec in &mut batch {
                self.describe(rec);
            }
            batch
        }
    }

    #[test]
    fn tags_location_authoring_privacy() {
        let rec = DataRecord::from_reading(Reading::new(
            SensorId::new(SensorType::ElectricityMeter, 9),
            0,
            Value::Counter(100),
        ));
        let mut phase = DescriptionPhase::new("Barcelona", 4, 33);
        let out = phase.run(vec![rec], &PhaseContext::at(0));
        assert_eq!(phase.city(), "Barcelona");
        let d = out[0].descriptor();
        assert_eq!(d.district(), Some(4));
        assert_eq!(d.section(), Some(33));
        let category = out[0].sensor_type().category();
        assert_eq!(category.provider(), "ENERGY");
        assert_eq!(
            DescriptionPhase::privacy_for(category),
            PrivacyLevel::Restricted
        );
    }

    #[test]
    fn non_energy_categories_are_public() {
        for (ty, expected) in [
            (SensorType::ParkingSpot, PrivacyLevel::Public),
            (SensorType::Weather, PrivacyLevel::Public),
            (SensorType::NoiseAmbient, PrivacyLevel::Public),
            (SensorType::ContainerGlass, PrivacyLevel::Public),
            (SensorType::GasMeter, PrivacyLevel::Restricted),
        ] {
            assert_eq!(DescriptionPhase::privacy_for(ty.category()), expected);
        }
    }
}
