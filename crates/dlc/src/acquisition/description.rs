//! Data description: tags records with location, authoring and privacy
//! according to the city business model (§IV.A).

use std::sync::Arc;

use scc_sensors::Category;

use crate::descriptor::PrivacyLevel;
use crate::phase::{Phase, PhaseContext};
use crate::record::DataRecord;

/// Fills location/authoring/privacy tags for every record.
#[derive(Debug, Clone)]
pub(crate) struct DescriptionPhase {
    /// Made once here; every tagged record shares it.
    city: Arc<str>,
    district: u16,
    section: u16,
}

impl DescriptionPhase {
    /// Tags for a fog node covering `section` of `district` in `city`.
    pub(crate) fn new(city: &str, district: u16, section: u16) -> Self {
        Self {
            city: Arc::from(city),
            district,
            section,
        }
    }

    /// Default privacy classification per category: meter data can reveal
    /// household occupancy, so energy is restricted; the other Sentilo
    /// categories are municipal open data.
    pub(crate) fn privacy_for(category: Category) -> PrivacyLevel {
        match category {
            Category::Energy => PrivacyLevel::Restricted,
            _ => PrivacyLevel::Public,
        }
    }

    /// Tags one record with location, authoring and privacy.
    pub(crate) fn describe(&self, rec: &mut DataRecord) {
        let category = rec.sensor_type().category();
        let d = rec.descriptor_mut();
        d.set_location(Arc::clone(&self.city), self.district, self.section);
        d.set_authoring(category);
        d.set_privacy(Self::privacy_for(category));
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{Reading, SensorId, SensorType, Value};

    #[test]
    fn tags_location_authoring_privacy() {
        let rec = DataRecord::from_reading(Reading::new(
            SensorId::new(SensorType::ElectricityMeter, 9),
            0,
            Value::Counter(100),
        ));
        let mut phase = DescriptionPhase::new("Barcelona", 4, 33);
        let out = phase.run(vec![rec], &PhaseContext::at(0));
        let d = out[0].descriptor();
        assert_eq!(d.city(), Some("Barcelona"));
        assert_eq!(d.district(), Some(4));
        assert_eq!(d.section(), Some(33));
        assert_eq!(d.authoring(), Some("ENERGY"));
        assert_eq!(d.privacy(), Some(PrivacyLevel::Restricted));
    }

    #[test]
    fn every_tagged_record_and_every_clone_shares_one_city_name() {
        let recs: Vec<DataRecord> = (0..3)
            .map(|i| {
                DataRecord::from_reading(Reading::new(
                    SensorId::new(SensorType::Weather, i),
                    0,
                    Value::from_f64(18.0),
                ))
            })
            .collect();
        let mut phase = DescriptionPhase::new("Barcelona", 4, 33);
        let out = phase.run(recs, &PhaseContext::at(0));
        let name = |rec: &DataRecord| rec.descriptor().city().unwrap().as_ptr();
        assert!(out.iter().all(|rec| name(rec) == name(&out[0])));
        assert_eq!(name(&out[0].clone()), name(&out[0]));
        // A later batch from the same phase still shares it.
        let later = phase.run(vec![out[0].clone()], &PhaseContext::at(1));
        assert_eq!(name(&later[0]), name(&out[0]));
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
