//! The 21 sensor types of Table I.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::Category;

/// One of the 21 sensor types the Sentilo platform exposes (Table I).
///
/// The paper names every type except the three noise types ("the noise
/// category includes three different types of information"); we label those
/// by deployment zone. Each type knows its [`Category`] and a short
/// machine-readable slug used in wire encodings.
// Deliberately exhaustive: the 21 types are a closed set fixed by Table I,
// and downstream crates (quality bounds, value models) match on all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SensorType {
    // --- Energy monitoring -------------------------------------------------
    /// Household/office electricity meter.
    ElectricityMeter,
    /// External ambient conditions station.
    ExternalAmbientConditions,
    /// Gas meter.
    GasMeter,
    /// Internal ambient conditions station.
    InternalAmbientConditions,
    /// Power-quality network analyzer (the large 242-byte payload).
    NetworkAnalyzer,
    /// Solar thermal installation monitor.
    SolarThermalInstallation,
    /// Temperature probe.
    Temperature,
    // --- Noise monitoring ---------------------------------------------------
    /// Ambient noise meter (low-frequency reporting).
    NoiseAmbient,
    /// Traffic-zone noise meter (minute-resolution reporting).
    NoiseTrafficZone,
    /// Leisure-zone noise meter (minute-resolution reporting).
    NoiseLeisureZone,
    // --- Garbage collection -------------------------------------------------
    /// Glass container fill sensor.
    ContainerGlass,
    /// Organic-waste container fill sensor.
    ContainerOrganic,
    /// Paper container fill sensor.
    ContainerPaper,
    /// Plastic container fill sensor.
    ContainerPlastic,
    /// Refuse container fill sensor.
    ContainerRefuse,
    // --- Parking -------------------------------------------------------------
    /// Parking spot occupancy sensor.
    ParkingSpot,
    // --- Urban Lab -----------------------------------------------------------
    /// Air quality station.
    AirQuality,
    /// Bicycle flow counter.
    BicycleFlow,
    /// People flow counter.
    PeopleFlow,
    /// Traffic intensity sensor.
    Traffic,
    /// Weather station.
    Weather,
}

impl SensorType {
    /// All sensor types in Table I order.
    pub const ALL: [SensorType; 21] = [
        SensorType::ElectricityMeter,
        SensorType::ExternalAmbientConditions,
        SensorType::GasMeter,
        SensorType::InternalAmbientConditions,
        SensorType::NetworkAnalyzer,
        SensorType::SolarThermalInstallation,
        SensorType::Temperature,
        SensorType::NoiseAmbient,
        SensorType::NoiseTrafficZone,
        SensorType::NoiseLeisureZone,
        SensorType::ContainerGlass,
        SensorType::ContainerOrganic,
        SensorType::ContainerPaper,
        SensorType::ContainerPlastic,
        SensorType::ContainerRefuse,
        SensorType::ParkingSpot,
        SensorType::AirQuality,
        SensorType::BicycleFlow,
        SensorType::PeopleFlow,
        SensorType::Traffic,
        SensorType::Weather,
    ];

    /// Position in [`SensorType::ALL`]: variants are declared in Table I
    /// order, so the discriminant *is* the index.
    pub const fn ordinal(self) -> usize {
        self as usize
    }

    /// The category this type belongs to.
    pub fn category(self) -> Category {
        use SensorType::*;
        match self {
            ElectricityMeter
            | ExternalAmbientConditions
            | GasMeter
            | InternalAmbientConditions
            | NetworkAnalyzer
            | SolarThermalInstallation
            | Temperature => Category::Energy,
            NoiseAmbient | NoiseTrafficZone | NoiseLeisureZone => Category::Noise,
            ContainerGlass | ContainerOrganic | ContainerPaper | ContainerPlastic
            | ContainerRefuse => Category::Garbage,
            ParkingSpot => Category::Parking,
            AirQuality | BicycleFlow | PeopleFlow | Traffic | Weather => Category::Urban,
        }
    }

    /// Short machine-readable slug (used by [`crate::wire`]).
    pub fn slug(self) -> &'static str {
        use SensorType::*;
        match self {
            ElectricityMeter => "elec",
            ExternalAmbientConditions => "extamb",
            GasMeter => "gas",
            InternalAmbientConditions => "intamb",
            NetworkAnalyzer => "netan",
            SolarThermalInstallation => "solar",
            Temperature => "temp",
            NoiseAmbient => "noise-amb",
            NoiseTrafficZone => "noise-traf",
            NoiseLeisureZone => "noise-leis",
            ContainerGlass => "cont-glass",
            ContainerOrganic => "cont-org",
            ContainerPaper => "cont-paper",
            ContainerPlastic => "cont-plast",
            ContainerRefuse => "cont-ref",
            ParkingSpot => "parking",
            AirQuality => "airq",
            BicycleFlow => "bikeflow",
            PeopleFlow => "peopleflow",
            Traffic => "traffic",
            Weather => "weather",
        }
    }

    /// Parses a slug produced by [`SensorType::slug`].
    pub fn from_slug(slug: &str) -> Option<SensorType> {
        SensorType::ALL.iter().copied().find(|t| t.slug() == slug)
    }
}

impl fmt::Display for SensorType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use SensorType::*;
        let name = match self {
            ElectricityMeter => "Electricity meter",
            ExternalAmbientConditions => "External ambient conditions",
            GasMeter => "Gas meter",
            InternalAmbientConditions => "Internal ambient conditions",
            NetworkAnalyzer => "Network analyzer",
            SolarThermalInstallation => "Solar thermal installation",
            Temperature => "Temperature",
            NoiseAmbient => "Noise (ambient)",
            NoiseTrafficZone => "Noise (traffic zone)",
            NoiseLeisureZone => "Noise (leisure zone)",
            ContainerGlass => "Container glass",
            ContainerOrganic => "Container organic",
            ContainerPaper => "Container paper",
            ContainerPlastic => "Container plastic",
            ContainerRefuse => "Container refuse",
            ParkingSpot => "Parking",
            AirQuality => "Air quality",
            BicycleFlow => "Bicycle flow",
            PeopleFlow => "People flow",
            Traffic => "Traffic",
            Weather => "Weather",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_one_types_in_five_categories() {
        assert_eq!(SensorType::ALL.len(), 21);
        let per_cat = |c: Category| SensorType::ALL.iter().filter(|t| t.category() == c).count();
        assert_eq!(per_cat(Category::Energy), 7);
        assert_eq!(per_cat(Category::Noise), 3);
        assert_eq!(per_cat(Category::Garbage), 5);
        assert_eq!(per_cat(Category::Parking), 1);
        assert_eq!(per_cat(Category::Urban), 5);
    }

    #[test]
    fn ordinal_is_the_position_in_all() {
        for (i, t) in SensorType::ALL.into_iter().enumerate() {
            assert_eq!(t.ordinal(), i, "{t}");
        }
    }

    #[test]
    fn slugs_are_unique_and_parse_back() {
        let mut slugs: Vec<&str> = SensorType::ALL.iter().map(|t| t.slug()).collect();
        slugs.sort();
        slugs.dedup();
        assert_eq!(slugs.len(), 21);
        for t in SensorType::ALL {
            assert_eq!(SensorType::from_slug(t.slug()), Some(t));
        }
        assert_eq!(SensorType::from_slug("nope"), None);
    }

    #[test]
    fn display_names_are_unique() {
        let mut names: Vec<String> = SensorType::ALL.iter().map(|t| t.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 21);
    }
}
