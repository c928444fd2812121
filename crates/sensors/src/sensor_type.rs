//! The 21 sensor types of Table I.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Category, Value};

/// One of the 21 sensor types the Sentilo platform exposes (Table I).
///
/// The paper names every type except the three noise types ("the noise
/// category includes three different types of information"); we label those
/// by deployment zone. Each type knows its [`Category`] and a short
/// machine-readable slug used in wire encodings.
// Deliberately exhaustive: the 21 types are a closed set fixed by Table I,
// and downstream crates (quality bounds, value shapes) match on all of them.
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

    /// The value shape every reading of this type carries. The one table
    /// of it: the generators build by it, the wire grammar parses by it,
    /// acquisition refuses a reading it does not [admit](Shape::admits),
    /// and the flush codec lays its value columns out by it.
    pub const fn shape(self) -> Shape {
        use SensorType::*;
        match self {
            Temperature
            | ExternalAmbientConditions
            | InternalAmbientConditions
            | SolarThermalInstallation
            | NoiseAmbient
            | NoiseTrafficZone
            | NoiseLeisureZone => Shape::Scalar,
            ElectricityMeter | GasMeter | BicycleFlow | PeopleFlow | Traffic => Shape::Counter,
            ParkingSpot => Shape::Flag,
            ContainerGlass | ContainerOrganic | ContainerPaper | ContainerPlastic
            | ContainerRefuse => Shape::Level,
            NetworkAnalyzer => Shape::Composite { arity: 11 },
            AirQuality => Shape::Composite { arity: 6 },
            Weather => Shape::Composite { arity: 5 },
        }
    }

    /// Short machine-readable slug (used by [`crate::wire`]).
    pub(crate) fn slug(self) -> &'static str {
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
    pub(crate) fn from_slug(slug: &str) -> Option<SensorType> {
        SensorType::ALL.iter().copied().find(|t| t.slug() == slug)
    }
}

/// Which [`Value`] variant a sensor type reports — for a composite, with
/// how many fields ([`SensorType::shape`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// [`Value::Scalar`]: temperatures, noise levels.
    Scalar,
    /// [`Value::Counter`]: meters and flow counts.
    Counter,
    /// [`Value::Flag`]: parking occupancy.
    Flag,
    /// [`Value::Level`]: container fill.
    Level,
    /// [`Value::Composite`] with exactly `arity` fields: multi-channel
    /// stations.
    Composite {
        /// Fields per reading.
        arity: usize,
    },
}

impl Shape {
    /// Whether `value` has this shape: the same variant and, for a
    /// composite, exactly `arity` fields. Ranges are not shape: a level
    /// of 250 % is admitted here and scored out of range by quality.
    pub fn admits(self, value: &Value) -> bool {
        match (self, value) {
            (Shape::Scalar, Value::Scalar(_))
            | (Shape::Counter, Value::Counter(_))
            | (Shape::Flag, Value::Flag(_))
            | (Shape::Level, Value::Level(_)) => true,
            (Shape::Composite { arity }, Value::Composite(fields)) => fields.len() == arity,
            _ => false,
        }
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

    /// One value of every variant, composites at every arity a type uses
    /// and one no type uses.
    fn every_variant() -> Vec<Value> {
        let mut values = vec![
            Value::Scalar(-1),
            Value::Counter(7),
            Value::Flag(true),
            Value::Level(40),
        ];
        values.extend([0, 2, 5, 6, 11].map(|n| Value::Composite(vec![100; n])));
        values
    }

    #[test]
    fn shape_admits_exactly_what_the_type_generates() {
        for ty in SensorType::ALL {
            let generated = crate::ReadingGenerator::for_population(ty, 3, 5)
                .wave(900)
                .remove(0)
                .value()
                .clone();
            assert!(ty.shape().admits(&generated), "{ty}: {generated:?}");
            let admitted: Vec<Value> = every_variant()
                .into_iter()
                .filter(|v| ty.shape().admits(v))
                .collect();
            // Exactly one of the table's values: the variant the
            // generator emits, at the arity it emits.
            assert_eq!(admitted.len(), 1, "{ty}: {admitted:?}");
            assert_eq!(
                std::mem::discriminant(&admitted[0]),
                std::mem::discriminant(&generated),
                "{ty}"
            );
            if let (Value::Composite(a), Value::Composite(g)) = (&admitted[0], &generated) {
                assert_eq!(a.len(), g.len(), "{ty}");
            }
        }
        assert_eq!(SensorType::Weather.shape(), Shape::Composite { arity: 5 });
        assert!(!Shape::Composite { arity: 5 }.admits(&Value::Composite(vec![1, 2])));
    }

    #[test]
    fn display_names_are_unique() {
        let mut names: Vec<String> = SensorType::ALL.iter().map(|t| t.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 21);
    }
}
