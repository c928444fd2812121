//! Deployment catalogs: how many sensors of each type exist and how they
//! report. [`Catalog::barcelona`] encodes Table I of the paper verbatim.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::{Category, Error, Result, SensorType};

/// Deployment description for one sensor type.
///
/// `daily_bytes_per_sensor` is authoritative (Table I's right-hand block);
/// the implied transactions/day is derived and may be fractional — the
/// paper's noise type 1 reports 22 B/transaction but 768 B/day, i.e. ≈34.9
/// transactions/day, which no whole number of transactions produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypeSpec {
    ty: SensorType,
    sensors: u64,
    tx_bytes: u64,
    daily_bytes_per_sensor: u64,
}

impl TypeSpec {
    /// Creates a spec; all fields must be positive.
    pub(crate) fn new(
        ty: SensorType,
        sensors: u64,
        tx_bytes: u64,
        daily_bytes_per_sensor: u64,
    ) -> Result<Self> {
        for (field, v) in [
            ("sensors", sensors),
            ("tx_bytes", tx_bytes),
            ("daily_bytes_per_sensor", daily_bytes_per_sensor),
        ] {
            if v == 0 {
                return Err(Error::InvalidSpec {
                    name: ty.to_string(),
                    field,
                });
            }
        }
        Ok(Self {
            ty,
            sensors,
            tx_bytes,
            daily_bytes_per_sensor,
        })
    }

    /// The sensor type described.
    pub fn sensor_type(&self) -> SensorType {
        self.ty
    }

    /// The type's category.
    pub fn category(&self) -> Category {
        self.ty.category()
    }

    /// Number of deployed sensors of this type.
    pub fn sensors(&self) -> u64 {
        self.sensors
    }

    /// Bytes one sensor sends per transaction.
    pub fn tx_bytes(&self) -> u64 {
        self.tx_bytes
    }

    /// Bytes one sensor sends per day.
    pub fn daily_bytes_per_sensor(&self) -> u64 {
        self.daily_bytes_per_sensor
    }

    /// Implied transactions per sensor per day (possibly fractional).
    pub(crate) fn tx_per_day(&self) -> f64 {
        self.daily_bytes_per_sensor as f64 / self.tx_bytes as f64
    }

    /// Mean seconds between two transactions of one sensor.
    pub fn tx_interval_secs(&self) -> f64 {
        86_400.0 / self.tx_per_day()
    }

    /// Bytes all sensors of this type send in one transaction wave.
    pub fn wave_bytes(&self) -> u64 {
        self.sensors * self.tx_bytes
    }

    /// Bytes all sensors of this type send per day.
    pub fn daily_bytes(&self) -> u64 {
        self.sensors * self.daily_bytes_per_sensor
    }
}

/// A full deployment catalog: one [`TypeSpec`] per sensor type.
///
/// # Examples
///
/// ```
/// use scc_sensors::{Catalog, Category};
///
/// let catalog = Catalog::barcelona();
/// let energy: u64 = catalog
///     .specs_in(Category::Energy)
///     .map(|s| s.daily_bytes())
///     .sum();
/// assert_eq!(energy, 2_539_023_168); // Table I energy total per day
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Catalog {
    specs: BTreeMap<SensorType, TypeSpec>,
}

impl Catalog {
    /// The future-Barcelona deployment of Table I.
    ///
    /// Totals: 1,005,019 sensors; 54,388,158 B per transaction wave;
    /// 8,583,503,168 B/day (the "≈8 GB per day" estimate of §II).
    pub fn barcelona() -> Self {
        use SensorType::*;
        let rows: [(SensorType, u64, u64, u64); 21] = [
            // (type, sensors, bytes/tx, bytes/day per sensor)
            (ElectricityMeter, 70_717, 22, 2_112),
            (ExternalAmbientConditions, 70_717, 22, 2_112),
            (GasMeter, 70_717, 22, 2_112),
            (InternalAmbientConditions, 70_717, 22, 2_112),
            (NetworkAnalyzer, 70_717, 242, 23_232),
            (SolarThermalInstallation, 70_717, 22, 2_112),
            (Temperature, 70_717, 22, 2_112),
            (NoiseAmbient, 10_000, 22, 768),
            (NoiseTrafficZone, 10_000, 22, 31_680),
            (NoiseLeisureZone, 10_000, 22, 31_680),
            (ContainerGlass, 40_000, 50, 1_800),
            (ContainerOrganic, 40_000, 50, 1_800),
            (ContainerPaper, 40_000, 50, 1_800),
            (ContainerPlastic, 40_000, 50, 1_800),
            (ContainerRefuse, 40_000, 50, 1_800),
            (ParkingSpot, 80_000, 40, 4_000),
            (AirQuality, 40_000, 144, 13_824),
            (BicycleFlow, 40_000, 22, 3_168),
            (PeopleFlow, 40_000, 22, 3_168),
            (Traffic, 40_000, 44, 63_360),
            (Weather, 40_000, 120, 34_560),
        ];
        let mut b = CatalogBuilder::new();
        for (ty, sensors, tx, daily) in rows {
            b = b
                .with_spec(TypeSpec::new(ty, sensors, tx, daily).expect("table row valid"))
                .expect("no duplicates in table");
        }
        b.build()
    }

    /// Spec for one sensor type, if present.
    pub fn spec(&self, ty: SensorType) -> Option<&TypeSpec> {
        self.specs.get(&ty)
    }

    /// Iterates all specs in [`SensorType`] order.
    pub fn iter(&self) -> impl Iterator<Item = &TypeSpec> {
        self.specs.values()
    }

    /// Iterates specs belonging to `category`.
    pub fn specs_in(&self, category: Category) -> impl Iterator<Item = &TypeSpec> + '_ {
        self.specs
            .values()
            .filter(move |s| s.category() == category)
    }

    /// Total deployed sensors.
    pub fn total_sensors(&self) -> u64 {
        self.specs.values().map(TypeSpec::sensors).sum()
    }

    /// Total bytes generated per day, across all sensors.
    pub fn total_daily_bytes(&self) -> u64 {
        self.specs.values().map(TypeSpec::daily_bytes).sum()
    }

    /// Daily bytes generated by `category`.
    pub fn daily_bytes_in(&self, category: Category) -> u64 {
        self.specs_in(category).map(TypeSpec::daily_bytes).sum()
    }

    /// Returns a proportionally scaled-down copy for event-driven
    /// simulation: sensor counts are divided by `factor` (minimum 1 sensor
    /// per type kept). Per-sensor rates are unchanged, so traffic scales by
    /// ≈`1/factor` and can be scaled back analytically.
    pub fn scaled_down(&self, factor: u64) -> Self {
        assert!(factor >= 1, "scale factor must be >= 1");
        let specs = self
            .specs
            .values()
            .map(|s| {
                let scaled = TypeSpec {
                    ty: s.ty,
                    sensors: (s.sensors / factor).max(1),
                    tx_bytes: s.tx_bytes,
                    daily_bytes_per_sensor: s.daily_bytes_per_sensor,
                };
                (s.ty, scaled)
            })
            .collect();
        Self { specs }
    }
}

impl<'a> IntoIterator for &'a Catalog {
    type Item = &'a TypeSpec;
    type IntoIter = std::collections::btree_map::Values<'a, SensorType, TypeSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.specs.values()
    }
}

/// Builder for custom catalogs ([`Catalog::barcelona`] covers the paper's).
#[derive(Debug, Clone, Default)]
pub(crate) struct CatalogBuilder {
    specs: BTreeMap<SensorType, TypeSpec>,
}

impl CatalogBuilder {
    /// Creates an empty builder.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a spec.
    ///
    /// # Errors
    ///
    /// [`Error::DuplicateType`] if the type is already present.
    pub(crate) fn with_spec(mut self, spec: TypeSpec) -> Result<Self> {
        if self.specs.contains_key(&spec.sensor_type()) {
            return Err(Error::DuplicateType {
                name: spec.sensor_type().to_string(),
            });
        }
        self.specs.insert(spec.sensor_type(), spec);
        Ok(self)
    }

    /// Finishes the catalog.
    pub(crate) fn build(self) -> Catalog {
        Catalog { specs: self.specs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barcelona_grand_totals_match_table_1() {
        let c = Catalog::barcelona();
        assert_eq!(c.iter().count(), 21);
        assert_eq!(c.total_sensors(), 1_005_019);
        assert_eq!(c.iter().map(TypeSpec::wave_bytes).sum::<u64>(), 54_388_158);
        assert_eq!(c.total_daily_bytes(), 8_583_503_168);
    }

    #[test]
    fn barcelona_category_totals_match_table_1() {
        let c = Catalog::barcelona();
        // Sensors per category.
        assert_eq!(
            c.specs_in(Category::Energy)
                .map(TypeSpec::sensors)
                .sum::<u64>(),
            495_019
        );
        assert_eq!(
            c.specs_in(Category::Noise)
                .map(TypeSpec::sensors)
                .sum::<u64>(),
            30_000
        );
        assert_eq!(
            c.specs_in(Category::Garbage)
                .map(TypeSpec::sensors)
                .sum::<u64>(),
            200_000
        );
        assert_eq!(
            c.specs_in(Category::Parking)
                .map(TypeSpec::sensors)
                .sum::<u64>(),
            80_000
        );
        assert_eq!(
            c.specs_in(Category::Urban)
                .map(TypeSpec::sensors)
                .sum::<u64>(),
            200_000
        );
        // Daily bytes per category.
        assert_eq!(c.daily_bytes_in(Category::Energy), 2_539_023_168);
        assert_eq!(c.daily_bytes_in(Category::Noise), 641_280_000);
        assert_eq!(c.daily_bytes_in(Category::Garbage), 360_000_000);
        assert_eq!(c.daily_bytes_in(Category::Parking), 320_000_000);
        assert_eq!(c.daily_bytes_in(Category::Urban), 4_723_200_000);
    }

    #[test]
    fn barcelona_wave_totals_per_category() {
        let c = Catalog::barcelona();
        let wave = |cat| c.specs_in(cat).map(TypeSpec::wave_bytes).sum::<u64>();
        assert_eq!(wave(Category::Energy), 26_448_158);
        assert_eq!(wave(Category::Noise), 660_000);
        assert_eq!(wave(Category::Garbage), 10_000_000);
        assert_eq!(wave(Category::Parking), 3_200_000);
        assert_eq!(wave(Category::Urban), 14_080_000);
    }

    #[test]
    fn per_type_rows_match_table_1() {
        let c = Catalog::barcelona();
        let s = c.spec(SensorType::NetworkAnalyzer).unwrap();
        assert_eq!(s.wave_bytes(), 17_113_514);
        assert_eq!(s.daily_bytes(), 1_642_897_344);
        let s = c.spec(SensorType::Traffic).unwrap();
        assert_eq!(s.wave_bytes(), 1_760_000);
        assert_eq!(s.daily_bytes(), 2_534_400_000);
        assert!((s.tx_per_day() - 1440.0).abs() < 1e-9);
        let s = c.spec(SensorType::ParkingSpot).unwrap();
        assert_eq!(s.daily_bytes(), 320_000_000);
        assert!((s.tx_per_day() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn noise_ambient_fractional_frequency_is_preserved() {
        // The paper's internally inconsistent row: 22 B/tx, 768 B/day.
        let c = Catalog::barcelona();
        let s = c.spec(SensorType::NoiseAmbient).unwrap();
        assert_eq!(s.daily_bytes_per_sensor(), 768);
        assert!((s.tx_per_day() - 768.0 / 22.0).abs() < 1e-9);
    }

    #[test]
    fn builder_rejects_duplicates() {
        let spec = TypeSpec::new(SensorType::Temperature, 10, 22, 220).unwrap();
        let b = CatalogBuilder::new().with_spec(spec).unwrap();
        assert!(matches!(
            b.with_spec(spec),
            Err(Error::DuplicateType { .. })
        ));
    }

    #[test]
    fn spec_rejects_zero_fields() {
        assert!(TypeSpec::new(SensorType::Temperature, 0, 22, 220).is_err());
        assert!(TypeSpec::new(SensorType::Temperature, 10, 0, 220).is_err());
        assert!(TypeSpec::new(SensorType::Temperature, 10, 22, 0).is_err());
    }

    #[test]
    fn scaled_down_divides_population_not_rates() {
        let c = Catalog::barcelona().scaled_down(1000);
        let s = c.spec(SensorType::ElectricityMeter).unwrap();
        assert_eq!(s.sensors(), 70);
        assert_eq!(s.tx_bytes(), 22);
        assert_eq!(s.daily_bytes_per_sensor(), 2_112);
        // Tiny populations are kept at >= 1 sensor.
        let tiny = Catalog::barcelona().scaled_down(1_000_000_000);
        assert!(tiny.iter().all(|s| s.sensors() == 1));
    }

    #[test]
    fn tx_interval_matches_frequency() {
        let c = Catalog::barcelona();
        let s = c.spec(SensorType::ElectricityMeter).unwrap();
        // 96 tx/day -> every 900 seconds (15 minutes).
        assert!((s.tx_interval_secs() - 900.0).abs() < 1e-9);
    }
}
