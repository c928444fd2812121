//! Identifier newtypes.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::SensorType;

/// Globally unique sensor identifier: a sensor type plus an index within
/// that type's population.
///
/// # Examples
///
/// ```
/// use scc_sensors::{SensorId, SensorType};
///
/// let id = SensorId::new(SensorType::Temperature, 42);
/// assert_eq!(id.sensor_type(), SensorType::Temperature);
/// assert_eq!(id.index(), 42);
/// assert_eq!(id.to_string(), "temp#42");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SensorId {
    ty: SensorType,
    index: u32,
}

impl SensorId {
    /// Creates an id for the `index`-th sensor of `ty`.
    pub fn new(ty: SensorType, index: u32) -> Self {
        Self { ty, index }
    }

    /// The sensor's type.
    pub fn sensor_type(self) -> SensorType {
        self.ty
    }

    /// Index within the type's population.
    pub fn index(self) -> u32 {
        self.index
    }

    /// A stable 64-bit hash of the id, used to derive per-sensor RNG seeds.
    pub fn seed_material(self) -> u64 {
        // Position in SensorType::ALL is stable by construction.
        ((self.ty.ordinal() as u64) << 40) ^ u64::from(self.index)
    }
}

impl fmt::Display for SensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.ty.slug(), self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_groups_by_type_then_index() {
        let a = SensorId::new(SensorType::ElectricityMeter, 5);
        let b = SensorId::new(SensorType::ElectricityMeter, 9);
        let c = SensorId::new(SensorType::GasMeter, 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn seed_material_is_unique_across_types_and_indices() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for ty in SensorType::ALL {
            for idx in [0u32, 1, 77, 1_000_000] {
                assert!(seen.insert(SensorId::new(ty, idx).seed_material()));
            }
        }
    }

    #[test]
    fn display_roundtrips_through_slug() {
        let id = SensorId::new(SensorType::AirQuality, 7);
        assert_eq!(id.to_string(), "airq#7");
    }
}
