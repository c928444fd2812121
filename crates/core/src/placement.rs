//! Service placement (§IV.C): "critical real-time services will be
//! executed at fog layer 1 … deep computing complex applications will be
//! executed at the cloud layer. For the other applications, they will be
//! executed at the lowest fog layer that provides the required computing
//! capabilities and the lowest fog layer that contains the required data
//! set."

use citysim::barcelona::LatencyProfile;
use citysim::time::Duration;
use scc_dlc::AgeClass;

use crate::cost::{AccessCostModel, AccessOption};
use crate::layer::Layer;
use crate::{Error, Result};

/// Geographic span of the data a service needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AreaSpan {
    /// One section — available at its fog-1 node.
    Section,
    /// One district — first combined at the fog-2 node.
    District,
    /// The whole city — only the cloud holds it all.
    City,
}

impl AreaSpan {
    /// The lowest layer whose store covers this span.
    pub(crate) fn lowest_layer(self) -> Layer {
        match self {
            AreaSpan::Section => Layer::Fog1,
            AreaSpan::District => Layer::Fog2,
            AreaSpan::City => Layer::Cloud,
        }
    }
}

/// What a service requires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSpec {
    /// Compute demand in the abstract units of
    /// `Layer::compute_capacity`.
    pub compute_units: u64,
    /// Geographic span of the input data.
    pub data_span: AreaSpan,
    /// Oldest data age class the service reads.
    pub data_age: AgeClass,
    /// Response-time bound for each data access, if the service is
    /// latency-critical.
    pub latency_bound: Option<Duration>,
    /// Typical bytes fetched per access (for the latency check).
    pub access_bytes: u64,
}

impl ServiceSpec {
    /// A critical real-time service on section-local data.
    pub fn realtime_critical(latency_bound: Duration) -> Self {
        Self {
            compute_units: 1,
            data_span: AreaSpan::Section,
            data_age: AgeClass::RealTime,
            latency_bound: Some(latency_bound),
            access_bytes: 1_000,
        }
    }

    /// A deep-analytics batch job over city-wide history.
    pub fn deep_analytics() -> Self {
        Self {
            compute_units: 10_000,
            data_span: AreaSpan::City,
            data_age: AgeClass::Historical,
            latency_bound: None,
            access_bytes: 1_000_000_000,
        }
    }
}

/// A placement decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// The chosen layer.
    pub layer: Layer,
    /// Estimated per-access data latency at that layer.
    pub access_latency: Duration,
}

/// The placement engine: lowest feasible layer wins.
#[derive(Debug, Clone, Copy)]
pub struct PlacementEngine {
    cost: AccessCostModel,
}

impl PlacementEngine {
    /// An engine over the deployment's link profile.
    pub fn new(profile: LatencyProfile) -> Self {
        Self {
            cost: AccessCostModel::new(profile),
        }
    }

    /// Where data of `age` lives in the hierarchy (§IV.B residency):
    /// real-time at fog 1, recent at fog 2, historical at the cloud.
    pub(crate) fn data_home(age: AgeClass) -> Layer {
        match age {
            AgeClass::RealTime => Layer::Fog1,
            AgeClass::Recent => Layer::Fog2,
            AgeClass::Historical => Layer::Cloud,
        }
    }

    /// Access latency for a service running at `layer` touching data that
    /// lives at [`Self::data_home`]`(age)`.
    pub(crate) fn access_latency(&self, layer: Layer, age: AgeClass, bytes: u64) -> Duration {
        let home = Self::data_home(age);
        // Same layer: local store. Otherwise the access crosses the
        // hierarchy between the two layers.
        let option = match (layer, home) {
            (a, b) if a == b => AccessOption::Local,
            (Layer::Fog1, Layer::Fog2) | (Layer::Fog2, Layer::Fog1) => AccessOption::Parent,
            _ => AccessOption::Cloud,
        };
        self.cost.cost(option, bytes)
    }

    /// Picks the lowest layer satisfying compute, data span/age residency,
    /// and the latency bound.
    ///
    /// # Errors
    ///
    /// [`Error::Unplaceable`] when no layer satisfies the spec (e.g. a
    /// microsecond latency bound on city-wide historical data).
    pub fn place(&self, spec: &ServiceSpec) -> Result<Placement> {
        let min_by_span = spec.data_span.lowest_layer();
        for layer in Layer::ALL {
            if layer < min_by_span {
                continue;
            }
            if layer.compute_capacity() < spec.compute_units {
                continue;
            }
            let access_latency = self.access_latency(layer, spec.data_age, spec.access_bytes);
            if let Some(bound) = spec.latency_bound {
                if access_latency > bound {
                    continue;
                }
            }
            return Ok(Placement {
                layer,
                access_latency,
            });
        }
        Err(Error::Unplaceable {
            reason: format!(
                "no layer satisfies compute={} span={:?} age={:?} bound={:?}",
                spec.compute_units, spec.data_span, spec.data_age, spec.latency_bound
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> PlacementEngine {
        PlacementEngine::new(LatencyProfile::default())
    }

    #[test]
    fn realtime_critical_lands_on_fog1() {
        let p = engine()
            .place(&ServiceSpec::realtime_critical(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(p.layer, Layer::Fog1);
        assert!(p.access_latency <= Duration::from_millis(10));
    }

    #[test]
    fn deep_analytics_lands_on_cloud() {
        let p = engine().place(&ServiceSpec::deep_analytics()).unwrap();
        assert_eq!(p.layer, Layer::Cloud);
    }

    #[test]
    fn district_span_lands_on_fog2() {
        let spec = ServiceSpec {
            compute_units: 50,
            data_span: AreaSpan::District,
            data_age: AgeClass::Recent,
            latency_bound: None,
            access_bytes: 10_000,
        };
        let p = engine().place(&spec).unwrap();
        assert_eq!(p.layer, Layer::Fog2);
    }

    #[test]
    fn compute_demand_pushes_upward() {
        // Section-local data but a demand beyond fog-1 capacity.
        let spec = ServiceSpec {
            compute_units: 50,
            data_span: AreaSpan::Section,
            data_age: AgeClass::RealTime,
            latency_bound: None,
            access_bytes: 1_000,
        };
        let p = engine().place(&spec).unwrap();
        assert_eq!(p.layer, Layer::Fog2, "fog-1 capacity is 10 units");
    }

    #[test]
    fn impossible_bounds_are_unplaceable() {
        let spec = ServiceSpec {
            compute_units: 10_000, // cloud only
            data_span: AreaSpan::City,
            data_age: AgeClass::Historical,
            latency_bound: Some(Duration::from_micros(1)),
            access_bytes: 1_000,
        };
        assert!(matches!(
            engine().place(&spec),
            Err(Error::Unplaceable { .. })
        ));
    }

    #[test]
    fn realtime_bound_excludes_cloud_for_big_compute() {
        // A service needing cloud-scale compute on real-time data with a
        // tight bound: the cloud access to fog-1-resident data is too slow.
        let spec = ServiceSpec {
            compute_units: 10_000,
            data_span: AreaSpan::Section,
            data_age: AgeClass::RealTime,
            latency_bound: Some(Duration::from_millis(5)),
            access_bytes: 1_000,
        };
        assert!(engine().place(&spec).is_err());
        // Relaxing the bound makes the cloud feasible.
        let relaxed = ServiceSpec {
            latency_bound: Some(Duration::from_millis(500)),
            ..spec
        };
        assert_eq!(engine().place(&relaxed).unwrap().layer, Layer::Cloud);
    }

    #[test]
    fn access_latency_orders_by_distance() {
        let e = engine();
        let local = e.access_latency(Layer::Fog1, AgeClass::RealTime, 1_000);
        let parent = e.access_latency(Layer::Fog2, AgeClass::RealTime, 1_000);
        let far = e.access_latency(Layer::Cloud, AgeClass::RealTime, 1_000);
        assert!(local < parent && parent < far);
    }

    #[test]
    fn data_home_matches_section_iv_b() {
        assert_eq!(PlacementEngine::data_home(AgeClass::RealTime), Layer::Fog1);
        assert_eq!(PlacementEngine::data_home(AgeClass::Recent), Layer::Fog2);
        assert_eq!(
            PlacementEngine::data_home(AgeClass::Historical),
            Layer::Cloud
        );
    }
}
