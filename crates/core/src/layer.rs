//! The three layers of the F2C architecture (Fig. 4).

use std::fmt;

use serde::{Deserialize, Serialize};

/// An architecture layer, ordered from edge to cloud.
///
/// Fog layer 1 nodes cover one city section (~1 km² in Barcelona, §V.B);
/// fog layer 2 nodes cover one district; the cloud covers the whole city.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// Fog layer 1: edge devices coordinating one section.
    Fog1,
    /// Fog layer 2: district-level nodes.
    Fog2,
    /// The cloud data center.
    Cloud,
}

impl Layer {
    /// All layers, edge first.
    pub const ALL: [Layer; 3] = [Layer::Fog1, Layer::Fog2, Layer::Cloud];

    /// Dense index (fog 1 = 0, fog 2 = 1, cloud = 2) for per-layer
    /// tables (histograms, in-flight slots, shed counters).
    pub fn index(self) -> usize {
        match self {
            Layer::Fog1 => 0,
            Layer::Fog2 => 1,
            Layer::Cloud => 2,
        }
    }

    /// Relative compute capability (cloud ≫ fog 2 > fog 1), in abstract
    /// "compute units" used by the placement engine.
    pub(crate) fn compute_capacity(self) -> u64 {
        match self {
            Layer::Fog1 => 10,
            Layer::Fog2 => 100,
            Layer::Cloud => u64::MAX,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Layer::Fog1 => "fog layer 1",
            Layer::Fog2 => "fog layer 2",
            Layer::Cloud => "cloud",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all_order() {
        for (i, layer) in Layer::ALL.into_iter().enumerate() {
            assert_eq!(layer.index(), i);
        }
    }

    #[test]
    fn ordering_is_edge_to_cloud() {
        assert!(Layer::Fog1 < Layer::Fog2);
        assert!(Layer::Fog2 < Layer::Cloud);
    }

    #[test]
    fn capacity_grows_upward() {
        assert!(Layer::Fog1.compute_capacity() < Layer::Fog2.compute_capacity());
        assert!(Layer::Fog2.compute_capacity() < Layer::Cloud.compute_capacity());
    }
}
