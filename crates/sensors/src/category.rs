//! The five Sentilo information categories.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A Sentilo category of information and services (§V.B).
///
/// Each category carries the redundancy rate the paper measured for it —
/// the fraction of observations that redundant-data elimination removes at
/// fog layer 1 (Table I / Fig. 7): energy ≈50 %, noise ≈75 %, garbage ≈70 %,
/// parking ≈40 %, urban ≈30 %.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Energy monitoring (meters, ambient conditions, solar, temperature).
    Energy,
    /// Noise monitoring.
    Noise,
    /// Garbage collection (container fill levels).
    Garbage,
    /// Parking spot occupancy.
    Parking,
    /// Urban Lab monitoring (air quality, flows, traffic, weather).
    Urban,
}

impl Category {
    /// All categories, in the paper's table order.
    pub const ALL: [Category; 5] = [
        Category::Energy,
        Category::Noise,
        Category::Garbage,
        Category::Parking,
        Category::Urban,
    ];

    /// Percentage of observations that are redundant (Table I).
    pub(crate) fn redundancy_percent(self) -> u8 {
        match self {
            Category::Energy => 50,
            Category::Noise => 75,
            Category::Garbage => 70,
            Category::Parking => 40,
            Category::Urban => 30,
        }
    }

    /// Applies the category's redundancy reduction to a byte count, using
    /// exact integer arithmetic (Table I's entries are all exact).
    pub fn reduce_bytes(self, bytes: u64) -> u64 {
        let keep = 100 - u64::from(self.redundancy_percent());
        bytes * keep / 100
    }

    /// Sentilo-style provider name for the category.
    pub fn provider(self) -> &'static str {
        match self {
            Category::Energy => "ENERGY",
            Category::Noise => "NOISE",
            Category::Garbage => "GARBAGE",
            Category::Parking => "PARKING",
            Category::Urban => "URBANLAB",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Category::Energy => "Energy monitoring",
            Category::Noise => "Noise monitoring",
            Category::Garbage => "Garbage collection",
            Category::Parking => "Parking spot",
            Category::Urban => "Urban Lab monitoring",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redundancy_rates_match_the_paper() {
        assert_eq!(Category::Energy.redundancy_percent(), 50);
        assert_eq!(Category::Noise.redundancy_percent(), 75);
        assert_eq!(Category::Garbage.redundancy_percent(), 70);
        assert_eq!(Category::Parking.redundancy_percent(), 40);
        assert_eq!(Category::Urban.redundancy_percent(), 30);
    }

    #[test]
    fn reduce_bytes_is_exact_on_table_entries() {
        // Table I: energy 1,555,774 -> 777,887 per transaction wave.
        assert_eq!(Category::Energy.reduce_bytes(1_555_774), 777_887);
        // Noise 220,000 -> 55,000.
        assert_eq!(Category::Noise.reduce_bytes(220_000), 55_000);
        // Garbage 2,000,000 -> 600,000.
        assert_eq!(Category::Garbage.reduce_bytes(2_000_000), 600_000);
        // Parking 3,200,000 -> 1,920,000.
        assert_eq!(Category::Parking.reduce_bytes(3_200_000), 1_920_000);
        // Urban air quality 5,760,000 -> 4,032,000.
        assert_eq!(Category::Urban.reduce_bytes(5_760_000), 4_032_000);
    }

    #[test]
    fn all_has_distinct_display_and_providers() {
        let mut names: Vec<String> = Category::ALL.iter().map(|c| c.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 5);
        let mut providers: Vec<&str> = Category::ALL.iter().map(|c| c.provider()).collect();
        providers.sort();
        providers.dedup();
        assert_eq!(providers.len(), 5);
    }
}
