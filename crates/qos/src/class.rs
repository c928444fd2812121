//! The service classes of the paper's consumer taxonomy (§IV.D), with
//! the fixed priority order admission control enforces under pressure.

use std::fmt;

/// A consumer service class: live per-section reads, refreshing district
/// dashboards, long-window analytics, and city-wide situation panels.
///
/// Classes carry a fixed **priority**, the order of [`ServiceClass::ALL`]
/// (deliberately not `Ord`, so rankings are always explicit): under
/// admission pressure the engine sheds the lowest-priority classes
/// first, and a class's *guaranteed* quota can never be consumed by
/// another class's borrowed slots — a cloud-bound analytics burst
/// cannot shed a real-time read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceClass {
    /// District dashboards: aggregate panels over recent settled windows,
    /// plus an occasional raw feed of the user's own section.
    Dashboard,
    /// Long-window district aggregates (history since the epoch start).
    Analytics,
    /// Latest-value point reads at the user's own section.
    RealTime,
    /// City-wide aggregates (and an occasional city-wide latest-value
    /// probe) over recent settled windows — the scatter-gather workload.
    CityWide,
}

/// Number of service classes (the size of every per-class table).
pub const CLASS_COUNT: usize = 4;

impl ServiceClass {
    /// All classes, highest priority first.
    pub const ALL: [ServiceClass; CLASS_COUNT] = [
        ServiceClass::RealTime,
        ServiceClass::Dashboard,
        ServiceClass::CityWide,
        ServiceClass::Analytics,
    ];

    /// Dense index (0..[`CLASS_COUNT`]) for per-class tables (quotas,
    /// in-flight ledgers, shed counters, latency histograms).
    pub fn index(self) -> usize {
        match self {
            ServiceClass::RealTime => 0,
            ServiceClass::Dashboard => 1,
            ServiceClass::CityWide => 2,
            ServiceClass::Analytics => 3,
        }
    }

    /// Short label for tables and transcripts.
    pub fn label(self) -> &'static str {
        match self {
            ServiceClass::RealTime => "realtime",
            ServiceClass::Dashboard => "dashboard",
            ServiceClass::CityWide => "citywide",
            ServiceClass::Analytics => "analytics",
        }
    }
}

impl fmt::Display for ServiceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; CLASS_COUNT];
        for class in ServiceClass::ALL {
            assert!(!seen[class.index()], "duplicate index for {class}");
            seen[class.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn all_is_ordered_by_descending_priority() {
        assert_eq!(ServiceClass::ALL[0], ServiceClass::RealTime);
        assert_eq!(
            ServiceClass::ALL[CLASS_COUNT - 1],
            ServiceClass::Analytics,
            "bulk analytics sheds first"
        );
    }
}
