//! Data quality assessment (§II: "aiming to appraise the quality level of
//! collected data"; §IV.A: "data quality can also be implemented at this
//! fog layer, assessing and guaranteeing higher data quality").
//!
//! Quality is checked once, in the acquisition block — the paper
//! explicitly notes processing and preservation need no quality phase
//! because everything reaching them was already checked.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use scc_sensors::{SensorType, Value};
use serde::{Deserialize, Serialize};

/// One detected quality violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Violation {
    /// Magnitude outside the plausible range for the sensor type.
    OutOfRange,
    /// The reading's timestamp is older than the staleness limit.
    Stale,
    /// The reading's timestamp lies in the future of the collection time.
    FutureTimestamp,
    /// A composite value with the wrong number of channels.
    MalformedComposite,
}

/// Most violations one assessment can detect: range, arity, and one of
/// future/stale.
const MAX_VIOLATIONS: usize = 3;

/// Result of assessing one reading.
///
/// The violations sit inline with a count — every stored record carries
/// its report, and a report with a heap list would carry an empty `Vec`
/// for almost every one. Slots past the count are held at
/// [`Violation::OutOfRange`], so the derived `==` still means "same
/// score, same violations".
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    score: f64,
    violations: [Violation; MAX_VIOLATIONS],
    len: u8,
}

impl QualityReport {
    /// A report with no violations (score 1.0).
    pub(crate) fn perfect() -> Self {
        Self {
            score: 1.0,
            violations: [Violation::OutOfRange; MAX_VIOLATIONS],
            len: 0,
        }
    }

    /// Quality score in `[0, 1]`; each violation costs 0.34 so two or more
    /// violations always fail the default 0.5 acceptance threshold.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Detected violations.
    pub fn violations(&self) -> &[Violation] {
        &self.violations[..usize::from(self.len)]
    }

    /// Whether the record passed (score ≥ 0.5 by convention).
    pub fn passed(&self) -> bool {
        self.score >= 0.5
    }

    fn push(&mut self, violation: Violation) {
        if let Some(slot) = self.violations.get_mut(usize::from(self.len)) {
            *slot = violation;
            self.len += 1;
        }
    }
}

/// Prints the report as it reads: score and the detected violations.
impl fmt::Debug for QualityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QualityReport")
            .field("score", &self.score)
            .field("violations", &self.violations())
            .finish()
    }
}

/// Plausibility bounds and staleness limits per sensor type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityPolicy {
    /// Maximum age (collection time − creation time) before a reading is
    /// considered stale, in seconds.
    pub max_staleness_s: u64,
    /// Per-violation score penalty.
    pub penalty: f64,
}

impl QualityPolicy {
    /// The default policy: 1-hour staleness, 0.34 penalty per violation.
    pub fn paper_default() -> Self {
        Self {
            max_staleness_s: 3600,
            penalty: 0.34,
        }
    }

    /// Plausible magnitude bounds for a sensor type.
    ///
    /// These encode physical sanity (temperatures in °C, noise in dB(A),
    /// levels in %, counters non-negative) rather than Sentilo specifics.
    pub(crate) fn bounds_for(ty: SensorType) -> (f64, f64) {
        use SensorType::*;
        match ty {
            Temperature
            | ExternalAmbientConditions
            | InternalAmbientConditions
            | SolarThermalInstallation => (-30.0, 70.0),
            NoiseAmbient | NoiseTrafficZone | NoiseLeisureZone => (0.0, 150.0),
            ElectricityMeter | GasMeter => (0.0, f64::MAX),
            BicycleFlow | PeopleFlow | Traffic => (0.0, f64::MAX),
            ParkingSpot => (0.0, 1.0),
            ContainerGlass | ContainerOrganic | ContainerPaper | ContainerPlastic
            | ContainerRefuse => (0.0, 100.0),
            NetworkAnalyzer => (0.0, 1_000.0),
            AirQuality => (0.0, 1_000.0),
            Weather => (-50.0, 200.0),
        }
    }

    /// Expected composite channel count, if the type is composite.
    pub(crate) fn composite_arity(ty: SensorType) -> Option<usize> {
        use SensorType::*;
        match ty {
            NetworkAnalyzer => Some(11),
            AirQuality => Some(6),
            Weather => Some(5),
            _ => None,
        }
    }

    /// Assesses one reading collected at `collected_s`.
    pub fn assess(
        &self,
        ty: SensorType,
        value: &Value,
        created_s: u64,
        collected_s: u64,
    ) -> QualityReport {
        let mut report = QualityReport::perfect();
        let (lo, hi) = Self::bounds_for(ty);
        let mag = value.magnitude();
        if !(lo..=hi).contains(&mag) {
            report.push(Violation::OutOfRange);
        }
        if let Value::Composite(fields) = value {
            if Self::composite_arity(ty).is_some_and(|n| n != fields.len()) {
                report.push(Violation::MalformedComposite);
            }
        }
        if created_s > collected_s {
            report.push(Violation::FutureTimestamp);
        } else if collected_s - created_s > self.max_staleness_s {
            report.push(Violation::Stale);
        }
        report.score = (1.0 - self.penalty * f64::from(report.len)).max(0.0);
        report
    }
}

impl Default for QualityPolicy {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_reading_scores_one() {
        let p = QualityPolicy::paper_default();
        let r = p.assess(SensorType::Temperature, &Value::from_f64(21.0), 100, 110);
        assert_eq!(r.score(), 1.0);
        assert!(r.passed());
        assert!(r.violations().is_empty());
    }

    #[test]
    fn out_of_range_detected() {
        let p = QualityPolicy::paper_default();
        let r = p.assess(SensorType::Temperature, &Value::from_f64(400.0), 0, 0);
        assert!(r.violations().contains(&Violation::OutOfRange));
        assert!(r.score() < 1.0);
        assert!(r.passed(), "one violation still passes at 0.66");
    }

    #[test]
    fn stale_and_future_timestamps_detected() {
        let p = QualityPolicy::paper_default();
        let stale = p.assess(SensorType::Weather, &Value::from_f64(10.0), 0, 10_000);
        assert!(stale.violations().contains(&Violation::Stale));
        let future = p.assess(SensorType::Weather, &Value::from_f64(10.0), 500, 100);
        assert!(future.violations().contains(&Violation::FutureTimestamp));
    }

    #[test]
    fn two_violations_fail() {
        let p = QualityPolicy::paper_default();
        let r = p.assess(
            SensorType::NoiseAmbient,
            &Value::from_f64(-10.0), // out of range
            0,
            50_000, // stale
        );
        assert_eq!(r.violations().len(), 2);
        assert!(!r.passed());
    }

    #[test]
    fn composite_arity_checked() {
        let p = QualityPolicy::paper_default();
        let bad = Value::Composite(vec![100, 200]); // weather expects 5
        let r = p.assess(SensorType::Weather, &bad, 0, 0);
        assert!(r.violations().contains(&Violation::MalformedComposite));
        let good = Value::Composite(vec![100, 200, 300, 400, 500]);
        let r = p.assess(SensorType::Weather, &good, 0, 0);
        assert!(!r.violations().contains(&Violation::MalformedComposite));
    }

    #[test]
    fn parking_flags_are_in_range() {
        let p = QualityPolicy::paper_default();
        for v in [Value::Flag(false), Value::Flag(true)] {
            assert!(p.assess(SensorType::ParkingSpot, &v, 0, 0).passed());
        }
    }

    #[test]
    fn score_floors_at_zero() {
        let p = QualityPolicy {
            max_staleness_s: 0,
            penalty: 0.9,
        };
        let r = p.assess(SensorType::Temperature, &Value::from_f64(999.0), 0, 100);
        assert_eq!(r.score(), 0.0);
    }

    /// `assess` as it was: the violations pushed onto a `Vec`. The
    /// reference the inline report is held to.
    fn assess_into_vec(
        p: &QualityPolicy,
        ty: SensorType,
        value: &Value,
        created_s: u64,
        collected_s: u64,
    ) -> (f64, Vec<Violation>) {
        let mut violations = Vec::new();
        let (lo, hi) = QualityPolicy::bounds_for(ty);
        if !(lo..=hi).contains(&value.magnitude()) {
            violations.push(Violation::OutOfRange);
        }
        if let Value::Composite(fields) = value {
            if QualityPolicy::composite_arity(ty).is_some_and(|n| n != fields.len()) {
                violations.push(Violation::MalformedComposite);
            }
        }
        if created_s > collected_s {
            violations.push(Violation::FutureTimestamp);
        } else if collected_s - created_s > p.max_staleness_s {
            violations.push(Violation::Stale);
        }
        let score = (1.0 - p.penalty * violations.len() as f64).max(0.0);
        (score, violations)
    }

    #[test]
    fn inline_report_matches_the_vec_built_one_for_every_rule_combination() {
        assert!(std::mem::size_of::<Option<QualityReport>>() <= 16);
        let policies = [
            QualityPolicy::paper_default(),
            QualityPolicy {
                max_staleness_s: 0,
                penalty: 0.9,
            },
            QualityPolicy {
                max_staleness_s: 10,
                penalty: 0.0,
            },
            QualityPolicy {
                max_staleness_s: u64::MAX,
                penalty: 1.0,
            },
        ];
        // In range or not × well-formed, malformed or scalar × fresh,
        // stale, future, at the edges of the `u64` range.
        let values = [
            Value::Composite(vec![100, 200, 300, 400, 500]),
            Value::Composite(vec![100, 200]),
            Value::Composite(vec![100_000, 200, 300, 400, 500]),
            Value::Composite(vec![100_000]),
            Value::from_f64(10.0),
            Value::from_f64(-400.0),
        ];
        let instants = [
            (100, 110),
            (0, 50_000),
            (500, 100),
            (0, u64::MAX),
            (u64::MAX, 0),
            (u64::MAX, u64::MAX),
        ];
        let mut kinds = std::collections::HashSet::new();
        for p in &policies {
            for ty in [SensorType::Weather, SensorType::Temperature] {
                for value in &values {
                    for &(created, collected) in &instants {
                        let report = p.assess(ty, value, created, collected);
                        let (score, violations) = assess_into_vec(p, ty, value, created, collected);
                        assert_eq!(report.violations(), violations.as_slice());
                        assert_eq!(report.score().to_bits(), score.to_bits());
                        assert!(report == report.clone());
                        assert_eq!(
                            format!("{report:?}"),
                            format!(
                                "QualityReport {{ score: {score:?}, violations: {violations:?} }}"
                            )
                        );
                        kinds.insert(violations);
                    }
                }
            }
        }
        // Every subset the rules can produce: 2 (range) × 2 (arity) × 3
        // (timing) combinations, up to all three at once.
        assert_eq!(kinds.len(), 12);
        assert!(kinds.iter().any(|v| v.len() == MAX_VIOLATIONS));
    }

    #[test]
    fn equal_reports_are_equal_and_different_ones_are_not() {
        let p = QualityPolicy::paper_default();
        let a = p.assess(SensorType::Weather, &Value::from_f64(400.0), 0, 0);
        let b = p.assess(SensorType::Weather, &Value::from_f64(401.0), 0, 0);
        let c = p.assess(SensorType::Weather, &Value::from_f64(400.0), 0, 10_000);
        assert_eq!(a, b, "same score, same violations");
        assert_ne!(a, c);
        assert_ne!(a, QualityReport::perfect());
        assert_eq!(
            p.assess(SensorType::Weather, &Value::from_f64(20.0), 0, 0),
            QualityReport::perfect()
        );
    }
}
