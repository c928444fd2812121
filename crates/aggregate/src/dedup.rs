//! Redundant-data elimination — the paper's first evaluated aggregation
//! technique (§V.A): "each sensor sends the current temperature
//! measurements, but this type of data is prone to repetitions, so
//! eliminating them may easily reduce such amount of data".
//!
//! [`RedundancyFilter`] remembers each sensor's last admitted value and
//! suppresses exact repetitions. An optional *maximum suppression age*
//! bounds how long a value can be suppressed before being re-admitted as a
//! heartbeat (so downstream consumers can distinguish "unchanged" from
//! "dead sensor") — disabled by default, matching the paper's accounting.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use scc_sensors::{IdMap, Reading, SensorId, Value};

/// Counters describing what a filter did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Readings offered to the filter.
    pub seen: u64,
    /// Readings admitted (forwarded upward).
    pub admitted: u64,
    /// Readings suppressed as redundant.
    pub suppressed: u64,
    /// Suppressed readings re-admitted due to the heartbeat age bound.
    pub heartbeats: u64,
}

impl DedupStats {
    /// Fraction of offered readings that were suppressed.
    pub fn suppression_rate(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.suppressed as f64 / self.seen as f64
        }
    }
}

#[derive(Debug, Clone)]
struct LastSeen {
    value: Value,
    admitted_at: u64,
}

/// Per-sensor exact-repetition suppressor.
///
/// # Examples
///
/// ```
/// use f2c_aggregate::RedundancyFilter;
/// use scc_sensors::{Reading, SensorId, SensorType, Value};
///
/// let id = SensorId::new(SensorType::Temperature, 0);
/// let mut f = RedundancyFilter::new();
/// assert!(f.admit(&Reading::new(id, 0, Value::from_f64(20.0))));
/// assert!(!f.admit(&Reading::new(id, 60, Value::from_f64(20.0)))); // repeat
/// assert!(f.admit(&Reading::new(id, 120, Value::from_f64(20.5)))); // change
/// ```
#[derive(Debug, Clone, Default)]
pub struct RedundancyFilter {
    /// Keyed by the ids of the sensors this node serves; probed once per
    /// offered reading and never iterated.
    last: IdMap<SensorId, LastSeen>,
    max_suppress_secs: Option<u64>,
    stats: DedupStats,
}

impl RedundancyFilter {
    /// A filter with no heartbeat bound (pure elimination, as in the paper).
    pub fn new() -> Self {
        Self::default()
    }

    /// A filter that re-admits an unchanged value once `max_secs` have
    /// passed since the last admission for that sensor.
    pub fn with_heartbeat(max_secs: u64) -> Self {
        Self {
            last: IdMap::default(),
            max_suppress_secs: Some(max_secs),
            stats: DedupStats::default(),
        }
    }

    /// Decides whether `reading` must be forwarded; updates filter state.
    pub fn admit(&mut self, reading: &Reading) -> bool {
        self.stats.seen += 1;
        let now = reading.timestamp_s();
        match self.last.get_mut(&reading.sensor()) {
            Some(entry) if entry.value == *reading.value() => {
                let expired = self
                    .max_suppress_secs
                    .is_some_and(|max| now.saturating_sub(entry.admitted_at) >= max);
                if !expired {
                    self.stats.suppressed += 1;
                    return false;
                }
                entry.admitted_at = now;
                self.stats.heartbeats += 1;
            }
            Some(entry) => {
                entry.value.clone_from(reading.value());
                entry.admitted_at = now;
            }
            None => {
                self.last.insert(
                    reading.sensor(),
                    LastSeen {
                        value: reading.value().clone(),
                        admitted_at: now,
                    },
                );
            }
        }
        self.stats.admitted += 1;
        true
    }

    /// Filters a batch, returning only the admitted readings.
    pub fn filter_batch(&mut self, readings: Vec<Reading>) -> Vec<Reading> {
        readings.into_iter().filter(|r| self.admit(r)).collect()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> DedupStats {
        self.stats
    }

    /// Number of sensors the filter currently tracks.
    pub fn tracked_sensors(&self) -> usize {
        self.last.len()
    }

    /// Clears per-sensor memory (stats are kept).
    pub fn reset_memory(&mut self) {
        self.last.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{ReadingGenerator, SensorType};

    fn reading(idx: u32, t: u64, v: f64) -> Reading {
        Reading::new(
            SensorId::new(SensorType::Temperature, idx),
            t,
            Value::from_f64(v),
        )
    }

    #[test]
    fn first_reading_is_always_admitted() {
        let mut f = RedundancyFilter::new();
        assert!(f.admit(&reading(0, 0, 1.0)));
        assert!(f.admit(&reading(1, 0, 1.0))); // different sensor, same value
    }

    #[test]
    fn exact_repeats_are_suppressed_indefinitely_without_heartbeat() {
        let mut f = RedundancyFilter::new();
        f.admit(&reading(0, 0, 5.0));
        for t in 1..1000 {
            assert!(!f.admit(&reading(0, t * 900, 5.0)));
        }
        assert_eq!(f.stats().suppressed, 999);
    }

    #[test]
    fn heartbeat_bound_readmits_stale_values() {
        let mut f = RedundancyFilter::with_heartbeat(3600);
        f.admit(&reading(0, 0, 5.0));
        assert!(!f.admit(&reading(0, 900, 5.0)));
        assert!(!f.admit(&reading(0, 1800, 5.0)));
        assert!(f.admit(&reading(0, 3600, 5.0))); // heartbeat
        assert!(!f.admit(&reading(0, 4500, 5.0))); // suppression restarts
        assert_eq!(f.stats().heartbeats, 1);
    }

    #[test]
    fn value_change_resets_suppression() {
        let mut f = RedundancyFilter::new();
        f.admit(&reading(0, 0, 5.0));
        assert!(f.admit(&reading(0, 60, 6.0)));
        assert!(!f.admit(&reading(0, 120, 6.0)));
        assert!(f.admit(&reading(0, 180, 5.0))); // back to an old value is a change
    }

    #[test]
    fn batch_filtering_preserves_order() {
        let mut f = RedundancyFilter::new();
        let batch = vec![
            reading(0, 0, 1.0),
            reading(0, 60, 1.0),
            reading(1, 60, 2.0),
            reading(0, 120, 3.0),
        ];
        let kept = f.filter_batch(batch);
        let times: Vec<u64> = kept.iter().map(Reading::timestamp_s).collect();
        assert_eq!(times, vec![0, 60, 120]);
    }

    #[test]
    fn measured_suppression_matches_generator_redundancy() {
        // End-to-end calibration: generator redundancy in, same rate out.
        for (ty, expected) in [
            (SensorType::Temperature, 0.50),
            (SensorType::NoiseTrafficZone, 0.75),
            (SensorType::ContainerGlass, 0.70),
            (SensorType::ParkingSpot, 0.40),
            (SensorType::AirQuality, 0.30),
        ] {
            let mut gen = ReadingGenerator::for_population(ty, 100, 9);
            let mut f = RedundancyFilter::new();
            for w in 0..100u64 {
                for r in gen.wave(w * 60) {
                    f.admit(&r);
                }
            }
            let rate = f.stats().suppression_rate();
            assert!(
                (rate - expected).abs() < 0.04,
                "{ty}: suppression {rate:.3}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn stats_are_consistent() {
        let mut f = RedundancyFilter::with_heartbeat(100);
        for t in 0..50 {
            f.admit(&reading(0, t * 30, 1.0));
        }
        let s = f.stats();
        assert_eq!(s.seen, 50);
        assert_eq!(s.admitted + s.suppressed, s.seen);
        assert!(s.heartbeats > 0 && s.heartbeats <= s.admitted);
    }

    /// The filter as it was over a SipHash `HashMap`: get, compare,
    /// re-insert on change. The reference the `IdMap` form is held to.
    #[derive(Default)]
    struct HashMapFilter {
        last: std::collections::HashMap<SensorId, (Value, u64)>,
        max_suppress_secs: Option<u64>,
        stats: DedupStats,
    }

    impl HashMapFilter {
        fn admit(&mut self, reading: &Reading) -> bool {
            self.stats.seen += 1;
            let now = reading.timestamp_s();
            match self.last.get_mut(&reading.sensor()) {
                Some((value, admitted_at)) if value == reading.value() => {
                    let expired = self
                        .max_suppress_secs
                        .is_some_and(|max| now.saturating_sub(*admitted_at) >= max);
                    if expired {
                        *admitted_at = now;
                        self.stats.admitted += 1;
                        self.stats.heartbeats += 1;
                    } else {
                        self.stats.suppressed += 1;
                    }
                    expired
                }
                _ => {
                    self.last
                        .insert(reading.sensor(), (reading.value().clone(), now));
                    self.stats.admitted += 1;
                    true
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn id_map_filter_gives_the_hash_map_filters_verdicts(
            // (type, index, time step, value): few sensors and few values,
            // so repeats, changes and heartbeats all interleave.
            offers in proptest::collection::vec((0usize..3, 0u32..6, 0u64..400, 0u64..3), 0..300),
            bounded in proptest::prelude::any::<bool>(),
            max_secs in 1u64..2_000,
        ) {
            let heartbeat = bounded.then_some(max_secs);
            let mut filter = match heartbeat {
                Some(max) => RedundancyFilter::with_heartbeat(max),
                None => RedundancyFilter::new(),
            };
            let mut model = HashMapFilter {
                max_suppress_secs: heartbeat,
                ..HashMapFilter::default()
            };
            let mut now = 0;
            for (ty, index, step, value) in offers {
                now += step;
                let id = SensorId::new(SensorType::ALL[ty * 7], index);
                let r = Reading::new(id, now, Value::Counter(value));
                proptest::prop_assert_eq!(filter.admit(&r), model.admit(&r));
                proptest::prop_assert_eq!(filter.stats(), model.stats);
            }
            proptest::prop_assert_eq!(filter.tracked_sensors(), model.last.len());
        }
    }

    #[test]
    fn reset_memory_keeps_stats_but_forgets_values() {
        let mut f = RedundancyFilter::new();
        f.admit(&reading(0, 0, 1.0));
        f.reset_memory();
        assert_eq!(f.tracked_sensors(), 0);
        assert!(f.admit(&reading(0, 60, 1.0))); // re-admitted after reset
        assert_eq!(f.stats().seen, 2);
    }
}
