//! Redundant-data elimination — the paper's first evaluated aggregation
//! technique (§V.A): "each sensor sends the current temperature
//! measurements, but this type of data is prone to repetitions, so
//! eliminating them may easily reduce such amount of data".
//!
//! [`RedundancyFilter`] remembers each sensor's last admitted value and
//! suppresses exact repetitions, however long they last — the paper's
//! accounting.

use scc_sensors::{heap, IdMap, Reading, SensorId, Value};

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
    /// offered reading and iterated only to be priced.
    last: IdMap<SensorId, Value>,
}

impl RedundancyFilter {
    /// An empty filter (pure elimination, as in the paper).
    pub fn new() -> Self {
        Self::default()
    }

    /// Decides whether `reading` must be forwarded; updates filter state.
    pub fn admit(&mut self, reading: &Reading) -> bool {
        match self.last.get_mut(&reading.sensor()) {
            Some(last) if last == reading.value() => return false,
            Some(last) => last.clone_from(reading.value()),
            None => {
                self.last.insert(reading.sensor(), reading.value().clone());
            }
        }
        true
    }

    /// Heap bytes at rest: the table of last values (it only grows) and
    /// the composite ones' field vectors.
    pub fn heap_bytes(&self) -> u64 {
        heap::table_bytes::<(SensorId, Value)>(self.last.capacity())
            + self.last.values().map(Value::heap_bytes).sum::<u64>()
    }

    /// Filters a batch, returning only the admitted readings.
    pub fn filter_batch(&mut self, readings: Vec<Reading>) -> Vec<Reading> {
        readings.into_iter().filter(|r| self.admit(r)).collect()
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
            let (mut seen, mut suppressed) = (0u64, 0u64);
            for w in 0..100u64 {
                for r in gen.wave(w * 60) {
                    seen += 1;
                    suppressed += u64::from(!f.admit(&r));
                }
            }
            let rate = suppressed as f64 / seen as f64;
            assert!(
                (rate - expected).abs() < 0.04,
                "{ty}: suppression {rate:.3}, expected ~{expected}"
            );
        }
    }

    /// The filter as it was over a SipHash `HashMap`: get, compare,
    /// re-insert on change. The reference the `IdMap` form is held to.
    #[derive(Default)]
    struct HashMapFilter {
        last: std::collections::HashMap<SensorId, Value>,
    }

    impl HashMapFilter {
        fn admit(&mut self, reading: &Reading) -> bool {
            match self.last.get(&reading.sensor()) {
                Some(value) if value == reading.value() => false,
                _ => {
                    self.last.insert(reading.sensor(), reading.value().clone());
                    true
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn id_map_filter_gives_the_hash_map_filters_verdicts(
            // (type, index, time step, value): few sensors and few values,
            // so repeats and changes interleave.
            offers in proptest::collection::vec((0usize..3, 0u32..6, 0u64..400, 0u64..3), 0..300),
        ) {
            let mut filter = RedundancyFilter::new();
            let mut model = HashMapFilter::default();
            let mut now = 0;
            for (ty, index, step, value) in offers {
                now += step;
                let id = SensorId::new(SensorType::ALL[ty * 7], index);
                let r = Reading::new(id, now, Value::Counter(value));
                proptest::prop_assert_eq!(filter.admit(&r), model.admit(&r));
            }
            proptest::prop_assert_eq!(filter.last.len(), model.last.len());
        }
    }
}
