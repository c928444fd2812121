//! Deterministic observation generators with calibrated redundancy.
//!
//! The paper's redundant-data elimination results (Table I) hinge on one
//! empirical property per category: the fraction of observations whose value
//! repeats the sensor's previous report (energy 50 %, noise 75 %, garbage
//! 70 %, parking 40 %, urban 30 %). [`SensorStream`] produces value
//! sequences with exactly that repeat probability on top of a per-type value
//! model, so the dedup filter downstream measures the published rates and
//! the simulation cross-validates the analytic traffic model.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::rngutil::derive_rng;
use crate::{Category, Reading, SensorId, SensorType, Shape, Value};

/// One sensor's evolving value. Its variant — and a composite's field
/// count — follows the type's [`Shape`]; what stays per type here is
/// where each walk starts and the band it keeps to.
#[derive(Debug, Clone)]
enum Model {
    /// Bounded random walk with fixed-point output ([`Shape::Scalar`]).
    RandomWalk {
        value: f64,
        min: f64,
        max: f64,
        step: f64,
    },
    /// Monotonically increasing counter ([`Shape::Counter`]).
    Counter { value: u64, max_increment: u64 },
    /// Binary occupancy ([`Shape::Flag`]).
    Occupancy { occupied: bool },
    /// Fill level 0–100 %, emptied when full ([`Shape::Level`]).
    Fill { level: u8, max_increment: u8 },
    /// One bounded walk per field ([`Shape::Composite`]).
    Composite {
        values: Vec<f64>,
        min: f64,
        max: f64,
        step: f64,
    },
}

impl Model {
    fn for_type(ty: SensorType, rng: &mut SmallRng) -> Self {
        match ty.shape() {
            Shape::Scalar => {
                let (start, min, max, step) = match ty.category() {
                    Category::Noise => (35.0..80.0, 25.0, 115.0, 2.0),
                    _ => (5.0..30.0, -10.0, 55.0, 0.5),
                };
                Model::RandomWalk {
                    value: rng.gen_range(start),
                    min,
                    max,
                    step,
                }
            }
            // Meters are read mid-life; flow counts start from zero.
            Shape::Counter if ty.category() == Category::Energy => Model::Counter {
                value: rng.gen_range(0..50_000),
                max_increment: 40,
            },
            Shape::Counter => Model::Counter {
                value: 0,
                max_increment: 120,
            },
            Shape::Flag => Model::Occupancy {
                occupied: rng.gen_bool(0.5),
            },
            Shape::Level => Model::Fill {
                level: rng.gen_range(0..60),
                max_increment: 7,
            },
            Shape::Composite { arity } => {
                let (start, min, max, step) = match ty {
                    SensorType::NetworkAnalyzer => (210.0..240.0, 0.0, 500.0, 3.0),
                    SensorType::AirQuality => (5.0..80.0, 0.0, 500.0, 4.0),
                    _ => (0.0..30.0, -20.0, 120.0, 1.5),
                };
                Model::Composite {
                    values: (0..arity).map(|_| rng.gen_range(start.clone())).collect(),
                    min,
                    max,
                    step,
                }
            }
        }
    }

    /// Advances to a *new* value, guaranteed different from the previous
    /// emitted value so the repeat probability is controlled exclusively by
    /// the stream's redundancy parameter.
    fn advance(&mut self, rng: &mut SmallRng, previous: Option<&Value>) -> Value {
        for _ in 0..16 {
            let candidate = self.step_once(rng);
            if previous != Some(&candidate) {
                return candidate;
            }
        }
        // Pathological corner (e.g. walk pinned at a bound): force change.
        self.force_distinct(previous)
    }

    fn step_once(&mut self, rng: &mut SmallRng) -> Value {
        match self {
            Model::RandomWalk {
                value,
                min,
                max,
                step,
            } => {
                *value += rng.gen_range(-*step..=*step);
                *value = value.clamp(*min, *max);
                Value::from_f64(*value)
            }
            Model::Counter {
                value,
                max_increment,
            } => {
                *value += rng.gen_range(1..=*max_increment);
                Value::Counter(*value)
            }
            Model::Occupancy { occupied } => {
                *occupied = !*occupied;
                Value::Flag(*occupied)
            }
            Model::Fill {
                level,
                max_increment,
            } => {
                let inc = rng.gen_range(1..=*max_increment);
                let next = u16::from(*level) + u16::from(inc);
                *level = if next >= 100 { 0 } else { next as u8 };
                Value::Level(*level)
            }
            Model::Composite {
                values,
                min,
                max,
                step,
            } => {
                for v in values.iter_mut() {
                    *v += rng.gen_range(-*step..=*step);
                    *v = v.clamp(*min, *max);
                }
                Value::Composite(values.iter().map(|v| (v * 100.0).round() as i64).collect())
            }
        }
    }

    fn force_distinct(&mut self, previous: Option<&Value>) -> Value {
        match self {
            Model::RandomWalk {
                value, min, max, ..
            } => {
                *value = if (*value - *min).abs() < 1.0 {
                    *max
                } else {
                    *min
                };
                let v = Value::from_f64(*value);
                debug_assert!(previous != Some(&v));
                v
            }
            Model::Counter { value, .. } => {
                *value += 1;
                Value::Counter(*value)
            }
            Model::Occupancy { occupied } => {
                // step_once always flips, so this is unreachable in practice.
                Value::Flag(*occupied)
            }
            Model::Fill { level, .. } => {
                *level = if *level == 0 { 1 } else { 0 };
                Value::Level(*level)
            }
            Model::Composite { values, max, .. } => {
                if let Some(first) = values.first_mut() {
                    *first = if (*first - *max).abs() < 0.01 {
                        *max - 1.0
                    } else {
                        *max
                    };
                }
                Value::Composite(values.iter().map(|v| (v * 100.0).round() as i64).collect())
            }
        }
    }
}

/// Deterministic observation stream for one sensor.
///
/// # Examples
///
/// ```
/// use scc_sensors::{SensorStream, SensorId, SensorType};
///
/// let id = SensorId::new(SensorType::Temperature, 0);
/// let mut a = SensorStream::new(id, 42);
/// let mut b = SensorStream::new(id, 42);
/// assert_eq!(a.next_reading(0), b.next_reading(0)); // fully deterministic
/// ```
#[derive(Debug, Clone)]
pub struct SensorStream {
    id: SensorId,
    rng: SmallRng,
    redundancy: f64,
    model: Model,
    last: Option<Value>,
}

impl SensorStream {
    /// Creates a stream whose repeat probability is the sensor category's
    /// published redundancy rate.
    pub fn new(id: SensorId, root_seed: u64) -> Self {
        let redundancy = f64::from(id.sensor_type().category().redundancy_percent()) / 100.0;
        Self::with_redundancy(id, root_seed, redundancy)
    }

    /// Creates a stream with an explicit repeat probability in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `redundancy` is not in `[0, 1)`.
    pub(crate) fn with_redundancy(id: SensorId, root_seed: u64, redundancy: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&redundancy),
            "redundancy must be in [0,1), got {redundancy}"
        );
        let mut rng = derive_rng(root_seed, id.seed_material());
        let model = Model::for_type(id.sensor_type(), &mut rng);
        Self {
            id,
            rng,
            redundancy,
            model,
            last: None,
        }
    }

    /// Produces the observation at `timestamp_s`.
    pub fn next_reading(&mut self, timestamp_s: u64) -> Reading {
        let value = match &self.last {
            Some(prev) if self.rng.gen_bool(self.redundancy) => prev.clone(),
            prev_opt => {
                let prev = prev_opt.clone();
                self.model.advance(&mut self.rng, prev.as_ref())
            }
        };
        self.last = Some(value.clone());
        Reading::new(self.id, timestamp_s, value)
    }
}

/// Generates observation waves for a whole population of one sensor type.
///
/// # Examples
///
/// ```
/// use scc_sensors::{ReadingGenerator, SensorType};
///
/// let mut g = ReadingGenerator::for_population(SensorType::ParkingSpot, 100, 7);
/// let wave = g.wave(0);
/// assert_eq!(wave.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct ReadingGenerator {
    streams: Vec<SensorStream>,
}

impl ReadingGenerator {
    /// A population of `count` sensors of type `ty`, category redundancy.
    pub fn for_population(ty: SensorType, count: u32, root_seed: u64) -> Self {
        let streams = (0..count)
            .map(|i| SensorStream::new(SensorId::new(ty, i), root_seed))
            .collect();
        Self { streams }
    }

    /// Number of sensors in the population.
    pub fn population(&self) -> usize {
        self.streams.len()
    }

    /// One transaction wave: every sensor reports once at `timestamp_s`.
    pub fn wave(&mut self, timestamp_s: u64) -> Vec<Reading> {
        self.streams
            .iter_mut()
            .map(|s| s.next_reading(timestamp_s))
            .collect()
    }
}

/// A *time-correlated* observation stream: instead of a fixed per-wave
/// repeat probability, the underlying phenomenon changes as a Poisson
/// process with mean lifetime `tau_s`. Two consecutive samples `dt`
/// seconds apart repeat with probability `exp(-dt / tau_s)` — so sampling
/// *faster* yields *more* redundancy, which is exactly the physics behind
/// §IV.D's claim that the collection frequency can be raised at fog 1
/// while dedup absorbs the extra traffic.
#[derive(Debug, Clone)]
pub struct TimeCorrelatedStream {
    id: SensorId,
    rng: SmallRng,
    model: Model,
    tau_s: f64,
    last: Option<(u64, Value)>,
}

impl TimeCorrelatedStream {
    /// A stream whose phenomenon has mean lifetime `tau_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics unless `tau_s` is positive and finite.
    pub(crate) fn new(id: SensorId, root_seed: u64, tau_s: f64) -> Self {
        assert!(
            tau_s.is_finite() && tau_s > 0.0,
            "tau must be positive, got {tau_s}"
        );
        let mut rng = derive_rng(root_seed, id.seed_material() ^ 0x7C0D);
        let model = Model::for_type(id.sensor_type(), &mut rng);
        Self {
            id,
            rng,
            model,
            tau_s,
            last: None,
        }
    }

    /// Calibrates `tau` so that sampling every `reference_interval_s`
    /// reproduces the sensor category's Table-I redundancy rate:
    /// `exp(-interval/tau) = redundancy  ⇒  tau = -interval / ln(redundancy)`.
    pub fn calibrated(id: SensorId, root_seed: u64, reference_interval_s: f64) -> Self {
        let redundancy = f64::from(id.sensor_type().category().redundancy_percent()) / 100.0;
        let tau = -reference_interval_s / redundancy.ln();
        Self::new(id, root_seed, tau)
    }

    /// Produces the observation at `timestamp_s` (timestamps must be
    /// non-decreasing; equal timestamps always repeat).
    pub fn next_reading(&mut self, timestamp_s: u64) -> Reading {
        let value = match &self.last {
            Some((t0, prev)) => {
                let dt = timestamp_s.saturating_sub(*t0) as f64;
                let p_repeat = (-dt / self.tau_s).exp();
                if self.rng.gen_bool(p_repeat.clamp(0.0, 1.0)) {
                    prev.clone()
                } else {
                    let prev = prev.clone();
                    self.model.advance(&mut self.rng, Some(&prev))
                }
            }
            None => self.model.advance(&mut self.rng, None),
        };
        self.last = Some((timestamp_s, value.clone()));
        Reading::new(self.id, timestamp_s, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured_redundancy(ty: SensorType, waves: usize, pop: u32) -> f64 {
        let mut g = ReadingGenerator::for_population(ty, pop, 1234);
        let mut last: Vec<Option<Value>> = vec![None; pop as usize];
        let mut repeats = 0usize;
        let mut total = 0usize;
        for w in 0..waves {
            for (i, r) in g.wave(w as u64 * 60).into_iter().enumerate() {
                if last[i].as_ref() == Some(r.value()) {
                    repeats += 1;
                }
                if last[i].is_some() {
                    total += 1;
                }
                last[i] = Some(r.value().clone());
            }
        }
        repeats as f64 / total as f64
    }

    #[test]
    fn redundancy_matches_category_rate() {
        for (ty, cat) in [
            (SensorType::Temperature, Category::Energy),
            (SensorType::NoiseTrafficZone, Category::Noise),
            (SensorType::ContainerGlass, Category::Garbage),
            (SensorType::ParkingSpot, Category::Parking),
            (SensorType::Weather, Category::Urban),
        ] {
            let target = f64::from(cat.redundancy_percent()) / 100.0;
            let measured = measured_redundancy(ty, 50, 200);
            assert!(
                (measured - target).abs() < 0.03,
                "{ty}: measured {measured:.3}, target {target:.3}"
            );
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let id = SensorId::new(SensorType::AirQuality, 3);
        let mut a = SensorStream::new(id, 99);
        let mut b = SensorStream::new(id, 99);
        for t in 0..50 {
            assert_eq!(a.next_reading(t), b.next_reading(t));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let id = SensorId::new(SensorType::Temperature, 3);
        let mut a = SensorStream::new(id, 1);
        let mut b = SensorStream::new(id, 2);
        let same = (0..50)
            .filter(|&t| a.next_reading(t) == b.next_reading(t))
            .count();
        assert!(
            same < 40,
            "independent seeds should diverge, {same}/50 equal"
        );
    }

    #[test]
    fn counters_are_monotone() {
        let id = SensorId::new(SensorType::ElectricityMeter, 0);
        let mut s = SensorStream::with_redundancy(id, 5, 0.0);
        let mut prev = 0u64;
        for t in 0..200 {
            if let Value::Counter(c) = s.next_reading(t).value() {
                assert!(*c >= prev);
                prev = *c;
            } else {
                panic!("meter must emit counters");
            }
        }
    }

    #[test]
    fn walks_stay_in_bounds() {
        let id = SensorId::new(SensorType::NoiseLeisureZone, 0);
        let mut s = SensorStream::with_redundancy(id, 5, 0.0);
        for t in 0..2000 {
            let r = s.next_reading(t);
            assert!(matches!(r.value(), Value::Scalar(_)), "noise is scalar");
            let v = r.value().magnitude();
            assert!((25.0..=115.0).contains(&v), "out of bounds: {v}");
        }
    }

    #[test]
    fn zero_redundancy_never_repeats() {
        for ty in [
            SensorType::Temperature,
            SensorType::ParkingSpot,
            SensorType::ContainerPaper,
            SensorType::NetworkAnalyzer,
        ] {
            let id = SensorId::new(ty, 0);
            let mut s = SensorStream::with_redundancy(id, 77, 0.0);
            let mut prev: Option<Value> = None;
            for t in 0..500 {
                let r = s.next_reading(t);
                assert_ne!(prev.as_ref(), Some(r.value()), "{ty} repeated at t={t}");
                prev = Some(r.value().clone());
            }
        }
    }

    #[test]
    fn composite_field_counts_are_stable() {
        let id = SensorId::new(SensorType::NetworkAnalyzer, 0);
        let mut s = SensorStream::new(id, 3);
        for t in 0..20 {
            match s.next_reading(t).value() {
                Value::Composite(fields) => assert_eq!(fields.len(), 11),
                other => panic!("expected composite, got {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_redundancy_panics() {
        let id = SensorId::new(SensorType::Temperature, 0);
        assert!(std::panic::catch_unwind(|| {
            SensorStream::with_redundancy(id, 0, 1.0);
        })
        .is_err());
    }

    fn measured_repeat_rate(interval_s: u64, samples: u64) -> f64 {
        let mut repeats = 0u64;
        let mut total = 0u64;
        for sensor in 0..50u32 {
            let id = SensorId::new(SensorType::Temperature, sensor);
            let mut s = TimeCorrelatedStream::calibrated(id, 99, 900.0);
            let mut prev: Option<Value> = None;
            for k in 0..samples {
                let r = s.next_reading(k * interval_s);
                if prev.as_ref() == Some(r.value()) {
                    repeats += 1;
                }
                if prev.is_some() {
                    total += 1;
                }
                prev = Some(r.value().clone());
            }
        }
        repeats as f64 / total as f64
    }

    #[test]
    fn time_correlated_stream_reproduces_table1_rate_at_reference_interval() {
        // Energy: 50% redundancy at the 900 s reference interval.
        let rate = measured_repeat_rate(900, 200);
        assert!(
            (rate - 0.5).abs() < 0.04,
            "rate {rate:.3} at reference interval"
        );
    }

    #[test]
    fn faster_sampling_yields_more_redundancy() {
        // Halving the interval raises the repeat probability to
        // exp(-450/tau) = sqrt(0.5) ≈ 0.707.
        let rate = measured_repeat_rate(450, 200);
        assert!(
            (rate - 0.707).abs() < 0.04,
            "rate {rate:.3} at half interval"
        );
        // And 4x sampling: exp(-225/tau) = 0.5^(1/4) ≈ 0.841.
        let rate = measured_repeat_rate(225, 400);
        assert!(
            (rate - 0.841).abs() < 0.04,
            "rate {rate:.3} at quarter interval"
        );
    }

    #[test]
    fn time_correlated_stream_is_deterministic() {
        let id = SensorId::new(SensorType::ParkingSpot, 3);
        let mut a = TimeCorrelatedStream::calibrated(id, 5, 864.0);
        let mut b = TimeCorrelatedStream::calibrated(id, 5, 864.0);
        for t in 0..100u64 {
            assert_eq!(a.next_reading(t * 100), b.next_reading(t * 100));
        }
    }

    #[test]
    #[should_panic(expected = "tau must be positive")]
    fn degenerate_tau_panics() {
        TimeCorrelatedStream::new(SensorId::new(SensorType::Weather, 0), 0, 0.0);
    }
}
