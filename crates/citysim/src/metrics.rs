//! Counters and latency histograms.
//!
//! The experiments report traffic volumes (bytes moved per link per day) and
//! latency distributions (fog vs cloud access). [`Histogram`] is the
//! accumulation primitive; it is a plain value so simulations stay
//! single-threaded-deterministic.

use std::fmt;

use crate::time::Duration;

/// A log-bucketed duration histogram (2 buckets per octave, 1 µs .. ~1.2 h).
///
/// Good to ±~19 % relative quantile error, which is far below the order-of-
/// magnitude contrasts the experiments assert on (edge RTT vs WAN RTT).
///
/// # Examples
///
/// ```
/// use citysim::{Histogram, Duration};
///
/// let mut h = Histogram::new();
/// for ms in [1u64, 2, 3, 4, 100] {
///     h.record(Duration::from_millis(ms));
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.quantile(0.5) < Duration::from_millis(8));
/// assert!(h.max() >= Duration::from_millis(100));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// bucket i covers [lower_bound(i), lower_bound(i+1)).
    buckets: Vec<u64>,
    count: u64,
    sum_micros: u128,
    min: Duration,
    max: Duration,
}

const BUCKETS_PER_OCTAVE: u32 = 2;

/// Number of log-spaced buckets every [`Histogram`] uses. Public so
/// exemplar stores can mirror the bucket layout slot-for-slot.
pub const NUM_BUCKETS: usize = 64;

/// The bucket a duration of `micros` lands in (shared with exemplar
/// stores, which keep one exemplar slot per histogram bucket).
pub fn bucket_index(micros: u64) -> usize {
    if micros == 0 {
        return 0;
    }
    let octave = 63 - micros.leading_zeros();
    let half = if micros >= (1u64 << octave) + (1u64 << octave.saturating_sub(1)) {
        1
    } else {
        0
    };
    ((octave * BUCKETS_PER_OCTAVE + half) as usize + 1).min(NUM_BUCKETS - 1)
}

/// Upper bound (inclusive reporting edge) of bucket `index`, microseconds.
pub fn bucket_upper_micros(index: usize) -> u64 {
    if index == 0 {
        return 1;
    }
    let i = (index - 1) as u32;
    let octave = i / BUCKETS_PER_OCTAVE;
    let half = i % BUCKETS_PER_OCTAVE;
    let base = 1u64 << octave;
    if half == 0 {
        base + base / 2
    } else {
        base * 2
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum_micros: 0,
            min: Duration::from_micros(u64::MAX),
            max: Duration::ZERO,
        }
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: Duration) {
        self.buckets[bucket_index(d.as_micros())] += 1;
        self.count += 1;
        self.sum_micros += u128::from(d.as_micros());
        if d < self.min {
            self.min = d;
        }
        if d > self.max {
            self.max = d;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (ZERO when empty).
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> Duration {
        self.max
    }

    /// Mean sample.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros((self.sum_micros / u128::from(self.count)) as u64)
    }

    /// Approximate quantile `q` in `[0, 1]` (bucket upper bound).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // The last bucket saturates: samples beyond its range all
                // land there, so its upper bound may sit *below* the true
                // extreme — report the exact max instead of underestimating.
                if i == NUM_BUCKETS - 1 {
                    return self.max;
                }
                return Duration::from_micros(bucket_upper_micros(i)).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_micros += other.sum_micros;
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} p50={} p99={} max={} mean={}",
            self.count,
            self.min(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max(),
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.min(), Duration::ZERO);
    }

    #[test]
    fn quantiles_are_order_of_magnitude_accurate() {
        let mut h = Histogram::new();
        // 99 samples at 1ms, 1 sample at 1s.
        for _ in 0..99 {
            h.record(Duration::from_millis(1));
        }
        h.record(Duration::from_secs(1));
        let p50 = h.quantile(0.5);
        assert!(p50 >= Duration::from_micros(512) && p50 <= Duration::from_micros(2048));
        assert!(h.quantile(1.0) >= Duration::from_millis(900));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(300));
        assert_eq!(h.mean(), Duration::from_micros(200));
    }

    #[test]
    fn min_max_tracked_exactly() {
        let mut h = Histogram::new();
        h.record(Duration::from_micros(7));
        h.record(Duration::from_secs(3));
        assert_eq!(h.min(), Duration::from_micros(7));
        assert_eq!(h.max(), Duration::from_secs(3));
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        a.record(Duration::from_millis(1));
        let mut b = Histogram::new();
        b.record(Duration::from_millis(100));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Duration::from_millis(100));
        assert_eq!(a.min(), Duration::from_millis(1));
    }

    #[test]
    fn bucket_mapping_is_monotone() {
        let mut prev = 0;
        for us in [0u64, 1, 2, 3, 5, 10, 100, 1_000, 50_000, 10_000_000] {
            let b = bucket_index(us);
            assert!(b >= prev, "bucket index must not decrease");
            prev = b;
        }
    }

    #[test]
    fn zero_duration_lands_in_first_bucket() {
        let mut h = Histogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), Duration::ZERO.min(h.max()));
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn bad_quantile_panics() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn single_sample_every_quantile_is_exact() {
        // With one sample, min == max clamps every bucket upper bound to
        // the sample itself — including a sample beyond the last bucket's
        // range, where the saturation path must report the true max.
        for micros in [1u64, 1_023, 1_024, 1_536, 999_999, 7_200_000_000] {
            let mut h = Histogram::new();
            h.record(Duration::from_micros(micros));
            for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
                assert_eq!(
                    h.quantile(q),
                    Duration::from_micros(micros),
                    "quantile({q}) of single {micros}us sample"
                );
            }
        }
    }

    #[test]
    fn bucket_boundary_samples_stay_within_relative_error() {
        // Samples sitting exactly on bucket edges (powers of two and the
        // 1.5x half-octave marks) must report quantiles within the
        // documented band: never below the sample's bucket, never more
        // than 1.5x above it.
        for base in [1u64 << 5, 1u64 << 10, 1u64 << 20] {
            for s in [base, base + base / 2] {
                let mut h = Histogram::new();
                h.record(Duration::from_micros(s));
                h.record(Duration::from_micros(s * 4));
                let p50 = h.quantile(0.5).as_micros();
                assert!(
                    p50 >= s && p50 <= s * 3 / 2,
                    "p50 {p50} out of band for boundary sample {s}"
                );
            }
        }
    }

    #[test]
    fn saturated_tail_reports_true_max() {
        // Two samples beyond the last bucket's upper bound: before the
        // saturation guard, p99 reported the bucket bound (~54 min),
        // silently shrinking a two-hour extreme.
        let mut h = Histogram::new();
        h.record(Duration::from_secs(3_600));
        h.record(Duration::from_secs(7_200));
        assert_eq!(h.quantile(0.99), Duration::from_secs(7_200));
        assert_eq!(h.quantile(1.0), Duration::from_secs(7_200));
    }

    #[test]
    fn merge_is_equivalent_to_recording_the_union() {
        // Bucket counts add, so a merged histogram must agree with one
        // that saw every sample directly — exactly, at every quantile.
        let xs = [3u64, 900, 1_024, 1_536, 50_000];
        let ys = [1u64, 7, 2_048, 10_000_000];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut union = Histogram::new();
        for &x in &xs {
            a.record(Duration::from_micros(x));
            union.record(Duration::from_micros(x));
        }
        for &y in &ys {
            b.record(Duration::from_micros(y));
            union.record(Duration::from_micros(y));
        }
        a.merge(&b);
        assert_eq!(a, union);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), union.quantile(q), "quantile({q})");
        }
    }

    #[test]
    fn merge_with_empty_changes_nothing() {
        let mut a = Histogram::new();
        a.record(Duration::from_millis(5));
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
        // And merging *into* an empty histogram adopts min/max intact.
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty.min(), Duration::from_millis(5));
        assert_eq!(empty.max(), Duration::from_millis(5));
    }
}
