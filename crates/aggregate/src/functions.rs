//! Decomposable aggregate functions.
//!
//! The survey the paper leans on (§V.A, \[20\]) classifies computations into
//! *decomposable* functions — those computable from mergeable partial
//! states — and complex ones. Decomposability is exactly what the F2C
//! hierarchy exploits: fog-1 nodes fold their sensors into a partial state,
//! fog-2 merges its children's states, the cloud merges districts. The
//! result is identical to centralized computation, bit for bit and for every
//! field in any merge order, while only partial states cross the network.

/// A commutative, associative partial aggregation state.
///
/// Laws (checked by property tests):
/// * merge is associative and commutative,
/// * the empty state is a merge identity,
/// * `fold(xs).merge(fold(ys)) == fold(xs ++ ys)`.
pub trait Decomposable: Sized + Clone {
    /// The identity state.
    fn empty() -> Self;
    /// Absorbs one observation.
    fn absorb(&mut self, value: f64);
    /// Merges another partial state into this one.
    fn merge(&mut self, other: &Self);
}

/// Folds an iterator of values into a partial state.
pub fn fold<S: Decomposable>(values: impl IntoIterator<Item = f64>) -> S {
    let mut s = S::empty();
    for v in values {
        s.absorb(v);
    }
    s
}

/// Minimum and maximum, empty as `(+∞, -∞)`: absorbing and merging are
/// a plain `min` and `max`, the same bits in any order (no magnitude is
/// NaN or -0.0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMax {
    pub(crate) min: f64,
    pub(crate) max: f64,
}

impl MinMax {
    /// `(min, max)`, or `None` when empty.
    pub fn extremes(&self) -> Option<(f64, f64)> {
        (self.min <= self.max).then_some((self.min, self.max))
    }
}

impl Decomposable for MinMax {
    fn empty() -> Self {
        Self {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn absorb(&mut self, value: f64) {
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn merge(&mut self, other: &Self) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Count, sum and sum of squares in integer hundredths, the unit every
/// reading is kept in: merging is integer addition, the same bits in any
/// order. Overflow is sticky and answers nothing: `count` and `sum_sq`
/// saturate, and `sum` adds modulo 2^64, the sum itself while
/// `n·Σx² < 2^126` (Cauchy–Schwarz); past that, sums read `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Moments {
    /// Number of absorbed values (saturating).
    pub count: u64,
    /// Sum of the hundredths, modulo 2^64.
    pub(crate) sum: i64,
    /// Sum of the squared hundredths: a little-endian `i128`, 8-byte aligned.
    pub(crate) sum_sq: [u8; 16],
}

impl Moments {
    fn sum_sq(&self) -> i128 {
        i128::from_le_bytes(self.sum_sq)
    }

    /// `(n·Σx², Σx)` while `n·Σx² < 2^126`, where the sum is exact and the
    /// centered numerator fits.
    fn exact(&self) -> Option<(i128, i128)> {
        let scaled = i128::from(self.count).checked_mul(self.sum_sq())?;
        (self.count < u64::MAX && scaled < 1 << 126).then_some((scaled, i128::from(self.sum)))
    }

    /// Whether absorbs and merges reach this state: what a decoder holds a
    /// shipped one to.
    pub(crate) fn reachable(&self) -> bool {
        match self.count {
            0 => self.sum == 0 && self.sum_sq() == 0,
            _ => self.sum_sq() >= 0 && self.exact().is_none_or(|(n_sq, sum)| sum * sum <= n_sq),
        }
    }

    /// The sum, or `None` when the sums overflowed.
    pub fn sum(&self) -> Option<f64> {
        self.exact().map(|(_, sum)| sum as f64 / 100.0)
    }

    /// The mean, or `None` when empty or when the sums overflowed.
    pub fn mean(&self) -> Option<f64> {
        let (_, sum) = self.exact().filter(|_| self.count > 0)?;
        Some(sum as f64 / (100.0 * self.count as f64))
    }

    /// The population variance, or `None` when empty or when the sums
    /// overflowed: the exact centered numerator `n·Σx² − (Σx)² ≥ 0` over
    /// `n²`, so a constant series reads `0.0`.
    pub fn variance(&self) -> Option<f64> {
        let (n_sq, sum) = self.exact().filter(|_| self.count > 0)?;
        let n = self.count as f64;
        Some((n_sq - sum * sum) as f64 / (n * n * 10_000.0))
    }

    fn add(&mut self, count: u64, sum: i64, sum_sq: i128) {
        self.count = self.count.saturating_add(count);
        self.sum = self.sum.wrapping_add(sum);
        self.sum_sq = self.sum_sq().saturating_add(sum_sq).to_le_bytes();
    }
}

/// `magnitude` in hundredths, `None` past `i64`. Exact for every reading:
/// counters, flags and levels are integral, and a scalar's `raw / 100`
/// rounds back to `raw` for `|raw| < 2^51`.
fn hundredths(magnitude: f64) -> Option<i64> {
    assert!(magnitude.is_finite(), "non-finite magnitude {magnitude}");
    if magnitude.fract() == 0.0 {
        // Past `i64` the cast saturates and the multiply overflows.
        (magnitude as i64).checked_mul(100)
    } else {
        Some((magnitude * 100.0).round() as i64)
    }
}

impl Decomposable for Moments {
    fn empty() -> Self {
        Self::default()
    }

    /// Panics on a non-finite `value`: no reading has one.
    fn absorb(&mut self, value: f64) {
        match hundredths(value) {
            Some(h) => self.add(1, h, i128::from(h) * i128::from(h)),
            None => self.add(1, 0, i128::MAX),
        }
    }

    fn merge(&mut self, other: &Self) {
        self.add(other.count, other.sum, other.sum_sq());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minmax_tracks_extremes() {
        let s: MinMax = fold([3.0, -1.0, 7.5]);
        assert_eq!(s.extremes(), Some((-1.0, 7.5)));
        assert_eq!(MinMax::empty().extremes(), None);
    }

    #[test]
    fn moments_match_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let m: Moments = fold(xs);
        assert_eq!(m.sum(), Some(40.0));
        assert_eq!(m.mean(), Some(5.0));
        assert_eq!(m.variance(), Some(4.0));
    }

    #[test]
    fn a_constant_series_has_no_variance() {
        // Float sums give 1.08e-19 here: 3 · 0.0009 ≠ (0.09)² / 3.
        let m: Moments = fold([0.03; 3]);
        assert_eq!(m.variance(), Some(0.0));
        assert_eq!(m.mean(), Some(0.03));
    }

    #[test]
    fn hierarchical_merge_equals_flat_fold() {
        // Simulate fog-1 partials merged at fog-2 then cloud.
        let all: Vec<f64> = (0..100).map(|i| f64::from(i % 13) * 1.5 - 4.25).collect();
        let flat: Moments = fold(all.iter().copied());
        let mut merged = Moments::empty();
        for chunk in all.chunks(7).rev() {
            let partial: Moments = fold(chunk.iter().copied());
            merged.merge(&partial);
        }
        assert_eq!(flat, merged);
    }

    #[test]
    fn every_value_converts_to_its_hundredths() {
        use scc_sensors::Value;
        let raws = [
            0,
            1,
            -1,
            99,
            -12_345,
            2_157,
            100_000,
            (1 << 51) - 1,
            -(1 << 51) + 1,
        ];
        for raw in raws {
            for v in [Value::Scalar(raw), Value::Composite(vec![raw, 7])] {
                assert_eq!(hundredths(v.magnitude()), Some(raw), "{v:?}");
            }
        }
        // Past 2^53 a counter's magnitude is its nearest float; these
        // are floats.
        for c in [0, 1, 12_345_678, (1 << 53) + 2, 90_000_000_000_000_000] {
            let m = Value::Counter(c).magnitude();
            assert_eq!(hundredths(m), Some(c as i64 * 100), "{c}");
        }
        assert_eq!(hundredths(Value::Counter(u64::MAX).magnitude()), None);
        assert_eq!(hundredths(Value::Flag(true).magnitude()), Some(100));
        assert_eq!(hundredths(Value::Level(42).magnitude()), Some(4_200));
    }

    #[test]
    fn an_overflow_is_sticky_and_answers_nothing() {
        // A counter whose hundredths fit an `i64`, twice: each square
        // fits, their sum wraps `sum` and crosses the 2^126 bound.
        let big = 90_000_000_000_000_000.0;
        assert!(hundredths(big).is_some());
        let one: Moments = fold([big]);
        assert!(one.sum().is_some());
        let two: Moments = fold([big, big]);
        assert_eq!(
            (two.count, two.sum(), two.mean(), two.variance()),
            (2, None, None, None)
        );
        // A magnitude past `i64` hundredths saturates the squares.
        let past: Moments = fold([1.0e17]);
        assert_eq!(past.sum_sq(), i128::MAX);
        assert_eq!(past.sum(), None);
        // Sticky under merge, in either order, whatever joins it.
        let small: Moments = fold([1.5, -2.25]);
        for (a, b) in [(past, small), (small, past), (two, small), (small, two)] {
            let mut m = a;
            m.merge(&b);
            assert_eq!((m.sum(), m.mean(), m.variance()), (None, None, None));
        }
        let (mut ab, mut ba) = (two, small);
        ab.merge(&small);
        ba.merge(&two);
        assert_eq!(ab, ba);
        // The count saturates and then answers nothing either.
        let mut full = Moments {
            count: u64::MAX - 1,
            ..Moments::empty()
        };
        full.merge(&fold([0.0, 0.0]));
        assert_eq!((full.count, full.sum()), (u64::MAX, None));
    }

    #[test]
    fn empty_is_merge_identity() {
        let mut s: Moments = fold([1.0, 2.0]);
        let before = s;
        s.merge(&Moments::empty());
        assert_eq!(s, before);
        let mut e = MinMax::empty();
        let partial: MinMax = fold([5.0]);
        e.merge(&partial);
        assert_eq!(e, partial);
        assert_eq!(e.extremes(), Some((5.0, 5.0)));
    }
}
