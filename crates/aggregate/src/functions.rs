//! Decomposable aggregate functions.
//!
//! The survey the paper leans on (§V.A, \[20\]) classifies computations into
//! *decomposable* functions — those computable from mergeable partial
//! states — and complex ones. Decomposability is exactly what the F2C
//! hierarchy exploits: fog-1 nodes fold their sensors into a partial state,
//! fog-2 merges its children's states, the cloud merges districts. The
//! result is identical to centralized computation while only partial states
//! cross the network.

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

/// Minimum and maximum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMax {
    /// Smallest absorbed value (`None` when empty).
    pub min: Option<f64>,
    /// Largest absorbed value.
    pub max: Option<f64>,
}

impl Decomposable for MinMax {
    fn empty() -> Self {
        Self {
            min: None,
            max: None,
        }
    }

    fn absorb(&mut self, value: f64) {
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    fn merge(&mut self, other: &Self) {
        if let Some(m) = other.min {
            self.absorb(m);
        }
        if let Some(m) = other.max {
            self.absorb(m);
        }
    }
}

/// Mean and variance via a merge-friendly formulation (sum, sum of squares,
/// count). Numerically adequate for the bounded sensor magnitudes used
/// here.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Moments {
    /// Running sum.
    pub sum: f64,
    /// Running sum of squares.
    pub sum_sq: f64,
    /// Number of absorbed values.
    pub count: u64,
}

impl Moments {
    /// The mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The population variance, or `None` when empty.
    pub fn variance(&self) -> Option<f64> {
        self.mean()
            .map(|m| (self.sum_sq / self.count as f64 - m * m).max(0.0))
    }
}

impl Decomposable for Moments {
    fn empty() -> Self {
        Self::default()
    }

    fn absorb(&mut self, value: f64) {
        self.sum += value;
        self.sum_sq += value * value;
        self.count += 1;
    }

    fn merge(&mut self, other: &Self) {
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minmax_tracks_extremes() {
        let s: MinMax = fold([3.0, -1.0, 7.5]);
        assert_eq!(s.min, Some(-1.0));
        assert_eq!(s.max, Some(7.5));
    }

    #[test]
    fn moments_match_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let m: Moments = fold(xs);
        assert_eq!(m.mean(), Some(5.0));
        assert_eq!(m.variance(), Some(4.0));
    }

    #[test]
    fn hierarchical_merge_equals_flat_fold() {
        // Simulate fog-1 partials merged at fog-2 then cloud.
        let all: Vec<f64> = (0..100).map(|i| (i % 13) as f64 * 1.5).collect();
        let flat: Moments = fold(all.iter().copied());
        let mut merged = Moments::empty();
        for chunk in all.chunks(7) {
            let partial: Moments = fold(chunk.iter().copied());
            merged.merge(&partial);
        }
        assert!((flat.mean().unwrap() - merged.mean().unwrap()).abs() < 1e-9);
        assert!((flat.variance().unwrap() - merged.variance().unwrap()).abs() < 1e-9);
        assert_eq!(flat.count, merged.count);
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
        assert_eq!(e.min, Some(5.0));
    }
}
