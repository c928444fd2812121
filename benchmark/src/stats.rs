//! Percentiles, medians and the quartile spread the acceptance rule uses.

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p` of the samples at or below it.
///
/// # Panics
///
/// On an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99.9 / p99 / p90 that still has at least ten samples
/// beyond it in `n` samples, or `None` when even p90 has not (n < 100).
pub fn top_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9].into_iter().find(|p| {
        let rank = (p * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= 10
    })
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// On an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a metric"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (the default "exclusive" method) — the spread the acceptance rule bounds.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a metric"));
    let n = v.len();
    let quartile = |i: usize| {
        // statistics.quantiles: j = i*(n+1)//4 clamped to 1..n-1, delta = i*(n+1) - 4j.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u32], 0.99), 7);
        let odd = [10u32, 20, 30];
        assert_eq!(percentile(&odd, 0.5), 20);
        assert_eq!(percentile(&odd, 0.34), 20);
        assert_eq!(percentile(&odd, 0.33), 10);
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(99), None);
        assert_eq!(top_percentile(100), Some(0.9));
        assert_eq!(top_percentile(999), Some(0.9));
        assert_eq!(top_percentile(1_000), Some(0.99));
        assert_eq!(top_percentile(9_999), Some(0.99));
        assert_eq!(top_percentile(10_000), Some(0.999));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((quartile_spread(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }
}
