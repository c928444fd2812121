//! Point-to-point link model.

use crate::time::Duration;

/// An undirected network link with propagation latency and bandwidth.
///
/// # Examples
///
/// ```
/// use citysim::{Link, Duration};
///
/// // A 4G-ish uplink: 50 ms, 10 Mbit/s.
/// let l = Link::new(Duration::from_millis(50), 10_000_000);
/// // 1 MB takes 0.8 s to serialize.
/// assert_eq!(l.transfer_time(1_000_000), Duration::from_micros(800_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    latency: Duration,
    bandwidth_bps: u64,
}

impl Link {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero.
    pub fn new(latency: Duration, bandwidth_bps: u64) -> Self {
        assert!(bandwidth_bps > 0, "bandwidth must be positive");
        Self {
            latency,
            bandwidth_bps,
        }
    }

    /// One-way propagation latency.
    pub(crate) fn latency(&self) -> Duration {
        self.latency
    }

    /// Time to push `bytes` onto the wire (serialization delay).
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        // micros = bytes * 8 / (bps / 1e6) = bytes * 8e6 / bps, in `u64`
        // for every payload under ≈ 2.3 TB and in `u128` past that.
        let micros = match bytes.checked_mul(BIT_MICROS) {
            Some(product) => product / self.bandwidth_bps,
            None => {
                let wide = u128::from(bytes) * u128::from(BIT_MICROS);
                (wide / u128::from(self.bandwidth_bps)) as u64
            }
        };
        Duration::from_micros(micros)
    }
}

/// Bits per byte times microseconds per second.
const BIT_MICROS: u64 = 8 * 1_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_free() {
        let l = Link::new(Duration::from_millis(1), 1_000);
        assert_eq!(l.transfer_time(0), Duration::ZERO);
    }

    #[test]
    fn transfer_time_is_linear() {
        let l = Link::new(Duration::ZERO, 8_000_000); // 1 MB/s
        assert_eq!(l.transfer_time(1_000_000), Duration::from_secs(1));
        assert_eq!(l.transfer_time(2_000_000), Duration::from_secs(2));
    }

    #[test]
    fn no_overflow_on_huge_payloads() {
        let l = Link::new(Duration::ZERO, 1_000);
        // 8.5 GB over 1 kbit/s: enormous but must not overflow.
        let t = l.transfer_time(8_583_503_168);
        assert!(t.as_secs_f64() > 6e7);
    }

    /// The `u128` formula the `u64` path must agree with.
    fn wide(l: &Link, bytes: u64) -> Duration {
        let micros = u128::from(bytes) * 8_000_000 / u128::from(l.bandwidth_bps);
        Duration::from_micros(micros as u64)
    }

    #[test]
    fn the_u64_path_ends_where_the_product_overflows() {
        let fits = u64::MAX / BIT_MICROS;
        assert!(fits.checked_mul(BIT_MICROS).is_some());
        assert!((fits + 1).checked_mul(BIT_MICROS).is_none());
        for bps in [1, 1_000, 7_999_999, 8_000_000, 1_000_000_007, u64::MAX] {
            let l = Link::new(Duration::ZERO, bps);
            for bytes in [fits - 1, fits, fits + 1, fits + 2] {
                assert_eq!(
                    l.transfer_time(bytes),
                    wide(&l, bytes),
                    "{bytes} B at {bps} bit/s"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        Link::new(Duration::ZERO, 0);
    }
}
