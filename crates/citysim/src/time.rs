//! Simulation time: a microsecond-resolution instant and duration pair.
//!
//! Newtypes (rather than raw `u64`s) keep instants and durations from being
//! mixed up in traffic/latency arithmetic across the workspace.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of simulated time, microsecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration {
    micros: u64,
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration { micros: 0 };

    /// From microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Self { micros }
    }

    /// From milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Self {
            micros: millis * 1_000,
        }
    }

    /// From whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Self {
            micros: secs * 1_000_000,
        }
    }

    /// Microseconds in this duration.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// Milliseconds, as a float.
    pub(crate) fn as_millis_f64(self) -> f64 {
        self.micros as f64 / 1e3
    }

    /// Seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.micros as f64 / 1e6
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration {
            micros: self.micros + rhs.micros,
        }
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.micros += rhs.micros;
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.micros >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.micros >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.micros)
        }
    }
}

/// An instant of simulated time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    micros: u64,
}

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime { micros: 0 };

    /// From microseconds since start.
    pub const fn from_micros(micros: u64) -> Self {
        Self { micros }
    }

    /// From seconds since start.
    pub const fn from_secs(secs: u64) -> Self {
        Self {
            micros: secs * 1_000_000,
        }
    }

    /// Microseconds since start.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// Whole seconds since start (truncating).
    pub const fn as_secs(self) -> u64 {
        self.micros / 1_000_000
    }

    /// Seconds since start, fractional.
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.micros as f64 / 1e6
    }

    /// Duration since an earlier instant, saturating at zero.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration {
            micros: self.micros.saturating_sub(earlier.micros),
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime {
            micros: self.micros + rhs.micros,
        }
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.micros += rhs.micros;
    }
}

impl Sub for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(Duration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(Duration::from_millis(3).as_micros(), 3_000);
        assert!((Duration::from_micros(1_500).as_millis_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimTime::from_secs(10) + Duration::from_millis(500);
        assert_eq!(t.as_micros(), 10_500_000);
        assert_eq!((t - SimTime::from_secs(10)).as_micros(), 500_000);
        // Saturating: earlier - later = 0.
        assert_eq!(
            (SimTime::from_secs(1) - SimTime::from_secs(5)),
            Duration::ZERO
        );
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(Duration::from_micros(7).to_string(), "7us");
        assert_eq!(Duration::from_millis(7).to_string(), "7.000ms");
        assert_eq!(Duration::from_secs(7).to_string(), "7.000s");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(Duration::from_millis(999) < Duration::from_secs(1));
    }
}
