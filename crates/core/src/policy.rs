//! Flush and retention policies (§IV.B): "the smart city business model can
//! decide the amount of temporal data that can be stored at this level, as
//! well as the frequency of updating to upper levels", and §IV.D:
//! "adjusting the frequency of the data transmission in order to use the
//! network in periods when the traffic load is low."

use serde::{Deserialize, Serialize};

use crate::{Error, Result};

const DAY_S: u64 = 86_400;

/// When and how a node ships data to its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlushPolicy {
    /// Seconds between flushes. `runtime::simulate` schedules each
    /// tier's flushes by it (through `FlushPolicy::next_flush_at`);
    /// the live city's `flush_all` ships every tier on each call and does
    /// not read it.
    pub period_s: u64,
    /// Apply redundant-data elimination before shipping (fog 1).
    pub aggregate: bool,
    /// Compress the shipped batch (fog 1, §V.B).
    pub compress: bool,
    /// If set, flushes are deferred into this daily window
    /// `[start_s, end_s)` (seconds since midnight) — the off-peak
    /// scheduling optimization of §IV.D. Read, like `period_s`, by
    /// `runtime::simulate`'s schedule only.
    pub off_peak_window: Option<(u64, u64)>,
}

impl FlushPolicy {
    /// The paper's fog-1 policy in the traffic experiment: 15-minute
    /// flushes with aggregation and compression.
    pub fn paper_fog1() -> Self {
        Self {
            period_s: 900,
            aggregate: true,
            compress: true,
            off_peak_window: None,
        }
    }

    /// The fog-2 relay policy of the default deployment: hourly flushes,
    /// no re-aggregation (fog 1 already deduplicated), but the shipment
    /// rides the same time-series codec as the first hop — the
    /// fog-2 → cloud uplink is the widest-fan-in link in the hierarchy,
    /// so encoding it pays at least as much as at fog 1.
    pub(crate) fn paper_fog2() -> Self {
        Self {
            period_s: 3600,
            aggregate: false,
            compress: true,
            off_peak_window: None,
        }
    }

    /// A plain periodic policy without optimizations (fog 2 / baseline).
    pub fn plain(period_s: u64) -> Self {
        Self {
            period_s,
            aggregate: false,
            compress: false,
            off_peak_window: None,
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// * [`Error::ZeroFlushPeriod`] on a zero period,
    /// * [`Error::BadOffPeakWindow`] if the window is empty or exceeds a day.
    pub(crate) fn validated(self) -> Result<Self> {
        if self.period_s == 0 {
            return Err(Error::ZeroFlushPeriod);
        }
        if let Some((start, end)) = self.off_peak_window {
            if start >= end || end > DAY_S {
                return Err(Error::BadOffPeakWindow {
                    start_s: start,
                    end_s: end,
                });
            }
        }
        Ok(self)
    }

    /// The next instant at or after `now_s` when a flush may run: the next
    /// period boundary, deferred into the off-peak window if one is set.
    pub(crate) fn next_flush_at(&self, now_s: u64) -> u64 {
        let next_period = now_s + self.period_s - now_s % self.period_s;
        match self.off_peak_window {
            None => next_period,
            Some((start, end)) => {
                let tod = next_period % DAY_S;
                if tod >= start && tod < end {
                    next_period
                } else {
                    // Defer to the next window opening.
                    let day_base = next_period - tod;
                    if tod < start {
                        day_base + start
                    } else {
                        day_base + DAY_S + start
                    }
                }
            }
        }
    }
}

/// How long a layer retains data locally before eviction (§IV.B: temporary
/// at the fog layers, permanent at the cloud).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Seconds of data kept locally; `None` = permanent (cloud).
    pub keep_s: Option<u64>,
}

impl RetentionPolicy {
    /// Keep `keep_s` seconds of history.
    pub fn keep(keep_s: u64) -> Self {
        Self {
            keep_s: Some(keep_s),
        }
    }

    /// The oldest creation time worth keeping at time `now_s`, or `None`
    /// when everything is kept.
    pub(crate) fn eviction_deadline(&self, now_s: u64) -> Option<u64> {
        self.keep_s.map(|k| now_s.saturating_sub(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_degenerate_policies() {
        assert!(matches!(
            FlushPolicy::plain(0).validated(),
            Err(Error::ZeroFlushPeriod)
        ));
        let mut p = FlushPolicy::plain(60);
        p.off_peak_window = Some((10, 10));
        assert!(p.validated().is_err());
        p.off_peak_window = Some((100, DAY_S + 1));
        assert!(p.validated().is_err());
        assert!(FlushPolicy::paper_fog1().validated().is_ok());
    }

    #[test]
    fn next_flush_lands_on_period_boundaries() {
        let p = FlushPolicy::plain(900);
        assert_eq!(p.next_flush_at(0), 900);
        assert_eq!(p.next_flush_at(899), 900);
        assert_eq!(p.next_flush_at(900), 1800);
        assert_eq!(p.next_flush_at(901), 1800);
    }

    #[test]
    fn off_peak_defers_into_window() {
        // Window 02:00–05:00.
        let mut p = FlushPolicy::plain(3600);
        p.off_peak_window = Some((7_200, 18_000));
        // A flush due at 01:00 defers to 02:00.
        assert_eq!(p.next_flush_at(0), 7_200);
        // A flush due inside the window runs on schedule.
        assert_eq!(p.next_flush_at(7_200), 10_800);
        // A flush due at 06:00 defers to 02:00 next day.
        assert_eq!(p.next_flush_at(20_000), DAY_S + 7_200);
    }

    #[test]
    fn retention_deadlines() {
        assert_eq!(
            RetentionPolicy::keep(3600).eviction_deadline(10_000),
            Some(6_400)
        );
        assert_eq!(RetentionPolicy::keep(3600).eviction_deadline(100), Some(0));
        assert_eq!(
            RetentionPolicy { keep_s: None }.eviction_deadline(10_000),
            None
        );
    }
}
