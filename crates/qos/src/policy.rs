//! Per-class admission policy: weighted layer quotas and deadline
//! budgets.
//!
//! Each class is assigned, **per layer**, a *guaranteed* share of the
//! layer's in-flight cap (expressed in percent so one policy scales with
//! any cap) plus the right to *borrow* from the layer's unreserved
//! headroom. Guarantees reserve capacity — no other class's borrowing
//! can consume them — while borrow limits shrink with priority, so under
//! pressure the lowest-priority class runs out of borrowable slots (and
//! sheds) first.
//!
//! The deadline budget is the class's end-to-end latency SLO. The query
//! engine compares it against the planned route's transport estimate
//! *before* occupying any slot: a query that cannot meet its budget even
//! at the cheapest provably-complete source is shed at plan time instead
//! of wasting capacity, and a query whose cheapest route is saturated may
//! be rerouted to a pricier fallback only while that fallback still fits
//! the budget.

use crate::class::{ServiceClass, CLASS_COUNT};
use citysim::time::Duration;

/// Admission and latency policy for one service class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassPolicy {
    /// Guaranteed share of each layer's cap, in percent (fog 1, fog 2,
    /// cloud). Reserved: other classes can never borrow into it.
    pub guarantee_pct: [u8; 3],
    /// Share of the layer's *headroom* (cap minus all guarantees) this
    /// class may additionally hold, in percent. Rounded up, so any
    /// class with a positive share can borrow at least one slot when
    /// headroom exists at all.
    pub borrow_pct: u8,
    /// End-to-end latency budget (the class SLO). Routes whose transport
    /// estimate exceeds it are shed at plan time; answered queries are
    /// scored against it for SLO attainment.
    pub deadline: Duration,
}

/// How many warm-sketch reads charge one archive-scan slot.
///
/// A warm-sketch answer merges a handful of constant-size pre-folded
/// partials — roughly a quarter of the work of the archive scan a raw
/// slot models — so by default four sketch reads cost one slot.
pub(crate) const DEFAULT_SKETCH_DIVISOR: u32 = 4;

/// The full per-class policy table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosPolicy {
    /// One entry per class, indexed by [`ServiceClass::index`].
    pub(crate) per_class: [ClassPolicy; CLASS_COUNT],
    /// Every `sketch_divisor`-th warm-sketch read of a class charges one
    /// slot (`1` = as much as a raw scan, `0` = admission-exempt).
    pub(crate) sketch_divisor: u32,
}

impl QosPolicy {
    /// The warm-sketch admission divisor: every `divisor`-th sketch read
    /// of a class charges one slot at the serving layer.
    pub(crate) fn sketch_divisor(&self) -> u32 {
        self.sketch_divisor
    }

    /// The policy of one class.
    pub(crate) fn class(&self, class: ServiceClass) -> &ClassPolicy {
        &self.per_class[class.index()]
    }

    /// The deadline budget of one class.
    pub fn deadline(&self, class: ServiceClass) -> Duration {
        self.per_class[class.index()].deadline
    }
}

impl Default for QosPolicy {
    /// The default smart-city policy.
    ///
    /// Guarantees concentrate each class where its traffic lives —
    /// real-time reads at fog 1, dashboards and city-wide fan-outs at
    /// fog 2, analytics at the cloud — and leave 25–45% of every layer
    /// as borrowable headroom. Borrow rights shrink with priority so
    /// analytics saturates (and sheds) first. Deadlines follow the
    /// default latency profile: a real-time read must stay under the
    /// metro-area round trips (the ~70 ms WAN trip busts it), dashboards
    /// and city-wide panels tolerate fan-out latency, analytics is
    /// budgeted for cloud scans.
    fn default() -> Self {
        let mut per_class = [ClassPolicy {
            guarantee_pct: [0; 3],
            borrow_pct: 0,
            deadline: Duration::from_secs(60),
        }; CLASS_COUNT];
        per_class[ServiceClass::RealTime.index()] = ClassPolicy {
            guarantee_pct: [40, 10, 5],
            borrow_pct: 100,
            deadline: Duration::from_millis(25),
        };
        per_class[ServiceClass::Dashboard.index()] = ClassPolicy {
            guarantee_pct: [20, 30, 10],
            borrow_pct: 75,
            deadline: Duration::from_millis(150),
        };
        per_class[ServiceClass::CityWide.index()] = ClassPolicy {
            guarantee_pct: [10, 20, 10],
            borrow_pct: 60,
            deadline: Duration::from_millis(250),
        };
        per_class[ServiceClass::Analytics.index()] = ClassPolicy {
            guarantee_pct: [5, 10, 30],
            borrow_pct: 40,
            deadline: Duration::from_secs(30),
        };
        Self {
            per_class,
            sketch_divisor: DEFAULT_SKETCH_DIVISOR,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2c_core::Layer;

    #[test]
    fn default_guarantees_leave_headroom_at_every_layer() {
        let policy = QosPolicy::default();
        for layer in Layer::ALL {
            let total: u32 = policy
                .per_class
                .iter()
                .map(|p| u32::from(p.guarantee_pct[layer.index()]))
                .sum();
            assert!(total <= 100, "{layer}: {total}% reserved");
            assert!(total >= 55, "{layer}: guarantees should be substantial");
        }
    }

    #[test]
    fn borrow_rights_shrink_with_priority() {
        let policy = QosPolicy::default();
        for pair in ServiceClass::ALL.windows(2) {
            assert!(
                policy.class(pair[0]).borrow_pct >= policy.class(pair[1]).borrow_pct,
                "{} must borrow at least as much headroom as {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn realtime_deadline_excludes_the_wan_trip() {
        let policy = QosPolicy::default();
        assert!(policy.deadline(ServiceClass::RealTime) < Duration::from_millis(70));
        assert!(policy.deadline(ServiceClass::Analytics) > Duration::from_secs(1));
    }
}
