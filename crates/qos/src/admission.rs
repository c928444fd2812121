//! The class-aware admission ledger.
//!
//! [`ClassLedger`] replaces a flat per-layer in-flight counter with one
//! counter per `(layer, class)` pair and enforces the quota algebra of
//! [`crate::QosPolicy`]:
//!
//! * **cap** — the sum of all classes' in-flight slots at a layer never
//!   exceeds the layer cap,
//! * **guarantee** — capacity reserved per class; an admission is only
//!   granted if the layer's free slots still cover every *other* class's
//!   unmet guarantee afterwards, so a class operating inside its
//!   guarantee can never be starved by another class's borrowing,
//! * **borrow cap** — slots a class holds beyond its guarantee come out
//!   of the shared headroom, bounded per class; lower-priority classes
//!   get smaller borrow caps, so they run dry (and shed) first.
//!
//! Multi-layer requests (a scatter-gather fan-out holds one slot per leg
//! at each leg's layer) acquire layer by layer; on the first refusal the
//! already-acquired layers are rolled back, so a shed can never leak
//! partially-acquired slots.

use f2c_core::Layer;

use crate::class::{ServiceClass, CLASS_COUNT};
use crate::policy::QosPolicy;

/// Why admission control rejected a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The class's quota at the shed layer was exhausted (guarantee used
    /// up and no borrowable headroom left).
    Capacity,
    /// The cheapest provably-complete route's transport estimate already
    /// exceeds the class's deadline budget; executing it would waste
    /// capacity on an answer that misses its SLO.
    Deadline,
    /// An injected fault made the planned route unserveable: the source
    /// node is inside a crash window, its path crosses a link outage, or
    /// the transfer was lost in transit. Degradation by availability —
    /// the query is rerouted when a fallback fits the deadline budget,
    /// shed otherwise, never answered incompletely without saying so.
    Fault,
}

impl ShedCause {
    /// Short label for transcripts.
    pub fn label(self) -> &'static str {
        match self {
            ShedCause::Capacity => "capacity",
            ShedCause::Deadline => "deadline",
            ShedCause::Fault => "fault",
        }
    }
}

/// Per-`(layer, class)` in-flight accounting with guaranteed shares and
/// bounded borrowing. See the module docs for the invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassLedger {
    caps: [u32; 3],
    guarantee: [[u32; CLASS_COUNT]; 3],
    borrow_cap: [[u32; CLASS_COUNT]; 3],
    in_flight: [[u32; CLASS_COUNT]; 3],
    /// Warm-sketch reads per (layer, class) since the last charged slot;
    /// every `sketch_divisor`-th read pays.
    sketch_credit: [[u32; CLASS_COUNT]; 3],
    sketch_divisor: u32,
}

impl ClassLedger {
    /// A ledger enforcing `policy` under the given per-layer caps.
    ///
    /// Guaranteed shares are `cap × pct / 100` rounded down; if a policy
    /// over-reserves a layer (guarantees summing past its cap) the
    /// shares are trimmed in **ascending priority** order, so the
    /// highest-priority classes keep their full reservation. Borrow caps
    /// are the class's share of the remaining headroom, rounded *up*:
    /// any class with a positive borrow right can use at least one
    /// headroom slot when the layer has headroom at all.
    pub fn new(caps: [u32; 3], policy: &QosPolicy) -> Self {
        let mut guarantee = [[0u32; CLASS_COUNT]; 3];
        let mut borrow_cap = [[0u32; CLASS_COUNT]; 3];
        for layer in Layer::ALL {
            let l = layer.index();
            let cap = caps[l];
            let mut remaining = cap;
            // Highest priority first: trimming (if any) hits the low end.
            for class in ServiceClass::ALL {
                let pct = u32::from(policy.class(class).guarantee_pct[l]);
                let share = (u64::from(cap) * u64::from(pct) / 100) as u32;
                let granted = share.min(remaining);
                guarantee[l][class.index()] = granted;
                remaining -= granted;
            }
            let headroom = remaining;
            for class in ServiceClass::ALL {
                let pct = u64::from(policy.class(class).borrow_pct);
                borrow_cap[l][class.index()] = ((u64::from(headroom) * pct).div_ceil(100)) as u32;
            }
        }
        Self {
            caps,
            guarantee,
            borrow_cap,
            in_flight: [[0; CLASS_COUNT]; 3],
            sketch_credit: [[0; CLASS_COUNT]; 3],
            sketch_divisor: policy.sketch_divisor(),
        }
    }

    /// The layer caps the ledger was built with.
    pub fn caps(&self) -> [u32; 3] {
        self.caps
    }

    /// The guaranteed share of `class` at `layer`.
    pub fn guarantee(&self, layer: Layer, class: ServiceClass) -> u32 {
        self.guarantee[layer.index()][class.index()]
    }

    /// The borrow cap of `class` at `layer` (slots beyond the guarantee).
    pub fn borrow_cap(&self, layer: Layer, class: ServiceClass) -> u32 {
        self.borrow_cap[layer.index()][class.index()]
    }

    /// In-flight slots `class` holds at `layer`.
    pub fn class_in_flight(&self, layer: Layer, class: ServiceClass) -> u32 {
        self.in_flight[layer.index()][class.index()]
    }

    /// Total in-flight slots at `layer`, all classes.
    pub fn layer_total(&self, layer: Layer) -> u32 {
        self.in_flight[layer.index()].iter().sum()
    }

    /// Slots `class` currently holds beyond its guarantee at `layer`.
    pub fn borrowed(&self, layer: Layer, class: ServiceClass) -> u32 {
        let l = layer.index();
        self.in_flight[l][class.index()].saturating_sub(self.guarantee[l][class.index()])
    }

    /// Whether `want` slots for `class` would be admitted at `layer`
    /// right now (no state change).
    pub fn would_admit(&self, layer: Layer, class: ServiceClass, want: u32) -> bool {
        if want == 0 {
            return true;
        }
        let l = layer.index();
        let c = class.index();
        let total: u32 = self.in_flight[l].iter().sum();
        let free = self.caps[l].saturating_sub(total);
        // Every *other* class's unmet guarantee stays reserved.
        let reserved_for_others: u32 = (0..CLASS_COUNT)
            .filter(|&o| o != c)
            .map(|o| self.guarantee[l][o].saturating_sub(self.in_flight[l][o]))
            .sum();
        if want > free.saturating_sub(reserved_for_others) {
            return false;
        }
        // Slots beyond the guarantee come out of the bounded borrow
        // budget.
        let borrowed_after = (self.in_flight[l][c] + want).saturating_sub(self.guarantee[l][c]);
        borrowed_after <= self.borrow_cap[l][c]
    }

    /// Atomically acquires `want[layer]` slots for `class` at every
    /// layer, or acquires nothing.
    ///
    /// # Errors
    ///
    /// The first layer (edge upward) whose quota refuses the request;
    /// slots acquired at earlier layers are rolled back before
    /// returning, so a refusal never leaks in-flight accounting.
    pub fn try_acquire(&mut self, class: ServiceClass, want: [u32; 3]) -> Result<(), Layer> {
        for (i, layer) in Layer::ALL.into_iter().enumerate() {
            if self.would_admit(layer, class, want[i]) {
                self.in_flight[i][class.index()] += want[i];
            } else {
                // Roll back the layers below the refusal.
                for (j, &granted) in want.iter().enumerate().take(i) {
                    self.in_flight[j][class.index()] -= granted;
                }
                return Err(layer);
            }
        }
        Ok(())
    }

    /// Admits one **warm-sketch** read of `class` at `layer` at the
    /// policy's reduced cost: a sketch answer merges a handful of
    /// constant-size pre-folded partials instead of scanning an archive,
    /// so only every `sketch_divisor`-th read charges a real slot (a
    /// divisor of 0 makes them admission-exempt, like cache hits).
    /// Returns the slots actually charged — pass them to
    /// [`ClassLedger::release`] when the response completes.
    ///
    /// # Errors
    ///
    /// The refusing layer, when the read falls on a paying turn and the
    /// class's quota is exhausted. The paying turn is *retained*: the
    /// next sketch read of the class must pay before any more ride free,
    /// so sustained sketch load can never exceed `1/divisor` of the
    /// slots an equal raw load would hold.
    pub fn try_acquire_sketch(
        &mut self,
        class: ServiceClass,
        layer: Layer,
    ) -> Result<[u32; 3], Layer> {
        if self.sketch_divisor == 0 {
            return Ok([0; 3]);
        }
        let credit = &mut self.sketch_credit[layer.index()][class.index()];
        *credit += 1;
        if *credit < self.sketch_divisor {
            return Ok([0; 3]);
        }
        let mut want = [0; 3];
        want[layer.index()] = 1;
        match self.try_acquire(class, want) {
            Ok(()) => {
                self.sketch_credit[layer.index()][class.index()] = 0;
                Ok(want)
            }
            Err(refused) => {
                // Keep the turn due: the class pays on its next attempt.
                self.sketch_credit[layer.index()][class.index()] = self.sketch_divisor;
                Err(refused)
            }
        }
    }

    /// Releases previously acquired slots. Saturating: releasing more
    /// than is in flight clamps at zero rather than wrapping capacity
    /// open — and debug builds assert, so a double-release surfaces in
    /// tests instead of silently corrupting the accounting.
    pub fn release(&mut self, class: ServiceClass, held: [u32; 3]) {
        for (i, &count) in held.iter().enumerate() {
            let c = &mut self.in_flight[i][class.index()];
            debug_assert!(
                *c >= count,
                "double release: {count} {class} slots given back at layer {i} \
                 with only {c} in flight"
            );
            *c = c.saturating_sub(count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ClassPolicy;
    use citysim::time::Duration;

    /// 10-slot layers: RT guarantees 4, Dashboard 2, Analytics 1;
    /// headroom 3. Analytics may borrow at most 1 headroom slot,
    /// Dashboard 2, RealTime all 3.
    fn small_policy() -> QosPolicy {
        let mut per_class = [ClassPolicy {
            guarantee_pct: [0; 3],
            borrow_pct: 0,
            deadline: Duration::from_secs(1),
        }; CLASS_COUNT];
        per_class[ServiceClass::RealTime.index()].guarantee_pct = [40; 3];
        per_class[ServiceClass::RealTime.index()].borrow_pct = 100;
        per_class[ServiceClass::Dashboard.index()].guarantee_pct = [20; 3];
        per_class[ServiceClass::Dashboard.index()].borrow_pct = 50;
        per_class[ServiceClass::Analytics.index()].guarantee_pct = [10; 3];
        per_class[ServiceClass::Analytics.index()].borrow_pct = 10;
        QosPolicy {
            per_class,
            ..QosPolicy::default()
        }
    }

    fn ledger() -> ClassLedger {
        ClassLedger::new([10, 10, 10], &small_policy())
    }

    fn fog1(n: u32) -> [u32; 3] {
        [n, 0, 0]
    }

    #[test]
    fn shares_and_borrow_caps_derive_from_the_policy() {
        let l = ledger();
        assert_eq!(l.guarantee(Layer::Fog1, ServiceClass::RealTime), 4);
        assert_eq!(l.guarantee(Layer::Fog1, ServiceClass::Dashboard), 2);
        assert_eq!(l.guarantee(Layer::Fog1, ServiceClass::Analytics), 1);
        assert_eq!(l.guarantee(Layer::Fog1, ServiceClass::CityWide), 0);
        // Headroom 3: RT borrows all of it, Dashboard half (2), and
        // Analytics' 10% rounds *up* to one usable slot.
        assert_eq!(l.borrow_cap(Layer::Fog1, ServiceClass::RealTime), 3);
        assert_eq!(l.borrow_cap(Layer::Fog1, ServiceClass::Dashboard), 2);
        assert_eq!(l.borrow_cap(Layer::Fog1, ServiceClass::Analytics), 1);
    }

    #[test]
    fn analytics_borrowing_cannot_starve_a_realtime_guarantee() {
        let mut l = ledger();
        // Analytics takes its guarantee plus its whole borrow budget.
        assert!(l.try_acquire(ServiceClass::Analytics, fog1(2)).is_ok());
        assert_eq!(l.borrowed(Layer::Fog1, ServiceClass::Analytics), 1);
        assert!(
            l.try_acquire(ServiceClass::Analytics, fog1(1)).is_err(),
            "borrow cap reached: analytics sheds next"
        );
        // Real-time still gets every one of its guaranteed slots.
        for _ in 0..4 {
            assert!(l.try_acquire(ServiceClass::RealTime, fog1(1)).is_ok());
        }
        assert_eq!(l.class_in_flight(Layer::Fog1, ServiceClass::RealTime), 4);
    }

    #[test]
    fn borrowing_stops_where_unmet_guarantees_begin() {
        let mut l = ledger();
        // RealTime may use its guarantee (4) plus all headroom (3), but
        // never the 3 slots backing the other classes' guarantees.
        assert!(l.try_acquire(ServiceClass::RealTime, fog1(7)).is_ok());
        assert!(l.try_acquire(ServiceClass::RealTime, fog1(1)).is_err());
        // Those reserved slots are still there for their owners.
        assert!(l.try_acquire(ServiceClass::Dashboard, fog1(2)).is_ok());
        assert!(l.try_acquire(ServiceClass::Analytics, fog1(1)).is_ok());
        assert_eq!(l.layer_total(Layer::Fog1), 10);
    }

    #[test]
    fn refused_multi_layer_acquisition_rolls_back_earlier_layers() {
        let mut l = ledger();
        // Saturate fog 2 for analytics (guarantee 1 + borrow 1).
        assert!(l.try_acquire(ServiceClass::Analytics, [0, 2, 0]).is_ok());
        // A fan-out wanting fog-1 *and* fog-2 slots: fog 1 admits, fog 2
        // refuses — the fog-1 slot must not leak.
        assert_eq!(
            l.try_acquire(ServiceClass::Analytics, [2, 1, 0]),
            Err(Layer::Fog2)
        );
        assert_eq!(l.class_in_flight(Layer::Fog1, ServiceClass::Analytics), 0);
        assert_eq!(l.class_in_flight(Layer::Fog2, ServiceClass::Analytics), 2);
        assert_eq!(l.layer_total(Layer::Fog1), 0);
    }

    #[test]
    fn release_restores_capacity() {
        let mut l = ledger();
        assert!(l.try_acquire(ServiceClass::Dashboard, [4, 1, 0]).is_ok());
        l.release(ServiceClass::Dashboard, [4, 1, 0]);
        assert_eq!(l.layer_total(Layer::Fog1), 0);
        assert_eq!(l.layer_total(Layer::Fog2), 0);
        assert!(l.try_acquire(ServiceClass::Dashboard, [4, 1, 0]).is_ok());
    }

    #[test]
    fn over_reserved_policies_trim_low_priority_guarantees() {
        let mut per_class = [ClassPolicy {
            guarantee_pct: [60; 3],
            borrow_pct: 0,
            deadline: Duration::from_secs(1),
        }; CLASS_COUNT];
        // 4 × 60% = 240% reserved: only the two highest-priority classes
        // fit their full share in a 10-slot layer.
        per_class[ServiceClass::Analytics.index()].guarantee_pct = [60; 3];
        let l = ClassLedger::new(
            [10, 10, 10],
            &QosPolicy {
                per_class,
                ..QosPolicy::default()
            },
        );
        assert_eq!(l.guarantee(Layer::Fog1, ServiceClass::RealTime), 6);
        assert_eq!(l.guarantee(Layer::Fog1, ServiceClass::Dashboard), 4);
        assert_eq!(l.guarantee(Layer::Fog1, ServiceClass::CityWide), 0);
        assert_eq!(l.guarantee(Layer::Fog1, ServiceClass::Analytics), 0);
    }

    #[test]
    fn sketch_reads_charge_one_slot_per_divisor() {
        // Default divisor 4: three reads ride free, the fourth pays.
        let mut l = ClassLedger::new([10, 10, 10], &QosPolicy::default());
        for _ in 0..3 {
            assert_eq!(
                l.try_acquire_sketch(ServiceClass::RealTime, Layer::Fog1),
                Ok([0; 3])
            );
        }
        assert_eq!(
            l.try_acquire_sketch(ServiceClass::RealTime, Layer::Fog1),
            Ok([1, 0, 0])
        );
        assert_eq!(l.class_in_flight(Layer::Fog1, ServiceClass::RealTime), 1);
        // Sustained sketch load holds 1/divisor of the equivalent raw
        // load's slots.
        for _ in 0..16 {
            if let Ok(held) = l.try_acquire_sketch(ServiceClass::RealTime, Layer::Fog1) {
                l.release(ServiceClass::RealTime, held);
            }
        }
        l.release(ServiceClass::RealTime, [1, 0, 0]);
        assert_eq!(l.layer_total(Layer::Fog1), 0);
    }

    #[test]
    fn refused_sketch_charge_stays_due() {
        // Divisor 1: every sketch read pays. Saturate analytics' quota;
        // the refused paying turn must not convert into a free ride.
        let policy = QosPolicy {
            sketch_divisor: 1,
            ..small_policy()
        };
        let mut l = ClassLedger::new([10, 10, 10], &policy);
        assert!(l.try_acquire(ServiceClass::Analytics, fog1(2)).is_ok());
        assert_eq!(
            l.try_acquire_sketch(ServiceClass::Analytics, Layer::Fog1),
            Err(Layer::Fog1)
        );
        assert_eq!(
            l.try_acquire_sketch(ServiceClass::Analytics, Layer::Fog1),
            Err(Layer::Fog1),
            "the due charge persists across refusals"
        );
        l.release(ServiceClass::Analytics, fog1(1));
        assert_eq!(
            l.try_acquire_sketch(ServiceClass::Analytics, Layer::Fog1),
            Ok([1, 0, 0])
        );
    }

    #[test]
    fn exempt_sketch_policy_never_charges() {
        let policy = QosPolicy {
            sketch_divisor: 0,
            ..small_policy()
        };
        let mut l = ClassLedger::new([1, 1, 1], &policy);
        for _ in 0..50 {
            assert_eq!(
                l.try_acquire_sketch(ServiceClass::Analytics, Layer::Cloud),
                Ok([0; 3])
            );
        }
        assert_eq!(l.layer_total(Layer::Cloud), 0);
    }

    #[test]
    fn zero_want_layers_are_ignored() {
        let mut l = ledger();
        assert!(l.try_acquire(ServiceClass::CityWide, [0, 0, 0]).is_ok());
        assert_eq!(l.layer_total(Layer::Fog1), 0);
    }
}
