//! Deterministic multi-window SLO burn-rate alerting.
//!
//! The SRE-style recipe: track an SLO's *burn rate* — the error fraction
//! divided by the error budget `(1 - objective)` — over a fast and a slow
//! window at once. Fire only when *both* exceed the threshold (the fast
//! window gives detection latency, the slow one suppresses blips);
//! resolve when the fast window clears. Everything here runs on the
//! *event clock* over cumulative registry counters, with pure integer
//! arithmetic, so a fired alert is as replayable as any flush transcript:
//! same seed, same alert, same microsecond.
//!
//! Burn rates are carried as parts-per-thousand (`milli`); an SLO
//! objective is parts-per-million. A burn of 1000 milli means errors are
//! consuming the budget exactly as fast as the objective allows.

use std::collections::VecDeque;

use crate::json::Json;

/// The definition of one service-level objective and its alert policy.
#[derive(Debug, Clone, Copy)]
pub struct SloSpec {
    /// Alert name (`"availability"`).
    pub name: &'static str,
    /// SLO objective in parts-per-million (999_000 = 99.9%).
    pub objective_ppm: u64,
    /// Fast detection window, seconds.
    pub fast_window_s: u64,
    /// Slow confirmation window, seconds.
    pub slow_window_s: u64,
    /// Burn-rate threshold, parts-per-thousand (10_000 = burning budget
    /// 10x faster than the objective allows).
    pub fire_burn_milli: u64,
}

/// What one evaluation decided, when it changed the alert state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertTransition {
    /// Both windows crossed the threshold; the alert is now firing.
    Fired {
        /// Fast-window burn at fire time, milli.
        fast_burn_milli: u64,
        /// Slow-window burn at fire time, milli.
        slow_burn_milli: u64,
    },
    /// The fast window cleared; the alert resolved.
    Resolved {
        /// Fast-window burn at resolve time, milli.
        fast_burn_milli: u64,
        /// Slow-window burn at resolve time, milli.
        slow_burn_milli: u64,
    },
}

/// One recorded fire or resolve, with the window values that justified it.
#[derive(Debug, Clone)]
pub struct AlertEvent {
    /// Event-clock instant of the transition, seconds.
    pub at_s: u64,
    /// `true` for fired, `false` for resolved.
    pub fired: bool,
    /// Fast-window burn, milli.
    pub fast_burn_milli: u64,
    /// Slow-window burn, milli.
    pub slow_burn_milli: u64,
    /// Flight-recorder dump attached at fire time (empty for resolves).
    pub flight_record: String,
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    t_s: u64,
    good: u64,
    bad: u64,
}

/// Sliding-window burn-rate alerting over one good/bad counter pair. See
/// the module docs.
#[derive(Debug, Clone)]
pub struct BurnRateMonitor {
    spec: SloSpec,
    samples: VecDeque<Sample>,
    firing: bool,
    events: Vec<AlertEvent>,
}

impl BurnRateMonitor {
    /// A monitor for `spec`, not yet firing, with no history.
    pub fn new(spec: SloSpec) -> Self {
        Self {
            spec,
            samples: VecDeque::new(),
            firing: false,
            events: Vec::new(),
        }
    }

    /// Whether the alert is currently firing.
    pub fn firing(&self) -> bool {
        self.firing
    }

    /// Every fire/resolve so far, in event-clock order.
    pub fn events(&self) -> &[AlertEvent] {
        &self.events
    }

    /// Burn rate over the trailing `window_s`, in milli, from the sample
    /// history: the delta between now and the newest sample at or before
    /// `now - window` (or the oldest retained sample while the history is
    /// shorter than the window). Zero when the window saw no events.
    fn burn_milli(&self, now_s: u64, window_s: u64, good: u64, bad: u64) -> u64 {
        let from_s = now_s.saturating_sub(window_s);
        let mut base = match self.samples.front() {
            Some(first) => *first,
            None => Sample {
                t_s: from_s,
                good: 0,
                bad: 0,
            },
        };
        for s in &self.samples {
            if s.t_s <= from_s {
                base = *s;
            } else {
                break;
            }
        }
        let bad_delta = bad.saturating_sub(base.bad);
        let total_delta = good.saturating_sub(base.good) + bad_delta;
        if total_delta == 0 {
            return 0;
        }
        let budget_ppm = 1_000_000 - self.spec.objective_ppm.min(999_999);
        // burn = (bad/total) / budget; milli = burn * 1000.
        let num = bad_delta as u128 * 1_000_000u128 * 1_000u128;
        let den = total_delta as u128 * budget_ppm as u128;
        (num / den) as u64
    }

    /// Feeds one observation of the cumulative good/bad counters at
    /// event-clock instant `now_s` and applies the fire/resolve policy.
    /// Returns the transition if the alert state changed. Deterministic:
    /// the outcome is a pure function of the observation sequence.
    pub fn evaluate(&mut self, now_s: u64, good: u64, bad: u64) -> Option<AlertTransition> {
        let fast = self.burn_milli(now_s, self.spec.fast_window_s, good, bad);
        let slow = self.burn_milli(now_s, self.spec.slow_window_s, good, bad);
        self.samples.push_back(Sample {
            t_s: now_s,
            good,
            bad,
        });
        // Prune history older than the slow window, keeping one sample at
        // or before the boundary as the window's baseline.
        let keep_from = now_s.saturating_sub(self.spec.slow_window_s);
        while self.samples.len() > 1 && self.samples[1].t_s <= keep_from {
            self.samples.pop_front();
        }
        let over = fast >= self.spec.fire_burn_milli && slow >= self.spec.fire_burn_milli;
        let transition = if !self.firing && over {
            self.firing = true;
            Some(AlertTransition::Fired {
                fast_burn_milli: fast,
                slow_burn_milli: slow,
            })
        } else if self.firing && fast < self.spec.fire_burn_milli {
            self.firing = false;
            Some(AlertTransition::Resolved {
                fast_burn_milli: fast,
                slow_burn_milli: slow,
            })
        } else {
            None
        };
        if let Some(t) = transition {
            let (fired, fast_burn_milli, slow_burn_milli) = match t {
                AlertTransition::Fired {
                    fast_burn_milli,
                    slow_burn_milli,
                } => (true, fast_burn_milli, slow_burn_milli),
                AlertTransition::Resolved {
                    fast_burn_milli,
                    slow_burn_milli,
                } => (false, fast_burn_milli, slow_burn_milli),
            };
            self.events.push(AlertEvent {
                at_s: now_s,
                fired,
                fast_burn_milli,
                slow_burn_milli,
                flight_record: String::new(),
            });
        }
        transition
    }

    /// Attaches a flight-recorder dump to the most recent event (called
    /// right after a fire, with the tracer's recent-span text).
    pub fn attach_flight_record(&mut self, dump: String) {
        if let Some(last) = self.events.last_mut() {
            last.flight_record = dump;
        }
    }

    /// Fired events so far.
    pub fn fired_count(&self) -> u64 {
        self.events.iter().filter(|e| e.fired).count() as u64
    }

    /// Resolved events so far.
    pub fn resolved_count(&self) -> u64 {
        self.events.iter().filter(|e| !e.fired).count() as u64
    }

    /// The alert log as a Json export: the spec, the accounting, and
    /// every transition with its window values and flight record.
    pub fn export(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("slo", Json::Str(self.spec.name.to_string()));
        doc.set("objective_ppm", Json::Num(self.spec.objective_ppm as f64));
        doc.set("fast_window_s", Json::Num(self.spec.fast_window_s as f64));
        doc.set("slow_window_s", Json::Num(self.spec.slow_window_s as f64));
        doc.set(
            "fire_burn_milli",
            Json::Num(self.spec.fire_burn_milli as f64),
        );
        doc.set("fired", Json::Num(self.fired_count() as f64));
        doc.set("resolved", Json::Num(self.resolved_count() as f64));
        doc.set("firing", Json::Bool(self.firing));
        let mut events = Vec::new();
        for e in &self.events {
            let mut entry = Json::obj();
            entry.set("at_s", Json::Num(e.at_s as f64));
            entry.set(
                "kind",
                Json::Str(if e.fired { "fired" } else { "resolved" }.to_string()),
            );
            entry.set("fast_burn_milli", Json::Num(e.fast_burn_milli as f64));
            entry.set("slow_burn_milli", Json::Num(e.slow_burn_milli as f64));
            entry.set("flight_record", Json::Str(e.flight_record.clone()));
            events.push(entry);
        }
        doc.set("events", Json::Arr(events));
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: SloSpec = SloSpec {
        name: "availability",
        objective_ppm: 999_000,
        fast_window_s: 300,
        slow_window_s: 3_600,
        fire_burn_milli: 10_000,
    };

    #[test]
    fn clean_stream_never_fires() {
        let mut m = BurnRateMonitor::new(SPEC);
        for i in 0..20u64 {
            assert_eq!(m.evaluate(i * 300, i * 100, 0), None);
        }
        assert!(!m.firing());
        assert_eq!(m.events().len(), 0);
    }

    #[test]
    fn fires_when_both_windows_burn_and_resolves_when_fast_clears() {
        let mut m = BurnRateMonitor::new(SPEC);
        // Healthy hour.
        for i in 0..12u64 {
            m.evaluate(i * 300, i * 1_000, 0);
        }
        // An outage: 10% of the fast window goes bad — burn 100x budget
        // there, ~15x over the trailing hour. Both windows cross: fire.
        let t = m.evaluate(3_600, 12_800, 200);
        assert!(matches!(t, Some(AlertTransition::Fired { .. })));
        assert!(m.firing());
        // Still bad: no duplicate fire.
        assert_eq!(m.evaluate(3_900, 13_650, 250), None);
        // Fast window clean again: resolve.
        let t = m.evaluate(4_200, 14_650, 250);
        assert!(matches!(
            t,
            Some(AlertTransition::Resolved {
                fast_burn_milli: 0,
                ..
            })
        ));
        assert!(!m.firing());
        assert_eq!(m.fired_count(), 1);
        assert_eq!(m.resolved_count(), 1);
    }

    #[test]
    fn slow_window_suppresses_a_blip_after_long_clean_history() {
        // 1% bad over one fast window = burn 10x in fast, but diluted over
        // the hour-long slow window after ~an hour of clean traffic.
        let mut m = BurnRateMonitor::new(SPEC);
        for i in 0..13u64 {
            m.evaluate(i * 300, i * 10_000, 0);
        }
        let t = m.evaluate(13 * 300, 13 * 10_000 - 150, 150);
        assert_eq!(t, None, "slow window must veto a short blip");
        assert!(!m.firing());
    }

    #[test]
    fn burn_math_is_exact() {
        let mut m = BurnRateMonitor::new(SPEC);
        m.evaluate(0, 0, 0);
        // 1 bad in 1000 total = error rate exactly at the 99.9% objective
        // boundary: burn 1.0 = 1000 milli on both windows.
        let t = m.evaluate(300, 999, 1);
        assert_eq!(t, None);
        assert_eq!(m.burn_milli(300, 300, 999, 1), 1_000);
    }

    #[test]
    fn export_carries_windows_and_flight_record() {
        let mut m = BurnRateMonitor::new(SPEC);
        m.evaluate(0, 0, 0);
        m.evaluate(300, 100, 900);
        m.attach_flight_record("cloud/0 q 1..2 d=0 a=0\n".to_string());
        let doc = m.export();
        assert_eq!(doc.get("fired").unwrap().as_u64(), Some(1));
        let Json::Arr(events) = doc.get("events").unwrap() else {
            panic!("events must be an array");
        };
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("fired"));
        assert!(events[0]
            .get("flight_record")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("cloud/0"));
    }
}
