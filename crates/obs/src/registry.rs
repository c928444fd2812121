//! The unified metrics registry.
//!
//! One plain-value home for every number the planes publish: named counters,
//! gauges and duration histograms, each keyed by `(name, Labels)`.
//! Publishers register once up front and get back a dense id
//! ([`CounterId`] / [`GaugeId`] / [`HistogramId`]); hot-path updates are an
//! array index, not a map lookup. Registration is idempotent — asking for
//! the same `(name, labels)` again returns the same id — so independent
//! publishers can share a series without coordinating.
//!
//! The registry is deliberately *not* global and *not* atomic: it lives
//! inside the deterministic simulation (the city owns one) and snapshots
//! iterate in key order, so two replicas of a seeded run export identical
//! snapshots.

use std::collections::BTreeMap;

use citysim::time::Duration;
use citysim::Histogram;

use crate::labels::Labels;

/// Handle to a registered counter (dense index; `Copy`, cheap to store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Counter(usize),
    Gauge(usize),
    Histogram(usize),
}

/// The unified registry. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<((&'static str, Labels), u64)>,
    gauges: Vec<((&'static str, Labels), i64)>,
    histograms: Vec<((&'static str, Labels), Histogram)>,
    index: BTreeMap<(&'static str, Labels), Slot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) the counter `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different metric kind.
    pub fn counter(&mut self, name: &'static str, labels: Labels) -> CounterId {
        match self.index.get(&(name, labels)) {
            Some(Slot::Counter(i)) => CounterId(*i),
            Some(_) => panic!("metric {name}{labels} already registered as a non-counter"),
            None => {
                let i = self.counters.len();
                self.counters.push(((name, labels), 0));
                self.index.insert((name, labels), Slot::Counter(i));
                CounterId(i)
            }
        }
    }

    /// Registers (or finds) the gauge `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different metric kind.
    pub fn gauge(&mut self, name: &'static str, labels: Labels) -> GaugeId {
        match self.index.get(&(name, labels)) {
            Some(Slot::Gauge(i)) => GaugeId(*i),
            Some(_) => panic!("metric {name}{labels} already registered as a non-gauge"),
            None => {
                let i = self.gauges.len();
                self.gauges.push(((name, labels), 0));
                self.index.insert((name, labels), Slot::Gauge(i));
                GaugeId(i)
            }
        }
    }

    /// Registers (or finds) the duration histogram `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different metric kind.
    pub fn histogram(&mut self, name: &'static str, labels: Labels) -> HistogramId {
        match self.index.get(&(name, labels)) {
            Some(Slot::Histogram(i)) => HistogramId(*i),
            Some(_) => panic!("metric {name}{labels} already registered as a non-histogram"),
            None => {
                let i = self.histograms.len();
                self.histograms.push(((name, labels), Histogram::new()));
                self.index.insert((name, labels), Slot::Histogram(i));
                HistogramId(i)
            }
        }
    }

    /// Adds `delta` to a counter.
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].1 += delta;
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].1 += 1;
    }

    /// Current counter value.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Sets a gauge.
    pub fn set(&mut self, id: GaugeId, value: i64) {
        self.gauges[id.0].1 = value;
    }

    /// Records one duration sample into a histogram.
    pub fn observe(&mut self, id: HistogramId, d: Duration) {
        self.histograms[id.0].1.record(d);
    }

    /// Merges a per-node / per-run histogram into a registered series at
    /// report time (this is what [`Histogram::merge`] exists for).
    pub fn merge_histogram(&mut self, id: HistogramId, other: &Histogram) {
        self.histograms[id.0].1.merge(other);
    }

    /// Looks up a counter's value by key, if registered.
    pub fn counter_named(&self, name: &'static str, labels: Labels) -> Option<u64> {
        match self.index.get(&(name, labels)) {
            Some(Slot::Counter(i)) => Some(self.counters[*i].1),
            _ => None,
        }
    }

    /// Drains every counter of `other` into `self` by `(name, labels)`
    /// key, adding values. `map` caches the other-id → self-id
    /// translation (ids are dense per registry, so the cache is a plain
    /// vector indexed by the other registry's counter slot) and is
    /// extended as `other` registers new series — with a warm cache the
    /// drain is one array add per series, cheap enough to run after
    /// every serve. Series missing here are registered on first drain,
    /// so key-ordered snapshots see the union.
    pub fn absorb_counters(&mut self, other: &mut MetricsRegistry, map: &mut Vec<CounterId>) {
        while map.len() < other.counters.len() {
            let (name, labels) = other.counters[map.len()].0;
            map.push(self.counter(name, labels));
        }
        for (i, (_, value)) in other.counters.iter_mut().enumerate() {
            if *value != 0 {
                self.counters[map[i].0].1 += *value;
                *value = 0;
            }
        }
    }

    /// Drains every histogram of `other` into `self` by key, merging
    /// samples. Registration on demand, like counter absorption.
    pub fn absorb_histograms(&mut self, other: &mut MetricsRegistry) {
        for i in 0..other.histograms.len() {
            let (name, labels) = other.histograms[i].0;
            if other.histograms[i].1.count() == 0 {
                continue;
            }
            let id = self.histogram(name, labels);
            self.histograms[id.0].1.merge(&other.histograms[i].1);
            other.histograms[i].1 = Histogram::new();
        }
    }

    /// A point-in-time copy of every series, in canonical key order.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (&(name, labels), slot) in &self.index {
            let key = format!("{name}{labels}");
            match slot {
                Slot::Counter(i) => counters.push((key, self.counters[*i].1)),
                Slot::Gauge(i) => gauges.push((key, self.gauges[*i].1)),
                Slot::Histogram(i) => {
                    histograms.push((key, HistogramSummary::of(&self.histograms[*i].1)))
                }
            }
        }
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Summary of one histogram series at snapshot time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample.
    pub min_us: u64,
    /// Median (bucket upper bound).
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Largest sample.
    pub max_us: u64,
    /// Exact mean.
    pub mean_us: u64,
}

impl HistogramSummary {
    /// Summarizes one histogram.
    pub fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            min_us: h.min().as_micros(),
            p50_us: h.quantile(0.5).as_micros(),
            p90_us: h.quantile(0.9).as_micros(),
            p99_us: h.quantile(0.99).as_micros(),
            max_us: h.max().as_micros(),
            mean_us: h.mean().as_micros(),
        }
    }
}

/// A point-in-time export of the registry: every series with its canonical
/// `name{labels}` key, sorted, ready for the JSON pipeline.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter series, key-ordered.
    pub counters: Vec<(String, u64)>,
    /// Gauge series, key-ordered.
    pub gauges: Vec<(String, i64)>,
    /// Histogram series, key-ordered.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl Snapshot {
    /// Looks up a counter by its canonical key. The counter vector is
    /// key-ordered (it comes out of the registry's `BTreeMap` index), so
    /// this is a binary search — cheap enough for the budget gate and the
    /// burn-rate monitor to call per rule per evaluation.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.counters[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_dense() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("requests", Labels::new().layer("fog1"));
        let b = r.counter("requests", Labels::new().layer("fog1"));
        assert_eq!(a, b);
        let c = r.counter("requests", Labels::new().layer("fog2"));
        assert_ne!(a, c);
        r.inc(a);
        r.add(b, 2);
        assert_eq!(r.counter_value(a), 3);
        assert_eq!(r.counter_value(c), 0);
        assert_eq!(r.index.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_are_refused() {
        let mut r = MetricsRegistry::new();
        r.counter("x", Labels::NONE);
        r.gauge("x", Labels::NONE);
    }

    #[test]
    fn gauges_hold_last_set_value() {
        let mut r = MetricsRegistry::new();
        let g = r.gauge("in_flight", Labels::new().layer("cloud"));
        r.set(g, 7);
        r.set(g, 3);
        assert_eq!(r.gauges[g.0].1, 3);
    }

    #[test]
    fn histograms_observe_and_merge() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("latency", Labels::new().class("realtime"));
        r.observe(h, Duration::from_millis(2));
        let mut node_local = Histogram::new();
        node_local.record(Duration::from_millis(8));
        r.merge_histogram(h, &node_local);
        assert_eq!(r.histograms[h.0].1.count(), 2);
    }

    #[test]
    fn snapshot_is_key_ordered_and_complete() {
        let mut r = MetricsRegistry::new();
        let z = r.counter("z_last", Labels::NONE);
        let a = r.counter("a_first", Labels::NONE);
        let g = r.gauge("mid", Labels::new().layer("fog1"));
        let h = r.histogram("lat", Labels::NONE);
        r.inc(z);
        r.add(a, 5);
        r.set(g, -2);
        r.observe(h, Duration::from_micros(100));
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].0, "a_first");
        assert_eq!(snap.counters[1].0, "z_last");
        assert_eq!(snap.counter("a_first"), Some(5));
        assert_eq!(snap.gauges, vec![("mid{layer=fog1}".to_string(), -2)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].0, "lat");
        assert_eq!(snap.histograms[0].1.count, 1);
    }

    #[test]
    fn summary_of_single_sample_pins_all_quantiles() {
        let mut h = Histogram::new();
        h.record(Duration::from_micros(300));
        let s = HistogramSummary::of(&h);
        assert_eq!(s.count, 1);
        assert_eq!(s.min_us, 300);
        assert_eq!(s.max_us, 300);
        assert_eq!(s.mean_us, 300);
        // Quantiles clamp to max for a single sample.
        assert_eq!(s.p50_us, 300);
        assert_eq!(s.p99_us, 300);
    }
}
