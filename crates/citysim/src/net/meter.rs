//! Per-link traffic accounting, with an hourly time series
//! for peak/off-peak analysis (§IV.D: "use the network in periods when the
//! traffic load is low").

use std::collections::BTreeMap;

use super::{LinkId, Topology};
use crate::time::SimTime;

/// Traffic counters for one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Total bytes carried.
    pub bytes: u64,
    /// Total messages carried.
    pub messages: u64,
}

/// The hour index since start that simulated time `at` falls in.
pub(crate) fn hour_of(at: SimTime) -> u64 {
    at.as_secs() / 3600
}

/// Byte/message accounting for every link of a topology.
#[derive(Debug, Clone, Default)]
pub struct TrafficMeter {
    per_link: Vec<LinkTraffic>,
    /// Bytes per simulated hour (hour index since start).
    hourly: BTreeMap<u64, u64>,
}

impl TrafficMeter {
    /// Creates meters sized for `topo`.
    pub(crate) fn for_topology(topo: &Topology) -> Self {
        Self {
            per_link: vec![LinkTraffic::default(); topo.link_count()],
            hourly: BTreeMap::new(),
        }
    }

    /// Records one message of `bytes` moving across `link` at simulated
    /// time `at`.
    pub(crate) fn record(&mut self, link: LinkId, bytes: u64, at: SimTime) {
        self.add_link(link, bytes, 1);
        self.add_hour(hour_of(at), bytes);
    }

    /// Adds `messages` messages totalling `bytes` to `link`'s counters.
    pub(crate) fn add_link(&mut self, link: LinkId, bytes: u64, messages: u64) {
        let t = &mut self.per_link[link.index()];
        t.bytes += bytes;
        t.messages += messages;
    }

    /// Adds `bytes` to simulated hour `hour`, which then appears in
    /// [`TrafficMeter::hourly_bytes`] even when `bytes` is zero.
    pub(crate) fn add_hour(&mut self, hour: u64, bytes: u64) {
        *self.hourly.entry(hour).or_insert(0) += bytes;
    }

    /// Bytes per simulated hour (hour index since start → bytes).
    pub fn hourly_bytes(&self) -> &BTreeMap<u64, u64> {
        &self.hourly
    }

    /// Fraction of all bytes that moved within the daily time-of-day
    /// window `[start_s, end_s)` (seconds since midnight).
    pub fn window_share(&self, start_s: u64, end_s: u64) -> f64 {
        let total: u64 = self.hourly.values().sum();
        if total == 0 {
            return 0.0;
        }
        let inside: u64 = self
            .hourly
            .iter()
            .filter(|(hour, _)| {
                let tod = (*hour % 24) * 3600;
                tod >= start_s && tod < end_s
            })
            .map(|(_, b)| *b)
            .sum();
        inside as f64 / total as f64
    }

    /// Traffic carried by one link.
    pub fn link_traffic(&self, link: LinkId) -> LinkTraffic {
        self.per_link[link.index()]
    }

    /// Total bytes across all links (each hop counted once).
    pub fn total_bytes(&self) -> u64 {
        self.per_link.iter().map(|t| t.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Link;
    use crate::time::Duration;

    #[test]
    fn records_attribute_to_both_directions() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let l = topo
            .add_link(a, b, Link::new(Duration::from_millis(1), 1_000_000))
            .unwrap();
        let mut m = TrafficMeter::for_topology(&topo);
        m.record(l, 100, SimTime::ZERO);
        m.record(l, 50, SimTime::from_secs(7_200));
        assert_eq!(m.link_traffic(l).bytes, 150);
        assert_eq!(m.link_traffic(l).messages, 2);
        assert_eq!(m.total_bytes(), 150);
        // Hourly buckets: 100 B in hour 0, 50 B in hour 2.
        assert_eq!(m.hourly_bytes().get(&0), Some(&100));
        assert_eq!(m.hourly_bytes().get(&2), Some(&50));
        assert!((m.window_share(0, 3_600) - 100.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn window_share_wraps_by_time_of_day() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let l = topo
            .add_link(a, b, Link::new(Duration::from_millis(1), 1_000_000))
            .unwrap();
        let mut m = TrafficMeter::for_topology(&topo);
        // Day 1, 03:00 and day 2, 03:30: both inside a [02:00, 05:00) window.
        m.record(l, 10, SimTime::from_secs(3 * 3600));
        m.record(l, 30, SimTime::from_secs(86_400 + 3 * 3600 + 1800));
        // Day 1, 12:00: outside.
        m.record(l, 60, SimTime::from_secs(12 * 3600));
        assert!((m.window_share(2 * 3600, 5 * 3600) - 0.4).abs() < 1e-12);
        assert_eq!(m.window_share(0, 0), 0.0);
    }

    #[test]
    fn empty_meter_has_zero_window_share() {
        let topo = Topology::new();
        let m = TrafficMeter::for_topology(&topo);
        assert_eq!(m.window_share(0, 86_400), 0.0);
    }
}
