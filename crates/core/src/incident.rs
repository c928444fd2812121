//! The incident timeline: every injected fault and each of its
//! downstream effects, recorded per node as it happens.
//!
//! The chaos plane's observability contract is that degradation is
//! *attributable*: a deferred flush wave, a refused shipment, a shed
//! fan-out leg or a fault reroute each lands one [`Incident`] on the
//! city's [`IncidentTimeline`], stamped with the simulated instant and
//! the node it happened at. Tests and the chaos bench query the
//! timeline to prove that every refused or degraded answer traces back
//! to an injected fault.

use std::collections::BTreeMap;
use std::fmt;

/// The node an incident happened at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChaosSite {
    /// A fog-1 node, by section index.
    Fog1(usize),
    /// A fog-2 node, by district index.
    Fog2(usize),
    /// The cloud.
    Cloud,
}

impl fmt::Display for ChaosSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosSite::Fog1(s) => write!(f, "fog1/s{s}"),
            ChaosSite::Fog2(d) => write!(f, "fog2/d{d}"),
            ChaosSite::Cloud => write!(f, "cloud"),
        }
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// The node sat inside a crash window at flush time: nothing taken,
    /// nothing shipped; its records stay pending and every completeness
    /// frontier above it honestly lags.
    NodeDown,
    /// Sensor readings offered while the node was crashed were lost at
    /// the edge — both the raw and the sketch plane lose them equally,
    /// so answers stay consistent with the surviving stream.
    IngestLost {
        /// Readings discarded.
        readings: u64,
    },
    /// The flush wave could not ship: the parent was down or the uplink
    /// path crossed an outage (at the gate, or mid-transfer: a NACK).
    /// The batch stays queued below.
    FlushBlocked,
    /// The shipment was lost in transit — the gate's shipment coin, or
    /// a message dropped on an uplink link (a NACK). The batch stays
    /// queued below and re-ships with the next one.
    ShipmentLost,
    /// One of the shipment's encoded bucket partials, or its encoded
    /// record payload, arrived damaged: its CRC failed at the receiver,
    /// which NACKed the shipment. Nothing of it landed; the sender took
    /// the batch back, and neither side's codec dictionary advanced, so
    /// the re-shipment decodes in lock-step.
    ShipmentCorrupted,
    /// A scatter-gather leg was shed from a fan-out because its node
    /// was crashed or unreachable; the answer is annotated partial.
    LegShed,
    /// A planned route was unserveable under the fault plan (source
    /// down, path down, or transfer lost).
    RouteFault,
    /// A fault-shed query was rescued onto its fallback route.
    Reroute,
    /// The burn-rate monitor's fast and slow windows both crossed the
    /// alert threshold: an SLO alert started firing.
    AlertFired {
        /// Fast-window burn rate at fire time, parts-per-thousand.
        fast_burn_milli: u64,
        /// Slow-window burn rate at fire time, parts-per-thousand.
        slow_burn_milli: u64,
    },
    /// The fast window dropped back under the threshold: the SLO alert
    /// resolved.
    AlertResolved {
        /// Fast-window burn rate at resolve time, parts-per-thousand.
        fast_burn_milli: u64,
        /// Slow-window burn rate at resolve time, parts-per-thousand.
        slow_burn_milli: u64,
    },
}

impl IncidentKind {
    /// Short label for summaries and transcripts.
    pub fn label(&self) -> &'static str {
        match self {
            IncidentKind::NodeDown => "node-down",
            IncidentKind::IngestLost { .. } => "ingest-lost",
            IncidentKind::FlushBlocked => "flush-blocked",
            IncidentKind::ShipmentLost => "shipment-lost",
            IncidentKind::ShipmentCorrupted => "shipment-corrupted",
            IncidentKind::LegShed => "leg-shed",
            IncidentKind::RouteFault => "route-fault",
            IncidentKind::Reroute => "reroute",
            IncidentKind::AlertFired { .. } => "alert-fired",
            IncidentKind::AlertResolved { .. } => "alert-resolved",
        }
    }
}

/// One recorded fault or downstream effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Incident {
    /// Simulated instant.
    pub at_s: u64,
    /// The node it happened at.
    pub site: ChaosSite,
    /// What happened.
    pub kind: IncidentKind,
}

/// Append-only, queryable record of every incident, in the order the
/// deterministic simulation produced them (replays agree event for
/// event).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncidentTimeline {
    events: Vec<Incident>,
}

impl IncidentTimeline {
    /// An empty timeline.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends one incident.
    pub(crate) fn record(&mut self, at_s: u64, site: ChaosSite, kind: IncidentKind) {
        self.events.push(Incident { at_s, site, kind });
    }

    /// Appends (and drains) every incident of `other`, preserving its
    /// order. Shard scratches absorb in canonical shard order at
    /// barriers, so the merged timeline is replay-stable at any thread
    /// count.
    pub(crate) fn absorb(&mut self, other: &mut IncidentTimeline) {
        self.events.append(&mut other.events);
    }

    /// All incidents, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Incident> {
        self.events.iter()
    }

    /// The incidents recorded at one node, oldest first.
    pub fn at_site(&self, site: ChaosSite) -> impl Iterator<Item = &Incident> {
        self.events.iter().filter(move |i| i.site == site)
    }

    /// Incident counts per kind label, label-ordered.
    pub fn summary(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for i in &self.events {
            *out.entry(i.kind.label()).or_insert(0) += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_is_queryable_by_site_window_and_kind() {
        let mut t = IncidentTimeline::new();
        t.record(100, ChaosSite::Fog1(3), IncidentKind::NodeDown);
        t.record(900, ChaosSite::Fog2(0), IncidentKind::ShipmentCorrupted);
        t.record(1_800, ChaosSite::Fog2(0), IncidentKind::NodeDown);
        assert_eq!(t.iter().count(), 3);
        assert_eq!(t.at_site(ChaosSite::Fog2(0)).count(), 2);
        assert_eq!(t.summary()["node-down"], 2);
        assert_eq!(t.summary()["shipment-corrupted"], 1);
    }

    #[test]
    fn labels_and_keys_round_trip() {
        assert_eq!(IncidentKind::NodeDown.label(), "node-down");
        let k = IncidentKind::IngestLost { readings: 900 };
        assert_eq!(k.label(), "ingest-lost");
        assert_eq!(format!("{}", ChaosSite::Fog1(7)), "fog1/s7");
        assert_eq!(format!("{}", ChaosSite::Fog2(2)), "fog2/d2");
        assert_eq!(format!("{}", ChaosSite::Cloud), "cloud");
    }
}
