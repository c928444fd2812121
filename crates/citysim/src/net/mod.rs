//! Network model: topology, links, routing, metering, failures.
//!
//! * [`Topology`] — an undirected graph of labelled nodes and
//!   latency/bandwidth links, with Dijkstra routing,
//! * [`TrafficMeter`] — per-link and per-node byte/message accounting (the
//!   raw data behind every traffic table in the experiments),
//! * [`FailurePlan`] — deterministic link outages and packet loss,
//! * [`Network`] — the combination: `send` looks the route up in a table
//!   built once from the topology, checks failures, accumulates latency +
//!   serialization delay, and meters every traversed link.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod failure;
mod link;
mod meter;
mod topology;

pub use failure::FailurePlan;
pub use link::Link;
pub use meter::{LinkTraffic, TrafficMeter};
pub use topology::{LinkId, NodeId, Topology};

use self::topology::RouteTable;
use crate::time::{Duration, SimTime};
use crate::{Error, Result};

/// `link`'s entry in a table indexed by [`LinkId::index`], the table grown
/// with defaults to hold it. Link ids are handed out densely by a
/// [`Topology`], so a table is at most as long as the topology has links.
fn entry<T: Clone + Default>(table: &mut Vec<T>, link: LinkId) -> &mut T {
    let index = link.index();
    if table.len() <= index {
        table.resize(index + 1, T::default());
    }
    &mut table[index]
}

/// Buffered network effects of one shard's read-only phase.
///
/// A sharded runtime serves queries and ships flush hops against a
/// shared `&Network`; everything a send would normally mutate — traffic
/// meters and per-link loss-coin sequences — lands here instead, and
/// [`Network::absorb_scratch`] replays it at the next barrier in the
/// coordinator's canonical shard order. Per-link sequences are drawn as
/// `base + local count`, where `base` is the plan's counter at first use,
/// so a shard's verdicts are a pure function of the plan plus its own
/// send order.
#[derive(Debug, Default)]
pub struct NetScratch {
    /// Metering events in send order: `(link, src, dst, bytes, at)`.
    events: Vec<(LinkId, NodeId, NodeId, u64, SimTime)>,
    /// By link index, `(base sequence at first use, draws made here)`;
    /// zero draws means the link is untouched and its base is stale.
    seq: Vec<(u64, u64)>,
    /// The links drawn on since the last drain, each named once.
    touched: Vec<LinkId>,
}

impl NetScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.touched.is_empty()
    }

    /// Buffered metering events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// The sequence number of the next loss coin on `link`: the plan's
    /// counter as of this scratch's first draw there, plus the draws made
    /// here since.
    fn next_seq(&mut self, link: LinkId, plan: &FailurePlan) -> u64 {
        let (base, drawn) = entry(&mut self.seq, link);
        if *drawn == 0 {
            *base = plan.loss_seq(link);
            self.touched.push(link);
        }
        *drawn += 1;
        *base + *drawn - 1
    }
}

/// Outcome of a successful message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the last byte arrives at the destination.
    pub arrival: SimTime,
    /// Number of links traversed.
    pub hops: usize,
    /// Pure propagation latency along the path (excluding serialization).
    pub path_latency: Duration,
}

/// A routed, metered, failure-aware network over a [`Topology`].
///
/// The topology is fixed once wrapped, so every shortest path is computed
/// at construction ([`Network::path`]) and a send allocates nothing for
/// routing. The failure plan never reroutes: outages are checked hop by
/// hop along the fixed path.
///
/// # Examples
///
/// ```
/// use citysim::{Network, Topology, Link, SimTime, Duration};
///
/// let mut topo = Topology::new();
/// let a = topo.add_node("fog-1");
/// let b = topo.add_node("cloud");
/// topo.add_link(a, b, Link::new(Duration::from_millis(20), 100_000_000)).unwrap();
///
/// let mut net = Network::new(topo);
/// let d = net.send(a, b, 1_000_000, SimTime::ZERO).unwrap();
/// assert_eq!(d.hops, 1);
/// // 20 ms propagation + 1 MB over 100 Mbit/s = 80 ms serialization.
/// assert_eq!(d.arrival.as_micros(), 100_000);
/// ```
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    routes: RouteTable,
    meter: TrafficMeter,
    failures: FailurePlan,
}

impl Network {
    /// Wraps a topology with fresh meters and no failures, and computes
    /// its route table (one Dijkstra tree per node).
    pub fn new(topo: Topology) -> Self {
        let meter = TrafficMeter::for_topology(&topo);
        let routes = RouteTable::build(&topo);
        Self {
            topo,
            routes,
            meter,
            failures: FailurePlan::none(),
        }
    }

    /// Installs a failure plan (replacing any previous one).
    pub fn set_failures(&mut self, failures: FailurePlan) {
        self.failures = failures;
    }

    /// Read access to the installed failure plan.
    pub fn failures(&self) -> &FailurePlan {
        &self.failures
    }

    /// Mutable access to the installed failure plan, for incremental
    /// chaos injection (adding outage windows to a live plan).
    pub fn failures_mut(&mut self) -> &mut FailurePlan {
        &mut self.failures
    }

    /// Whether a route from `from` to `to` exists with every hop outside
    /// its outage window and both endpoints up at `at`. A reachability
    /// probe: nothing is metered and no loss coin is drawn.
    pub fn path_is_up(&self, from: NodeId, to: NodeId, at: SimTime) -> bool {
        if self.failures.node_is_down(from, at) || self.failures.node_is_down(to, at) {
            return false;
        }
        match self.routes.path(from, to) {
            Ok(path) => path.iter().all(|&l| !self.failures.is_down(l, at)),
            Err(_) => false,
        }
    }

    /// The fixed shortest path (by total latency) from `from` to `to`, as
    /// link ids in traversal order — exactly what [`Topology::route`]
    /// computes, read from the table. Empty means `from == to`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownNode`] or [`Error::NoRoute`].
    pub fn path(&self, from: NodeId, to: NodeId) -> Result<&[LinkId]> {
        self.routes.path(from, to)
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Read access to the traffic meters.
    pub fn meter(&self) -> &TrafficMeter {
        &self.meter
    }

    /// Resets all traffic meters to zero.
    pub fn reset_meter(&mut self) {
        self.meter = TrafficMeter::for_topology(&self.topo);
    }

    /// Sends `bytes` from `from` to `to` at time `now`.
    ///
    /// The transfer is store-and-forward: each hop adds its propagation
    /// latency plus `bytes / bandwidth` serialization delay. Bytes are
    /// metered on every traversed link even if a later hop fails (the
    /// traffic was already on the wire).
    ///
    /// # Errors
    ///
    /// * [`Error::NoRoute`] / [`Error::UnknownNode`] for topology problems,
    /// * [`Error::LinkDown`] if a hop's link is in an outage window,
    /// * [`Error::MessageLost`] if injected packet loss drops the message.
    pub fn send(&mut self, from: NodeId, to: NodeId, bytes: u64, now: SimTime) -> Result<Delivery> {
        let path = self.routes.path(from, to)?;
        let mut at = now;
        let mut path_latency = Duration::ZERO;
        for &link_id in path {
            let link = self.topo.link(link_id);
            let (a, b) = self.topo.link_endpoints(link_id);
            if self.failures.is_down(link_id, at) {
                return Err(Error::LinkDown { a, b, at });
            }
            // The message reaches the link before the loss coin is tossed,
            // so meter it first: lost traffic still loaded the network.
            self.meter.record(link_id, a, b, bytes, at);
            if self.failures.drops(link_id) {
                return Err(Error::MessageLost { a, b });
            }
            at += link.latency() + link.transfer_time(bytes);
            path_latency += link.latency();
        }
        Ok(Delivery {
            arrival: at,
            hops: path.len(),
            path_latency,
        })
    }

    /// [`Network::send`] against `&self`: meter records and loss-coin
    /// draws go to `scratch` instead of mutating the network. A shard
    /// replaying the same sends through the same scratch gets the same
    /// verdicts [`Network::send`] would have produced sequentially.
    ///
    /// # Errors
    ///
    /// Exactly as [`Network::send`].
    pub fn send_scratch(
        &self,
        scratch: &mut NetScratch,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        now: SimTime,
    ) -> Result<Delivery> {
        let path = self.routes.path(from, to)?;
        let mut at = now;
        let mut path_latency = Duration::ZERO;
        for &link_id in path {
            let link = self.topo.link(link_id);
            let (a, b) = self.topo.link_endpoints(link_id);
            if self.failures.is_down(link_id, at) {
                return Err(Error::LinkDown { a, b, at });
            }
            scratch.events.push((link_id, a, b, bytes, at));
            let seq = scratch.next_seq(link_id, &self.failures);
            if self.failures.loss_verdict(link_id, seq) {
                return Err(Error::MessageLost { a, b });
            }
            at += link.latency() + link.transfer_time(bytes);
            path_latency += link.latency();
        }
        Ok(Delivery {
            arrival: at,
            hops: path.len(),
            path_latency,
        })
    }

    /// [`Network::request_response`] through a [`NetScratch`].
    ///
    /// # Errors
    ///
    /// Exactly as [`Network::request_response`].
    pub fn request_response_scratch(
        &self,
        scratch: &mut NetScratch,
        from: NodeId,
        to: NodeId,
        request_bytes: u64,
        response_bytes: u64,
        now: SimTime,
    ) -> Result<Delivery> {
        let there = self.send_scratch(scratch, from, to, request_bytes, now)?;
        let back = self.send_scratch(scratch, to, from, response_bytes, there.arrival)?;
        Ok(Delivery {
            arrival: back.arrival,
            hops: there.hops + back.hops,
            path_latency: there.path_latency + back.path_latency,
        })
    }

    /// Folds a shard's buffered sends back into the network: meter events
    /// replay in their send order and each link's loss-coin counter jumps
    /// by the draws made (per-link counters, so the order links are
    /// visited in does not matter). Called at barriers in canonical shard
    /// order, so the merged meter and sequences are schedule-independent.
    pub fn absorb_scratch(&mut self, scratch: &mut NetScratch) {
        for (link, a, b, bytes, at) in scratch.events.drain(..) {
            self.meter.record(link, a, b, bytes, at);
        }
        for link in scratch.touched.drain(..) {
            let (_, drawn) = std::mem::take(entry(&mut scratch.seq, link));
            self.failures.advance_loss_seq(link, drawn);
        }
    }

    /// Round-trip: a small `request_bytes` message from `from` to `to`, then
    /// `response_bytes` back. Returns the time the response arrives.
    pub fn request_response(
        &mut self,
        from: NodeId,
        to: NodeId,
        request_bytes: u64,
        response_bytes: u64,
        now: SimTime,
    ) -> Result<Delivery> {
        let there = self.send(from, to, request_bytes, now)?;
        let back = self.send(to, from, response_bytes, there.arrival)?;
        Ok(Delivery {
            arrival: back.arrival,
            hops: there.hops + back.hops,
            path_latency: there.path_latency + back.path_latency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn line3() -> (Network, NodeId, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let c = topo.add_node("c");
        topo.add_link(a, b, Link::new(Duration::from_millis(2), 1_000_000_000))
            .unwrap();
        topo.add_link(b, c, Link::new(Duration::from_millis(30), 1_000_000_000))
            .unwrap();
        (Network::new(topo), a, b, c)
    }

    #[test]
    fn multi_hop_latency_accumulates() {
        let (mut net, a, _, c) = line3();
        let d = net.send(a, c, 0, SimTime::ZERO).unwrap();
        assert_eq!(d.hops, 2);
        assert_eq!(d.path_latency, Duration::from_millis(32));
        assert_eq!(d.arrival, SimTime::ZERO + Duration::from_millis(32));
    }

    #[test]
    fn serialization_delay_scales_with_bytes() {
        let (mut net, a, b, _) = line3();
        // 1 Gbit/s = 125 MB/s; 125 MB takes 1 s per hop.
        let d = net.send(a, b, 125_000_000, SimTime::ZERO).unwrap();
        assert_eq!(
            d.arrival.as_micros(),
            Duration::from_millis(2).as_micros() + 1_000_000
        );
    }

    #[test]
    fn traffic_is_metered_on_every_hop() {
        let (mut net, a, _, c) = line3();
        net.send(a, c, 500, SimTime::ZERO).unwrap();
        // Both links carried the 500 bytes.
        let total: u64 = net.meter().total_bytes();
        assert_eq!(total, 1000);
    }

    #[test]
    fn request_response_doubles_the_path() {
        let (mut net, a, _, c) = line3();
        let d = net
            .request_response(a, c, 100, 10_000, SimTime::ZERO)
            .unwrap();
        assert_eq!(d.hops, 4);
        assert_eq!(d.path_latency, Duration::from_millis(64));
    }

    #[test]
    fn unknown_destination_errors() {
        let (mut net, a, _, _) = line3();
        let ghost = NodeId::from_raw(99);
        assert!(matches!(
            net.send(a, ghost, 1, SimTime::ZERO),
            Err(Error::UnknownNode { .. })
        ));
    }

    #[test]
    fn reset_meter_zeroes_counts() {
        let (mut net, a, b, _) = line3();
        net.send(a, b, 100, SimTime::ZERO).unwrap();
        assert!(net.meter().total_bytes() > 0);
        net.reset_meter();
        assert_eq!(net.meter().total_bytes(), 0);
    }

    #[test]
    fn a_link_beyond_the_table_grows_it_and_an_untouched_one_does_not() {
        let (mut net, a, _, c) = line3();
        let links: Vec<LinkId> = net.path(a, c).unwrap().to_vec();
        let (first, second) = (links[0], links[1]);
        assert_eq!(net.failures.loss_seq(second), 0, "reads never grow");
        net.failures.advance_loss_seq(second, 3);
        assert_eq!(net.failures.loss_seq(second), 3);
        assert_eq!(net.failures.loss_seq(first), 0);
        let mut scratch = NetScratch::new();
        assert!(scratch.is_empty());
        net.send_scratch(&mut scratch, a, c, 10, SimTime::ZERO)
            .unwrap();
        assert!(!scratch.is_empty());
        assert_eq!(scratch.seq, [(0, 1), (3, 1)], "base is the plan's counter");
        net.absorb_scratch(&mut scratch);
        assert!(scratch.is_empty());
        assert_eq!(scratch.seq, [(0, 0), (0, 0)], "drained entries reset");
        assert_eq!(net.failures.loss_seq(first), 1);
        assert_eq!(net.failures.loss_seq(second), 4);
    }

    /// The per-link sequences as they were kept before the dense tables:
    /// SipHash maps keyed by `LinkId`, the scratch drained in link order.
    #[derive(Default)]
    struct SeqModel {
        plan: HashMap<LinkId, u64>,
        scratch: [HashMap<LinkId, (u64, u64)>; 2],
    }

    impl SeqModel {
        /// The verdicts `send_scratch` must reach along `path`: one coin
        /// per hop until the first loss.
        fn send_scratch(&mut self, which: usize, path: &[LinkId], plan: &FailurePlan) -> bool {
            for &link in path {
                let base = self.plan.get(&link).copied().unwrap_or(0);
                let entry = self.scratch[which].entry(link).or_insert((base, 0));
                let seq = entry.0 + entry.1;
                entry.1 += 1;
                if plan.loss_verdict(link, seq) {
                    return false;
                }
            }
            true
        }

        fn send(&mut self, path: &[LinkId], plan: &FailurePlan) -> bool {
            for &link in path {
                let n = self.plan.entry(link).or_insert(0);
                let seq = *n;
                *n += 1;
                if plan.loss_verdict(link, seq) {
                    return false;
                }
            }
            true
        }

        fn absorb(&mut self, which: usize) {
            let mut seqs: Vec<(LinkId, (u64, u64))> = self.scratch[which].drain().collect();
            seqs.sort_by_key(|(link, _)| link.index());
            for (link, (_, drawn)) in seqs {
                *self.plan.entry(link).or_insert(0) += drawn;
            }
        }
    }

    /// A six-node line with every link lossy, so every hop tosses a coin
    /// that can come up either way.
    fn lossy_line() -> (Network, Vec<NodeId>, Vec<LinkId>) {
        let mut topo = Topology::new();
        let nodes: Vec<NodeId> = (0..6).map(|i| topo.add_node(format!("n{i}"))).collect();
        let links: Vec<LinkId> = nodes
            .windows(2)
            .map(|w| {
                topo.add_link(w[0], w[1], Link::new(Duration::from_millis(1), 1_000_000))
                    .unwrap()
            })
            .collect();
        let mut plan = FailurePlan::with_seed(2017);
        for &link in &links {
            plan.set_loss(link, 0.3);
        }
        let mut net = Network::new(topo);
        net.set_failures(plan);
        (net, nodes, links)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// One step is `(kind, scratch, from, to, n)`: a buffered send, a
        /// direct send (which draws through `FailurePlan::drops`), a
        /// drain of one scratch, or a bare `advance_loss_seq`. Two
        /// scratches interleave, as two shards' do between barriers.
        #[test]
        fn dense_loss_sequences_equal_the_hash_map_model(
            ops in proptest::collection::vec((0u8..10, 0usize..2, 0usize..6, 0usize..6, 0u64..4), 1..120),
        ) {
            use proptest::prelude::*;
            let (mut net, nodes, links) = lossy_line();
            let mut scratch = [NetScratch::new(), NetScratch::new()];
            let mut model = SeqModel::default();
            for &(kind, which, from, to, n) in &ops {
                let path = net.path(nodes[from], nodes[to]).unwrap().to_vec();
                match kind {
                    0..=4 => {
                        let sent = net
                            .send_scratch(&mut scratch[which], nodes[from], nodes[to], 64, SimTime::ZERO)
                            .is_ok();
                        prop_assert_eq!(sent, model.send_scratch(which, &path, net.failures()));
                    }
                    5 | 6 => {
                        let sent = net.send(nodes[from], nodes[to], 64, SimTime::ZERO).is_ok();
                        prop_assert_eq!(sent, model.send(&path, &net.failures));
                    }
                    7 | 8 => {
                        net.absorb_scratch(&mut scratch[which]);
                        model.absorb(which);
                        prop_assert!(scratch[which].is_empty());
                    }
                    _ => {
                        let link = links[from.min(links.len() - 1)];
                        net.failures_mut().advance_loss_seq(link, n);
                        *model.plan.entry(link).or_insert(0) += n;
                    }
                }
                for &link in &links {
                    prop_assert_eq!(
                        net.failures().loss_seq(link),
                        model.plan.get(&link).copied().unwrap_or(0)
                    );
                }
                for (real, model) in scratch.iter().zip(&model.scratch) {
                    prop_assert_eq!(real.is_empty(), model.is_empty() && real.events.is_empty());
                }
            }
        }
    }
}
