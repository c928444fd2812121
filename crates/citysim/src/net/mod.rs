//! Network model: topology, links, routing, metering, failures.
//!
//! * [`Topology`] — an undirected graph of labelled nodes and
//!   latency/bandwidth links, with Dijkstra routing,
//! * [`TrafficMeter`] — per-link byte/message accounting and bytes per
//!   simulated hour (the raw data behind every traffic table in the
//!   experiments),
//! * [`FailurePlan`] — deterministic link outages and packet loss,
//! * [`Network`] — the combination: `send` looks the route up in a table
//!   built once from the topology, checks failures, accumulates latency +
//!   serialization delay, and meters every traversed link.

mod failure;
mod link;
mod meter;
mod topology;

pub use failure::FailurePlan;
pub use link::Link;
pub use meter::TrafficMeter;
pub(crate) use topology::LinkId;
pub use topology::{NodeId, Topology};

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
/// [`Network::absorb_scratch`] adds it in at the next barrier in the
/// coordinator's canonical shard order. Per-link sequences are drawn as
/// `base + local count`, where `base` is the plan's counter at first use,
/// so a shard's verdicts are a pure function of the plan plus its own
/// send order.
///
/// Everything the meter keeps is a sum, so the scratch keeps sums too:
/// per link the bytes and the draws (a metered hop tosses exactly one
/// coin, so the draws are the link's messages), and the bytes per
/// simulated hour. A drain costs the links and hours the buffered sends
/// crossed, not one update per hop.
#[derive(Debug, Default)]
pub struct NetScratch {
    /// By link index; zero draws means the link is untouched and its
    /// base is stale.
    links: Vec<LinkSums>,
    /// The links drawn on since the last drain, each named once.
    touched: Vec<LinkId>,
    /// `(hour, bytes)` since the last drain, one entry per simulated
    /// hour the buffered sends fell in. Usually one or two: the
    /// sequential engine drains after every request and a shard at
    /// every flush or ingest barrier, though a shard with neither runs
    /// many hours between drains.
    hourly: Vec<(u64, u64)>,
}

/// One link's sends buffered in a [`NetScratch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LinkSums {
    /// The plan's loss-coin counter at this scratch's first draw.
    base: u64,
    /// Coins drawn (messages metered) here since.
    draws: u64,
    /// Bytes metered here since.
    bytes: u64,
}

impl NetScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffered hop messages, summed over links.
    pub fn message_count(&self) -> u64 {
        self.touched
            .iter()
            .map(|&link| self.links[link.index()].draws)
            .sum()
    }

    /// Meters `bytes` on `link` at `at` and returns the sequence number
    /// of the loss coin this hop tosses: the plan's counter as of this
    /// scratch's first draw there, plus the draws made here since.
    fn meter(&mut self, link: LinkId, bytes: u64, at: SimTime, plan: &FailurePlan) -> u64 {
        let sums = entry(&mut self.links, link);
        if sums.draws == 0 {
            sums.base = plan.loss_seq(link);
            self.touched.push(link);
        }
        sums.draws += 1;
        sums.bytes += bytes;
        let seq = sums.base + sums.draws - 1;
        let hour = meter::hour_of(at);
        match self.hourly.iter_mut().rev().find(|(h, _)| *h == hour) {
            Some((_, sum)) => *sum += bytes,
            None => self.hourly.push((hour, bytes)),
        }
        seq
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
            self.meter.record(link_id, bytes, at);
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
            let seq = scratch.meter(link_id, bytes, at, &self.failures);
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

    /// Folds a shard's buffered sends back into the network: each link's
    /// bytes and messages, and each hour's bytes, add to the meter, and
    /// each link's loss-coin counter jumps by the draws made. Sums and
    /// per-link counters, so the order links and hours are visited in
    /// does not matter. Called at barriers in canonical shard order, so
    /// the merged meter and sequences are schedule-independent.
    pub fn absorb_scratch(&mut self, scratch: &mut NetScratch) {
        for link in scratch.touched.drain(..) {
            let sums = std::mem::take(entry(&mut scratch.links, link));
            self.meter.add_link(link, sums.bytes, sums.draws);
            self.failures.advance_loss_seq(link, sums.draws);
        }
        for (hour, bytes) in scratch.hourly.drain(..) {
            self.meter.add_hour(hour, bytes);
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

    /// Whether a scratch has nothing buffered.
    fn drained(scratch: &NetScratch) -> bool {
        scratch.touched.is_empty() && scratch.hourly.is_empty()
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
        assert!(drained(&scratch));
        net.send_scratch(&mut scratch, a, c, 10, SimTime::ZERO)
            .unwrap();
        assert!(!drained(&scratch));
        assert_eq!(scratch.message_count(), 2);
        let sums = |base, draws, bytes| LinkSums { base, draws, bytes };
        assert_eq!(
            scratch.links,
            [sums(0, 1, 10), sums(3, 1, 10)],
            "base is the plan's counter"
        );
        net.absorb_scratch(&mut scratch);
        assert!(drained(&scratch));
        assert_eq!(scratch.message_count(), 0);
        assert_eq!(
            scratch.links,
            [LinkSums::default(); 2],
            "drained entries reset"
        );
        assert_eq!(net.failures.loss_seq(first), 1);
        assert_eq!(net.failures.loss_seq(second), 4);
    }

    /// The scratch as it was kept before it held sums: SipHash maps of
    /// `(base, draws)` keyed by `LinkId`, drained in link order, beside a
    /// log of every metered hop `(link, bytes, at)` replayed through
    /// [`TrafficMeter::record`] — the call [`Network::send`] makes per hop.
    struct SeqModel {
        plan: HashMap<LinkId, u64>,
        scratch: [HashMap<LinkId, (u64, u64)>; 2],
        log: [Vec<(LinkId, u64, SimTime)>; 2],
        meter: TrafficMeter,
    }

    impl SeqModel {
        fn new(net: &Network) -> Self {
            Self {
                plan: HashMap::new(),
                scratch: Default::default(),
                log: Default::default(),
                meter: TrafficMeter::for_topology(net.topology()),
            }
        }

        /// The verdicts `send_scratch` must reach along `path`: one coin
        /// per hop until the first loss, every hop tossing one metered.
        fn send_scratch(
            &mut self,
            which: usize,
            path: &[LinkId],
            bytes: u64,
            now: SimTime,
            net: &Network,
        ) -> bool {
            let mut at = now;
            for &link in path {
                self.log[which].push((link, bytes, at));
                let base = self.plan.get(&link).copied().unwrap_or(0);
                let entry = self.scratch[which].entry(link).or_insert((base, 0));
                let seq = entry.0 + entry.1;
                entry.1 += 1;
                if net.failures().loss_verdict(link, seq) {
                    return false;
                }
                at += hop_time(net, link, bytes);
            }
            true
        }

        fn send(&mut self, path: &[LinkId], bytes: u64, now: SimTime, net: &Network) -> bool {
            let mut at = now;
            for &link in path {
                self.meter.record(link, bytes, at);
                let n = self.plan.entry(link).or_insert(0);
                let seq = *n;
                *n += 1;
                if net.failures().loss_verdict(link, seq) {
                    return false;
                }
                at += hop_time(net, link, bytes);
            }
            true
        }

        fn absorb(&mut self, which: usize) {
            for (link, bytes, at) in self.log[which].drain(..) {
                self.meter.record(link, bytes, at);
            }
            let mut seqs: Vec<(LinkId, (u64, u64))> = self.scratch[which].drain().collect();
            seqs.sort_by_key(|(link, _)| link.index());
            for (link, (_, drawn)) in seqs {
                *self.plan.entry(link).or_insert(0) += drawn;
            }
        }
    }

    fn hop_time(net: &Network, link: LinkId, bytes: u64) -> Duration {
        let link = net.topology().link(link);
        link.latency() + link.transfer_time(bytes)
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

        /// One step is `(kind, scratch, from, to, n, at)`: a buffered
        /// send, a direct send (which draws through `FailurePlan::drops`),
        /// a drain of one scratch, or a bare `advance_loss_seq`. Two
        /// scratches interleave, as two shards' do between barriers. Sends
        /// start within 20 ms of an hour boundary and cross it hop by hop,
        /// and lost messages still meter the hops they reached, so the
        /// meter's link sums and hourly series must equal the model's
        /// hop-by-hop replay after every step.
        #[test]
        fn dense_loss_sequences_equal_the_hash_map_model(
            ops in proptest::collection::vec(
                (0u8..10, 0usize..2, 0usize..6, 0usize..6, 0u64..4, 0u64..40),
                1..120,
            ),
        ) {
            use proptest::prelude::*;
            let (mut net, nodes, links) = lossy_line();
            let mut scratch = [NetScratch::new(), NetScratch::new()];
            let mut model = SeqModel::new(&net);
            for &(kind, which, from, to, n, at_ms) in &ops {
                let path = net.path(nodes[from], nodes[to]).unwrap().to_vec();
                let bytes = [0, 64, 1_000, 4_000][n as usize];
                let now = SimTime::from_micros(3_600_000_000 - 20_000 + at_ms * 1_000);
                match kind {
                    0..=4 => {
                        let sent = net
                            .send_scratch(&mut scratch[which], nodes[from], nodes[to], bytes, now)
                            .is_ok();
                        prop_assert_eq!(sent, model.send_scratch(which, &path, bytes, now, &net));
                    }
                    5 | 6 => {
                        let sent = net.send(nodes[from], nodes[to], bytes, now).is_ok();
                        prop_assert_eq!(sent, model.send(&path, bytes, now, &net));
                    }
                    7 | 8 => {
                        net.absorb_scratch(&mut scratch[which]);
                        model.absorb(which);
                        prop_assert!(drained(&scratch[which]));
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
                    prop_assert_eq!(net.meter().link_traffic(link), model.meter.link_traffic(link));
                }
                prop_assert_eq!(net.meter().hourly_bytes(), model.meter.hourly_bytes());
                for ((real, model), log) in scratch.iter().zip(&model.scratch).zip(&model.log) {
                    prop_assert_eq!(drained(real), model.is_empty() && log.is_empty());
                    prop_assert_eq!(real.message_count(), log.len() as u64);
                }
            }
        }
    }
}
