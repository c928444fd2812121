//! The data-access cost model of §IV.C: "when the required data is not
//! present in the current fog node at layer 1, but can be accessed from
//! either a node at a higher layer or a neighbor fog node at the same
//! layer 1 … solved using some sort of cost model to estimate the effects
//! of both cases and proceed according to the lowest cost."

use citysim::barcelona::LatencyProfile;
use citysim::time::Duration;

/// Where a missing datum could be fetched from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOption {
    /// The requesting fog-1 node itself.
    Local,
    /// The requesting fog-1 node's *sketch ledger*: a merge of
    /// pre-folded bucket partials, no archive scan and no network.
    /// Priced like a local read — the transport is identical; the
    /// savings (no per-record scan) show up in the engine's scan-cost
    /// term instead.
    LocalSketch,
    /// A neighbor fog-1 node `hops` ring-hops away in the same district.
    Neighbor {
        /// Ring distance (≥ 1).
        hops: u32,
    },
    /// The fog-2 parent.
    Parent,
    /// A sibling district's fog-2 node, reached through the requester's
    /// own fog-2 parent and then `hops` metro-ring hops laterally —
    /// never via the cloud.
    SiblingFog2 {
        /// Fog-2 ring distance (≥ 1).
        hops: u32,
    },
    /// The cloud.
    Cloud,
}

/// Transport path of one scatter-gather fan-out leg, priced from the
/// *gather* fog-2 node's perspective (the requester's district fog-2,
/// where the partial results are merged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FanoutPath {
    /// The shard lives at the gather node itself: no transport.
    GatherLocal,
    /// A sibling fog-2 node `hops` metro-ring hops from the gather node.
    SiblingFog2 {
        /// Fog-2 ring distance (≥ 1).
        hops: u32,
    },
    /// A member fog-1 node: its uplink to its own district fog-2, then
    /// `hops` ring hops laterally to the gather node (0 when the member
    /// belongs to the gather district).
    MemberFog1 {
        /// Fog-2 ring distance from the member's district to the gather
        /// district.
        hops: u32,
    },
}

/// Bytes of one read request: the envelope every priced route carries
/// out before its answer comes back, and what the engine meters for it.
pub const REQUEST_BYTES: u64 = 200;

/// Bandwidth of a consumer's access link to its fog-1 node. The profile
/// gives that link's latency only, because the graph does not hold it.
const ACCESS_BPS: u64 = 1_000_000_000;

/// Modelled, not measured: the gather node's cost of merging one leg's
/// partial result (fold of an `AggPartial`, or one heap round of the
/// k-way merge).
pub(crate) const MERGE_PER_LEG_US: u64 = 300;

/// Modelled, not measured: the admission overhead per fan-out leg.
/// Every leg occupies an in-flight slot at its layer, and the gather
/// node pays dispatch + completion bookkeeping for it. This is what lets
/// a single cloud read win against very wide fan-outs.
pub(crate) const LEG_ADMISSION_US: u64 = 500;

/// One link class of the profile, `(latency, bandwidth bps)`.
type LinkClass = (Duration, u64);

/// Cost model: the round trip the idle network takes for a read. A
/// route is at most two runs of equal links, `(class, links)`. Each link
/// is crossed by the request out and the answer back, store-and-forward,
/// so it costs `2 × latency + ser(request) + ser(answer)`.
#[derive(Debug, Clone, Copy)]
pub struct AccessCostModel {
    profile: LatencyProfile,
}

impl AccessCostModel {
    /// A model over the topology's link profile.
    pub fn new(profile: LatencyProfile) -> Self {
        Self { profile }
    }

    /// Estimated completion time for fetching `bytes` via `option`.
    pub fn cost(&self, option: AccessOption, bytes: u64) -> Duration {
        let p = &self.profile;
        match option {
            AccessOption::Local | AccessOption::LocalSketch => {
                price(&[((p.sensor_to_fog1, ACCESS_BPS), 1)], bytes)
            }
            AccessOption::Neighbor { hops } => {
                // The ring while it is shorter than the climb through
                // the parent: the network routes by latency.
                let hops = hops.max(1);
                let ring = p.fog1_neighbor.0.as_micros() * u64::from(hops);
                if ring < 2 * p.fog1_to_fog2.0.as_micros() {
                    price(&[(p.fog1_neighbor, hops)], bytes)
                } else {
                    price(&[(p.fog1_to_fog2, 2)], bytes)
                }
            }
            AccessOption::Parent => price(&[(p.fog1_to_fog2, 1)], bytes),
            AccessOption::SiblingFog2 { hops } => {
                price(&[(p.fog1_to_fog2, 1), (p.fog2_sibling, hops.max(1))], bytes)
            }
            AccessOption::Cloud => price(&[(p.fog1_to_fog2, 1), (p.fog2_to_cloud, 1)], bytes),
        }
    }

    /// Estimated completion time of one fan-out leg shipping `bytes` of
    /// partial result to the gather fog-2 node.
    pub fn leg_cost(&self, path: FanoutPath, bytes: u64) -> Duration {
        let p = &self.profile;
        match path {
            FanoutPath::GatherLocal => Duration::ZERO,
            FanoutPath::SiblingFog2 { hops } => price(&[(p.fog2_sibling, hops.max(1))], bytes),
            FanoutPath::MemberFog1 { hops } => {
                price(&[(p.fog1_to_fog2, 1), (p.fog2_sibling, hops)], bytes)
            }
        }
    }

    /// Estimated completion time of a scatter-gather plan: the legs run
    /// concurrently (their cost is the *max*, not the sum), the gather
    /// node pays a merge and an admission overhead *per leg*, and the
    /// merged answer still has to travel the last fog-2 → fog-1 hop to
    /// the requester.
    pub fn scatter_cost(
        &self,
        legs: impl IntoIterator<Item = FanoutPath>,
        shard_bytes: u64,
        response_bytes: u64,
    ) -> Duration {
        let (slowest, count) = legs
            .into_iter()
            .fold((Duration::ZERO, 0), |(slowest, count), p| {
                (slowest.max(self.leg_cost(p, shard_bytes)), count + 1)
            });
        slowest + self.fanout_overhead(count) + self.cost(AccessOption::Parent, response_bytes)
    }

    /// The gather node's per-leg merge + admission overhead for a
    /// fan-out of `legs` legs.
    pub fn fanout_overhead(&self, legs: usize) -> Duration {
        Duration::from_micros((MERGE_PER_LEG_US + LEG_ADMISSION_US) * legs as u64)
    }

    /// Crossover analysis: the neighbor hop count above which going to the
    /// parent is cheaper, for a payload of `bytes`.
    pub fn neighbor_parent_crossover(&self, bytes: u64) -> u32 {
        let parent = self.cost(AccessOption::Parent, bytes);
        for hops in 1..=64 {
            if self.cost(AccessOption::Neighbor { hops }, bytes) > parent {
                return hops;
            }
        }
        64
    }
}

/// The round trip of a [`REQUEST_BYTES`] request and a `bytes` answer
/// over `route`.
fn price(route: &[(LinkClass, u32)], bytes: u64) -> Duration {
    let micros = route
        .iter()
        .map(|&((latency, bps), links)| {
            let link = citysim::Link::new(latency, bps.max(1));
            let ser = link.transfer_time(REQUEST_BYTES) + link.transfer_time(bytes);
            (2 * latency.as_micros() + ser.as_micros()) * u64::from(links)
        })
        .sum();
    Duration::from_micros(micros)
}

#[cfg(test)]
mod tests {
    use super::*;
    use citysim::barcelona::BarcelonaTopology;
    use citysim::time::SimTime;

    fn model() -> AccessCostModel {
        AccessCostModel::new(LatencyProfile::default())
    }

    #[test]
    fn local_beats_everything() {
        let m = model();
        for bytes in [0u64, 1_000, 1_000_000] {
            let local = m.cost(AccessOption::Local, bytes);
            for other in [
                AccessOption::Neighbor { hops: 1 },
                AccessOption::Parent,
                AccessOption::Cloud,
            ] {
                assert!(local < m.cost(other, bytes), "{other:?} at {bytes}B");
            }
        }
    }

    #[test]
    fn cloud_is_the_most_expensive_source() {
        let m = model();
        let cloud = m.cost(AccessOption::Cloud, 10_000);
        assert!(cloud > m.cost(AccessOption::Parent, 10_000));
        assert!(cloud > m.cost(AccessOption::Neighbor { hops: 1 }, 10_000));
    }

    #[test]
    fn near_neighbor_beats_parent_far_neighbor_does_not() {
        // Default profile: neighbor hop 3 ms, parent 5 ms one-way.
        let m = model();
        let near = m.cost(AccessOption::Neighbor { hops: 1 }, 1_000);
        let far = m.cost(AccessOption::Neighbor { hops: 4 }, 1_000);
        let parent = m.cost(AccessOption::Parent, 1_000);
        assert!(near < parent);
        assert!(far > parent);
    }

    #[test]
    fn crossover_is_at_two_hops_by_default() {
        // 1 hop: 3 ms < 5 ms. 2 hops: 6 ms > 5 ms.
        assert_eq!(model().neighbor_parent_crossover(1_000), 2);
    }

    #[test]
    fn cheapest_picks_minimum() {
        let m = model();
        let parent = m.cost(AccessOption::Parent, 1_000);
        assert!(parent < m.cost(AccessOption::Cloud, 1_000));
        assert!(parent < m.cost(AccessOption::Neighbor { hops: 2 }, 1_000));
    }

    #[test]
    fn payload_size_shifts_nothing_on_equal_bandwidth() {
        // All fog links share bandwidth in the default profile, so size
        // penalizes every option equally and ordering is stable.
        let m = model();
        let neighbor_wins = |bytes| {
            m.cost(AccessOption::Neighbor { hops: 1 }, bytes) < m.cost(AccessOption::Parent, bytes)
        };
        assert_eq!(neighbor_wins(100), neighbor_wins(100_000_000));
    }

    #[test]
    fn sibling_fog2_beats_the_cloud_at_any_ring_distance() {
        // The fog-2 metro ring has 10 nodes, so the worst lateral
        // distance is 5 hops; even that stays under the WAN round trip.
        let m = model();
        let cloud = m.cost(AccessOption::Cloud, 1_000);
        for hops in 1..=5 {
            let sibling = m.cost(AccessOption::SiblingFog2 { hops }, 1_000);
            assert!(sibling < cloud, "{hops} hops: {sibling} vs {cloud}");
            assert!(sibling > m.cost(AccessOption::Parent, 1_000));
        }
    }

    #[test]
    fn fog2_scatter_over_all_districts_beats_one_cloud_read() {
        // 10 fog-2 legs (one GatherLocal, the rest at ring distance
        // 1..=5) plus merge/admission overhead and the final parent
        // delivery still undercut a single cloud read: 40 ms worst leg +
        // 8 ms overhead + 10 ms delivery < 70 ms WAN round trip.
        let m = model();
        let legs: Vec<FanoutPath> = (0..10)
            .map(|d: u32| {
                if d == 0 {
                    FanoutPath::GatherLocal
                } else {
                    FanoutPath::SiblingFog2 {
                        hops: d.min(10 - d),
                    }
                }
            })
            .collect();
        let scatter = m.scatter_cost(legs, 1_024, 1_024);
        assert!(scatter < m.cost(AccessOption::Cloud, 1_024));
    }

    #[test]
    fn wide_fog1_scatter_loses_to_one_cloud_read() {
        // A 73-leg city-wide fan-out over fog-1 nodes pays per-leg
        // merge + admission; the single cloud read wins that contest.
        let m = model();
        let legs: Vec<FanoutPath> = (0..73)
            .map(|i: u32| FanoutPath::MemberFog1 {
                hops: (i % 10).min(10 - i % 10),
            })
            .collect();
        assert!(m.scatter_cost(legs, 1_024, 1_024) > m.cost(AccessOption::Cloud, 1_024));
    }

    #[test]
    fn leg_costs_order_by_path_length() {
        let m = model();
        assert_eq!(m.leg_cost(FanoutPath::GatherLocal, 4_096), Duration::ZERO);
        let near = m.leg_cost(FanoutPath::SiblingFog2 { hops: 1 }, 4_096);
        let far = m.leg_cost(FanoutPath::SiblingFog2 { hops: 5 }, 4_096);
        let member = m.leg_cost(FanoutPath::MemberFog1 { hops: 1 }, 4_096);
        assert!(near < far);
        assert!(member > near, "fog-1 legs add the uplink hop");
    }

    #[test]
    fn zero_hop_neighbor_is_clamped_to_one() {
        let m = model();
        assert_eq!(
            m.cost(AccessOption::Neighbor { hops: 0 }, 0),
            m.cost(AccessOption::Neighbor { hops: 1 }, 0)
        );
    }

    /// The planner's prices against the network they price: every
    /// `AccessOption` from each of the 73 sections and every `FanoutPath`
    /// to each gather district, at 0 B, 1 KB, 100 KB and 10 MB, on an idle
    /// `BarcelonaTopology`, with a [`REQUEST_BYTES`] request. Every route
    /// the network takes is priced exactly. `Local` and `LocalSketch` keep
    /// a stated price: they cross the consumer's access link, which the
    /// graph does not hold, so the network's self-read is free.
    #[test]
    fn prices_match_the_idle_network() {
        let mut topo = BarcelonaTopology::build(&LatencyProfile::default());
        let p = *topo.profile();
        let m = AccessCostModel::new(p);
        let us = |d: Duration| d.as_micros();
        let (fog1, fog2, cloud) = (
            topo.fog1_nodes().to_vec(),
            topo.fog2_nodes().to_vec(),
            topo.cloud(),
        );
        let members: Vec<Vec<usize>> = (0..fog2.len())
            .map(|d| topo.fog1_in_district(d).to_vec())
            .collect();
        let ring_hops = |a: usize, b: usize, n: usize| a.abs_diff(b).min(n - a.abs_diff(b)) as u32;
        for bytes in [0, 1_000, 100_000, 10_000_000] {
            let access = citysim::Link::new(Duration::ZERO, ACCESS_BPS);
            let ser = |b| us(access.transfer_time(b));
            let mut net = |from, to| {
                let reply = topo.network_mut().request_response(
                    from,
                    to,
                    REQUEST_BYTES,
                    bytes,
                    SimTime::ZERO,
                );
                us(reply.unwrap().arrival.since(SimTime::ZERO))
            };
            for (d, ring_of) in members.iter().enumerate() {
                for (at, &s) in ring_of.iter().enumerate() {
                    let here = fog1[s];
                    let cost = |option| us(m.cost(option, bytes));
                    assert_eq!(net(here, fog2[d]), cost(AccessOption::Parent));
                    assert_eq!(net(here, cloud), cost(AccessOption::Cloud));
                    for local in [AccessOption::Local, AccessOption::LocalSketch] {
                        assert_eq!(net(here, here), 0);
                        let edge_rtt = 2 * us(p.sensor_to_fog1);
                        assert_eq!(cost(local), edge_rtt + ser(REQUEST_BYTES) + ser(bytes));
                    }
                    for (to, &t) in ring_of.iter().enumerate().filter(|&(to, _)| to != at) {
                        let hops = ring_hops(at, to, ring_of.len());
                        let priced = cost(AccessOption::Neighbor { hops });
                        assert_eq!(net(here, fog1[t]), priced, "{s} -> {t} {bytes}");
                    }
                    for (e, &sibling) in fog2.iter().enumerate().filter(|&(e, _)| e != d) {
                        let hops = ring_hops(d, e, fog2.len());
                        let priced = cost(AccessOption::SiblingFog2 { hops });
                        assert_eq!(net(here, sibling), priced);
                    }
                    for (g, &gather) in fog2.iter().enumerate() {
                        let hops = ring_hops(d, g, fog2.len());
                        let priced = us(m.leg_cost(FanoutPath::MemberFog1 { hops }, bytes));
                        assert_eq!(net(gather, here), priced);
                    }
                }
            }
            for (g, &gather) in fog2.iter().enumerate() {
                let local = us(m.leg_cost(FanoutPath::GatherLocal, bytes));
                assert_eq!(net(gather, gather), local);
                for (e, &sibling) in fog2.iter().enumerate().filter(|&(e, _)| e != g) {
                    let hops = ring_hops(g, e, fog2.len());
                    let priced = us(m.leg_cost(FanoutPath::SiblingFog2 { hops }, bytes));
                    assert_eq!(net(gather, sibling), priced);
                }
            }
        }
        // A 10 MB cloud read stores and forwards at both hops and
        // carries its request: 150 000 µs priced at the bottleneck alone.
        let net = topo.network_mut();
        let reply = net.request_response(fog1[0], cloud, REQUEST_BYTES, 10_000_000, SimTime::ZERO);
        assert_eq!(us(m.cost(AccessOption::Cloud, 10_000_000)), 230_002);
        assert_eq!(us(reply.unwrap().arrival.since(SimTime::ZERO)), 230_002);
    }
}
