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

/// Modeled cost of merging one leg's partial result at the gather node
/// (fold of an `AggPartial`, or one heap round of the k-way merge).
pub(crate) const MERGE_PER_LEG_US: u64 = 300;

/// Modeled admission overhead per fan-out leg: every leg occupies an
/// in-flight slot at its layer, and the gather node pays dispatch +
/// completion bookkeeping for it. This is what lets a single cloud read
/// win against very wide fan-outs.
pub(crate) const LEG_ADMISSION_US: u64 = 500;

/// Cost model: request/response latency plus serialization of the payload
/// on the bottleneck link, per candidate source.
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
        let (one_way, bandwidth) = match option {
            AccessOption::Local | AccessOption::LocalSketch => {
                (self.profile.sensor_to_fog1, 1_000_000_000)
            }
            AccessOption::Neighbor { hops } => {
                let (lat, bw) = self.profile.fog1_neighbor;
                (
                    Duration::from_micros(lat.as_micros() * u64::from(hops.max(1))),
                    bw,
                )
            }
            AccessOption::Parent => self.profile.fog1_to_fog2,
            AccessOption::SiblingFog2 { hops } => {
                let (l1, bw1) = self.profile.fog1_to_fog2;
                let (l2, bw2) = self.profile.fog2_sibling;
                (
                    l1 + Duration::from_micros(l2.as_micros() * u64::from(hops.max(1))),
                    bw1.min(bw2),
                )
            }
            AccessOption::Cloud => {
                let (l1, bw1) = self.profile.fog1_to_fog2;
                let (l2, bw2) = self.profile.fog2_to_cloud;
                (l1 + l2, bw1.min(bw2))
            }
        };
        // Request there + response back + payload serialization.
        let rtt = Duration::from_micros(one_way.as_micros() * 2);
        let link = citysim::Link::new(Duration::ZERO, bandwidth.max(1));
        rtt + link.transfer_time(bytes)
    }

    /// Estimated completion time of one fan-out leg shipping `bytes` of
    /// partial result to the gather fog-2 node.
    pub fn leg_cost(&self, path: FanoutPath, bytes: u64) -> Duration {
        let (one_way, bandwidth) = match path {
            FanoutPath::GatherLocal => return Duration::ZERO,
            FanoutPath::SiblingFog2 { hops } => {
                let (lat, bw) = self.profile.fog2_sibling;
                (
                    Duration::from_micros(lat.as_micros() * u64::from(hops.max(1))),
                    bw,
                )
            }
            FanoutPath::MemberFog1 { hops } => {
                let (l1, bw1) = self.profile.fog1_to_fog2;
                let (l2, bw2) = self.profile.fog2_sibling;
                (
                    l1 + Duration::from_micros(l2.as_micros() * u64::from(hops)),
                    bw1.min(bw2),
                )
            }
        };
        let rtt = Duration::from_micros(one_way.as_micros() * 2);
        let link = citysim::Link::new(Duration::ZERO, bandwidth.max(1));
        rtt + link.transfer_time(bytes)
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
