//! The routing-table oracle: a [`Network`] computes every route of its
//! topology once, and each table path must be exactly what a fresh
//! [`Topology::route`] search returns — tie-breaks included, because the
//! chosen links feed the traffic meters and the per-link loss-coin
//! sequences that the byte-identity oracles pin.

use f2c_smartcity::citysim::barcelona::{BarcelonaTopology, LatencyProfile};
use f2c_smartcity::citysim::net::FailurePlan;
use f2c_smartcity::citysim::{
    Duration, Error, Link, NetScratch, Network, NodeId, SimTime, Topology,
};
use proptest::prelude::*;

/// Asserts that `net`'s table agrees with a fresh search for the pair —
/// same links in the same order, or the same error.
fn assert_pair_agrees(net: &Network, from: NodeId, to: NodeId) {
    let searched = net.topology().route(from, to);
    let tabled = net.path(from, to).map(<[_]>::to_vec);
    assert_eq!(tabled, searched, "{from} -> {to}");
}

#[test]
fn barcelona_table_equals_a_fresh_search_for_every_ordered_pair() {
    let city = BarcelonaTopology::build(&LatencyProfile::default());
    let net = city.network();
    let n = net.topology().node_count() as u32;
    assert_eq!(n, 84);
    for from in (0..n).map(NodeId::from_raw) {
        for to in (0..n).map(NodeId::from_raw) {
            assert_pair_agrees(net, from, to);
            if from == to {
                assert_eq!(net.path(from, to).unwrap(), &[]);
            } else {
                assert!(!net.path(from, to).unwrap().is_empty());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random small graphs: latencies drawn from {0, 1, 2} ms so equal-cost
    /// alternatives are the norm, sparse enough that components stay
    /// disconnected. Every ordered pair — and ids one and two past the
    /// end — must agree on the path or on the error.
    #[test]
    fn table_equals_a_fresh_search_on_random_graphs(
        nodes in 1u32..12,
        edges in proptest::collection::vec((0u32..12, 0u32..12, 0u64..3), 0..24),
    ) {
        let mut topo = Topology::new();
        for i in 0..nodes {
            topo.add_node(format!("n{i}"));
        }
        for (a, b, ms) in edges {
            // Self links, duplicates and out-of-range endpoints are
            // rejected by the builder; what remains is the graph.
            let _ = topo.add_link(
                NodeId::from_raw(a),
                NodeId::from_raw(b),
                Link::new(Duration::from_millis(ms), 1_000_000_000),
            );
        }
        let net = Network::new(topo);
        for from in (0..nodes + 2).map(NodeId::from_raw) {
            for to in (0..nodes + 2).map(NodeId::from_raw) {
                let searched = net.topology().route(from, to);
                let tabled = net.path(from, to).map(<[_]>::to_vec);
                prop_assert_eq!(&tabled, &searched, "{} -> {}", from, to);
                if from.index() >= nodes as usize || to.index() >= nodes as usize {
                    prop_assert!(matches!(tabled, Err(Error::UnknownNode { .. })));
                }
            }
        }
    }
}

#[test]
fn outages_fail_the_fixed_path_hop_by_hop_and_never_reroute() {
    let mut city = BarcelonaTopology::build(&LatencyProfile::default());
    let from = city.fog1_nodes()[0];
    let cloud = city.cloud();
    let path = city.network().path(from, cloud).unwrap().to_vec();
    assert_eq!(path.len(), 2, "fog1 -> fog2 -> cloud");
    let (first, second) = (path[0], path[1]);

    // Take the WAN hop down for [10 s, 20 s). The metro ring still offers
    // a detour through a sibling fog-2's uplink; routing must not take it.
    let mut plan = FailurePlan::with_seed(3);
    plan.add_outage(second, SimTime::from_secs(10), SimTime::from_secs(20));
    city.network_mut().set_failures(plan);
    let net = city.network();
    assert_eq!(
        net.path(from, cloud).unwrap(),
        &path[..],
        "table is chaos-free"
    );
    assert_pair_agrees(net, from, cloud);

    let during = SimTime::from_secs(15);
    assert!(!net.path_is_up(from, cloud, during));
    assert!(net.path_is_up(from, cloud, SimTime::from_secs(5)));
    assert!(net.path_is_up(from, cloud, SimTime::from_secs(20)));

    let mut scratch = NetScratch::new();
    let (a, b) = net.topology().link_endpoints(second);
    let sent = net.send_scratch(&mut scratch, from, cloud, 700, during);
    assert!(
        matches!(sent, Err(Error::LinkDown { a: x, b: y, .. }) if (x, y) == (a, b)),
        "{sent:?}"
    );
    // The first hop carried the message before the second refused it.
    assert_eq!(scratch.message_count(), 1);
    city.network_mut().absorb_scratch(&mut scratch);
    let meter = city.network().meter();
    assert_eq!(meter.link_traffic(first).bytes, 700);
    assert_eq!(meter.link_traffic(second).bytes, 0);
    assert_eq!(meter.total_bytes(), 700);

    // The mutable send fails at the same hop and meters the same bytes.
    let sent = city.network_mut().send(from, cloud, 700, during);
    assert!(matches!(sent, Err(Error::LinkDown { .. })), "{sent:?}");
    let meter = city.network().meter();
    assert_eq!(meter.link_traffic(first).bytes, 1_400);
    assert_eq!(meter.total_bytes(), 1_400);

    // Outside the window the same two links carry it end to end.
    let ok = city
        .network_mut()
        .send(from, cloud, 100, SimTime::from_secs(20))
        .unwrap();
    assert_eq!(ok.hops, 2);
    assert_eq!(city.network().meter().link_traffic(second).bytes, 100);
}
