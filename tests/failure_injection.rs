//! Failure injection across crates: WAN outages and packet loss on the
//! Barcelona topology, exercising the paper's fault-tolerance claims
//! (§IV.D: shorter paths cross fewer failure domains).

use f2c_smartcity::citysim::barcelona::{BarcelonaTopology, LatencyProfile};
use f2c_smartcity::citysim::net::FailurePlan;
use f2c_smartcity::citysim::time::SimTime;
use f2c_smartcity::citysim::Error as NetError;
use f2c_smartcity::core::cost::{AccessCostModel, AccessOption, REQUEST_BYTES};

fn wan_outage_city(until_s: u64) -> BarcelonaTopology {
    let mut city = BarcelonaTopology::build(&LatencyProfile::default());
    let cloud = city.cloud();
    let mut links = Vec::new();
    for &f2 in city.fog2_nodes() {
        for &(peer, link) in city.network().topology().neighbors(f2) {
            if peer == cloud {
                links.push(link);
            }
        }
    }
    let mut plan = FailurePlan::with_seed(42);
    for link in links {
        plan.add_outage(link, SimTime::ZERO, SimTime::from_secs(until_s));
    }
    city.network_mut().set_failures(plan);
    city
}

#[test]
fn fog_reads_survive_a_total_wan_outage() {
    let mut city = wan_outage_city(3600);
    for section in [0usize, 20, 40, 72] {
        let (fog1, parent) = (city.fog1_nodes()[section], city.parent_of(section));
        let read =
            city.network_mut()
                .request_response(fog1, parent, REQUEST_BYTES, 1_000, SimTime::ZERO);
        assert!(read.unwrap().arrival > SimTime::ZERO);
    }
}

#[test]
fn centralized_reads_fail_during_the_outage() {
    let mut city = wan_outage_city(3600);
    let (fog1, cloud) = (city.fog1_nodes()[0], city.cloud());
    // A centralized read starts with the datum's upload, which cannot
    // leave the district.
    let err = city
        .network_mut()
        .send(fog1, cloud, 1_000, SimTime::ZERO)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("down"), "unexpected error: {msg}");
}

/// §IV.D's "two times data transfer through the same path": a
/// centralized real-time read uploads the datum to the cloud before the
/// consumer at the section can fetch it back. It takes more than ten
/// fog-local reads, and the payload crosses both WAN hops twice.
#[test]
fn a_centralized_read_pays_the_double_path_a_fog_read_skips() {
    let mut city = BarcelonaTopology::build(&LatencyProfile::default());
    let model = AccessCostModel::new(*city.profile());
    let (fog1, cloud) = (city.fog1_nodes()[0], city.cloud());
    let net = city.network_mut();
    let up = net.send(fog1, cloud, 1_000, SimTime::ZERO).unwrap();
    let read = net
        .request_response(fog1, cloud, REQUEST_BYTES, 1_000, up.arrival)
        .unwrap();
    let fog = model.cost(AccessOption::Local, 1_000);
    let centralized = read.arrival.since(SimTime::ZERO) + fog;
    assert!(
        centralized.as_micros() > 10 * fog.as_micros(),
        "fog {fog} vs centralized {centralized}"
    );
    assert_eq!(
        net.meter().total_bytes(),
        2 * (1_000 + REQUEST_BYTES + 1_000)
    );
}

#[test]
fn historical_reads_recover_after_the_outage_window() {
    let mut city = wan_outage_city(10);
    // The outage covers [0, 10); a send at t=10 succeeds.
    let fog1 = city.fog1_nodes()[0];
    let cloud = city.cloud();
    assert!(matches!(
        city.network_mut().send(fog1, cloud, 100, SimTime::ZERO),
        Err(NetError::LinkDown { .. })
    ));
    assert!(city
        .network_mut()
        .send(fog1, cloud, 100, SimTime::from_secs(10))
        .is_ok());
}

#[test]
fn packet_loss_drops_a_predictable_fraction() {
    let mut city = BarcelonaTopology::build(&LatencyProfile::default());
    // 20% loss on the first fog1->fog2 link.
    let f1 = city.fog1_nodes()[0];
    let (_, link) = city.network().topology().neighbors(f1)[0];
    let mut plan = FailurePlan::with_seed(9);
    plan.set_loss(link, 0.2);
    city.network_mut().set_failures(plan);

    let parent = city.parent_of(0);
    let mut lost = 0;
    for i in 0..1_000u64 {
        let t = SimTime::from_secs(i);
        if city.network_mut().send(f1, parent, 100, t).is_err() {
            lost += 1;
        }
    }
    assert!(
        (120..280).contains(&lost),
        "expected ~200/1000 losses, got {lost}"
    );
    // Lost messages still loaded the wire (they were metered).
    assert_eq!(city.network().meter().link_traffic(link).messages, 1_000);
}

#[test]
fn partial_outage_leaves_other_districts_reachable() {
    let mut city = BarcelonaTopology::build(&LatencyProfile::default());
    let cloud = city.cloud();
    // Take down only district 0's WAN link.
    let f2_0 = city.fog2_nodes()[0];
    let mut plan = FailurePlan::with_seed(1);
    for &(peer, link) in city.network().topology().neighbors(f2_0) {
        if peer == cloud {
            plan.add_outage(link, SimTime::ZERO, SimTime::from_secs(100));
        }
    }
    city.network_mut().set_failures(plan);

    // District 0's sections cannot reach the cloud...
    let d0_sections = city.fog1_in_district(0);
    let blocked = city.fog1_nodes()[d0_sections[0]];
    assert!(city
        .network_mut()
        .send(blocked, cloud, 10, SimTime::ZERO)
        .is_err());
    // ...but district 5's can.
    let d5_sections = city.fog1_in_district(5);
    let open = city.fog1_nodes()[d5_sections[0]];
    assert!(city
        .network_mut()
        .send(open, cloud, 10, SimTime::ZERO)
        .is_ok());
}
