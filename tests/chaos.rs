//! Chaos-plane integration: injected faults (node crash windows,
//! flush-shipment loss at the gate, message loss on the uplinks, payload
//! and sketch corruption) degrade the hierarchy by *availability only*
//! — deferred turns, NACKed shipments that re-ship later, lost edge
//! ingest. A shipment lands whole or not at all: it commits at both ends
//! exactly when the receiver ACKs it, and a damaged partial or payload
//! is a NACK. The oracle throughout: a chaos city fed the surviving
//! stream converges to byte-equal state with a fault-free control city
//! fed the same stream, and every degradation is attributable to an
//! injected fault through the incident timeline.

use f2c_smartcity::aggregate::sketch::SketchKey;
use f2c_smartcity::citysim::barcelona::{BarcelonaTopology, LatencyProfile};
use f2c_smartcity::citysim::net::FailurePlan;
use f2c_smartcity::compress::tsenc::StreamDecoder;
use f2c_smartcity::core::{ChaosSite, F2cCity, F2cNode, IncidentKind, Parallelism};
use f2c_smartcity::sensors::{wire, Reading, ReadingGenerator, SensorId, SensorType};

/// One deterministic sensor wave for a section at an instant.
fn wave(section: usize, t: u64) -> Vec<Reading> {
    let seed = (section as u64) * 1_000 + t;
    ReadingGenerator::for_population(SensorType::Traffic, 30, seed).wave(t)
}

/// Ingest the same pre-generated waves into a city, skipping the waves a
/// chaos run lost at a crashed edge node (`lost` holds `(section, t)`).
fn ingest_waves(city: &mut F2cCity, waves: &[(usize, u64)], lost: &[(usize, u64)]) {
    for &(section, t) in waves {
        if lost.contains(&(section, t)) {
            continue;
        }
        city.ingest(section, wave(section, t), t).expect("ingests");
    }
}

/// Sets message-loss probability `p` on every link of the flush uplinks
/// of `senders`: a fog-1 site's path to its fog 2, a fog-2 site's path
/// to the cloud.
fn set_uplink_loss(plan: &mut FailurePlan, senders: impl IntoIterator<Item = ChaosSite>, p: f64) {
    let topo = BarcelonaTopology::build(&LatencyProfile::default());
    for sender in senders {
        let (from, to) = match sender {
            ChaosSite::Fog1(s) => (topo.fog1_nodes()[s], topo.parent_of(s)),
            ChaosSite::Fog2(d) => (topo.fog2_nodes()[d], topo.cloud()),
            ChaosSite::Cloud => continue,
        };
        for &link in topo.network().path(from, to).expect("uplinks route") {
            plan.set_loss(link, p);
        }
    }
}

/// Every flush sender: the 73 fog-1 sites and the 10 fog-2 sites.
fn every_sender() -> impl Iterator<Item = ChaosSite> {
    (0..73)
        .map(ChaosSite::Fog1)
        .chain((0..10).map(ChaosSite::Fog2))
}

/// The cloud archive as a sorted `(section, sensor, timestamp)` list:
/// two archives holding the same readings compare equal.
fn cloud_readings(city: &F2cCity) -> Vec<(Option<u16>, SensorId, u64)> {
    let mut out: Vec<_> = city
        .cloud()
        .store()
        .archive()
        .iter()
        .map(|r| {
            let reading = r.reading();
            (
                r.descriptor().section(),
                reading.sensor(),
                reading.timestamp_s(),
            )
        })
        .collect();
    out.sort_unstable();
    out
}

/// A node's sketch ledger as its encoded partials in key order: two
/// ledgers holding the same folds compare equal, byte for byte.
fn ledger_bytes(node: &F2cNode) -> Vec<(SketchKey, Vec<u8>)> {
    let ledger = node.sketches();
    let mut out: Vec<_> = ledger
        .keys()
        .map(|key| (*key, ledger.entry(key).expect("resident key").0.encode()))
        .collect();
    out.sort_unstable();
    out
}

/// A node's store as the sorted `(section, wire text)` of its records:
/// two stores holding the same records compare equal, whatever order
/// they arrived in.
fn store_lines(node: &F2cNode) -> Vec<(Option<u16>, String)> {
    let mut out: Vec<_> = node
        .store()
        .archive()
        .iter()
        .map(|r| (r.descriptor().section(), wire::encode(r.reading())))
        .collect();
    out.sort_unstable();
    out
}

/// Every fog-2 node and the cloud, with their chaos sites.
fn upper_tiers(city: &F2cCity) -> impl Iterator<Item = (ChaosSite, &F2cNode)> {
    (0..city.district_count())
        .map(|d| (ChaosSite::Fog2(d), city.fog2(d)))
        .chain([(ChaosSite::Cloud, city.cloud())])
}

/// Asserts that every fog-2 node and the cloud hold the same records and
/// the same ledger folds and seal frontiers in `chaos` as in `control`.
fn assert_upper_tiers_equal(chaos: &F2cCity, control: &F2cCity) {
    for ((site, got), (_, want)) in upper_tiers(chaos).zip(upper_tiers(control)) {
        assert_eq!(store_lines(got), store_lines(want), "{site} store");
        assert_eq!(ledger_bytes(got), ledger_bytes(want), "{site} ledger");
        for section in 0..chaos.section_count() as u16 {
            assert_eq!(
                got.sketches().sealed_through(section),
                want.sketches().sealed_through(section),
                "{site} seal of section {section}"
            );
        }
    }
}

/// `sender`'s uplink loses every message during the 900 s wave only. A
/// chaos city and a fault-free control get the same Traffic wave into
/// every section before each of four flush waves, and every wave must
/// run `Ok`. After the lossy wave the chaos cloud holds exactly the
/// control's readings outside the sections `lossy` names; after each
/// healthy wave it holds exactly the control's.
fn one_lossy_wave(sender: ChaosSite, lossy: impl Fn(usize) -> bool) {
    let mut chaos = F2cCity::barcelona().unwrap();
    let mut control = F2cCity::barcelona().unwrap();
    for (k, t) in [900u64, 1_800, 2_700, 3_600].into_iter().enumerate() {
        let mut plan = FailurePlan::with_seed(7);
        if k == 0 {
            set_uplink_loss(&mut plan, [sender], 1.0);
        }
        chaos.set_failures(plan);
        for city in [&mut chaos, &mut control] {
            for section in 0..73 {
                city.ingest(section, wave(section, t - 800), t - 800)
                    .unwrap();
            }
            city.flush_all(t).unwrap();
        }
        let want: Vec<_> = cloud_readings(&control)
            .into_iter()
            .filter(|(section, _, _)| k > 0 || !lossy(usize::from(section.unwrap())))
            .collect();
        assert!(!want.is_empty());
        assert_eq!(cloud_readings(&chaos), want, "after the wave at {t} s");
    }
    let lost = chaos
        .timeline()
        .iter()
        .filter(|i| i.kind == IncidentKind::ShipmentLost)
        .count();
    assert_eq!(lost, 1, "one NACK, against {sender}");
    assert_upper_tiers_equal(&chaos, &control);
}

#[test]
fn a_shipment_lost_on_a_fog1_uplink_re_ships_and_its_siblings_land() {
    one_lossy_wave(ChaosSite::Fog1(0), |section| section == 0);
}

#[test]
fn a_shipment_lost_on_a_fog2_uplink_re_ships_and_the_other_districts_land() {
    let district0 = F2cCity::barcelona()
        .unwrap()
        .sections_in_district(0)
        .to_vec();
    one_lossy_wave(ChaosSite::Fog2(0), |section| district0.contains(&section));
}

#[test]
fn a_day_of_uplink_loss_delays_records_and_loses_none() {
    // 5 Traffic sensors per section, a wave every 900 s for a day,
    // with 20 % loss on every link of every flush uplink.
    let small = |section: usize, t: u64| {
        ReadingGenerator::for_population(SensorType::Traffic, 5, section as u64 * 1_000 + t).wave(t)
    };
    let mut chaos = F2cCity::barcelona().unwrap();
    let mut control = F2cCity::barcelona().unwrap();
    let mut plan = FailurePlan::with_seed(2_017);
    set_uplink_loss(&mut plan, every_sender(), 0.2);
    chaos.set_failures(plan);
    for t in (1..=97u64).map(|k| k * 900) {
        if t == 97 * 900 {
            chaos.set_failures(FailurePlan::none());
        }
        for city in [&mut chaos, &mut control] {
            for section in 0..73 {
                city.ingest(section, small(section, t - 450), t - 450)
                    .unwrap();
            }
            city.flush_all(t).unwrap();
        }
        if t == 900 * 48 {
            // Mid-storm the loss shows: the cloud lags the control.
            assert!(cloud_readings(&chaos).len() < cloud_readings(&control).len());
        }
    }
    let lost = chaos
        .timeline()
        .iter()
        .filter(|i| i.kind == IncidentKind::ShipmentLost)
        .count();
    assert!(lost > 100, "the storm NACKed only {lost} shipments");
    assert_eq!(cloud_readings(&chaos), cloud_readings(&control));
    assert_upper_tiers_equal(&chaos, &control);
}

#[test]
fn crashed_edge_node_loses_ingest_and_records_it() {
    let mut city = F2cCity::barcelona().unwrap();
    city.set_failures(FailurePlan::with_seed(7));
    city.inject_node_outage(ChaosSite::Fog1(3), 100, 200);

    let out = city.ingest(3, wave(3, 150), 150).unwrap();
    assert_eq!(out.offered, 30, "the wave was offered");
    assert_eq!(out.stored, 0, "a crashed node stores nothing");
    let lost: Vec<_> = city
        .timeline()
        .iter()
        .filter(|i| matches!(i.kind, IncidentKind::IngestLost { .. }))
        .collect();
    assert_eq!(lost.len(), 1);
    assert_eq!(lost[0].site, ChaosSite::Fog1(3));

    // Outside the window the same node ingests normally.
    let out = city.ingest(3, wave(3, 250), 250).unwrap();
    assert!(out.stored > 0, "recovered node stores again");
}

#[test]
fn crash_window_defers_the_flush_wave_then_catches_up_exactly() {
    let waves: Vec<(usize, u64)> = vec![(0, 100), (0, 500), (5, 100), (5, 500)];

    let mut chaos = F2cCity::barcelona().unwrap();
    chaos.set_failures(FailurePlan::with_seed(7));
    // Section 0's node is down across the first flush epoch only.
    chaos.inject_node_outage(ChaosSite::Fog1(0), 800, 1_000);
    ingest_waves(&mut chaos, &waves, &[]);

    chaos.flush_all(900).unwrap();
    let after_storm = chaos.cloud().store().len();
    let deferred: Vec<_> = chaos
        .timeline()
        .at_site(ChaosSite::Fog1(0))
        .filter(|i| i.kind == IncidentKind::NodeDown)
        .collect();
    assert_eq!(deferred.len(), 1, "the crashed hop skipped its turn");

    // Recovery: the next wave ships the deferred records; nothing lost.
    chaos.flush_all(1_800).unwrap();
    let mut control = F2cCity::barcelona().unwrap();
    ingest_waves(&mut control, &waves, &[]);
    control.flush_all(900).unwrap();
    control.flush_all(1_800).unwrap();

    assert!(after_storm < control.cloud().store().len());
    assert_eq!(
        chaos.cloud().store().len(),
        control.cloud().store().len(),
        "a deferred wave must catch up with zero record loss"
    );
    assert_eq!(
        chaos.cloud().sketches().len(),
        control.cloud().sketches().len()
    );
}

#[test]
fn a_corrupt_partial_on_a_fog1_uplink_lands_nothing_and_re_ships_in_step() {
    // The sketch coin damages one partial of every loaded fog-1
    // shipment; the payloads arrive intact. Each fog 2 refuses the
    // whole shipment before it verifies the payload, so its mirror
    // decoder stays where the sender's encoder rolls back to.
    let waves: Vec<(usize, u64)> = vec![(0, 100), (0, 500), (12, 300)];
    let mut chaos = F2cCity::barcelona().unwrap();
    chaos.set_capture_shipments(true);
    let mut plan = FailurePlan::with_seed(7);
    plan.set_shipment_corruption(1.0);
    chaos.set_failures(plan);
    ingest_waves(&mut chaos, &waves, &[]);
    chaos.flush_all(900).unwrap();

    let refused: Vec<_> = chaos.timeline().iter().map(|i| (i.site, i.kind)).collect();
    assert_eq!(
        refused,
        [
            (ChaosSite::Fog1(0), IncidentKind::ShipmentCorrupted),
            (ChaosSite::Fog1(12), IncidentKind::ShipmentCorrupted),
        ],
        "one NACK per loaded fog-1 shipment, and nothing else"
    );
    for (site, node) in upper_tiers(&chaos) {
        assert!(node.store().is_empty(), "{site} stored a refused record");
        assert!(
            node.sketches().is_empty(),
            "{site} folded a refused partial"
        );
    }
    let crc_failures: u64 = (0..chaos.district_count())
        .map(|d| chaos.fog2(d).sketches().crc_failures())
        .sum();
    assert_eq!(crc_failures, 2);
    assert!(chaos.shipment_log().is_empty(), "no payload was accepted");

    // The fault clears. The re-shipment lands, and each payload decodes
    // on a fresh decoder, to everything its section stored: neither end
    // of the stream kept anything of the refused one.
    chaos.set_failures(FailurePlan::none());
    chaos.flush_all(1_800).unwrap();
    let hop1: Vec<_> = chaos.shipment_log().iter().filter(|s| s.hop == 1).collect();
    assert_eq!(hop1.len(), 2);
    let key = |r: &Reading| {
        (
            r.timestamp_s(),
            r.sensor().sensor_type(),
            r.sensor().index(),
        )
    };
    for shipment in hop1 {
        let mut readings = StreamDecoder::new()
            .decode_batch(&shipment.payload)
            .unwrap();
        let fog1 = chaos.fog1(usize::from(shipment.origin)).store().archive();
        let mut stored: Vec<Reading> = fog1.iter().map(|r| r.reading().clone()).collect();
        readings.sort_by_key(key);
        stored.sort_by_key(key);
        assert_eq!(wire::encode_batch(&readings), wire::encode_batch(&stored));
    }
    let mut control = F2cCity::barcelona().unwrap();
    ingest_waves(&mut control, &waves, &[]);
    control.flush_all(900).unwrap();
    control.flush_all(1_800).unwrap();
    assert_upper_tiers_equal(&chaos, &control);
}

#[test]
fn a_corrupt_partial_on_a_fog2_uplink_re_ships_its_relay_once() {
    // The cloud is down for the first wave, so each loaded fog 2 holds
    // its relay. The second wave damages one partial of each relay (the
    // fog-1 shipments carry none, only seals), and the cloud NACKs it.
    // The third wave ships each relay once.
    let waves: Vec<(usize, u64)> = vec![(0, 100), (0, 500), (12, 300)];
    let mut chaos = F2cCity::barcelona().unwrap();
    chaos.set_failures(FailurePlan::with_seed(7));
    chaos.inject_node_outage(ChaosSite::Cloud, 800, 1_000);
    ingest_waves(&mut chaos, &waves, &[]);
    chaos.flush_all(900).unwrap();
    let mut plan = FailurePlan::with_seed(7);
    plan.set_shipment_corruption(1.0);
    chaos.set_failures(plan);
    chaos.flush_all(1_800).unwrap();

    let corrupted: Vec<_> = chaos
        .timeline()
        .iter()
        .filter(|i| i.kind == IncidentKind::ShipmentCorrupted)
        .map(|i| i.site)
        .collect();
    let districts = [0, 12].map(|s| ChaosSite::Fog2(chaos.district_of(s)));
    assert_eq!(corrupted, districts, "one NACK per loaded fog-2 relay");
    assert!(chaos.cloud().store().is_empty());
    assert!(chaos.cloud().sketches().is_empty());
    assert_eq!(chaos.cloud().sketches().crc_failures(), 2);

    chaos.set_failures(FailurePlan::none());
    chaos.flush_all(2_700).unwrap();
    let mut control = F2cCity::barcelona().unwrap();
    ingest_waves(&mut control, &waves, &[]);
    for t in [900, 1_800, 2_700] {
        control.flush_all(t).unwrap();
    }
    // Shipped once: as many folds and sketch-channel bytes as the
    // control's, and the same partials, bit for bit.
    assert_eq!(
        chaos.cloud().sketches().folds(),
        control.cloud().sketches().folds()
    );
    let sketch_bytes = |city: &F2cCity| {
        let snapshot = city.metrics().snapshot();
        snapshot
            .counters
            .into_iter()
            .filter(|(key, _)| key.starts_with("flush_sketch_bytes"))
            .collect::<Vec<_>>()
    };
    assert_eq!(sketch_bytes(&chaos), sketch_bytes(&control));
    assert_upper_tiers_equal(&chaos, &control);
}

#[test]
fn corrupted_payload_is_refused_by_its_crc_and_loses_nothing() {
    // A payload damaged in flight fails the receiver's CRC check, the
    // receiver NACKs it, and its sender takes the batch back: the
    // flush codec's cross-batch dictionary commits on neither side.
    // Once the fault clears, the refused records catch up byte-exactly.
    let waves: Vec<(usize, u64)> = vec![(0, 100), (0, 500), (5, 100), (12, 300)];

    let mut chaos = F2cCity::barcelona().unwrap();
    let mut plan = FailurePlan::with_seed(7);
    plan.set_payload_corruption(1.0);
    chaos.set_failures(plan);
    ingest_waves(&mut chaos, &waves, &[]);
    chaos.flush_all(900).unwrap();

    // A certain coin damages every loaded shipment; nothing reaches
    // the cloud.
    assert_eq!(
        chaos.cloud().store().len(),
        0,
        "refused shipments must not land"
    );
    let refused: Vec<_> = chaos
        .timeline()
        .iter()
        .filter(|i| i.kind == IncidentKind::ShipmentCorrupted)
        .map(|i| i.site)
        .collect();
    assert_eq!(
        refused,
        [ChaosSite::Fog1(0), ChaosSite::Fog1(5), ChaosSite::Fog1(12)],
        "each loaded fog-1 shipment is refused by its parent's CRC check"
    );
    for incident in chaos.timeline().iter() {
        assert_ne!(
            incident.kind,
            IncidentKind::ShipmentLost,
            "payload corruption must not masquerade as shipment loss"
        );
    }

    // The fault clears; the next wave ships everything that was held.
    chaos.set_failures(FailurePlan::none());
    chaos.flush_all(1_800).unwrap();
    let mut control = F2cCity::barcelona().unwrap();
    ingest_waves(&mut control, &waves, &[]);
    control.flush_all(900).unwrap();
    control.flush_all(1_800).unwrap();
    assert_eq!(
        cloud_readings(&chaos),
        cloud_readings(&control),
        "a refused shipment must catch up with zero record loss"
    );
    assert_eq!(
        chaos.cloud().sketches().len(),
        control.cloud().sketches().len()
    );
}

#[test]
fn district_crash_blocks_children_and_recovery_converges() {
    // Every section in district 2 keeps ingesting while its fog-2 is
    // down over two flush epochs; children's waves are FlushBlocked
    // (their uplink dead-ends at the crashed parent), then catch up.
    let sections = {
        let city = F2cCity::barcelona().unwrap();
        city.sections_in_district(2).to_vec()
    };
    let waves: Vec<(usize, u64)> = sections
        .iter()
        .flat_map(|&s| [(s, 200), (s, 1_100)])
        .collect();

    let mut chaos = F2cCity::barcelona().unwrap();
    chaos.set_failures(FailurePlan::with_seed(7));
    chaos.inject_node_outage(ChaosSite::Fog2(2), 800, 2_000);
    ingest_waves(&mut chaos, &waves, &[]);
    chaos.flush_all(900).unwrap();
    chaos.flush_all(1_800).unwrap();

    let blocked = chaos
        .timeline()
        .summary()
        .get("flush-blocked")
        .copied()
        .unwrap_or(0);
    assert!(
        blocked >= 2 * sections.len() as u64,
        "every child hop must report FlushBlocked per crashed epoch"
    );
    let down = chaos
        .timeline()
        .at_site(ChaosSite::Fog2(2))
        .filter(|i| i.kind == IncidentKind::NodeDown)
        .count();
    assert_eq!(down, 2, "the crashed fog-2's own uplink skipped both turns");

    chaos.flush_all(2_700).unwrap();
    let mut control = F2cCity::barcelona().unwrap();
    ingest_waves(&mut control, &waves, &[]);
    for t in [900, 1_800, 2_700] {
        control.flush_all(t).unwrap();
    }
    assert_eq!(chaos.cloud().store().len(), control.cloud().store().len());
    assert_upper_tiers_equal(&chaos, &control);
}

#[test]
fn fault_schedules_replay_deterministically() {
    let run = || {
        let mut city = F2cCity::barcelona().unwrap();
        let mut plan = FailurePlan::with_seed(2_017);
        plan.set_shipment_loss(0.3);
        plan.set_shipment_corruption(0.3);
        plan.set_payload_corruption(0.2);
        city.set_failures(plan);
        city.inject_node_outage(ChaosSite::Fog1(9), 700, 1_000);
        city.inject_node_outage(ChaosSite::Cloud, 1_700, 1_900);
        let waves: Vec<(usize, u64)> =
            vec![(9, 100), (9, 800), (30, 400), (30, 1_300), (60, 1_600)];
        ingest_waves(&mut city, &waves, &[(9, 800)]);
        for t in [900, 1_800, 2_700, 3_600] {
            city.flush_all(t).unwrap();
        }
        city
    };
    let (a, b, c) = (run(), run(), run());
    assert_eq!(
        a.timeline(),
        b.timeline(),
        "replica timelines must be identical"
    );
    assert_eq!(
        b.timeline(),
        c.timeline(),
        "replica timelines must be identical"
    );
    assert_eq!(a.cloud().store().len(), b.cloud().store().len());
    assert_eq!(a.cloud().sketches().len(), c.cloud().sketches().len());
}

mod oracle {
    use super::*;
    use proptest::prelude::*;

    /// Maps a generated code onto one of the 84 chaos sites.
    fn site_of(code: u8) -> ChaosSite {
        match code % 84 {
            c if c < 73 => ChaosSite::Fog1(c as usize),
            c if c < 83 => ChaosSite::Fog2((c - 73) as usize),
            _ => ChaosSite::Cloud,
        }
    }

    /// Runs one storm replica at `threads` worker threads: install the
    /// fault plan and crash windows, ingest the storm waves (tracking
    /// which ones a crashed edge lost), and run the three storm-epoch
    /// flush waves. The plan stays installed so attribution checks can
    /// still interrogate it.
    #[allow(clippy::too_many_arguments)]
    fn storm_city(
        threads: usize,
        seed: u64,
        loss_milli: u32,
        uplink_loss_milli: u32,
        corrupt_milli: u32,
        payload_milli: u32,
        outages: &[(u8, u64, u64)],
        waves: &[(usize, u64)],
    ) -> (F2cCity, Vec<(usize, u64)>) {
        let mut chaos = F2cCity::barcelona().unwrap();
        chaos.set_parallelism(Parallelism::new(threads));
        let mut plan = FailurePlan::with_seed(seed);
        plan.set_shipment_loss(f64::from(loss_milli) / 1_000.0);
        set_uplink_loss(
            &mut plan,
            every_sender(),
            f64::from(uplink_loss_milli) / 1_000.0,
        );
        plan.set_shipment_corruption(f64::from(corrupt_milli) / 1_000.0);
        plan.set_payload_corruption(f64::from(payload_milli) / 1_000.0);
        chaos.set_failures(plan);
        for &(code, from, len) in outages {
            chaos.inject_node_outage(site_of(code), from, from + len);
        }
        let mut lost = Vec::new();
        for &(section, t) in waves {
            let out = chaos.ingest(section, wave(section, t), t).unwrap();
            if out.stored == 0 && chaos.site_is_down(ChaosSite::Fog1(section), t) {
                lost.push((section, t));
            }
        }
        for t in [900, 1_800, 2_700] {
            chaos.flush_all(t).unwrap();
        }
        (chaos, lost)
    }

    /// A byte-stable rendering of a city's incident timeline.
    fn timeline_text(city: &F2cCity) -> String {
        let mut out = String::new();
        for incident in city.timeline().iter() {
            out.push_str(&format!(
                "t={} site={} kind={}\n",
                incident.at_s,
                incident.site,
                incident.kind.label()
            ));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The tentpole oracle: under any seeded fault schedule the
        /// hierarchy degrades by availability only. After the storm
        /// clears and healthy waves run, (a) fog-2 and cloud stores and
        /// ledgers are byte-equal to a fault-free control fed the
        /// surviving stream, and (b) every deferred or refused hop on
        /// the timeline is attributable to a fault that was actually
        /// active at that instant.
        #[test]
        fn chaos_degrades_availability_never_correctness(
            // A fault schedule: a seed for the shipment coins, loss
            // (at the gate, and per message on every flush uplink) and
            // corruption probabilities in milli-units, and up to three
            // crash windows inside the 3-epoch storm `[0, 2_700)`.
            seed in any::<u64>(),
            loss_milli in 0u32..=300,
            uplink_loss_milli in 0u32..=300,
            corrupt_milli in 0u32..=300,
            payload_milli in 0u32..=300,
            outages in proptest::collection::vec(
                (any::<u8>(), 0u64..2_400, 100u64..1_200),
                0..3,
            ),
        ) {
            let waves: Vec<(usize, u64)> = vec![
                (0, 100), (0, 1_000), (7, 400), (21, 700),
                (21, 1_600), (40, 1_300), (72, 2_200),
            ];

            // The storm runs on four worker threads; a single-thread
            // replica of the same storm must agree on every outcome —
            // losses, the incident timeline, and (after the healthy waves
            // below) the archive and ledgers. Chaos and the sharded runtime
            // must compose without perturbing each other.
            let fault = (seed, loss_milli, uplink_loss_milli, corrupt_milli, payload_milli);
            let storm = |threads| {
                let (seed, loss, uplink_loss, corrupt, payload) = fault;
                storm_city(threads, seed, loss, uplink_loss, corrupt, payload, &outages, &waves)
            };
            let (mut chaos, lost) = storm(4);
            let (mut chaos_seq, lost_seq) = storm(1);
            prop_assert_eq!(&lost, &lost_seq);
            prop_assert_eq!(timeline_text(&chaos), timeline_text(&chaos_seq));

            // (b) Attribution, checked while the plan is still installed:
            // every deferral names a fault that was live at that instant.
            for incident in chaos.timeline().iter() {
                match incident.kind {
                    IncidentKind::NodeDown | IncidentKind::IngestLost { .. } => {
                        prop_assert!(chaos.site_is_down(incident.site, incident.at_s));
                    }
                    // The gate's shipment coin, or a message lost on an
                    // uplink link.
                    IncidentKind::ShipmentLost => {
                        prop_assert!(loss_milli > 0 || uplink_loss_milli > 0);
                    }
                    // A damaged partial or payload.
                    IncidentKind::ShipmentCorrupted => {
                        prop_assert!(corrupt_milli > 0 || payload_milli > 0);
                    }
                    _ => {}
                }
            }

            // The storm clears; two healthy waves ship what was deferred
            // or refused — on both replicas, which must end in the same
            // place.
            chaos.set_failures(FailurePlan::none());
            chaos.flush_all(3_600).unwrap();
            chaos.flush_all(4_500).unwrap();
            chaos_seq.set_failures(FailurePlan::none());
            chaos_seq.flush_all(3_600).unwrap();
            chaos_seq.flush_all(4_500).unwrap();
            prop_assert_eq!(timeline_text(&chaos), timeline_text(&chaos_seq));
            prop_assert_eq!(chaos.cloud().store().len(), chaos_seq.cloud().store().len());
            prop_assert_eq!(
                chaos.cloud().sketches().len(),
                chaos_seq.cloud().sketches().len()
            );

            // (a) byte-equality with the fault-free control on the
            // surviving stream: same records, same folds, same seals,
            // at fog 2 and in the cloud.
            let mut control = F2cCity::barcelona().unwrap();
            ingest_waves(&mut control, &waves, &lost);
            for t in [900, 1_800, 2_700, 3_600, 4_500] {
                control.flush_all(t).unwrap();
            }
            assert_upper_tiers_equal(&chaos, &control);
        }
    }
}
