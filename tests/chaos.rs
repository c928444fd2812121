//! Chaos-plane integration: injected faults (node crash windows,
//! flush-shipment loss at the gate, message loss on the uplinks, payload
//! and sketch corruption) degrade the hierarchy by *availability only*
//! — deferred turns, NACKed shipments that re-ship later, lost edge
//! ingest, punched coverage holes — and sketch anti-entropy heals every
//! hole once the fault clears. A shipment lands whole or not at all: it
//! commits at both ends exactly when the receiver ACKs it. The oracle
//! throughout: a chaos city fed the surviving stream converges to
//! byte-equal state with a fault-free control city fed the same stream,
//! and every degradation is attributable to an injected fault through
//! the incident timeline.

use f2c_smartcity::citysim::barcelona::{BarcelonaTopology, LatencyProfile};
use f2c_smartcity::citysim::net::FailurePlan;
use f2c_smartcity::core::{ChaosSite, F2cCity, IncidentKind, Parallelism};
use f2c_smartcity::sensors::{Reading, ReadingGenerator, SensorId, SensorType};

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
    assert!(chaos.cloud().sketches().holes_sorted().is_empty());
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
    for d in 0..chaos.district_count() {
        assert!(chaos.fog2(d).sketches().holes_sorted().is_empty());
    }
    assert!(chaos.cloud().sketches().holes_sorted().is_empty());
    assert_eq!(
        chaos.cloud().sketches().len(),
        control.cloud().sketches().len()
    );
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
fn corruption_punches_holes_and_anti_entropy_heals_them_in_the_same_wave() {
    let waves: Vec<(usize, u64)> = vec![(0, 100), (0, 500), (12, 300)];

    let mut chaos = F2cCity::barcelona().unwrap();
    let mut plan = FailurePlan::with_seed(7);
    plan.set_shipment_corruption(1.0);
    chaos.set_failures(plan);
    ingest_waves(&mut chaos, &waves, &[]);
    chaos.flush_all(900).unwrap();

    let summary = chaos.timeline().summary();
    assert!(
        summary.get("sketch-corrupted").copied().unwrap_or(0) > 0,
        "a certain corruption coin must fire on shipped sketches"
    );
    assert!(
        summary.get("hole-punched").copied().unwrap_or(0) > 0
            && summary.get("hole-healed").copied().unwrap_or(0) > 0,
        "punched holes must heal in the same wave's anti-entropy round"
    );
    for d in 0..chaos.district_count() {
        assert!(chaos.fog2(d).sketches().holes_sorted().is_empty());
        assert!(chaos
            .timeline()
            .unhealed_holes(ChaosSite::Fog2(d))
            .is_empty());
    }
    assert!(chaos.cloud().sketches().holes_sorted().is_empty());
    assert!(chaos.timeline().unhealed_holes(ChaosSite::Cloud).is_empty());

    // The healed ledgers are *byte-identical* to a fault-free control's:
    // healing replaces the damaged partial with the shipper's
    // authoritative fold, never a lossy reconstruction.
    let mut control = F2cCity::barcelona().unwrap();
    ingest_waves(&mut control, &waves, &[]);
    control.flush_all(900).unwrap();
    assert_eq!(
        chaos.cloud().sketches().len(),
        control.cloud().sketches().len()
    );
    for key in control.cloud().sketches().keys() {
        let (want, _) = control.cloud().sketches().entry(key).unwrap();
        let (got, _) = chaos
            .cloud()
            .sketches()
            .entry(key)
            .expect("healed ledger holds every control key");
        assert_eq!(
            got, want,
            "healed partial must equal the authoritative fold"
        );
    }
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
    assert_eq!(
        chaos.cloud().sketches().len(),
        control.cloud().sketches().len()
    );
    assert!(chaos.cloud().sketches().holes_sorted().is_empty());
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
        /// clears and healthy waves run, (a) every upper-tier ledger is
        /// hole-free, (b) stores and ledgers are byte-equal to a
        /// fault-free control fed the surviving stream, and (c) every
        /// deferred hop on the timeline is attributable to a fault that
        /// was actually active at that instant.
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
            // losses, the incident timeline, and (after healing below)
            // the archive and ledgers. Chaos and the sharded runtime
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

            // (c) Attribution, checked while the plan is still installed:
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
                    IncidentKind::SketchCorrupted { .. } => {
                        prop_assert!(corrupt_milli > 0);
                    }
                    IncidentKind::ShipmentCorrupted => {
                        prop_assert!(payload_milli > 0);
                    }
                    _ => {}
                }
            }

            // The storm clears; two healthy waves ship what was deferred
            // and anti-entropy re-ships over every hole — on both
            // replicas, which must heal to the same place.
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

            // (a) hole-free everywhere above fog 1.
            for d in 0..chaos.district_count() {
                prop_assert!(chaos.fog2(d).sketches().holes_sorted().is_empty());
            }
            prop_assert!(chaos.cloud().sketches().holes_sorted().is_empty());

            // (b) byte-equality with the fault-free control on the
            // surviving stream: same archive, same folds.
            let mut control = F2cCity::barcelona().unwrap();
            ingest_waves(&mut control, &waves, &lost);
            for t in [900, 1_800, 2_700, 3_600, 4_500] {
                control.flush_all(t).unwrap();
            }
            prop_assert_eq!(chaos.cloud().store().len(), control.cloud().store().len());
            prop_assert_eq!(chaos.cloud().sketches().len(), control.cloud().sketches().len());
            for key in control.cloud().sketches().keys() {
                let (want, _) = control.cloud().sketches().entry(key).unwrap();
                let got = chaos.cloud().sketches().entry(key);
                prop_assert!(got.is_some());
                prop_assert_eq!(got.unwrap().0, want);
            }
        }
    }
}
