//! Experiment E4: the §IV.D latency claims — real-time accesses at fog
//! layer 1 vs the centralized cloud (including the "two times data
//! transfer through the same path" effect), plus fault-tolerance under an
//! injected WAN outage.
//!
//! Reads are priced by the planner's `AccessCostModel`, which equals the
//! idle network on every route; the network itself carries only the
//! centralized upload and the outage.
//!
//! Run with `cargo run --release -p f2c-bench --bin latency`.
//! Exports the schema-versioned `BENCH_latency.json` of the
//! `export::LATENCY` row (override with `BENCH_OUT`), which CI diffs
//! against `bench/baseline_latency.json`: every value is a pure function
//! of the link profile, so the gate tolerates zero drift.

use citysim::barcelona::{BarcelonaTopology, LatencyProfile};
use citysim::time::SimTime;
use citysim::Histogram;
use f2c_bench::export;
use f2c_core::cost::{AccessCostModel, AccessOption, REQUEST_BYTES};
use f2c_obs::Json;

fn main() {
    println!("== E4: real-time access latency, F2C vs centralized ==\n");
    let mut city = BarcelonaTopology::build(&LatencyProfile::default());
    let model = AccessCostModel::new(*city.profile());
    let cloud = city.cloud();

    println!(
        "{:>10} {:>16} {:>18} {:>10}",
        "bytes", "F2C (fog-1)", "centralized", "speedup"
    );
    println!("{}", "-".repeat(60));
    let mut reads = Json::obj();
    for bytes in [100u64, 1_000, 10_000, 100_000, 1_000_000] {
        let fog = model.cost(AccessOption::Local, bytes);
        let mut centralized = Histogram::new();
        for section in 0..city.fog1_nodes().len() {
            // The datum is uploaded to the cloud first; the consumer then
            // reads it back over the same path and its access link.
            let fog1 = city.fog1_nodes()[section];
            let up = city
                .network_mut()
                .send(fog1, cloud, bytes, SimTime::ZERO)
                .expect("no failures injected");
            let read = model.cost(AccessOption::Cloud, bytes) + fog;
            centralized.record(up.arrival.since(SimTime::ZERO) + read);
        }
        let speedup = centralized.mean().as_secs_f64() / fog.as_secs_f64();
        println!(
            "{:>10} {:>16} {:>18} {:>9.1}x",
            bytes,
            fog.to_string(),
            centralized.mean().to_string(),
            speedup
        );
        assert!(
            speedup > 5.0,
            "fog must dominate ({speedup:.1}x at {bytes}B)"
        );
        reads.set(
            &bytes.to_string(),
            export::counts_json([
                ("f2c_us", fog.as_micros()),
                ("centralized_us", centralized.mean().as_micros()),
            ]),
        );
    }

    println!("\n== E4b: age-tiered access (local / fog-2 / cloud) ==\n");
    let local = model.cost(AccessOption::Local, 10_000);
    let recent = model.cost(AccessOption::Parent, 10_000);
    let historical = model.cost(AccessOption::Cloud, 10_000);
    println!("  real-time at fog-1 : {local}");
    println!("  recent at fog-2    : {recent}");
    println!("  historical (cloud) : {historical}");
    assert!(local < recent && recent < historical);

    println!("\n== E4c: fault tolerance — WAN outage, edge keeps serving ==\n");
    let mut city = BarcelonaTopology::build(&LatencyProfile::default());
    // Take down every fog2->cloud link for the first hour.
    let mut wan_links = Vec::new();
    for &f2 in city.fog2_nodes() {
        for &(peer, link) in city.network().topology().neighbors(f2) {
            if peer == cloud {
                wan_links.push(link);
            }
        }
    }
    let mut failures = citysim::net::FailurePlan::with_seed(1);
    for link in wan_links {
        failures.add_outage(link, SimTime::ZERO, SimTime::from_secs(3600));
    }
    city.network_mut().set_failures(failures);
    let (mut fog2_served, mut centralized_served) = (0u64, 0u64);
    let mut cloud_err = None;
    for section in 0..city.fog1_nodes().len() {
        let (fog1, parent) = (city.fog1_nodes()[section], city.parent_of(section));
        let net = city.network_mut();
        let read = net.request_response(fog1, parent, REQUEST_BYTES, 1_000, SimTime::ZERO);
        fog2_served += u64::from(read.is_ok());
        match net.send(fog1, cloud, 1_000, SimTime::ZERO) {
            Ok(_) => centralized_served += 1,
            Err(e) => cloud_err = Some(e.to_string()),
        }
    }
    println!(
        "  fog-1 real-time read during WAN outage: OK  ({})",
        model.cost(AccessOption::Local, 1_000)
    );
    println!("  fog-2 reads during WAN outage:          {fog2_served} of 73 sections served");
    println!("  centralized read during WAN outage:     {cloud_err:?}");
    assert!(fog2_served == 73 && centralized_served == 0);
    println!("\nFog-local reads survive the outage; centralized reads do not. SHAPE OK");

    println!("\n== E4d: device radio energy, centralized (3G) vs F2C (WiFi first hop) ==\n");
    use citysim::AccessTechnology;
    let daily = 8_583_503_168u64; // Table I generation
    let centralized = AccessTechnology::Cellular3g.transmit_energy_j(daily);
    let f2c = AccessTechnology::Wifi.transmit_energy_j(daily);
    println!(
        "  centralized fleet: {:.2} MJ/day over 3G   ({:.2} kWh)",
        centralized / 1e6,
        centralized / 3.6e6
    );
    println!(
        "  F2C fleet:         {:.2} MJ/day over WiFi ({:.2} kWh)  -> {:.0}x less device energy",
        f2c / 1e6,
        f2c / 3.6e6,
        centralized / f2c
    );
    assert!(centralized / f2c > 50.0);

    let mut doc = export::LATENCY.doc();
    doc.set("reads", reads);
    doc.set(
        "tiers",
        export::counts_json([
            ("local_us", local.as_micros()),
            ("recent_us", recent.as_micros()),
            ("historical_us", historical.as_micros()),
        ]),
    );
    doc.set(
        "outage",
        export::counts_json([
            ("fog2_served", fog2_served),
            ("centralized_served", centralized_served),
        ]),
    );
    doc.set(
        "energy",
        export::counts_json([
            ("centralized_j", centralized.round() as u64),
            ("f2c_j", f2c.round() as u64),
        ]),
    );
    let out_path = export::LATENCY.write(&doc).expect("bench export writes");
    println!(
        "\nexported the E4 latencies -> {out_path} ({} gated metrics; diff with \
         `cargo run -p f2c-bench --bin perf_gate -- {} {out_path}`)",
        export::LATENCY.rules.len(),
        export::LATENCY.baseline
    );
}
