//! Experiment E7: the §IV.C cost model — neighbor-fog vs parent-layer data
//! access, and placement decisions for the paper's motivating services.
//! Asserts the shape: a 1 KB read from the neighbor one ring hop away beats
//! the parent, and the three services land at fog 1, fog 2 and the cloud.
//!
//! Run with `cargo run --release -p f2c-bench --bin placement`.

use citysim::barcelona::LatencyProfile;
use citysim::time::Duration;
use f2c_core::cost::{AccessCostModel, AccessOption};
use f2c_core::placement::{AreaSpan, PlacementEngine, ServiceSpec};
use f2c_core::Layer;
use scc_dlc::AgeClass;

fn main() {
    let profile = LatencyProfile::default();
    let cost = AccessCostModel::new(profile);

    println!("== E7a: neighbor vs parent access cost (request completion) ==\n");
    println!(
        "{:>10} {:>14} {:>14} {:>14} {:>14}",
        "bytes", "neighbor x1", "neighbor x3", "parent", "cloud"
    );
    for bytes in [1_000u64, 100_000, 10_000_000] {
        println!(
            "{:>10} {:>14} {:>14} {:>14} {:>14}",
            bytes,
            cost.cost(AccessOption::Neighbor { hops: 1 }, bytes)
                .to_string(),
            cost.cost(AccessOption::Neighbor { hops: 3 }, bytes)
                .to_string(),
            cost.cost(AccessOption::Parent, bytes).to_string(),
            cost.cost(AccessOption::Cloud, bytes).to_string(),
        );
    }
    println!(
        "\ncrossover: neighbor loses to parent from {} ring hops (1 KB payloads)",
        cost.neighbor_parent_crossover(1_000)
    );
    assert!(
        cost.cost(AccessOption::Neighbor { hops: 1 }, 1_000)
            < cost.cost(AccessOption::Parent, 1_000),
        "a 1 KB read one ring hop away must beat the parent"
    );

    println!("\n== E7b: placement decisions (§IV.C) ==\n");
    let engine = PlacementEngine::new(profile);
    let services = [
        (
            "traffic-light control (critical RT)",
            ServiceSpec::realtime_critical(Duration::from_millis(10)),
            Layer::Fog1,
        ),
        (
            "district noise dashboard",
            ServiceSpec {
                compute_units: 50,
                data_span: AreaSpan::District,
                data_age: AgeClass::Recent,
                latency_bound: Some(Duration::from_millis(100)),
                access_bytes: 50_000,
            },
            Layer::Fog2,
        ),
        (
            "city-wide ML over history",
            ServiceSpec::deep_analytics(),
            Layer::Cloud,
        ),
    ];
    for (name, spec, expected) in services {
        match engine.place(&spec) {
            Ok(p) => {
                println!(
                    "  {:<38} -> {:<12} (access latency {})",
                    name,
                    p.layer.to_string(),
                    p.access_latency
                );
                assert_eq!(p.layer, expected, "{name} must land at {expected}");
            }
            Err(e) => panic!("{name} is unplaceable: {e}"),
        }
    }
    println!("\nCritical RT at fog-1, district scope at fog-2, deep analytics at cloud. SHAPE OK");
}
