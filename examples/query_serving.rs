//! Consumer query serving over the hierarchy: warm a small Barcelona
//! deployment, then ask it the kinds of questions city services ask — a
//! live point read at the edge, a district dashboard aggregate, a
//! sibling-district analytics scan over the fog-2 metro ring, and a
//! city-wide scatter-gather aggregate — and finish with a seeded
//! closed-loop mini-workload.
//!
//! Run with `cargo run --release --example query_serving`.

use f2c_smartcity::core::runtime::populate_city;
use f2c_smartcity::core::{F2cCity, Layer};
use f2c_smartcity::query::parallel;
use f2c_smartcity::query::workload::{ServiceClass, WorkloadConfig};
use f2c_smartcity::query::{
    EngineConfig, Outcome, Query, QueryAnswer, QueryEngine, QueryKind, Scope, Selector, TimeWindow,
};
use f2c_smartcity::sensors::{Category, SensorType};

fn show(label: &str, outcome: &Outcome) {
    match outcome {
        Outcome::Answered(resp) => {
            let summary = match &resp.answer {
                QueryAnswer::Point(Some(p)) => {
                    format!("latest value {:.2} at t={}s", p.value, p.created_s)
                }
                QueryAnswer::Point(None) => "no matching observation".to_owned(),
                QueryAnswer::Records(recs) => format!("{} records", recs.len()),
                QueryAnswer::Aggregate(a) => format!(
                    "count {} mean {:.2} from ~{} sensors",
                    a.count,
                    a.mean.unwrap_or(0.0),
                    a.distinct_sensors
                ),
            };
            println!(
                "{label:<28} {summary:<42} via {:?}, est {}",
                resp.via, resp.est_latency
            );
        }
        Outcome::Shed {
            layer,
            class,
            cause,
        } => println!("{label:<28} {class} shed at {layer} ({cause:?})"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One simulated hour of city data at 1/2000 population scale.
    let mut city = F2cCity::barcelona()?;
    let warm = populate_city(&mut city, 2_000, 42, 3_600, 900)?;
    println!(
        "warmed: {} readings -> {} records at the cloud\n",
        warm.offered,
        city.cloud().store().len()
    );

    let mut engine = QueryEngine::new(city, EngineConfig::default());
    engine.flush_all(3_600)?;
    let now = 3_700;
    // Scaled-down populations are hash-spread across all 73 sections, so
    // any consumer section works; the demo lives in section 3 (Ciutat
    // Vella, district 0).
    let origin = 3;
    let district = engine.city().district_of(origin);

    // A live read served by the consumer's own fog-1 node.
    let live = Query {
        origin,
        class: ServiceClass::RealTime,
        selector: Selector::Type(SensorType::ElectricityMeter),
        scope: Scope::Section(origin),
        window: TimeWindow::new(0, now),
        kind: QueryKind::Point,
    };
    show("live meter @ section 3", &engine.serve_sync(&live, now)?);

    // A district dashboard aggregate — fog 2 is the cheapest complete
    // source; repeating it hits the edge cache.
    let dashboard = Query {
        origin,
        class: ServiceClass::Dashboard,
        selector: Selector::Category(Category::Energy),
        scope: Scope::District(district),
        window: TimeWindow::new(0, 3_600),
        kind: QueryKind::Aggregate,
    };
    show(
        "energy dashboard (cold)",
        &engine.serve_sync(&dashboard, now)?,
    );
    show(
        "energy dashboard (repeat)",
        &engine.serve_sync(&dashboard, now + 1)?,
    );

    // Analytics over another district: the sibling fog-2 that provably
    // holds the window serves it over the metro ring — not the cloud.
    let analytics = Query {
        origin,
        class: ServiceClass::Analytics,
        selector: Selector::Category(Category::Energy),
        scope: Scope::District(district + 2),
        window: TimeWindow::new(0, 3_600),
        kind: QueryKind::Aggregate,
    };
    show(
        "energy analytics (far)",
        &engine.serve_sync(&analytics, now)?,
    );

    // A city-wide panel: no single fog node holds it, so the planner
    // fans out over the ten district fog-2 nodes, merges the partials at
    // the requester's fog-2, and beats the single-source cloud read.
    let citywide = Query {
        origin,
        class: ServiceClass::CityWide,
        selector: Selector::Category(Category::Urban),
        scope: Scope::City,
        window: TimeWindow::new(0, 3_600),
        kind: QueryKind::Aggregate,
    };
    show("urban city-wide panel", &engine.serve_sync(&citywide, now)?);

    // A seeded closed-loop mini-workload over the same engine.
    let report = parallel::run(
        &mut engine,
        &WorkloadConfig {
            seed: 42,
            requests: 5_000,
            users: 48,
            start_s: now,
            ..WorkloadConfig::default()
        },
    )?;
    println!(
        "\nworkload: {} requests -> {} answered ({:.0}% cache hits), \
         {} shed, {} unanswerable",
        report.issued,
        report.answered,
        report.cache_hit_rate() * 100.0,
        report.shed,
        report.unanswerable
    );
    for layer in Layer::ALL {
        let h = report.layer_hist(layer);
        if h.count() > 0 {
            println!(
                "  {layer:<12} {:>6} served, p50 {}, p99 {}",
                h.count(),
                h.quantile(0.5),
                h.quantile(0.99)
            );
        }
    }
    // Per-class QoS: shed rates and deadline-budget attainment.
    for class in ServiceClass::ALL {
        let stats = report.class_stats(class);
        if stats.requests > 0 {
            println!(
                "  {class:<12} {:>6} issued, shed rate {:.1}%, SLO attainment {:.1}%",
                stats.requests,
                stats.shed_rate() * 100.0,
                stats.slo_attainment() * 100.0
            );
        }
    }
    Ok(())
}
