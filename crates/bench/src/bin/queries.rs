//! Experiment E7: consumer query serving over the F2C hierarchy — a
//! seeded ≥1M-request closed-loop workload (dashboard / analytics /
//! real-time / city-wide mix under a diurnal load curve) against a
//! warmed Barcelona deployment, reporting per-layer and per-class
//! latency percentiles, per-class shed rates and SLO attainment,
//! scatter-gather percentiles and fan-out-vs-cloud win rates, cache hit
//! rates and admission sheds; then a flash-crowd scenario proving the
//! QoS promise (an analytics burst sheds analytics, never a real-time
//! read); a warm-vs-cold serving microbenchmark; and a chaos scenario
//! (seeded crash windows + flush-shipment loss/corruption under live
//! load) proving faults degrade availability, never correctness, and
//! that sketch anti-entropy heals every punched hole after the storm.
//!
//! Run with `cargo run --release -p f2c-bench --bin queries`.
//! Set `E7_REQUESTS` (e.g. `E7_REQUESTS=50000`) to shrink the main run
//! for CI smoke coverage.

use std::time::Instant;

use citysim::net::FailurePlan;
use citysim::Histogram;
use f2c_bench::export;
use f2c_core::runtime::populate_city;
use f2c_core::{ChaosSite, F2cCity, Layer, Parallelism};
use f2c_obs::{Json, Labels, MetricsRegistry};
use f2c_query::parallel;
use f2c_query::workload::{DiurnalCurve, FlashCrowd, Mix, ServiceClass, WorkloadConfig};
use f2c_query::{
    layer_label, EngineConfig, LayerCaps, Outcome, Query, QueryEngine, QueryKind, Scope, Selector,
    TimeWindow, WorkloadReport,
};
use scc_sensors::Category;

const WARMUP_SCALE: u64 = 2_000;
const WARMUP_HORIZON_S: u64 = 4 * 3_600;
const DEFAULT_REQUESTS: u64 = 1_000_000;

fn requested_load() -> u64 {
    std::env::var("E7_REQUESTS")
        .ok()
        .map(|s| {
            s.parse()
                .expect("E7_REQUESTS must be a positive request count")
        })
        .unwrap_or(DEFAULT_REQUESTS)
}

/// The `query_latency_us{service=query,…}` series `labels` narrows to:
/// a workload run registers every one in its city's registry.
fn latency(metrics: &MetricsRegistry, labels: impl Fn(Labels) -> Labels) -> &Histogram {
    let labels = labels(Labels::new().service("query"));
    metrics
        .histogram_named("query_latency_us", labels)
        .expect("a workload run registers every latency series")
}

fn print_class_table(report: &WorkloadReport, metrics: &MetricsRegistry) {
    println!(
        "\n{:<10} {:>8} {:>9} {:>6} {:>8} {:>8} {:>7} {:>6} {:>12} {:>12}",
        "class", "issued", "answered", "shed", "dl-shed", "reroute", "shed%", "SLO%", "p50", "p99"
    );
    println!("{}", "-".repeat(94));
    for class in ServiceClass::ALL {
        let stats = report.class_stats(class);
        if stats.requests == 0 {
            continue;
        }
        let h = latency(metrics, |q| q.class(class.label()));
        println!(
            "{:<10} {:>8} {:>9} {:>6} {:>8} {:>8} {:>6.2}% {:>5.1}% {:>12} {:>12}",
            class.label(),
            stats.requests,
            stats.answered,
            stats.shed,
            stats.deadline_shed,
            stats.rerouted,
            stats.shed_rate() * 100.0,
            stats.slo_attainment() * 100.0,
            h.quantile(0.5).to_string(),
            h.quantile(0.99).to_string()
        );
    }
}

fn main() {
    let requests = requested_load();
    println!("== E7: closed-loop query serving over the F2C hierarchy ==\n");

    // --- warm-up: event-driven ingest day slice ------------------------
    let t = Instant::now();
    let mut city = F2cCity::barcelona().expect("barcelona deployment builds");
    let warm =
        populate_city(&mut city, WARMUP_SCALE, 2017, WARMUP_HORIZON_S, 900).expect("warm-up runs");
    println!(
        "warm-up: {} readings -> {} records over {} simulated hours \
         ({} flushes) in {:.2?}",
        warm.offered,
        warm.stored,
        WARMUP_HORIZON_S / 3_600,
        warm.flushes,
        t.elapsed()
    );

    // --- serving: the closed-loop main run ------------------------------
    // Fog-2 capacity must absorb fan-out pressure: one city-wide
    // scatter-gather holds a slot per district leg, and the QoS policy
    // carves every cap into per-class guarantees plus borrowable
    // headroom (e.g. city-wide panels are guaranteed 20% of fog 2 and
    // may borrow more, while analytics borrowing can never touch the
    // real-time guarantee). One deliberate consequence shows up in the
    // class table: a city-wide *live* probe over an unsettled window
    // fans out over all 73 fog-1 nodes, which exceeds the city-wide
    // fog-1 allowance — the quota refuses the mega-fan-out instead of
    // letting it crowd the edge layer real-time reads run on.
    let cfg = EngineConfig {
        caps: LayerCaps {
            fog1: 256,
            fog2: 64,
            cloud: 2,
        },
        ..EngineConfig::default()
    };
    // The main run rides the district-sharded runtime at the PARALLELISM
    // knob (default: available cores). The run is byte-identical at any
    // thread count — the self-check below proves it on this build — so
    // every gated metric is the same whether CI has 1 core or 16.
    let threads = Parallelism::from_env();
    city.set_parallelism(threads);
    let mut engine = QueryEngine::new(city, cfg);
    let config = WorkloadConfig {
        seed: 2017,
        requests,
        users: 600,
        mix: Mix {
            dashboard: 40,
            analytics: 10,
            realtime: 40,
            city: 10,
        },
        start_s: WARMUP_HORIZON_S,
        flush_period_s: 900,
        ingest_period_s: 300,
        ingest_scale: WARMUP_SCALE,
        // A compressed two-hour "day": the run starts at the peak,
        // sweeps down to the 0.5× off-peak trough and back (§IV.D).
        diurnal: Some(DiurnalCurve {
            period_s: 7_200,
            trough_milli: 500,
            peak_milli: 1_800,
            peak_at_s: 0,
        }),
        flash_crowds: [None; 4],
        record_transcript: false,
    };
    let t = Instant::now();
    let report = parallel::run(&mut engine, &config).expect("workload runs");
    let wall = t.elapsed();

    println!(
        "\nworkload: {} requests from {} users over {} simulated seconds \
         on {} worker thread(s) in {:.2?} ({:.0} req/s wall)",
        report.issued,
        config.users,
        report.sim_end_s - config.start_s,
        threads.get(),
        wall,
        report.issued as f64 / wall.as_secs_f64()
    );
    println!(
        "transcript hash: {:#018x} (seeded replays reproduce it)\n",
        report.transcript_hash
    );

    println!(
        "{:<12} {:>9} {:>14} {:>14}",
        "layer", "served", "p50 latency", "p99 latency"
    );
    println!("{}", "-".repeat(52));
    let metrics = engine.city().metrics();
    for layer in Layer::ALL {
        let h = latency(metrics, |q| q.layer(layer_label(layer)));
        if h.count() == 0 {
            continue;
        }
        println!(
            "{:<12} {:>9} {:>14} {:>14}",
            format!("{layer}"),
            h.count(),
            h.quantile(0.5).to_string(),
            h.quantile(0.99).to_string()
        );
    }

    let scatter = latency(metrics, |q| q.kind("scatter"));
    if scatter.count() > 0 {
        println!(
            "{:<12} {:>9} {:>14} {:>14}",
            "scatter",
            scatter.count(),
            scatter.quantile(0.5).to_string(),
            scatter.quantile(0.99).to_string()
        );
    }

    print_class_table(&report, metrics);

    let stats = &report.stats;
    println!(
        "\nanswered {} | edge hits {} | source hits {} | store served {} \
         | cache hit rate {:.1}%",
        report.answered,
        stats.edge_hits,
        stats.source_hits,
        stats.store_served,
        report.cache_hit_rate() * 100.0
    );
    println!(
        "scatter-gather: {} served over {} legs ({:.1} legs/query) | \
         contested routes: fan-out {} / cloud {} ({:.1}% fan-out wins)",
        stats.scatter_served,
        stats.scatter_legs,
        stats.scatter_legs as f64 / stats.scatter_served.max(1) as f64,
        stats.scatter_wins,
        stats.cloud_wins,
        100.0 * stats.scatter_wins as f64 / (stats.scatter_wins + stats.cloud_wins).max(1) as f64
    );
    println!(
        "shed: fog1 {} / fog2 {} / cloud {} (capacity {}) | deadline {} \
         | unanswerable {}",
        stats.shed[0],
        stats.shed[1],
        stats.shed[2],
        stats.shed_total(),
        stats.deadline_shed_total(),
        stats.unanswerable
    );
    println!(
        "scans: {} records visited | partial cache: {} hits / {} fills",
        stats.records_scanned, stats.partial_hits, stats.partial_fills
    );
    // Sketch plane, read side: of the buckets the partial cache missed
    // during the run, how many were assembled from flush-shipped
    // pre-folded partials instead of scanned (both counters are
    // run-scoped deltas).
    let cold_buckets = stats.prefold_hits + stats.partial_fills;
    println!(
        "sketch plane: {} buckets prefolded from flush-shipped partials \
         / {} scanned ({:.1}% sketch hit rate on cold buckets)",
        stats.prefold_hits,
        stats.partial_fills,
        100.0 * stats.prefold_hits as f64 / cold_buckets.max(1) as f64
    );
    // Sketch plane, write side: the sketch channel's cost next to the
    // raw stream it summarizes.
    let (raw1, raw2) = engine.city().raw_flush_bytes();
    let (sk1, sk2) = engine.city().sketch_flush_bytes();
    let (raw, sk) = (raw1 + raw2, sk1 + sk2);
    println!(
        "flush shipping: raw {:.2} MB + sketches {:.2} MB — the aggregate \
         plane rides at {:.1}x fewer bytes than the raw stream it \
         summarizes (constant-size partials: the gap widens with sensor \
         density; Table-I full scale is 2000x this population)",
        raw as f64 / 1e6,
        sk as f64 / 1e6,
        raw as f64 / sk.max(1) as f64
    );
    let (up1, up2) = engine.city().uplink_flush_bytes();
    println!(
        "flush codec: uplink carried {:.2} MB encoded ({:.1}x under the \
         {:.2} MB accounting stream — tsenc columnar shipping on both hops)",
        (up1 + up2) as f64 / 1e6,
        raw as f64 / (up1 + up2).max(1) as f64,
        raw as f64 / 1e6
    );
    assert!(
        up1 + up2 > 0 && up1 + up2 < raw,
        "the encoded uplink must ship, and ship under the accounting bytes"
    );
    assert!(
        stats.prefold_hits > 0,
        "settled buckets must assemble from the flush-shipped ledger"
    );
    assert!(
        sk > 0 && sk < raw,
        "the sketch channel must ship, and ship far less than raw ({sk} vs {raw})"
    );

    assert!(report.issued >= requests, "must push the requested load");
    assert!(
        report.answered as f64 >= 0.9 * report.issued as f64,
        "a warm hierarchy answers the overwhelming majority"
    );
    assert!(
        report.cache_hit_rate() > 0.10,
        "dashboards must produce real cache traffic"
    );
    assert!(
        stats.scatter_served > 0 && scatter.count() == stats.scatter_served,
        "the city-wide mix must exercise scatter-gather with recorded latencies"
    );
    assert!(
        stats.scatter_wins > 0,
        "settled city windows must put the fog-2 fan-out ahead of the cloud read"
    );
    assert_eq!(
        report.class_stats(ServiceClass::RealTime).shed,
        0,
        "the steady mix must never shed a real-time read"
    );

    // --- parallel conformance: threads cannot change a single byte ------
    // Two fresh replicas of a smaller closed loop, one on a single
    // worker thread and one on four, must produce byte-identical
    // transcripts (the full-artifact oracle lives in tests/parallel.rs;
    // this proves it on the release build CI actually benches). The
    // 1-CPU CI runner cannot observe wall-clock speedup, so the export
    // below carries threads + wall time as ungated info fields instead
    // of asserting a ratio.
    println!("\n== parallel conformance: thread count must not change bytes ==");
    let self_check = |threads: usize| {
        let mut sc_city = F2cCity::barcelona().expect("city builds");
        sc_city.set_parallelism(Parallelism::new(threads));
        populate_city(&mut sc_city, 20_000, 2017, 3_600, 900).expect("warm-up runs");
        let mut sc_engine = QueryEngine::new(sc_city, EngineConfig::default());
        let sc_config = WorkloadConfig {
            seed: 2017,
            requests: 10_000,
            users: 48,
            start_s: 3_600,
            flush_period_s: 300,
            ingest_period_s: 300,
            ingest_scale: 20_000,
            record_transcript: true,
            ..WorkloadConfig::default()
        };
        let r = parallel::run(&mut sc_engine, &sc_config).expect("self-check runs");
        (r.transcript, r.transcript_hash)
    };
    let t = Instant::now();
    let (bytes_seq, selfcheck_hash) = self_check(1);
    let (bytes_par, hash_par) = self_check(4);
    assert_eq!(
        selfcheck_hash, hash_par,
        "transcript hashes diverge across thread counts"
    );
    assert_eq!(
        bytes_seq, bytes_par,
        "transcripts diverge across thread counts"
    );
    println!(
        "10k-request self-check: threads=1 and threads=4 agree byte-for-byte \
         (hash {selfcheck_hash:#018x}) in {:.2?}. SHAPE OK",
        t.elapsed()
    );

    // --- flash crowd: the QoS promise under a deliberate overload -------
    // A fresh, tightly-capped engine (result caches disabled so the
    // burst's aggregates cannot hide behind cache hits, which bypass
    // admission) takes a 300-user analytics stampede. The analytics
    // quota saturates and sheds *during the burst window* while the
    // real-time guarantee keeps every live read flowing — the
    // "never shed a real-time read while analytics holds borrowed
    // slots" invariant, demonstrated at the same instant. About half the
    // stampede sheds, not nearly all of it: the loop admits per district
    // shard, and while the 64 fog-1 slots partition across the ten
    // shards, the 8 fog-2 / 4 cloud slots analytics aggregates compete
    // for replicate per shard (a fan-out needs one per leg), so the city
    // as a whole admits up to ten times those caps.
    println!("\n== flash crowd: analytics stampede vs the real-time guarantee ==");
    let mut crowd_city = F2cCity::barcelona().expect("city builds");
    populate_city(&mut crowd_city, 20_000, 2017, 3_600, 900).expect("warm-up runs");
    let crowd_cfg = EngineConfig {
        result_ttl_s: 0,
        caps: LayerCaps {
            fog1: 64,
            fog2: 8,
            cloud: 4,
        },
        ..EngineConfig::default()
    };
    let mut crowd_engine = QueryEngine::new(crowd_city, crowd_cfg);
    let mut crowd_config = WorkloadConfig {
        seed: 2017,
        requests: 30_000,
        users: 64,
        start_s: 3_600,
        ingest_scale: 20_000,
        ..WorkloadConfig::default()
    };
    crowd_config.flash_crowds[0] = Some(FlashCrowd {
        class: ServiceClass::Analytics,
        start_s: 3_660,
        duration_s: 120,
        users: 300,
        think_divisor: 32,
    });
    let t = Instant::now();
    let crowd_report = parallel::run(&mut crowd_engine, &crowd_config).expect("burst runs");
    println!(
        "burst workload: {} requests in {:.2?}",
        crowd_report.issued,
        t.elapsed()
    );
    print_class_table(&crowd_report, crowd_engine.city().metrics());
    let analytics = crowd_report.class_stats(ServiceClass::Analytics);
    let realtime = crowd_report.class_stats(ServiceClass::RealTime);
    println!(
        "\nduring the burst window: analytics shed {} of {} issued \
         ({:.1}% shed rate) while real-time shed {} of {}",
        crowd_report.flash_shed(ServiceClass::Analytics),
        analytics.requests,
        analytics.shed_rate() * 100.0,
        realtime.shed,
        realtime.requests,
    );
    assert!(
        crowd_report.flash_shed(ServiceClass::Analytics) > 0,
        "the stampede must overrun the analytics quota"
    );
    assert_eq!(
        realtime.shed, 0,
        "the real-time guarantee must hold through the stampede"
    );
    assert!(
        realtime.requests > 0 && realtime.answered > 0,
        "real-time reads keep flowing during the burst"
    );
    println!("-> analytics sheds, the real-time guarantee holds. SHAPE OK");

    // --- warm vs cold: the cache pays for itself ------------------------
    // The probe aggregates a whole category over a district, so the
    // hash-spread scaled-down population guarantees a non-trivial record
    // set. The probe's window must be *closed* (end at or before the
    // serve instant) to be result-cacheable, so it ends at the settling
    // flush.
    let now = report.sim_end_s + 900;
    engine.flush_all(now).expect("flush to invalidate caches");
    let district = engine.city().district_of(3);
    let probe = Query {
        origin: 3,
        class: ServiceClass::Dashboard,
        selector: Selector::Category(Category::Energy),
        scope: Scope::District(district),
        window: TimeWindow::new(0, engine.last_flush_s()),
        kind: QueryKind::Aggregate,
    };
    let serve = |engine: &mut QueryEngine, at: u64| {
        let t = Instant::now();
        let outcome = engine.serve_sync(&probe, at).expect("probe serves");
        let wall = t.elapsed();
        match outcome {
            Outcome::Answered(resp) => (resp, wall),
            Outcome::Shed {
                layer,
                class,
                cause,
            } => {
                panic!("probe ({class}) shed at {layer}: {cause:?}")
            }
        }
    };
    let (cold, cold_wall) = serve(&mut engine, now + 1);
    let (hot, hot_wall) = serve(&mut engine, now + 2);
    println!(
        "\nwarm vs cold ({} records aggregated):",
        match &cold.answer {
            f2c_query::QueryAnswer::Aggregate(a) => a.count,
            _ => 0,
        }
    );
    println!(
        "  cold path : {:>12} simulated, {:>10.2?} wall  ({:?})",
        cold.est_latency.to_string(),
        cold_wall,
        cold.via
    );
    println!(
        "  warm hit  : {:>12} simulated, {:>10.2?} wall  ({:?})",
        hot.est_latency.to_string(),
        hot_wall,
        hot.via
    );
    assert!(
        hot.est_latency < cold.est_latency,
        "a warm result-cache hit must be cheaper than the cold path"
    );
    println!(
        "  -> {:.1}x cheaper simulated latency on the warm path. SHAPE OK",
        cold.est_latency.as_secs_f64() / hot.est_latency.as_secs_f64().max(1e-12)
    );

    // --- warm sketches: answering after eviction -------------------------
    // Age the deployment ten days: fog-1 (1-day) and fog-2 (7-day) raw
    // retention evict the whole serving window, so before the sketch
    // plane every historical aggregate below rode the ~70 ms WAN trip —
    // busting the real-time budget outright. The fog-1 ledgers still
    // hold the pre-folded bucket partials, so aligned aggregate windows
    // answer locally from warm sketches, and a district fan-out of
    // warm-sketch legs beats the cloud read in the route contest.
    println!("\n== warm sketches: serving evicted windows from the sketch plane ==");
    let day10 = now + 10 * 86_400;
    engine.flush_all(day10).expect("aging flush runs");
    let from = WARMUP_HORIZON_S;
    let until = ((report.sim_end_s / 900) * 900).max(from + 900);
    let before = engine.stats();
    let mut checked = 0u64;
    for section in (0..73).step_by(7) {
        let warm_probe = Query {
            origin: section,
            class: ServiceClass::RealTime,
            selector: Selector::Category(Category::Urban),
            scope: Scope::Section(section),
            window: TimeWindow::new(from, until),
            kind: QueryKind::Aggregate,
        };
        let warm = match engine.serve_sync(&warm_probe, day10 + 1).expect("serves") {
            Outcome::Answered(resp) => resp,
            other => panic!("warm-sketch probe must answer, got {other:?}"),
        };
        let agg = match &warm.answer {
            f2c_query::QueryAnswer::Aggregate(a) => *a,
            other => panic!("expected an aggregate, got {other:?}"),
        };
        // Cross-check against the cloud's raw records (a range read has
        // no sketch shortcut, so it must climb to the permanent tier).
        let raw_probe = Query {
            class: ServiceClass::Analytics,
            kind: QueryKind::Range,
            ..warm_probe
        };
        let raw = match engine.serve_sync(&raw_probe, day10 + 2).expect("serves") {
            Outcome::Answered(resp) => resp,
            other => panic!("cloud cross-check must answer, got {other:?}"),
        };
        let records = match &raw.answer {
            f2c_query::QueryAnswer::Records(recs) => recs,
            other => panic!("expected records, got {other:?}"),
        };
        assert_eq!(
            agg.count,
            records.len() as u64,
            "warm-sketch count must equal the cloud's raw record count (section {section})"
        );
        assert!(
            warm.est_latency < raw.est_latency,
            "the local sketch merge must undercut the WAN read"
        );
        checked += 1;
    }
    let district_probe = Query {
        origin: 3,
        class: ServiceClass::CityWide,
        selector: Selector::Category(Category::Urban),
        scope: Scope::District(engine.city().district_of(3)),
        window: TimeWindow::new(from, until),
        kind: QueryKind::Aggregate,
    };
    let fanout = match engine
        .serve_sync(&district_probe, day10 + 3)
        .expect("serves")
    {
        Outcome::Answered(resp) => resp,
        other => panic!("sketch-leg fan-out must answer, got {other:?}"),
    };
    let delta = engine.stats().zip(&before, |after, before| after - before);
    let (delta_served, delta_hits) = (delta.sketch_served, delta.sketch_hits);
    let (delta_legs, delta_wins) = (delta.sketch_legs, delta.scatter_wins);
    println!(
        "probed {checked} sections + 1 district over the evicted window \
         [{from}, {until})"
    );
    println!(
        "warm-sketch hits: {delta_served} real-time answers from {delta_hits} \
         pre-folded partials, every count equal to the cloud's raw archive"
    );
    println!(
        "district fan-out: {delta_legs} warm-sketch legs, contest vs cloud won \
         {delta_wins} time(s) ({:?} at {})",
        fanout.via, fanout.est_latency
    );
    assert!(
        delta_served >= checked,
        "every section probe must serve from warm sketches"
    );
    assert!(delta_hits > 0, "warm-sketch hits must be nonzero");
    assert!(
        delta_legs > 0 && delta_wins > 0,
        "the sketch-leg fan-out must contest and beat the cloud read"
    );
    println!(
        "-> evicted windows answer from warm sketches, within the real-time \
         budget, exactly matching the cloud's archive. SHAPE OK"
    );

    // --- chaos: faults degrade availability, never correctness ----------
    // A seeded fault schedule — a fog-1 crash, a whole-district fog-2
    // crash, a short cloud blackout, plus per-epoch flush-shipment loss
    // and sketch-corruption coins — runs under live closed-loop load.
    // Every fault must surface as an availability effect (fault sheds,
    // shed fan-out legs, partial answers, deferred flush waves, punched
    // sketch holes) in the incident timeline; none may leak into an
    // answered result. After the storm, healthy flush waves plus sketch
    // anti-entropy must leave every ledger hole-free, and settled
    // aggregates must equal the raw archive's record counts exactly.
    println!("\n== chaos: fault injection, degraded serving, anti-entropy healing ==");
    let mut chaos_city = F2cCity::barcelona().expect("city builds");
    populate_city(&mut chaos_city, 20_000, 2017, 3_600, 900).expect("warm-up runs");
    let mut plan = FailurePlan::with_seed(2017);
    plan.set_shipment_loss(0.10);
    plan.set_shipment_corruption(0.08);
    chaos_city.set_failures(plan);
    // Crash windows sized against the ~15 min simulated storm: each
    // overlaps a 300 s flush epoch so deferrals, shed legs and punched
    // holes all occur while consumers are still asking.
    chaos_city.inject_node_outage(ChaosSite::Fog1(5), 3_650, 3_980);
    chaos_city.inject_node_outage(ChaosSite::Fog2(2), 4_050, 4_350);
    chaos_city.inject_node_outage(ChaosSite::Cloud, 4_150, 4_250);
    let chaos_cfg = EngineConfig {
        caps: LayerCaps {
            fog1: 256,
            fog2: 64,
            cloud: 8,
        },
        ..EngineConfig::default()
    };
    let mut chaos_engine = QueryEngine::new(chaos_city, chaos_cfg);
    // Sized so the storm spans past 4_500 s: the 900 s sketch bucket
    // opened at the workload's start must *close* inside the storm, or
    // no flush wave ships partials for the corruption coin to damage.
    let chaos_config = WorkloadConfig {
        seed: 2017,
        requests: 90_000,
        users: 200,
        mix: Mix {
            dashboard: 40,
            analytics: 10,
            realtime: 40,
            city: 10,
        },
        start_s: 3_600,
        flush_period_s: 300,
        ingest_period_s: 300,
        ingest_scale: 20_000,
        ..WorkloadConfig::default()
    };
    let t = Instant::now();
    let chaos_report =
        parallel::run(&mut chaos_engine, &chaos_config).expect("faults degrade, never error");
    println!(
        "storm workload: {} requests over {} simulated seconds in {:.2?}",
        chaos_report.issued,
        chaos_report.sim_end_s - chaos_config.start_s,
        t.elapsed()
    );

    // The storm is over: clear the plan and let two healthy flush waves
    // (each ending in an anti-entropy round) ship the deferred batches
    // and re-ship authoritative partials over every punched hole.
    let storm_end = chaos_report.sim_end_s;
    chaos_engine.city_mut().set_failures(FailurePlan::none());
    chaos_engine
        .flush_all(storm_end + 300)
        .expect("healing flush");
    chaos_engine
        .flush_all(storm_end + 600)
        .expect("healing flush");

    // The incident table renders from the same export object the perf
    // gate consumes — what CI gates is exactly what the operator reads.
    let summary = chaos_engine.city().timeline().summary();
    let incidents_json = export::counts_json(summary.iter().map(|(k, v)| (*k, *v)));
    println!("\n{:<18} {:>8}", "incident", "count");
    println!("{}", "-".repeat(28));
    for (label, count) in incidents_json.members() {
        println!("{:<18} {:>8}", label, count.as_u64().unwrap_or(0));
    }
    println!(
        "\ndegraded serving: {} fault sheds | {} fan-out legs shed | \
         {} partial answers | {} answered through the storm",
        chaos_report.stats.fault_shed,
        chaos_report.stats.legs_shed,
        chaos_report.stats.degraded,
        chaos_report.answered
    );
    assert!(
        chaos_report.stats.fault_shed > 0,
        "crash windows must surface as fault sheds"
    );
    assert!(
        chaos_report.stats.legs_shed > 0 && chaos_report.stats.degraded > 0,
        "the district crash must shed fan-out legs into partial answers"
    );
    assert!(
        chaos_report.answered > chaos_report.issued / 2,
        "the city must keep answering through the storm"
    );
    assert!(
        summary.get("hole-punched").copied().unwrap_or(0) > 0
            && summary.get("hole-healed").copied().unwrap_or(0) > 0,
        "corruption coins must punch sketch holes and anti-entropy must heal them"
    );

    // Hole-free ledgers after healing, at every upper tier, both in the
    // ledgers themselves and in the timeline's punch/heal pairing.
    let city = chaos_engine.city();
    for d in 0..city.district_count() {
        assert!(
            city.fog2(d).sketches().holes_sorted().is_empty(),
            "fog-2 district {d} ledger must be hole-free after anti-entropy"
        );
        assert!(
            city.timeline()
                .unhealed_holes(ChaosSite::Fog2(d))
                .is_empty(),
            "timeline must pair every fog-2 d{d} punch with a heal"
        );
    }
    assert!(
        city.cloud().sketches().holes_sorted().is_empty(),
        "cloud ledger must be hole-free after anti-entropy"
    );
    assert!(
        city.timeline().unhealed_holes(ChaosSite::Cloud).is_empty(),
        "timeline must pair every cloud punch with a heal"
    );

    // Zero correctness divergence: settled aggregates (which ride the
    // healed sketch plane when they can) must equal the raw archive's
    // record count, both at the crashed section and across the crashed
    // district.
    let settle = (storm_end / 900) * 900;
    let heal_now = storm_end + 601;
    let crashed_district = chaos_engine.city().district_of(5);
    let probes = [
        (5usize, Scope::Section(5)),
        (5, Scope::District(crashed_district)),
    ];
    for (origin, scope) in probes {
        let agg_probe = Query {
            origin,
            class: ServiceClass::Dashboard,
            selector: Selector::Category(Category::Urban),
            scope,
            window: TimeWindow::new(3_600, settle),
            kind: QueryKind::Aggregate,
        };
        let raw_probe = Query {
            class: ServiceClass::Analytics,
            kind: QueryKind::Range,
            ..agg_probe
        };
        let agg = match chaos_engine
            .serve_sync(&agg_probe, heal_now)
            .expect("serves")
        {
            Outcome::Answered(resp) => resp,
            other => panic!("healed aggregate must answer, got {other:?}"),
        };
        let raw = match chaos_engine
            .serve_sync(&raw_probe, heal_now + 1)
            .expect("serves")
        {
            Outcome::Answered(resp) => resp,
            other => panic!("raw cross-check must answer, got {other:?}"),
        };
        let count = match &agg.answer {
            f2c_query::QueryAnswer::Aggregate(a) => a.count,
            other => panic!("expected an aggregate, got {other:?}"),
        };
        let records = match &raw.answer {
            f2c_query::QueryAnswer::Records(recs) => recs.len() as u64,
            other => panic!("expected records, got {other:?}"),
        };
        assert_eq!(
            count, records,
            "healed aggregate must equal the raw archive count ({scope:?})"
        );
    }
    println!(
        "-> the storm shed load and punched holes; healing left every ledger \
         hole-free and every settled aggregate equal to the raw archive. SHAPE OK"
    );

    // Diagnosis plane, storm side: the injected faults shed real-time
    // answers, so the availability burn-rate must cross the fast+slow
    // thresholds *during* the storm (fired), then fall back under once
    // the outage windows close and healthy serving resumes (resolved).
    // Every transition is also an incident on the shared timeline, so
    // the alert is attributed alongside the crash/loss events that
    // caused it rather than floating in a separate system.
    let chaos_monitor = chaos_engine.city().burn_monitor();
    println!("\n== diagnosis: SLO burn-rate alerting through the storm ==");
    for event in chaos_monitor.events() {
        println!(
            "  t={:>6}s {:<14} fast {:>8} milli-burn | slow {:>8} milli-burn{}",
            event.at_s,
            if event.fired {
                "alert-fired"
            } else {
                "alert-resolved"
            },
            event.fast_burn_milli,
            event.slow_burn_milli,
            if event.flight_record.is_empty() {
                String::new()
            } else {
                format!(
                    " | flight recorder: {} span(s)",
                    event.flight_record.lines().count()
                )
            }
        );
    }
    assert!(
        chaos_monitor.fired_count() >= 1,
        "the storm must fire the availability alert"
    );
    assert!(
        chaos_monitor.resolved_count() >= 1 && !chaos_monitor.firing(),
        "healing must resolve every availability alert"
    );
    assert!(
        chaos_report.stats.fault_shed > 0
            && summary.get("alert-fired").copied().unwrap_or(0) >= 1
            && summary.get("alert-resolved").copied().unwrap_or(0) >= 1,
        "alert transitions must land on the incident timeline next to the \
         faults that caused them"
    );
    println!(
        "-> fired {} time(s) on injected faults, resolved {} time(s) after \
         healing, zero false positives fault-free. SHAPE OK",
        chaos_monitor.fired_count(),
        chaos_monitor.resolved_count()
    );

    // --- export: the observability snapshot feeding the CI perf gate ----
    // One schema-versioned document: the main run's workload shape, flush
    // shipping costs, per-phase trace summaries and the full registry
    // snapshot, plus the chaos scenario's incident table and heal
    // outcomes. CI smoke-runs this bench (E7_REQUESTS=50000) and
    // `perf_gate` diffs the document against `bench/baseline.json`.
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_queries.json".to_string());
    let mut doc = Json::obj();
    doc.set("schema_version", export::num(export::SCHEMA_VERSION));
    doc.set("bench", Json::Str("queries".to_string()));
    doc.set("requests", export::num(requests));

    let mut workload_j = Json::obj();
    workload_j.set("issued", export::num(report.issued));
    workload_j.set("answered", export::num(report.answered));
    workload_j.set(
        "answer_rate",
        Json::Num(report.answered as f64 / report.issued.max(1) as f64),
    );
    workload_j.set("cache_hit_rate", Json::Num(report.cache_hit_rate()));
    workload_j.set("unanswerable", export::num(stats.unanswerable));
    workload_j.set("shed_fog1", export::num(stats.shed[0]));
    workload_j.set("shed_fog2", export::num(stats.shed[1]));
    workload_j.set("shed_cloud", export::num(stats.shed[2]));
    workload_j.set("shed_total", export::num(stats.shed_total()));
    workload_j.set("deadline_shed", export::num(stats.deadline_shed_total()));
    workload_j.set("scatter_served", export::num(stats.scatter_served));
    workload_j.set("scatter_legs", export::num(stats.scatter_legs));
    workload_j.set("scatter_wins", export::num(stats.scatter_wins));
    workload_j.set("cloud_wins", export::num(stats.cloud_wins));
    workload_j.set("records_scanned", export::num(stats.records_scanned));
    workload_j.set("prefold_hits", export::num(stats.prefold_hits));
    workload_j.set("partial_fills", export::num(stats.partial_fills));
    doc.set("workload", workload_j);

    let cloud_records = engine.city().cloud().store().len() as u64;
    let (up1, up2) = engine.city().uplink_flush_bytes();
    let uplink = up1 + up2;
    let mut flush_j = Json::obj();
    flush_j.set("raw_bytes", export::num(raw));
    flush_j.set("sketch_bytes", export::num(sk));
    flush_j.set("sketch_ratio", Json::Num(sk as f64 / raw.max(1) as f64));
    flush_j.set("uplink_bytes", export::num(uplink));
    flush_j.set("cloud_records", export::num(cloud_records));
    // Gated shipping cost: bytes the network actually carried per
    // cloud-stored record — the tsenc codec's win lands here (v3).
    flush_j.set(
        "bytes_per_record",
        Json::Num(uplink as f64 / cloud_records.max(1) as f64),
    );
    // Ungated info: shipped payloads by `tsenc` stream mode. The codec
    // picks the mode from the batch's shape alone, so this is where the
    // premise "generator traffic is always regular" is verified.
    let (batches_columnar, batches_fallback) = engine.city().flush_batches();
    flush_j.set("batches_columnar", export::num(batches_columnar));
    flush_j.set("batches_fallback", export::num(batches_fallback));
    doc.set("flush", flush_j);

    // Parallel-runtime info fields: the thread count the main run rode,
    // its wall time, and the self-check's agreed transcript hash. These
    // are deliberately *ungated* — wall time is machine noise and the
    // thread count is environment policy; byte-identity means neither
    // can move a gated metric.
    let mut parallel_j = Json::obj();
    parallel_j.set("threads", export::num(threads.get() as u64));
    parallel_j.set("wall_ms", export::num(wall.as_millis() as u64));
    parallel_j.set(
        "req_per_s_wall",
        Json::Num(report.issued as f64 / wall.as_secs_f64()),
    );
    parallel_j.set(
        "selfcheck_hash",
        Json::Str(format!("{selfcheck_hash:#018x}")),
    );
    parallel_j.set("selfcheck_match", export::num(1));
    doc.set("parallel", parallel_j);

    engine.sync_gauges();
    doc.set("phases", export::phases_json(engine.city().tracer()));
    doc.set(
        "registry",
        export::snapshot_json(&engine.city().metrics().snapshot()),
    );

    // Diagnosis plane, fault-free side: the explain reservoir and the
    // per-bucket trace exemplars must have filled, and the burn-rate
    // monitor must never have fired — there were no faults to burn SLO
    // budget on, so a fire here is a broken monitor or a real
    // regression (perf_gate enforces the same invariant absolutely).
    let explains = engine.city().explains();
    let exemplars = engine.city().exemplars();
    let monitor = engine.city().burn_monitor();
    println!(
        "\ndiagnosis plane: {} explains kept of {} planned | {} exemplar \
         bucket(s) holding their slowest trace | {} alert(s) fired \
         (fault-free: must be 0)",
        explains.kept(),
        explains.seen(),
        exemplars.kept(),
        monitor.fired_count()
    );
    let explains_j = explains.export();
    if let Some(Json::Arr(records)) = explains_j.path("records") {
        if let Some(choice) = records
            .first()
            .and_then(|rec| rec.path("choice"))
            .and_then(Json::as_str)
        {
            println!("  sample explain choice: {choice} (full transcripts in the export)");
        }
    }
    assert!(
        explains.kept() > 0 && exemplars.kept() > 0,
        "the diagnosis stores must capture the main run"
    );
    assert_eq!(
        monitor.fired_count(),
        0,
        "the fault-free main run must never fire an SLO alert"
    );
    println!(
        "flush codec modes: {batches_columnar} columnar / {batches_fallback} \
         fallback payload(s) shipped (fault-free: fallback must be 0)"
    );
    assert!(
        batches_columnar > 0 && batches_fallback == 0,
        "fault-free generator traffic must ship columnar, never the DEFLATE \
         fallback ({batches_columnar} columnar / {batches_fallback} fallback)"
    );
    doc.set("explains", explains_j);
    doc.set("exemplars", exemplars.export());
    doc.set("alerts", monitor.export());

    let chaos_snap = chaos_engine.city().metrics().snapshot();
    let heal = |kind: &str| {
        chaos_snap
            .counter(&format!("heal_outcomes{{service=sketch,kind={kind}}}"))
            .unwrap_or(0)
    };
    let mut heal_j = Json::obj();
    heal_j.set("healed", export::num(heal("healed")));
    heal_j.set("blocked", export::num(heal("blocked")));
    heal_j.set("impossible", export::num(heal("impossible")));
    let mut chaos_j = Json::obj();
    chaos_j.set("fault_shed", export::num(chaos_report.stats.fault_shed));
    chaos_j.set("legs_shed", export::num(chaos_report.stats.legs_shed));
    chaos_j.set("degraded", export::num(chaos_report.stats.degraded));
    chaos_j.set("answered", export::num(chaos_report.answered));
    chaos_j.set("incidents", incidents_json);
    chaos_j.set("heal", heal_j);
    chaos_j.set("alerts", chaos_engine.city().burn_monitor().export());
    doc.set("chaos", chaos_j);

    std::fs::write(&out_path, doc.to_pretty()).expect("bench export writes");
    println!(
        "\nexported observability snapshot -> {out_path} ({} gated metrics; \
         diff with `cargo run -p f2c-bench --bin perf_gate -- \
         bench/baseline.json {out_path}`)",
        export::budget_rules().len()
    );
}
