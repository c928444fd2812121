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
//! load) proving faults degrade availability, never correctness: every
//! damaged shipment is NACKed and re-ships, and after the storm settled
//! aggregates equal the raw archive.
//!
//! `main` runs the named scenarios below in order, and the order is part
//! of the result: the export (the `export::QUERIES` row) snapshots the
//! main engine after the warm-vs-cold and warm-sketch probes served on it.
//!
//! Run with `cargo run --release -p f2c-bench --bin queries`.
//! Set `E7_REQUESTS` (e.g. `E7_REQUESTS=50000`) to shrink the main run
//! for CI smoke coverage.

use std::time::{Duration, Instant};

use citysim::net::FailurePlan;
use citysim::Histogram;
use f2c_bench::export::{self, QUERIES};
use f2c_core::runtime::populate_city;
use f2c_core::{ChaosSite, F2cCity, Layer, Parallelism};
use f2c_obs::{Json, Labels, MetricsRegistry};
use f2c_query::parallel;
use f2c_query::workload::{DiurnalCurve, FlashCrowd, Mix, ServiceClass, WorkloadConfig};
use f2c_query::{
    layer_label, EngineConfig, LayerCaps, Outcome, Query, QueryAnswer, QueryEngine, QueryKind,
    QueryResponse, Scope, Selector, TimeWindow, WorkloadReport,
};
use scc_sensors::Category;

const WARMUP_SCALE: u64 = 2_000;
const WARMUP_HORIZON_S: u64 = 4 * 3_600;
const DEFAULT_REQUESTS: u64 = 1_000_000;
/// The ingest scale and horizon of every side scenario's warm-up.
const SIDE_SCALE: u64 = 20_000;
const SIDE_START_S: u64 = 3_600;

/// The request mix of the main run and the chaos storm.
const STEADY_MIX: Mix = Mix {
    dashboard: 40,
    analytics: 10,
    realtime: 40,
    city: 10,
};

fn main() {
    let requests = std::env::var("E7_REQUESTS").map_or(DEFAULT_REQUESTS, |s| {
        s.parse()
            .expect("E7_REQUESTS must be a positive request count")
    });
    println!("== E7: closed-loop query serving over the F2C hierarchy ==\n");
    let mut run = main_run(warm_up(), requests);
    let parallel_j = thread_self_check(&run);
    flash_crowd(run.threads);
    let now = warm_vs_cold(&mut run);
    warm_sketches(&mut run, now);
    let chaos_j = chaos(run.threads);
    export(run, requests, parallel_j, chaos_j);
}

/// The `query_latency_us{service=query,…}` series `labels` narrows to:
/// a workload run registers every one in its city's registry.
fn latency(metrics: &MetricsRegistry, labels: impl Fn(Labels) -> Labels) -> &Histogram {
    let labels = labels(Labels::new().service("query"));
    metrics
        .histogram_named("query_latency_us", labels)
        .expect("a workload run registers every latency series")
}

/// One row of the per-layer latency table.
fn print_latency_row(name: &str, h: &Histogram) {
    println!(
        "{name:<12} {:>9} {:>14} {:>14}",
        h.count(),
        h.quantile(0.5).to_string(),
        h.quantile(0.99).to_string()
    );
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

/// A fresh deployment on `threads` worker threads, warmed by an hour of
/// ingest at 1/20 000 scale: where every side scenario starts.
fn warm_city(threads: Parallelism) -> F2cCity {
    let mut city = F2cCity::barcelona().expect("city builds");
    city.set_parallelism(threads);
    populate_city(&mut city, SIDE_SCALE, 2017, SIDE_START_S, 900).expect("warm-up runs");
    city
}

/// A side scenario's closed loop: `requests` from `users`, starting where
/// [`warm_city`]'s ingest stops and ingesting at its scale.
fn side_load(requests: u64, users: u32) -> WorkloadConfig {
    WorkloadConfig {
        seed: 2017,
        requests,
        users,
        start_s: SIDE_START_S,
        ingest_scale: SIDE_SCALE,
        ..WorkloadConfig::default()
    }
}

/// An engine with these fog-1 / fog-2 / cloud admission caps.
fn capped(fog1: u32, fog2: u32, cloud: u32) -> EngineConfig {
    let caps = LayerCaps { fog1, fog2, cloud };
    EngineConfig {
        caps,
        ..EngineConfig::default()
    }
}

/// Serves `query` at `at`; the probe must be answered.
fn answered(engine: &mut QueryEngine, query: &Query, at: u64) -> QueryResponse {
    match engine.serve_sync(query, at).expect("probe serves") {
        Outcome::Answered(resp) => resp,
        other => panic!("{query:?} at {at} must answer, got {other:?}"),
    }
}

/// Serves the aggregate `probe` at `at` and, right after, the same
/// window as a range read, which has no sketch shortcut and so reads the
/// raw archive: the aggregate must count exactly the records returned.
fn cross_check(engine: &mut QueryEngine, probe: Query, at: u64) -> (QueryResponse, QueryResponse) {
    let raw_probe = Query {
        class: ServiceClass::Analytics,
        kind: QueryKind::Range,
        ..probe
    };
    let agg = answered(engine, &probe, at);
    let raw = answered(engine, &raw_probe, at + 1);
    let (counted, read) = (count_of(&agg.answer), count_of(&raw.answer));
    assert_eq!(counted, read, "{probe:?} miscounts the raw archive");
    (agg, raw)
}

/// How many records an answer covers: an aggregate's count, a range
/// read's records, a point read's zero or one sample.
fn count_of(answer: &QueryAnswer) -> u64 {
    match answer {
        QueryAnswer::Aggregate(a) => a.count,
        QueryAnswer::Records(records) => records.len() as u64,
        QueryAnswer::Point(sample) => u64::from(sample.is_some()),
    }
}

/// Warm-up: an event-driven ingest slice of the day.
fn warm_up() -> F2cCity {
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
    city
}

/// The main run's engine, and what the later scenarios and the export
/// read of the run: its flush bytes are taken before the probes flush.
struct MainRun {
    engine: QueryEngine,
    report: WorkloadReport,
    threads: Parallelism,
    wall: Duration,
    raw_bytes: u64,
    sketch_bytes: u64,
    /// Bytes at rest, priced as the main run left the city.
    mem: Json,
}

/// The closed-loop main run on the warmed city.
fn main_run(mut city: F2cCity, requests: u64) -> MainRun {
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
    let cfg = capped(256, 64, 2);
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
        mix: STEADY_MIX,
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
        ..WorkloadConfig::default()
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
        if h.count() > 0 {
            print_latency_row(&layer.to_string(), h);
        }
    }
    let scatter = latency(metrics, |q| q.kind("scatter"));
    if scatter.count() > 0 {
        print_latency_row("scatter", scatter);
    }
    print_class_table(&report, metrics);

    let (raw_bytes, sketch_bytes) = main_run_summary(&engine, &report, requests);
    let mem = mem_json(engine.city());
    MainRun {
        engine,
        report,
        threads,
        wall,
        raw_bytes,
        sketch_bytes,
        mem,
    }
}

/// Bytes at rest per tier (v6): each tier's total, its stores' part
/// (v7) and the total over every record copy the tiers archive. Priced
/// where the main run ends, while every tier holds records; the
/// scenarios after it age fog 1 and fog 2 past their retention.
fn mem_json(city: &F2cCity) -> Json {
    let (fog1, fog2, cloud) = city.heap_bytes();
    let sections = (0..city.section_count()).map(|s| city.fog1(s));
    let districts = (0..city.district_count()).map(|d| city.fog2(d));
    let tiers: [(&str, u64, Vec<_>); 3] = [
        ("fog1", fog1, sections.map(|n| n.store()).collect()),
        ("fog2", fog2, districts.map(|n| n.store()).collect()),
        ("cloud", cloud, vec![city.cloud().store()]),
    ];
    let mut mem_j = Json::obj();
    for (tier, bytes, stores) in &tiers {
        let mut tier_j = Json::obj();
        tier_j.set("bytes", export::num(*bytes));
        let store_bytes = stores.iter().map(|s| s.heap_bytes()).sum();
        tier_j.set("store_bytes", export::num(store_bytes));
        mem_j.set(tier, tier_j);
    }
    let copies: usize = tiers.iter().flat_map(|t| &t.2).map(|s| s.len()).sum();
    let per_copy = (fog1 + fog2 + cloud) as f64 / copies.max(1) as f64;
    mem_j.set("bytes_per_stored_record", Json::Num(per_copy));
    mem_j
}

/// The main run's serving, scatter, shed, scan and shipping lines and
/// their SHAPE checks; returns the raw and sketch flush bytes.
fn main_run_summary(engine: &QueryEngine, report: &WorkloadReport, requests: u64) -> (u64, u64) {
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
    let scatter = latency(engine.city().metrics(), |q| q.kind("scatter"));
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
    (raw, sk)
}

/// Parallel conformance: thread count cannot change a single byte. Two
/// fresh replicas of a smaller closed loop, on one worker thread and on
/// four, must produce byte-identical transcripts (the full-artifact
/// oracle lives in tests/parallel.rs; this proves it on the release build
/// CI benches). Returns the `parallel` section, whose threads and wall
/// time are ungated info: a 1-CPU CI runner cannot observe a speed-up.
fn thread_self_check(run: &MainRun) -> Json {
    println!("\n== parallel conformance: thread count must not change bytes ==");
    let self_check = |threads: usize| {
        let mut engine = QueryEngine::new(
            warm_city(Parallelism::new(threads)),
            EngineConfig::default(),
        );
        let config = WorkloadConfig {
            flush_period_s: 300,
            ingest_period_s: 300,
            record_transcript: true,
            ..side_load(10_000, 48)
        };
        let r = parallel::run(&mut engine, &config).expect("self-check runs");
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

    let mut parallel_j = export::counts_json([
        ("threads", run.threads.get() as u64),
        ("wall_ms", run.wall.as_millis() as u64),
    ]);
    parallel_j.set(
        "req_per_s_wall",
        Json::Num(run.report.issued as f64 / run.wall.as_secs_f64()),
    );
    parallel_j.set(
        "selfcheck_hash",
        Json::Str(format!("{selfcheck_hash:#018x}")),
    );
    parallel_j.set("selfcheck_match", export::num(1));
    parallel_j
}

/// Flash crowd: the QoS promise under a deliberate overload.
fn flash_crowd(threads: Parallelism) {
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
    let crowd_cfg = EngineConfig {
        result_ttl_s: 0,
        ..capped(64, 8, 4)
    };
    let mut engine = QueryEngine::new(warm_city(threads), crowd_cfg);
    let mut config = side_load(30_000, 64);
    config.flash_crowds[0] = Some(FlashCrowd {
        class: ServiceClass::Analytics,
        start_s: 3_660,
        duration_s: 120,
        users: 300,
        think_divisor: 32,
    });
    let t = Instant::now();
    let report = parallel::run(&mut engine, &config).expect("burst runs");
    println!(
        "burst workload: {} requests in {:.2?}",
        report.issued,
        t.elapsed()
    );
    print_class_table(&report, engine.city().metrics());
    let analytics = report.class_stats(ServiceClass::Analytics);
    let realtime = report.class_stats(ServiceClass::RealTime);
    println!(
        "\nduring the burst window: analytics shed {} of {} issued \
         ({:.1}% shed rate) while real-time shed {} of {}",
        report.flash_shed(ServiceClass::Analytics),
        analytics.requests,
        analytics.shed_rate() * 100.0,
        realtime.shed,
        realtime.requests,
    );
    assert!(
        report.flash_shed(ServiceClass::Analytics) > 0,
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
}

/// Warm vs cold: the result cache pays for itself. Returns the settling
/// flush instant.
fn warm_vs_cold(run: &mut MainRun) -> u64 {
    // The probe aggregates a whole category over a district, so the
    // hash-spread scaled-down population guarantees a non-trivial record
    // set. The probe's window must be *closed* (end at or before the
    // serve instant) to be result-cacheable, so it ends at the settling
    // flush.
    let engine = &mut run.engine;
    let now = run.report.sim_end_s + 900;
    engine.flush_all(now).expect("flush to invalidate caches");
    let probe = Query {
        origin: 3,
        class: ServiceClass::Dashboard,
        selector: Selector::Category(Category::Energy),
        scope: Scope::District(engine.city().district_of(3)),
        window: TimeWindow::new(0, engine.last_flush_s()),
        kind: QueryKind::Aggregate,
    };
    let mut serve = |at: u64| {
        let t = Instant::now();
        let resp = answered(engine, &probe, at);
        (resp, t.elapsed())
    };
    let (cold, cold_wall) = serve(now + 1);
    let (hot, hot_wall) = serve(now + 2);
    println!(
        "\nwarm vs cold ({} records aggregated):",
        count_of(&cold.answer)
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
    now
}

/// Warm sketches: answering after eviction, ten days past `now`.
fn warm_sketches(run: &mut MainRun, now: u64) {
    // Age the deployment ten days: fog-1 (1-day) and fog-2 (7-day) raw
    // retention evict the whole serving window, so before the sketch
    // plane every historical aggregate below rode the ~70 ms WAN trip —
    // busting the real-time budget outright. The fog-1 ledgers still
    // hold the pre-folded bucket partials, so aligned aggregate windows
    // answer locally from warm sketches, and a district fan-out of
    // warm-sketch legs beats the cloud read in the route contest.
    println!("\n== warm sketches: serving evicted windows from the sketch plane ==");
    let engine = &mut run.engine;
    let day10 = now + 10 * 86_400;
    engine.flush_all(day10).expect("aging flush runs");
    let from = WARMUP_HORIZON_S;
    let until = ((run.report.sim_end_s / 900) * 900).max(from + 900);
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
        // The range read climbs to the cloud, the permanent tier.
        let (warm, raw) = cross_check(engine, warm_probe, day10 + 1);
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
    let fanout = answered(engine, &district_probe, day10 + 3);
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
}

/// Chaos: faults degrade availability, never correctness. Returns the
/// `chaos` section.
fn chaos(threads: Parallelism) -> Json {
    let (mut engine, report) = chaos_storm(threads);

    // The incident table renders from the same export object the perf
    // gate consumes — what CI gates is exactly what the operator reads.
    let summary = engine.city().timeline().summary();
    let incidents_json = export::counts_json(summary.iter().map(|(k, v)| (*k, *v)));
    println!("\n{:<18} {:>8}", "incident", "count");
    println!("{}", "-".repeat(28));
    for (label, count) in incidents_json.members() {
        println!("{:<18} {:>8}", label, count.as_u64().unwrap_or(0));
    }
    println!(
        "\ndegraded serving: {} fault sheds | {} fan-out legs shed | \
         {} partial answers | {} answered through the storm",
        report.stats.fault_shed, report.stats.legs_shed, report.stats.degraded, report.answered
    );
    assert!(
        report.stats.fault_shed > 0,
        "crash windows must surface as fault sheds"
    );
    assert!(
        report.stats.legs_shed > 0 && report.stats.degraded > 0,
        "the district crash must shed fan-out legs into partial answers"
    );
    assert!(
        report.answered > report.issued / 2,
        "the city must keep answering through the storm"
    );
    let tally = |label: &str| summary.get(label).copied().unwrap_or(0);
    assert!(
        tally("shipment-corrupted") > 0,
        "corruption coins must damage shipments for their receivers to NACK"
    );
    check_recovered(&mut engine, report.sim_end_s);

    // Diagnosis plane, storm side: the injected faults shed real-time
    // answers, so the availability burn-rate must cross the fast+slow
    // thresholds *during* the storm (fired), then fall back under once
    // the outage windows close and healthy serving resumes (resolved).
    // Every transition is also an incident on the shared timeline, so
    // the alert is attributed alongside the crash/loss events that
    // caused it rather than floating in a separate system.
    let monitor = engine.city().burn_monitor();
    println!("\n== diagnosis: SLO burn-rate alerting through the storm ==");
    for event in monitor.events() {
        let transition = if event.fired {
            "alert-fired"
        } else {
            "alert-resolved"
        };
        let spans = event.flight_record.lines().count();
        println!(
            "  t={:>6}s {transition:<14} fast {:>8} milli-burn | slow {:>8} milli-burn{}",
            event.at_s,
            event.fast_burn_milli,
            event.slow_burn_milli,
            if spans == 0 {
                String::new()
            } else {
                format!(" | flight recorder: {spans} span(s)")
            }
        );
    }
    assert!(
        monitor.fired_count() >= 1,
        "the storm must fire the availability alert"
    );
    assert!(
        monitor.resolved_count() >= 1 && !monitor.firing(),
        "recovery must resolve every availability alert"
    );
    assert!(
        report.stats.fault_shed > 0 && tally("alert-fired") >= 1 && tally("alert-resolved") >= 1,
        "alert transitions must land on the incident timeline next to the \
         faults that caused them"
    );
    println!(
        "-> fired {} time(s) on injected faults, resolved {} time(s) after \
         recovery, zero false positives fault-free. SHAPE OK",
        monitor.fired_count(),
        monitor.resolved_count()
    );

    let mut chaos_j = Json::obj();
    chaos_j.set("fault_shed", export::num(report.stats.fault_shed));
    chaos_j.set("legs_shed", export::num(report.stats.legs_shed));
    chaos_j.set("degraded", export::num(report.stats.degraded));
    chaos_j.set("answered", export::num(report.answered));
    chaos_j.set("incidents", incidents_json);
    chaos_j.set("alerts", monitor.export());
    chaos_j
}

/// The seeded fault storm under live load, then two healthy flush waves.
fn chaos_storm(threads: Parallelism) -> (QueryEngine, WorkloadReport) {
    // A seeded fault schedule — a fog-1 crash, a whole-district fog-2
    // crash, a short cloud blackout, plus per-epoch flush-shipment loss
    // and sketch-corruption coins — runs under live closed-loop load.
    // Every fault must surface as an availability effect (fault sheds,
    // shed fan-out legs, partial answers, deferred and NACKed flush
    // waves) in the incident timeline; none may leak into an answered
    // result. After the storm, healthy flush waves ship what was held
    // back, and settled aggregates must equal the raw archive's record
    // counts exactly.
    println!("\n== chaos: fault injection, degraded serving, recovery ==");
    let mut city = warm_city(threads);
    let mut plan = FailurePlan::with_seed(2017);
    plan.set_shipment_loss(0.10);
    plan.set_shipment_corruption(0.08);
    city.set_failures(plan);
    // Crash windows sized against the ~15 min simulated storm: each
    // overlaps a 300 s flush epoch so deferrals, shed legs and NACKed
    // shipments all occur while consumers are still asking.
    city.inject_node_outage(ChaosSite::Fog1(5), 3_650, 3_980);
    city.inject_node_outage(ChaosSite::Fog2(2), 4_050, 4_350);
    city.inject_node_outage(ChaosSite::Cloud, 4_150, 4_250);
    let mut engine = QueryEngine::new(city, capped(256, 64, 8));
    // Sized so the storm spans past 4_500 s: the 900 s sketch bucket
    // opened at the workload's start must *close* inside the storm, or
    // no flush wave ships partials for the corruption coin to damage.
    let config = WorkloadConfig {
        mix: STEADY_MIX,
        flush_period_s: 300,
        ingest_period_s: 300,
        ..side_load(90_000, 200)
    };
    let t = Instant::now();
    let report = parallel::run(&mut engine, &config).expect("faults degrade, never error");
    println!(
        "storm workload: {} requests over {} simulated seconds in {:.2?}",
        report.issued,
        report.sim_end_s - config.start_s,
        t.elapsed()
    );

    // The storm is over: clear the plan and let two healthy flush waves
    // ship the deferred and NACKed batches.
    let storm_end = report.sim_end_s;
    engine.city_mut().set_failures(FailurePlan::none());
    engine.flush_all(storm_end + 300).expect("healthy flush");
    engine.flush_all(storm_end + 600).expect("healthy flush");
    (engine, report)
}

/// After the storm: settled aggregates equal to the raw archive.
fn check_recovered(engine: &mut QueryEngine, storm_end: u64) {
    // Zero correctness divergence: settled aggregates (which ride the
    // sketch plane when they can) must equal the raw archive's record
    // count, both at the crashed section and across the crashed
    // district.
    let city = engine.city();
    let settle = (storm_end / 900) * 900;
    let now = storm_end + 601;
    let crashed_district = city.district_of(5);
    for scope in [Scope::Section(5), Scope::District(crashed_district)] {
        let probe = Query {
            origin: 5,
            class: ServiceClass::Dashboard,
            selector: Selector::Category(Category::Urban),
            scope,
            window: TimeWindow::new(3_600, settle),
            kind: QueryKind::Aggregate,
        };
        cross_check(engine, probe, now);
    }
    println!(
        "-> the storm shed load and NACKed damaged shipments; once it cleared, \
         every settled aggregate equals the raw archive. SHAPE OK"
    );
}

/// Diagnosis plane, fault-free side: the explain reservoir and the
/// per-bucket trace exemplars must have filled, and the burn-rate monitor
/// must never have fired — there were no faults to burn SLO budget on, so
/// a fire is a broken monitor or a real regression (the row's
/// must-be-zero check holds it absolutely). Adds the `explains`,
/// `exemplars` and `alerts` sections to `doc`.
fn diagnosis(engine: &QueryEngine, doc: &mut Json) {
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
    let choice = match explains_j.path("records") {
        Some(Json::Arr(records)) => records.first().and_then(|rec| rec.path("choice")),
        _ => None,
    };
    if let Some(choice) = choice.and_then(Json::as_str) {
        println!("  sample explain choice: {choice} (full transcripts in the export)");
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
    doc.set("explains", explains_j);
    doc.set("exemplars", exemplars.export());
    doc.set("alerts", monitor.export());
}

/// Export: one schema-versioned document of the main run's workload
/// shape, flush shipping costs, per-phase trace summaries, registry
/// snapshot and diagnosis plane, plus the chaos storm's section. CI
/// smoke-runs this bench (`E7_REQUESTS=50000`) and `perf_gate` diffs the
/// document against the row's baseline.
fn export(mut run: MainRun, requests: u64, parallel_j: Json, chaos_j: Json) {
    let report = &run.report;
    let stats = &report.stats;
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

    let city = run.engine.city();
    let (raw, sk) = (run.raw_bytes, run.sketch_bytes);
    let cloud_records = city.cloud().store().len() as u64;
    let (up1, up2) = city.uplink_flush_bytes();
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
    // Ungated info: encoded payloads shipped, both hops together.
    flush_j.set("batches", export::num(city.flush_batches()));

    let mut doc = QUERIES.doc();
    doc.set("requests", export::num(requests));
    doc.set("workload", workload_j);
    doc.set("flush", flush_j);
    doc.set("mem", run.mem);
    doc.set("parallel", parallel_j);
    run.engine.sync_gauges();
    doc.set("phases", export::phases_json(run.engine.city().tracer()));
    doc.set(
        "registry",
        export::snapshot_json(&run.engine.city().metrics().snapshot()),
    );
    diagnosis(&run.engine, &mut doc);
    doc.set("chaos", chaos_j);

    let out_path = QUERIES.write(&doc).expect("bench export writes");
    println!(
        "\nexported observability snapshot -> {out_path} ({} gated metrics; \
         diff with `cargo run -p f2c-bench --bin perf_gate -- \
         {} {out_path}`)",
        QUERIES.rules.len(),
        QUERIES.baseline
    );
}
