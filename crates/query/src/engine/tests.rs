use super::exec::scan_point;
use super::response::LayerCaps;
use super::*;
use crate::model::{Selector, TimeWindow};
use scc_dlc::DataRecord;
use scc_sensors::{Category, ReadingGenerator, SensorType};

fn engine_with_data(section: usize, ty: SensorType, waves: u64) -> QueryEngine {
    let mut city = F2cCity::barcelona().unwrap();
    let mut gen = ReadingGenerator::for_population(ty, 10, 42);
    for w in 0..waves {
        city.ingest(section, gen.wave(w * 900), w * 900 + 1)
            .unwrap();
    }
    QueryEngine::new(city, EngineConfig::default())
}

fn aggregate_query(origin: usize, scope: Scope, from: u64, until: u64) -> Query {
    Query {
        origin,
        class: ServiceClass::Dashboard,
        selector: Selector::Category(Category::Urban),
        scope,
        window: TimeWindow::new(from, until),
        kind: QueryKind::Aggregate,
    }
}

fn answered(outcome: Outcome) -> QueryResponse {
    match outcome {
        Outcome::Answered(r) => r,
        Outcome::Shed {
            layer,
            class,
            cause,
        } => panic!("unexpected {class} shed at {layer} ({cause:?})"),
    }
}

#[test]
fn per_node_caches_follow_the_topology() {
    // An eleventh district must get its own gather cache: the fog-2
    // caches were once sized for Barcelona's ten whatever the city.
    let core = ServeCore::new(EngineConfig::default(), 80, 11);
    assert_eq!(core.edge.len(), 80);
    assert_eq!(core.src_fog1.len(), 80);
    assert_eq!(core.src_fog2.len(), 11);
    let city = F2cCity::barcelona().unwrap();
    let e = QueryEngine::new(city, EngineConfig::default());
    assert_eq!(e.core.src_fog1.len(), e.city().section_count());
    assert_eq!(e.core.src_fog2.len(), e.city().district_count());
}

#[test]
fn point_query_returns_latest_local_observation() {
    let mut e = engine_with_data(5, SensorType::Traffic, 4);
    let q = Query {
        origin: 5,
        class: ServiceClass::RealTime,
        selector: Selector::Type(SensorType::Traffic),
        scope: Scope::Section(5),
        window: TimeWindow::new(0, 10_000),
        kind: QueryKind::Point,
    };
    let resp = answered(e.serve_sync(&q, 4_000).unwrap());
    assert_eq!(resp.via, ServedVia::Store(DataSource::Local));
    match resp.answer {
        QueryAnswer::Point(Some(p)) => assert_eq!(p.created_s, 2_700),
        other => panic!("expected a point sample, got {other:?}"),
    }
}

#[test]
fn repeat_queries_hit_the_edge_cache_and_cost_less() {
    let mut e = engine_with_data(5, SensorType::Traffic, 4);
    let q = aggregate_query(5, Scope::Section(5), 0, 3_600);
    let cold = answered(e.serve_sync(&q, 4_000).unwrap());
    assert_eq!(cold.via, ServedVia::Store(DataSource::Local));
    let warm = answered(e.serve_sync(&q, 4_001).unwrap());
    assert_eq!(warm.via, ServedVia::EdgeCache);
    assert_eq!(warm.answer, cold.answer, "cache returns the same answer");
    assert!(
        warm.est_latency < cold.est_latency,
        "warm {} vs cold {}",
        warm.est_latency,
        cold.est_latency
    );
    assert_eq!(e.stats().edge_hits, 1);
}

#[test]
fn flush_invalidates_cached_results() {
    let mut e = engine_with_data(5, SensorType::Traffic, 4);
    let q = aggregate_query(5, Scope::Section(5), 0, 3_600);
    answered(e.serve_sync(&q, 4_000).unwrap());
    e.flush_all(4_100).unwrap();
    let after = answered(e.serve_sync(&q, 4_200).unwrap());
    assert!(
        matches!(after.via, ServedVia::Store(_)),
        "epoch bump forces re-execution, got {:?}",
        after.via
    );
}

#[test]
fn admission_control_sheds_over_cap_and_release_reopens() {
    let mut city = F2cCity::barcelona().unwrap();
    let mut gen = ReadingGenerator::for_population(SensorType::Traffic, 10, 42);
    for w in 0..4 {
        city.ingest(5, gen.wave(w * 900), w * 900 + 1).unwrap();
    }
    let cfg = EngineConfig {
        caps: LayerCaps {
            fog1: 1,
            ..LayerCaps::default()
        },
        ..EngineConfig::default()
    };
    let mut e = QueryEngine::new(city, cfg);
    let q1 = aggregate_query(5, Scope::Section(5), 0, 1_800);
    let q2 = aggregate_query(5, Scope::Section(5), 0, 2_700);
    let first = answered(e.serve(&q1, 4_000).unwrap());
    assert_eq!(
        first.held,
        HeldSlots::single(Layer::Fog1, ServiceClass::Dashboard)
    );
    match e.serve(&q2, 4_000).unwrap() {
        Outcome::Shed {
            layer,
            class,
            cause,
        } => {
            assert_eq!(layer, Layer::Fog1);
            assert_eq!(class, ServiceClass::Dashboard);
            assert_eq!(cause, ShedCause::Capacity);
        }
        other => panic!("expected shed, got {other:?}"),
    }
    assert_eq!(e.stats().shed_total(), 1);
    assert_eq!(e.stats().per_class[ServiceClass::Dashboard.index()].shed, 1);
    e.release_held(first.held);
    answered(e.serve(&q2, 4_000).unwrap());
}

#[test]
fn aggregates_reuse_bucket_partials_across_windows() {
    let mut e = engine_with_data(5, SensorType::Traffic, 8);
    // Two overlapping dashboard windows sharing full buckets.
    let a = aggregate_query(5, Scope::Section(5), 0, 5_400);
    let b = aggregate_query(5, Scope::Section(5), 900, 6_300);
    answered(e.serve_sync(&a, 8_000).unwrap());
    let fills_after_first = e.stats().partial_fills;
    assert!(fills_after_first > 0);
    answered(e.serve_sync(&b, 8_000).unwrap());
    assert!(
        e.stats().partial_hits > 0,
        "second window reuses cached buckets"
    );
}

#[test]
fn open_window_answers_are_never_cached() {
    use scc_sensors::ReadingGenerator;
    let mut e = engine_with_data(5, SensorType::Traffic, 4);
    // Window extends past "now": a later perfectly ordinary ingest
    // could land inside it, so serving must not cache the answer.
    let q = aggregate_query(5, Scope::Section(5), 0, 10_000);
    let first = answered(e.serve_sync(&q, 4_000).unwrap());
    let first_count = match &first.answer {
        QueryAnswer::Aggregate(a) => a.count,
        other => panic!("expected aggregate, got {other:?}"),
    };
    let mut gen = ReadingGenerator::for_population(SensorType::Traffic, 10, 43);
    e.ingest(5, gen.wave(4_050), 4_050).unwrap();
    let second = answered(e.serve_sync(&q, 4_060).unwrap());
    assert!(
        matches!(second.via, ServedVia::Store(_)),
        "open windows must re-execute, got {:?}",
        second.via
    );
    let second_count = match &second.answer {
        QueryAnswer::Aggregate(a) => a.count,
        other => panic!("expected aggregate, got {other:?}"),
    };
    assert!(
        second_count > first_count,
        "in-window ingest must be visible ({first_count} -> {second_count})"
    );
}

#[test]
fn oversized_answers_bypass_the_result_cache() {
    let mut city = F2cCity::barcelona().unwrap();
    let mut gen = ReadingGenerator::for_population(SensorType::Traffic, 50, 42);
    for w in 0..8 {
        city.ingest(5, gen.wave(w * 300), w * 300 + 1).unwrap();
    }
    let cfg = EngineConfig {
        max_cache_entry_bytes: 64,
        ..EngineConfig::default()
    };
    let mut e = QueryEngine::new(city, cfg);
    let q = Query {
        origin: 5,
        class: ServiceClass::Dashboard,
        selector: Selector::Type(SensorType::Traffic),
        scope: Scope::Section(5),
        window: TimeWindow::new(0, 2_400),
        kind: QueryKind::Range,
    };
    let first = answered(e.serve_sync(&q, 4_000).unwrap());
    assert!(first.response_bytes > 64, "probe answer must be bulky");
    let second = answered(e.serve_sync(&q, 4_001).unwrap());
    assert!(
        matches!(second.via, ServedVia::Store(_)),
        "bulky answers re-scan instead of bloating the caches, got {:?}",
        second.via
    );
    assert_eq!(second.answer, first.answer);
}

#[test]
fn backdated_ingest_invalidates_cached_answers() {
    use scc_sensors::{Reading, SensorId, Value};
    let mut e = engine_with_data(5, SensorType::Traffic, 4);
    let q = aggregate_query(5, Scope::Section(5), 0, 2_700);
    let cold = answered(e.serve_sync(&q, 4_000).unwrap());
    let cold_count = match &cold.answer {
        QueryAnswer::Aggregate(a) => a.count,
        other => panic!("expected aggregate, got {other:?}"),
    };
    // A straggler created inside an already-served (and cached)
    // window must not be masked by the caches.
    let late = Reading::new(
        SensorId::new(SensorType::Traffic, 900),
        1_000,
        Value::Counter(3),
    );
    e.ingest(5, vec![late], 4_100).unwrap();
    let warm = answered(e.serve_sync(&q, 4_200).unwrap());
    assert!(
        matches!(warm.via, ServedVia::Store(_)),
        "backdated ingest must force re-execution, got {:?}",
        warm.via
    );
    match &warm.answer {
        QueryAnswer::Aggregate(a) => assert_eq!(a.count, cold_count + 1),
        other => panic!("expected aggregate, got {other:?}"),
    }
}

#[test]
fn unflushed_district_windows_scatter_then_use_the_parent_store() {
    let mut e = engine_with_data(5, SensorType::Traffic, 4);
    let district = e.city().district_of(5);
    let members = e.city().sections_in_district(district).len() as u32;
    // District window ending past the flush frontier: nothing above
    // fog 1 holds it yet, so the engine fans out over the members.
    let q = aggregate_query(5, Scope::District(district), 0, 3_000);
    let resp = answered(e.serve_sync(&q, 4_000).unwrap());
    assert_eq!(resp.via, ServedVia::Scatter { legs: members });
    assert_eq!(e.stats().scatter_served, 1);
    assert_eq!(e.stats().scatter_legs, u64::from(members));
    e.flush_all(4_000).unwrap();
    let after = answered(e.serve_sync(&q, 4_100).unwrap());
    assert_eq!(after.via, ServedVia::Store(DataSource::Parent));
    match (&resp.answer, &after.answer) {
        (QueryAnswer::Aggregate(a), QueryAnswer::Aggregate(b)) => {
            assert_eq!(a.count, b.count, "scatter and parent answers agree");
            assert_eq!(a.min, b.min);
            assert_eq!(a.distinct_sensors, b.distinct_sensors);
        }
        other => panic!("expected aggregates, got {other:?}"),
    }
}

#[test]
fn unanswerable_windows_surface_and_are_counted() {
    let mut e = engine_with_data(5, SensorType::Traffic, 2);
    // Flush, then age fog-1 out (1-day retention) and leave a fresh
    // unflushed wave behind: a window spanning the evicted past and
    // the pending present has no provable cover anywhere.
    e.flush_all(2_000).unwrap();
    e.flush_all(2 * 86_400).unwrap();
    let mut gen = ReadingGenerator::for_population(SensorType::Traffic, 10, 99);
    let late = 2 * 86_400 + 10;
    e.ingest(5, gen.wave(late), late).unwrap();
    let q = aggregate_query(5, Scope::Section(5), 1_000, late + 100);
    assert!(matches!(
        e.serve_sync(&q, late + 200),
        Err(Error::Unanswerable { .. })
    ));
    assert_eq!(e.stats().unanswerable, 1);
}

#[test]
fn city_scope_scatters_and_caches_at_the_gather_fog2() {
    let mut e = engine_with_data(5, SensorType::Traffic, 4);
    e.flush_all(4_000).unwrap();
    let q = Query {
        origin: 5,
        class: ServiceClass::CityWide,
        selector: Selector::Type(SensorType::Traffic),
        scope: Scope::City,
        window: TimeWindow::new(0, 3_600),
        kind: QueryKind::Aggregate,
    };
    let cold = answered(e.serve_sync(&q, 4_100).unwrap());
    assert_eq!(cold.via, ServedVia::Scatter { legs: 10 });
    assert_eq!(cold.layer, Layer::Fog2);
    assert_eq!(e.stats().scatter_wins, 1, "fog-2 fan-out beat the cloud");
    // A different requester in the same district rides the gather
    // node's result cache instead of re-fanning.
    let q2 = Query { origin: 6, ..q };
    assert_eq!(e.city().district_of(5), e.city().district_of(6));
    let warm = answered(e.serve_sync(&q2, 4_101).unwrap());
    assert_eq!(warm.via, ServedVia::SourceCache(DataSource::Parent));
    assert_eq!(warm.answer, cold.answer);
    assert!(warm.est_latency < cold.est_latency);
}

fn city_with_waves(section: usize, waves: u64) -> F2cCity {
    let mut city = F2cCity::barcelona().unwrap();
    let mut gen = ReadingGenerator::for_population(SensorType::Traffic, 10, 42);
    for w in 0..waves {
        city.ingest(section, gen.wave(w * 900), w * 900 + 1)
            .unwrap();
    }
    city
}

fn city_query(origin: usize) -> Query {
    Query {
        origin,
        class: ServiceClass::CityWide,
        selector: Selector::Type(SensorType::Traffic),
        scope: Scope::City,
        window: TimeWindow::new(0, 3_600),
        kind: QueryKind::Aggregate,
    }
}

#[test]
fn scatter_admission_requires_a_slot_per_leg() {
    let mut city = city_with_waves(5, 4);
    city.flush_all(4_000).unwrap();
    let cfg = EngineConfig {
        caps: LayerCaps {
            fog2: 9,  // a 10-leg city fan-out cannot fit
            cloud: 0, // and the cloud fallback is saturated too
            ..LayerCaps::default()
        },
        ..EngineConfig::default()
    };
    let mut e = QueryEngine::new(city, cfg);
    match e.serve(&city_query(5), 4_100).unwrap() {
        Outcome::Shed {
            layer,
            class,
            cause,
        } => {
            assert_eq!(layer, Layer::Fog2);
            assert_eq!(class, ServiceClass::CityWide);
            assert_eq!(cause, ShedCause::Capacity);
        }
        other => panic!("expected a fog-2 shed, got {other:?}"),
    }
    assert_eq!(e.stats().shed[Layer::Fog2.index()], 1);
    assert_eq!(e.stats().per_class[ServiceClass::CityWide.index()].shed, 1);
}

#[test]
fn saturated_fanout_reroutes_to_the_cloud_within_budget() {
    let mut city = city_with_waves(5, 4);
    city.flush_all(4_000).unwrap();
    // The fan-out wins the contest but its fog-2 quota cannot hold
    // ten legs; the losing cloud read fits the city-wide deadline
    // budget, so the query is rerouted instead of shed.
    let cfg = EngineConfig {
        caps: LayerCaps {
            fog2: 9,
            ..LayerCaps::default()
        },
        ..EngineConfig::default()
    };
    let mut e = QueryEngine::new(city, cfg);
    let resp = answered(e.serve(&city_query(5), 4_100).unwrap());
    assert_eq!(resp.via, ServedVia::Store(DataSource::Cloud));
    assert_eq!(
        resp.held,
        HeldSlots::single(Layer::Cloud, ServiceClass::CityWide)
    );
    let stats = e.stats();
    let cs = stats.per_class[ServiceClass::CityWide.index()];
    assert_eq!(cs.rerouted, 1);
    assert_eq!(cs.shed, 0);
    assert_eq!(e.stats().shed_total(), 0, "a reroute is not a shed");
    assert_eq!(e.stats().scatter_wins, 1, "the contest still records costs");
}

#[test]
fn shed_fanout_releases_partially_acquired_slots() {
    // No flush: section 5's district needs per-member fog-1 legs
    // while the other nine districts serve (vacuously) from fog-2 —
    // a mixed-layer fan-out. Fog 1 admits its legs, fog 2 refuses,
    // and the rollback must leave *nothing* in flight.
    let city = city_with_waves(5, 4);
    let cfg = EngineConfig {
        caps: LayerCaps {
            fog2: 2, // nine fog-2 legs cannot fit
            ..LayerCaps::default()
        },
        ..EngineConfig::default()
    };
    let mut e = QueryEngine::new(city, cfg);
    match e.serve(&city_query(5), 4_100).unwrap() {
        Outcome::Shed { layer, class, .. } => {
            assert_eq!(layer, Layer::Fog2);
            assert_eq!(class, ServiceClass::CityWide);
        }
        other => panic!("expected a fog-2 shed, got {other:?}"),
    }
    for layer in Layer::ALL {
        assert_eq!(
            e.core.ledger.layer_total(layer),
            0,
            "a shed fan-out must not leak slots at {layer}"
        );
    }
    // The capacity the rollback returned is immediately usable.
    let probe = aggregate_query(5, Scope::Section(5), 0, 1_800);
    answered(e.serve_sync(&probe, 4_200).unwrap());
}

#[test]
fn analytics_borrowing_never_sheds_a_realtime_read() {
    // Fog-1 cap 10 under the default policy: analytics holds no
    // guarantee there and may borrow at most 2 headroom slots. Let
    // it saturate its borrow budget — the real-time guarantee (4
    // slots) must stay untouched.
    let city = city_with_waves(5, 6);
    let cfg = EngineConfig {
        caps: LayerCaps {
            fog1: 10,
            ..LayerCaps::default()
        },
        ..EngineConfig::default()
    };
    let mut e = QueryEngine::new(city, cfg);
    let analytics = |until: u64| Query {
        class: ServiceClass::Analytics,
        ..aggregate_query(5, Scope::Section(5), 0, until)
    };
    answered(e.serve(&analytics(1_800), 6_000).unwrap());
    answered(e.serve(&analytics(2_700), 6_000).unwrap());
    assert_eq!(
        e.core.ledger.borrowed(Layer::Fog1, ServiceClass::Analytics),
        2
    );
    match e.serve(&analytics(3_600), 6_000).unwrap() {
        Outcome::Shed { layer, class, .. } => {
            assert_eq!(layer, Layer::Fog1);
            assert_eq!(class, ServiceClass::Analytics);
        }
        other => panic!("analytics must hit its borrow cap, got {other:?}"),
    }
    // A real-time read sails through on its guaranteed share.
    let rt = Query {
        origin: 5,
        class: ServiceClass::RealTime,
        selector: Selector::Type(SensorType::Traffic),
        scope: Scope::Section(5),
        window: TimeWindow::new(0, 6_000),
        kind: QueryKind::Point,
    };
    answered(e.serve(&rt, 6_000).unwrap());
    assert_eq!(e.stats().per_class[ServiceClass::RealTime.index()].shed, 0);
    assert_eq!(e.stats().per_class[ServiceClass::Analytics.index()].shed, 1);
}

#[test]
fn over_budget_routes_shed_at_plan_time() {
    // Age the window out of both fog tiers: only the cloud holds it,
    // and the ~70 ms WAN round trip busts the 25 ms real-time
    // budget — the read is shed at plan time, holding nothing.
    let mut e = engine_with_data(5, SensorType::Traffic, 2);
    e.flush_all(2_000).unwrap();
    e.flush_all(10 * 86_400).unwrap();
    let rt = Query {
        origin: 5,
        class: ServiceClass::RealTime,
        selector: Selector::Type(SensorType::Traffic),
        scope: Scope::Section(5),
        window: TimeWindow::new(0, 2_000),
        kind: QueryKind::Point,
    };
    let now = 10 * 86_400 + 100;
    match e.serve(&rt, now).unwrap() {
        Outcome::Shed {
            layer,
            class,
            cause,
        } => {
            assert_eq!(layer, Layer::Cloud);
            assert_eq!(class, ServiceClass::RealTime);
            assert_eq!(cause, ShedCause::Deadline);
        }
        other => panic!("expected a deadline shed, got {other:?}"),
    }
    assert_eq!(
        e.stats().per_class[ServiceClass::RealTime.index()].deadline_shed,
        1
    );
    assert_eq!(e.stats().shed_total(), 0, "no capacity was charged");
    assert_eq!(e.core.ledger.layer_total(Layer::Cloud), 0);
    // The analytics budget tolerates the WAN trip: same window, same
    // source, answered.
    let bulk = Query {
        class: ServiceClass::Analytics,
        ..rt
    };
    answered(e.serve_sync(&bulk, now).unwrap());
    assert_eq!(
        e.stats().per_class[ServiceClass::Analytics.index()].slo_met,
        1
    );
}

#[test]
fn evicted_windows_answer_from_warm_sketches_and_match_the_raw_answer() {
    let mut e = engine_with_data(5, SensorType::Traffic, 4);
    // Aligned window, fully settled, then aged past *both* fog
    // tiers' raw retention (1 day / 7 days).
    let q = aggregate_query(5, Scope::Section(5), 0, 3_600);
    e.flush_all(3_600).unwrap();
    let before = answered(e.serve_sync(&q, 3_700).unwrap());
    e.flush_all(10 * 86_400).unwrap();
    let now = 10 * 86_400 + 10;
    let after = answered(e.serve_sync(&q, now).unwrap());
    assert_eq!(after.via, ServedVia::Store(DataSource::WarmSketch(5)));
    assert_eq!(after.layer, Layer::Fog1);
    assert!(e.stats().sketch_served == 1 && e.stats().sketch_hits > 0);
    match (&before.answer, &after.answer) {
        (QueryAnswer::Aggregate(a), QueryAnswer::Aggregate(b)) => {
            assert_eq!(a.count, b.count, "warm sketch matches the raw answer");
            assert_eq!(a.min, b.min);
            assert_eq!(a.max, b.max);
            assert_eq!(a.distinct_sensors, b.distinct_sensors);
        }
        other => panic!("expected aggregates, got {other:?}"),
    }
    // The local sketch merge undercuts every surviving raw source.
    assert!(after.est_latency < e.city().cost_model().cost(AccessOption::Cloud, 96));
}

#[test]
fn stale_sketches_are_refused_until_the_flush_folds_the_straggler() {
    use scc_sensors::{Reading, SensorId, Value};
    let mut e = engine_with_data(5, SensorType::Traffic, 4);
    let q = aggregate_query(5, Scope::Section(5), 0, 3_600);
    e.flush_all(3_600).unwrap();
    let cold = answered(e.serve_sync(&q, 3_700).unwrap());
    e.flush_all(10 * 86_400).unwrap();
    // A backdated straggler created inside the evicted window: the
    // sketch no longer proves the window (pending frontier below the
    // window end) and nothing else can either — refused, not served
    // stale.
    let late = Reading::new(
        SensorId::new(SensorType::Traffic, 901),
        1_000,
        Value::Counter(2),
    );
    let now = 10 * 86_400 + 100;
    e.ingest(5, vec![late], now).unwrap();
    assert!(matches!(
        e.serve_sync(&q, now + 1),
        Err(Error::Unanswerable { .. })
    ));
    // The next flush folds the straggler into the ledger; the warm
    // sketch proves again and the answer includes it.
    e.flush_all(now + 900).unwrap();
    let warm = answered(e.serve_sync(&q, now + 1_000).unwrap());
    assert_eq!(warm.via, ServedVia::Store(DataSource::WarmSketch(5)));
    match (&cold.answer, &warm.answer) {
        (QueryAnswer::Aggregate(a), QueryAnswer::Aggregate(b)) => {
            assert_eq!(b.count, a.count + 1, "the straggler is folded in");
        }
        other => panic!("expected aggregates, got {other:?}"),
    }
}

#[test]
fn warm_sketch_reads_admit_at_reduced_cost() {
    // Cap fog 1 at 1 and keep it occupied by a raw read: with the
    // default divisor (4), the first warm-sketch reads charge no
    // slot and sail through where a raw read would shed.
    let mut city = city_with_waves(5, 4);
    city.flush_all(3_600).unwrap();
    city.flush_all(10 * 86_400).unwrap();
    let cfg = EngineConfig {
        caps: LayerCaps {
            fog1: 1,
            ..LayerCaps::default()
        },
        result_ttl_s: 0, // no result caching: every serve executes
        ..EngineConfig::default()
    };
    let mut e = QueryEngine::new(city, cfg);
    let now = 10 * 86_400 + 10;
    // Occupy the only fog-1 slot with a live (un-evicted) raw read.
    let mut gen = ReadingGenerator::for_population(SensorType::Traffic, 10, 7);
    e.ingest(5, gen.wave(now), now).unwrap();
    let live = aggregate_query(5, Scope::Section(5), now - 10, now + 10);
    let held = answered(e.serve(&live, now).unwrap()).held;
    assert_eq!(
        e.core.ledger.layer_total(Layer::Fog1),
        1,
        "the slot is taken"
    );
    // Three sketch reads ride free (divisor 4)...
    let evicted = aggregate_query(5, Scope::Section(5), 0, 3_600);
    for i in 0..3 {
        let resp = answered(e.serve(&evicted, now + i).unwrap());
        assert_eq!(resp.via, ServedVia::Store(DataSource::WarmSketch(5)));
        assert!(resp.held.is_empty(), "reduced-cost admission: no slot");
    }
    // ...the fourth owes a slot, and the layer is full: it sheds.
    match e.serve(&evicted, now + 3).unwrap() {
        Outcome::Shed { layer, cause, .. } => {
            assert_eq!(layer, Layer::Fog1);
            assert_eq!(cause, ShedCause::Capacity);
        }
        other => panic!("expected the paying sketch read to shed, got {other:?}"),
    }
    e.release_held(held);
    let paying = answered(e.serve(&evicted, now + 4).unwrap());
    assert!(!paying.held.is_empty(), "the due charge is collected");
}

#[test]
fn sketch_legs_cover_district_shards_after_full_raw_eviction() {
    let mut e = engine_with_data(5, SensorType::Traffic, 4);
    let district = e.city().district_of(5);
    let members = e.city().sections_in_district(district).len() as u32;
    e.flush_all(3_600).unwrap();
    e.flush_all(10 * 86_400).unwrap();
    // District aggregate over the evicted window: both fog tiers'
    // raw shards are gone; the warm-sketch member legs fan out and
    // beat the cloud read.
    let q = aggregate_query(5, Scope::District(district), 0, 3_600);
    let resp = answered(e.serve_sync(&q, 10 * 86_400 + 10).unwrap());
    assert_eq!(resp.via, ServedVia::Scatter { legs: members });
    assert_eq!(e.stats().sketch_legs, u64::from(members));
    assert_eq!(e.stats().scatter_wins, 1, "sketch fan-out beats the WAN");
    match &resp.answer {
        QueryAnswer::Aggregate(a) => assert!(a.count > 0),
        other => panic!("expected an aggregate, got {other:?}"),
    }
}

#[test]
fn settled_buckets_prefold_from_the_flush_shipped_ledger() {
    let mut e = engine_with_data(5, SensorType::Traffic, 8);
    e.flush_all(7_200).unwrap();
    // A parent-served district aggregate over settled buckets: every
    // full bucket assembles from the fog-2 ledger the flush shipped
    // into — no archive scan, no partial fills.
    let district = e.city().district_of(5);
    let q = aggregate_query(5, Scope::District(district), 0, 7_200);
    let resp = answered(e.serve_sync(&q, 7_300).unwrap());
    assert_eq!(resp.via, ServedVia::Store(DataSource::Parent));
    assert_eq!(e.stats().prefold_hits, 8, "one per settled bucket");
    assert_eq!(e.stats().partial_fills, 0, "nothing was scanned");
    assert_eq!(e.stats().records_scanned, 0);
    // The answer still matches a fresh engine's scan-based answer.
    let mut scan = engine_with_data(5, SensorType::Traffic, 8);
    let raw = answered(scan.serve_sync(&q, 7_300).unwrap());
    match (&resp.answer, &raw.answer) {
        (QueryAnswer::Aggregate(a), QueryAnswer::Aggregate(b)) => {
            assert_eq!(a.count, b.count);
            assert_eq!(a.min, b.min);
            assert_eq!(a.distinct_sensors, b.distinct_sensors);
        }
        other => panic!("expected aggregates, got {other:?}"),
    }
}

#[test]
fn serving_publishes_metrics_and_wellformed_spans_into_the_city() {
    let mut e = engine_with_data(5, SensorType::Traffic, 4);
    let q = aggregate_query(5, Scope::Section(5), 0, 3_600);
    answered(e.serve_sync(&q, 4_000).unwrap());
    e.sync_gauges();
    let snap = e.city().metrics().snapshot();
    assert_eq!(snap.counter("query_requests{service=query}"), Some(1));
    assert_eq!(snap.counter("query_answered{service=query}"), Some(1));
    assert_eq!(snap.counter("query_store_served{service=query}"), Some(1));
    assert!(
        snap.gauges
            .iter()
            .any(|(k, _)| k.starts_with("qos_in_flight")),
        "gauges sync at snapshot time: {:?}",
        snap.gauges
    );
    // The stats() view and the registry are the same numbers.
    assert_eq!(e.stats().requests, 1);
    // The query lifecycle traced at the requester's site, well-formed.
    let log = e.city().tracer().log(Site::new("fog1", 5)).unwrap();
    assert_eq!(log.open_count(), 0, "no orphan spans after serving");
    assert_eq!(log.malformed(), 0);
    let names: Vec<_> = log.completed().map(|s| s.name).collect();
    for phase in [
        "query",
        "query-plan",
        "query-admit",
        "query-execute",
        "query-deliver",
    ] {
        assert!(names.contains(&phase), "missing {phase} in {names:?}");
    }
    // Children carry depth ≥ 1 under the root query span.
    let root = log.completed().find(|s| s.name == "query").unwrap();
    assert_eq!(root.depth, 0);
    assert!(log
        .completed()
        .filter(|s| s.name != "query")
        .all(|s| s.depth >= 1));
}

#[test]
fn non_local_serving_is_metered_on_the_network() {
    let mut e = engine_with_data(5, SensorType::Traffic, 4);
    e.flush_all(4_000).unwrap();
    let district = e.city().district_of(5);
    let before = e.city().network_bytes();
    let q = aggregate_query(5, Scope::District(district), 0, 3_000);
    answered(e.serve_sync(&q, 4_100).unwrap());
    assert!(e.city().network_bytes() > before);
}

#[test]
fn explain_hash_streams_the_bytes_the_formatted_string_had() {
    // The reservoir keys on these values, and every exported explain
    // with them: the streamed pieces must hash as the `Debug`
    // rendering did, for every variant of every enum a query holds
    // (this is what ties the `*_NAMES` tables to `Debug`), every
    // scope shape, and numbers at both ends of their range.
    let formatted = |q: &Query, now_s: u64| {
        let mut h = crate::workload::FNV_OFFSET;
        crate::workload::fnv1a(&mut h, format!("{q:?}@{now_s}").as_bytes());
        h
    };
    let selectors = SensorType::ALL.into_iter().map(Selector::Type).chain(
        scc_sensors::Category::ALL
            .into_iter()
            .map(Selector::Category),
    );
    let scopes = [
        Scope::Section(0),
        Scope::Section(usize::MAX),
        Scope::District(0),
        Scope::District(usize::MAX),
        Scope::City,
    ];
    let windows = [
        TimeWindow::new(0, 0),
        TimeWindow::new(0, u64::MAX),
        TimeWindow::new(u64::MAX, 0),
        TimeWindow::new(900, 86_400),
    ];
    let kinds = [QueryKind::Point, QueryKind::Range, QueryKind::Aggregate];
    let mut seen = std::collections::BTreeSet::new();
    let mut decisions = 0;
    for selector in selectors {
        for class in ServiceClass::ALL {
            for scope in scopes {
                for window in windows {
                    for kind in kinds {
                        for (origin, now_s) in [(0, 0), (72, 4_000), (usize::MAX, u64::MAX)] {
                            let q = Query {
                                origin,
                                class,
                                selector,
                                scope,
                                window,
                                kind,
                            };
                            let h = ServeCore::explain_hash(&q, now_s);
                            assert_eq!(h, formatted(&q, now_s), "{q:?}@{now_s}");
                            seen.insert(h);
                            decisions += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(decisions, 26 * 4 * 5 * 4 * 3 * 3);
    assert_eq!(seen.len(), decisions, "distinct decisions, distinct keys");
}

/// A real-time point read five and six ring hops across Nou Barris
/// (13 sections), in a window still pending at the target, so neither
/// fog 2 nor the cloud holds it. The network climbs through the parent
/// (2 × 5 ms each way) rather than walk 15–18 ms of ring, so the read
/// is priced and served as a neighbor read inside the 25 ms budget, not
/// deadline-shed.
#[test]
fn a_far_ring_read_is_priced_through_the_parent_and_served_in_budget() {
    let mut city = F2cCity::barcelona().unwrap();
    let ring = city.sections_in_district(7).to_vec();
    assert_eq!(ring.len(), 13);
    let origin = ring[0];
    let far = [(ring[5], 5), (ring[6], 6)];
    for (target, _) in far {
        let mut gen = ReadingGenerator::for_population(SensorType::Traffic, 10, target as u64);
        city.ingest(target, gen.wave(30), 31).unwrap();
    }
    let mut e = QueryEngine::new(city, EngineConfig::default());
    let budget = e.core.cfg.qos.deadline(ServiceClass::RealTime);
    assert_eq!(budget, Duration::from_millis(25));
    for (target, hops) in far {
        assert_eq!(e.city().ring_hops(origin, target), Some(hops));
        let query = Query {
            origin,
            class: ServiceClass::RealTime,
            selector: Selector::Type(SensorType::Traffic),
            scope: Scope::Section(target),
            window: TimeWindow::new(0, 60),
            kind: QueryKind::Point,
        };
        let route = planner::plan(e.city(), &query).unwrap();
        let Choice::Single(plan) = route.choice else {
            panic!("{route:?}");
        };
        assert_eq!(plan.option, AccessOption::Neighbor { hops });
        let resp = answered(e.serve_sync(&query, 60).unwrap());
        assert_eq!(resp.via, ServedVia::Store(DataSource::Neighbor(target)));
        assert!(resp.est_latency <= budget, "{}", resp.est_latency);
    }
}

/// `scan_point`'s oracle: a newest-first walk over the window's records,
/// grouped by creation second. A second holding a selected type is
/// examined whole (every record there counts), and the first that holds
/// a match answers.
fn scan_point_by_walk(store: &TieredStore, query: &Query) -> (Option<PointSample>, u64) {
    let w = query.window;
    let records: Vec<&DataRecord> = store.range(w.from_s, w.until_s).collect();
    let created = |rec: &DataRecord| rec.descriptor().created_s();
    let mut visited = 0u64;
    for at in records.chunk_by(|a, b| created(a) == created(b)).rev() {
        if !at
            .iter()
            .any(|rec| query.selector.matches(rec.sensor_type()))
        {
            continue;
        }
        visited += at.len() as u64;
        // The largest identity wins; among repeats of one sensor, the
        // latest arrival.
        let best = at
            .iter()
            .filter(|rec| query.matches(rec))
            .max_by_key(|rec| rec.reading().sensor().seed_material());
        if let Some(rec) = best {
            let point = PointSample {
                created_s: created(rec),
                sensor: rec.reading().sensor(),
                value: rec.reading().value().magnitude(),
            };
            return (Some(point), visited);
        }
    }
    (None, visited)
}

/// A record of `ty` from sensor `idx`, created at `t` in `section`
/// (two sections per district), reading `value`.
fn located(ty: SensorType, idx: u32, t: u64, section: u16, value: u64) -> DataRecord {
    let reading = Reading::new(
        scc_sensors::SensorId::new(ty, idx),
        t,
        scc_sensors::Value::Counter(value),
    );
    let mut rec = DataRecord::from_reading(reading);
    rec.set_location(section / 2, section);
    rec
}

fn point_query(selector: Selector, scope: Scope, from: u64, until: u64) -> Query {
    Query {
        origin: 0,
        class: ServiceClass::RealTime,
        selector,
        scope,
        window: TimeWindow::new(from, until),
        kind: QueryKind::Point,
    }
}

#[test]
fn point_reads_by_rank_count_what_the_walk_counted() {
    use SensorType::{BicycleFlow, ParkingSpot, Traffic, Weather};
    // A fog-2-shaped store: sections 0..4 interleaved, second by
    // second; Weather reports once, at the oldest second.
    let mut store = TieredStore::permanent();
    let mut batch = vec![located(Weather, 0, 10, 1, 0)];
    for t in 10..20u64 {
        for section in 0..4u16 {
            if section != 3 || t < 13 {
                batch.push(located(Traffic, u32::from(section), t, section, t));
                batch.push(located(Traffic, 9 - u32::from(section), t, section, t));
            }
            batch.push(located(BicycleFlow, u32::from(section), t, section, t));
        }
    }
    store.insert_batch(batch);
    // 107 records: 13 at second 10, 12 at 11 and at 12, 10 from 13 on.
    let (traffic, weather) = (Selector::Type(Traffic), Selector::Type(Weather));
    let urban = Selector::Category(Category::Urban);
    let q = point_query;
    let cases = [
        // A type absent from the window: `None`, and nothing examined.
        (q(Selector::Type(ParkingSpot), Scope::City, 0, 100), None, 0),
        (q(weather, Scope::City, 11, 100), None, 0),
        // Ties at `T*` across sensors: the larger identity wins; the
        // ten records at 19 are examined.
        (q(traffic, Scope::City, 0, 100), Some((19, 9)), 10),
        // A match only at the window's oldest second: the thirteen
        // records there.
        (q(weather, Scope::City, 10, 100), Some((10, 0)), 13),
        (q(weather, Scope::City, 0, 11), Some((10, 0)), 13),
        // Section 3 stopped reporting Traffic after 12: every newer
        // second holds Traffic, none of it in scope — step older,
        // examining seconds 19..=13 (70 records) and then 12.
        (q(traffic, Scope::Section(3), 0, 100), Some((12, 6)), 82),
        (q(traffic, Scope::Section(3), 13, 100), None, 70),
        (q(traffic, Scope::District(1), 0, 100), Some((19, 7)), 10),
        // A category spans types; the newest of any of them is `T*`.
        (q(urban, Scope::Section(3), 0, 100), Some((19, 3)), 10),
        // Empty and inverted windows.
        (q(traffic, Scope::City, 15, 15), None, 0),
        (q(traffic, Scope::City, 18, 12), None, 0),
        (q(traffic, Scope::City, 20, u64::MAX), None, 0),
    ];
    for (q, want, visited) in cases {
        let (point, seen) = scan_point(&store, &q);
        assert_eq!(
            point.map(|p| (p.created_s, p.sensor.index())),
            want,
            "{q:?}"
        );
        assert_eq!(seen, visited, "{q:?}");
        assert_eq!((point, seen), scan_point_by_walk(&store, &q), "{q:?}");
    }
}

#[test]
fn a_point_read_at_an_instant_across_a_chunk_boundary_equals_the_walk() {
    use SensorType::{Traffic, Weather};
    // The archive's first chunk holds 1 024 records: 1 000 at second
    // 10, then 100 at second 11 (positions 1 000..1 100) whose largest
    // Traffic identity sits past the boundary, and the largest
    // Weather one before it.
    let mut store = TieredStore::permanent();
    let mut batch: Vec<DataRecord> = (0..1_000)
        .map(|i| located(Traffic, i, 10, (i % 4) as u16, 0))
        .collect();
    batch.extend((0..100).map(|i| {
        let (ty, idx) = if i < 12 {
            (Weather, 50 - i)
        } else {
            (Traffic, i)
        };
        located(ty, idx, 11, (i % 4) as u16, u64::from(i))
    }));
    store.insert_batch(batch);
    let (start, at) = store.archive().created_at(11);
    assert_eq!(
        (start, at.count()),
        (1_000, 2),
        "second 11 spans two chunks"
    );
    let q = point_query;
    for (query, want) in [
        (
            q(Selector::Type(Traffic), Scope::City, 0, 100),
            Some((11, 99)),
        ),
        (
            q(Selector::Type(Traffic), Scope::Section(2), 0, 100),
            Some((11, 98)),
        ),
        (
            q(Selector::Type(Weather), Scope::City, 0, 100),
            Some((11, 50)),
        ),
        (
            q(Selector::Type(Traffic), Scope::City, 0, 11),
            Some((10, 999)),
        ),
    ] {
        let (point, seen) = scan_point(&store, &query);
        assert_eq!(
            point.map(|p| (p.created_s, p.sensor.index())),
            want,
            "{query:?}"
        );
        assert_eq!(
            (point, seen),
            scan_point_by_walk(&store, &query),
            "{query:?}"
        );
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

    #[test]
    fn scan_point_equals_the_walk_it_replaced(
        // (type pick, sensor index, creation second, section)
        records in proptest::collection::vec((0usize..5, 0u32..3, 0u64..24, 0u16..4), 0..80),
        // Records at the newest second, 24, after the rest: many
        // sensors, and repeats of one sensor, tie at `T*`.
        burst in proptest::collection::vec((0usize..5, 0u32..3, 0u16..4), 0..40),
        evict_before in 0u64..12,
        // (selector pick, scope pick, from, length or inversion,
        // open): an open window is `[newest + 1 - length, newest + 1)`,
        // a live probe's shape.
        queries in proptest::collection::vec(
            (0usize..7, 0usize..8, 0u64..26, 0u64..30, 0u8..3),
            1..24,
        ),
    ) {
        const TYPES: [SensorType; 5] = [
            SensorType::Traffic,
            SensorType::Weather,
            SensorType::BicycleFlow,
            SensorType::ParkingSpot,
            SensorType::NoiseAmbient,
        ];
        // Arrival order is the generated order: late records, equal
        // seconds and repeated sensors (told apart by value) all occur.
        let mut store = TieredStore::new(f2c_core::RetentionPolicy::keep(100));
        let mut arrivals = records
            .iter()
            .zip(0u64..)
            .map(|(&(ty, idx, t, section), nth)| located(TYPES[ty], idx, t, section, nth));
        for rec in arrivals.by_ref().take(records.len() / 3) {
            store.insert(rec);
        }
        store.insert_batch(arrivals.collect());
        let nth = records.len() as u64..;
        store.insert_batch(
            burst
                .iter()
                .zip(nth)
                .map(|(&(ty, idx, section), nth)| located(TYPES[ty], idx, 24, section, nth))
                .collect(),
        );
        store.evict_expired(100 + evict_before);
        let past_newest = store.archive().latest_s().map_or(0, |t| t + 1);
        for &(selector, scope, from, len, open) in &queries {
            let selector = match selector {
                5 => Selector::Category(Category::Urban),
                6 => Selector::Category(Category::Energy),
                ty => Selector::Type(TYPES[ty]),
            };
            let scope = match scope {
                s @ 0..=3 => Scope::Section(s),
                d @ 4..=5 => Scope::District(d - 4),
                6 => Scope::Section(60),
                _ => Scope::City,
            };
            // Lengths past 26 invert the window instead.
            let (from, until) = if open == 0 {
                (past_newest.saturating_sub(len), past_newest)
            } else if len > 26 {
                (from, from.saturating_sub(len - 26))
            } else {
                (from, from + len)
            };
            let q = point_query(selector, scope, from, until);
            proptest::prop_assert_eq!(
                scan_point(&store, &q),
                scan_point_by_walk(&store, &q),
                "{:?}", q
            );
        }
    }
}
