//! Query-correctness conformance: every planner-routed answer must equal
//! a brute-force scan over *all* records resident anywhere in the
//! hierarchy (deduplicated across tiers — upward movement replicates).
//!
//! This is the load-bearing check behind the planner's completeness
//! predicate: if the cost model ever routes a window to a layer that
//! does not hold all of it (aged-out retention, unflushed pendings), the
//! answer diverges from the oracle and the case fails with the query.

use std::collections::HashSet;

use f2c_core::F2cCity;
use f2c_query::{
    AggPartial, EngineConfig, Outcome, Query, QueryAnswer, QueryEngine, QueryKind, Scope, Selector,
    TimeWindow,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use scc_dlc::DataRecord;
use scc_sensors::{Category, ReadingGenerator, SensorType};

/// Tier-independent identity/projection of a record: (sensor, created,
/// value bits). Descriptors mutate as records climb (classification at
/// the cloud), so comparisons project down to the observation itself.
fn projection(rec: &DataRecord) -> (u64, u64, u64) {
    (
        rec.reading().sensor().seed_material(),
        rec.descriptor().created_s(),
        rec.reading().value().magnitude().to_bits(),
    )
}

/// Every record resident anywhere in the hierarchy, deduplicated across
/// tiers by (sensor, creation time).
fn hierarchy_records(city: &F2cCity) -> Vec<DataRecord> {
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    let mut out = Vec::new();
    let mut gather = |store: &f2c_core::TieredStore| {
        for rec in store.range(0, u64::MAX) {
            let key = (
                rec.reading().sensor().seed_material(),
                rec.descriptor().created_s(),
            );
            if seen.insert(key) {
                out.push(rec.clone());
            }
        }
    };
    for s in 0..city.section_count() {
        gather(city.fog1(s).store());
    }
    for d in 0..10 {
        gather(city.fog2(d).store());
    }
    gather(city.cloud().store());
    out
}

/// Brute-force answer over the deduplicated hierarchy, in canonical
/// (created, sensor) order.
fn oracle(records: &[DataRecord], query: &Query) -> QueryAnswer {
    let mut matching: Vec<&DataRecord> = records.iter().filter(|r| query.matches(r)).collect();
    matching.sort_by_key(|r| {
        (
            r.descriptor().created_s(),
            r.reading().sensor().seed_material(),
        )
    });
    match query.kind {
        QueryKind::Point => QueryAnswer::Point(matching.last().map(|r| f2c_query::PointSample {
            created_s: r.descriptor().created_s(),
            sensor: r.reading().sensor(),
            value: r.reading().value().magnitude(),
        })),
        QueryKind::Range => QueryAnswer::Records(matching.into_iter().cloned().collect()),
        QueryKind::Aggregate => {
            let mut acc = AggPartial::empty();
            for r in matching {
                f2c_query::model::absorb_record(&mut acc, r);
            }
            QueryAnswer::Aggregate(f2c_query::model::finalize(&acc))
        }
    }
}

/// Asserts an engine answer equals the oracle's (records compared as
/// projected multisets; aggregates field for field, sums included).
fn assert_answers_match(
    got: &QueryAnswer,
    want: &QueryAnswer,
    query: &Query,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (QueryAnswer::Point(g), QueryAnswer::Point(w)) => {
            let gp = g.map(|p| (p.sensor.seed_material(), p.created_s, p.value.to_bits()));
            let wp = w.map(|p| (p.sensor.seed_material(), p.created_s, p.value.to_bits()));
            prop_assert_eq!(gp, wp, "point mismatch for {:?}", query);
        }
        (QueryAnswer::Records(g), QueryAnswer::Records(w)) => {
            let mut gk: Vec<_> = g.iter().map(projection).collect();
            gk.sort_unstable();
            let mut wk: Vec<_> = w.iter().map(projection).collect();
            wk.sort_unstable();
            prop_assert_eq!(gk, wk, "range mismatch for {:?}", query);
        }
        (QueryAnswer::Aggregate(g), QueryAnswer::Aggregate(w)) => {
            prop_assert_eq!(g, w, "aggregate mismatch for {:?}", query);
        }
        _ => {
            return Err(TestCaseError::fail(format!(
                "answer shape mismatch for {query:?}: {got:?} vs {want:?}"
            )))
        }
    }
    Ok(())
}

/// Builds a city with `waves` ingest waves at each of `sections` (one
/// sensor type per section, rotating through the catalog), optionally
/// flushing and aging per the flags, and returns it with the final
/// simulated instant.
fn build_city(
    sections: &[usize],
    waves: u64,
    seed: u64,
    flush_mid: bool,
    age_days: u64,
) -> (F2cCity, u64) {
    let mut city = F2cCity::barcelona().unwrap();
    for (i, &section) in sections.iter().enumerate() {
        let ty = SensorType::ALL[(seed as usize + i * 5) % SensorType::ALL.len()];
        let mut gen = ReadingGenerator::for_population(ty, 6, seed ^ (section as u64) << 8);
        for w in 0..waves {
            city.ingest(section, gen.wave(w * 600), w * 600 + 1)
                .unwrap();
        }
    }
    let mut now = waves * 600;
    if flush_mid {
        city.flush_all(now).unwrap();
    }
    if age_days > 0 {
        now = age_days * 86_400;
        // Flushing at a later instant runs retention eviction at every
        // tier, exercising the aged-out upward fallback.
        city.flush_all(now).unwrap();
    }
    (city, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn planner_routed_answers_equal_brute_force(
        seed in 0u64..10_000,
        sections in proptest::collection::vec(0usize..73, 1..4),
        waves in 2u64..6,
        shape in 0u8..8,
        origin in 0usize..73,
        from_s in 0u64..3_000,
        len_s in 1u64..4_000,
        align in 0u8..2,
    ) {
        // Bucket-aligned windows are the warm-sketch-eligible ones: when
        // an aged shape routes them to `DataSource::WarmSketch` or to
        // warm-sketch scatter legs, the answer must still equal the
        // brute-force scan like every other route.
        let (from_s, len_s) = if align == 1 {
            (from_s - from_s % 900, (len_s / 900 + 1) * 900)
        } else {
            (from_s, len_s)
        };
        let flush_mid = shape & 1 != 0;
        // 0 or 3 days: 3 days outlives fog-1 retention (1 day) so the
        // aged-out fallback to fog 2 is exercised, but not fog 2's (7 d).
        let age_days = if shape & 2 != 0 { u64::from(shape >> 2) * 3 } else { 0 };
        let (city, now) = build_city(&sections, waves, seed, flush_mid, age_days);
        let records = hierarchy_records(&city);
        let mut engine = QueryEngine::new(city, EngineConfig::default());

        let selector = if shape & 4 != 0 {
            Selector::Type(SensorType::ALL[(seed as usize) % SensorType::ALL.len()])
        } else {
            Selector::Category(Category::ALL[(seed as usize) % Category::ALL.len()])
        };
        let target = sections[seed as usize % sections.len()];
        // Remote scopes matter: the origin is arbitrary, so the district
        // scopes cover same-district (parent), sibling-fog-2 and
        // scatter-gather routes, and City exercises the full fan-out.
        let scopes = [
            Scope::Section(target),
            Scope::Section(origin),
            Scope::District(engine.city().district_of(target)),
            Scope::District((engine.city().district_of(target) + 5) % 10),
            Scope::City,
        ];
        let window = TimeWindow::new(from_s, from_s + len_s);
        for scope in scopes {
            for kind in [QueryKind::Point, QueryKind::Range, QueryKind::Aggregate] {
                // Analytics has the widest deadline budget, so the oracle
                // exercises every route (aged-out cloud fallbacks
                // included) without tripping plan-time deadline sheds —
                // QoS behavior has its own tests.
                let class = f2c_query::ServiceClass::Analytics;
                let query = Query { origin, class, selector, scope, window, kind };
                match engine.serve_sync(&query, now) {
                    Ok(Outcome::Answered(resp)) => {
                        assert_answers_match(&resp.answer, &oracle(&records, &query), &query)?;
                        // A cache hit must reproduce the stored answer.
                        match engine.serve_sync(&query, now) {
                            Ok(Outcome::Answered(again)) => {
                                prop_assert_eq!(&again.answer, &resp.answer,
                                    "cache changed the answer for {:?}", &query);
                                prop_assert!(again.est_latency <= resp.est_latency,
                                    "a warm hit must not cost more than the cold path");
                            }
                            other => return Err(TestCaseError::fail(format!(
                                "repeat of answered query failed: {other:?}"))),
                        }
                    }
                    Ok(Outcome::Shed { .. }) => {
                        return Err(TestCaseError::fail(
                            "default caps must not shed a serial workload".to_owned(),
                        ));
                    }
                    Err(f2c_query::Error::Unanswerable { .. }) => {
                        // Permitted only when no single tier can prove
                        // completeness — never after the hierarchy has
                        // fully settled (flushed with nothing pending).
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("hard error: {e}"))),
                }
            }
        }
    }

    #[test]
    fn settled_hierarchies_answer_every_query(
        seed in 0u64..10_000,
        section in 0usize..73,
        waves in 2u64..5,
        origin in 0usize..73,
    ) {
        // After a full settle (flush with nothing pending), every window
        // bounded by the flush instant must be answerable somewhere.
        let (city, now) = build_city(&[section], waves, seed, true, 0);
        let records = hierarchy_records(&city);
        let mut engine = QueryEngine::new(city, EngineConfig::default());
        let district = engine.city().district_of(section);
        for (scope, kind) in [
            (Scope::Section(section), QueryKind::Range),
            (Scope::District(district), QueryKind::Aggregate),
            (Scope::City, QueryKind::Aggregate),
            (Scope::City, QueryKind::Range),
        ] {
            let query = Query {
                origin,
                class: f2c_query::ServiceClass::Analytics,
                selector: Selector::Type(SensorType::ALL[(seed as usize + 25) % 21]),
                scope,
                window: TimeWindow::new(0, now),
                kind,
            };
            match engine.serve_sync(&query, now) {
                Ok(Outcome::Answered(resp)) => {
                    assert_answers_match(&resp.answer, &oracle(&records, &query), &query)?;
                }
                other => return Err(TestCaseError::fail(format!(
                    "settled query must answer, got {other:?} for {query:?}"))),
            }
        }
    }
}
