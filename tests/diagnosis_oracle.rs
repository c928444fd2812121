//! The diagnosis-plane oracle: what the engine's admission gates let
//! into the EXPLAIN reservoir and the exemplar slots must equal a
//! by-hand reduction over *every* request — the gates may only skip work
//! for records that lose anyway, never change what is exported.
//!
//! * Sequential (`serve_sync`): the test owns the query stream, so it
//!   explains every planned query itself, keeps the minimum
//!   `(hash, bytes)` per slot and the maximum latency per bucket by hand,
//!   and compares the exports.
//! * Sharded (`parallel::run` at 1 and 4 threads): the stream lives
//!   inside the runtime, so the per-request transcript is the witness —
//!   exemplar maxima and both `seen` tallies are re-derived from it. (The
//!   keep-min brute force under the barrier discipline is an in-crate
//!   test next to the runtime, where the shard-side queries are visible.)

use std::collections::BTreeMap;

use f2c_smartcity::citysim::metrics::bucket_index;
use f2c_smartcity::core::runtime::{populate_city, section_generators};
use f2c_smartcity::core::{F2cCity, Parallelism};
use f2c_smartcity::obs::{ExemplarStore, ExplainStore, Json};
use f2c_smartcity::query::planner::plan_explained;
use f2c_smartcity::query::workload::Mix;
use f2c_smartcity::query::{
    parallel, EngineConfig, Error, LayerCaps, Outcome, Query, QueryEngine, QueryKind, Scope,
    Selector, ServedVia, ServiceClass, ShedCause, TimeWindow, WorkloadConfig,
};
use f2c_smartcity::sensors::{Category, SensorType};

const REQUESTS: u64 = 5_000;
const WARM_S: u64 = 3_600;

/// The E7 bench's tight caps: the fan-out classes shed under them, so
/// shed-after-plan requests are part of the stream.
fn tight_caps() -> EngineConfig {
    EngineConfig {
        caps: LayerCaps {
            fog1: 256,
            fog2: 64,
            cloud: 2,
        },
        ..EngineConfig::default()
    }
}

fn warm_city(threads: usize) -> F2cCity {
    let mut city = F2cCity::barcelona().unwrap();
    city.set_parallelism(Parallelism::new(threads));
    populate_city(&mut city, 20_000, 2017, WARM_S, 900).unwrap();
    city
}

/// The test's own seeded stream (splitmix64), so the program only ever
/// receives generated queries.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One request of the E7 mix (40 real-time / 40 dashboard / 10 analytics
/// / 10 city-wide), in the shapes `workload::gen_query_at` issues.
fn e7_query(rng: &mut SplitMix64, now_s: u64, settled_s: u64, city: &F2cCity) -> Query {
    let origin = rng.below(73) as usize;
    let ty = |rng: &mut SplitMix64| {
        Selector::Type(SensorType::ALL[rng.below(SensorType::ALL.len() as u64) as usize])
    };
    let cat = |rng: &mut SplitMix64| {
        Selector::Category(Category::ALL[rng.below(Category::ALL.len() as u64) as usize])
    };
    let open = |back_s: u64| TimeWindow::new(now_s.saturating_sub(back_s), now_s + 1);
    let settled_hour = TimeWindow::new(settled_s.saturating_sub(3_600), settled_s);
    let (class, selector, scope, window, kind) = match rng.below(100) {
        0..40 => (
            ServiceClass::RealTime,
            ty(rng),
            Scope::Section(origin),
            open(1_800),
            QueryKind::Point,
        ),
        40..50 => (
            ServiceClass::Dashboard,
            ty(rng),
            Scope::Section(origin),
            open(900),
            QueryKind::Range,
        ),
        50..80 => (
            ServiceClass::Dashboard,
            cat(rng),
            Scope::District(city.district_of(origin)),
            settled_hour,
            QueryKind::Aggregate,
        ),
        80..90 => (
            ServiceClass::Analytics,
            cat(rng),
            Scope::District(rng.below(10) as usize),
            TimeWindow::new(rng.below(settled_s / 2 + 1), settled_s),
            QueryKind::Aggregate,
        ),
        90..92 => (
            ServiceClass::CityWide,
            ty(rng),
            Scope::City,
            open(1_800),
            QueryKind::Point,
        ),
        _ => (
            ServiceClass::CityWide,
            cat(rng),
            Scope::City,
            settled_hour,
            QueryKind::Aggregate,
        ),
    };
    Query {
        origin,
        class,
        selector,
        scope,
        window,
        kind,
    }
}

/// The reservoir key of one `(query, instant)` planning decision, by
/// hand: FNV-1a over the query's `Debug` rendering, `@`, the instant.
fn decision_hash(query: &Query, now_s: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{query:?}@{now_s}").bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The by-hand reduction over every request of a run.
#[derive(Default)]
struct ByHand {
    planned: u64,
    answered: u64,
    /// Per reservoir slot: the smallest `(hash, transcript bytes)` offered.
    explains: BTreeMap<u64, (u64, String)>,
    /// Per histogram bucket: the largest answered latency that landed.
    slowest: BTreeMap<usize, u64>,
}

impl ByHand {
    fn planned(&mut self, hash: u64, transcript: String) {
        self.planned += 1;
        let slot = hash % ExplainStore::DEFAULT_SLOTS as u64;
        let offered = (hash, transcript);
        if self.explains.get(&slot).is_none_or(|kept| offered < *kept) {
            self.explains.insert(slot, offered);
        }
    }

    fn answered(&mut self, latency_us: u64) {
        self.answered += 1;
        let slowest = self.slowest.entry(bucket_index(latency_us)).or_default();
        *slowest = (*slowest).max(latency_us);
    }

    /// What `ExplainStore::export` must print for this reduction.
    fn explains_export(&self) -> String {
        let mut doc = Json::obj();
        doc.set("seen", Json::Num(self.planned as f64));
        doc.set("kept", Json::Num(self.explains.len() as f64));
        let records = self
            .explains
            .values()
            .map(|(_, text)| Json::parse(text).unwrap())
            .collect();
        doc.set("records", Json::Arr(records));
        doc.to_pretty()
    }

    /// Holds the exemplar store to the reduction: one exemplar per bucket
    /// that saw an answer, at exactly the bucket's largest latency, whose
    /// trace is a query span tree of that duration.
    fn check_exemplars(&self, store: &ExemplarStore) {
        assert_eq!(store.seen(), self.answered, "every answer is counted");
        assert_eq!(store.kept(), self.slowest.len());
        for (&bucket, &latency_us) in &self.slowest {
            let kept = store
                .exemplar_for(latency_us)
                .unwrap_or_else(|| panic!("bucket {bucket} kept nothing"));
            assert_eq!(kept.latency_us, latency_us, "bucket {bucket}");
            let root = kept
                .trace
                .lines()
                .find(|l| l.contains(" query ") && l.contains(" d=0 "))
                .unwrap_or_else(|| panic!("no root span in {:?}", kept.trace));
            let (start, end) = root.split(' ').nth(2).unwrap().split_once("..").unwrap();
            let spanned = end.parse::<u64>().unwrap() - start.parse::<u64>().unwrap();
            assert_eq!(spanned, latency_us, "bucket {bucket}: {root}");
        }
    }
}

#[test]
fn sequential_reservoirs_equal_the_brute_force_reduction() {
    let city = warm_city(1);
    let mut gens = section_generators(&city.catalog().scaled_down(20_000), 99);
    let mut engine = QueryEngine::new(city, tight_caps());
    engine.flush_all(WARM_S).unwrap();
    let mut rng = SplitMix64(2017);
    let mut by_hand = ByHand::default();
    let (mut edge_hits, mut shed, mut unanswerable) = (0u64, 0u64, 0u64);

    for i in 0..REQUESTS {
        // 4 requests per simulated second; a sensor wave every 300 s and
        // a flush every 900 s keep windows settling under the stream.
        let now_s = WARM_S + 1 + i / 4;
        if i % 4 == 0 && (now_s - WARM_S).is_multiple_of(300) {
            for (section, per_section) in gens.iter_mut().enumerate() {
                for gen in per_section.values_mut() {
                    engine.ingest(section, gen.wave(now_s), now_s).unwrap();
                }
            }
            if (now_s - WARM_S).is_multiple_of(900) {
                engine.flush_all(now_s).unwrap();
            }
        }
        let query = e7_query(&mut rng, now_s, engine.last_flush_s(), engine.city());
        // Explain *every* query up front; serving only reads the city,
        // so this is the transcript the engine would build.
        let transcript = plan_explained(engine.city(), &query)
            .ok()
            .map(|(_, doc)| doc.to_pretty());
        let was_planned = match engine.serve_sync(&query, now_s) {
            Ok(Outcome::Answered(resp)) => {
                by_hand.answered(resp.est_latency.as_micros());
                edge_hits += u64::from(resp.via == ServedVia::EdgeCache);
                resp.via != ServedVia::EdgeCache
            }
            Ok(Outcome::Shed { cause, .. }) => {
                assert_ne!(cause, ShedCause::Fault, "the run is fault-free");
                shed += 1;
                true
            }
            Err(Error::Unanswerable { .. }) => {
                unanswerable += 1;
                false
            }
            Err(e) => panic!("{e}"),
        };
        match transcript {
            Some(transcript) if was_planned => {
                by_hand.planned(decision_hash(&query, now_s), transcript);
            }
            Some(_) => {}
            None => assert!(!was_planned, "a planned query always explains"),
        }
    }

    // The stream exercised every way a request meets the gates.
    assert!(edge_hits > 100 && shed > 0, "{edge_hits} hits, {shed} shed");
    assert_eq!(
        by_hand.planned + edge_hits + unanswerable,
        REQUESTS,
        "every request is an edge hit, a planned query or unanswerable"
    );
    assert!(by_hand.planned > 20 * by_hand.explains.len() as u64);
    assert!(by_hand.slowest.len() >= 4, "several latency buckets filled");

    let city = engine.city();
    assert_eq!(city.explains().seen(), by_hand.planned);
    assert_eq!(
        city.explains().export().to_pretty(),
        by_hand.explains_export()
    );
    by_hand.check_exemplars(city.exemplars());
}

/// Runs the sharded runtime and returns the city-side exports plus the
/// reduction re-derived from the recorded transcript.
fn sharded_run(threads: usize) -> (String, String) {
    let mut engine = QueryEngine::new(warm_city(threads), tight_caps());
    let config = WorkloadConfig {
        seed: 2017,
        requests: REQUESTS,
        // Few users: the budget then spans several ingest waves and a
        // flush, so windows open, settle and shed under the stream.
        users: 24,
        mix: Mix {
            dashboard: 40,
            analytics: 10,
            realtime: 40,
            city: 10,
        },
        start_s: WARM_S,
        ingest_period_s: 120,
        ingest_scale: 20_000,
        record_transcript: true,
        ..WorkloadConfig::default()
    };
    let report = parallel::run(&mut engine, &config).unwrap();
    assert_eq!(report.issued, REQUESTS);

    // Transcript lines: `n;class;A;via;latency_us`, `n;class;S;layer;cause;0`
    // or `n;class;U;;0`.
    let mut by_hand = ByHand::default();
    let transcript = String::from_utf8(report.transcript).unwrap();
    for line in transcript.lines() {
        let fields: Vec<&str> = line.split(';').collect();
        match fields[2] {
            "A" => {
                by_hand.answered(fields[4].parse().unwrap());
                by_hand.planned += u64::from(fields[3] != "EdgeCache");
            }
            "S" => {
                assert_ne!(fields[4], "fault", "the run is fault-free");
                by_hand.planned += 1;
            }
            "U" => {}
            other => panic!("unknown transcript verdict {other:?} in {line:?}"),
        }
    }
    assert_eq!(by_hand.answered, report.answered);
    let shed = report.stats.shed_total() + report.stats.deadline_shed_total();
    assert!(
        shed > 0 && report.stats.edge_hits > 100,
        "shed {shed} edge {}",
        report.stats.edge_hits
    );

    let city = engine.city();
    assert_eq!(
        city.explains().seen(),
        by_hand.planned,
        "threads={threads}: every planned query is counted, built or not"
    );
    assert!(city.explains().kept() > 0);
    by_hand.check_exemplars(city.exemplars());
    (
        city.explains().export().to_pretty(),
        city.exemplars().export().to_pretty(),
    )
}

#[test]
fn sharded_reservoirs_match_the_transcript_at_one_and_four_threads() {
    let one = sharded_run(1);
    let four = sharded_run(4);
    assert_eq!(one.0, four.0, "explains export differs by thread count");
    assert_eq!(one.1, four.1, "exemplars export differs by thread count");
}
