//! The isolated layer profile: each drive calls one public leaf function on
//! a seeded corpus — one simulated hour of scale-50 section waves, with real
//! flush-sized batches rebuilt through `AcquisitionBlock` — and reports
//! median wall ns per operation over [`REPEATS`] repeats, plus heap
//! allocations per operation from one extra counted repeat.
//!
//! `.ns` repeats run with allocation counting switched off, so only the
//! counted repeat pays for the counter.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use citysim::{EventQueue, SimTime};
use f2c_aggregate::sketch::{AggPartial, SketchKey, SketchLedger};
use f2c_aggregate::RedundancyFilter;
use f2c_compress::{StreamDecoder, StreamEncoder};
use f2c_core::runtime::{populate_city, section_generators};
use f2c_core::{F2cCity, ObsScratch, Parallelism, RetentionPolicy, TieredStore};
use f2c_obs::{Labels, MetricsRegistry, Site, Tracer};
use f2c_qos::{ClassLedger, QosPolicy};
use f2c_query::cache::{CacheKey, ResultCache};
use f2c_query::workload::{Mix as LoopMix, WorkloadConfig};
use f2c_query::{
    parallel, plan, scatter, EngineConfig, Query, QueryAnswer, QueryEngine, QueryKind, Scope,
    ServiceClass,
};
use scc_dlc::acquisition::AcquisitionBlock;
use scc_dlc::{DataRecord, PhaseContext};
use scc_sensors::{wire, Catalog, Reading, SensorType};

use crate::alloc;
use crate::querygen::{Mix, QueryGen};
use crate::stats::median;

/// Timed repeats per drive; the reported `.ns` is their median.
pub const REPEATS: usize = 5;
const CORPUS_SCALE: u64 = 50;
const CORPUS_S: u64 = 3_600;

/// The profile: `(metric name, value)` in a fixed order, and any round-trip
/// check that failed.
#[derive(Debug, Default)]
pub struct Profile {
    pub metrics: Vec<(&'static str, f64)>,
    pub check_failures: Vec<String>,
}

impl Profile {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Runs `body` on a fresh `prep()` [`REPEATS`] times and records the
    /// median wall ns per operation as `ns_name`; `body` returns how many
    /// operations it did. With `allocs_name`, one more repeat runs with
    /// allocation counting on. Returns the last repeat's result.
    fn time<S, R>(
        &mut self,
        ns_name: &'static str,
        allocs_name: Option<&'static str>,
        mut prep: impl FnMut() -> S,
        mut body: impl FnMut(S) -> (u64, R),
    ) -> R {
        let mut per_op = Vec::with_capacity(REPEATS);
        let mut last = None;
        for _ in 0..REPEATS {
            let input = black_box(prep());
            let t = Instant::now();
            let (ops, out) = black_box(body(input));
            let ns = t.elapsed().as_nanos() as f64;
            per_op.push(ns / ops.max(1) as f64);
            last = Some(out);
        }
        self.metrics.push((ns_name, median(&per_op)));
        if let Some(name) = allocs_name {
            let input = black_box(prep());
            alloc::set_counting(true);
            let before = alloc::allocs();
            let (ops, out) = black_box(body(input));
            let counted = alloc::allocs() - before;
            alloc::set_counting(false);
            drop(out);
            self.metrics
                .push((name, counted as f64 / ops.max(1) as f64));
        }
        last.expect("REPEATS is positive")
    }
}

struct Wave {
    section: usize,
    now_s: u64,
    readings: Vec<Reading>,
}

/// One flush-sized batch: what one section's acquisition kept in one period.
struct Batch {
    section: usize,
    records: Vec<DataRecord>,
    readings: Vec<Reading>,
}

struct Corpus {
    catalog: Catalog,
    waves: Vec<Wave>,
    offered: u64,
    batches: Vec<Batch>,
    kept: u64,
}

fn acquisition_blocks() -> Vec<AcquisitionBlock> {
    (0..73)
        .map(|s| AcquisitionBlock::new("Barcelona", (s / 8) as u16, s as u16))
        .collect()
}

fn build_corpus(seed: u64) -> Corpus {
    let catalog = Catalog::barcelona().scaled_down(CORPUS_SCALE);
    let mut gens = section_generators(&catalog, seed);
    let mut due: Vec<(u64, SensorType)> = Vec::new();
    for spec in catalog.iter() {
        let every = (spec.tx_interval_secs() * 1e6) as u64;
        let mut t = every;
        while t <= CORPUS_S * 1_000_000 {
            due.push((t, spec.sensor_type()));
            t += every;
        }
    }
    due.sort();
    let mut waves = Vec::new();
    for (at_us, ty) in due {
        let now_s = at_us / 1_000_000;
        for (section, per_section) in gens.iter_mut().enumerate() {
            if let Some(gen) = per_section.get_mut(&ty) {
                waves.push(Wave {
                    section,
                    now_s,
                    readings: gen.wave(now_s),
                });
            }
        }
    }
    let offered = waves.iter().map(|w| w.readings.len() as u64).sum();
    // Rebuild what each section would ship at each 900-s flush.
    let mut blocks = acquisition_blocks();
    let mut open: BTreeMap<(u64, usize), Vec<DataRecord>> = BTreeMap::new();
    for w in &waves {
        let kept = blocks[w.section].ingest(w.readings.clone(), &PhaseContext::at(w.now_s));
        open.entry((w.now_s.saturating_sub(1) / 900, w.section))
            .or_default()
            .extend(kept);
    }
    let batches: Vec<Batch> = open
        .into_iter()
        .filter(|(_, records)| !records.is_empty())
        .map(|((_, section), records)| Batch {
            section,
            readings: records.iter().map(|r| r.reading().clone()).collect(),
            records,
        })
        .collect();
    let kept = batches.iter().map(|b| b.records.len() as u64).sum();
    Corpus {
        catalog,
        waves,
        offered,
        batches,
        kept,
    }
}

fn fold_partials(corpus: &Corpus) -> Vec<(SketchKey, AggPartial)> {
    // As a fog-1 flush does: one partial per (section, type, bucket) per batch.
    let mut out = Vec::new();
    for b in &corpus.batches {
        let mut folded: BTreeMap<SketchKey, AggPartial> = BTreeMap::new();
        for rec in &b.records {
            let key = SketchKey {
                section: b.section as u16,
                ty: rec.sensor_type(),
                bucket_start_s: rec.descriptor().created_s() / 900 * 900,
            };
            folded.entry(key).or_default().absorb(
                rec.reading().value().magnitude(),
                rec.reading().sensor().seed_material(),
            );
        }
        out.extend(folded);
    }
    out
}

fn warmed_city(seed: u64, scale: u64, warm_s: u64) -> Result<F2cCity, String> {
    let mut city = F2cCity::barcelona().map_err(|e| format!("city: {e}"))?;
    city.set_parallelism(Parallelism::new(1));
    populate_city(&mut city, scale, seed, warm_s, 900).map_err(|e| format!("warm-up: {e}"))?;
    Ok(city)
}

/// Threads of the informational `parallel.*.tn` run.
pub fn tn_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Runs every isolated drive.
///
/// # Errors
///
/// When a corpus or a city cannot be built, or a leaf function fails on
/// well-formed input.
pub fn run(seed: u64) -> Result<Profile, String> {
    let mut p = Profile::default();
    let corpus = build_corpus(seed);
    let all_records: Vec<DataRecord> = corpus
        .batches
        .iter()
        .flat_map(|b| b.records.clone())
        .collect();

    // ---- scc-sensors: generator and wire text -------------------------------
    p.time(
        "sensors.wave.ns",
        Some("sensors.wave.allocs"),
        || section_generators(&corpus.catalog, seed),
        |mut gens| {
            let mut n = 0u64;
            for t in [900u64, 1_800, 2_700, 3_600] {
                for per_section in &mut gens {
                    for gen in per_section.values_mut() {
                        n += black_box(gen.wave(t)).len() as u64;
                    }
                }
            }
            (n, ())
        },
    );
    p.time(
        "sensors.wire_encode.ns",
        Some("sensors.wire_encode.allocs"),
        || (),
        |()| {
            let bytes: usize = corpus
                .batches
                .iter()
                .map(|b| wire::encode_batch(&b.readings).len())
                .sum();
            (corpus.kept, bytes)
        },
    );

    // ---- scc-dlc acquisition, f2c-aggregate dedup ---------------------------
    p.time(
        "dlc.acquire.ns",
        Some("dlc.acquire.allocs"),
        || {
            let waves: Vec<Vec<Reading>> =
                corpus.waves.iter().map(|w| w.readings.clone()).collect();
            (acquisition_blocks(), waves)
        },
        |(mut blocks, waves)| {
            let mut kept = 0usize;
            for (w, readings) in corpus.waves.iter().zip(waves) {
                kept += blocks[w.section]
                    .ingest(readings, &PhaseContext::at(w.now_s))
                    .len();
            }
            (corpus.offered, kept)
        },
    );
    p.metrics.push((
        "dlc.acquire.kept_ratio",
        corpus.kept as f64 / corpus.offered as f64,
    ));
    p.time(
        "aggregate.dedup_admit.ns",
        None,
        RedundancyFilter::new,
        |mut filter| {
            let mut admitted = 0u64;
            for w in &corpus.waves {
                for r in &w.readings {
                    admitted += u64::from(filter.admit(r));
                }
            }
            (corpus.offered, admitted)
        },
    );

    // ---- f2c-core::store ----------------------------------------------------
    let fog_store = || TieredStore::new(RetentionPolicy::keep(86_400));
    let store = p.time(
        "store.insert.ns",
        Some("store.insert.allocs"),
        || (fog_store(), all_records.clone()),
        |(mut store, records)| {
            for r in records {
                store.insert(r);
            }
            (corpus.kept, store)
        },
    );
    p.time(
        "store.take_evict.ns",
        None,
        || store.clone(),
        |mut store| {
            let batch = store.take_flush_batch(CORPUS_S);
            store.evict_expired(CORPUS_S);
            (batch.len() as u64, (batch, store))
        },
    );
    p.time(
        "store.range.ns",
        None,
        || (),
        |()| {
            let (mut visited, mut sum) = (0u64, 0u64);
            for from in (0..CORPUS_S).step_by(60) {
                for rec in store.range(from, from + 900) {
                    visited += 1;
                    sum = sum.wrapping_add(rec.descriptor().created_s());
                }
            }
            (visited, sum)
        },
    );

    // ---- f2c-compress::tsenc, and the DEFLATE fallback ----------------------
    let payloads = p.time(
        "tsenc.encode.ns",
        Some("tsenc.encode.allocs"),
        || (0..73).map(|_| StreamEncoder::new()).collect::<Vec<_>>(),
        |mut encoders| {
            let payloads: Result<Vec<Vec<u8>>, _> = corpus
                .batches
                .iter()
                .map(|b| encoders[b.section].encode_batch(&b.readings))
                .collect();
            (corpus.kept, payloads)
        },
    );
    let payloads = payloads.map_err(|e| format!("tsenc encode: {e}"))?;
    let payload_bytes: usize = payloads.iter().map(Vec::len).sum();
    let decoded = p.time(
        "tsenc.decode.ns",
        Some("tsenc.decode.allocs"),
        || (0..73).map(|_| StreamDecoder::new()).collect::<Vec<_>>(),
        |mut decoders| {
            let decoded: Result<Vec<Vec<Reading>>, _> = corpus
                .batches
                .iter()
                .zip(&payloads)
                .map(|(b, bytes)| decoders[b.section].decode_batch(bytes))
                .collect();
            (corpus.kept, decoded)
        },
    );
    p.metrics.push((
        "tsenc.bytes_per_reading",
        payload_bytes as f64 / corpus.kept as f64,
    ));
    match decoded {
        Ok(decoded)
            if decoded
                .iter()
                .zip(&corpus.batches)
                .all(|(d, b)| *d == b.readings) => {}
        Ok(_) => p
            .check_failures
            .push("round trip: tsenc decode_batch(encode_batch(b)) != b".to_owned()),
        Err(e) => p
            .check_failures
            .push(format!("round trip: tsenc decode failed: {e}")),
    }
    let texts: Vec<Vec<u8>> = corpus
        .batches
        .iter()
        .take(64)
        .map(|b| wire::encode_batch(&b.readings))
        .collect();
    let text_bytes: u64 = texts.iter().map(|t| t.len() as u64).sum();
    let deflated = p.time(
        "deflate.compress.ns_per_byte",
        None,
        || (),
        |()| {
            let out: Result<Vec<Vec<u8>>, _> =
                texts.iter().map(|t| f2c_compress::compress(t)).collect();
            (text_bytes, out)
        },
    );
    let deflated = deflated.map_err(|e| format!("deflate compress: {e}"))?;
    let inflated = p.time(
        "deflate.decompress.ns_per_byte",
        None,
        || (),
        |()| {
            let out: Result<Vec<Vec<u8>>, _> = deflated
                .iter()
                .map(|d| f2c_compress::decompress(d))
                .collect();
            (text_bytes, out)
        },
    );
    if inflated.map_err(|e| format!("deflate decompress: {e}"))? != texts {
        p.check_failures
            .push("round trip: decompress(compress(t)) != t".to_owned());
    }
    let deflated_bytes: u64 = deflated.iter().map(|d| d.len() as u64).sum();
    p.metrics
        .push(("deflate.ratio", text_bytes as f64 / deflated_bytes as f64));

    // ---- f2c-aggregate::sketch::partial -------------------------------------
    p.time(
        "partial.absorb.ns",
        None,
        || (),
        |()| {
            let mut acc = AggPartial::empty();
            for rec in &all_records {
                acc.absorb(
                    rec.reading().value().magnitude(),
                    rec.reading().sensor().seed_material(),
                );
            }
            (corpus.kept, acc)
        },
    );
    let partials = fold_partials(&corpus);
    let n_partials = partials.len() as u64;
    let encoded = p.time(
        "partial.encode.ns",
        None,
        || (),
        |()| {
            let out: Vec<Vec<u8>> = partials.iter().map(|(_, part)| part.encode()).collect();
            (n_partials, out)
        },
    );
    let decoded = p.time(
        "partial.decode.ns",
        None,
        || (),
        |()| {
            let out: Result<Vec<AggPartial>, _> =
                encoded.iter().map(|b| AggPartial::decode(b)).collect();
            (n_partials, out)
        },
    );
    match decoded {
        Ok(decoded)
            if decoded
                .iter()
                .zip(&partials)
                .all(|(d, (_, part))| d == part) => {}
        Ok(_) => p
            .check_failures
            .push("round trip: AggPartial::decode(encode(p)) != p".to_owned()),
        Err(e) => p
            .check_failures
            .push(format!("round trip: AggPartial decode failed: {e}")),
    }
    p.time(
        "partial.merge.ns",
        None,
        || (),
        |()| {
            let mut acc = AggPartial::empty();
            for (_, part) in &partials {
                acc.merge(part);
            }
            (n_partials, acc)
        },
    );
    let encoded_bytes: usize = encoded.iter().map(Vec::len).sum();
    p.metrics.push((
        "partial.encoded_bytes",
        encoded_bytes as f64 / n_partials as f64,
    ));

    // ---- f2c-aggregate::sketch::ledger --------------------------------------
    let new_ledger = || SketchLedger::new(900).expect("900 s is a valid bucket");
    let mut ledger = p.time("ledger.fold.ns", None, new_ledger, |mut ledger| {
        for (key, part) in &partials {
            ledger.fold(*key, part, 1);
        }
        (n_partials, ledger)
    });
    p.time("ledger.fold_encoded.ns", None, new_ledger, |mut ledger| {
        let ok = partials
            .iter()
            .zip(&encoded)
            .filter(|((key, _), bytes)| ledger.fold_encoded(*key, bytes, 1).is_ok())
            .count();
        (n_partials, ok)
    });
    for section in 0..73 {
        ledger.seal(section, CORPUS_S);
    }
    p.time(
        "ledger.covers.ns",
        None,
        || (),
        |()| {
            let mut covered = 0u64;
            for round in 0..50u64 {
                for section in 0..73u16 {
                    covered += u64::from(ledger.covers(section, (round % 4) * 900, CORPUS_S));
                }
            }
            (50 * 73, covered)
        },
    );
    p.time(
        "ledger.merge_range.ns",
        None,
        || (),
        |()| {
            let mut acc = AggPartial::empty();
            for section in 0..73u16 {
                for ty in SensorType::ALL {
                    ledger.merge_range(section, ty, 0, CORPUS_S, &mut acc);
                }
            }
            // Per bucket probed: four 900-s buckets per call.
            (73 * SensorType::ALL.len() as u64 * (CORPUS_S / 900), acc)
        },
    );

    // ---- f2c-qos::admission -------------------------------------------------
    let caps = EngineConfig::default().caps;
    let new_qos = || ClassLedger::new([caps.fog1, caps.fog2, caps.cloud], &QosPolicy::default());
    for (name, class, want) in [
        ("qos.acquire_release.ns", ServiceClass::RealTime, [1, 0, 0]),
        (
            "qos.scatter_acquire_release.ns",
            ServiceClass::CityWide,
            [0, 10, 0],
        ),
    ] {
        p.time(name, None, new_qos, |mut qos| {
            let mut admitted = 0u64;
            for _ in 0..100_000 {
                if qos.try_acquire(class, want).is_ok() {
                    admitted += 1;
                    qos.release(class, want);
                }
            }
            (100_000, admitted)
        });
    }

    // ---- f2c-query::planner, cache, scatter — on a warmed city --------------
    let mut city = warmed_city(seed, 200, 3_600)?;
    let settled = 3_600;
    let queries = |mix: Mix, keep: fn(&Query) -> bool, n: usize| -> Vec<Query> {
        let mut gen = QueryGen::new(seed, mix);
        std::iter::repeat_with(|| gen.next(settled + 60, settled, |s| city.district_of(s)))
            .filter(keep)
            .take(n)
            .collect()
    };
    let only = |class: u64| Mix {
        realtime: if class == 0 { 100 } else { 0 },
        dashboard: if class == 1 { 100 } else { 0 },
        analytics: 0,
        citywide: if class == 2 { 100 } else { 0 },
    };
    let section_q = queries(only(0), |_| true, 2_000);
    let district_q = queries(only(1), |q| matches!(q.scope, Scope::District(_)), 2_000);
    let city_q = queries(only(2), |q| q.kind == QueryKind::Aggregate, 2_000);
    for (ns, allocs, qs) in [
        ("planner.plan_section.ns", None, &section_q),
        ("planner.plan_district.ns", None, &district_q),
        (
            "planner.plan_city.ns",
            Some("planner.plan_city.allocs"),
            &city_q,
        ),
    ] {
        let planned = p.time(
            ns,
            allocs,
            || (),
            |()| {
                let ok = qs
                    .iter()
                    .filter(|q| black_box(plan(&city, q)).is_ok())
                    .count();
                (qs.len() as u64, ok)
            },
        );
        if planned != qs.len() {
            return Err(format!(
                "{ns}: only {planned} of {} queries planned",
                qs.len()
            ));
        }
    }
    let cfg = EngineConfig::default();
    let keys: Vec<CacheKey> = city_q.iter().map(CacheKey::from).collect();
    let (resident, absent) = keys.split_at(cfg.result_capacity.min(keys.len() / 2));
    let answer = QueryAnswer::Point(None);
    let mut cache = p.time(
        "cache.result_put.ns",
        None,
        || ResultCache::new(cfg.result_ttl_s, cfg.result_capacity),
        |mut cache| {
            for key in resident {
                cache.put(*key, answer.clone(), settled, 1);
            }
            (resident.len() as u64, cache)
        },
    );
    for (name, probe) in [
        ("cache.result_hit.ns", resident),
        ("cache.result_miss.ns", absent),
    ] {
        p.time(
            name,
            None,
            || (),
            |()| {
                let hits = probe
                    .iter()
                    .filter(|k| cache.get(k, settled + 1, 1).is_some())
                    .count();
                (probe.len() as u64, hits)
            },
        );
    }
    let legs: Vec<AggPartial> = partials
        .iter()
        .take(73)
        .map(|(_, part)| part.clone())
        .collect();
    p.time(
        "scatter.merge_aggregates.ns",
        None,
        || vec![legs.clone(); 100],
        |fanouts| {
            let n = fanouts.len() as u64 * legs.len() as u64;
            let answers: Vec<QueryAnswer> =
                fanouts.into_iter().map(scatter::merge_aggregates).collect();
            (n, answers)
        },
    );
    let range_legs: Vec<Vec<DataRecord>> = all_records
        .chunks(500)
        .take(10)
        .map(<[DataRecord]>::to_vec)
        .collect();
    let range_records: u64 = range_legs.iter().map(|l| l.len() as u64).sum();
    p.time(
        "scatter.merge_ranges.ns",
        None,
        || range_legs.clone(),
        |legs| (range_records, scatter::merge_ranges(legs)),
    );

    // ---- f2c-obs, citysim::event: the fixed overhead ------------------------
    p.time(
        "obs.counter_add.ns",
        None,
        MetricsRegistry::new,
        |mut reg| {
            let id = reg.counter("bench_probe", Labels::new().service("bench"));
            for i in 0..1_000_000u64 {
                reg.add(id, black_box(i & 1));
            }
            (1_000_000, reg.counter_value(id))
        },
    );
    p.time(
        "obs.span.ns",
        Some("obs.span.allocs"),
        Tracer::new,
        |mut tracer| {
            let site = Site::new("fog1", 0);
            for i in 0..100_000u64 {
                let token = tracer.open(site, "query", i);
                tracer.close(token, i + 1);
            }
            (100_000, tracer)
        },
    );
    p.time(
        "obs.snapshot.ns",
        None,
        || (),
        |()| {
            let series: usize = (0..20)
                .map(|_| city.metrics().snapshot().counters.len())
                .sum();
            (20, series)
        },
    );
    let mut idle = ObsScratch::new();
    p.time(
        "obs.absorb_idle.ns",
        None,
        || (),
        |()| {
            for _ in 0..10_000 {
                city.absorb_scratch(black_box(&mut idle));
            }
            (10_000, ())
        },
    );
    p.time(
        "event.schedule_pop.ns",
        None,
        EventQueue::<u32>::new,
        |mut queue| {
            let mut popped = 0u64;
            for i in 0..100_000u64 {
                queue.schedule_at(
                    SimTime::from_micros(i.wrapping_mul(0x9E37_79B9) % 1_000_000 + 1_000_000),
                    i as u32,
                );
            }
            while queue.pop().is_some() {
                popped += 1;
            }
            (100_000, popped)
        },
    );

    // ---- f2c-query::parallel (informational) --------------------------------
    let mut us_per_request = [0.0f64; 2];
    for (slot, threads) in [1, tn_threads()].into_iter().enumerate() {
        let mut city = warmed_city(seed, 2_000, 4 * 3_600)?;
        city.set_parallelism(Parallelism::new(threads));
        let mut engine = QueryEngine::new(city, EngineConfig::default());
        let config = WorkloadConfig {
            seed,
            requests: 30_000,
            users: 600,
            mix: LoopMix {
                dashboard: 40,
                analytics: 10,
                realtime: 40,
                city: 10,
            },
            start_s: 4 * 3_600,
            ingest_scale: 2_000,
            ..WorkloadConfig::default()
        };
        let t = Instant::now();
        let report =
            parallel::run(&mut engine, &config).map_err(|e| format!("parallel::run: {e}"))?;
        us_per_request[slot] = t.elapsed().as_secs_f64() * 1e6 / report.issued.max(1) as f64;
        if report.answered == 0 {
            return Err("parallel::run answered nothing".to_owned());
        }
    }
    p.metrics
        .push(("parallel.us_per_request.t1", us_per_request[0]));
    p.metrics
        .push(("parallel.us_per_request.tn", us_per_request[1]));
    p.metrics
        .push(("parallel.speedup", us_per_request[0] / us_per_request[1]));
    Ok(p)
}
