//! The four workloads and the pass that runs one of them: build and warm a
//! city (set-up), then drive a closed loop — one client, one thread, no
//! wall-clock think time — through a fixed span of *simulated* time.
//!
//! A pass is a pure function of `(workload, seed)`: every pass of a run
//! replays the same inputs, so wall-clock metrics are medians over repeats
//! and every count must repeat exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use f2c_core::runtime::{populate_city, section_generators};
use f2c_core::{DataSource, F2cCity, IngestOutcome, Parallelism};
use f2c_query::{EngineConfig, Outcome, QueryAnswer, QueryEngine, Scope, ServedVia};
use scc_sensors::{Reading, ReadingGenerator, SensorType};

use crate::alloc;
use crate::checks;
use crate::querygen::{Mix, QueryGen};
use crate::rng::Fnv;
use crate::spans::{self, Recorder};
use crate::stats::percentile;

/// Every workload flushes the hierarchy on the paper's 15-minute period.
pub const FLUSH_PERIOD_S: u64 = 900;

/// One workload: sizes are per pass.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// What `ops_per_s` counts and `call_p*_us` times on this workload.
    pub op: &'static str,
    pub call: &'static str,
    /// Table-I populations are divided by this.
    pub scale: u64,
    /// Simulated seconds of `populate_city` warm-up (set-up, not measured).
    pub warm_s: u64,
    /// Simulated seconds the measured loop covers.
    pub sim_s: u64,
    /// Fixed arrival rate on the event clock; 0 = no requests.
    pub req_per_sim_s: u64,
    pub mix: Mix,
}

impl Spec {
    pub fn serves(&self) -> bool {
        self.req_per_sim_s > 0
    }

    pub fn requests_per_pass(&self) -> u64 {
        self.sim_s * self.req_per_sim_s
    }
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "city-write",
        why: "Write path only: generate, acquire/dedup, store insert, sketch fold, tsenc encode, hop, decode+verify; no queries, so the serving layers idle.",
        op: "sensor reading offered",
        call: "F2cCity::ingest of one section wave",
        scale: 50,
        warm_s: 900,
        sim_s: 4 * 3_600,
        req_per_sim_s: 0,
        mix: Mix::NONE,
    },
    Spec {
        name: "serve-edge",
        why: "80% real-time point reads + 20% dashboards: the engine's fixed per-request cost (plan, admit, spans, registry, a short fog-1 scan) dominates; scatter, ledger and codec idle.",
        op: "request",
        call: "QueryEngine::serve_sync",
        scale: 200,
        warm_s: 4 * 3_600,
        sim_s: 1_200,
        req_per_sim_s: 100,
        mix: Mix {
            realtime: 80,
            dashboard: 20,
            analytics: 0,
            citywide: 0,
        },
    },
    Spec {
        name: "serve-fanout",
        why: "50% city-wide + 50% analytics over thousands of distinct keys: city planning, 10- and 73-leg scatter, sketch-ledger merges and long scans; the result caches mostly miss.",
        op: "request",
        call: "QueryEngine::serve_sync",
        scale: 200,
        warm_s: 4 * 3_600,
        sim_s: 1_350,
        req_per_sim_s: 16,
        mix: Mix {
            realtime: 0,
            dashboard: 0,
            analytics: 50,
            citywide: 50,
        },
    },
    Spec {
        name: "city-mixed",
        why: "40/40/10/10 request mix beside dense ingest on the same stores, ledgers and caches: every flush wave invalidates caches, so a cost moved between insert, flush and scan shows here.",
        op: "request",
        call: "QueryEngine::serve_sync",
        scale: 50,
        warm_s: 3_600,
        sim_s: 2_700,
        req_per_sim_s: 16,
        mix: Mix {
            realtime: 40,
            dashboard: 40,
            analytics: 10,
            citywide: 10,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How a request was answered, as the traced run buckets `query.serve`.
pub const VIAS: [&str; 7] = [
    "edge_cache",
    "source_cache",
    "store_fog1",
    "store_fog2",
    "store_cloud",
    "warm_sketch",
    "scatter",
];

fn via_index(via: &ServedVia) -> usize {
    match via {
        ServedVia::EdgeCache => 0,
        ServedVia::SourceCache(_) => 1,
        ServedVia::Store(DataSource::Local | DataSource::Neighbor(_)) => 2,
        ServedVia::Store(DataSource::Parent | DataSource::RemoteFog2(_)) => 3,
        ServedVia::Store(DataSource::Cloud) => 4,
        ServedVia::Store(DataSource::WarmSketch(_)) => 5,
        ServedVia::Scatter { .. } => 6,
    }
}

/// Registry series the traced run reads (as deltas over the measured loop),
/// by canonical key. A key the program no longer publishes reads `None`.
pub const REGISTRY_KEYS: [(&str, &str); 11] = [
    ("requests", "query_requests{service=query}"),
    ("edge_hits", "query_cache_hits{service=query,kind=edge}"),
    ("source_hits", "query_cache_hits{service=query,kind=source}"),
    ("partial_hits", "query_partials{service=query,kind=hit}"),
    ("partial_fills", "query_partials{service=query,kind=fill}"),
    ("prefold_hits", "query_partials{service=query,kind=prefold}"),
    ("records_scanned", "query_records_scanned{service=query}"),
    ("scatter_served", "query_scatter_served{service=query}"),
    ("scatter_legs", "query_scatter_legs{service=query}"),
    (
        "sketch_bytes_hop1",
        "flush_sketch_bytes{layer=fog1,service=sketch}",
    ),
    (
        "sketch_bytes_hop2",
        "flush_sketch_bytes{layer=fog2,service=sketch}",
    ),
];

/// What a traced pass records on top of a plain one.
#[derive(Debug)]
pub struct Trace {
    pub rec: Recorder,
    pub serve_allocs: u64,
    pub write_allocs: u64,
    pub via_ns: [u64; VIAS.len()],
    pub via_count: [u64; VIAS.len()],
    /// Requests by scope (section, district, city): the planner's op counts.
    pub scope_count: [u64; 3],
    /// Registry deltas in [`REGISTRY_KEYS`] order.
    pub registry: Vec<Option<u64>>,
}

impl Trace {
    pub(crate) fn new() -> Self {
        Self {
            rec: Recorder::with_capacity(1 << 20),
            serve_allocs: 0,
            write_allocs: 0,
            via_ns: [0; VIAS.len()],
            via_count: [0; VIAS.len()],
            scope_count: [0; 3],
            registry: Vec::new(),
        }
    }

    pub fn registry(&self, name: &str) -> Option<u64> {
        let i = REGISTRY_KEYS.iter().position(|(n, _)| *n == name)?;
        self.registry.get(i).copied().flatten()
    }
}

/// Everything about a pass that is a pure function of `(workload, seed)`.
/// Must be identical on every pass of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exact {
    /// FNV over every operation's result, in order.
    pub outcome_hash: u64,
    pub offered: u64,
    pub stored: u64,
    pub flush_waves: u64,
    pub requests: u64,
    pub answered: u64,
    /// Bytes metered on both flush uplinks during the measured loop.
    pub uplink_bytes: u64,
    /// `QueryResponse::est_latency` percentiles (event clock, µs).
    pub sim_p50_us: u64,
    pub sim_p99_us: u64,
    pub cloud_len: u64,
}

#[derive(Debug)]
pub struct PassOut {
    pub setup_s: f64,
    /// Primary operations completed (readings offered, or requests).
    pub ops: u64,
    /// Wall ns of every primary call, in call order.
    pub call_ns: Vec<u32>,
    /// Wall ns of every segment of the loop, in order: a segment ends after
    /// each background event (wave or flush) and at the end of the loop, so
    /// the segments sum to the loop and mean the same work on every pass.
    pub seg_ns: Vec<u64>,
    /// Calls into the system: ingests + flushes + requests.
    pub attempted: u64,
    pub failed: u64,
    pub exact: Exact,
    pub trace: Option<Trace>,
    pub check_failures: Vec<String>,
}

impl PassOut {
    /// Wall seconds of the measured loop (its segments sum to it).
    pub fn wall_s(&self) -> f64 {
        self.seg_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// The system under test: `city-write` drives the bare city, the serving
/// workloads go through the engine that wraps it.
enum System {
    City(Box<F2cCity>),
    Engine(Box<QueryEngine>),
}

impl System {
    fn city(&self) -> &F2cCity {
        match self {
            System::City(c) => c,
            System::Engine(e) => e.city(),
        }
    }

    fn ingest(
        &mut self,
        section: usize,
        readings: Vec<Reading>,
        now_s: u64,
    ) -> Option<IngestOutcome> {
        match self {
            System::City(c) => c.ingest(section, readings, now_s).ok(),
            System::Engine(e) => e.ingest(section, readings, now_s).ok(),
        }
    }

    fn flush_all(&mut self, now_s: u64) -> Option<(u64, u64)> {
        match self {
            System::City(c) => c.flush_all(now_s).ok(),
            System::Engine(e) => e.flush_all(now_s).ok(),
        }
    }
}

fn uplink_total(city: &F2cCity) -> u64 {
    let (hop1, hop2) = city.uplink_flush_bytes();
    hop1 + hop2
}

fn read_registry(city: &F2cCity) -> Vec<Option<u64>> {
    let snap = city.metrics().snapshot();
    REGISTRY_KEYS
        .iter()
        .map(|(_, key)| snap.counter(key))
        .collect()
}

/// Runs `f` and times it — on a traced pass as a span called `name`, whose
/// heap allocations are counted too. Returns `(wall ns, allocations, result)`.
fn timed<R>(
    trace: &mut Option<Trace>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> (u64, u64, R) {
    match trace {
        None => {
            let t = Instant::now();
            let out = f();
            (t.elapsed().as_nanos() as u64, 0, out)
        }
        Some(tr) => {
            let before = alloc::allocs();
            let id = tr.rec.open(name, request);
            let out = f();
            let ns = tr.rec.close(id);
            (ns, alloc::allocs() - before, out)
        }
    }
}

/// Wall ns as the `u32` the per-call vectors hold (saturating at 4.29 s).
fn clamp_ns(ns: u64) -> u32 {
    ns.min(u64::from(u32::MAX)) as u32
}

/// Runs one pass of `spec`. `traced` records spans, allocation counts and
/// registry deltas; `check_answers` adds the brute-force comparison after the
/// timed loop (conservation is checked on every pass).
///
/// # Errors
///
/// When set-up fails — the measured loop counts failures instead.
pub fn run_pass(
    spec: &Spec,
    seed: u64,
    traced: bool,
    check_answers: bool,
) -> Result<PassOut, String> {
    // ---- set-up ----------------------------------------------------------
    let t_setup = Instant::now();
    let mut city = F2cCity::barcelona().map_err(|e| format!("city: {e}"))?;
    // One client on one thread: PARALLELISM in the environment is ignored.
    city.set_parallelism(Parallelism::new(1));
    let warm = populate_city(&mut city, spec.scale, seed, spec.warm_s, FLUSH_PERIOD_S)
        .map_err(|e| format!("warm-up: {e}"))?;
    let scaled = city.catalog().scaled_down(spec.scale);
    let mut gens: Vec<BTreeMap<SensorType, ReadingGenerator>> =
        section_generators(&scaled, seed ^ 1);
    let mut sys = if spec.serves() {
        let mut engine = QueryEngine::new(city, EngineConfig::default());
        // The settling flush stamps the engine's settled frontier.
        engine
            .flush_all(spec.warm_s)
            .map_err(|e| format!("settling flush: {e}"))?;
        System::Engine(Box::new(engine))
    } else {
        System::City(Box::new(city))
    };
    let mut qgen = QueryGen::new(seed, spec.mix);
    let requests = spec.requests_per_pass();
    let mut call_ns: Vec<u32> = Vec::with_capacity(if spec.serves() {
        requests as usize
    } else {
        1 << 16
    });
    let mut sim_us: Vec<u32> = Vec::with_capacity(requests as usize);
    let setup_s = t_setup.elapsed().as_secs_f64();

    // ---- schedule (µs on the event clock) ----------------------------------
    let warm_us = spec.warm_s * 1_000_000;
    let end_us = (spec.warm_s + spec.sim_s) * 1_000_000;
    // (next due, interval, type), in catalog order: the tie-break.
    let mut waves: Vec<(u64, u64, SensorType)> = scaled
        .iter()
        .map(|s| {
            let every = (s.tx_interval_secs() * 1e6) as u64;
            (warm_us + every, every, s.sensor_type())
        })
        .collect();
    let mut next_flush = warm_us + FLUSH_PERIOD_S * 1_000_000;
    let req_step = if spec.serves() {
        1_000_000 / spec.req_per_sim_s
    } else {
        u64::MAX
    };
    let mut next_req = if spec.serves() { warm_us } else { u64::MAX };

    let mut hash = Fnv::new();
    let (mut offered, mut stored, mut flush_waves, mut served, mut answered) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let uplink0 = uplink_total(sys.city());
    let mut trace = traced.then(Trace::new);
    let registry0 = traced.then(|| read_registry(sys.city()));

    // ---- measured loop -----------------------------------------------------
    alloc::set_counting(traced);
    let pass_span = trace.as_mut().map(|t| t.rec.open(spans::PASS, 0));
    let t_loop = Instant::now();
    let mut seg_ns: Vec<u64> = Vec::with_capacity(1 << 12);
    let mut seg_from = 0u64;
    let mut end_segment = |seg_ns: &mut Vec<u64>| {
        let now = t_loop.elapsed().as_nanos() as u64;
        seg_ns.push(now - seg_from);
        seg_from = now;
    };
    loop {
        // Earliest background event; waves before a flush due at the same instant.
        let (w, &(wave_at, _, _)) = waves
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.0)
            .expect("the catalog is not empty");
        let bg_at = wave_at.min(next_flush);
        // Requests due before it (and before the end) go first.
        let horizon = bg_at.min(end_us);
        while next_req < horizon {
            let now_s = next_req / 1_000_000;
            next_req += req_step;
            served += 1;
            attempted += 1;
            let System::Engine(engine) = &mut sys else {
                unreachable!("only serving workloads schedule requests")
            };
            let settled = engine.last_flush_s();
            let query = qgen.next(now_s, settled, |s| engine.city().district_of(s));
            let (ns, allocs, outcome) = timed(&mut trace, spans::SERVE, served, || {
                engine.serve_sync(&query, now_s)
            });
            if let Some(tr) = &mut trace {
                tr.serve_allocs += allocs;
                let via = match &outcome {
                    Ok(Outcome::Answered(resp)) => Some(via_index(&resp.via)),
                    _ => None,
                };
                tr.rec
                    .tag_last(query.class.label(), via.map_or("failed", |v| VIAS[v]));
                if let Some(v) = via {
                    tr.via_ns[v] += ns;
                    tr.via_count[v] += 1;
                }
                tr.scope_count[match query.scope {
                    Scope::Section(_) => 0,
                    Scope::District(_) => 1,
                    Scope::City => 2,
                }] += 1;
            }
            call_ns.push(clamp_ns(ns));
            match outcome {
                Ok(Outcome::Answered(resp)) => {
                    answered += 1;
                    let est_us = resp.est_latency.as_micros();
                    sim_us.push(clamp_ns(est_us));
                    hash.u64(via_index(&resp.via) as u64);
                    hash.u64(resp.response_bytes);
                    hash.u64(est_us);
                    hash.u64(match &resp.answer {
                        QueryAnswer::Point(p) => u64::from(p.is_some()),
                        QueryAnswer::Records(r) => r.len() as u64,
                        QueryAnswer::Aggregate(a) => a.count,
                    });
                }
                // Shed or error: all four workloads are fault-free and far
                // below the admission caps, so either is a failure.
                Ok(Outcome::Shed { .. }) | Err(_) => {
                    failed += 1;
                    hash.u64(u64::MAX);
                }
            }
        }
        if bg_at > end_us {
            end_segment(&mut seg_ns);
            break;
        }
        let now_s = bg_at / 1_000_000;
        if wave_at <= next_flush {
            let (_, every, ty) = waves[w];
            waves[w].0 += every;
            let wave_span = trace.as_mut().map(|t| t.rec.open(spans::WAVE, 0));
            for (section, per_section) in gens.iter_mut().enumerate() {
                let Some(gen) = per_section.get_mut(&ty) else {
                    continue;
                };
                attempted += 1;
                let (_, made, readings) = timed(&mut trace, spans::GENERATE, 0, || gen.wave(now_s));
                let (ns, kept, outcome) = timed(&mut trace, spans::INGEST, 0, || {
                    sys.ingest(section, readings, now_s)
                });
                if let Some(tr) = &mut trace {
                    tr.write_allocs += made + kept;
                }
                if !spec.serves() {
                    call_ns.push(clamp_ns(ns));
                }
                match outcome {
                    Some(o) => {
                        offered += o.offered;
                        stored += o.stored;
                        hash.u64(o.stored);
                    }
                    None => failed += 1,
                }
            }
            if let (Some(tr), Some(id)) = (trace.as_mut(), wave_span) {
                tr.rec.close(id);
            }
        } else {
            next_flush += FLUSH_PERIOD_S * 1_000_000;
            attempted += 1;
            flush_waves += 1;
            let (_, allocs, shipped) = timed(&mut trace, spans::FLUSH, 0, || sys.flush_all(now_s));
            if let Some(tr) = &mut trace {
                tr.write_allocs += allocs;
            }
            match shipped {
                Some((hop1, hop2)) => {
                    hash.u64(hop1);
                    hash.u64(hop2);
                }
                None => failed += 1,
            }
        }
        end_segment(&mut seg_ns);
    }
    if let (Some(tr), Some(id)) = (trace.as_mut(), pass_span) {
        tr.rec.close(id);
    }
    alloc::set_counting(false);

    // ---- after the timed phase: counters and output checks -----------------
    let uplink_bytes = uplink_total(sys.city()) - uplink0;
    if let (Some(tr), Some(before)) = (trace.as_mut(), registry0) {
        tr.registry = read_registry(sys.city())
            .into_iter()
            .zip(before)
            .map(|(after, before)| Some(after? - before.unwrap_or(0)))
            .collect();
    }
    let end_s = spec.warm_s + spec.sim_s;
    let mut check_failures = Vec::new();
    if sys.flush_all(end_s).is_none() {
        check_failures.push("settling flush failed".to_owned());
    }
    if let Err(e) = checks::conservation(sys.city(), warm.stored + stored) {
        check_failures.push(e);
    }
    if check_answers {
        if let System::Engine(engine) = &mut sys {
            if let Err(e) = checks::brute_force(engine, seed, end_s) {
                check_failures.push(e);
            }
        }
    }

    sim_us.sort_unstable();
    let sim = |p: f64| {
        if sim_us.is_empty() {
            0
        } else {
            u64::from(percentile(&sim_us, p))
        }
    };
    Ok(PassOut {
        setup_s,
        ops: if spec.serves() { served } else { offered },
        call_ns,
        seg_ns,
        attempted,
        failed,
        exact: Exact {
            outcome_hash: hash.0,
            offered,
            stored,
            flush_waves,
            requests: served,
            answered,
            uplink_bytes,
            sim_p50_us: sim(0.5),
            sim_p99_us: sim(0.99),
            cloud_len: sys.city().cloud().store().len() as u64,
        },
        trace,
        check_failures,
    })
}
