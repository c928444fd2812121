//! The closed loop: the workload of [`crate::workload`] partitioned by
//! district onto worker threads. This is the only loop that drives the
//! engine — one thread runs the same shard schedule inline.
//!
//! The city is split into one **logical shard per district** — a fixed
//! decomposition, independent of the thread count — and each shard owns
//! its district's users, its own `ServeCore` (result caches, a
//! *partitioned slice* of the admission ledger, buffered observability)
//! and its own event queue and RNG. Between synchronization points the
//! shards advance independently against a shared `&F2cCity` snapshot:
//! serving only ever *reads* the city, and every observable side effect
//! (metrics, spans, incidents, network metering) lands in the shard's
//! [`f2c_core::ObsScratch`].
//!
//! Synchronization happens at **barriers** — the global flush-wave and
//! ingest-wave instants. Every shard runs its queue strictly up to the
//! barrier time; the coordinator then absorbs each shard's scratch into
//! the city **in canonical district order**, applies the flush or the
//! ingest wave, and releases the shards into the next span. Because the
//! shard decomposition, the per-shard event streams, and the merge order
//! are all independent of how many worker threads carry the shards,
//! every run artifact — the transcript, its FNV hash, the metric
//! snapshot, traces and the incident timeline — is byte-identical at
//! any [`f2c_core::Parallelism`] (`PARALLELISM=1` reproduces
//! `PARALLELISM=8` exactly). `tests/parallel.rs` holds that oracle.
//!
//! Two latent shared-state hazards are resolved by construction:
//!
//! * **Admission slices** — the global [`LayerCaps`] are partitioned
//!   across shards (`partition_caps`): fog-1 slots proportionally to
//!   the district's section count (largest-remainder, minimum 1);
//!   fog-2 and cloud budgets replicate per shard so multi-leg fan-outs
//!   stay admissible. A shard only ever acquires and releases against
//!   its own slice, so there is no cross-shard acquire or rollback —
//!   and no ordering dependence.
//! * **Latency histograms** — each shard observes its answered
//!   requests' latencies into its own scratch registry, absorbed into
//!   the city's `query_latency_us{…}` series at every barrier in
//!   district order like every other observable. Histogram merges are
//!   commutative, so the series equal one merge at the end of the run.

use std::fmt::Write as _;

use citysim::event::EventQueue;
use citysim::time::{Duration, SimTime};
use f2c_core::runtime::section_generators;
use f2c_core::{run_shards, F2cCity, Layer};
use f2c_obs::{HistogramId, Labels, MetricsRegistry};
use f2c_qos::{ShedCause, CLASS_COUNT};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::engine::response::{LayerCaps, Outcome, ServedVia};
use crate::engine::{stats::layer_label, QueryEngine, ServeCore};
use crate::workload::{
    fnv1a, gen_query_at, think, validate, DiurnalCurve, FlashCrowd, ServiceClass, User,
    WorkloadConfig, WorkloadReport, FNV_OFFSET,
};
use crate::{Error, Result};

/// Splits the global admission caps into per-district slices.
///
/// Fog-1 slots are apportioned proportionally to each district's
/// section count by largest remainder (ties to the lower district
/// index, minimum 1): fog-1 serving is origin-local and every origin
/// belongs to exactly one shard, so the slices conserve the city-wide
/// budget without starving anyone. Fog-2 and cloud slots are **not**
/// divided — each shard keeps the full budget, because those layers
/// serve district- and city-scoped queries whose fan-outs hold one
/// slot per *leg* (a 10-district scatter needs 10 fog-2 slots at
/// once; a tenth-sized slice could never admit it). Each shard thus
/// runs the exact admission arithmetic a [`QueryEngine`] would run if
/// only that shard's users existed; the aggregate in-flight bound
/// relaxes to per-shard, which is the documented cost of shard-local
/// admission (no cross-shard slot traffic, no ordering dependence).
pub(crate) fn partition_caps(total: LayerCaps, section_counts: &[usize]) -> Vec<LayerCaps> {
    let total_sections: u64 = section_counts.iter().map(|&c| c as u64).sum::<u64>().max(1);
    let mut fog1: Vec<u32> = Vec::with_capacity(section_counts.len());
    let mut rems: Vec<(u64, usize)> = Vec::with_capacity(section_counts.len());
    let mut assigned = 0u64;
    for (d, &count) in section_counts.iter().enumerate() {
        let share = u64::from(total.fog1) * count as u64;
        fog1.push((share / total_sections) as u32);
        assigned += share / total_sections;
        rems.push((share % total_sections, d));
    }
    rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut leftover = u64::from(total.fog1).saturating_sub(assigned);
    for &(_, d) in &rems {
        if leftover == 0 {
            break;
        }
        fog1[d] += 1;
        leftover -= 1;
    }
    (0..section_counts.len())
        .map(|d| LayerCaps {
            fog1: fog1[d].max(1),
            fog2: total.fog2,
            cloud: total.cloud,
        })
        .collect()
}

/// A shard-local event: user ticks and slot releases. Flush and ingest
/// are coordinator barriers, never shard events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Shard-local user `u` issues their next request.
    Tick(u32),
    /// A simulated response completed: release its admission slots
    /// (always against this shard's own ledger slice).
    Release(crate::engine::response::HeldSlots),
}

/// A user's next think time: class nominal, scaled by the diurnal
/// intensity, then by the flash-crowd divisor.
fn next_think(
    user: &User,
    now_s: u64,
    diurnal: Option<DiurnalCurve>,
    rng: &mut SmallRng,
) -> Duration {
    let base = think(user.class, rng);
    let milli = diurnal.map_or(1_000, |curve| curve.intensity_milli(now_s));
    let scaled = base.as_micros() * 1_000 / milli;
    Duration::from_micros((scaled / u64::from(user.think_divisor)).max(1))
}

/// The run's latency series, `query_latency_us{…}`: per serving layer,
/// per service class, and over scatter-gather executions.
#[derive(Debug, Clone, Copy)]
struct LatencyIds {
    layer: [HistogramId; 3],
    class: [HistogramId; CLASS_COUNT],
    scatter: HistogramId,
}

impl LatencyIds {
    /// Registers (or finds) every series in `reg`.
    fn register(reg: &mut MetricsRegistry) -> Self {
        let q = Labels::new().service("query");
        Self {
            layer: Layer::ALL
                .map(|layer| reg.histogram("query_latency_us", q.layer(layer_label(layer)))),
            class: ServiceClass::ALL
                .map(|class| reg.histogram("query_latency_us", q.class(class.label()))),
            scatter: reg.histogram("query_latency_us", q.kind("scatter")),
        }
    }
}

/// One district shard: everything it needs to advance between barriers
/// without touching another shard or mutating the city.
struct Shard {
    /// The district's fog-1 sections — the origin pool for its users.
    sections: Vec<usize>,
    core: ServeCore,
    rng: SmallRng,
    users: Vec<User>,
    queue: EventQueue<Ev>,
    /// Requests this shard must issue (the global budget, dealt
    /// round-robin across shards with steady users).
    quota: u64,
    issued: u64,
    shed_during_flash: [u64; CLASS_COUNT],
    /// The latency series in `core`'s scratch registry.
    latency: LatencyIds,
    sim_end_s: u64,
    transcript: Vec<u8>,
    transcript_hash: u64,
    line: String,
    /// First hard serving error, reported at the next barrier.
    failed: Option<Error>,
}

impl Shard {
    /// Processes every queued event strictly before `deadline`
    /// (`None` drains the queue). Runs on a worker thread; only reads
    /// `city`.
    fn run_until(
        &mut self,
        city: &F2cCity,
        deadline: Option<SimTime>,
        config: &WorkloadConfig,
        crowds: &[FlashCrowd],
    ) {
        if self.failed.is_some() {
            return;
        }
        while let Some(next) = self.queue.peek_time() {
            if deadline.is_some_and(|d| next >= d) {
                return;
            }
            let Some((at, ev)) = self.queue.pop() else {
                return;
            };
            let now_s = at.as_secs();
            match ev {
                Ev::Release(held) => self.core.ledger.release(held.class(), held.slots()),
                Ev::Tick(u) => {
                    if self.issued >= self.quota {
                        continue;
                    }
                    let user = self.users[u as usize];
                    if user.retires_at_s.is_some_and(|end| now_s >= end) {
                        continue;
                    }
                    self.issued += 1;
                    self.sim_end_s = now_s;
                    let class = user.class;
                    let in_flash = crowds.iter().any(|c| c.active_at(now_s));
                    let origin = self.sections[self.rng.gen_range(0..self.sections.len())];
                    let query = gen_query_at(
                        class,
                        now_s,
                        origin,
                        self.core.last_flush_s,
                        city,
                        &mut self.rng,
                    );
                    let issued = self.issued;
                    self.line.clear();
                    let next_at = match self.core.serve(city, &query, now_s) {
                        Ok(Outcome::Answered(resp)) => {
                            let m = self.core.obs.metrics_mut();
                            m.observe(self.latency.layer[resp.layer.index()], resp.est_latency);
                            m.observe(self.latency.class[class.index()], resp.est_latency);
                            if matches!(resp.via, ServedVia::Scatter { .. }) {
                                m.observe(self.latency.scatter, resp.est_latency);
                            }
                            let done = at + resp.est_latency;
                            if !resp.held.is_empty() {
                                self.queue.schedule_at(done, Ev::Release(resp.held));
                            }
                            // `fmt::Write for String` never fails.
                            let _ = write!(
                                self.line,
                                "{issued};{class:?};A;{:?};{}",
                                resp.via,
                                resp.est_latency.as_micros()
                            );
                            done + next_think(&user, now_s, config.diurnal, &mut self.rng)
                        }
                        Ok(Outcome::Shed {
                            layer,
                            class: shed_class,
                            cause,
                        }) => {
                            if in_flash && cause == ShedCause::Capacity {
                                self.shed_during_flash[shed_class.index()] += 1;
                            }
                            let _ = write!(
                                self.line,
                                "{issued};{shed_class:?};S;{layer};{};0",
                                cause.label()
                            );
                            match cause {
                                // Quota pressure drains as in-flight work
                                // completes: retry after half a think.
                                ShedCause::Capacity => {
                                    at + Duration::from_micros(
                                        next_think(&user, now_s, config.diurnal, &mut self.rng)
                                            .as_micros()
                                            / 2,
                                    )
                                }
                                // A deadline shed cannot succeed until
                                // the hierarchy state changes (a flush, an
                                // eviction), a fault shed until the outage
                                // window ends: abandon, come back after a
                                // full think.
                                ShedCause::Deadline | ShedCause::Fault => {
                                    at + next_think(&user, now_s, config.diurnal, &mut self.rng)
                                }
                            }
                        }
                        Err(Error::Unanswerable { .. }) => {
                            let _ = write!(self.line, "{issued};{class:?};U;;0");
                            at + next_think(&user, now_s, config.diurnal, &mut self.rng)
                        }
                        Err(e) => {
                            self.failed = Some(e);
                            return;
                        }
                    };
                    self.line.push('\n');
                    fnv1a(&mut self.transcript_hash, self.line.as_bytes());
                    if config.record_transcript {
                        self.transcript.extend_from_slice(self.line.as_bytes());
                    }
                    if self.issued < self.quota {
                        self.queue.schedule_at(next_at, Ev::Tick(u));
                    }
                }
            }
        }
    }
}

/// Runs one closed-loop workload against `engine`, sharded by district
/// onto the city's configured [`f2c_core::Parallelism`] worker threads.
///
/// The run opens with a settling flush at `start_s` (stamping the
/// settled frontier), then interleaves user requests with the
/// background ingest and flush barriers on one deterministic event clock
/// until `requests` have been issued and the in-flight tail has drained.
/// Users think per class, retry per shed cause, join and leave with
/// their flash crowd, and scale every think time by the diurnal curve.
/// The population is dealt round-robin across the district shards, each
/// user's queries originate from their home district, and every shard
/// draws from its own seeded RNG and ledger slice — so the report (and
/// every city observable) is byte-identical at **any** thread count.
///
/// The per-request transcript numbers requests *per shard* and the
/// report concatenates shard transcripts in district order;
/// `transcript_hash` is the FNV-1a fold of the per-shard rolling hashes
/// in that same order.
///
/// # Errors
///
/// [`Error::BadQuery`] on a degenerate configuration; hierarchy/network
/// errors from serving or the background waves.
pub fn run(engine: &mut QueryEngine, config: &WorkloadConfig) -> Result<WorkloadReport> {
    let crowds = validate(config)?;
    let threads = engine.city().parallelism();
    engine.flush_all(config.start_s)?;
    let stats0 = engine.stats();

    let mut ingest_gens = (config.ingest_period_s > 0).then(|| {
        section_generators(
            &engine
                .city()
                .catalog()
                .scaled_down(config.ingest_scale.max(1)),
            config.seed ^ 0x9E37_79B9_7F4A_7C15,
        )
    });

    let (engine_core, city) = engine.core_parts();
    let districts = city.district_count();
    let section_count = city.section_count();
    let counts: Vec<usize> = (0..districts)
        .map(|d| city.sections_in_district(d).len())
        .collect();
    let slices = partition_caps(engine_core.cfg.caps, &counts);
    // Registered up front, so a class nobody answered still exports its
    // (empty) series.
    LatencyIds::register(city.metrics_mut());

    let mut shards: Vec<Shard> = (0..districts)
        .map(|d| {
            let mut cfg = engine_core.cfg;
            cfg.caps = slices[d];
            let mut core = ServeCore::new(cfg, section_count, districts);
            core.last_flush_s = config.start_s;
            let latency = LatencyIds::register(core.obs.metrics_mut());
            Shard {
                sections: city.sections_in_district(d).to_vec(),
                core,
                // Each shard owns an independent stream derived from the
                // master seed and its district index.
                rng: SmallRng::seed_from_u64(
                    config.seed ^ (d as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ),
                users: Vec::new(),
                queue: EventQueue::new(),
                quota: 0,
                issued: 0,
                shed_during_flash: [0; CLASS_COUNT],
                latency,
                sim_end_s: config.start_s,
                transcript: Vec::new(),
                transcript_hash: FNV_OFFSET,
                line: String::new(),
                failed: None,
            }
        })
        .collect();

    // Deal the steady population round-robin across districts, arrivals
    // staggered so users do not tick in lockstep forever; then the flash
    // crowds' temporary members.
    let start = SimTime::from_secs(config.start_s);
    for u in 0..config.users {
        let d = (u as usize) % districts;
        let class = config.mix.sample(&mut shards[d].rng);
        let local = shards[d].users.len() as u32;
        shards[d].users.push(User {
            class,
            think_divisor: 1,
            retires_at_s: None,
        });
        shards[d].queue.schedule_at(
            start + Duration::from_millis(u64::from(u) * 31),
            Ev::Tick(local),
        );
    }
    for crowd in &crowds {
        let arrive = SimTime::from_secs(crowd.start_s.max(config.start_s));
        let leaves = crowd.start_s.saturating_add(crowd.duration_s);
        for i in 0..crowd.users {
            let d = (i as usize) % districts;
            let local = shards[d].users.len() as u32;
            shards[d].users.push(User {
                class: crowd.class,
                think_divisor: crowd.think_divisor,
                retires_at_s: Some(leaves),
            });
            shards[d].queue.schedule_at(
                arrive + Duration::from_millis(u64::from(i) * 17),
                Ev::Tick(local),
            );
        }
    }

    // Deal the request budget across shards that have at least one
    // steady (non-retiring) user — a crowd-only shard could retire
    // before filling a quota and stall the run.
    let active: Vec<usize> = (0..districts)
        .filter(|&d| shards[d].users.iter().any(|u| u.retires_at_s.is_none()))
        .collect();
    debug_assert!(!active.is_empty(), "validate() guarantees users ≥ 1");
    let per = config.requests / active.len() as u64;
    let rem = (config.requests % active.len() as u64) as usize;
    for (k, &d) in active.iter().enumerate() {
        shards[d].quota = per + u64::from(k < rem);
    }

    let mut next_flush =
        (config.flush_period_s > 0).then(|| start + Duration::from_secs(config.flush_period_s));
    let mut next_ingest = ingest_gens
        .as_ref()
        .map(|_| start + Duration::from_secs(config.ingest_period_s));
    let mut last_flush_s = config.start_s;
    let mut epoch_bumps = 0u64;

    loop {
        let barrier = match (next_flush, next_ingest) {
            (Some(f), Some(i)) => Some(f.min(i)),
            (Some(f), None) => Some(f),
            (None, Some(i)) => Some(i),
            (None, None) => None,
        };
        // Advance every shard to the barrier on the worker threads; the
        // city is a shared read-only snapshot for the whole span.
        {
            let city_ref: &F2cCity = city;
            let crowds_ref: &[FlashCrowd] = &crowds;
            run_shards(threads, &mut shards, |_, shard| {
                shard.run_until(city_ref, barrier, config, crowds_ref);
            });
        }
        for shard in &mut shards {
            if let Some(e) = shard.failed.take() {
                return Err(e);
            }
        }
        // Merge buffered observability in canonical district order —
        // never completion order — so the global view is independent of
        // the thread count.
        for shard in &mut shards {
            city.absorb_scratch(&mut shard.core.obs);
        }
        let Some(at) = barrier else { break };
        let now_s = at.as_secs();
        let unfinished = shards.iter().any(|s| s.issued < s.quota);
        if next_flush == Some(at) {
            city.flush_all(now_s)?;
            last_flush_s = now_s;
            for shard in &mut shards {
                shard.core.last_flush_s = now_s;
            }
            next_flush = unfinished.then(|| at + Duration::from_secs(config.flush_period_s));
        }
        if let Some(gens) = ingest_gens.as_mut().filter(|_| next_ingest == Some(at)) {
            // The cache-frontier invariant, hierarchy-wide: a wave
            // backdated behind *any* shard's served frontier bumps
            // every shard's epoch identically.
            let frontier = shards
                .iter()
                .map(|s| s.core.served_frontier_s)
                .max()
                .unwrap_or(0);
            let mut bumps = 0u64;
            for (section, per_section) in gens.iter_mut().enumerate() {
                for gen in per_section.values_mut() {
                    let wave = gen.wave(now_s);
                    if wave.iter().any(|r| r.timestamp_s() < frontier) {
                        bumps += 1;
                    }
                    city.ingest(section, wave, now_s)?;
                }
            }
            if bumps > 0 {
                epoch_bumps += bumps;
                for shard in &mut shards {
                    shard.core.extra_epochs += bumps;
                }
            }
            next_ingest = unfinished.then(|| at + Duration::from_secs(config.ingest_period_s));
        }
    }

    // Keep the engine's own core coherent with what the run did to the
    // city, so post-run serving and gauge syncs see the same frontier
    // and epoch the shards saw.
    engine_core.last_flush_s = last_flush_s;
    engine_core.extra_epochs += epoch_bumps;
    engine_core.served_frontier_s = engine_core.served_frontier_s.max(
        shards
            .iter()
            .map(|s| s.core.served_frontier_s)
            .max()
            .unwrap_or(0),
    );

    // Fold the shard reports in district order.
    let mut issued = 0u64;
    let mut shed_during_flash = [0u64; CLASS_COUNT];
    let mut sim_end_s = config.start_s;
    let mut transcript = Vec::new();
    let mut transcript_hash = FNV_OFFSET;
    for shard in &shards {
        issued += shard.issued;
        for (total, &n) in shed_during_flash.iter_mut().zip(&shard.shed_during_flash) {
            *total += n;
        }
        sim_end_s = sim_end_s.max(shard.sim_end_s);
        fnv1a(&mut transcript_hash, &shard.transcript_hash.to_le_bytes());
        if config.record_transcript {
            transcript.extend_from_slice(&shard.transcript);
        }
    }

    // Sync the point-in-time gauges, so a bench export after the run
    // sees them as the run left them.
    engine.sync_gauges();

    let stats = engine.stats().zip(&stats0, |after, before| after - before);
    Ok(WorkloadReport {
        issued,
        answered: stats.answered,
        stats,
        shed_during_flash,
        sim_end_s,
        transcript_hash,
        transcript,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::response::EngineConfig;
    use f2c_core::runtime::populate_city;
    use f2c_core::{F2cCity, Parallelism};

    #[test]
    fn cap_partition_conserves_generous_caps_and_floors_tiny_ones() {
        let counts = [4usize, 6, 8, 3, 6, 5, 11, 13, 7, 10];
        let generous = partition_caps(LayerCaps::default(), &counts);
        assert_eq!(generous.len(), 10);
        // Largest remainder conserves the fog-1 total exactly; fog-2
        // and cloud budgets replicate per shard so a city-wide scatter
        // (one slot per district leg) stays admissible from any shard.
        assert_eq!(
            generous.iter().map(|c| u64::from(c.fog1)).sum::<u64>(),
            u64::from(LayerCaps::default().fog1)
        );
        assert!(generous
            .iter()
            .all(|c| c.fog2 == LayerCaps::default().fog2 && c.cloud == LayerCaps::default().cloud));
        // Proportionality: the biggest district (13 sections) gets more
        // fog-1 slots than the smallest (3).
        assert!(generous[7].fog1 > generous[3].fog1);
        // Tiny caps floor at one slot per layer per shard (documented
        // inflation rather than a starved district).
        let tiny = partition_caps(
            LayerCaps {
                fog1: 4,
                fog2: 2,
                cloud: 1,
            },
            &counts,
        );
        assert!(tiny
            .iter()
            .all(|c| c.fog1 >= 1 && c.fog2 >= 1 && c.cloud >= 1));
    }

    #[test]
    fn sharded_run_issues_the_exact_budget_and_is_replayable() {
        let run_once = |threads: usize| {
            let mut city = F2cCity::barcelona().unwrap();
            city.set_parallelism(Parallelism::new(threads));
            populate_city(&mut city, 50_000, 11, 3_600, 900).unwrap();
            let mut engine = QueryEngine::new(city, EngineConfig::default());
            let config = WorkloadConfig {
                seed: 11,
                requests: 400,
                users: 24,
                start_s: 3_600,
                record_transcript: true,
                ..WorkloadConfig::default()
            };
            run(&mut engine, &config).unwrap()
        };
        let report = run_once(1);
        assert_eq!(report.issued, 400);
        assert!(report.answered > 0, "a warm city must answer something");
        // Same seed, same thread count → byte-identical replay.
        let replay = run_once(1);
        assert_eq!(report.transcript, replay.transcript);
        assert_eq!(report.transcript_hash, replay.transcript_hash);
    }

    #[test]
    fn gated_reservoirs_equal_brute_force_under_the_barrier_discipline() {
        // The sharded discipline without the threads: three cores serve
        // a seeded stream against the shared city and are absorbed in
        // order only at barriers, so a request meets *both* gates — its
        // core's undrained scratch and the city's retained set. The
        // oracle explains every planned query and reduces by hand:
        // keep-min `(hash, bytes)` per slot, keep-max latency per bucket
        // with ties to the smaller hash.
        use crate::model::Query;
        use crate::planner::plan_explained;
        use f2c_obs::{ExplainStore, Json};
        use std::cmp::Reverse;
        use std::collections::BTreeMap;

        let mut city = F2cCity::barcelona().unwrap();
        populate_city(&mut city, 50_000, 11, 3_600, 900).unwrap();
        let mut cores: Vec<ServeCore> = (0..3)
            .map(|_| {
                let mut core = ServeCore::new(
                    EngineConfig::default(),
                    city.section_count(),
                    city.district_count(),
                );
                core.last_flush_s = 3_600;
                core
            })
            .collect();
        let decision_hash = |query: &Query, now_s: u64| {
            let mut h = FNV_OFFSET;
            fnv1a(&mut h, format!("{query:?}@{now_s}").as_bytes());
            h
        };
        let mix = crate::workload::Mix::default();
        let mut rng = SmallRng::seed_from_u64(2017);
        let mut explains: BTreeMap<u64, (u64, String)> = BTreeMap::new();
        // Per bucket, the smallest `(Reverse(latency), hash)` answered.
        let mut slowest: BTreeMap<usize, (Reverse<u64>, u64)> = BTreeMap::new();
        let (mut planned, mut answered) = (0u64, 0u64);
        for i in 0..1_500u64 {
            let now_s = 3_600 + i / 10;
            let class = mix.sample(&mut rng);
            let origin = rng.gen_range(0..73usize);
            let query = gen_query_at(class, now_s, origin, 3_600, &city, &mut rng);
            let transcript = plan_explained(&city, &query)
                .ok()
                .map(|(_, doc)| doc.to_pretty());
            let core = &mut cores[(i % 3) as usize];
            let was_planned = match core.serve(&city, &query, now_s) {
                Ok(Outcome::Answered(resp)) => {
                    core.ledger.release(resp.held.class(), resp.held.slots());
                    answered += 1;
                    let latency_us = resp.est_latency.as_micros();
                    let offered = (Reverse(latency_us), decision_hash(&query, now_s));
                    let bucket = citysim::metrics::bucket_index(latency_us);
                    if slowest.get(&bucket).is_none_or(|kept| offered < *kept) {
                        slowest.insert(bucket, offered);
                    }
                    resp.via != ServedVia::EdgeCache
                }
                Ok(Outcome::Shed { .. }) => true,
                Err(Error::Unanswerable { .. }) => false,
                Err(e) => panic!("{e}"),
            };
            if was_planned {
                planned += 1;
                let hash = decision_hash(&query, now_s);
                let offered = (hash, transcript.expect("planned queries explain"));
                let slot = hash % ExplainStore::DEFAULT_SLOTS as u64;
                if explains.get(&slot).is_none_or(|kept| offered < *kept) {
                    explains.insert(slot, offered);
                }
            }
            // Three long phases: scratches fill up between barriers, so
            // the scratch-side gate decides as often as the city's.
            if i % 500 == 499 {
                for core in &mut cores {
                    city.absorb_scratch(&mut core.obs);
                }
            }
        }
        assert!(planned > 500 && slowest.len() >= 3, "{planned} planned");

        let mut want = Json::obj();
        want.set("seen", Json::Num(planned as f64));
        want.set("kept", Json::Num(explains.len() as f64));
        let records = explains
            .values()
            .map(|(_, text)| Json::parse(text).unwrap())
            .collect();
        want.set("records", Json::Arr(records));
        assert_eq!(city.explains().export().to_pretty(), want.to_pretty());

        assert_eq!(city.exemplars().seen(), answered);
        assert_eq!(city.exemplars().kept(), slowest.len());
        for (bucket, (Reverse(latency_us), hash)) in slowest {
            let kept = city.exemplars().exemplar_for(latency_us).unwrap();
            assert_eq!(
                (kept.latency_us, kept.hash),
                (latency_us, hash),
                "bucket {bucket}"
            );
        }
    }
}
