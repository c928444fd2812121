//! The query engine: tiered caches in front of a planner-routed executor
//! over an [`F2cCity`].
//!
//! Serving order per query:
//!
//! 1. **edge cache** at the requester's fog-1 node (free — no network),
//! 2. plan the cheapest provably-complete route (§IV.C cost model):
//!    one source, or a scatter-gather fan-out merged at the requester's
//!    fog-2,
//! 3. **source cache** at the planned source (or the gather node for a
//!    fan-out — pays the route, skips the scan),
//! 4. **admission control** — class-aware per-layer quotas (the
//!    [`f2c_qos`] ledger): every request charges its service class's
//!    quota at the planned layer(s); a fan-out occupies one class-tagged
//!    slot *per leg* at each leg's layer. A class over its quota is shed
//!    — lowest-priority first, and never out of another class's
//!    guaranteed share — unless a priced fallback route (the losing side
//!    of a fan-out-vs-cloud contest) still fits the class's deadline
//!    budget, in which case the query is *rerouted* instead. Routes
//!    whose transport estimate already busts the deadline budget are
//!    shed at plan time, before holding any slot,
//! 5. **execute** against the tiered store(s): point/range scans over
//!    the iterator range-read API, aggregates assembled from mergeable
//!    bucket partials (cached per flush epoch); fan-out legs merge
//!    through [`crate::scatter`].
//!
//! Steps 3–5 are one skeleton for both route shapes, with the route as
//! data; only slot counting, the execution itself and a fan-out's
//! partial completeness are per shape.
//!
//! Estimated latency composes the cost model's transfer time with a
//! per-record scan cost, so a warm cache hit is strictly cheaper than the
//! cold path that computed it.

mod exec;
mod explain;
mod fanout;
pub(crate) mod response;
pub(crate) mod stats;

use citysim::time::Duration;
use f2c_core::cost::AccessOption;
use f2c_core::node::IngestOutcome;
use f2c_core::{
    ChaosSite, DataSource, F2cCity, FanoutLeg, IncidentKind, Layer, ObsScratch, TieredStore,
};
use f2c_obs::{CounterId, Labels, Site};
use f2c_qos::{ClassLedger, ServiceClass, ShedCause};
use scc_sensors::Reading;

use crate::cache::{CacheKey, NodeKey, PartialCache, ResultCache};
use crate::model::{finalize, AggAcc, PointSample, Query, QueryAnswer, QueryKind, Scope};
use crate::planner::{self, Choice, QueryPlan, ScatterLeg};
use crate::{Error, Result};
use exec::{execute_point, execute_range, fold_aggregate, merge_warm_sketch};
use response::{Completeness, EngineConfig, HeldSlots, Outcome, QueryResponse, ServedVia};
use stats::{layer_label, EngineStats};

/// Modelled, not measured: the cost of examining one archived record
/// during a scan.
const SCAN_COST_PER_RECORD_US: u64 = 2;

/// Capacity of the shared bucket-partial cache.
const PARTIAL_CAPACITY: usize = 16_384;

/// What one [`fold_aggregate`] call did with its closed buckets. A local
/// tally (instead of a registry borrow) keeps the fold free to borrow
/// the city's stores; the caller publishes it afterwards.
#[derive(Debug, Clone, Copy, Default)]
struct FoldTally {
    partial_hits: u64,
    prefold_hits: u64,
    partial_fills: u64,
}

/// What executing and metering an admitted route produced — the part of
/// serving whose shape the route decides.
struct Ran {
    answer: QueryAnswer,
    via: ServedVia,
    /// The answer's response size, as metered.
    bytes: u64,
    /// Modeled time ahead of the delivery hop: the scan for a single
    /// source, the slowest leg plus the merge overhead for a fan-out.
    busy: Duration,
    /// How much of the plan the answer covers (a fan-out that lost legs
    /// to faults is `Partial`).
    completeness: Completeness,
}

/// The serving core: everything [`QueryEngine::serve`] mutates *except*
/// the city itself — caches, the admission ledger, the invalidation
/// frontier, and an [`ObsScratch`] of buffered observability.
///
/// Serving only ever *reads* the city (`&F2cCity`): metrics, spans,
/// incidents and network metering land in the scratch, which the owner
/// absorbs into the city at a barrier ([`QueryEngine::serve`] drains
/// after every call, so its observables are indistinguishable from
/// direct publication). That split is what lets district shards serve
/// concurrently against a shared city snapshot and still merge into a
/// byte-identical global view in canonical shard order.
#[derive(Debug)]
pub(crate) struct ServeCore {
    pub(crate) cfg: EngineConfig,
    edge: Vec<ResultCache>,
    src_fog1: Vec<ResultCache>,
    src_fog2: Vec<ResultCache>,
    src_cloud: ResultCache,
    partials: PartialCache,
    /// What every aggregate request folds into — cleared, not rebuilt,
    /// between requests. Cached and ledger partials stay sparse
    /// [`AggPartial`](crate::model::AggPartial)s; this is the one dense state.
    acc: AggAcc,
    /// Lists a fan-out fills and the next one reuses: the legs that
    /// survived the chaos gate, their `(node, shipped bytes)` for
    /// metering, and the per-leg point winners.
    live: Vec<ScatterLeg>,
    reports: Vec<(FanoutLeg, u64)>,
    points: Vec<Option<PointSample>>,
    pub(crate) ledger: ClassLedger,
    pub(crate) last_flush_s: u64,
    /// Latest instant any query was served at — the frontier behind
    /// which cached results and closed-bucket partials assume no new
    /// records will appear.
    pub(crate) served_frontier_s: u64,
    /// Local invalidations (backdated ingests) added on top of the
    /// hierarchy's flush epoch.
    pub(crate) extra_epochs: u64,
    ids: EngineStats<CounterId>,
    /// Buffered observability, absorbed by the owner at barriers.
    pub(crate) obs: ObsScratch,
}

/// The consumer-facing query engine over an assembled city: a
/// `ServeCore` plus the city it serves, drained after every call so
/// the city's unified registry/tracer/timeline stay the one source of
/// truth for callers that serve one query at a time.
#[derive(Debug)]
pub struct QueryEngine {
    city: F2cCity,
    core: ServeCore,
    /// The engine's series ids in the *city's* registry (the scratch
    /// deltas absorb into these); [`QueryEngine::stats`] reads them.
    city_ids: EngineStats<CounterId>,
}

impl QueryEngine {
    /// Wraps `city` with caches and admission control per `cfg`. The
    /// engine's serving counters live in the city's unified
    /// [`MetricsRegistry`](f2c_obs::MetricsRegistry) (registered here,
    /// accumulated from the serving core's scratch after every serve).
    pub fn new(mut city: F2cCity, cfg: EngineConfig) -> Self {
        let city_ids = EngineStats::register(city.metrics_mut());
        let core = ServeCore::new(cfg, city.section_count(), city.district_count());
        Self {
            city,
            core,
            city_ids,
        }
    }

    /// The wrapped city.
    pub fn city(&self) -> &F2cCity {
        &self.city
    }

    /// Mutable access to the wrapped city, for chaos-plane fault
    /// injection between serving phases.
    pub fn city_mut(&mut self) -> &mut F2cCity {
        &mut self.city
    }

    /// The serving core and the city it serves, borrowed apart — how
    /// the parallel workload runtime drives shard-owned cores against
    /// the shared city between barriers.
    pub(crate) fn core_parts(&mut self) -> (&mut ServeCore, &mut F2cCity) {
        (&mut self.core, &mut self.city)
    }

    /// Serving counters so far — the values of the engine's series in
    /// the city's unified metrics registry (the one store; this reads
    /// it).
    pub fn stats(&self) -> EngineStats {
        let m = self.city.metrics();
        self.city_ids
            .zip(&self.city_ids, |id, _| m.counter_value(id))
    }

    /// Publishes point-in-time gauges (per-layer in-flight admissions
    /// and the cache-invalidation epoch) into the city's registry. Call
    /// before taking a snapshot — gauges describe an instant, so they
    /// sync at export time instead of on every acquire/release.
    pub fn sync_gauges(&mut self) {
        let q = Labels::new().service("query");
        for layer in Layer::ALL {
            let total = i64::from(self.core.ledger.layer_total(layer));
            let m = self.city.metrics_mut();
            let g = m.gauge("qos_in_flight", q.layer(layer_label(layer)));
            m.set(g, total);
        }
        let epoch = (self.city.flush_epoch() + self.core.extra_epochs) as i64;
        let m = self.city.metrics_mut();
        let g = m.gauge("invalidation_epoch", q);
        m.set(g, epoch);
    }

    /// When the hierarchy last flushed through this engine — the settled
    /// frontier workload generators can safely query district windows up
    /// to.
    pub fn last_flush_s(&self) -> u64 {
        self.core.last_flush_s
    }

    /// Ingests a sensor wave at a section's fog-1 node. The write path
    /// runs through the engine so the cache frontier invariant is
    /// *enforced*, not assumed: a reading backdated behind any already
    /// served instant bumps the engine's epoch, lazily invalidating
    /// every cached result and closed-bucket partial it could falsify.
    ///
    /// # Errors
    ///
    /// Propagates hierarchy errors.
    pub fn ingest(
        &mut self,
        section: usize,
        readings: Vec<Reading>,
        now_s: u64,
    ) -> Result<IngestOutcome> {
        if readings
            .iter()
            .any(|r| r.timestamp_s() < self.core.served_frontier_s)
        {
            self.core.extra_epochs += 1;
        }
        Ok(self.city.ingest(section, readings, now_s)?)
    }

    /// Flushes the whole hierarchy upward; bumps the flush epoch, which
    /// lazily invalidates every cached result and partial.
    ///
    /// # Errors
    ///
    /// As [`F2cCity::flush_all`]: the wave has run to its end either way.
    pub fn flush_all(&mut self, now_s: u64) -> Result<(u64, u64)> {
        let shipped = self.city.flush_all(now_s);
        self.core.last_flush_s = now_s;
        Ok(shipped?)
    }

    /// Releases every slot a response held (call when the simulated
    /// response completes; see [`QueryResponse::held`]).
    pub(crate) fn release_held(&mut self, held: HeldSlots) {
        self.core.ledger.release(held.class(), held.slots());
    }

    /// Serves one query at `now_s`, then absorbs the core's buffered
    /// observability into the city — so the caller observes exactly what
    /// direct publication would have produced.
    ///
    /// # Errors
    ///
    /// As `ServeCore::serve`.
    pub(crate) fn serve(&mut self, query: &Query, now_s: u64) -> Result<Outcome> {
        let result = self.core.serve(&self.city, query, now_s);
        self.city.absorb_scratch(&mut self.core.obs);
        result
    }

    /// `QueryEngine::serve` for synchronous callers: any held slots
    /// are released immediately (no simulated completion event).
    ///
    /// # Errors
    ///
    /// As `QueryEngine::serve`.
    pub fn serve_sync(&mut self, query: &Query, now_s: u64) -> Result<Outcome> {
        let outcome = self.serve(query, now_s)?;
        if let Outcome::Answered(resp) = &outcome {
            self.release_held(resp.held);
        }
        Ok(outcome)
    }
}

impl ServeCore {
    /// A serving core for a city of `section_count` sections in
    /// `district_count` districts, with caches and admission control per
    /// `cfg`. The core's counter ids live in its own scratch registry;
    /// absorption translates them onto the city's by `(name, labels)`
    /// key.
    pub(crate) fn new(cfg: EngineConfig, section_count: usize, district_count: usize) -> Self {
        let cache = || ResultCache::new(cfg.result_ttl_s, cfg.result_capacity);
        let mut obs = ObsScratch::new();
        let ids = EngineStats::register(obs.metrics_mut());
        Self {
            edge: (0..section_count).map(|_| cache()).collect(),
            src_fog1: (0..section_count).map(|_| cache()).collect(),
            src_fog2: (0..district_count).map(|_| cache()).collect(),
            src_cloud: cache(),
            partials: PartialCache::new(PARTIAL_CAPACITY),
            acc: AggAcc::new(),
            live: Vec::new(),
            reports: Vec::new(),
            points: Vec::new(),
            ledger: ClassLedger::new([cfg.caps.fog1, cfg.caps.fog2, cfg.caps.cloud], &cfg.qos),
            last_flush_s: 0,
            served_frontier_s: 0,
            extra_epochs: 0,
            ids,
            obs,
            cfg,
        }
    }

    /// Whether an answer to `query` may enter the result caches: only
    /// **closed** windows (ending at or before the serve instant)
    /// qualify, and only modestly sized payloads. Closed windows are
    /// what makes invalidation airtight: every cached window then lies
    /// entirely behind the served frontier, so an ordinary
    /// frontier-appending ingest can never land inside one, and a
    /// backdated ingest (below the frontier) bumps the epoch.
    fn cacheable(&self, query: &Query, now_s: u64, response_bytes: u64) -> bool {
        query.window.until_s <= now_s && response_bytes <= self.cfg.max_cache_entry_bytes
    }

    /// Serves one query at `now_s` against a shared city snapshot.
    ///
    /// The whole lifecycle is traced as a `"query"` span at the
    /// requester's fog-1 site — children mark the plan, admission,
    /// execute and deliver phases — closed at the estimated completion
    /// instant with the response size as its attribute (sheds close
    /// zero-length).
    ///
    /// # Errors
    ///
    /// [`Error::BadQuery`] / [`Error::Unanswerable`] per the planner;
    /// network errors while metering the transfer.
    pub(crate) fn serve(&mut self, city: &F2cCity, query: &Query, now_s: u64) -> Result<Outcome> {
        query.validated()?;
        let site = Site::new("fog1", query.origin as u32);
        let now_us = now_s.saturating_mul(1_000_000);
        let qhash = Self::explain_hash(query, now_s);
        let mark = self.obs.tracer_mut().mark();
        let span = self.obs.tracer_mut().open(site, "query", now_us);
        let result = self.serve_inner(city, query, qhash, site, now_us, now_s);
        let (end_us, attr) = match &result {
            Ok(Outcome::Answered(resp)) => {
                (now_us + resp.est_latency.as_micros(), resp.response_bytes)
            }
            _ => (now_us, 0),
        };
        self.obs.tracer_mut().close_with(span, end_us, attr);
        if let Ok(Outcome::Answered(resp)) = &result {
            // Trace exemplar: the span tree of the slowest answered query
            // per latency bucket. Rendering walks the ring log, so it is
            // gated on admission — most serves pay two bucket compares.
            // The scratch alone cannot gate: an owner that drains it
            // after every serve leaves it empty, so the city's retained
            // slot (fixed between barriers) is consulted too.
            let latency_us = resp.est_latency.as_micros();
            let admit = self.obs.exemplars_mut().would_admit(latency_us, qhash)
                && city.exemplars().would_admit(latency_us, qhash);
            let trace = admit.then(|| self.obs.tracer_mut().spans_since(&mark));
            self.obs.exemplars_mut().observe(latency_us, qhash, trace);
        }
        result
    }

    fn serve_inner(
        &mut self,
        city: &F2cCity,
        query: &Query,
        qhash: u64,
        site: Site,
        now_us: u64,
        now_s: u64,
    ) -> Result<Outcome> {
        let class = query.class;
        let class_ids = self.ids.per_class[class.index()];
        let m = self.obs.metrics_mut();
        m.inc(self.ids.requests);
        m.inc(class_ids.requests);
        self.served_frontier_s = self.served_frontier_s.max(now_s);

        // 0. Chaos gate at the origin: a crashed fog-1 node serves
        // nothing — not even its edge cache. The query degrades to an
        // attributable fault shed, never to a wrong answer.
        if city.site_is_down(ChaosSite::Fog1(query.origin), now_s) {
            return Ok(self.fault_shed(query, Layer::Fog1, now_s));
        }

        let key = CacheKey::from(query);
        // Flush epoch plus local invalidations: both only grow, so any
        // bump strictly outdates every previously stamped entry.
        let epoch = city.flush_epoch() + self.extra_epochs;

        // 1. Edge cache at the requester's fog-1 node: a free local answer.
        if let Some(answer) = self.edge[query.origin].get(&key, now_s, epoch) {
            self.obs.metrics_mut().inc(self.ids.edge_hits);
            let bytes = answer.response_bytes();
            let est_latency = city.cost_model().cost(AccessOption::Local, bytes);
            self.record_answered(class, est_latency);
            return Ok(Outcome::Answered(QueryResponse {
                est_latency,
                layer: Layer::Fog1,
                via: ServedVia::EdgeCache,
                response_bytes: bytes,
                held: HeldSlots::none(),
                completeness: Completeness::Complete,
                answer,
            }));
        }

        // 2. Route: one complete source, or a fan-out over the member
        // fog nodes — whichever the cost model prices cheaper. Queries
        // whose hash can win a reservoir slot plan through the explaining
        // path and deposit their decision transcript; everything else
        // takes the plain planner (identical decisions, no transcript).
        // "Can win" means against the scratch *and* the city's retained
        // set: the record ends up in the city's store, and a scratch that
        // its owner drains after every serve is empty and admits all.
        let explain =
            self.obs.explains_mut().would_admit(qhash) && city.explains().would_admit(qhash);
        let planned = if explain {
            planner::plan_explained(city, query).map(|(route, doc)| (route, Some(doc)))
        } else {
            planner::plan(city, query).map(|route| (route, None))
        };
        let route = match planned {
            Ok((route, doc)) => {
                // `seen` counts every *planned* query whether or not its
                // transcript was built, so the tally is independent of
                // what the reservoirs happened to hold.
                self.obs.explains_mut().offer(qhash, doc);
                route
            }
            Err(e @ Error::Unanswerable { .. }) => {
                self.obs.metrics_mut().inc(self.ids.unanswerable);
                return Err(e);
            }
            Err(e) => return Err(e),
        };
        // A zero-length child marking the plan phase; the attribute says
        // whether the winning shape is a fan-out.
        let plan_span = self.obs.tracer_mut().open(site, "query-plan", now_us);
        let fanned_out = matches!(route.choice, Choice::Scatter(_));
        self.obs
            .tracer_mut()
            .close_with(plan_span, now_us, u64::from(fanned_out));
        if let Some((scatter_cost, cloud_cost)) = route.contest {
            let id = if scatter_cost <= cloud_cost {
                self.ids.scatter_wins
            } else {
                self.ids.cloud_wins
            };
            self.obs.metrics_mut().inc(id);
        }

        // 3. Deadline gate: when even the cheapest provably-complete
        // route's transport estimate busts the class budget, executing
        // it would burn a slot on an answer that misses its SLO — shed
        // at plan time, before holding anything.
        let budget = self.cfg.qos.deadline(class);
        if route.est_cost() > budget {
            self.obs.metrics_mut().inc(class_ids.deadline_shed);
            return Ok(Outcome::Shed {
                layer: route.choice.charged_layer(),
                class,
                cause: ShedCause::Deadline,
            });
        }

        match self.serve_choice(city, query, &route.choice, key, epoch, now_s)? {
            Outcome::Answered(resp) => Ok(Outcome::Answered(resp)),
            Outcome::Shed {
                layer,
                class,
                cause,
            } => {
                // The planned route's quota is saturated. If the contest
                // had a losing shape that still fits the deadline budget
                // (e.g. the cloud read behind a fan-out), reroute onto
                // it instead of shedding.
                if let Some(fb) = &route.fallback {
                    if fb.est_cost() <= budget {
                        if let Outcome::Answered(resp) =
                            self.serve_choice(city, query, fb, key, epoch, now_s)?
                        {
                            self.obs.metrics_mut().inc(class_ids.rerouted);
                            if cause == ShedCause::Fault {
                                // A fault rescue, not a capacity one:
                                // the timeline attributes the detour.
                                self.obs.record_incident(
                                    now_s,
                                    ChaosSite::Fog1(query.origin),
                                    IncidentKind::Reroute,
                                );
                            }
                            return Ok(Outcome::Answered(resp));
                        }
                    }
                }
                // Terminal shed (the fallback, if any, was over budget
                // or saturated too): account it at the planned layer,
                // under the cause the planned route refused for.
                if cause == ShedCause::Fault {
                    return Ok(self.fault_shed(query, layer, now_s));
                }
                let m = self.obs.metrics_mut();
                m.inc(self.ids.shed[layer.index()]);
                m.inc(class_ids.shed);
                Ok(Outcome::Shed {
                    layer,
                    class,
                    cause,
                })
            }
        }
    }

    /// Accounts a terminal [`ShedCause::Fault`] shed and lands it on the
    /// incident timeline, so every refused query under chaos is
    /// attributable to an injected fault.
    fn fault_shed(&mut self, query: &Query, layer: Layer, now_s: u64) -> Outcome {
        let class_fault = self.ids.per_class[query.class.index()].fault_shed;
        let m = self.obs.metrics_mut();
        m.inc(self.ids.fault_shed);
        m.inc(class_fault);
        self.obs.record_incident(
            now_s,
            ChaosSite::Fog1(query.origin),
            IncidentKind::RouteFault,
        );
        Outcome::Shed {
            layer,
            class: query.class,
            cause: ShedCause::Fault,
        }
    }

    /// Serves one already-planned route shape: the one skeleton a single
    /// source and a fan-out share, with the route as data. Returns sheds
    /// *without* recording them — the caller accounts the terminal
    /// outcome, so a successful reroute is not double-counted.
    fn serve_choice(
        &mut self,
        city: &F2cCity,
        query: &Query,
        choice: &Choice,
        key: CacheKey,
        epoch: u64,
        now_s: u64,
    ) -> Result<Outcome> {
        let class = query.class;
        let origin = query.origin;
        // The route as data: the node whose result cache fronts it and
        // whose hop delivers the answer (a fan-out gathers at the
        // requester's fog-2), and the layer its sheds are charged to.
        let (source, layer, option) = match choice {
            Choice::Single(plan) => (plan.source, plan.layer, plan.option),
            Choice::Scatter(_) => (DataSource::Parent, Layer::Fog2, AccessOption::Parent),
        };
        let shed = |layer, cause| {
            Ok(Outcome::Shed {
                layer,
                class,
                cause,
            })
        };
        // Chaos gate: a crashed or unreachable source — or gather node,
        // which every leg and the final delivery route through — can
        // serve nothing, not even its result cache. Shed as a fault; the
        // caller may still rescue the query onto the fallback route.
        if !city.source_available(origin, source, now_s) {
            return shed(layer, ShedCause::Fault);
        }
        // 3. Source cache at the planned (or gather) node: pays the
        // route, skips the scan or the whole fan-out.
        if let Some(answer) = self
            .source_cache(city, source, origin)
            .get(&key, now_s, epoch)
        {
            self.obs.metrics_mut().inc(self.ids.source_hits);
            let bytes = answer.response_bytes();
            if city
                .meter_query_scratch(self.obs.net_mut(), origin, source, bytes, now_s)
                .is_err()
            {
                // The transfer was lost in flight (loss coin): degrade
                // to a fault shed instead of surfacing an error.
                return shed(layer, ShedCause::Fault);
            }
            if self.cacheable(query, now_s, bytes) {
                self.edge[origin].put(key, answer.clone(), now_s, epoch);
            }
            let est_latency = city.cost_model().cost(option, bytes);
            self.record_answered(class, est_latency);
            return Ok(Outcome::Answered(QueryResponse {
                est_latency,
                layer,
                via: ServedVia::SourceCache(source),
                response_bytes: bytes,
                held: HeldSlots::none(),
                completeness: Completeness::Complete,
                answer,
            }));
        }

        // 4. Admission control: which slots the route needs is its own
        // business; acquiring them is atomic — a refusal at any layer
        // rolls back the slots already taken at the layers below, so a
        // shed route never leaks in-flight accounting.
        let acquired = match choice {
            Choice::Single(plan) => self.acquire_single(class, plan),
            Choice::Scatter(plan) => {
                self.live_legs(city, query, plan, now_s);
                if self.live.is_empty() {
                    // Every leg is down: nothing survives to answer from.
                    return shed(layer, ShedCause::Fault);
                }
                // One class-tagged slot per surviving leg at each leg's
                // layer.
                let mut held = HeldSlots::empty(class);
                for leg in &self.live {
                    held.add(leg.layer, 1);
                }
                let acquired = self.ledger.try_acquire(class, held.slots());
                acquired.map(|()| held)
            }
        };
        let held = match acquired {
            Ok(held) => held,
            Err(layer) => return shed(layer, ShedCause::Capacity),
        };
        let site = Site::new("fog1", origin as u32);
        let now_us = now_s.saturating_mul(1_000_000);
        let admit = self.obs.tracer_mut().open(site, "query-admit", now_us);
        let charged = u64::from(held.slots().iter().sum::<u32>());
        self.obs.tracer_mut().close_with(admit, now_us, charged);

        // 5. Execute against the source store, or every surviving leg
        // merged at the gather node, and meter the transfer(s).
        let ran = match choice {
            Choice::Single(plan) => self.run_single(city, query, plan, now_s, epoch),
            Choice::Scatter(plan) => self.run_scatter(city, query, plan, now_s, epoch),
        };
        let Some(Ran {
            answer,
            via,
            bytes,
            busy,
            completeness,
        }) = ran
        else {
            // The response was lost in flight (loss coin): give the
            // slots back and degrade to a fault shed instead of an error.
            self.ledger.release(class, held.slots());
            return shed(layer, ShedCause::Fault);
        };
        let est_latency = busy + city.cost_model().cost(option, bytes);
        // Partial answers never enter a cache: a later healthy serve of
        // the same window must not inherit a degraded one.
        if completeness.is_complete() && self.cacheable(query, now_s, bytes) {
            self.source_cache(city, source, origin)
                .put(key, answer.clone(), now_s, epoch);
            self.edge[origin].put(key, answer.clone(), now_s, epoch);
        }
        self.obs.metrics_mut().inc(self.ids.store_served);
        let deliver = self.obs.tracer_mut().open(site, "query-deliver", now_us);
        self.obs
            .tracer_mut()
            .close_with(deliver, now_us + est_latency.as_micros(), bytes);
        self.record_answered(class, est_latency);
        Ok(Outcome::Answered(QueryResponse {
            answer,
            via,
            layer,
            est_latency,
            response_bytes: bytes,
            held,
            completeness,
        }))
    }

    /// Records an answered query, scoring its latency estimate against
    /// the class's deadline budget for SLO attainment.
    fn record_answered(&mut self, class: ServiceClass, est_latency: Duration) {
        let cid = self.ids.per_class[class.index()];
        let slo_met = est_latency <= self.cfg.qos.deadline(class);
        let m = self.obs.metrics_mut();
        m.inc(self.ids.answered);
        m.inc(cid.answered);
        if slo_met {
            m.inc(cid.slo_met);
        }
    }

    /// A single source's admission: one class-tagged slot at the
    /// source's layer — except warm-sketch reads, which merge a handful
    /// of pre-folded partials instead of scanning an archive and so admit
    /// at the QoS policy's reduced cost (one charged slot per
    /// `sketch_divisor` reads). `Err` names the refusing layer.
    fn acquire_single(
        &mut self,
        class: ServiceClass,
        plan: &QueryPlan,
    ) -> std::result::Result<HeldSlots, Layer> {
        if matches!(plan.source, DataSource::WarmSketch(_)) {
            let slots = self.ledger.try_acquire_sketch(class, plan.layer)?;
            Ok(HeldSlots::from_slots(class, slots))
        } else {
            let held = HeldSlots::single(plan.layer, class);
            self.ledger.try_acquire(class, held.slots())?;
            Ok(held)
        }
    }

    /// Executes an admitted single-source route and meters its transfer;
    /// `None` when the response was lost in flight.
    fn run_single(
        &mut self,
        city: &F2cCity,
        query: &Query,
        plan: &QueryPlan,
        now_s: u64,
        epoch: u64,
    ) -> Option<Ran> {
        let site = Site::new("fog1", query.origin as u32);
        let now_us = now_s.saturating_mul(1_000_000);
        let exec = self.obs.tracer_mut().open(site, "query-execute", now_us);
        let (answer, visited) = self.execute(city, query, plan, now_s, epoch);
        let scan = Duration::from_micros(SCAN_COST_PER_RECORD_US * visited);
        self.obs
            .tracer_mut()
            .close_with(exec, now_us + scan.as_micros(), visited);
        self.obs
            .metrics_mut()
            .add(self.ids.records_scanned, visited);
        let bytes = answer.response_bytes();
        city.meter_query_scratch(self.obs.net_mut(), query.origin, plan.source, bytes, now_s)
            .ok()?;
        Some(Ran {
            answer,
            via: ServedVia::Store(plan.source),
            bytes,
            busy: scan,
            completeness: Completeness::Complete,
        })
    }

    fn source_cache(
        &mut self,
        city: &F2cCity,
        source: DataSource,
        origin: usize,
    ) -> &mut ResultCache {
        match source {
            DataSource::Local => &mut self.src_fog1[origin],
            DataSource::Neighbor(n) | DataSource::WarmSketch(n) => &mut self.src_fog1[n],
            DataSource::Parent => {
                let d = city.district_of(origin);
                &mut self.src_fog2[d]
            }
            DataSource::RemoteFog2(d) => &mut self.src_fog2[d],
            DataSource::Cloud => &mut self.src_cloud,
        }
    }

    fn execute(
        &mut self,
        city: &F2cCity,
        query: &Query,
        plan: &QueryPlan,
        now_s: u64,
        epoch: u64,
    ) -> (QueryAnswer, u64) {
        let (store, node): (&TieredStore, NodeKey) = match plan.source {
            DataSource::WarmSketch(s) => {
                // The raw window is evicted; the answer is a pure merge
                // of the node's pre-folded ledger partials — no store
                // scan, no partial-cache traffic.
                self.acc.clear();
                let merged = merge_warm_sketch(city.fog1(s).sketches(), s, query, &mut self.acc);
                let m = self.obs.metrics_mut();
                m.inc(self.ids.sketch_served);
                m.add(self.ids.sketch_hits, merged);
                return (QueryAnswer::Aggregate(finalize(&self.acc)), 0);
            }
            DataSource::Local => (
                city.fog1(query.origin).store(),
                NodeKey::Fog1(query.origin as u16),
            ),
            DataSource::Neighbor(n) => (city.fog1(n).store(), NodeKey::Fog1(n as u16)),
            DataSource::Parent => {
                let d = match query.scope {
                    Scope::Section(s) => city.district_of(s),
                    Scope::District(d) => d,
                    // City scopes never plan a Parent single source —
                    // one fog-2 only holds its own district.
                    Scope::City => unreachable!("city scope has no parent single source"),
                };
                (city.fog2(d).store(), NodeKey::Fog2(d as u16))
            }
            DataSource::RemoteFog2(d) => (city.fog2(d).store(), NodeKey::Fog2(d as u16)),
            DataSource::Cloud => (city.cloud().store(), NodeKey::Cloud),
        };
        match query.kind {
            QueryKind::Point => execute_point(store, query),
            QueryKind::Range => execute_range(store, query),
            QueryKind::Aggregate => {
                let mut tally = FoldTally::default();
                self.acc.clear();
                let visited = fold_aggregate(
                    city,
                    store,
                    node,
                    query,
                    &mut self.partials,
                    &mut self.acc,
                    &mut tally,
                    epoch,
                    now_s,
                );
                self.apply_fold_tally(tally);
                (QueryAnswer::Aggregate(finalize(&self.acc)), visited)
            }
        }
    }

    /// Publishes what a fold did with its closed buckets, once the
    /// store borrow is released.
    fn apply_fold_tally(&mut self, tally: FoldTally) {
        let m = self.obs.metrics_mut();
        m.add(self.ids.partial_hits, tally.partial_hits);
        m.add(self.ids.prefold_hits, tally.prefold_hits);
        m.add(self.ids.partial_fills, tally.partial_fills);
    }
}

#[cfg(test)]
mod tests;
