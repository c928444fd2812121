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

use std::ops::Range;

use citysim::time::Duration;
use f2c_core::cost::AccessOption;
use f2c_core::node::IngestOutcome;
use f2c_core::{
    ChaosSite, DataSource, F2cCity, FanoutLeg, IncidentKind, Layer, ObsScratch, TieredStore,
};
use f2c_obs::{CounterId, Labels, MetricsRegistry, Site};
use f2c_qos::{ClassLedger, QosPolicy, ServiceClass, ShedCause, CLASS_COUNT};
use scc_dlc::preservation::ArchiveStore;
use scc_dlc::DataRecord;
use scc_sensors::Reading;

use f2c_aggregate::sketch::SketchLedger;
use scc_sensors::SensorType;

use crate::cache::{CacheKey, NodeKey, PartialCache, ResultCache, SeriesKey};
use crate::model::{
    absorb_record, finalize, AggAcc, AggPartial, AggState, PointSample, Query, QueryAnswer,
    QueryKind, Scope, Selector,
};
use crate::planner::{self, Choice, QueryPlan, ScatterLeg, ScatterPlan};
use crate::{Error, Result};

// The `Debug` names of the fieldless enums a `Query` holds, each table
// indexed by its enum's dense index, for `ServeCore::explain_hash`. The
// `explain_hash_streams_the_bytes_the_formatted_string_had` test ties
// every entry to the derived `Debug` — a renamed or reordered variant
// fails there.

/// Indexed by [`ServiceClass::index`].
const CLASS_NAMES: [&str; CLASS_COUNT] = ["RealTime", "Dashboard", "CityWide", "Analytics"];
/// Indexed by `QueryKind as usize`.
const KIND_NAMES: [&str; 3] = ["Point", "Range", "Aggregate"];
/// Indexed by `Category as usize`.
const CATEGORY_NAMES: [&str; 5] = ["Energy", "Noise", "Garbage", "Parking", "Urban"];
/// Indexed by [`SensorType::ordinal`].
const SENSOR_TYPE_NAMES: [&str; 21] = [
    "ElectricityMeter",
    "ExternalAmbientConditions",
    "GasMeter",
    "InternalAmbientConditions",
    "NetworkAnalyzer",
    "SolarThermalInstallation",
    "Temperature",
    "NoiseAmbient",
    "NoiseTrafficZone",
    "NoiseLeisureZone",
    "ContainerGlass",
    "ContainerOrganic",
    "ContainerPaper",
    "ContainerPlastic",
    "ContainerRefuse",
    "ParkingSpot",
    "AirQuality",
    "BicycleFlow",
    "PeopleFlow",
    "Traffic",
    "Weather",
];

/// A running FNV-1a hash fed text and decimal numbers.
struct Fnv(u64);

impl Fnv {
    fn text(&mut self, s: &str) {
        crate::workload::fnv1a(&mut self.0, s.as_bytes());
    }

    /// Feeds `n` as the decimal digits `Display` would write.
    fn num(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        crate::workload::fnv1a(&mut self.0, &digits[at..]);
    }
}

/// Per-layer in-flight request caps (admission control).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCaps {
    /// Concurrent store-executions across all fog-1 nodes.
    pub fog1: u32,
    /// Concurrent store-executions across all fog-2 nodes.
    pub fog2: u32,
    /// Concurrent store-executions at the cloud.
    pub cloud: u32,
}

impl Default for LayerCaps {
    fn default() -> Self {
        Self {
            fog1: 4_096,
            fog2: 256,
            cloud: 64,
        }
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Result-cache TTL in simulated seconds.
    pub result_ttl_s: u64,
    /// Capacity of each per-node result cache.
    pub result_capacity: usize,
    /// Capacity of the shared bucket-partial cache.
    pub partial_capacity: usize,
    /// Admission caps.
    pub caps: LayerCaps,
    /// Per-class quotas, priorities and deadline budgets carving up the
    /// layer caps.
    pub qos: QosPolicy,
    /// Modeled cost of visiting one archived record during a scan.
    pub scan_cost_per_record_us: u64,
    /// Request envelope size for network metering.
    pub request_bytes: u64,
    /// Aggregation bucket width (seconds).
    pub bucket_s: u64,
    /// Largest answer payload worth caching: bulky range answers are
    /// cheaper to re-scan than to hold in dozens of per-node caches.
    pub max_cache_entry_bytes: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            result_ttl_s: 120,
            result_capacity: 512,
            partial_capacity: 16_384,
            caps: LayerCaps::default(),
            qos: QosPolicy::default(),
            scan_cost_per_record_us: 2,
            request_bytes: 200,
            bucket_s: 900,
            max_cache_entry_bytes: 64 * 1024,
        }
    }
}

/// How an answered query was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedVia {
    /// Result cache at the requester's own fog-1 node.
    EdgeCache,
    /// Result cache at the planned source node.
    SourceCache(DataSource),
    /// Executed against the source's tiered store.
    Store(DataSource),
    /// Scatter-gather: executed against `legs` fog stores and merged at
    /// the requester's fog-2.
    Scatter {
        /// Number of fan-out legs executed.
        legs: u32,
    },
}

/// How much of the planned coverage an answer actually represents.
///
/// The chaos plane's degradation invariant: injected faults remove
/// *sources*, never records from surviving sources — so a degraded
/// scatter-gather returns the exact answer over its surviving legs,
/// annotated `Partial`, instead of erroring or silently passing off a
/// subset as the whole. Partial answers are never cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completeness {
    /// Every planned source contributed.
    Complete,
    /// Injected faults removed part of the fan-out; the answer covers
    /// exactly the surviving legs.
    Partial {
        /// Legs shed because their node was crashed or unreachable.
        legs_shed: u32,
        /// Legs the plan wanted.
        legs_total: u32,
    },
}

impl Completeness {
    /// Whether every planned source contributed.
    pub(crate) fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }
}

/// Per-layer admission slots an in-flight response occupies until
/// [`QueryEngine::release_held`], tagged with the service class whose
/// quota they charge. Single-source store executions hold one slot;
/// scatter-gather holds one per leg at each leg's layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeldSlots {
    class: ServiceClass,
    slots: [u32; 3],
}

impl HeldSlots {
    /// No slots held (cache hits).
    pub(crate) fn none() -> Self {
        Self {
            class: ServiceClass::RealTime,
            slots: [0; 3],
        }
    }

    /// One `class` slot at `layer` (single-source store executions).
    pub(crate) fn single(layer: Layer, class: ServiceClass) -> Self {
        let mut slots = [0; 3];
        slots[layer.index()] = 1;
        Self { class, slots }
    }

    /// Exactly the given per-layer slots for `class` — what a
    /// reduced-cost warm-sketch admission actually charged (often
    /// nothing; see [`f2c_qos::ClassLedger::try_acquire_sketch`]).
    pub(crate) fn from_slots(class: ServiceClass, slots: [u32; 3]) -> Self {
        Self { class, slots }
    }

    /// An empty holding for `class` (build fan-outs with
    /// [`HeldSlots::add`]).
    fn empty(class: ServiceClass) -> Self {
        Self {
            class,
            slots: [0; 3],
        }
    }

    /// The class whose quota the slots charge.
    pub(crate) fn class(&self) -> ServiceClass {
        self.class
    }

    /// The raw per-layer slot counts (fog 1, fog 2, cloud).
    pub(crate) fn slots(&self) -> [u32; 3] {
        self.slots
    }

    /// Whether nothing is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.iter().all(|&c| c == 0)
    }

    fn add(&mut self, layer: Layer, count: u32) {
        self.slots[layer.index()] += count;
    }
}

impl Default for HeldSlots {
    fn default() -> Self {
        Self::none()
    }
}

/// One answered query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The answer.
    pub answer: QueryAnswer,
    /// How it was served.
    pub via: ServedVia,
    /// The layer that served it (edge hits count as fog 1).
    pub layer: Layer,
    /// Cost-model transfer time plus scan time.
    pub est_latency: Duration,
    /// Response payload size.
    pub response_bytes: u64,
    /// The per-layer slots this request occupies until
    /// `QueryEngine::release_held` (store executions only; cache hits
    /// hold nothing).
    pub held: HeldSlots,
    /// Whether every planned source contributed, or faults degraded the
    /// answer to its surviving legs.
    pub completeness: Completeness,
}

/// What happened to one served query.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Answered (possibly from cache).
    Answered(QueryResponse),
    /// Rejected: quota pressure at the planned layer, or a route that
    /// cannot meet the class's deadline budget. Carries the requester's
    /// context so retry/abandon logic and per-class accounting never
    /// have to re-derive it from the query.
    Shed {
        /// The layer whose quota refused (or whose route busted the
        /// deadline).
        layer: Layer,
        /// The service class that was refused.
        class: ServiceClass,
        /// Why it was refused.
        cause: ShedCause,
    },
}

/// Per-service-class serving counters, indexed by
/// [`ServiceClass::index`] inside [`EngineStats::per_class`]. Generic
/// over the cell like [`EngineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats<T = u64> {
    /// Queries of this class offered to [`QueryEngine::serve`].
    pub requests: T,
    /// Queries answered (any path).
    pub answered: T,
    /// Queries shed by quota pressure ([`ShedCause::Capacity`]).
    pub shed: T,
    /// Queries shed at plan time because no provably-complete route fit
    /// the class deadline budget ([`ShedCause::Deadline`]).
    pub deadline_shed: T,
    /// Queries whose planned route was saturated but which were served
    /// by the in-budget fallback route instead of shedding.
    pub rerouted: T,
    /// Queries shed because an injected fault made every viable route
    /// unserveable ([`ShedCause::Fault`]).
    pub fault_shed: T,
    /// Answered queries whose estimated latency met the class deadline.
    pub slo_met: T,
}

impl<T: Copy> ClassStats<T> {
    /// [`EngineStats::zip`] over one class's cells.
    fn zip<U: Copy, V>(
        &self,
        other: &ClassStats<U>,
        f: &mut impl FnMut(T, U) -> V,
    ) -> ClassStats<V> {
        ClassStats {
            requests: f(self.requests, other.requests),
            answered: f(self.answered, other.answered),
            shed: f(self.shed, other.shed),
            deadline_shed: f(self.deadline_shed, other.deadline_shed),
            rerouted: f(self.rerouted, other.rerouted),
            fault_shed: f(self.fault_shed, other.fault_shed),
            slo_met: f(self.slo_met, other.slo_met),
        }
    }
}

impl ClassStats {
    /// Fraction of this class's requests that were shed (either cause).
    pub fn shed_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.shed + self.deadline_shed) as f64 / self.requests as f64
        }
    }

    /// Fraction of answered queries that met the class deadline.
    pub fn slo_attainment(&self) -> f64 {
        if self.answered == 0 {
            1.0
        } else {
            self.slo_met as f64 / self.answered as f64
        }
    }
}

/// Serving counters, generic over the cell: `EngineStats<CounterId>`
/// names each series in a [`MetricsRegistry`] (registered once, in
/// `EngineStats::register`), and `EngineStats` (`u64` cells) holds their
/// values — [`QueryEngine::stats`] reads one from the other, and a run
/// scopes lifetime values to itself with [`EngineStats::zip`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats<T = u64> {
    /// Queries offered to [`QueryEngine::serve`].
    pub requests: T,
    /// Queries answered (any path).
    pub answered: T,
    /// Edge result-cache hits.
    pub edge_hits: T,
    /// Source result-cache hits.
    pub source_hits: T,
    /// Queries executed against a store.
    pub store_served: T,
    /// Queries no layer could answer completely.
    pub unanswerable: T,
    /// Capacity sheds per layer (fog 1, fog 2, cloud).
    pub shed: [T; 3],
    /// Per-service-class counters (requests, sheds, SLO attainment),
    /// indexed by [`ServiceClass::index`].
    pub per_class: [ClassStats<T>; CLASS_COUNT],
    /// Archive records visited by scans.
    pub records_scanned: T,
    /// Bucket partials served from cache.
    pub partial_hits: T,
    /// Bucket partials folded and cached.
    pub partial_fills: T,
    /// Buckets assembled from the node's **sketch ledger** (flush-shipped
    /// pre-folded partials) instead of scanning the archive — the write
    /// path's decomposability payoff showing up at serving time.
    pub prefold_hits: T,
    /// Queries answered from a fog-1 node's warm sketches after the raw
    /// window was evicted ([`f2c_core::DataSource::WarmSketch`]).
    pub sketch_served: T,
    /// Ledger partials merged by warm-sketch serving (single-source and
    /// scatter legs).
    pub sketch_hits: T,
    /// Scatter-gather legs executed from warm sketches instead of raw
    /// shards.
    pub sketch_legs: T,
    /// Queries served by scatter-gather fan-out.
    pub scatter_served: T,
    /// Fan-out legs executed across all scatter-gather queries.
    pub scatter_legs: T,
    /// Contested routes (fan-out and cloud both provably complete) the
    /// fan-out won.
    pub scatter_wins: T,
    /// Contested routes the single-source cloud read won.
    pub cloud_wins: T,
    /// Queries shed because an injected fault left no viable route
    /// (origin crashed, every source unreachable, or a transfer lost).
    pub fault_shed: T,
    /// Scatter-gather legs dropped from fan-outs because their node was
    /// crashed or unreachable.
    pub legs_shed: T,
    /// Answered queries degraded to [`Completeness::Partial`].
    pub degraded: T,
}

impl<T: Copy> EngineStats<T> {
    /// Pairs every cell with its counterpart in `other` through `f` —
    /// e.g. `after.zip(&before, |a, b| a - b)` is a run's delta.
    pub fn zip<U: Copy, V>(
        &self,
        other: &EngineStats<U>,
        mut f: impl FnMut(T, U) -> V,
    ) -> EngineStats<V> {
        EngineStats {
            requests: f(self.requests, other.requests),
            answered: f(self.answered, other.answered),
            edge_hits: f(self.edge_hits, other.edge_hits),
            source_hits: f(self.source_hits, other.source_hits),
            store_served: f(self.store_served, other.store_served),
            unanswerable: f(self.unanswerable, other.unanswerable),
            shed: std::array::from_fn(|i| f(self.shed[i], other.shed[i])),
            per_class: std::array::from_fn(|i| self.per_class[i].zip(&other.per_class[i], &mut f)),
            records_scanned: f(self.records_scanned, other.records_scanned),
            partial_hits: f(self.partial_hits, other.partial_hits),
            partial_fills: f(self.partial_fills, other.partial_fills),
            prefold_hits: f(self.prefold_hits, other.prefold_hits),
            sketch_served: f(self.sketch_served, other.sketch_served),
            sketch_hits: f(self.sketch_hits, other.sketch_hits),
            sketch_legs: f(self.sketch_legs, other.sketch_legs),
            scatter_served: f(self.scatter_served, other.scatter_served),
            scatter_legs: f(self.scatter_legs, other.scatter_legs),
            scatter_wins: f(self.scatter_wins, other.scatter_wins),
            cloud_wins: f(self.cloud_wins, other.cloud_wins),
            fault_shed: f(self.fault_shed, other.fault_shed),
            legs_shed: f(self.legs_shed, other.legs_shed),
            degraded: f(self.degraded, other.degraded),
        }
    }
}

impl EngineStats<CounterId> {
    /// Registers (or finds) every engine series in `reg`.
    fn register(reg: &mut MetricsRegistry) -> Self {
        let q = Labels::new().service("query");
        let per_class = ServiceClass::ALL.map(|class| {
            let lc = q.class(class.label());
            ClassStats {
                requests: reg.counter("query_class_requests", lc),
                answered: reg.counter("query_class_answered", lc),
                shed: reg.counter("query_class_shed", lc.kind("capacity")),
                deadline_shed: reg.counter("query_class_shed", lc.kind("deadline")),
                rerouted: reg.counter("query_class_rerouted", lc),
                fault_shed: reg.counter("query_class_shed", lc.kind("fault")),
                slo_met: reg.counter("query_class_slo_met", lc),
            }
        });
        Self {
            requests: reg.counter("query_requests", q),
            answered: reg.counter("query_answered", q),
            edge_hits: reg.counter("query_cache_hits", q.kind("edge")),
            source_hits: reg.counter("query_cache_hits", q.kind("source")),
            store_served: reg.counter("query_store_served", q),
            unanswerable: reg.counter("query_unanswerable", q),
            shed: Layer::ALL.map(|layer| {
                reg.counter("query_shed", q.layer(layer_label(layer)).kind("capacity"))
            }),
            per_class,
            records_scanned: reg.counter("query_records_scanned", q),
            partial_hits: reg.counter("query_partials", q.kind("hit")),
            partial_fills: reg.counter("query_partials", q.kind("fill")),
            prefold_hits: reg.counter("query_partials", q.kind("prefold")),
            sketch_served: reg.counter("query_sketch_served", q),
            sketch_hits: reg.counter("query_sketch_hits", q),
            sketch_legs: reg.counter("query_sketch_legs", q),
            scatter_served: reg.counter("query_scatter_served", q),
            scatter_legs: reg.counter("query_scatter_legs", q),
            scatter_wins: reg.counter("query_contest_wins", q.kind("scatter")),
            cloud_wins: reg.counter("query_contest_wins", q.kind("cloud")),
            fault_shed: reg.counter("query_fault_shed", q),
            legs_shed: reg.counter("query_legs_shed", q),
            degraded: reg.counter("query_degraded", q),
        }
    }
}

impl EngineStats {
    /// Total capacity sheds across layers.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Total deadline sheds across classes.
    pub fn deadline_shed_total(&self) -> u64 {
        self.per_class.iter().map(|c| c.deadline_shed).sum()
    }
}

/// Static layer label for metric label sets (`layer=fog1`, …).
pub fn layer_label(layer: Layer) -> &'static str {
    match layer {
        Layer::Fog1 => "fog1",
        Layer::Fog2 => "fog2",
        Layer::Cloud => "cloud",
    }
}

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
    /// [`AggPartial`]s; this is the one dense state.
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
    /// [`MetricsRegistry`] (registered here, accumulated from the
    /// serving core's scratch after every serve).
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
            partials: PartialCache::new(cfg.partial_capacity),
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

    /// The deterministic identity of one `(query, instant)` planning
    /// decision, for explain-reservoir sampling and exemplar ties.
    /// Hashing the full query content plus the serve time means two
    /// shards offering the same decision produce the same key —
    /// absorption stays order-free.
    ///
    /// The key is FNV-1a over the bytes of `{query:?}@{now_s}`, and every
    /// exported explain depends on it, so those bytes are reproduced
    /// exactly — but streamed piece by piece (literal punctuation, variant
    /// names from the `*_NAMES` tables, hand-rolled decimals) instead of
    /// being driven through `core::fmt`. The
    /// `explain_hash_streams_the_bytes_the_formatted_string_had` test
    /// holds every shape of query to the formatted string.
    fn explain_hash(query: &Query, now_s: u64) -> u64 {
        let mut h = Fnv(crate::workload::FNV_OFFSET);
        h.text("Query { origin: ");
        h.num(query.origin as u64);
        h.text(", class: ");
        h.text(CLASS_NAMES[query.class.index()]);
        h.text(", selector: ");
        match query.selector {
            Selector::Type(ty) => {
                h.text("Type(");
                h.text(SENSOR_TYPE_NAMES[ty.ordinal()]);
            }
            Selector::Category(category) => {
                h.text("Category(");
                h.text(CATEGORY_NAMES[category as usize]);
            }
        }
        h.text("), scope: ");
        match query.scope {
            Scope::Section(section) => {
                h.text("Section(");
                h.num(section as u64);
                h.text(")");
            }
            Scope::District(district) => {
                h.text("District(");
                h.num(district as u64);
                h.text(")");
            }
            Scope::City => h.text("City"),
        }
        h.text(", window: TimeWindow { from_s: ");
        h.num(query.window.from_s);
        h.text(", until_s: ");
        h.num(query.window.until_s);
        h.text(" }, kind: ");
        h.text(KIND_NAMES[query.kind as usize]);
        h.text(" }@");
        h.num(now_s);
        h.0
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
                .meter_query_scratch(
                    self.obs.net_mut(),
                    origin,
                    source,
                    self.cfg.request_bytes,
                    bytes,
                    now_s,
                )
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
        let scan = Duration::from_micros(self.cfg.scan_cost_per_record_us * visited);
        self.obs
            .tracer_mut()
            .close_with(exec, now_us + scan.as_micros(), visited);
        self.obs
            .metrics_mut()
            .add(self.ids.records_scanned, visited);
        let bytes = answer.response_bytes();
        city.meter_query_scratch(
            self.obs.net_mut(),
            query.origin,
            plan.source,
            self.cfg.request_bytes,
            bytes,
            now_s,
        )
        .ok()?;
        Some(Ran {
            answer,
            via: ServedVia::Store(plan.source),
            bytes,
            busy: scan,
            completeness: Completeness::Complete,
        })
    }

    /// The per-leg chaos gate: legs whose node is crashed or unreachable
    /// from the gather node are shed from the fan-out *before* admission
    /// — degraded answers never hold slots for work that cannot run.
    /// Surviving legs still produce an exact answer over their shards;
    /// the response is annotated `Partial` so the consumer knows which
    /// fraction of the plan it covers. The survivors are left in
    /// `self.live` for [`ServeCore::run_scatter`].
    fn live_legs(&mut self, city: &F2cCity, query: &Query, plan: &ScatterPlan, now_s: u64) {
        self.live.clear();
        for leg in &plan.legs {
            if city.leg_available(query.origin, leg.node, now_s) {
                self.live.push(*leg);
            } else {
                let site = match leg.node {
                    FanoutLeg::Fog1(s) => ChaosSite::Fog1(s),
                    FanoutLeg::Fog2(d) => ChaosSite::Fog2(d),
                };
                self.obs.record_incident(now_s, site, IncidentKind::LegShed);
            }
        }
        let legs_shed = (plan.legs.len() - self.live.len()) as u64;
        self.obs.metrics_mut().add(self.ids.legs_shed, legs_shed);
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
                self.acc.end_leg();
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
                    self.cfg.bucket_s,
                );
                self.acc.end_leg();
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

    /// Executes every surviving leg of an admitted fan-out (the plan's
    /// legs, minus any the chaos gate shed — what
    /// [`ServeCore::live_legs`] left in `self.live`) against its shard,
    /// merges the partial results at the gather node: aggregates in the
    /// core's accumulator, points and ranges through [`crate::scatter`].
    /// Meters every transfer; `None` when one was lost in flight.
    fn run_scatter(
        &mut self,
        city: &F2cCity,
        query: &Query,
        plan: &ScatterPlan,
        now_s: u64,
        epoch: u64,
    ) -> Option<Ran> {
        // The core's lists, borrowed for the length of the fan-out.
        let legs = std::mem::take(&mut self.live);
        // Per-leg `(node, partial bytes)`, for metering.
        let mut reports = std::mem::take(&mut self.reports);
        let mut points = std::mem::take(&mut self.points);
        let leg_count = legs.len();
        let mut visited_total = 0u64;
        let mut slowest = Duration::ZERO;
        let mut ranges = Vec::new();
        self.acc.clear();
        let mut tally = FoldTally::default();
        let mut sketch_legs = 0u64;
        let mut sketch_hits = 0u64;
        let now_us = now_s.saturating_mul(1_000_000);
        let site = Site::new("fog1", query.origin as u32);
        let exec = self.obs.tracer_mut().open(site, "query-execute", now_us);
        for leg in &legs {
            let shard = Query {
                scope: leg.scope,
                ..*query
            };
            let (store, node): (&TieredStore, NodeKey) = match leg.node {
                FanoutLeg::Fog1(s) => (city.fog1(s).store(), NodeKey::Fog1(s as u16)),
                FanoutLeg::Fog2(d) => (city.fog2(d).store(), NodeKey::Fog2(d as u16)),
            };
            let (leg_bytes, visited) = match query.kind {
                QueryKind::Point => {
                    let (point, visited) = scan_point(store, &shard);
                    points.push(point);
                    (64, visited)
                }
                QueryKind::Range => {
                    let (recs, visited) = scan_range(store, &shard);
                    let bytes = recs.iter().map(DataRecord::wire_len).sum();
                    ranges.push(recs);
                    (bytes, visited)
                }
                QueryKind::Aggregate => {
                    let visited = if leg.via_sketch {
                        // The shard's raw records are evicted; the leg
                        // ships its ledger's pre-folded partials.
                        let section = match leg.node {
                            FanoutLeg::Fog1(s) => s,
                            FanoutLeg::Fog2(_) => {
                                unreachable!("sketch legs are always fog-1 members")
                            }
                        };
                        sketch_hits += merge_warm_sketch(
                            city.fog1(section).sketches(),
                            section,
                            &shard,
                            &mut self.acc,
                        );
                        sketch_legs += 1;
                        0
                    } else {
                        fold_aggregate(
                            city,
                            store,
                            node,
                            &shard,
                            &mut self.partials,
                            &mut self.acc,
                            &mut tally,
                            epoch,
                            now_s,
                            self.cfg.bucket_s,
                        )
                    };
                    // The leg's scalars join the gather's total in leg
                    // order, as its shipped partial's would.
                    self.acc.end_leg();
                    (AGG_PARTIAL_WIRE_BYTES, visited)
                }
            };
            let leg_time = city.cost_model().leg_cost(leg.path, leg_bytes)
                + Duration::from_micros(self.cfg.scan_cost_per_record_us * visited);
            slowest = slowest.max(leg_time);
            // One span per executed leg, at the leg's own site, closed at
            // its modeled completion with the shipped bytes as attribute.
            let leg_site = match leg.node {
                FanoutLeg::Fog1(s) => Site::new("fog1", s as u32),
                FanoutLeg::Fog2(d) => Site::new("fog2", d as u32),
            };
            let span = self.obs.tracer_mut().open(leg_site, "scatter-leg", now_us);
            self.obs
                .tracer_mut()
                .close_with(span, now_us + leg_time.as_micros(), leg_bytes);
            reports.push((leg.node, leg_bytes));
            visited_total += visited;
        }
        self.apply_fold_tally(tally);
        let m = self.obs.metrics_mut();
        m.add(self.ids.sketch_legs, sketch_legs);
        m.add(self.ids.sketch_hits, sketch_hits);
        let answer = match query.kind {
            QueryKind::Point => crate::scatter::merge_points(points.drain(..)),
            QueryKind::Range => crate::scatter::merge_ranges(ranges),
            QueryKind::Aggregate => QueryAnswer::Aggregate(finalize(&self.acc)),
        };
        self.obs
            .tracer_mut()
            .close_with(exec, now_us + slowest.as_micros(), leg_count as u64);
        self.obs
            .metrics_mut()
            .add(self.ids.records_scanned, visited_total);
        let bytes = answer.response_bytes();
        let metered = city.meter_fanout_scratch(
            self.obs.net_mut(),
            query.origin,
            &reports,
            self.cfg.request_bytes,
            bytes,
            now_s,
        );
        reports.clear();
        (self.live, self.reports, self.points) = (legs, reports, points);
        metered.ok()?;
        let m = self.obs.metrics_mut();
        m.inc(self.ids.scatter_served);
        m.add(self.ids.scatter_legs, leg_count as u64);
        let legs_total = plan.legs.len() as u32;
        let legs_shed = legs_total - leg_count as u32;
        let completeness = if legs_shed == 0 {
            Completeness::Complete
        } else {
            m.inc(self.ids.degraded);
            Completeness::Partial {
                legs_shed,
                legs_total,
            }
        };
        Some(Ran {
            answer,
            via: ServedVia::Scatter {
                legs: leg_count as u32,
            },
            bytes,
            busy: slowest + city.cost_model().fanout_overhead(leg_count),
            completeness,
        })
    }
}

/// Modeled wire size of one shipped [`AggPartial`]: moments + extremes
/// envelope plus the 1024-register HyperLogLog sketch.
const AGG_PARTIAL_WIRE_BYTES: u64 = 1_152;

/// Latest matching observation, with canonical tie-breaking by sensor
/// identity at equal creation times so every complete source yields the
/// same point. The archive's type columns name the newest second `T*` in
/// the window at which a selected type reported; only the records *at*
/// `T*` are examined (stepping to the next older candidate when none of
/// them is in scope — a fog-2 store holds more sections than a section
/// query asks for).
///
/// `visited` is what a newest-first walk of the window would have
/// counted: every record created at or after `T*`, plus the first older
/// one that ends the walk if the window holds any — or the whole window
/// when nothing matches. It prices the read (`scan_cost_per_record_us`),
/// so it comes from the archive's ranks rather than from the few
/// records actually touched.
///
/// A live probe's window is `[now − 1800, now + 1)`: its end lies past
/// the newest record, so the end rank and the type lookups take their
/// past-the-newest shortcuts; the window start and `T*` are each ranked
/// once.
fn scan_point(store: &TieredStore, query: &Query) -> (Option<PointSample>, u64) {
    let archive = store.archive();
    let w = query.window;
    let first = archive.rank(w.from_s);
    let end = archive.rank(w.until_s).max(first);
    let mut before_s = w.until_s;
    while let Some(at_s) = latest_report(archive, query.selector, w.from_s, before_s) {
        let (start, at) = archive.created_at(at_s);
        // The largest identity wins; among repeats of one sensor, the
        // latest arrival.
        let mut best: Option<(u64, &DataRecord)> = None;
        for rec in at.flatten() {
            let seed = rec.reading().sensor().seed_material();
            if query.matches(rec) && best.is_none_or(|(s, _)| seed >= s) {
                best = Some((seed, rec));
            }
        }
        if let Some((_, rec)) = best {
            let visited = end - start + usize::from(start > first);
            let point = PointSample {
                created_s: at_s,
                sensor: rec.reading().sensor(),
                value: rec.reading().value().magnitude(),
            };
            return (Some(point), visited as u64);
        }
        before_s = at_s;
    }
    (None, (end - first) as u64)
}

/// The newest second in `[from_s, before_s)` at which any type the
/// selector covers has a stored record.
fn latest_report(
    archive: &ArchiveStore,
    selector: Selector,
    from_s: u64,
    before_s: u64,
) -> Option<u64> {
    match selector {
        Selector::Type(ty) => archive.latest_of_type(ty, from_s, before_s),
        Selector::Category(_) => SensorType::ALL
            .iter()
            .filter(|&&ty| selector.matches(ty))
            .filter_map(|&ty| archive.latest_of_type(ty, from_s, before_s))
            .max(),
    }
}

fn execute_point(store: &TieredStore, query: &Query) -> (QueryAnswer, u64) {
    let (best, visited) = scan_point(store, query);
    (QueryAnswer::Point(best), visited)
}

fn scan_range(store: &TieredStore, query: &Query) -> (Vec<DataRecord>, u64) {
    let w = query.window;
    let mut visited = 0u64;
    let mut out = Vec::new();
    for records in store.archive().range(w.from_s, w.until_s) {
        visited += records.len() as u64;
        for rec in records {
            if query.matches(rec) {
                out.push(rec.clone());
            }
        }
    }
    (out, visited)
}

fn execute_range(store: &TieredStore, query: &Query) -> (QueryAnswer, u64) {
    let (out, visited) = scan_range(store, query);
    (QueryAnswer::Records(out), visited)
}

/// The sections of `query`'s scope whose records `node` can hold — the
/// decomposition the sketch plane keys its ledgers by. Always one run of
/// consecutive section indices, because a district's sections are
/// contiguous in the city's numbering.
fn scope_sections(city: &F2cCity, query: &Query, node: NodeKey) -> Range<u16> {
    let district = |d: usize| {
        let members = city.sections_in_district(d);
        debug_assert!(members.windows(2).all(|w| w[1] == w[0] + 1));
        let first = members.first().map_or(0, |&s| s as u16);
        first..first + members.len() as u16
    };
    match query.scope {
        Scope::Section(s) => s as u16..s as u16 + 1,
        Scope::District(d) => district(d),
        Scope::City => match node {
            // Only the cloud is ever a single source for a city window.
            NodeKey::Cloud => 0..city.section_count() as u16,
            NodeKey::Fog1(s) => s..s + 1,
            NodeKey::Fog2(d) => district(d as usize),
        },
    }
}

/// Per-window prefold context, computed once per [`fold_aggregate`]
/// call instead of once per bucket: the node's ledger, the scoped
/// sections, and the frontier up to which the ledger provably matches
/// the archive.
struct PrefoldCtx<'a> {
    ledger: &'a SketchLedger,
    sections: Range<u16>,
    /// Buckets ending past this cannot prefold. Fog-1 ledgers lag their
    /// pending queue (folds happen at flush), so there it is the pending
    /// frontier; fog-2/cloud ledgers fold at receive time and never lag
    /// their stores.
    settled_until_s: u64,
}

impl<'a> PrefoldCtx<'a> {
    /// The context for `query` at `node`, or `None` when the ledger's
    /// bucketing differs from the engine's and prefolding is off.
    fn new(
        city: &'a F2cCity,
        store: &TieredStore,
        node: NodeKey,
        query: &Query,
        bucket_s: u64,
    ) -> Option<Self> {
        let ledger = match node {
            NodeKey::Fog1(s) => city.fog1(s as usize).sketches(),
            NodeKey::Fog2(d) => city.fog2(d as usize).sketches(),
            NodeKey::Cloud => city.cloud().sketches(),
        };
        if ledger.bucket_s() != bucket_s {
            return None;
        }
        let settled_until_s = if matches!(node, NodeKey::Fog1(_)) {
            store.pending_earliest_s().unwrap_or(u64::MAX)
        } else {
            u64::MAX
        };
        Some(Self {
            ledger,
            sections: scope_sections(city, query, node),
            settled_until_s,
        })
    }

    /// Assembles one closed bucket from the ledger — the flush-shipped
    /// pre-folded partials — when the ledger provably matches the
    /// archive for it: every scoped section's seal frontier reaches past
    /// the bucket, nothing in it was compacted away, and nothing created
    /// inside it is still pending. Returns `None` when any check fails
    /// and the caller must scan.
    fn bucket(&self, query: &Query, bucket_start_s: u64, bucket_end_s: u64) -> Option<AggPartial> {
        if bucket_end_s > self.settled_until_s {
            return None;
        }
        if !self
            .sections
            .clone()
            .all(|s| self.ledger.covers(s, bucket_start_s, bucket_end_s))
        {
            return None;
        }
        let mut part = AggPartial::empty();
        for section in self.sections.clone() {
            merge_selected(
                self.ledger,
                section,
                query,
                bucket_start_s,
                bucket_end_s,
                &mut part,
            );
        }
        Some(part)
    }
}

/// Merges every ledger partial matching `query`'s selector over its
/// whole window for `section` into `acc`; returns the number merged.
/// This is a whole warm-sketch answer or leg: the planner proved
/// coverage, so absent buckets are provably empty.
fn merge_warm_sketch(
    ledger: &SketchLedger,
    section: usize,
    query: &Query,
    acc: &mut AggAcc,
) -> u64 {
    let w = query.window;
    merge_selected(ledger, section as u16, query, w.from_s, w.until_s, acc)
}

/// Merges the ledger partials of every sensor type `query`'s selector
/// matches over `[from_s, until_s)` for `section`; returns the number
/// merged.
fn merge_selected<A: AggState>(
    ledger: &SketchLedger,
    section: u16,
    query: &Query,
    from_s: u64,
    until_s: u64,
    acc: &mut A,
) -> u64 {
    let mut merged = 0;
    for ty in SensorType::ALL {
        if query.selector.matches(ty) {
            merged += ledger.merge_range(section, ty, from_s, until_s, acc);
        }
    }
    merged
}

/// Folds the window into the current leg of `acc` — what a
/// scatter-gather leg ships to the gather node, or a single source's
/// whole answer — reusing cached closed buckets where the epoch allows,
/// and assembling closed buckets from the node's sketch ledger (the
/// flush-shipped pre-folded partials) before falling back to an archive
/// scan. Only a bucket about to be cached is ever built as an
/// [`AggPartial`]. Returns the records visited.
#[allow(clippy::too_many_arguments)]
fn fold_aggregate(
    city: &F2cCity,
    store: &TieredStore,
    node: NodeKey,
    query: &Query,
    partials: &mut PartialCache,
    acc: &mut AggAcc,
    tally: &mut FoldTally,
    epoch: u64,
    now_s: u64,
    bucket_s: u64,
) -> u64 {
    let w = query.window;
    let bucket_s = bucket_s.max(1);
    let mut visited = 0u64;
    let first_full = w.from_s.next_multiple_of(bucket_s);
    let last_full = (w.until_s / bucket_s) * bucket_s;
    if first_full >= last_full {
        // No full bucket inside the window: one direct fold.
        return fold_segment(store, query, w.from_s, w.until_s, acc);
    }
    let prefold = PrefoldCtx::new(city, store, node, query, bucket_s);
    // One table probe for the whole leg; its buckets are then found by
    // their start.
    let series = partials.series(SeriesKey {
        node,
        selector: query.selector,
        scope: query.scope,
    });
    visited += fold_segment(store, query, w.from_s, first_full, acc);
    let mut bucket = first_full;
    while bucket < last_full {
        let bucket_end = bucket + bucket_s;
        // Only closed buckets are cacheable: fog-1 ingest appends at
        // the clock frontier, and tiers above only change on flush
        // (which bumps the epoch), so a cached closed bucket cannot
        // drift.
        if bucket_end <= now_s {
            // A cached-partial merge is O(its registers) — no records
            // visited, so it never costs more than folding the bucket
            // (even an empty one).
            if partials.merge_at(series, bucket, epoch, acc) {
                tally.partial_hits += 1;
            } else if let Some(part) = prefold
                .as_ref()
                .and_then(|ctx| ctx.bucket(query, bucket, bucket_end))
            {
                // The flush already folded this bucket: merge the
                // shipped partials instead of re-scanning, and cache
                // the assembly for the next query.
                acc.merge(&part);
                partials.put_at(series, bucket, part, epoch);
                tally.prefold_hits += 1;
            } else {
                let mut part = AggPartial::empty();
                visited += fold_segment(store, query, bucket, bucket_end, &mut part);
                acc.merge(&part);
                partials.put_at(series, bucket, part, epoch);
                tally.partial_fills += 1;
            }
        } else {
            visited += fold_segment(store, query, bucket, bucket_end, acc);
        }
        bucket = bucket_end;
    }
    visited + fold_segment(store, query, last_full, w.until_s, acc)
}

/// Folds the matching records created in `[from_s, until_s)` into `acc`
/// — the request's accumulator, or a bucket partial about to be cached;
/// returns the records visited.
fn fold_segment<A: AggState>(
    store: &TieredStore,
    query: &Query,
    from_s: u64,
    until_s: u64,
    acc: &mut A,
) -> u64 {
    // A bucket-aligned window has empty head and tail segments: most
    // calls. Two binary searches to find that out are not free.
    if from_s >= until_s {
        return 0;
    }
    let mut visited = 0u64;
    for records in store.archive().range(from_s, until_s) {
        visited += records.len() as u64;
        for rec in records {
            if query.matches(rec) {
                absorb_record(acc, rec);
            }
        }
    }
    visited
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Selector, TimeWindow};
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

    /// The newest-first walk `scan_point` replaced, kept as its oracle:
    /// the answer and the `visited` count it produced are the contract
    /// (`visited` prices the read, so it reaches `est_latency`).
    fn scan_point_by_walk(store: &TieredStore, query: &Query) -> (Option<PointSample>, u64) {
        let w = query.window;
        let mut visited = 0u64;
        let mut best: Option<(u64, u64, PointSample)> = None;
        for rec in store.range(w.from_s, w.until_s).rev() {
            visited += 1;
            let created = rec.descriptor().created_s();
            if best.is_some_and(|(best_created, _, _)| created < best_created) {
                break;
            }
            if query.matches(rec) {
                let sensor = rec.reading().sensor();
                let rank = (created, sensor.seed_material());
                if best.is_none_or(|(c, s, _)| rank > (c, s)) {
                    let value = rec.reading().value().magnitude();
                    let point = PointSample {
                        created_s: created,
                        sensor,
                        value,
                    };
                    best = Some((created, sensor.seed_material(), point));
                }
            }
        }
        (best.map(|(_, _, p)| p), visited)
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
            // A type absent from the window: `None`, the whole window.
            (
                q(Selector::Type(ParkingSpot), Scope::City, 0, 100),
                None,
                107,
            ),
            (q(weather, Scope::City, 11, 100), None, 94),
            // Ties at `T*` across sensors: the larger identity wins; the
            // ten records at 19 plus the one older that ends the walk.
            (q(traffic, Scope::City, 0, 100), Some((19, 9)), 11),
            // A match only at the window's oldest second: nothing older
            // is left to end the walk, so no `+ 1`.
            (q(weather, Scope::City, 10, 100), Some((10, 0)), 107),
            (q(weather, Scope::City, 0, 11), Some((10, 0)), 13),
            // Section 3 stopped reporting Traffic after 12: every newer
            // second holds Traffic, none of it in scope — step older.
            (q(traffic, Scope::Section(3), 0, 100), Some((12, 6)), 83),
            (q(traffic, Scope::Section(3), 13, 100), None, 70),
            (q(traffic, Scope::District(1), 0, 100), Some((19, 7)), 11),
            // A category spans types; the newest of any of them is `T*`.
            (q(urban, Scope::Section(3), 0, 100), Some((19, 3)), 11),
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
}
