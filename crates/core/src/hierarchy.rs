//! The assembled city: all 73 fog-1 nodes, 10 fog-2 nodes and the cloud,
//! wired to the Barcelona topology. It runs the write path (ingest and
//! the flush wave) and meters the transfers of reads that the query
//! engine's §IV.C planner routes to a neighbor fog node, a fog-2 node or
//! the cloud.

use citysim::barcelona::{BarcelonaTopology, LatencyProfile, DISTRICTS};
use citysim::net::FailurePlan;
use citysim::time::SimTime;
use citysim::{NetScratch, Network, NodeId};
use f2c_aggregate::sketch::SketchKey;
use f2c_compress::tsenc;
use f2c_obs::{
    AlertTransition, BurnRateMonitor, CounterId, ExemplarStore, ExplainStore, Labels,
    MetricsRegistry, Site, SloSpec, Tracer,
};
use scc_sensors::{wire, Catalog, Reading};

use crate::cost::AccessCostModel;
use crate::incident::{ChaosSite, IncidentKind, IncidentTimeline};
use crate::node::{F2cNode, FlushBatch, IngestOutcome};
use crate::policy::{FlushPolicy, RetentionPolicy};
use crate::shard::{run_shards, ObsScratch, Parallelism, ShipmentRecord};
use crate::{Error, Result};

/// Where a fetch was ultimately served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// The requesting section's own fog-1 node.
    Local,
    /// Another fog-1 node in the same district (section index).
    Neighbor(usize),
    /// The district's fog-2 node.
    Parent,
    /// A sibling district's fog-2 node (district index), reached over the
    /// fog-2 metro ring.
    RemoteFog2(usize),
    /// The cloud archive.
    Cloud,
    /// The *sketch ledger* of a fog-1 node (section index): pre-folded
    /// bucket partials answering an aggregate window whose raw records
    /// the node has already evicted. Proved by the ledger's seal
    /// frontier instead of the raw eviction watermark.
    WarmSketch(usize),
}

/// One node of a scatter-gather fan-out: the member fog nodes that each
/// provably hold one shard of a distributed query's window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FanoutLeg {
    /// A fog-1 node by section index.
    Fog1(usize),
    /// A fog-2 node by district index.
    Fog2(usize),
}

/// Outcome of one anti-entropy round: what happened to every coverage
/// hole the fog-2 and cloud ledgers carried into it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HealReport {
    /// Holes closed by a targeted re-shipment of the shipper's
    /// authoritative partial.
    pub healed: u64,
    /// Holes carried to the next round: the healing node or its source
    /// was crashed/unreachable, or the source is itself still holed.
    pub blocked: u64,
    /// Holes with no surviving source copy (the shipper compacted the
    /// bucket away); they retire only with the compaction watermark.
    pub impossible: u64,
}

impl HealReport {
    /// Adds another receiver's round to this report.
    fn add(&mut self, other: HealReport) {
        self.healed += other.healed;
        self.blocked += other.blocked;
        self.impossible += other.impossible;
    }
}

/// The city's pre-resolved handles into its metrics registry: hot paths
/// publish through dense ids, never by name.
#[derive(Debug, Clone, Copy)]
struct CityMetricIds {
    /// Table-I accounting bytes flushed upward, per hop (fog-1 → fog-2,
    /// fog-2 → cloud).
    raw_flush_bytes: [CounterId; 2],
    /// Wire bytes of the pre-folded partials shipped per hop alongside
    /// the raw batches (the sketch channel's cost), heals included.
    sketch_flush_bytes: [CounterId; 2],
    /// Bytes actually metered on the uplink per hop — the encoded
    /// `tsenc` payload when the policy compresses, accounting bytes
    /// otherwise. The `flush.bytes_per_record` budget gates on these.
    uplink_flush_bytes: [CounterId; 2],
    /// Encoded payloads shipped, both hops together, by `tsenc` stream
    /// mode: `[columnar, fallback]`, indexed by the mode byte.
    flush_batches: [CounterId; 2],
    /// Flush waves run.
    flush_waves: CounterId,
    /// Anti-entropy outcomes: holes healed / carried / unhealable.
    heal_healed: CounterId,
    heal_blocked: CounterId,
    heal_impossible: CounterId,
}

impl CityMetricIds {
    fn register(metrics: &mut MetricsRegistry) -> Self {
        let flush = Labels::new().service("flush");
        let sketch = Labels::new().service("sketch");
        Self {
            raw_flush_bytes: [
                metrics.counter("flush_raw_bytes", flush.layer("fog1")),
                metrics.counter("flush_raw_bytes", flush.layer("fog2")),
            ],
            sketch_flush_bytes: [
                metrics.counter("flush_sketch_bytes", sketch.layer("fog1")),
                metrics.counter("flush_sketch_bytes", sketch.layer("fog2")),
            ],
            uplink_flush_bytes: [
                metrics.counter("flush_uplink_bytes", flush.layer("fog1")),
                metrics.counter("flush_uplink_bytes", flush.layer("fog2")),
            ],
            flush_batches: [
                metrics.counter("flush_batches", flush.kind("columnar")),
                metrics.counter("flush_batches", flush.kind("fallback")),
            ],
            flush_waves: metrics.counter("flush_waves", flush),
            heal_healed: metrics.counter("heal_outcomes", sketch.kind("healed")),
            heal_blocked: metrics.counter("heal_outcomes", sketch.kind("blocked")),
            heal_impossible: metrics.counter("heal_outcomes", sketch.kind("impossible")),
        }
    }

    /// The `flush_batches` series `batch` counts under: read off its
    /// payload's mode byte (`None` when the policy ships no payload).
    fn batch_mode(&self, batch: &FlushBatch) -> Option<CounterId> {
        let mode = tsenc::stream_mode(batch.payload.as_deref()?)?;
        self.flush_batches.get(usize::from(mode)).copied()
    }
}

/// The full F2C deployment over Barcelona.
#[derive(Debug)]
pub struct F2cCity {
    catalog: Catalog,
    city: BarcelonaTopology,
    fog1: Vec<F2cNode>,
    fog2: Vec<F2cNode>,
    cloud: F2cNode,
    cost: AccessCostModel,
    flush_epoch: u64,
    /// The unified observability registry every plane publishes into
    /// (flush accounting, heals, incidents, and — through the engine —
    /// query serving).
    metrics: MetricsRegistry,
    ids: CityMetricIds,
    /// Sim-time span logs, one ring per node.
    tracer: Tracer,
    /// Every injected fault and its downstream effects, per node.
    timeline: IncidentTimeline,
    /// Retained planner EXPLAIN transcripts (min-hash reservoir).
    explains: ExplainStore,
    /// Per-latency-bucket trace exemplars: the slowest query per bucket
    /// keeps its span tree.
    exemplars: ExemplarStore,
    /// The availability SLO's burn-rate monitor, evaluated at every
    /// flush instant on the event clock.
    monitor: BurnRateMonitor,
    /// Worker threads for the sharded phases (flush waves, anti-entropy
    /// phase 1, sharded ingest). Every observable is byte-identical at
    /// any setting; this knob only trades wall-clock.
    parallelism: Parallelism,
    /// Whether flush waves append every encoded shipment to
    /// [`F2cCity::shipment_log`] (off by default — the tap exists for
    /// the codec's differential and invariance tests).
    capture_shipments: bool,
    /// Captured shipments, in canonical district/section order.
    shipment_log: Vec<ShipmentRecord>,
}

impl F2cCity {
    /// Builds the deployment with explicit policies.
    ///
    /// # Errors
    ///
    /// Propagates policy validation errors.
    pub(crate) fn new(
        profile: &LatencyProfile,
        fog1_flush: FlushPolicy,
        fog2_flush: FlushPolicy,
        fog1_retention: RetentionPolicy,
    ) -> Result<Self> {
        let city = BarcelonaTopology::build(profile);
        let mut fog1 = Vec::with_capacity(73);
        let mut section = 0u16;
        for (d, (_, sections)) in DISTRICTS.iter().enumerate() {
            for _ in 0..*sections {
                fog1.push(F2cNode::fog1(
                    d as u16,
                    section,
                    fog1_flush,
                    fog1_retention,
                )?);
                section += 1;
            }
        }
        let fog2 = (0..DISTRICTS.len())
            .map(|d| F2cNode::fog2(d as u16, fog2_flush, RetentionPolicy::keep(7 * 86_400)))
            .collect::<Result<_>>()?;
        let mut metrics = MetricsRegistry::new();
        let ids = CityMetricIds::register(&mut metrics);
        Ok(Self {
            catalog: Catalog::barcelona(),
            cost: AccessCostModel::new(*profile),
            city,
            fog1,
            fog2,
            cloud: F2cNode::cloud(),
            flush_epoch: 0,
            metrics,
            ids,
            tracer: Tracer::new(),
            timeline: IncidentTimeline::new(),
            explains: ExplainStore::new(),
            exemplars: ExemplarStore::new(),
            monitor: BurnRateMonitor::new(Self::AVAILABILITY_SLO),
            parallelism: Parallelism::from_env(),
            capture_shipments: false,
            shipment_log: Vec::new(),
        })
    }

    /// The availability SLO the city alerts on: 99.9% of answered-or-shed
    /// query traffic must not be fault-shed, with the SRE two-window
    /// policy (10-minute detection window, 1-hour confirmation window,
    /// fire at 10x budget burn). Fault-free runs can never fire — the bad
    /// series stays at zero.
    pub(crate) const AVAILABILITY_SLO: SloSpec = SloSpec {
        name: "availability",
        objective_ppm: 999_000,
        fast_window_s: 600,
        slow_window_s: 3_600,
        fire_burn_milli: 10_000,
    };

    /// Sets the worker-thread count for the sharded phases. Snapshots,
    /// transcripts and traces are byte-identical at any value (the city
    /// is partitioned into fixed district shards and every merge folds
    /// in canonical district order); `1` runs everything inline.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    /// The configured worker-thread count for sharded phases.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The paper's default deployment.
    pub fn barcelona() -> Result<Self> {
        Self::new(
            &LatencyProfile::default(),
            FlushPolicy::paper_fog1(),
            FlushPolicy::paper_fog2(),
            RetentionPolicy::keep(86_400),
        )
    }

    /// Number of fog-1 nodes (73).
    pub fn section_count(&self) -> usize {
        self.fog1.len()
    }

    /// The fog-1 node of a section.
    pub fn fog1(&self, section: usize) -> &F2cNode {
        &self.fog1[section]
    }

    /// The fog-2 node of a district.
    pub fn fog2(&self, district: usize) -> &F2cNode {
        &self.fog2[district]
    }

    /// The cloud node.
    pub fn cloud(&self) -> &F2cNode {
        &self.cloud
    }

    /// The Table-I catalog backing the deployment.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The §IV.C access cost model (shared with the query planner).
    pub fn cost_model(&self) -> &AccessCostModel {
        &self.cost
    }

    /// The simulated topology and its network (with the per-link meter).
    pub(crate) fn topology(&self) -> &BarcelonaTopology {
        &self.city
    }

    /// Installs a chaos-plane failure plan on the simulated network
    /// (node crash windows, link outages, flush-shipment loss and
    /// corruption coins).
    pub fn set_failures(&mut self, plan: FailurePlan) {
        self.city.network_mut().set_failures(plan);
    }

    /// Adds a crash window for a site's node to the installed failure
    /// plan, without callers having to know simulated-network node ids.
    pub fn inject_node_outage(&mut self, site: ChaosSite, from_s: u64, until_s: u64) {
        let node = self.site_node(site);
        self.city.network_mut().failures_mut().add_node_outage(
            node,
            SimTime::from_secs(from_s),
            SimTime::from_secs(until_s),
        );
    }

    /// The queryable per-node incident timeline: every injected fault
    /// and its downstream effects, in deterministic replay order.
    pub fn timeline(&self) -> &IncidentTimeline {
        &self.timeline
    }

    /// Records an incident. The query engine reports its fault sheds,
    /// shed fan-out legs and reroutes here, so one timeline spans the
    /// flush, sketch *and* query planes. Every incident also lands on the
    /// registry as an `incidents{kind=…}` counter, so the exported
    /// snapshot carries the timeline summary for free.
    pub(crate) fn record_incident(&mut self, at_s: u64, site: ChaosSite, kind: IncidentKind) {
        let id = self
            .metrics
            .counter("incidents", Labels::new().kind(kind.label()));
        self.metrics.inc(id);
        self.timeline.record(at_s, site, kind);
    }

    /// The unified metrics registry every plane publishes into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the registry, for co-located publishers (the
    /// query engine registers its own series here).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// The sim-time tracer: per-node ring-buffered span logs.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The retained planner EXPLAIN transcripts.
    pub fn explains(&self) -> &ExplainStore {
        &self.explains
    }

    /// Mutable access to the explain reservoir (the query engine's
    /// sequential path offers records here directly).
    pub fn explains_mut(&mut self) -> &mut ExplainStore {
        &mut self.explains
    }

    /// The per-latency-bucket trace exemplars.
    pub fn exemplars(&self) -> &ExemplarStore {
        &self.exemplars
    }

    /// Mutable access to the exemplar slots.
    pub fn exemplars_mut(&mut self) -> &mut ExemplarStore {
        &mut self.exemplars
    }

    /// The availability SLO's burn-rate monitor.
    pub fn burn_monitor(&self) -> &BurnRateMonitor {
        &self.monitor
    }

    /// Turns the shipment tap on or off. While on, every flush hop that
    /// ships an encoded payload appends a [`ShipmentRecord`] to
    /// [`F2cCity::shipment_log`], in the same canonical district and
    /// section order at every thread count.
    pub fn set_capture_shipments(&mut self, on: bool) {
        self.capture_shipments = on;
    }

    /// The captured flush shipments (empty unless the tap is on).
    pub fn shipment_log(&self) -> &[ShipmentRecord] {
        &self.shipment_log
    }

    /// Drains and returns the captured flush shipments.
    pub fn take_shipment_log(&mut self) -> Vec<ShipmentRecord> {
        std::mem::take(&mut self.shipment_log)
    }

    /// Evaluates the availability burn-rate monitor at event-clock
    /// instant `now_s` against the merged registry's cumulative
    /// query-serving counters. A fire lands an
    /// [`IncidentKind::AlertFired`] on the timeline (with the window
    /// values that justified it) plus a flight-recorder dump of each
    /// site's most recent spans; the matching
    /// [`IncidentKind::AlertResolved`] lands when the fast window
    /// clears. [`F2cCity::flush_due`] calls this after every wave, so
    /// every driver evaluates on the flush schedule — alerts are
    /// byte-identical artifacts at any thread count.
    pub(crate) fn evaluate_alerts(&mut self, now_s: u64) {
        let q = Labels::new().service("query");
        let good = self.metrics.counter_named("query_answered", q).unwrap_or(0);
        let bad = self
            .metrics
            .counter_named("query_fault_shed", q)
            .unwrap_or(0);
        match self.monitor.evaluate(now_s, good, bad) {
            Some(AlertTransition::Fired {
                fast_burn_milli,
                slow_burn_milli,
            }) => {
                self.monitor
                    .attach_flight_record(self.tracer.flight_record(8));
                self.record_incident(
                    now_s,
                    ChaosSite::Cloud,
                    IncidentKind::AlertFired {
                        fast_burn_milli,
                        slow_burn_milli,
                    },
                );
            }
            Some(AlertTransition::Resolved {
                fast_burn_milli,
                slow_burn_milli,
            }) => {
                self.record_incident(
                    now_s,
                    ChaosSite::Cloud,
                    IncidentKind::AlertResolved {
                        fast_burn_milli,
                        slow_burn_milli,
                    },
                );
            }
            None => {}
        }
    }

    /// The simulated network node hosting a site.
    fn site_node(&self, site: ChaosSite) -> NodeId {
        match site {
            ChaosSite::Fog1(s) => self.city.fog1_nodes()[s],
            ChaosSite::Fog2(d) => self.city.fog2_nodes()[d],
            ChaosSite::Cloud => self.city.cloud(),
        }
    }

    /// Whether a site's node sits inside an injected crash window.
    pub fn site_is_down(&self, site: ChaosSite, now_s: u64) -> bool {
        self.city
            .network()
            .failures()
            .node_is_down(self.site_node(site), SimTime::from_secs(now_s))
    }

    /// Whether a planned serve of `source` to a consumer at `section`
    /// can currently run: both endpoints outside crash windows and every
    /// link of the route outside its outage window. A pure reachability
    /// probe — no loss coin is drawn, nothing is metered.
    pub fn source_available(&self, section: usize, source: DataSource, now_s: u64) -> bool {
        let at = SimTime::from_secs(now_s);
        let requester = self.city.fog1_nodes()[section];
        let net = self.city.network();
        let source_node = match source {
            // Local serves (and a warm-sketch merge at the requester's
            // own ledger) only need the requester itself alive.
            DataSource::Local => return !net.failures().node_is_down(requester, at),
            DataSource::WarmSketch(s) if s == section => {
                return !net.failures().node_is_down(requester, at)
            }
            DataSource::Neighbor(n) | DataSource::WarmSketch(n) => self.city.fog1_nodes()[n],
            DataSource::Parent => self.city.fog2_nodes()[self.city.district_of(section)],
            DataSource::RemoteFog2(d) => self.city.fog2_nodes()[d],
            DataSource::Cloud => self.city.cloud(),
        };
        net.path_is_up(requester, source_node, at)
    }

    /// Whether one scatter-gather leg is reachable from the gather node
    /// (the fog-2 of the requester's district) at `now_s`.
    pub fn leg_available(&self, section: usize, leg: FanoutLeg, now_s: u64) -> bool {
        let at = SimTime::from_secs(now_s);
        let gather = self.city.fog2_nodes()[self.city.district_of(section)];
        let node = match leg {
            FanoutLeg::Fog1(s) => self.city.fog1_nodes()[s],
            FanoutLeg::Fog2(d) => self.city.fog2_nodes()[d],
        };
        self.city.network().path_is_up(gather, node, at)
    }

    /// District of a section (0..73 → 0..10).
    pub fn district_of(&self, section: usize) -> usize {
        self.city.district_of(section)
    }

    /// The section indices of a district's fog-1 nodes, ascending.
    pub fn sections_in_district(&self, district: usize) -> &[usize] {
        self.city.fog1_in_district(district)
    }

    /// Number of districts (fog-2 nodes) in the deployment.
    pub fn district_count(&self) -> usize {
        self.fog2.len()
    }

    /// Metro-ring distance between two districts' fog-2 nodes (0 for the
    /// same district). Scatter-gather planning prices fan-out legs with
    /// it.
    pub fn fog2_ring_hops(&self, a: usize, b: usize) -> u32 {
        let n = self.fog2.len();
        let d = a.abs_diff(b);
        d.min(n - d) as u32
    }

    /// Monotone counter bumped by every `F2cCity::flush_due`. Result
    /// caches key their entries on it: archives above fog 1 only change
    /// when a flush ships data upward, so an unchanged epoch certifies
    /// that a cached answer is still current.
    pub fn flush_epoch(&self) -> u64 {
        self.flush_epoch
    }

    /// Cumulative Table-I accounting bytes flushed upward so far, per
    /// hop: `(fog-1 → fog-2, fog-2 → cloud)`. A typed view over the
    /// registry's `flush_raw_bytes{layer=…}` counters.
    pub fn raw_flush_bytes(&self) -> (u64, u64) {
        (
            self.metrics.counter_value(self.ids.raw_flush_bytes[0]),
            self.metrics.counter_value(self.ids.raw_flush_bytes[1]),
        )
    }

    /// Cumulative wire bytes of the pre-folded bucket partials shipped
    /// upward so far, per hop: `(fog-1 → fog-2, fog-2 → cloud)`. The
    /// benches report these next to [`F2cCity::raw_flush_bytes`] — the
    /// sketch channel summarizes the whole raw stream for aggregate
    /// readers at a small fraction of its size.
    pub fn sketch_flush_bytes(&self) -> (u64, u64) {
        (
            self.metrics.counter_value(self.ids.sketch_flush_bytes[0]),
            self.metrics.counter_value(self.ids.sketch_flush_bytes[1]),
        )
    }

    /// Cumulative bytes actually metered on the flush uplinks so far,
    /// per hop: `(fog-1 → fog-2, fog-2 → cloud)`. With a compressing
    /// policy these are the encoded `tsenc` payload sizes — what the
    /// network really carried — and the quantity the
    /// `flush.bytes_per_record` perf budget is computed from.
    pub fn uplink_flush_bytes(&self) -> (u64, u64) {
        (
            self.metrics.counter_value(self.ids.uplink_flush_bytes[0]),
            self.metrics.counter_value(self.ids.uplink_flush_bytes[1]),
        )
    }

    /// Encoded flush payloads shipped so far, both hops together, by
    /// `tsenc` stream mode: `(columnar, fallback)`. The codec picks the
    /// mode from the batch's shape, so fault-free generator traffic —
    /// every value in its type's model — must never count a fallback.
    pub fn flush_batches(&self) -> (u64, u64) {
        (
            self.metrics.counter_value(self.ids.flush_batches[0]),
            self.metrics.counter_value(self.ids.flush_batches[1]),
        )
    }

    /// Meters one consumer request/response on the simulated network:
    /// `request_bytes` from `section`'s fog-1 node to the `source`, and
    /// `response_bytes` back. Local serves never touch the network. The
    /// traffic and the loss-coin draws are buffered in the caller's
    /// [`NetScratch`] until it is absorbed ([`F2cCity::absorb_scratch`]);
    /// `&self` lets shards meter concurrently against the shared network
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Network errors (e.g. injected outages on the chosen path).
    pub fn meter_query_scratch(
        &self,
        net: &mut NetScratch,
        section: usize,
        source: DataSource,
        request_bytes: u64,
        response_bytes: u64,
        now_s: u64,
    ) -> Result<()> {
        let requester = self.city.fog1_nodes()[section];
        let source_node = match source {
            DataSource::Local => return Ok(()),
            // A warm-sketch merge at the requester's own node is free;
            // a neighbor's ledger pays the same ring hop a raw neighbor
            // read would.
            DataSource::WarmSketch(s) if s == section => return Ok(()),
            DataSource::Neighbor(n) | DataSource::WarmSketch(n) => self.city.fog1_nodes()[n],
            DataSource::Parent => self.city.fog2_nodes()[self.city.district_of(section)],
            DataSource::RemoteFog2(d) => self.city.fog2_nodes()[d],
            DataSource::Cloud => self.city.cloud(),
        };
        self.city.network().request_response_scratch(
            net,
            requester,
            source_node,
            request_bytes,
            response_bytes,
            SimTime::from_secs(now_s),
        )?;
        Ok(())
    }

    /// Meters one scatter-gather execution on the simulated network: a
    /// `request_bytes` fan-out from the gather node (the requester's
    /// fog-2) to every leg with each leg's partial result shipped back,
    /// then the merged `response_bytes` delivered over the last
    /// fog-2 → fog-1 hop. Legs colocated with the gather node are free.
    /// Buffered in `net` like [`F2cCity::meter_query_scratch`].
    ///
    /// # Errors
    ///
    /// Network errors (e.g. injected outages on a leg's path).
    pub fn meter_fanout_scratch(
        &self,
        net: &mut NetScratch,
        section: usize,
        legs: &[(FanoutLeg, u64)],
        request_bytes: u64,
        response_bytes: u64,
        now_s: u64,
    ) -> Result<()> {
        let gather_district = self.city.district_of(section);
        let gather = self.city.fog2_nodes()[gather_district];
        let at = SimTime::from_secs(now_s);
        for &(leg, leg_bytes) in legs {
            let node = match leg {
                FanoutLeg::Fog1(s) => self.city.fog1_nodes()[s],
                FanoutLeg::Fog2(d) => self.city.fog2_nodes()[d],
            };
            if node == gather {
                continue;
            }
            self.city.network().request_response_scratch(
                net,
                gather,
                node,
                request_bytes,
                leg_bytes,
                at,
            )?;
        }
        let requester = self.city.fog1_nodes()[section];
        self.city.network().request_response_scratch(
            net,
            requester,
            gather,
            request_bytes,
            response_bytes,
            at,
        )?;
        Ok(())
    }

    /// Folds one shard's buffered observability into the city: counter
    /// deltas and histograms merge into the unified registry (by key,
    /// with the scratch's cached id map), completed spans append to the
    /// per-site trace logs, incidents append to the timeline, and the
    /// network scratch replays its metering and commits its loss-coin
    /// draws. Callers absorb shards in canonical district order, which
    /// is what makes every merged artifact thread-count-invariant.
    pub fn absorb_scratch(&mut self, scratch: &mut ObsScratch) {
        self.metrics
            .absorb_counters(&mut scratch.reg, &mut scratch.map);
        self.metrics.absorb_histograms(&mut scratch.reg);
        self.tracer.absorb(&mut scratch.tracer);
        self.timeline.absorb(&mut scratch.timeline);
        self.explains.absorb(&mut scratch.explains);
        self.exemplars.absorb(&mut scratch.exemplars);
        self.city.network_mut().absorb_scratch(&mut scratch.net);
        self.shipment_log.append(&mut scratch.shipments);
    }

    /// Ingests one wave of readings at a section's fog-1 node.
    ///
    /// # Errors
    ///
    /// Propagates node errors.
    pub fn ingest(
        &mut self,
        section: usize,
        readings: Vec<Reading>,
        now_s: u64,
    ) -> Result<IngestOutcome> {
        // A crashed fog-1 node loses the wave at the edge: neither the
        // raw store nor the sketch plane ever sees these readings, so
        // every later answer stays consistent with the surviving stream.
        if self.site_is_down(ChaosSite::Fog1(section), now_s) {
            let offered = readings.len() as u64;
            self.record_incident(
                now_s,
                ChaosSite::Fog1(section),
                IncidentKind::IngestLost { readings: offered },
            );
            return Ok(IngestOutcome {
                offered,
                ..IngestOutcome::default()
            });
        }
        self.fog1[section].ingest_wave(readings, now_s, &self.catalog)
    }

    /// `F2cCity::flush_due` of both tiers, whatever the nodes' flush
    /// periods: how the warm-up, the query loop and the benchmark flush.
    ///
    /// # Errors
    ///
    /// Network or compression failures (first in district order).
    pub fn flush_all(&mut self, now_s: u64) -> Result<(u64, u64)> {
        self.flush_due(now_s, true, true)
    }

    /// Flushes the due tiers over the metered network — every fog-1 node
    /// to its parent when `fog1` is set, every fog-2 node to the cloud
    /// when `fog2` is — then runs one [`F2cCity::anti_entropy`] round so
    /// coverage holes punched by this wave (or carried from earlier ones)
    /// start healing immediately. Returns the accounting bytes shipped at
    /// each tier.
    ///
    /// Every hop first passes the chaos gate: a crashed child skips its
    /// turn, an unreachable parent or a lost shipment defers the whole
    /// wave (the batch is never taken, so nothing is lost — it re-ships
    /// on the next healthy wave), and a corruption coin may damage one
    /// encoded partial in flight, punching a coverage hole at the
    /// receiver. Each gate verdict lands on the incident timeline.
    ///
    /// The wave runs sharded by district on [`F2cCity::parallelism`]
    /// workers: phase A (fog-1 → fog-2) is fully district-local and each
    /// shard buffers its metering, spans and incidents in an
    /// [`ObsScratch`]; phase B gates, flushes and draws the corruption
    /// coin per district in parallel, then folds into the cloud at the
    /// coordinator. Both phases merge in canonical district order, and
    /// sections are district-contiguous, so the byte streams (traces,
    /// incidents, meter, snapshots) are those of a plain section-order
    /// loop at every thread count.
    ///
    /// # Errors
    ///
    /// Network or compression failures (first in district order).
    pub(crate) fn flush_due(&mut self, now_s: u64, fog1: bool, fog2: bool) -> Result<(u64, u64)> {
        self.flush_epoch += 1;
        self.metrics.inc(self.ids.flush_waves);
        let epoch = self.flush_epoch;
        let threads = self.parallelism;
        let capture = self.capture_shipments;
        let (mut fog1_bytes, mut fog2_bytes) = (0, 0);
        if fog1 {
            // Phase A: one shard per district, owning the district's fog-1
            // slice and its fog-2 node.
            let city = &self.city;
            let catalog = &self.catalog;
            let mut rest: &mut [F2cNode] = &mut self.fog1;
            let mut shards: Vec<FlushShard<'_>> = Vec::with_capacity(self.fog2.len());
            let mut base = 0usize;
            for (d, fog2) in self.fog2.iter_mut().enumerate() {
                let (head, tail) = rest.split_at_mut(DISTRICTS[d].1);
                rest = tail;
                shards.push(FlushShard {
                    base,
                    fog1: head,
                    receiver: Receiver::new(Hop::Fog2(d), fog2),
                    landed: Ok(0),
                });
                base += DISTRICTS[d].1;
            }
            run_shards(threads, &mut shards, |_, shard| {
                // Each child takes its turn when the receiver reaches it, so
                // a failure leaves the children after it unflushed.
                let (base, hop) = (shard.base, shard.receiver.hop);
                let turns = shard.fog1.iter_mut().enumerate().map(|(k, child)| {
                    let turn = Shipment::take(city, hop, base + k, child, catalog, epoch, now_s);
                    (base + k, turn)
                });
                shard.landed = shard.receiver.land(city, capture, now_s, turns);
            });
            // Drop the node borrows, then absorb in district order.
            let results: Vec<(ObsScratch, Result<u64>)> = shards
                .into_iter()
                .map(|s| (s.receiver.obs, s.landed))
                .collect();
            let mut landed_bytes: Result<u64> = Ok(0);
            for (mut obs, landed) in results {
                self.absorb_scratch(&mut obs);
                landed_bytes = landed_bytes.and_then(|sum| landed.map(|bytes| sum + bytes));
            }
            fog1_bytes = landed_bytes?;
        }
        if fog2 {
            // Phase B: gate + flush + corruption coin per district in
            // parallel; the cloud lands the turns at the coordinator, in
            // district order.
            let city = &self.city;
            let catalog = &self.catalog;
            let mut cloud_shards: Vec<(&mut F2cNode, Option<Shipment>)> =
                self.fog2.iter_mut().map(|fog2| (fog2, None)).collect();
            run_shards(threads, &mut cloud_shards, |d, (fog2, turn)| {
                *turn = Some(Shipment::take(
                    city,
                    Hop::Cloud,
                    d,
                    fog2,
                    catalog,
                    epoch,
                    now_s,
                ));
            });
            let turns: Vec<(usize, Shipment)> = cloud_shards
                .into_iter()
                .map(|(_, turn)| turn.expect("cloud shard ran"))
                .enumerate()
                .collect();
            let mut cloud = Receiver::new(Hop::Cloud, &mut self.cloud);
            let landed = cloud.land(&self.city, capture, now_s, turns);
            let mut obs = cloud.obs;
            self.absorb_scratch(&mut obs);
            fog2_bytes = landed?;
        }
        // The cloud never flushes (no parent), so the wave runs its
        // sketch-horizon compaction here — otherwise its ledger and hole
        // set would grow for the lifetime of the deployment.
        let now_us = now_s * 1_000_000;
        let compact = self.tracer.open(Site::cloud(), "sketch-compact", now_us);
        self.cloud.compact_sketches(now_s);
        self.tracer.close(compact, now_us);
        self.anti_entropy(now_s);
        // Every flush instant is also an alert evaluation instant, so
        // the burn-rate monitor sees one schedule under every driver.
        self.evaluate_alerts(now_s);
        Ok((fog1_bytes, fog2_bytes))
    }

    /// One anti-entropy round: every coverage hole in the fog-2 and
    /// cloud ledgers — the seal-frontier diff made concrete: buckets the
    /// seal advanced past without a surviving fold — is healed by a
    /// targeted re-shipment of the shipper's authoritative ledger entry.
    ///
    /// Phase 1 heals each fog-2 from the fog-1 shippers below it; phase
    /// 2 heals the cloud from the fog-2 tier, so a district healed in
    /// phase 1 can serve as a source in the same round. A heal
    /// *replaces* the receiver's entry (the shipper's ledger is the full
    /// fold for its section, merging a fragment would double-count) and
    /// drops any relay still queued for the key (the full fold subsumes
    /// it). Holes whose source is crashed, unreachable, or itself still
    /// holed carry to the next round; holes whose source has compacted
    /// the bucket away can only retire with the watermark. Re-shipments
    /// are metered on the network and on the sketch channel.
    ///
    /// [`F2cCity::flush_due`] runs a round after every wave; with no
    /// holes it is a no-op.
    pub(crate) fn anti_entropy(&mut self, now_s: u64) -> HealReport {
        // Phase 1, one shard per district: each fog-2 heals from the
        // fog-1 shippers below it. The shard only reads the fog-1 tier
        // (shared snapshot) and mutates its own fog-2 node; relay links
        // are district-local, so the scratch loss-coin draws are exactly
        // the sequential ones. Fog 1 queues no relays, so the keys a
        // shard heals need no drop.
        let threads = self.parallelism;
        let city = &self.city;
        let fog1: &[F2cNode] = &self.fog1;
        let mut shards: Vec<(Receiver<'_>, HealReport)> = self
            .fog2
            .iter_mut()
            .enumerate()
            .map(|(d, fog2)| (Receiver::new(Hop::Fog2(d), fog2), HealReport::default()))
            .collect();
        run_shards(threads, &mut shards, |_, (receiver, report)| {
            *report = receiver.heal(city, fog1, now_s).0;
        });
        let results: Vec<(ObsScratch, HealReport)> = shards
            .into_iter()
            .map(|(receiver, report)| (receiver.obs, report))
            .collect();
        let mut report = HealReport::default();
        for (mut obs, shard_report) in results {
            self.absorb_scratch(&mut obs);
            report.add(shard_report);
        }
        // Phase 2: the cloud heals from the fog-2 tier.
        let mut cloud = Receiver::new(Hop::Cloud, &mut self.cloud);
        let (cloud_report, healed) = cloud.heal(&self.city, &self.fog2, now_s);
        let mut obs = cloud.obs;
        self.absorb_scratch(&mut obs);
        for key in healed {
            // The heal shipped the district's full current fold, which
            // subsumes any increment still queued for upward relay —
            // relaying it afterwards would double-count.
            let d = self.city.district_of(key.section as usize);
            self.fog2[d].drop_queued_relay(&key);
        }
        report.add(cloud_report);
        report
    }

    /// Ring distance between two sections of the same district.
    pub fn ring_hops(&self, a: usize, b: usize) -> u32 {
        let district = self.city.district_of(a);
        let members = self.city.fog1_in_district(district);
        let pa = members.iter().position(|&m| m == a).expect("member");
        let pb = members.iter().position(|&m| m == b).expect("member");
        let d = pa.abs_diff(pb);
        d.min(members.len() - d) as u32
    }

    /// Total bytes metered on the network so far.
    pub fn network_bytes(&self) -> u64 {
        self.city.network().meter().total_bytes()
    }
}

/// The receiving end of a tier crossing: what the landing and heal
/// routines need to know about a hop, so both hops run one code path.
#[derive(Debug, Clone, Copy)]
enum Hop {
    /// Fog 1 → the fog-2 node of a district (by index); the child
    /// streams are its sections.
    Fog2(usize),
    /// Fog 2 → the cloud; the child streams are the districts.
    Cloud,
}

impl Hop {
    /// Index into the per-hop counter pairs (`0` = fog-1 → fog-2).
    fn index(self) -> usize {
        match self {
            Hop::Fog2(_) => 0,
            Hop::Cloud => 1,
        }
    }

    /// The receiver's trace site.
    fn site(self) -> Site {
        match self {
            Hop::Fog2(d) => Site::new("fog2", d as u32),
            Hop::Cloud => Site::cloud(),
        }
    }

    /// The receiver's chaos site.
    fn chaos_site(self) -> ChaosSite {
        match self {
            Hop::Fog2(d) => ChaosSite::Fog2(d),
            Hop::Cloud => ChaosSite::Cloud,
        }
    }

    /// The receiver's network node.
    fn node(self, city: &BarcelonaTopology) -> NodeId {
        match self {
            Hop::Fog2(d) => city.fog2_nodes()[d],
            Hop::Cloud => city.cloud(),
        }
    }

    /// The network node and chaos site of child stream `origin`.
    fn child(self, city: &BarcelonaTopology, origin: usize) -> (NodeId, ChaosSite) {
        match self {
            Hop::Fog2(_) => (city.fog1_nodes()[origin], ChaosSite::Fog1(origin)),
            Hop::Cloud => (city.fog2_nodes()[origin], ChaosSite::Fog2(origin)),
        }
    }

    /// The child stream that shipped `key`'s bucket upward.
    fn origin_of(self, city: &BarcelonaTopology, key: &SketchKey) -> usize {
        match self {
            Hop::Fog2(_) => key.section as usize,
            Hop::Cloud => city.district_of(key.section as usize),
        }
    }
}

/// Gate one flush hop through the chaos plane. `Some(kind)` means the
/// wave must not ship this turn: the child's `flush()` is never called,
/// so its records stay *pending* in its store and the completeness
/// frontiers above it honestly lag — deferral degrades availability,
/// never correctness.
fn flush_gate(
    net: &Network,
    from: NodeId,
    to: NodeId,
    epoch: u64,
    now_s: u64,
) -> Option<IncidentKind> {
    let at = SimTime::from_secs(now_s);
    let failures = net.failures();
    if failures.node_is_down(from, at) {
        return Some(IncidentKind::NodeDown);
    }
    if !net.path_is_up(from, to, at) {
        return Some(IncidentKind::FlushBlocked);
    }
    if failures.shipment_lost(from, epoch) {
        return Some(IncidentKind::ShipmentLost);
    }
    // A payload-corruption verdict also defers: the damage would be
    // link-layer detected, and deferring before `flush()` keeps the
    // flush codec's cross-batch dictionary from advancing past a
    // shipment the receiver never applied.
    if failures.payload_corrupted(from, epoch) {
        return Some(IncidentKind::ShipmentCorrupted);
    }
    None
}

/// One child's turn in a flush wave, as its receiver lands it.
enum Shipment {
    /// The chaos gate deferred the child's wave.
    Deferred(IncidentKind),
    /// The child's flush itself failed.
    Failed(Error),
    /// The child's batch, plus the key the in-flight corruption coin
    /// damaged, if any.
    Shipped {
        batch: FlushBatch,
        corrupted: Option<SketchKey>,
    },
}

impl Shipment {
    /// Takes child stream `origin`'s turn on `hop`: the chaos gate, then
    /// the child's flush and the in-flight corruption coin. Reads no
    /// receiver state, so the cloud's turns run in parallel shards.
    fn take(
        city: &BarcelonaTopology,
        hop: Hop,
        origin: usize,
        child: &mut F2cNode,
        catalog: &Catalog,
        epoch: u64,
        now_s: u64,
    ) -> Self {
        let net = city.network();
        let (from, _) = hop.child(city, origin);
        if let Some(kind) = flush_gate(net, from, hop.node(city), epoch, now_s) {
            return Shipment::Deferred(kind);
        }
        match child.flush(now_s, catalog) {
            Ok(mut batch) => {
                let corrupted = corrupt_in_flight(net, &mut batch, from, epoch);
                Shipment::Shipped { batch, corrupted }
            }
            Err(e) => Shipment::Failed(e),
        }
    }
}

/// Draws the in-flight corruption coin for one shipped batch and, on a
/// hit, flips a byte in one encoded partial and returns its key. The
/// receiver's CRC check will refuse it and punch a coverage hole; the
/// receiver records both effects at its own site.
fn corrupt_in_flight(
    net: &Network,
    batch: &mut FlushBatch,
    sender: NodeId,
    epoch: u64,
) -> Option<SketchKey> {
    let idx = net
        .failures()
        .corrupted_sketch(sender, epoch, batch.sketches.len())?;
    let (key, bytes) = &mut batch.sketches[idx];
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    Some(*key)
}

/// A receiving node — a district's fog 2 or the cloud — and the scratch
/// its side of a hop buffers observability in until the coordinator
/// absorbs it. Both hops land flush waves and heal holes through it.
struct Receiver<'a> {
    hop: Hop,
    node: &'a mut F2cNode,
    obs: ObsScratch,
    ids: CityMetricIds,
}

impl<'a> Receiver<'a> {
    fn new(hop: Hop, node: &'a mut F2cNode) -> Self {
        let mut obs = ObsScratch::new();
        let ids = CityMetricIds::register(&mut obs.reg);
        Self {
            hop,
            node,
            obs,
            ids,
        }
    }

    /// Lands one flush wave: the children's turns in order, each folded,
    /// shipped, tapped and verified, then every verified shipment stored
    /// as one wave. A failure ends the wave; the shipments verified
    /// before it are still stored. Returns the accounting bytes of the
    /// shipments that carried records.
    fn land(
        &mut self,
        city: &BarcelonaTopology,
        capture: bool,
        now_s: u64,
        turns: impl IntoIterator<Item = (usize, Shipment)>,
    ) -> Result<u64> {
        let at = SimTime::from_secs(now_s);
        let now_us = now_s * 1_000_000;
        let net = city.network();
        let to = self.hop.node(city);
        let (site, here, h) = (self.hop.site(), self.hop.chaos_site(), self.hop.index());
        let turns = turns.into_iter();
        let mut verified = Vec::with_capacity(turns.size_hint().0);
        let mut failed = None;
        let mut bytes = 0;
        // One wave span per receiving node; member hops nest under it
        // and the wave closes at its slowest hop's arrival.
        let wave = self.obs.tracer.open(site, "flush-wave", now_us);
        let mut wave_end_us = now_us;
        let mut shipped = 0u64;
        for (origin, turn) in turns {
            let (from, child) = self.hop.child(city, origin);
            let (batch, corrupted) = match turn {
                Shipment::Deferred(kind) => {
                    self.obs.record_incident(now_s, child, kind);
                    continue;
                }
                Shipment::Failed(e) => {
                    failed = Some(e);
                    break;
                }
                Shipment::Shipped { batch, corrupted } => (batch, corrupted),
            };
            if let Some(key) = corrupted {
                self.obs
                    .record_incident(now_s, here, IncidentKind::SketchCorrupted { key });
                self.obs
                    .record_incident(now_s, here, IncidentKind::HolePunched { key });
            }
            // The sketch shipment (pre-folded partials + seal frontiers)
            // always reaches the receiver — an idle section still seals.
            // Its bytes ride the flush envelope and are accounted on the
            // sketch channel, not against the Table-I ground truth the
            // traffic cross-validation reproduces.
            self.obs
                .reg
                .add(self.ids.sketch_flush_bytes[h], batch.sketch_bytes());
            self.obs
                .reg
                .add(self.ids.raw_flush_bytes[h], batch.acct_bytes);
            // Holes relayed from below punch again here.
            for &key in &batch.holes {
                self.obs
                    .record_incident(now_s, here, IncidentKind::HolePunched { key });
            }
            let fold = self.obs.tracer.open(site, "sketch-fold", now_us);
            self.node
                .receive_sketches(&batch.sketches, &batch.seals, &batch.holes);
            self.obs
                .tracer
                .close_with(fold, now_us, batch.sketches.len() as u64);
            if batch.records.is_empty() {
                continue;
            }
            bytes += batch.acct_bytes;
            let hop = self.obs.tracer.open(site, "flush-hop", now_us);
            let sent = net.send_scratch(&mut self.obs.net, from, to, batch.uplink_bytes(), at);
            let arrival_us = match &sent {
                Ok(delivery) => delivery.arrival.as_micros(),
                Err(_) => now_us,
            };
            self.obs
                .tracer
                .close_with(hop, arrival_us, batch.acct_bytes);
            if let Err(e) = sent {
                failed = Some(e.into());
                break;
            }
            wave_end_us = wave_end_us.max(arrival_us);
            shipped += 1;
            self.obs
                .reg
                .add(self.ids.uplink_flush_bytes[h], batch.uplink_bytes());
            if let Some(mode) = self.ids.batch_mode(&batch) {
                self.obs.reg.inc(mode);
            }
            if capture {
                if let Some(payload) = batch.payload.clone() {
                    self.obs.shipments.push(ShipmentRecord {
                        hop: h as u8 + 1,
                        origin: origin as u16,
                        at_s: now_s,
                        payload,
                        wire: wire::encode_batch(&batch.records),
                    });
                }
            }
            // The receiver decodes the payload with its per-child mirror
            // decoder and proves it equals the shipped records — the
            // decode-equality check runs live, on every hop.
            if let Err(e) =
                self.node
                    .verify_flush(origin as u16, batch.payload.as_deref(), &batch.records)
            {
                failed = Some(e);
                break;
            }
            verified.push(batch.records);
        }
        self.node.receive_wave(verified, now_s);
        self.obs.tracer.close_with(wave, wave_end_us, shipped);
        failed.map_or(Ok(bytes), Err)
    }

    /// One anti-entropy round at this receiver: every coverage hole is
    /// re-shipped from its child stream's ledger entry in `sources` (the
    /// fog-1 tier below fog 2, the fog-2 tier below the cloud). Returns
    /// the round's report and the keys it healed.
    fn heal(
        &mut self,
        city: &BarcelonaTopology,
        sources: &[F2cNode],
        now_s: u64,
    ) -> (HealReport, Vec<SketchKey>) {
        let at = SimTime::from_secs(now_s);
        let now_us = now_s * 1_000_000;
        let net = city.network();
        let mut report = HealReport::default();
        let mut healed = Vec::new();
        let holes = self.node.sketches().holes_sorted();
        if holes.is_empty() {
            return (report, healed);
        }
        let to = self.hop.node(city);
        if net.failures().node_is_down(to, at) {
            // A crashed node runs no heal round; its holes carry.
            report.blocked = holes.len() as u64;
            self.obs.reg.add(self.ids.heal_blocked, report.blocked);
            return (report, healed);
        }
        let (site, here, h) = (self.hop.site(), self.hop.chaos_site(), self.hop.index());
        let round = self.obs.tracer.open(site, "heal-round", now_us);
        for key in holes {
            let origin = self.hop.origin_of(city, &key);
            let (from, _) = self.hop.child(city, origin);
            let source = sources[origin].sketches();
            if source.is_hole(&key) {
                // Healing from a still-holed source would launder the
                // hole into silently wrong data; wait for the source's
                // own heal. (Fog 1 never holds a hole.)
                report.blocked += 1;
                self.obs.reg.inc(self.ids.heal_blocked);
                self.obs
                    .record_incident(now_s, here, IncidentKind::HealBlocked { key });
                continue;
            }
            let Some((partial, _)) = source.entry(&key) else {
                report.impossible += 1;
                self.obs.reg.inc(self.ids.heal_impossible);
                self.obs
                    .record_incident(now_s, here, IncidentKind::HealImpossible { key });
                continue;
            };
            let encoded = partial.encode();
            let relay = self.obs.tracer.open(site, "sketch-relay", now_us);
            let shipped = net.path_is_up(from, to, at)
                && net
                    .send_scratch(&mut self.obs.net, from, to, encoded.len() as u64, at)
                    .is_ok();
            self.obs.tracer.close_with(
                relay,
                now_us,
                if shipped { encoded.len() as u64 } else { 0 },
            );
            if !shipped {
                report.blocked += 1;
                self.obs.reg.inc(self.ids.heal_blocked);
                self.obs
                    .record_incident(now_s, here, IncidentKind::HealBlocked { key });
                continue;
            }
            self.obs
                .reg
                .add(self.ids.sketch_flush_bytes[h], encoded.len() as u64);
            if self.node.heal_sketch(key, &encoded) {
                report.healed += 1;
                self.obs.reg.inc(self.ids.heal_healed);
                self.obs
                    .record_incident(now_s, here, IncidentKind::HoleHealed { key });
                healed.push(key);
            }
        }
        self.obs.tracer.close_with(round, now_us, report.healed);
        (report, healed)
    }
}

/// One district's phase-A flush shard: the district's fog-1 slice and
/// its fog-2 receiver.
struct FlushShard<'a> {
    /// Global section index of `fog1[0]` (sections are
    /// district-contiguous, so shard-local `k` is section `base + k`).
    base: usize,
    fog1: &'a mut [F2cNode],
    receiver: Receiver<'a>,
    landed: Result<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_dlc::DataRecord;
    use scc_sensors::{ReadingGenerator, SensorId, SensorType, Value};

    fn waves_into(city: &mut F2cCity, section: usize, ty: SensorType, waves: u64) {
        let mut gen = ReadingGenerator::for_population(ty, 10, section as u64 + 1);
        for w in 0..waves {
            city.ingest(section, gen.wave(w * 900), w * 900 + 1)
                .unwrap();
        }
    }

    /// The flush wave as it was before each receiving node stored its
    /// wave once: every shipment verified and stored on its own through
    /// the node API — fog 1 → fog 2 district by district (a failure ends
    /// its district's turn), then every fog 2 flushed and each district
    /// shipped to the cloud in turn (a failure ends the wave). Fault-free,
    /// so no gate, loss or corruption coin is drawn.
    fn per_shipment_wave(city: &mut F2cCity, now_s: u64) -> Result<()> {
        let catalog = &city.catalog;
        let mut first_err = None;
        let mut sections = 0..0;
        for (d, fog2) in city.fog2.iter_mut().enumerate() {
            sections = sections.end..sections.end + DISTRICTS[d].1;
            for i in sections.clone() {
                let batch = city.fog1[i].flush(now_s, catalog)?;
                fog2.receive_sketches(&batch.sketches, &batch.seals, &batch.holes);
                if batch.records.is_empty() {
                    continue;
                }
                if let Err(e) =
                    fog2.verify_flush(i as u16, batch.payload.as_deref(), &batch.records)
                {
                    first_err.get_or_insert(e);
                    break;
                }
                fog2.receive_wave([batch.records], now_s);
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        let batches = city
            .fog2
            .iter_mut()
            .map(|fog2| fog2.flush(now_s, catalog))
            .collect::<Result<Vec<_>>>()?;
        for (d, batch) in batches.into_iter().enumerate() {
            city.cloud
                .receive_sketches(&batch.sketches, &batch.seals, &batch.holes);
            if batch.records.is_empty() {
                continue;
            }
            city.cloud
                .verify_flush(d as u16, batch.payload.as_deref(), &batch.records)?;
            city.cloud.receive_wave([batch.records], now_s);
        }
        Ok(())
    }

    /// Advances `node`'s mirror decoder for the stream `origin` past a
    /// payload its child never sent, one adding a sensor to the `known`
    /// the stream has coded so far: the next sensor the child adds then
    /// decodes as that one, so the child's shipment fails verification —
    /// the stand-in for a payload damaged in flight.
    fn desync(node: &mut F2cNode, origin: u16, known: &F2cNode) {
        let known: std::collections::BTreeSet<_> = known
            .store()
            .archive()
            .iter()
            .map(|r| r.reading().sensor())
            .collect();
        let mut enc = tsenc::StreamEncoder::new();
        let primer: Vec<Reading> = (0..known.len() as u32)
            .map(|j| {
                Reading::new(
                    SensorId::new(SensorType::Traffic, 50_000 + j),
                    0,
                    Value::Counter(1),
                )
            })
            .collect();
        enc.encode_batch(&primer).unwrap();
        let foreign = [Reading::new(
            SensorId::new(SensorType::Weather, 80_000),
            0,
            Value::Composite(vec![1, 2, 3, 4, 5]),
        )];
        let payload = enc.encode_batch(&foreign).unwrap();
        assert!(matches!(
            node.verify_flush(origin, Some(&payload), &[]),
            Err(Error::CodecMismatch { .. })
        ));
    }

    /// One Traffic wave at `t` into each of the first four districts'
    /// sections; `fresh` also gets sensors no stream has seen yet.
    fn round(city: &mut F2cCity, t: u64, fresh: Option<usize>) {
        for section in 0..21 {
            let mut gen =
                ReadingGenerator::for_population(SensorType::Traffic, 10, t + section as u64);
            let mut wave = gen.wave(t);
            if fresh == Some(section) {
                wave.extend((0..3).map(|i| {
                    Reading::new(
                        SensorId::new(SensorType::Traffic, 90_000 + i),
                        t,
                        Value::Counter(7),
                    )
                }));
            }
            city.ingest(section, wave, t + 1).unwrap();
        }
    }

    /// Two cities take the same steps; `break_stream` then breaks one
    /// stream in both, and the next wave — in which section `fresh` adds
    /// a sensor — goes through `flush_all` in the first and the
    /// per-shipment loop in the second. Both must fail.
    fn twin_failing_waves(break_stream: impl Fn(&mut F2cCity), fresh: usize) -> [F2cCity; 2] {
        let mut cities = [F2cCity::barcelona().unwrap(), F2cCity::barcelona().unwrap()];
        for city in &mut cities {
            round(city, 100, None);
            round(city, 500, None);
            city.flush_all(900).unwrap();
            break_stream(city);
            round(city, 1_000, Some(fresh));
            round(city, 1_400, Some(fresh));
        }
        let [mut wave, mut per_shipment] = cities;
        assert!(wave.flush_all(1_800).is_err());
        assert!(per_shipment_wave(&mut per_shipment, 1_800).is_err());
        [wave, per_shipment]
    }

    fn stored(node: &F2cNode) -> Vec<&DataRecord> {
        node.store().archive().iter().collect()
    }

    /// Sections whose records created at or after `t` `node` holds.
    fn sections_since(node: &F2cNode, t: u64) -> Vec<u16> {
        let sections: std::collections::BTreeSet<u16> = node
            .store()
            .range(t, u64::MAX)
            .filter_map(|r| r.descriptor().section())
            .collect();
        sections.into_iter().collect()
    }

    #[test]
    fn a_failing_child_leaves_its_siblings_before_it_stored_as_shipment_by_shipment() {
        // District 0 is sections 0..4; its third child's stream breaks.
        let [mut wave, mut per_shipment] =
            twin_failing_waves(|city| desync(&mut city.fog2[0], 2, &city.fog1[2]), 2);
        for d in 0..DISTRICTS.len() {
            assert_eq!(
                stored(&wave.fog2[d]),
                stored(&per_shipment.fog2[d]),
                "fog2/d{d}"
            );
            let (a, b) = (wave.fog2[d].store(), per_shipment.fog2[d].store());
            assert_eq!(a.pending_len(), b.pending_len());
            assert_eq!(a.pending_earliest_s(), b.pending_earliest_s());
        }
        // Children 0 and 1 landed; 2 was refused and 3 never shipped.
        assert_eq!(sections_since(&wave.fog2[0], 1_000), [0, 1]);
        assert!(wave.fog1(3).store().pending_len() > 0);
        assert_eq!(
            sections_since(&wave.fog2[1], 1_000),
            (4..10).collect::<Vec<u16>>()
        );
        // The queues ship on in the same order, through the same codec state.
        let catalog = wave.catalog.clone();
        let a = wave.fog2[0].flush(2_700, &catalog).unwrap();
        let b = per_shipment.fog2[0].flush(2_700, &catalog).unwrap();
        assert!(!a.records.is_empty());
        assert_eq!(a.records, b.records);
        assert_eq!(a.payload, b.payload);
        assert_eq!(stored(&wave.cloud), stored(&per_shipment.cloud));
    }

    #[test]
    fn a_failing_district_leaves_the_districts_before_it_stored_at_the_cloud() {
        // District 2 is sections 10..18; its stream to the cloud breaks.
        let [wave, per_shipment] =
            twin_failing_waves(|city| desync(&mut city.cloud, 2, &city.fog2[2]), 10);
        assert_eq!(stored(&wave.cloud), stored(&per_shipment.cloud));
        for d in 0..DISTRICTS.len() {
            assert_eq!(
                stored(&wave.fog2[d]),
                stored(&per_shipment.fog2[d]),
                "fog2/d{d}"
            );
        }
        // Districts 0 and 1 (sections 0..10) landed; 2 was refused, 3 came after.
        assert_eq!(
            sections_since(&wave.cloud, 1_000),
            (0..10).collect::<Vec<u16>>()
        );
        assert_eq!(
            sections_since(&wave.fog2[3], 1_000),
            (18..21).collect::<Vec<u16>>()
        );
    }

    /// One anti-entropy round, rendered: its report, each incident it
    /// recorded (`site kind`), then the spans it closed.
    fn heal_round(city: &mut F2cCity, now_s: u64) -> String {
        let mark = city.tracer.mark();
        let seen = city.timeline.iter().count();
        let mut out = format!("{:?}\n", city.anti_entropy(now_s));
        for incident in city.timeline.iter().skip(seen) {
            out += &format!("{} {}\n", incident.site, incident.kind.label());
        }
        out + &city.tracer.spans_since(&mark)
    }

    #[test]
    fn a_cloud_heal_waits_while_the_cloud_is_down_or_its_source_is_holed() {
        let mut city = F2cCity::barcelona().unwrap();
        waves_into(&mut city, 0, SensorType::Weather, 3);
        city.flush_all(2_700).unwrap();
        let key = *city.fog1(0).sketches().keys().min().unwrap();
        // A hole at the cloud alone, while the cloud is down: the round
        // carries it without a span or an incident.
        city.cloud.receive_sketches(&[], &[], &[key]);
        city.inject_node_outage(ChaosSite::Cloud, 3_000, 4_000);
        assert_eq!(
            heal_round(&mut city, 3_500),
            "HealReport { healed: 0, blocked: 1, impossible: 0 }\n"
        );
        // The same hole at fog 2, whose source section is down: fog 2
        // cannot heal, and the cloud must not heal from a holed fog 2.
        city.fog2[0].receive_sketches(&[], &[], &[key]);
        city.inject_node_outage(ChaosSite::Fog1(0), 4_000, 5_000);
        assert_eq!(
            heal_round(&mut city, 4_500),
            "HealReport { healed: 0, blocked: 2, impossible: 0 }\n\
             fog2/d0 heal-blocked\n\
             cloud heal-blocked\n\
             cloud/0 heal-round 4500000000..4500000000 d=0 a=0\n\
             fog2/0 sketch-relay 4500000000..4500000000 d=1 a=0\n\
             fog2/0 heal-round 4500000000..4500000000 d=0 a=0\n"
        );
        // A late increment queued at fog 2 for the holed bucket; then
        // both up: fog 2 heals from fog 1, the cloud from fog 2.
        let (partial, _) = city.fog1[0].sketches().entry(&key).unwrap();
        city.fog2[0].receive_sketches(&[(key, partial.encode())], &[], &[]);
        assert_eq!(
            heal_round(&mut city, 5_500),
            "HealReport { healed: 2, blocked: 0, impossible: 0 }\n\
             fog2/d0 hole-healed\n\
             cloud hole-healed\n\
             cloud/0 sketch-relay 5500000000..5500000000 d=1 a=83\n\
             cloud/0 heal-round 5500000000..5500000000 d=0 a=1\n\
             fog2/0 sketch-relay 5500000000..5500000000 d=1 a=83\n\
             fog2/0 heal-round 5500000000..5500000000 d=0 a=1\n"
        );
        // The cloud's heal shipped fog 2's whole fold, so the queued
        // increment is dropped, not relayed on top of it.
        city.flush_all(6_300).unwrap();
        let count = |node: &F2cNode| node.sketches().entry(&key).unwrap().0.count();
        assert_eq!(count(&city.cloud), count(&city.fog1[0]));
    }

    #[test]
    fn flush_all_moves_bytes_up_both_tiers() {
        let mut city = F2cCity::barcelona().unwrap();
        waves_into(&mut city, 0, SensorType::Weather, 3);
        waves_into(&mut city, 40, SensorType::Weather, 3);
        let (fog1_bytes, fog2_bytes) = city.flush_all(3_000).unwrap();
        assert!(fog1_bytes > 0);
        assert_eq!(fog1_bytes, fog2_bytes, "fog2 relays what it received");
        assert_eq!(city.cloud().store().len(), {
            city.fog1(0).store().len() + city.fog1(40).store().len()
        });
    }

    #[test]
    fn flush_due_of_both_tiers_is_flush_all_and_of_one_ships_only_it() -> Result<()> {
        fn stores(city: &F2cCity) -> Vec<Vec<&DataRecord>> {
            let nodes = city.fog1.iter().chain(&city.fog2).chain([&city.cloud]);
            nodes.map(stored).collect()
        }
        let [mut all, mut due] = [F2cCity::barcelona()?, F2cCity::barcelona()?];
        for city in [&mut all, &mut due] {
            round(city, 100, None);
            round(city, 500, None);
        }
        assert_eq!(all.flush_all(900)?, due.flush_due(900, true, true)?);
        assert_eq!(stores(&all), stores(&due));
        let snapshot = |city: &F2cCity| format!("{:?}", city.metrics.snapshot());
        assert_eq!(snapshot(&all), snapshot(&due));
        assert_eq!(all.tracer.encode(), due.tracer.encode());
        // [fog-1 pending, fog-2 pending, cloud stored]
        let queued = |city: &F2cCity| {
            let pending = |nodes: &[F2cNode]| nodes.iter().map(|n| n.store().pending_len()).sum();
            [
                pending(&city.fog1),
                pending(&city.fog2),
                city.cloud.store().len(),
            ]
        };
        round(&mut due, 1_000, None);
        let [n, _, cloud] = queued(&due);
        // A fog-1-only wave queues the new records at fog 2, and a later
        // fog-2-only wave ships that queue to the cloud.
        let (shipped, _) = due.flush_due(1_800, true, false)?;
        assert_eq!(queued(&due), [0, n, cloud]);
        assert_eq!(due.flush_due(2_700, false, true)?, (0, shipped));
        assert_eq!(queued(&due), [0, 0, cloud + n]);
        assert!(n > 0 && due.flush_epoch() == 3);
        Ok(())
    }

    #[test]
    fn flush_batches_count_shipped_payloads_by_stream_mode() {
        let mut city = F2cCity::barcelona().unwrap();
        waves_into(&mut city, 0, SensorType::Weather, 3);
        waves_into(&mut city, 40, SensorType::Weather, 3);
        assert_ne!(city.district_of(0), city.district_of(40));
        city.flush_all(3_000).unwrap();
        // Two fog-1 shipments, then one per district's fog-2.
        assert_eq!(city.flush_batches(), (4, 0));
        // A traffic counter reporting a flag contradicts its type's
        // model: the batch is irregular on both hops.
        let odd = Reading::new(
            SensorId::new(SensorType::Traffic, 0),
            3_100,
            Value::Flag(true),
        );
        assert_eq!(city.ingest(0, vec![odd], 3_101).unwrap().stored, 1);
        city.flush_all(4_000).unwrap();
        assert_eq!(city.flush_batches(), (4, 2));
    }

    #[test]
    fn flush_epoch_counts_flushes_and_metering_skips_local() {
        let mut city = F2cCity::barcelona().unwrap();
        assert_eq!(city.flush_epoch(), 0);
        city.flush_all(900).unwrap();
        city.flush_all(1800).unwrap();
        assert_eq!(city.flush_epoch(), 2);

        let before = city.network_bytes();
        let mut obs = ObsScratch::new();
        city.meter_query_scratch(obs.net_mut(), 0, DataSource::Local, 200, 10_000, 2_000)
            .unwrap();
        city.absorb_scratch(&mut obs);
        assert_eq!(city.network_bytes(), before, "local serves are free");
        city.meter_query_scratch(obs.net_mut(), 0, DataSource::Parent, 200, 10_000, 2_000)
            .unwrap();
        city.absorb_scratch(&mut obs);
        assert!(city.network_bytes() > before, "parent serves are metered");
    }

    #[test]
    fn flush_all_delivers_sketches_and_seals_to_every_tier() {
        let mut city = F2cCity::barcelona().unwrap();
        waves_into(&mut city, 5, SensorType::Weather, 3);
        city.flush_all(2_700).unwrap();
        // Every section sealed at its fog-2 parent (idle ones included).
        for s in 0..city.section_count() {
            let d = city.district_of(s);
            assert_eq!(city.fog2(d).sketches().sealed_through(s as u16), 2_700);
        }
        // The producing section's partials were folded at fog-2.
        let d5 = city.district_of(5);
        assert!(!city.fog2(d5).sketches().is_empty());
        let (raw1, _) = city.raw_flush_bytes();
        let (sk1, sk2) = city.sketch_flush_bytes();
        assert!(sk1 > 0, "fog-1 shipped partials");
        assert!(
            sk2 > 0,
            "fog-2 relays within the same flush wave, like the records"
        );
        assert!(sk1 < raw1, "the sketch channel stays cheaper than raw");
        assert_eq!(city.cloud().sketches().sealed_through(5), 2_700);
        let mut cloud_count = 0;
        for key in city.cloud().sketches().keys() {
            let (p, _) = city.cloud().sketches().entry(key).unwrap();
            cloud_count += p.count();
        }
        assert_eq!(
            cloud_count,
            city.cloud().store().len() as u64,
            "cloud ledger pre-folds exactly what the cloud archived"
        );
    }

    #[test]
    fn fog2_ring_hops_are_symmetric_and_bounded() {
        let city = F2cCity::barcelona().unwrap();
        assert_eq!(city.district_count(), 10);
        for a in 0..10 {
            assert_eq!(city.fog2_ring_hops(a, a), 0);
            for b in 0..10 {
                assert_eq!(city.fog2_ring_hops(a, b), city.fog2_ring_hops(b, a));
                assert!(city.fog2_ring_hops(a, b) <= 5);
            }
        }
    }

    #[test]
    fn fanout_metering_charges_every_remote_leg_plus_delivery() {
        let mut city = F2cCity::barcelona().unwrap();
        let before = city.network_bytes();
        // Gather at section 0's district (0); district-0 leg is free.
        let mut obs = ObsScratch::new();
        city.meter_fanout_scratch(
            obs.net_mut(),
            0,
            &[
                (FanoutLeg::Fog2(0), 1_000),
                (FanoutLeg::Fog2(5), 1_000),
                (FanoutLeg::Fog1(10), 1_000),
            ],
            200,
            2_000,
            100,
        )
        .unwrap();
        city.absorb_scratch(&mut obs);
        let fanout = city.network_bytes() - before;
        // Two remote legs (request + partial back, multi-hop) plus the
        // final fog-2 -> fog-1 delivery; the colocated leg costs nothing.
        assert!(fanout > 2 * (200 + 1_000) + 200 + 2_000);

        let before = city.network_bytes();
        let legs = [(FanoutLeg::Fog2(0), 1_000)];
        city.meter_fanout_scratch(obs.net_mut(), 0, &legs, 200, 2_000, 100)
            .unwrap();
        city.absorb_scratch(&mut obs);
        assert_eq!(
            city.network_bytes() - before,
            200 + 2_000,
            "a gather-local leg meters only the last-hop delivery"
        );
    }

    #[test]
    fn remote_fog2_queries_are_metered_over_the_ring() {
        let mut city = F2cCity::barcelona().unwrap();
        let before = city.network_bytes();
        let mut obs = ObsScratch::new();
        city.meter_query_scratch(obs.net_mut(), 0, DataSource::RemoteFog2(5), 200, 1_000, 100)
            .unwrap();
        city.absorb_scratch(&mut obs);
        assert!(city.network_bytes() > before);
    }

    #[test]
    fn ring_hops_are_symmetric_and_bounded() {
        let city = F2cCity::barcelona().unwrap();
        let members = city.city.fog1_in_district(7); // Nou Barris, 13 sections
        for &a in members {
            for &b in members {
                let h1 = city.ring_hops(a, b);
                let h2 = city.ring_hops(b, a);
                assert_eq!(h1, h2);
                assert!(h1 <= members.len() as u32 / 2 + 1);
            }
        }
    }
}
