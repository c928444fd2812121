//! The assembled city: all 73 fog-1 nodes, 10 fog-2 nodes and the cloud,
//! wired to the Barcelona topology. It runs the write path (ingest and
//! the flush wave) and meters the transfers of reads that the query
//! engine's §IV.C planner routes to a neighbor fog node, a fog-2 node or
//! the cloud.

mod wave;

use citysim::barcelona::{BarcelonaTopology, LatencyProfile, DISTRICTS};
use citysim::net::FailurePlan;
use citysim::time::SimTime;
use citysim::{NetScratch, NodeId};
use f2c_obs::{
    AlertTransition, BurnRateMonitor, CounterId, ExemplarStore, ExplainStore, Labels,
    MetricsRegistry, SloSpec, Tracer,
};
use scc_dlc::quality::Violation;
use scc_sensors::{Catalog, Reading};

use crate::cost::{AccessCostModel, REQUEST_BYTES};
use crate::incident::{ChaosSite, IncidentKind, IncidentTimeline};
use crate::node::{F2cNode, IngestOutcome};
use crate::policy::{FlushPolicy, RetentionPolicy};
use crate::shard::{ObsScratch, Parallelism, ShipmentRecord};
use crate::Result;

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

/// The city's pre-resolved handles into its metrics registry: hot paths
/// publish through dense ids, never by name.
#[derive(Debug, Clone, Copy)]
struct CityMetricIds {
    /// Table-I accounting bytes flushed upward, per hop (fog-1 → fog-2,
    /// fog-2 → cloud).
    raw_flush_bytes: [CounterId; 2],
    /// Wire bytes of the pre-folded partials shipped per hop alongside
    /// the raw batches (the sketch channel's cost).
    sketch_flush_bytes: [CounterId; 2],
    /// Bytes actually metered on the uplink per hop — the encoded
    /// `tsenc` payload when the policy compresses, accounting bytes
    /// otherwise. The `flush.bytes_per_record` budget gates on these.
    uplink_flush_bytes: [CounterId; 2],
    /// Encoded payloads shipped, both hops together.
    flush_batches: CounterId,
    /// Offered readings whose value their type's shape does not admit:
    /// refused at acquisition, never stored.
    shape_refused: CounterId,
    /// Offered readings that failed the quality assessment, under each
    /// violation they showed, in [`Violation::ALL`] order.
    quality_violations: [CounterId; Violation::ALL.len()],
    /// Flush waves run.
    flush_waves: CounterId,
}

impl CityMetricIds {
    fn register(metrics: &mut MetricsRegistry) -> Self {
        let flush = Labels::new().service("flush");
        let sketch = Labels::new().service("sketch");
        let ingest = Labels::new().service("ingest");
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
            flush_batches: metrics.counter("flush_batches", flush),
            shape_refused: metrics.counter("ingest_shape_refused", ingest),
            quality_violations: Violation::ALL.map(|kind| {
                metrics.counter("ingest_quality_violations", ingest.kind(kind.label()))
            }),
            flush_waves: metrics.counter("flush_waves", flush),
        }
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
    /// (flush accounting, incidents, and — through the engine —
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
    /// Worker threads for the sharded phases (flush waves, sharded
    /// ingest). Every observable is byte-identical at
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

    /// Encoded flush payloads shipped so far, both hops together.
    pub fn flush_batches(&self) -> u64 {
        self.metrics.counter_value(self.ids.flush_batches)
    }

    /// Heap bytes at rest per tier: `(fog 1, fog 2, cloud)`, each the sum
    /// over its nodes of the store, the sketch ledger, the relays, the
    /// flush codec and decoders and the per-sensor tables, priced from
    /// lengths and capacities ([`scc_sensors::heap`]). A pure function
    /// of the run, not of the allocator or the worker-thread count; the
    /// observability planes are not priced.
    pub fn heap_bytes(&self) -> (u64, u64, u64) {
        let tier = |nodes: &[F2cNode]| nodes.iter().map(F2cNode::heap_bytes).sum::<u64>();
        (tier(&self.fog1), tier(&self.fog2), self.cloud.heap_bytes())
    }

    /// Meters one consumer request/response on the simulated network:
    /// [`REQUEST_BYTES`] from `section`'s fog-1 node to the `source`, and
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
            REQUEST_BYTES,
            response_bytes,
            SimTime::from_secs(now_s),
        )?;
        Ok(())
    }

    /// Meters one scatter-gather execution on the simulated network: a
    /// [`REQUEST_BYTES`] fan-out from the gather node (the requester's
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
                REQUEST_BYTES,
                leg_bytes,
                at,
            )?;
        }
        let requester = self.city.fog1_nodes()[section];
        self.city.network().request_response_scratch(
            net,
            requester,
            gather,
            REQUEST_BYTES,
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

    /// Ingests one wave of readings at a section's fog-1 node. A reading
    /// whose value its type's [`Shape`](scc_sensors::Shape) does not
    /// admit is refused by acquisition and counted under
    /// `ingest_shape_refused{service=ingest}`; one that fails the quality
    /// assessment is dropped and counted under
    /// `ingest_quality_violations{service=ingest,kind=…}` for each
    /// violation it showed.
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
        let outcome = self.fog1[section].ingest_wave(readings, now_s, &self.catalog)?;
        let (ids, refused) = (self.ids, outcome.refused);
        self.metrics.add(ids.shape_refused, refused.misshaped);
        for (id, n) in ids.quality_violations.into_iter().zip(refused.violations) {
            self.metrics.add(id, n);
        }
        Ok(outcome)
    }

    /// Ring distance between two sections of the same district; `None`
    /// when `b` lies in another district (fog-1 rings are per district).
    pub fn ring_hops(&self, a: usize, b: usize) -> Option<u32> {
        let members = self.city.fog1_in_district(self.city.district_of(a));
        let position = |s: usize| members.iter().position(|&m| m == s);
        let d = position(a)?.abs_diff(position(b)?);
        Some(d.min(members.len() - d) as u32)
    }

    /// Total bytes metered on the network so far.
    pub fn network_bytes(&self) -> u64 {
        self.city.network().meter().total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Error;
    use f2c_compress::tsenc;
    use scc_dlc::DataRecord;
    use scc_sensors::{wire, ReadingGenerator, SensorId, SensorType, Value};

    fn waves_into(city: &mut F2cCity, section: usize, ty: SensorType, waves: u64) {
        let mut gen = ReadingGenerator::for_population(ty, 10, section as u64 + 1);
        for w in 0..waves {
            city.ingest(section, gen.wave(w * 900), w * 900 + 1)
                .unwrap();
        }
    }

    /// One Traffic wave at `t` into each of the first four districts'
    /// sections.
    fn round(city: &mut F2cCity, t: u64) {
        for section in 0..21 {
            let mut gen =
                ReadingGenerator::for_population(SensorType::Traffic, 10, t + section as u64);
            city.ingest(section, gen.wave(t), t + 1).unwrap();
        }
    }

    fn stored(node: &F2cNode) -> Vec<&DataRecord> {
        node.store().archive().iter().collect()
    }

    /// The timeline's incidents at `site`, as `kind` labels.
    fn incidents_at(city: &F2cCity, site: ChaosSite) -> Vec<&'static str> {
        city.timeline()
            .at_site(site)
            .map(|i| i.kind.label())
            .collect()
    }

    #[test]
    fn a_nacked_relay_waits_at_fog2_while_the_cloud_is_down_and_ships_once() {
        let mut city = F2cCity::barcelona().unwrap();
        waves_into(&mut city, 0, SensorType::Weather, 3);
        // The cloud is down for the first wave, and the second damages
        // one partial of district 0's relay: fog 2 keeps it both times.
        city.inject_node_outage(ChaosSite::Cloud, 2_000, 3_000);
        city.flush_all(2_700).unwrap();
        let mut plan = FailurePlan::with_seed(7);
        plan.set_shipment_corruption(1.0);
        city.set_failures(plan);
        city.flush_all(3_600).unwrap();
        assert_eq!(
            incidents_at(&city, ChaosSite::Fog2(0)),
            ["flush-blocked", "shipment-corrupted"]
        );
        assert!(city.cloud.sketches().is_empty());
        // Healthy again, the relay ships once: every cloud bucket counts
        // what fog 1 folded, no more.
        city.set_failures(FailurePlan::none());
        city.flush_all(4_500).unwrap();
        let fog1 = city.fog1[0].sketches();
        assert!(!fog1.is_empty());
        assert_eq!(city.cloud.sketches().len(), fog1.len());
        for key in fog1.keys() {
            let count = |node: &F2cNode| node.sketches().entry(key).unwrap().0.count();
            assert_eq!(count(&city.cloud), count(&city.fog1[0]));
        }
    }

    #[test]
    fn a_damaged_partial_and_payload_in_one_shipment_are_one_nack() {
        let mut city = F2cCity::barcelona().unwrap();
        waves_into(&mut city, 0, SensorType::Weather, 3);
        let mut plan = FailurePlan::with_seed(7);
        plan.set_shipment_corruption(1.0);
        plan.set_payload_corruption(1.0);
        city.set_failures(plan);
        city.flush_all(2_700).unwrap();
        assert_eq!(
            incidents_at(&city, ChaosSite::Fog1(0)),
            ["shipment-corrupted"]
        );
        assert_eq!(city.timeline().iter().count(), 1);
        // The partials are decoded first, so the damaged one refuses the
        // shipment before its payload is read.
        assert_eq!(city.fog2[0].sketches().crc_failures(), 1);
        assert!(city.fog2[0].store().is_empty());
        city.set_failures(FailurePlan::none());
        city.flush_all(3_600).unwrap();
        assert_eq!(city.cloud.store().len(), city.fog1[0].store().len());
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
            round(city, 100);
            round(city, 500);
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
        round(&mut due, 1_000);
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
    fn a_misshaped_reading_is_refused_at_ingest_and_counted() {
        let mut city = F2cCity::barcelona().unwrap();
        city.set_capture_shipments(true);
        let refused = |city: &F2cCity| {
            city.metrics()
                .counter_named("ingest_shape_refused", Labels::new().service("ingest"))
        };
        assert_eq!(refused(&city), Some(0));
        // A traffic counter reporting a flag contradicts its type's
        // shape: refused before it is stored, and counted.
        let odd = Reading::new(
            SensorId::new(SensorType::Traffic, 0),
            3_100,
            Value::Flag(true),
        );
        let outcome = city.ingest(0, vec![odd], 3_101).unwrap();
        assert_eq!((outcome.offered, outcome.stored), (1, 0));
        assert_eq!(refused(&city), Some(1));
        // Beside it, traffic of every shape ships and decodes.
        waves_into(&mut city, 0, SensorType::Weather, 3);
        waves_into(&mut city, 40, SensorType::Traffic, 3);
        assert_ne!(city.district_of(0), city.district_of(40));
        city.flush_all(4_000).unwrap();
        // Two fog-1 shipments, then one per district's fog-2.
        assert_eq!(city.flush_batches(), 4);
        let mut decoders = std::collections::BTreeMap::new();
        for shipment in city.shipment_log() {
            let decoder = decoders
                .entry((shipment.hop, shipment.origin))
                .or_insert_with(tsenc::StreamDecoder::new);
            let decoded = decoder.decode_batch(&shipment.payload).unwrap();
            assert_eq!(decoded, wire::parse_batch(&shipment.wire).unwrap());
        }
        assert_eq!(city.shipment_log().len(), 4);
        assert_eq!(refused(&city), Some(1));
    }

    #[test]
    fn a_quality_failure_is_dropped_at_ingest_and_counted_per_violation() {
        let mut city = F2cCity::barcelona().unwrap();
        let violations = |city: &F2cCity| {
            Violation::ALL.map(|kind| {
                let labels = Labels::new().service("ingest").kind(kind.label());
                city.metrics()
                    .counter_named("ingest_quality_violations", labels)
            })
        };
        assert_eq!(violations(&city), [Some(0); 3]);
        // 900 °C is out of range; created two hours before collection it
        // is stale too, and created after collection it is from the
        // future. Two violations fail; one alone passes.
        let temperature = |index, at_s| {
            Reading::new(
                SensorId::new(SensorType::Temperature, index),
                at_s,
                Value::from_f64(900.0),
            )
        };
        let wave = vec![
            temperature(0, 0),
            temperature(1, 7_500),
            temperature(2, 7_200),
        ];
        let outcome = city.ingest(3, wave, 7_201).unwrap();
        assert_eq!((outcome.offered, outcome.stored), (3, 1));
        assert_eq!(outcome.refused.misshaped, 0);
        assert_eq!(violations(&city), [Some(2), Some(1), Some(1)]);
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
        city.meter_query_scratch(obs.net_mut(), 0, DataSource::Local, 10_000, 2_000)
            .unwrap();
        city.absorb_scratch(&mut obs);
        assert_eq!(city.network_bytes(), before, "local serves are free");
        city.meter_query_scratch(obs.net_mut(), 0, DataSource::Parent, 10_000, 2_000)
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
            2_000,
            100,
        )
        .unwrap();
        city.absorb_scratch(&mut obs);
        let fanout = city.network_bytes() - before;
        // Two remote legs (request + partial back, multi-hop) plus the
        // final fog-2 -> fog-1 delivery; the colocated leg costs nothing.
        assert!(fanout > 2 * (REQUEST_BYTES + 1_000) + REQUEST_BYTES + 2_000);

        let before = city.network_bytes();
        let legs = [(FanoutLeg::Fog2(0), 1_000)];
        city.meter_fanout_scratch(obs.net_mut(), 0, &legs, 2_000, 100)
            .unwrap();
        city.absorb_scratch(&mut obs);
        assert_eq!(
            city.network_bytes() - before,
            REQUEST_BYTES + 2_000,
            "a gather-local leg meters only the last-hop delivery"
        );
    }

    #[test]
    fn remote_fog2_queries_are_metered_over_the_ring() {
        let mut city = F2cCity::barcelona().unwrap();
        let before = city.network_bytes();
        let mut obs = ObsScratch::new();
        city.meter_query_scratch(obs.net_mut(), 0, DataSource::RemoteFog2(5), 1_000, 100)
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
                let h1 = city.ring_hops(a, b).unwrap();
                let h2 = city.ring_hops(b, a).unwrap();
                assert_eq!(h1, h2);
                assert!(h1 <= members.len() as u32 / 2 + 1);
            }
        }
        let outside = city.city.fog1_in_district(6)[0];
        assert_eq!(city.ring_hops(members[0], outside), None);
    }

    #[test]
    fn a_failure_that_is_no_fault_fails_the_wave_after_it_ran() {
        let mut city = F2cCity::barcelona().unwrap();
        round(&mut city, 100);
        // A stand-in for a codec bug: the cloud's mirror decoder of
        // district 2 (sections 10..18) learns a sensor its fog 2 never
        // sent, so the district's next payload, undamaged, decodes to
        // other records.
        let foreign = [DataRecord::from_reading(Reading::new(
            SensorId::new(SensorType::Traffic, 80_000),
            0,
            Value::Counter(1),
        ))];
        let payload = tsenc::StreamEncoder::new().encode_batch(&foreign).unwrap();
        city.cloud
            .verify_flush(2, Some(&payload), &foreign)
            .unwrap();
        assert_eq!(city.flush_all(900), Err(Error::CodecMismatch { origin: 2 }));
        // The refused batch went back to district 2's fog 2; every
        // other district landed, and the wave ran to its end.
        let sections: std::collections::BTreeSet<u16> = city
            .cloud
            .store()
            .archive()
            .iter()
            .filter_map(|r| r.descriptor().section())
            .collect();
        assert!(sections.iter().all(|s| !(10..18).contains(s)));
        assert!(sections.contains(&9) && sections.contains(&18));
        assert!(city.fog2[2].store().pending_len() > 0);
        assert_eq!(city.fog2[2].sketches().sealed_through(10), 900);
        assert_eq!(city.cloud.sketches().sealed_through(10), 0);
        assert_eq!(city.timeline().iter().count(), 0, "no fault was injected");
    }
}
