//! What the engine counts: its serving counters, generic over the cell so
//! one shape both names the registry series and holds their values.

use f2c_core::Layer;
use f2c_obs::{CounterId, Labels, MetricsRegistry};
use f2c_qos::{ServiceClass, CLASS_COUNT};

/// Per-service-class serving counters, indexed by
/// [`ServiceClass::index`] inside [`EngineStats::per_class`]. Generic
/// over the cell like [`EngineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats<T = u64> {
    /// Queries of this class offered to
    /// [`QueryEngine::serve`](super::QueryEngine::serve).
    pub requests: T,
    /// Queries answered (any path).
    pub answered: T,
    /// Queries shed by quota pressure
    /// ([`ShedCause::Capacity`](f2c_qos::ShedCause::Capacity)).
    pub shed: T,
    /// Queries shed at plan time because no provably-complete route fit
    /// the class deadline budget
    /// ([`ShedCause::Deadline`](f2c_qos::ShedCause::Deadline)).
    pub deadline_shed: T,
    /// Queries whose planned route was saturated but which were served
    /// by the in-budget fallback route instead of shedding.
    pub rerouted: T,
    /// Queries shed because an injected fault made every viable route
    /// unserveable ([`ShedCause::Fault`](f2c_qos::ShedCause::Fault)).
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
/// values — [`QueryEngine::stats`](super::QueryEngine::stats) reads one
/// from the other, and a run scopes lifetime values to itself with
/// [`EngineStats::zip`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats<T = u64> {
    /// Queries offered to [`QueryEngine::serve`](super::QueryEngine::serve).
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
    /// Answered queries degraded to
    /// [`Completeness::Partial`](super::response::Completeness::Partial).
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
    pub(super) fn register(reg: &mut MetricsRegistry) -> Self {
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
