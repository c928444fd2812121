//! What a served query returns: the answer and its route, completeness
//! and held admission slots, and the knobs that configure the engine.

use citysim::time::Duration;
use f2c_core::{DataSource, Layer};
use f2c_qos::{QosPolicy, ServiceClass, ShedCause};

use crate::model::QueryAnswer;

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
    /// Admission caps.
    pub caps: LayerCaps,
    /// Per-class quotas, priorities and deadline budgets carving up the
    /// layer caps.
    pub qos: QosPolicy,
    /// Largest answer payload worth caching: bulky range answers are
    /// cheaper to re-scan than to hold in dozens of per-node caches.
    pub max_cache_entry_bytes: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            result_ttl_s: 120,
            result_capacity: 512,
            caps: LayerCaps::default(),
            qos: QosPolicy::default(),
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
/// [`QueryEngine::release_held`](super::QueryEngine::release_held),
/// tagged with the service class whose quota they charge. Single-source
/// store executions hold one slot; scatter-gather holds one per leg at
/// each leg's layer.
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
    pub(super) fn empty(class: ServiceClass) -> Self {
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

    pub(super) fn add(&mut self, layer: Layer, count: u32) {
        self.slots[layer.index()] += count;
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
