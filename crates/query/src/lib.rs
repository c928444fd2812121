//! # f2c-query — consumer-facing query serving over the F2C hierarchy
//!
//! The paper's §IV.C–§IV.D argue that the fog-to-cloud hierarchy lets
//! city services consume data from the *cheapest layer that holds it* —
//! real-time reads at fog 1, recent windows at fog 2, history at the
//! cloud. This crate is that consumption path as a subsystem:
//!
//! * [`model`] — typed queries: point / range / aggregate, keyed by
//!   sensor type or category, scoped to a section, a district or the
//!   whole city, over a half-open time window,
//! * [`planner`] — the §IV.C cost model applied to serving: route each
//!   query to the cheapest *provably complete* route — one source
//!   (eviction watermarks + flush-propagation frontiers, falling back
//!   upward when data has aged out of a fog tier), or a scatter-gather
//!   fan-out over the member fog-1/fog-2 nodes that each hold one shard,
//!   priced against the single-source cloud read; aggregate windows
//!   fog 1 has *evicted* stay answerable from the sketch plane
//!   ([`f2c_core::DataSource::WarmSketch`] single sources and warm-sketch
//!   scatter legs, staleness-bounded by the flush seal frontier),
//! * [`scatter`] — merging fan-out partials at the requester's fog-2:
//!   [`AggPartial`] folds for aggregates, k-way ordered merge with dedup
//!   for range reads, canonical-rank races for points,
//! * `engine` — the executor behind tiered result caches (edge +
//!   source/gather, TTL- and flush-epoch-invalidated) and **class-aware
//!   admission control** (the [`f2c_qos`] ledger: per-class guaranteed
//!   quotas + bounded borrowing per layer, deadline budgets enforced at
//!   plan time, deadline-bounded rerouting onto a contest's losing
//!   route, and a fan-out occupying one class-tagged slot per leg;
//!   warm-sketch reads admit at the QoS policy's *reduced* cost);
//!   aggregates are assembled from mergeable bucket partials
//!   ([`f2c_aggregate::sketch::AggPartial`] moments/extremes plus a
//!   HyperLogLog distinct-sensor sketch) — served from the partial
//!   cache, assembled from the flush-shipped sketch ledger
//!   (`prefold`), or scanned, in that order — and all folded into the
//!   serving core's one dense accumulator
//!   ([`f2c_aggregate::sketch::AggAcc`]), never into a per-leg partial,
//! * [`workload`] — what a deterministic, seeded closed-loop workload
//!   is: dashboard / analytics / real-time / city-wide mixes, diurnal
//!   day-curves and per-class flash crowds, the per-class query
//!   generator and the run report,
//! * [`parallel`] — the one closed loop that drives it on the
//!   event-driven clock, sharded by district onto worker threads
//!   ([`f2c_core::Parallelism`]; one thread runs the same schedule
//!   inline), with deterministic barriers at flush/ingest waves and
//!   canonical-order merges, so every run artifact is byte-identical
//!   at any thread count.
//!
//! # Quickstart
//!
//! ```
//! use f2c_core::{F2cCity, runtime::populate_city};
//! use f2c_query::{EngineConfig, Outcome, Query, QueryEngine, QueryKind};
//! use f2c_query::{Scope, Selector, ServiceClass, TimeWindow};
//! use scc_sensors::Category;
//!
//! // Warm a city (2 simulated hours at 1/50000 population), then serve.
//! let mut city = F2cCity::barcelona()?;
//! populate_city(&mut city, 50_000, 7, 7_200, 900)?;
//! let mut engine = QueryEngine::new(city, EngineConfig::default());
//! engine.flush_all(7_200)?;
//!
//! let district = engine.city().district_of(21);
//! let dashboard = Query {
//!     origin: 21,
//!     class: ServiceClass::Dashboard,
//!     selector: Selector::Category(Category::Urban),
//!     scope: Scope::District(district),
//!     window: TimeWindow::new(0, 7_200),
//!     kind: QueryKind::Aggregate,
//! };
//! match engine.serve_sync(&dashboard, 7_300)? {
//!     Outcome::Answered(resp) => assert!(resp.est_latency.as_micros() > 0),
//!     Outcome::Shed { layer, class, cause } => {
//!         panic!("{class} shed at {layer} ({cause:?})")
//!     }
//! }
//! # Ok::<(), f2c_query::Error>(())
//! ```

#![warn(unreachable_pub)]

pub mod cache;
pub(crate) mod engine;
mod error;
pub mod model;
pub mod parallel;
pub mod planner;
pub mod scatter;
pub mod workload;

pub use engine::{EngineConfig, LayerCaps, Outcome, QueryEngine, QueryResponse, ServedVia};
pub use error::{Error, Result};
pub use f2c_qos::{ClassLedger, ClassPolicy, QosPolicy, ShedCause};
pub use model::{
    absorb_record, finalize, AggAcc, AggPartial, AggState, PointSample, Query, QueryAnswer,
    QueryKind, Scope, Selector, TimeWindow,
};
pub use planner::{plan, Choice};
pub use workload::{DiurnalCurve, FlashCrowd, Mix, ServiceClass, WorkloadConfig, WorkloadReport};
