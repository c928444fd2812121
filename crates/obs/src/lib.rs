//! # f2c-obs — the observability plane
//!
//! The paper's whole argument is quantitative — traffic volumes per hop and
//! fog-vs-cloud latency distributions — so the reproduction needs its numbers
//! in one machine-readable place, not scattered across per-crate structs.
//! This crate is that place:
//!
//! * `registry` — the unified [`MetricsRegistry`]: named counters, gauges
//!   and duration histograms with a static label set ([`Labels`]: layer,
//!   class, service, fault kind). The city, the query engine, the QoS ledger
//!   and the sketch plane all publish into one registry; the old hand-rolled
//!   stat structs survive only as typed *views* over it.
//! * `trace` — deterministic sim-time tracing: plain-value [`Span`]s
//!   opened/closed on the event clock (no wall time, no globals, no thread
//!   locals), nested parent/child per site, kept in a ring-buffered
//!   `TraceLog` per node, with a byte-stable transcript encoding so three
//!   replicas of a seeded run produce identical traces.
//! * [`json`] — a dependency-free JSON value (the vendored serde is a no-op
//!   shim), writer and parser, for the `BENCH_*.json` export pipeline.
//! * `budget` — the perf-budget gate: diff a fresh bench snapshot against
//!   a committed baseline and fail on regressions beyond per-metric
//!   tolerances.
//! * `explain` — deterministic min-hash reservoir retention for planner
//!   EXPLAIN transcripts ([`ExplainStore`]).
//! * `exemplar` — per-latency-bucket trace exemplars: the slowest query
//!   in each histogram bucket keeps its span tree ([`ExemplarStore`]).
//! * `alert` — multi-window SLO burn-rate alerting on the event clock
//!   ([`BurnRateMonitor`]), the diagnosis plane's "notice it during the
//!   run" rung.
//!
//! Everything here is a plain single-threaded value: determinism is the
//! contract, and `tests/determinism.rs` holds the registry and tracer to the
//! same byte-identical-replica oracle as the simulation itself.
//!
//! # Example
//!
//! ```
//! use citysim::time::Duration;
//! use f2c_obs::{Labels, MetricsRegistry, Site, Tracer};
//!
//! let mut reg = MetricsRegistry::new();
//! let served = reg.counter("queries_served", Labels::new().layer("fog1"));
//! reg.inc(served);
//! let lat = reg.histogram("latency", Labels::new().layer("fog1"));
//! reg.observe(lat, Duration::from_millis(3));
//! assert_eq!(reg.counter_value(served), 1);
//!
//! let mut tracer = Tracer::new();
//! let site = Site::new("fog1", 5);
//! let span = tracer.open(site, "flush-hop", 900_000_000);
//! tracer.close_with(span, 900_000_450, 1_234);
//! assert_eq!(tracer.span_count(), 1);
//! ```

#![warn(unreachable_pub)]

pub(crate) mod alert;
pub(crate) mod budget;
pub(crate) mod exemplar;
pub(crate) mod explain;
pub mod json;
pub(crate) mod labels;
pub(crate) mod registry;
pub(crate) mod trace;

pub use alert::{AlertTransition, BurnRateMonitor, SloSpec};
pub use budget::{check_budget, BudgetRule, Violation};
pub use exemplar::ExemplarStore;
pub use explain::ExplainStore;
pub use json::Json;
pub use labels::Labels;
pub use registry::{CounterId, HistogramSummary, MetricsRegistry, Snapshot};
pub use trace::{Site, Span, SpanToken, Tracer};
