//! # f2c-core — Fog-to-Cloud data management for smart cities
//!
//! The paper's primary contribution (ICDCS 2017): mapping the SCC-DLC data
//! life-cycle onto a hierarchical fog-to-cloud resource-management
//! architecture (Fig. 5), and quantifying the traffic savings of fog-side
//! aggregation against a centralized cloud platform (Table I, Fig. 7).
//!
//! * `layer` — the three architecture layers (fog 1, fog 2, cloud),
//! * [`policy`] — flush/retention policies (§IV.B: periodic upward
//!   movement, off-peak scheduling, aggregation toggles),
//! * `store` — the tiered store: the "reversed memory hierarchy" (§IV.B),
//! * [`node`] — an F2C node hosting its layer's DLC phases (Fig. 5),
//! * [`traffic`] — the analytic traffic model that regenerates Table I and
//!   Fig. 7 exactly from the published parameters,
//! * [`runtime`] — the event-driven simulation that cross-validates the
//!   analytic model over synthetic Sentilo data on the Barcelona topology,
//! * [`baseline`] — the centralized cloud architecture (Fig. 3),
//! * `hierarchy` — the assembled city ([`hierarchy::F2cCity`]): the
//!   write path, and the single-source and fan-out metering of the reads
//!   the query engine's §IV.C planner routes,
//! * [`placement`] / [`cost`] — service placement and the access cost
//!   model (§IV.C): local / neighbor / parent / sibling-fog-2 / cloud
//!   single sources, plus scatter-gather pricing (max over concurrent
//!   fan-out legs + per-leg merge/admission overhead + last-hop
//!   delivery),
//! * `incident` — the chaos plane's queryable per-node incident
//!   timeline (injected faults and their downstream effects),
//! * [`request`] — data-access latency: fog-local vs cloud round trips,
//!   including the centralized "two transfers through the same path" effect
//!   (§IV.D),
//! * [`report`] — table formatting for the experiment harnesses.
//!
//! # Quickstart
//!
//! ```
//! use f2c_core::traffic::TrafficModel;
//!
//! let model = TrafficModel::paper();
//! let totals = model.table1_totals();
//! assert_eq!(totals.sensors, 1_005_019);
//! assert_eq!(totals.daily_fog1, 8_583_503_168);      // ~8 GB/day generated
//! assert_eq!(totals.daily_cloud_f2c, 5_036_071_584); // after fog-1 dedup
//! ```

#![warn(unreachable_pub)]

pub mod baseline;
pub mod cost;
mod error;
pub(crate) mod hierarchy;
pub(crate) mod incident;
pub(crate) mod layer;
pub mod node;
pub mod placement;
pub mod policy;
pub mod report;
pub mod request;
pub mod runtime;
pub(crate) mod shard;
pub(crate) mod store;
pub mod traffic;

pub use error::{Error, Result};
pub use hierarchy::{DataSource, F2cCity, FanoutLeg};
pub use incident::{ChaosSite, IncidentKind};
pub use layer::Layer;
pub use node::{F2cNode, IngestOutcome, SKETCH_BUCKET_S};
pub use policy::{FlushPolicy, RetentionPolicy};
pub use shard::{run_shards, ObsScratch, Parallelism, ShipmentRecord};
pub use store::TieredStore;
