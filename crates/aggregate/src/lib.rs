//! Data-aggregation library for the F2C reproduction.
//!
//! §V.A of the paper surveys aggregation along two taxonomies
//! (communication: structured/unstructured/hybrid; computation:
//! decomposable/complex/counting) and then evaluates two concrete
//! techniques at fog layer 1: **redundant-data elimination** and
//! compression. This crate implements the first, and the mergeable
//! aggregate states the query engine's sketch plane ships up the
//! hierarchy:
//!
//! * [`dedup`] — redundant-data elimination (the paper's technique #1),
//! * [`functions`] — decomposable aggregate functions with mergeable
//!   partial states (the "hierarchic/averaging" computation class),
//! * [`sketch`] — HyperLogLog (the "randomized counting" class), the
//!   sketch plane's mergeable [`sketch::AggPartial`] (CRC-checked wire
//!   form), the dense [`sketch::AggAcc`] a request folds into, and the
//!   per-node [`sketch::SketchLedger`] of bucketed, compaction-surviving
//!   partials.
//!
//! # Quickstart
//!
//! ```
//! use f2c_aggregate::dedup::RedundancyFilter;
//! use scc_sensors::{ReadingGenerator, SensorType};
//!
//! let mut gen = ReadingGenerator::for_population(SensorType::Temperature, 50, 42);
//! let mut filter = RedundancyFilter::new();
//! let mut kept = 0usize;
//! let mut total = 0usize;
//! for wave in 0..100 {
//!     for r in gen.wave(wave * 900) {
//!         total += 1;
//!         if filter.admit(&r) {
//!             kept += 1;
//!         }
//!     }
//! }
//! // Energy sensors repeat ~50% of readings (Table I).
//! assert!((kept as f64 / total as f64 - 0.5).abs() < 0.05);
//! ```

#![warn(unreachable_pub)]

pub mod dedup;
mod error;
pub mod functions;
pub mod sketch;

pub use dedup::{DedupStats, RedundancyFilter};
pub use error::{Error, Result};
