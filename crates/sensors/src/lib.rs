//! Smart-city sensor substrate for the F2C reproduction.
//!
//! The paper's experiment (§V.B, Table I) is driven by the **Sentilo**
//! platform's five sensor categories in Barcelona — energy, noise, garbage,
//! parking and urban — with published per-type sensor counts, message sizes,
//! message frequencies, and per-category redundancy rates. Sentilo's real
//! feeds are not public, so this crate is the substitution: a synthetic
//! catalog that encodes Table I verbatim plus deterministic generators that
//! produce observation streams with exactly the published redundancy
//! characteristics.
//!
//! * [`Category`] / [`SensorType`] — the 5 categories and 21 sensor types,
//! * [`Catalog`] / [`TypeSpec`] — deployment descriptions ([`Catalog::barcelona`]
//!   is Table I),
//! * [`Shape`] — the value shape each type reports ([`SensorType::shape`]),
//! * [`Reading`] / [`Value`] — one observation,
//! * `generator` — per-sensor value walks with tunable redundancy,
//! * [`idhash`] — the hasher for tables keyed by program-generated ids,
//! * [`wire`] — Sentilo-style text encoding of observations.
//!
//! # Quickstart
//!
//! ```
//! use scc_sensors::{Catalog, SensorType};
//!
//! let catalog = Catalog::barcelona();
//! assert_eq!(catalog.total_sensors(), 1_005_019);
//! assert_eq!(catalog.total_daily_bytes(), 8_583_503_168); // ≈ 8 GB/day
//!
//! let spec = catalog.spec(SensorType::ElectricityMeter).unwrap();
//! assert_eq!(spec.sensors(), 70_717);
//! assert_eq!(spec.tx_bytes(), 22);
//! ```

#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod catalog;
pub(crate) mod category;
mod error;
pub(crate) mod generator;
pub mod idhash;
pub(crate) mod ids;
pub(crate) mod reading;
pub mod rngutil;
pub(crate) mod sensor_type;
pub(crate) mod value;
pub mod wire;

pub use catalog::{Catalog, TypeSpec};
pub use category::Category;
pub use error::Error;
pub(crate) use error::Result;
pub use generator::{ReadingGenerator, SensorStream, TimeCorrelatedStream};
pub use idhash::IdMap;
pub use ids::SensorId;
pub use reading::Reading;
pub use sensor_type::{SensorType, Shape};
pub use value::Value;
