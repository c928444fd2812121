//! The SCC-DLC model: Smart City Comprehensive Data Life-Cycle (§II,
//! Figs. 1–2 of the paper).
//!
//! The model organizes data management into three blocks of phases:
//!
//! * **Data acquisition** — [`acquisition`]: collection, filtering
//!   (aggregation), quality, description;
//! * **Data processing** — process (transformation) and analysis. Here
//!   the query plane (`f2c-query`) processes the data it serves; this
//!   crate implements no processing phase;
//! * **Data preservation** — [`preservation`]: classification and
//!   archive (the paper's third phase, dissemination, is the query
//!   plane's too).
//!
//! Data flows (Fig. 1): acquired data is *real-time* when consumed
//! immediately, *archivable* when routed to preservation, *historical* when
//! read back from the archive for processing, and *higher-value* when
//! processing results are preserved again. In the F2C mapping the tiers
//! themselves route the flows (`f2c-core`'s flush waves and retention);
//! [`age::AgeClass`] implements the age characterization of §II ("we
//! characterize data according to its age").
//!
//! Phases are [`phase::Phase`] objects; the `f2c-core` crate maps them onto
//! fog/cloud nodes per Fig. 5.
//!
//! # Quickstart
//!
//! ```
//! use scc_dlc::acquisition::AcquisitionBlock;
//! use scc_dlc::phase::PhaseContext;
//! use scc_sensors::{ReadingGenerator, SensorType};
//!
//! // Section 7 of Barcelona lies in district 1 (Eixample).
//! let mut block = AcquisitionBlock::new("Barcelona", 1, 7);
//! let mut gen = ReadingGenerator::for_population(SensorType::Temperature, 20, 42);
//! let out = block.ingest(gen.wave(0), &PhaseContext::at(0));
//! assert!(!out.is_empty());
//! assert!(out.iter().all(|r| r.descriptor().section() == Some(7)));
//! ```

#![warn(unreachable_pub)]

pub mod acquisition;
pub(crate) mod age;
pub(crate) mod descriptor;
mod error;
pub mod phase;
pub mod preservation;
pub mod quality;
pub(crate) mod record;

pub use age::AgeClass;
pub use descriptor::{Descriptor, PrivacyLevel};
pub(crate) use error::{Error, Result};
pub use phase::{Phase, PhaseContext};
pub use quality::{QualityPolicy, QualityReport};
pub use record::DataRecord;
