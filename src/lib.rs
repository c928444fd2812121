//! # f2c-smartcity — umbrella crate
//!
//! Re-exports the whole workspace behind one dependency, for the examples
//! under `examples/` and downstream users who want everything:
//!
//! * [`sensors`] — the Sentilo-like sensor substrate (Table I catalog),
//! * [`citysim`] — the discrete-event network simulator,
//! * [`compress`] — the from-scratch deflate-style codec,
//! * [`aggregate`] — redundant-data elimination, decomposable functions
//!   and HyperLogLog, plus the sketch plane's mergeable partials and
//!   per-node ledgers,
//! * [`dlc`] — the SCC-DLC life-cycle model,
//! * [`core`] — the F2C data-management architecture itself,
//! * [`qos`] — per-service QoS classes, quotas and deadline budgets,
//! * [`query`] — consumer-facing query serving over the hierarchy,
//! * [`obs`] — the observability plane: sim-time tracing, the unified
//!   metrics registry, the `BENCH_*.json` export and the perf-budget gate.
//!
//! See the repository README for the quickstart and the experiment
//! binaries that regenerate the paper's tables and figures, and
//! `docs/ARCHITECTURE.md` for the crate map.
//!
//! # Example
//!
//! ```
//! use f2c_smartcity::core::{F2cNode, FlushPolicy, RetentionPolicy};
//! use f2c_smartcity::sensors::{Catalog, ReadingGenerator, SensorType};
//!
//! let catalog = Catalog::barcelona();                 // Table I, verbatim
//! let mut fog1 = F2cNode::fog1(3, 18, FlushPolicy::paper_fog1(),   // Les Corts
//!                              RetentionPolicy::keep(86_400))?;
//! let mut sensors = ReadingGenerator::for_population(SensorType::Temperature, 50, 42);
//! let outcome = fog1.ingest_wave(sensors.wave(0), 1, &catalog)?;
//! assert_eq!(outcome.offered, 50);
//! let batch = fog1.flush(900, &catalog)?;             // aggregated + encoded
//! assert!(batch.payload.is_some());                   // the shipment is its payload
//! fog1.commit_flush(900);                             // the parent ACKed it
//! # Ok::<(), f2c_smartcity::core::Error>(())
//! ```

pub use citysim;
pub use f2c_aggregate as aggregate;
pub use f2c_compress as compress;
pub use f2c_core as core;
pub use f2c_obs as obs;
pub use f2c_qos as qos;
pub use f2c_query as query;
pub use scc_dlc as dlc;
pub use scc_sensors as sensors;
