//! The phase abstraction: every SCC-DLC phase consumes a batch of records
//! and produces a (possibly smaller, possibly annotated) batch.

use crate::record::DataRecord;

/// Ambient information a phase may need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseContext {
    /// Current time, seconds (collection/flush time at the hosting node).
    pub now_s: u64,
}

impl PhaseContext {
    /// A context at time `now_s`.
    pub fn at(now_s: u64) -> Self {
        Self { now_s }
    }
}

/// One life-cycle phase.
///
/// Implementations live in [`crate::acquisition`] and
/// [`crate::preservation`].
///
/// `Send + Sync` so nodes embedding phases can be owned by district
/// shards on worker threads (phases hold plain configuration and
/// counters, never shared handles).
pub trait Phase: Send + Sync {
    /// Stable phase name (e.g. `"data-filtering"`).
    fn name(&self) -> &'static str;

    /// Processes one batch.
    fn run(&mut self, batch: Vec<DataRecord>, ctx: &PhaseContext) -> Vec<DataRecord>;
}
