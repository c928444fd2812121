//! The phase context every SCC-DLC step reads its clock from, and (in
//! tests) the phase abstraction: a phase consumes a batch of records and
//! produces a (possibly smaller, possibly annotated) batch.

#[cfg(test)]
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

/// One life-cycle phase: the acquisition phases' impls are the tests'
/// reference pipeline, which the single-visit
/// [`crate::acquisition::AcquisitionBlock::ingest`] is held to.
#[cfg(test)]
pub(crate) trait Phase {
    /// Stable phase name (e.g. `"data-filtering"`).
    fn name(&self) -> &'static str;

    /// Processes one batch.
    fn run(&mut self, batch: Vec<DataRecord>, ctx: &PhaseContext) -> Vec<DataRecord>;
}
