//! The phase abstraction: every SCC-DLC phase consumes a batch of records
//! and produces a (possibly smaller, possibly annotated) batch.

use std::fmt;

use crate::record::DataRecord;

/// The three blocks of the SCC-DLC model (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Block {
    /// Data acquisition: collection, filtering, quality, description.
    Acquisition,
    /// Data processing: process, analysis.
    Processing,
    /// Data preservation: classification, archive (dissemination, in the
    /// paper).
    Preservation,
}

impl Block {
    /// Stable display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Block::Acquisition => "acquisition",
            Block::Processing => "processing",
            Block::Preservation => "preservation",
        }
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

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

    /// Which block the phase belongs to.
    fn block(&self) -> Block;

    /// Processes one batch.
    fn run(&mut self, batch: Vec<DataRecord>, ctx: &PhaseContext) -> Vec<DataRecord>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_names_are_stable() {
        assert_eq!(Block::Acquisition.name(), "acquisition");
        assert_eq!(Block::Processing.to_string(), "processing");
        assert_eq!(Block::Preservation.name(), "preservation");
    }
}
