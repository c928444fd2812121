//! The data acquisition block (Fig. 2): collection → filtering → quality →
//! description. Runs at fog layer 1 in the F2C mapping (Fig. 5, §IV.A).

mod description;
mod filtering;
mod quality_phase;

pub(crate) use description::DescriptionPhase;
pub(crate) use filtering::FilteringPhase;
pub(crate) use quality_phase::QualityPhase;

use crate::phase::PhaseContext;
use crate::quality::QualityTally;
use crate::record::DataRecord;
use scc_sensors::Reading;

/// The full acquisition block as one convenient unit: collects raw
/// readings at the context's clock and runs them through filtering,
/// quality and description. A reading whose value its type's
/// [`Shape`](scc_sensors::Shape) does not admit is refused at the quality
/// phase.
///
/// The phases are held as themselves, not as a list of boxes, and a wave
/// visits each offered reading once: a repeat or a quality failure is
/// dropped while it is still a [`Reading`], and every kept one is
/// wrapped and located in one pass, into a vector sized to the wave.
/// Each step is the phase's own per-reading method, the one its
/// test-only `Phase::run` calls. Collection is the clock itself: the
/// quality phase measures staleness against `ctx.now_s`, and nothing
/// else reads a collection time.
///
/// # Examples
///
/// ```
/// use scc_dlc::acquisition::AcquisitionBlock;
/// use scc_dlc::phase::PhaseContext;
/// use scc_sensors::{Reading, SensorId, SensorType, Value};
///
/// let mut block = AcquisitionBlock::new("Barcelona", 3, 21);
/// assert_eq!(block.city(), "Barcelona");
/// // A weather station reports five fields (19.00 °C first).
/// let value = Value::Composite(vec![1_900, 6_500, 0, 310, 12]);
/// let r = Reading::new(SensorId::new(SensorType::Weather, 0), 10, value);
/// let out = block.ingest(vec![r], &PhaseContext::at(12));
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].descriptor().section(), Some(21));
///
/// // A lone scalar is no weather reading: refused, never stored.
/// let r = Reading::new(SensorId::new(SensorType::Weather, 1), 10, Value::from_f64(19.0));
/// assert!(block.ingest(vec![r], &PhaseContext::at(12)).is_empty());
/// assert_eq!(block.refused().misshaped, 1);
///
/// // Out of range and two hours old at collection: dropped, and tallied
/// // under both violations (out of range, stale, future).
/// let value = Value::Composite(vec![90_000, 6_500, 0, 310, 12]);
/// let r = Reading::new(SensorId::new(SensorType::Weather, 2), 10, value);
/// assert!(block.ingest(vec![r], &PhaseContext::at(7_210)).is_empty());
/// assert_eq!(block.refused().violations, [1, 1, 0]);
/// ```
#[derive(Debug)]
pub struct AcquisitionBlock {
    /// `None` in the centralized-baseline configuration.
    filtering: Option<FilteringPhase>,
    quality: QualityPhase,
    description: DescriptionPhase,
}

impl AcquisitionBlock {
    /// The paper's fog-1 configuration for a node covering `section` of
    /// `district` in `city`: collection, redundant-data elimination,
    /// quality (dropping failures), description.
    pub fn new(city: &str, district: u16, section: u16) -> Self {
        Self {
            filtering: Some(FilteringPhase::paper_default()),
            ..Self::without_filtering(city, district, section)
        }
    }

    /// A variant *without* the filtering phase — the centralized-baseline
    /// configuration, where no aggregation happens before the cloud.
    pub fn without_filtering(city: &str, district: u16, section: u16) -> Self {
        Self {
            filtering: None,
            quality: QualityPhase::dropping_failures(),
            description: DescriptionPhase::new(city, district, section),
        }
    }

    /// The city whose records the block tags: every record it emits is
    /// located in it, so the name is held here once, not per record.
    pub fn city(&self) -> &str {
        self.description.city()
    }

    /// What the quality phase refused in the last wave
    /// [`AcquisitionBlock::ingest`] took.
    pub fn refused(&self) -> QualityTally {
        self.quality.refused
    }

    /// Heap bytes at rest: the city's name and the filtering phase's
    /// last value per sensor; the other phases hold no heap.
    pub fn heap_bytes(&self) -> u64 {
        self.city().len() as u64
            + self
                .filtering
                .as_ref()
                .map_or(0, FilteringPhase::heap_bytes)
    }

    /// Ingests raw readings collected at `ctx.now_s`: filter → quality →
    /// wrap → describe, one reading at a time.
    pub fn ingest(&mut self, readings: Vec<Reading>, ctx: &PhaseContext) -> Vec<DataRecord> {
        self.quality.refused = QualityTally::default();
        let mut out = Vec::with_capacity(readings.len());
        for reading in readings {
            if let Some(filtering) = &mut self.filtering {
                if !filtering.admit(&reading) {
                    continue;
                }
            }
            if self.quality.check(&reading, ctx) {
                let mut rec = DataRecord::from_reading(reading);
                self.description.describe(&mut rec);
                out.push(rec);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;
    use scc_sensors::{ReadingGenerator, SensorId, SensorType, Value};
    use std::collections::BTreeMap;

    #[test]
    fn block_reduces_redundant_traffic_and_tags_everything() {
        let mut block = AcquisitionBlock::new("Barcelona", 2, 17);
        let mut gen = ReadingGenerator::for_population(SensorType::NoiseTrafficZone, 50, 4);
        let mut seen = 0u64;
        let mut kept = 0u64;
        for w in 0..60u64 {
            let wave = gen.wave(w * 60);
            seen += wave.len() as u64;
            let out = block.ingest(wave, &PhaseContext::at(w * 60 + 1));
            kept += out.len() as u64;
            for rec in &out {
                assert_eq!(rec.descriptor().district(), Some(2));
                assert_eq!(rec.descriptor().section(), Some(17));
            }
        }
        // Noise redundancy is 75% (Table I).
        let rate = 1.0 - kept as f64 / seen as f64;
        assert!((rate - 0.75).abs() < 0.05, "reduction {rate:.3}");
    }

    /// The block as the paper's four-phase pipeline: every reading
    /// wrapped first, then each phase's `Phase::run` over the whole wave
    /// in turn, collection being the context's clock. The reference the
    /// single visit is held to; its phases are the same types.
    struct Model {
        filtering: Option<FilteringPhase>,
        quality: QualityPhase,
        description: DescriptionPhase,
        /// Records each phase dropped, by phase name.
        dropped: BTreeMap<&'static str, usize>,
    }

    impl Model {
        fn new(filtering: bool) -> Self {
            Self {
                filtering: filtering.then(FilteringPhase::paper_default),
                quality: QualityPhase::dropping_failures(),
                description: DescriptionPhase::new("Barcelona", 4, 33),
                dropped: BTreeMap::new(),
            }
        }

        fn ingest(&mut self, readings: Vec<Reading>, ctx: &PhaseContext) -> Vec<DataRecord> {
            let mut batch: Vec<DataRecord> =
                readings.into_iter().map(DataRecord::from_reading).collect();
            let mut phases: Vec<&mut dyn Phase> = Vec::new();
            if let Some(filtering) = &mut self.filtering {
                phases.push(filtering);
            }
            phases.push(&mut self.quality);
            phases.push(&mut self.description);
            for phase in phases {
                let before = batch.len();
                batch = phase.run(batch, ctx);
                *self.dropped.entry(phase.name()).or_default() += before - batch.len();
            }
            batch
        }
    }

    /// A wave of `n` readings of `ty` at `t` with every kind of reading
    /// the block must handle: repeats of the previous wave, stale and
    /// future timestamps, out-of-range values and malformed composites.
    fn wave(ty: SensorType, n: u32, t: u64, salt: u64) -> Vec<Reading> {
        (0..n)
            .map(|i| {
                let id = SensorId::new(ty, i);
                let mix = (u64::from(i) * 7 + salt) % 9;
                // Mixes 4 and 5 break two rules at once, so quality drops them.
                let at = match mix {
                    0 | 4 => t.saturating_sub(10_000), // stale
                    1 | 5 => t + 500,                  // future
                    _ => t,
                };
                let value = match (ty, mix) {
                    (SensorType::Weather, 2 | 5) => Value::Composite(vec![100, 200]), // malformed
                    (SensorType::Weather, 3 | 4) => Value::Composite(vec![90_000, 1, 2, 3, 4]), // out of range
                    (SensorType::Weather, _) => Value::Composite(vec![
                        (salt % 3) as i64 * 100 + i64::from(i % 2),
                        1,
                        2,
                        3,
                        4,
                    ]),
                    (_, 3 | 4) => Value::from_f64(900.0), // out of range
                    // Repeats: most sensors keep last wave's value.
                    _ => Value::from_f64(f64::from(i % 4) + (salt % 2) as f64),
                };
                Reading::new(id, at, value)
            })
            .collect()
    }

    #[test]
    fn one_visit_per_reading_matches_the_four_phase_pipeline() {
        for filtering in [true, false] {
            let mut block = if filtering {
                AcquisitionBlock::new("Barcelona", 4, 33)
            } else {
                AcquisitionBlock::without_filtering("Barcelona", 4, 33)
            };
            let mut model = Model::new(filtering);
            let mut kept = 0;
            let types = [
                SensorType::Temperature,
                SensorType::Weather,
                SensorType::Temperature,
                SensorType::Weather,
                SensorType::Temperature,
                SensorType::Temperature,
            ];
            for (step, ty) in types.into_iter().enumerate() {
                let t = 10_000 + step as u64 * 600;
                let ctx = PhaseContext::at(t + 1);
                let readings = wave(ty, 40, t, step as u64 / 2);
                let out = block.ingest(readings.clone(), &ctx);
                assert_eq!(out, model.ingest(readings, &ctx), "wave {step}");
                assert_eq!(block.refused(), model.quality.refused, "wave {step}");
                kept += out.len();
            }
            // The waves exercised every path: something dropped as a
            // repeat (when filtering), something dropped on quality,
            // something kept.
            assert!(kept > 0);
            assert!(model.dropped["data-quality"] > 0);
            if filtering {
                assert!(model.dropped["data-filtering"] > 0);
            }
        }
        // An empty wave yields nothing.
        let mut block = AcquisitionBlock::new("Barcelona", 0, 0);
        assert!(block.ingest(Vec::new(), &PhaseContext::at(0)).is_empty());
    }
}
