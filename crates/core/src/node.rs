//! An F2C node: one box of Fig. 5, hosting the DLC phases appropriate to
//! its layer. Fog-1 nodes run the acquisition block over their section's
//! sensors and keep a short-retention tier; fog-2 nodes combine their
//! children's flushes in a medium tier; the cloud runs preservation
//! (classification + permanent archive).
//!
//! Every node also rides the **sketch plane**: a fog-1 flush folds its
//! batch into per-`(section, type, bucket)` [`AggPartial`]s and ships the
//! CRC-protected encodings upward *alongside* the record payload; fog-2 and
//! the cloud fold the incoming shipments into their own
//! [`SketchLedger`]s (and fog-2 relays them on its next flush) instead
//! of ever re-scanning raw records for aggregate state. The ledgers
//! outlive raw retention by design — that is what lets the query planner
//! answer aggregate windows fog 1 has already evicted.
//!
//! A shipment is its payload: the receiver stores the records it decodes
//! from the `tsenc` stream, never a copy of the sender's. A shipment is
//! encoded from the pending queue in place, then committed or rolled
//! back whole: the receiver accepts it only when every partial and the
//! payload decode, and a refused one stays queued at its sender to
//! re-ship with the next.

use std::collections::btree_map::Entry as Slot;
use std::collections::BTreeMap;
use std::num::NonZeroU64;
use std::ops::RangeInclusive;

use f2c_aggregate::sketch::{AggPartial, SketchKey, SketchLedger};
use f2c_compress::tsenc;
use scc_dlc::acquisition::AcquisitionBlock;
use scc_dlc::phase::PhaseContext;
use scc_dlc::preservation;
use scc_dlc::quality::QualityTally;
use scc_dlc::DataRecord;
use scc_sensors::{heap, Catalog, Reading, SensorType};

use crate::layer::Layer;
use crate::policy::{FlushPolicy, RetentionPolicy};
use crate::store::TieredStore;
use crate::{Error, Result};

/// What happened to one ingested wave at a fog-1 node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Readings offered by the sensors.
    pub offered: u64,
    /// Records stored after acquisition (dedup + quality).
    pub stored: u64,
    /// Table-I accounting bytes of the offered readings.
    pub raw_bytes: u64,
    /// Table-I accounting bytes of the stored records.
    pub kept_bytes: u64,
    /// What the quality phase refused.
    pub refused: QualityTally,
}

/// Aggregation bucket width of every node's sketch ledger, and of the
/// query engine's cached bucket partials, so flush-shipped partials line
/// up with serving-time bucket keys.
pub const SKETCH_BUCKET_S: u64 = 900;

/// [`SKETCH_BUCKET_S`], checked non-zero when the program is compiled.
const SKETCH_BUCKET: NonZeroU64 = match NonZeroU64::new(SKETCH_BUCKET_S) {
    Some(bucket) => bucket,
    None => panic!("the sketch bucket width is zero"),
};

/// How long fog-tier ledgers keep bucket partials after the records they
/// summarize were created. Far past raw retention (1 day at fog 1, 7 at
/// fog 2): partials are constant-size, so warm sketches stay answerable
/// for a month while the raw archives stay small.
pub(crate) const SKETCH_RETENTION_S: u64 = 30 * 86_400;

/// One upward shipment. It carries what ships plus the one tally that
/// cannot be read back off it — the Table-I accounting bytes, which need
/// the catalog; every other size is a method over the fields.
#[derive(Debug, Clone)]
pub struct FlushBatch {
    /// Table-I accounting bytes (Σ per-type transaction sizes): the
    /// ground truth every hop meters.
    pub acct_bytes: u64,
    /// The shipped records: a `f2c_compress::tsenc` stream, absent when
    /// nothing was pending. The receiver decodes it with its per-child
    /// stream decoder and stores what it decodes.
    pub payload: Option<Vec<u8>>,
    /// Pre-folded bucket partials shipped alongside the records (wire
    /// encoded, CRC-protected), sorted by key for determinism.
    pub sketches: Vec<(SketchKey, Vec<u8>)>,
    /// Per-section seal frontiers this shipment advances at the parent:
    /// everything of that section created before the frontier has been
    /// shipped (and folded) by now. Carried even when no records are due
    /// so idle sections still seal.
    pub seals: Vec<(u16, u64)>,
}

impl FlushBatch {
    /// Bytes that cross the uplink: the payload's length (the paper's
    /// Table I accounts transaction sizes, Fig. 7 adds compression).
    pub fn uplink_bytes(&self) -> u64 {
        self.payload.as_ref().map_or(0, |p| p.len() as u64)
    }

    /// Total wire bytes of the encoded partials (the sketch channel's
    /// cost, reported next to `acct_bytes` by the benches).
    pub(crate) fn sketch_bytes(&self) -> u64 {
        self.sketches.iter().map(|(_, b)| b.len() as u64).sum()
    }
}

/// One node of the F2C hierarchy.
#[derive(Debug)]
pub struct F2cNode {
    label: String,
    layer: Layer,
    section: Option<u16>,
    acquisition: Option<AcquisitionBlock>,
    store: TieredStore,
    /// The node's slice of the sketch plane: bucketed aggregate partials
    /// that survive raw-record eviction.
    sketches: SketchLedger,
    /// Fog-2 only: decoded partials received since the last committed
    /// flush, merged per key, awaiting upward relay (BTreeMap so the
    /// relayed order is deterministic).
    sketch_relay: BTreeMap<SketchKey, AggPartial>,
    /// Fog-2 only: seal frontiers received since the last committed
    /// flush, awaiting upward relay.
    seal_relay: BTreeMap<u16, u64>,
    /// Fog-1 only: the partials of the flush in flight, folded into the
    /// ledger when the parent acknowledges the batch.
    unacked: BTreeMap<SketchKey, AggPartial>,
    /// Node-local flush sequence number, stamped on ledger folds for
    /// observability (which flush last touched a bucket). Staleness
    /// *proofs* never read it — they use the seal and pending frontiers.
    flush_seq: u64,
    /// The upward flush stream's codec state: a sensor dictionary that
    /// persists across
    /// consecutive flushes, so steady-state batches code each sensor as
    /// a small dense integer. A flush stages its additions, and they
    /// commit only when the parent acknowledges the batch — exactly
    /// when the parent's mirror decoder commits them.
    codec: tsenc::StreamEncoder,
    /// Per-child mirror decoders (fog-2: keyed by child section; cloud:
    /// keyed by district), advancing once per decoded payload.
    decoders: BTreeMap<u16, tsenc::StreamDecoder>,
}

impl F2cNode {
    /// A fog-1 node for `section` of `district`, with the given policies.
    ///
    /// # Errors
    ///
    /// Propagates policy validation errors.
    pub fn fog1(
        district: u16,
        section: u16,
        flush_policy: FlushPolicy,
        retention: RetentionPolicy,
    ) -> Result<Self> {
        let flush_policy = flush_policy.validated()?;
        let acquisition = if flush_policy.aggregate {
            AcquisitionBlock::new("Barcelona", district, section)
        } else {
            AcquisitionBlock::without_filtering("Barcelona", district, section)
        };
        Ok(Self {
            label: format!("fog1/d{district}/s{section}"),
            layer: Layer::Fog1,
            section: Some(section),
            acquisition: Some(acquisition),
            store: TieredStore::new(retention),
            sketches: SketchLedger::with_bucket(SKETCH_BUCKET),
            sketch_relay: BTreeMap::new(),
            seal_relay: BTreeMap::new(),
            unacked: BTreeMap::new(),
            flush_seq: 0,
            codec: tsenc::StreamEncoder::new(),
            decoders: BTreeMap::new(),
        })
    }

    /// A fog-2 node for `district`.
    ///
    /// # Errors
    ///
    /// Propagates policy validation errors.
    pub(crate) fn fog2(
        district: u16,
        flush_policy: FlushPolicy,
        retention: RetentionPolicy,
    ) -> Result<Self> {
        flush_policy.validated()?;
        Ok(Self {
            label: format!("fog2/d{district}"),
            layer: Layer::Fog2,
            section: None,
            acquisition: None,
            store: TieredStore::new(retention),
            sketches: SketchLedger::with_bucket(SKETCH_BUCKET),
            sketch_relay: BTreeMap::new(),
            seal_relay: BTreeMap::new(),
            unacked: BTreeMap::new(),
            flush_seq: 0,
            codec: tsenc::StreamEncoder::new(),
            decoders: BTreeMap::new(),
        })
    }

    /// The cloud node: permanent storage, classification on receive.
    pub(crate) fn cloud() -> Self {
        Self {
            label: "cloud".to_owned(),
            layer: Layer::Cloud,
            section: None,
            acquisition: None,
            store: TieredStore::permanent(),
            sketches: SketchLedger::with_bucket(SKETCH_BUCKET),
            sketch_relay: BTreeMap::new(),
            seal_relay: BTreeMap::new(),
            unacked: BTreeMap::new(),
            flush_seq: 0,
            codec: tsenc::StreamEncoder::new(),
            decoders: BTreeMap::new(),
        }
    }

    /// The node's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Heap bytes at rest on this node: the store (archive and pending
    /// queue), the sketch ledger, the relays and unacknowledged partials
    /// with their registers, the flush codec and the per-child decoders,
    /// and the acquisition filter's per-sensor table. Priced from lengths
    /// and capacities ([`scc_sensors::heap`]), so a run prices the same at
    /// any worker-thread count.
    pub(crate) fn heap_bytes(&self) -> u64 {
        let partials = |map: &BTreeMap<SketchKey, AggPartial>| {
            heap::btree_bytes::<SketchKey, AggPartial>(map.len())
                + map.values().map(AggPartial::heap_bytes).sum::<u64>()
        };
        self.store.heap_bytes()
            + self.sketches.heap_bytes()
            + partials(&self.sketch_relay)
            + heap::btree_bytes::<u16, u64>(self.seal_relay.len())
            + partials(&self.unacked)
            + self.codec.heap_bytes()
            + heap::btree_bytes::<u16, tsenc::StreamDecoder>(self.decoders.len())
            + self
                .decoders
                .values()
                .map(tsenc::StreamDecoder::heap_bytes)
                .sum::<u64>()
            + self
                .acquisition
                .as_ref()
                .map_or(0, AcquisitionBlock::heap_bytes)
    }

    /// The local store.
    pub fn store(&self) -> &TieredStore {
        &self.store
    }

    /// The node's sketch ledger: bucketed aggregate partials (and their
    /// seal/eviction watermarks) that survive raw-record eviction.
    pub fn sketches(&self) -> &SketchLedger {
        &self.sketches
    }

    /// Decodes a shipment's encoded bucket partials, verifying each
    /// CRC, before the receiver accepts any of the shipment.
    ///
    /// # Errors
    ///
    /// [`Error::Sketch`] at the first partial that fails its integrity
    /// checks, counted in the ledger's
    /// [`SketchLedger::crc_failures`]: the whole shipment is refused.
    pub(crate) fn decode_sketches(
        &mut self,
        sketches: &[(SketchKey, Vec<u8>)],
    ) -> Result<Vec<(SketchKey, AggPartial)>> {
        let mut partials = Vec::with_capacity(sketches.len());
        for (key, bytes) in sketches {
            partials.push((*key, self.sketches.decode_shipped(bytes)?));
        }
        Ok(partials)
    }

    /// Folds an accepted shipment's decoded partials and applies its
    /// seal frontiers. Fog-2 nodes also queue both for upward relay on
    /// their next flush.
    pub(crate) fn receive_sketches(
        &mut self,
        partials: Vec<(SketchKey, AggPartial)>,
        seals: &[(u16, u64)],
    ) {
        for (key, partial) in partials {
            if self.layer != Layer::Fog2 {
                // Nothing relays from here: the ledger takes the partial.
                self.sketches.fold_owned(key, partial, self.flush_seq);
                continue;
            }
            self.sketches.fold(key, &partial, self.flush_seq);
            match self.sketch_relay.entry(key) {
                Slot::Occupied(relayed) => relayed.into_mut().merge(&partial),
                // Taking the partial is merging it into an empty one
                // (`a_moved_partial_is_one_merged_into_an_empty_one` in
                // the ledger's tests).
                Slot::Vacant(slot) => {
                    slot.insert(partial);
                }
            }
        }
        for &(section, through_s) in seals {
            self.sketches.seal(section, through_s);
            if self.layer == Layer::Fog2 {
                let slot = self.seal_relay.entry(section).or_insert(0);
                *slot = (*slot).max(through_s);
            }
        }
    }

    /// The sketch-horizon compaction that [`F2cNode::commit_flush`]
    /// runs for fog nodes. The cloud never flushes (it has no parent),
    /// so without this its ledger would grow without bound;
    /// [`crate::F2cCity::flush_due`] calls it on the cloud every wave.
    /// Returns how many bucket entries were dropped.
    pub(crate) fn compact_sketches(&mut self, now_s: u64) -> usize {
        self.sketches
            .evict_older_than(now_s.saturating_sub(SKETCH_RETENTION_S))
    }

    /// Ingests one wave of raw sensor readings (fog-1 only): runs the
    /// acquisition block and stores the surviving records locally.
    ///
    /// `catalog` supplies the Table-I per-transaction sizes used for
    /// traffic accounting.
    ///
    /// # Errors
    ///
    /// [`Error::BadConfig`] when called on a non-fog-1 node.
    pub fn ingest_wave(
        &mut self,
        readings: Vec<Reading>,
        now_s: u64,
        catalog: &Catalog,
    ) -> Result<IngestOutcome> {
        let acquisition = self.acquisition.as_mut().ok_or(Error::BadConfig {
            field: "layer",
            reason: "only fog-1 nodes ingest sensor waves",
        })?;
        let offered = readings.len() as u64;
        let raw_bytes = acct_bytes_of(readings.iter().map(Reading::sensor_type), catalog);
        let records = acquisition.ingest(readings, &PhaseContext::at(now_s));
        let stored = records.len() as u64;
        let kept_bytes = acct_bytes_of(records.iter().map(DataRecord::sensor_type), catalog);
        self.store.insert_batch(records);
        Ok(IngestOutcome {
            offered,
            stored,
            raw_bytes,
            kept_bytes,
            refused: acquisition.refused(),
        })
    }

    /// Receives one flush wave: the decoded shipments of this node's
    /// children, in shipment order, stored as one merge into the local
    /// run and queued for the next hop as they arrived. At the cloud each
    /// shipment is first classified ([`preservation::classify`]), shipment
    /// by shipment, before the permanent archive, per §IV.B.
    pub(crate) fn receive_wave(&mut self, shipments: impl IntoIterator<Item = Vec<DataRecord>>) {
        let classifies = self.layer == Layer::Cloud;
        self.store
            .insert_runs(shipments.into_iter().map(|mut records| {
                if classifies {
                    preservation::classify(&mut records);
                }
                records
            }));
    }

    /// Decodes one flush shipment's payload from the child stream
    /// `origin` (fog-2: the child's section; cloud: the shipping
    /// district) into the records it carries, before they join the wave
    /// [`F2cNode::receive_wave`] stores. Each record is located in
    /// `district`, the sender's, and in the section the payload names,
    /// which must be one of `sections`, the sender's. The stream's mirror
    /// decoder advances only on `Ok`, which is when the receiver ACKs and
    /// the child's encoder commits the same additions.
    ///
    /// # Errors
    ///
    /// Decode failures ([`Error::Compression`]): a payload damaged in
    /// flight fails its CRC, and one that names a section outside
    /// `sections` is refused as
    /// [`f2c_compress::Error::ForeignSection`].
    pub(crate) fn decode_flush(
        &mut self,
        origin: u16,
        district: u16,
        sections: RangeInclusive<u16>,
        payload: Option<&[u8]>,
    ) -> Result<Vec<DataRecord>> {
        let Some(bytes) = payload else {
            return Ok(Vec::new());
        };
        let decoder = self.decoders.entry(origin).or_default();
        let records = decoder.decode_records(bytes, sections, |reading, section| {
            let mut record = DataRecord::from_reading(reading);
            record.set_location(district, section);
            record
        })?;
        Ok(records)
    }

    /// Packages the records pending for upward shipping at `now_s` as a
    /// [`FlushBatch`], encoding and folding them where they sit in the
    /// pending queue. The flush changes no committed state: the parent
    /// answers the batch, and the node then commits it
    /// ([`F2cNode::commit_flush`], which drains the queue) or, on a
    /// refusal, rolls it back, and the records re-ship with the next
    /// batch. Nothing else may touch the
    /// node in between.
    ///
    /// The batch also carries the sketch plane's shipment: a fog-1 node
    /// folds the batch into per-`(section, type, bucket)` partials and
    /// seals its section through `now_s`; a fog-2 node relays the
    /// partials and seals received from its children since its
    /// last committed flush. An empty batch still ships its seals, so
    /// idle sections keep their parents' frontiers moving.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures; the node is then as it was.
    pub fn flush(&mut self, now_s: u64, catalog: &Catalog) -> Result<FlushBatch> {
        let records = self.store.pending();
        // The payload rides the columnar time-series codec, not
        // byte-oriented DEFLATE of the wire text. The stream encoder's
        // sensor dictionary persists across this node's flushes, so the
        // batch's additions stay staged until the parent's mirror
        // decoder has decoded the payload.
        let payload = if records.is_empty() {
            None
        } else {
            Some(self.codec.stage_batch(records)?)
        };
        let (sketches, seals) = match self.layer {
            Layer::Fog1 => {
                let own = self.section.unwrap_or(0);
                self.unacked = fold_runs(records, own, &self.sketches);
                (encode_all(&self.unacked), vec![(own, now_s)])
            }
            Layer::Fog2 => (
                encode_all(&self.sketch_relay),
                self.seal_relay.iter().map(|(&s, &t)| (s, t)).collect(),
            ),
            // The cloud has no parent; nothing to ship.
            Layer::Cloud => (Vec::new(), Vec::new()),
        };
        let acct_bytes = acct_bytes_of(records.iter().map(DataRecord::sensor_type), catalog);
        Ok(FlushBatch {
            acct_bytes,
            payload,
            sketches,
            seals,
        })
    }

    /// The parent acknowledged the batch [`F2cNode::flush`] encoded at
    /// `now_s`: commits it. The pending queue drains
    /// ([`TieredStore::take_flush_batch`]); a fog-1 node folds the
    /// batch's partials into its ledger and seals its section through
    /// `now_s`; a fog-2 node drains the relays it shipped; the codec
    /// commits the batch's dictionary additions. Retention eviction then
    /// runs — on the raw archive and, on the much longer sketch horizon,
    /// on the ledger.
    pub fn commit_flush(&mut self, now_s: u64) {
        self.flush_seq += 1;
        self.store.take_flush_batch(now_s);
        self.codec.commit();
        match self.layer {
            Layer::Fog1 => {
                // Copied, not moved, into the ledger: a copy is sized to
                // its registers, and the ledger keeps it for a month.
                for (key, partial) in std::mem::take(&mut self.unacked) {
                    self.sketches.fold(key, &partial, self.flush_seq);
                }
                self.sketches.seal(self.section.unwrap_or(0), now_s);
            }
            Layer::Fog2 => {
                self.sketch_relay.clear();
                self.seal_relay.clear();
            }
            Layer::Cloud => {}
        }
        self.store.evict_expired(now_s);
        self.compact_sketches(now_s);
    }

    /// The parent refused the batch [`F2cNode::flush`] encoded, or it
    /// never arrived: the records stay queued, the fog-1 partials and
    /// the codec's staged additions are dropped, and fog 2's relays,
    /// never drained, ship again. The node is as it was before the flush.
    pub(crate) fn rollback_flush(&mut self) {
        self.unacked.clear();
        self.codec.discard();
    }
}

/// Wire-encodes each partial of a shipment, in key order.
fn encode_all(partials: &BTreeMap<SketchKey, AggPartial>) -> Vec<(SketchKey, Vec<u8>)> {
    partials
        .iter()
        .map(|(key, partial)| (*key, partial.encode()))
        .collect()
}

/// The ledger bucket `rec` folds into at a fog-1 node of section `own`.
fn sketch_key(rec: &DataRecord, own: u16, ledger: &SketchLedger) -> SketchKey {
    SketchKey {
        section: rec.descriptor().section().unwrap_or(own),
        ty: rec.sensor_type(),
        bucket_start_s: ledger.bucket_start(rec.descriptor().created_s()),
    }
}

/// Folds a fog-1 batch into per-`(section, type, bucket)` partials. A
/// batch is runs of records that share a key, so the current run's
/// partial is held outside the map: one remove and one insert per run
/// instead of a probe per record. Each key still absorbs its records in
/// batch order, so every partial is the per-record fold's, bit for bit.
fn fold_runs(
    records: &[DataRecord],
    own: u16,
    ledger: &SketchLedger,
) -> BTreeMap<SketchKey, AggPartial> {
    let mut folded = BTreeMap::new();
    let mut run: Option<(SketchKey, AggPartial)> = None;
    for rec in records {
        let key = sketch_key(rec, own, ledger);
        if run.as_ref().is_none_or(|(at, _)| *at != key) {
            if let Some((at, partial)) = run.take() {
                folded.insert(at, partial);
            }
            run = Some((key, folded.remove(&key).unwrap_or_default()));
        }
        if let Some((_, partial)) = &mut run {
            partial.absorb(
                rec.reading().value().magnitude(),
                rec.reading().sensor().seed_material(),
            );
        }
    }
    if let Some((at, partial)) = run {
        folded.insert(at, partial);
    }
    folded
}

/// Table-I accounting size of a batch of readings of these types. A wave
/// is one type and a shipment a few runs of them, so the catalog is
/// consulted once per run of equal types, not once per reading.
fn acct_bytes_of(types: impl Iterator<Item = SensorType>, catalog: &Catalog) -> u64 {
    let mut total = 0;
    let mut run: Option<(SensorType, u64)> = None;
    for ty in types {
        let tx_bytes = match run {
            Some((run_ty, tx_bytes)) if run_ty == ty => tx_bytes,
            _ => {
                let tx_bytes = catalog.spec(ty).map_or(0, |s| s.tx_bytes());
                run = Some((ty, tx_bytes));
                tx_bytes
            }
        };
        total += tx_bytes;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_sensors::{wire, ReadingGenerator};

    fn fog1() -> F2cNode {
        F2cNode::fog1(
            0,
            0,
            FlushPolicy::paper_fog1(),
            RetentionPolicy::keep(86_400),
        )
        .unwrap()
    }

    #[test]
    fn fog1_ingest_dedups_at_category_rate() {
        let catalog = Catalog::barcelona();
        let mut node = fog1();
        let mut gen = ReadingGenerator::for_population(SensorType::ContainerPaper, 100, 7);
        let mut total = IngestOutcome::default();
        for w in 0..50u64 {
            let out = node
                .ingest_wave(gen.wave(w * 2400), w * 2400 + 1, &catalog)
                .unwrap();
            total.offered += out.offered;
            total.stored += out.stored;
            total.raw_bytes += out.raw_bytes;
            total.kept_bytes += out.kept_bytes;
        }
        let keep_rate = total.kept_bytes as f64 / total.raw_bytes as f64;
        // Garbage redundancy is 70% -> ~30% kept.
        assert!((keep_rate - 0.30).abs() < 0.05, "keep rate {keep_rate:.3}");
        assert_eq!(total.raw_bytes, 50 * 100 * 50); // 50 waves × 100 sensors × 50 B
    }

    #[test]
    fn non_aggregating_node_keeps_everything() {
        let catalog = Catalog::barcelona();
        let mut node =
            F2cNode::fog1(0, 0, FlushPolicy::plain(900), RetentionPolicy::keep(86_400)).unwrap();
        let mut gen = ReadingGenerator::for_population(SensorType::ContainerPaper, 50, 7);
        for w in 0..10u64 {
            let out = node
                .ingest_wave(gen.wave(w * 2400), w * 2400 + 1, &catalog)
                .unwrap();
            assert_eq!(out.offered, out.stored);
        }
    }

    #[test]
    fn fog2_rejects_sensor_ingest() {
        let catalog = Catalog::barcelona();
        let mut node = F2cNode::fog2(
            0,
            FlushPolicy::plain(3600),
            RetentionPolicy::keep(7 * 86_400),
        )
        .unwrap();
        let mut gen = ReadingGenerator::for_population(SensorType::Weather, 5, 1);
        assert!(matches!(
            node.ingest_wave(gen.wave(0), 0, &catalog),
            Err(Error::BadConfig { .. })
        ));
    }

    #[test]
    fn flush_ships_and_compresses() {
        let catalog = Catalog::barcelona();
        let mut node = fog1();
        let mut gen = ReadingGenerator::for_population(SensorType::Temperature, 200, 5);
        for w in 0..4u64 {
            node.ingest_wave(gen.wave(w * 900), w * 900 + 1, &catalog)
                .unwrap();
        }
        let batch = node.flush(3600, &catalog).unwrap();
        let pending = node.store().pending_len();
        assert!(pending > 0);
        assert_eq!(
            batch.acct_bytes,
            pending as u64 * 22,
            "temperature rows are 22 B in Table I"
        );
        let payload = batch.payload.as_deref().expect("pending records ship");
        let shipped = tsenc::decode_once(payload).unwrap();
        assert_eq!(shipped.len(), pending);
        assert!(batch.uplink_bytes() < wire::encode_batch(&shipped).len() as u64);
        assert_eq!(batch.uplink_bytes(), payload.len() as u64);
        // Committed, a second flush at the same instant ships nothing.
        node.commit_flush(3600);
        let again = node.flush(3600, &catalog).unwrap();
        assert!(again.payload.is_none());
        assert_eq!(again.uplink_bytes(), 0);
    }

    #[test]
    fn cloud_receives_and_classifies_permanently() {
        let catalog = Catalog::barcelona();
        let mut f1 = fog1();
        let mut cloud = F2cNode::cloud();
        let mut gen = ReadingGenerator::for_population(SensorType::ParkingSpot, 50, 2);
        for w in 0..5u64 {
            f1.ingest_wave(gen.wave(w * 864), w * 864 + 1, &catalog)
                .unwrap();
        }
        let batch = f1.flush(86_400, &catalog).unwrap();
        let n = f1.store().pending_len();
        let records = cloud
            .decode_flush(0, 0, 0..=0, batch.payload.as_deref())
            .unwrap();
        assert_eq!(records.len(), n);
        cloud.receive_wave([records]);
        assert_eq!(cloud.store().len(), n);
        assert_eq!(cloud.layer, Layer::Cloud);
        // Cloud never evicts.
        let mut cloud2 = F2cNode::cloud();
        cloud2.receive_wave([Vec::new()]);
        assert!(cloud2.store().is_empty());
    }

    #[test]
    fn only_the_cloud_classifies_what_it_lands() {
        use scc_sensors::{SensorId, Value};
        use SensorType::{ElectricityMeter as Meter, ParkingSpot as Spot, Weather};
        let rec = |ty, idx, t, v| {
            DataRecord::from_reading(Reading::new(SensorId::new(ty, idx), t, Value::Counter(v)))
        };
        // Two districts' shipments of one wave, interleaved in time, with
        // ties at both instants across types and sensors, and one tie on
        // the whole key (meter 2 at 0 s, values 2 and 4).
        let wave = || {
            [
                vec![
                    rec(Weather, 0, 900, 1),
                    rec(Meter, 2, 0, 2),
                    rec(Spot, 1, 900, 3),
                    rec(Meter, 2, 0, 4),
                    rec(Spot, 0, 900, 5),
                ],
                vec![
                    rec(Spot, 0, 0, 6),
                    rec(Meter, 1, 900, 7),
                    rec(Weather, 0, 0, 8),
                    rec(Meter, 0, 0, 9),
                ],
            ]
        };
        fn values<'a>(readings: impl IntoIterator<Item = &'a Reading>) -> Vec<u64> {
            readings
                .into_iter()
                .map(|r| match r.value() {
                    Value::Counter(v) => *v,
                    other => panic!("not a counter: {other:?}"),
                })
                .collect()
        }
        // The cloud: creation time, then shipment by shipment in arrival
        // order, each in (category, type, sensor) order, whole-key ties
        // in arrival order.
        let mut cloud = F2cNode::cloud();
        cloud.receive_wave(wave());
        assert_eq!(
            values(cloud.store().archive().iter().map(DataRecord::reading)),
            [2, 4, 9, 6, 8, 5, 3, 1, 7]
        );
        // Fog 2: creation time, then arrival order; its queue for the next
        // hop is the shipments as they arrived.
        let mut f2 = F2cNode::fog2(
            0,
            FlushPolicy::plain(3600),
            RetentionPolicy::keep(7 * 86_400),
        )
        .unwrap();
        f2.receive_wave(wave());
        assert_eq!(
            values(f2.store().archive().iter().map(DataRecord::reading)),
            [2, 4, 6, 8, 9, 1, 3, 5, 7]
        );
        assert_eq!(
            values(f2.store().pending().iter().map(DataRecord::reading)),
            [1, 2, 3, 4, 5, 6, 7, 8, 9]
        );
    }

    #[test]
    fn flush_ships_prefolded_partials_and_seals() {
        let catalog = Catalog::barcelona();
        let mut node = fog1();
        let mut gen = ReadingGenerator::for_population(SensorType::Temperature, 40, 9);
        for w in 0..3u64 {
            node.ingest_wave(gen.wave(w * 900), w * 900 + 1, &catalog)
                .unwrap();
        }
        let batch = node.flush(2_700, &catalog).unwrap();
        let pending = node.store().pending_len();
        node.commit_flush(2_700);
        assert!(!batch.sketches.is_empty(), "partials ride the batch");
        assert!(batch.sketch_bytes() > 0);
        assert_eq!(batch.seals, vec![(0, 2_700)], "own section seals");
        // The shipped partials and the node's own ledger agree: the sum
        // of shipped counts is the record count of the batch.
        let shipped: u64 = batch
            .sketches
            .iter()
            .map(|(_, bytes)| AggPartial::decode(bytes).unwrap().count())
            .sum();
        assert_eq!(shipped, pending as u64);
        assert!(node.sketches().covers(0, 0, 2_700));
        // An idle follow-up flush still advances the seal frontier.
        let idle = node.flush(3_600, &catalog).unwrap();
        node.commit_flush(3_600);
        assert!(idle.payload.is_none() && idle.sketches.is_empty());
        assert_eq!(idle.seals, vec![(0, 3_600)]);
        assert_eq!(node.sketches().sealed_through(0), 3_600);
    }

    #[test]
    fn fog2_folds_received_partials_and_relays_them_upward() {
        let catalog = Catalog::barcelona();
        let mut f1 = fog1();
        let mut f2 = F2cNode::fog2(
            0,
            FlushPolicy::plain(3600),
            RetentionPolicy::keep(7 * 86_400),
        )
        .unwrap();
        let mut gen = ReadingGenerator::for_population(SensorType::ParkingSpot, 30, 5);
        for w in 0..2u64 {
            f1.ingest_wave(gen.wave(w * 900), w * 900 + 1, &catalog)
                .unwrap();
        }
        let batch = f1.flush(1_800, &catalog).unwrap();
        let shipped = batch.sketches.len();
        let partials = f2.decode_sketches(&batch.sketches).unwrap();
        f2.receive_sketches(partials, &batch.seals);
        let records = f2
            .decode_flush(0, 0, 0..=0, batch.payload.as_deref())
            .unwrap();
        let received = records.len() as u64;
        f2.receive_wave([records]);
        assert_eq!(f2.sketches().sealed_through(0), 1_800);
        // Fog-2's ledger now answers without scanning: its folded count
        // equals the raw records it received.
        let mut acc = AggPartial::empty();
        let mut folded = 0;
        for key in f2.sketches().keys() {
            let (p, _) = f2.sketches().entry(key).unwrap();
            folded += p.count();
            acc.merge(p);
        }
        assert_eq!(folded, received);
        // The next fog-2 flush relays the same partials (and seals) to
        // the cloud.
        let relay = f2.flush(3_600, &catalog).unwrap();
        assert_eq!(relay.sketches.len(), shipped);
        assert_eq!(relay.seals, vec![(0, 1_800)]);
        let mut cloud = F2cNode::cloud();
        let partials = cloud.decode_sketches(&relay.sketches).unwrap();
        cloud.receive_sketches(partials, &relay.seals);
        assert_eq!(cloud.sketches().sealed_through(0), 1_800);
    }

    #[test]
    fn corrupt_shipments_are_refused_and_counted() {
        let catalog = Catalog::barcelona();
        let mut f1 = fog1();
        let mut gen = ReadingGenerator::for_population(SensorType::Temperature, 10, 3);
        for w in 0..2u64 {
            f1.ingest_wave(gen.wave(w * 900), w * 900 + 1, &catalog)
                .unwrap();
        }
        let mut batch = f1.flush(1_800, &catalog).unwrap();
        assert_eq!(batch.sketches.len(), 2, "one partial per bucket");
        let mid = batch.sketches[1].1.len() / 2;
        batch.sketches[1].1[mid] ^= 0xFF;
        let mut f2 = F2cNode::fog2(
            0,
            FlushPolicy::plain(3600),
            RetentionPolicy::keep(7 * 86_400),
        )
        .unwrap();
        // One damaged partial refuses the shipment: the intact one
        // before it is not folded either, and nothing queues to relay.
        assert!(matches!(
            f2.decode_sketches(&batch.sketches),
            Err(Error::Sketch(f2c_aggregate::Error::CorruptPartial { .. }))
        ));
        assert_eq!(f2.sketches().crc_failures(), 1);
        assert!(f2.sketches().is_empty());
        let relay = f2.flush(3_600, &catalog).unwrap();
        assert!(relay.sketches.is_empty() && relay.seals.is_empty());
        // The undamaged re-shipment decodes whole.
        batch.sketches[1].1[mid] ^= 0xFF;
        assert_eq!(f2.decode_sketches(&batch.sketches).unwrap().len(), 2);
    }

    #[test]
    fn a_payload_naming_another_section_is_refused_whole() {
        // Fog 1 of section 0 ships section 0; a receiver that takes only
        // section 1 from this child refuses the payload with a typed
        // error, and its mirror decoder stays where it was.
        let catalog = Catalog::barcelona();
        let mut f1 = fog1();
        let mut gen = ReadingGenerator::for_population(SensorType::Traffic, 20, 4);
        f1.ingest_wave(gen.wave(0), 1, &catalog).unwrap();
        let batch = f1.flush(900, &catalog).unwrap();
        let mut f2 = F2cNode::fog2(
            0,
            FlushPolicy::plain(3600),
            RetentionPolicy::keep(7 * 86_400),
        )
        .unwrap();
        let payload = batch.payload.as_deref();
        assert_eq!(
            f2.decode_flush(0, 0, 1..=1, payload),
            Err(Error::Compression(f2c_compress::Error::ForeignSection {
                section: 0
            }))
        );
        let records = f2.decode_flush(0, 0, 0..=0, payload).unwrap();
        assert_eq!(records.len(), f1.store().pending_len());
        assert!(records
            .iter()
            .all(|r| (r.descriptor().district(), r.descriptor().section()) == (Some(0), Some(0))));
    }

    #[test]
    fn sketch_ledger_outlives_raw_retention() {
        let catalog = Catalog::barcelona();
        let mut node = fog1();
        let mut gen = ReadingGenerator::for_population(SensorType::Temperature, 30, 11);
        node.ingest_wave(gen.wave(0), 1, &catalog).unwrap();
        for now_s in [900, 2 * 86_400, 40 * 86_400] {
            node.flush(now_s, &catalog).unwrap();
            node.commit_flush(now_s);
            match now_s {
                // Two days on: raw retention (1 day) has evicted the
                // records, the ledger still covers the window.
                172_800 => {
                    assert!(node.store().evicted_before_s() > 900, "raw is gone");
                    assert!(node.sketches().covers(0, 0, 900), "the sketch survives");
                }
                // Far past the sketch horizon the ledger compacts too.
                3_456_000 => assert!(!node.sketches().covers(0, 0, 900)),
                _ => {}
            }
        }
    }

    #[test]
    fn a_refused_flush_leaves_the_node_as_it_was() {
        let catalog = Catalog::barcelona();
        let mut node = fog1();
        let mut gen = ReadingGenerator::for_population(SensorType::Traffic, 40, 9);
        for w in 0..3u64 {
            node.ingest_wave(gen.wave(w * 900), w * 900 + 1, &catalog)
                .unwrap();
        }
        let refused = node.flush(2_700, &catalog).unwrap();
        let pending = node.store().pending_len();
        node.rollback_flush();
        assert_eq!(node.store().pending_len(), pending);
        assert!(node.sketches().is_empty(), "nothing folded");
        assert_eq!(node.sketches().sealed_through(0), 0, "nothing sealed");
        // The flush is repeatable bit for bit: the codec's dictionary
        // did not advance past the refused payload.
        let again = node.flush(2_700, &catalog).unwrap();
        assert_eq!(again.payload, refused.payload);
        assert_eq!(again.sketches, refused.sketches);
        assert_eq!(again.seals, refused.seals);
        node.commit_flush(2_700);
        assert!(node.sketches().covers(0, 0, 2_700));
        assert_eq!(node.store().pending_len(), 0);
        // Committed, the stream moves on in step with a mirror decoder
        // that decodes the same payloads to what the node stored.
        let mut decoder = tsenc::StreamDecoder::new();
        node.ingest_wave(gen.wave(2_700), 2_701, &catalog).unwrap();
        let next = node.flush(3_600, &catalog).unwrap();
        let mut shipped = Vec::new();
        for batch in [&again, &next] {
            let payload = batch.payload.as_deref().unwrap();
            shipped.extend(decoder.decode_batch(payload).unwrap());
        }
        let key = |r: &Reading| (r.timestamp_s(), r.sensor().index());
        let mut stored: Vec<Reading> = node
            .store()
            .archive()
            .iter()
            .map(|r| r.reading().clone())
            .collect();
        shipped.sort_by_key(key);
        stored.sort_by_key(key);
        assert_eq!(shipped, stored);
    }

    /// The fog-1 fold as it was: one map probe per record.
    fn fold_per_record(
        records: &[DataRecord],
        own: u16,
        ledger: &SketchLedger,
    ) -> BTreeMap<SketchKey, AggPartial> {
        let mut folded: BTreeMap<SketchKey, AggPartial> = BTreeMap::new();
        for rec in records {
            folded
                .entry(sketch_key(rec, own, ledger))
                .or_default()
                .absorb(
                    rec.reading().value().magnitude(),
                    rec.reading().sensor().seed_material(),
                );
        }
        folded
    }

    proptest::proptest! {
        #[test]
        fn folding_runs_ships_what_folding_records_did(
            // Runs of records sharing a key, as a flush batch holds them,
            // with keys that come back after other runs: (section or the
            // node's own, type, sensor, second, value, run length).
            runs in proptest::collection::vec(
                (0u16..4, 0usize..3, 0u32..6, 0u64..2_700, -900i64..900, 1usize..30),
                0..40,
            ),
        ) {
            let ledger = SketchLedger::with_bucket(SKETCH_BUCKET);
            let types = [SensorType::Temperature, SensorType::Traffic, SensorType::Weather];
            let mut records = Vec::new();
            for &(section, ty, idx, t, v, len) in &runs {
                for i in 0..len {
                    let value = match types[ty] {
                        SensorType::Traffic => scc_sensors::Value::Counter(v.unsigned_abs() + i as u64),
                        SensorType::Weather => scc_sensors::Value::Composite(vec![v, i as i64]),
                        _ => scc_sensors::Value::Scalar(v - i as i64),
                    };
                    let sensor = scc_sensors::SensorId::new(types[ty], idx + i as u32 % 3);
                    let mut rec = DataRecord::from_reading(Reading::new(sensor, t, value));
                    if section > 0 {
                        rec.set_location(0, section);
                    }
                    records.push(rec);
                }
            }
            let ours = fold_runs(&records, 0, &ledger);
            let model = fold_per_record(&records, 0, &ledger);
            proptest::prop_assert_eq!(ours.len(), model.len());
            for ((key, partial), (model_key, model_partial)) in ours.iter().zip(&model) {
                proptest::prop_assert_eq!(key, model_key);
                proptest::prop_assert_eq!(partial.encode(), model_partial.encode());
            }
        }
    }

    #[test]
    fn labels_and_accessors() {
        let node = fog1();
        assert_eq!(node.label(), "fog1/d0/s0");
        assert_eq!(node.layer, Layer::Fog1);
        assert_eq!(node.section, Some(0));
        assert!(node.acquisition.is_some());
    }
}
