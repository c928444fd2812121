//! An F2C node: one box of Fig. 5, hosting the DLC phases appropriate to
//! its layer. Fog-1 nodes run the acquisition block over their section's
//! sensors and keep a short-retention tier; fog-2 nodes combine their
//! children's flushes in a medium tier; the cloud runs preservation
//! (classification + permanent archive).
//!
//! Every node also rides the **sketch plane**: a fog-1 flush folds its
//! batch into per-`(section, type, bucket)` [`AggPartial`]s and ships the
//! CRC-protected encodings upward *alongside* the raw records; fog-2 and
//! the cloud fold the incoming shipments into their own
//! [`SketchLedger`]s (and fog-2 relays them on its next flush) instead
//! of ever re-scanning raw records for aggregate state. The ledgers
//! outlive raw retention by design — that is what lets the query planner
//! answer aggregate windows fog 1 has already evicted.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::btree_map::Entry as Slot;
use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroU64;

use f2c_aggregate::sketch::{AggPartial, SketchKey, SketchLedger};
use f2c_compress::tsenc;
use scc_dlc::acquisition::AcquisitionBlock;
use scc_dlc::phase::{Phase, PhaseContext};
use scc_dlc::preservation::ClassificationPhase;
use scc_dlc::DataRecord;
use scc_sensors::{Catalog, Reading, SensorType};

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
}

/// Aggregation bucket width of every node's sketch ledger (matches the
/// query engine's default bucket so flush-shipped partials line up with
/// serving-time bucket keys).
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
    /// The shipped records.
    pub records: Vec<DataRecord>,
    /// Table-I accounting bytes (Σ per-type transaction sizes): the
    /// ground truth every hop meters.
    pub acct_bytes: u64,
    /// The encoded shipment itself (`f2c_compress::tsenc` stream),
    /// present when the policy compresses. The receiver decodes it with
    /// its per-child stream decoder and verifies it against `records` —
    /// a live end-to-end proof of decode equality on every flush.
    pub payload: Option<Vec<u8>>,
    /// Pre-folded bucket partials shipped alongside the records (wire
    /// encoded, CRC-protected), sorted by key for determinism.
    pub sketches: Vec<(SketchKey, Vec<u8>)>,
    /// Per-section seal frontiers this shipment advances at the parent:
    /// everything of that section created before the frontier has been
    /// shipped (and folded) by now. Carried even when no records are due
    /// so idle sections still seal.
    pub seals: Vec<(u16, u64)>,
    /// Coverage holes relayed upward: buckets whose partial was refused
    /// as corrupt somewhere below, so no tier above may ever prove them
    /// complete from its ledger.
    pub holes: Vec<SketchKey>,
}

impl FlushBatch {
    /// Bytes that actually cross the uplink: the payload's length when
    /// compression is on, accounting bytes otherwise (the paper's Table I
    /// accounts transaction sizes, Fig. 7 adds compression).
    pub fn uplink_bytes(&self) -> u64 {
        self.compressed_bytes().unwrap_or(self.acct_bytes)
    }

    /// Compressed size of the shipped payload, when the policy
    /// compresses.
    pub fn compressed_bytes(&self) -> Option<u64> {
        self.payload.as_ref().map(|p| p.len() as u64)
    }

    /// Wire-text size of the batch (Σ `DataRecord::wire_len`), sized on
    /// demand: reports compare it to the compressed size, no hop reads it.
    pub fn wire_bytes(&self) -> u64 {
        self.records.iter().map(DataRecord::wire_len).sum()
    }

    /// Total wire bytes of the encoded partials (the sketch channel's
    /// cost, reported next to `acct_bytes` by the benches).
    pub(crate) fn sketch_bytes(&self) -> u64 {
        self.sketches.iter().map(|(_, b)| b.len() as u64).sum()
    }

    /// An empty batch.
    pub(crate) fn empty() -> Self {
        Self {
            records: Vec::new(),
            acct_bytes: 0,
            payload: None,
            sketches: Vec::new(),
            seals: Vec::new(),
            holes: Vec::new(),
        }
    }
}

/// One node of the F2C hierarchy.
#[derive(Debug)]
pub struct F2cNode {
    label: String,
    layer: Layer,
    section: Option<u16>,
    acquisition: Option<AcquisitionBlock>,
    classification: Option<ClassificationPhase>,
    store: TieredStore,
    flush_policy: FlushPolicy,
    /// The node's slice of the sketch plane: bucketed aggregate partials
    /// that survive raw-record eviction.
    sketches: SketchLedger,
    /// Fog-2 only: decoded partials received since the last flush,
    /// merged per key, awaiting upward relay (BTreeMap so the relayed
    /// order is deterministic).
    sketch_relay: BTreeMap<SketchKey, AggPartial>,
    /// Fog-2 only: seal frontiers received since the last flush,
    /// awaiting upward relay.
    seal_relay: BTreeMap<u16, u64>,
    /// Fog-2 only: coverage holes (local refusals + relayed ones)
    /// awaiting upward relay (BTreeSet for deterministic order).
    hole_relay: BTreeSet<SketchKey>,
    /// Node-local flush sequence number, stamped on ledger folds for
    /// observability (which flush last touched a bucket). Staleness
    /// *proofs* never read it — they use the seal and pending frontiers.
    flush_seq: u64,
    /// The upward flush stream's codec state (used when the policy
    /// compresses): a sensor dictionary that persists across
    /// consecutive flushes, so steady-state batches code each sensor as
    /// a small dense integer. Advances only when a batch actually
    /// ships — a deferred wave (chaos gate) never touches it, which is
    /// what keeps it in lock-step with the parent's mirror decoder.
    codec: tsenc::StreamEncoder,
    /// Per-child mirror decoders (fog-2: keyed by child section; cloud:
    /// keyed by district), advancing exactly once per received payload.
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
            classification: None,
            store: TieredStore::new(retention),
            flush_policy,
            sketches: SketchLedger::with_bucket(SKETCH_BUCKET),
            sketch_relay: BTreeMap::new(),
            seal_relay: BTreeMap::new(),
            hole_relay: BTreeSet::new(),
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
        Ok(Self {
            label: format!("fog2/d{district}"),
            layer: Layer::Fog2,
            section: None,
            acquisition: None,
            classification: None,
            store: TieredStore::new(retention),
            flush_policy: flush_policy.validated()?,
            sketches: SketchLedger::with_bucket(SKETCH_BUCKET),
            sketch_relay: BTreeMap::new(),
            seal_relay: BTreeMap::new(),
            hole_relay: BTreeSet::new(),
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
            classification: Some(ClassificationPhase::new()),
            store: TieredStore::permanent(),
            flush_policy: FlushPolicy::plain(86_400),
            sketches: SketchLedger::with_bucket(SKETCH_BUCKET),
            sketch_relay: BTreeMap::new(),
            seal_relay: BTreeMap::new(),
            hole_relay: BTreeSet::new(),
            flush_seq: 0,
            codec: tsenc::StreamEncoder::new(),
            decoders: BTreeMap::new(),
        }
    }

    /// The node's label.
    pub fn label(&self) -> &str {
        &self.label
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

    /// Folds a shipment of encoded bucket partials (CRC-verified — a
    /// corrupt one is counted in the ledger, punches a permanent
    /// coverage hole at its bucket, and is never merged) and applies
    /// the accompanying seal frontiers and relayed holes. The seal may
    /// still advance past a refused bucket: the hole is what keeps
    /// [`SketchLedger::covers`] honest there, so a lost shipment
    /// degrades availability for exactly the damaged bucket — never
    /// correctness. Fog-2 nodes queue partials, seals *and* holes for
    /// upward relay on their next flush. Returns how many partials were
    /// refused as corrupt.
    pub(crate) fn receive_sketches(
        &mut self,
        sketches: &[(SketchKey, Vec<u8>)],
        seals: &[(u16, u64)],
        holes: &[SketchKey],
    ) -> u64 {
        let mut refused = 0;
        for (key, bytes) in sketches {
            // One decode: the ledger verifies the CRC; a corrupt shipment
            // is counted (and holed) there and merged nowhere.
            let Ok(partial) = self.sketches.decode_shipped(*key, bytes) else {
                refused += 1;
                if self.layer == Layer::Fog2 {
                    self.hole_relay.insert(*key);
                }
                continue;
            };
            if self.layer != Layer::Fog2 {
                // Nothing relays from here: the ledger takes the partial.
                self.sketches.fold_owned(*key, partial, self.flush_seq);
                continue;
            }
            self.sketches.fold(*key, &partial, self.flush_seq);
            match self.sketch_relay.entry(*key) {
                Slot::Occupied(relayed) => relayed.into_mut().merge(&partial),
                // Taking the partial is merging it into an empty one, bit
                // for bit: an empty sum is +0.0, and +0.0 + x is x for
                // every x but -0.0, a sum no partial absorbed from
                // `Moments::empty()` can reach (in round-to-nearest a sum
                // is -0.0 only when both addends are). Extremes merged
                // into empty ones come back as they were, since a min is
                // at most its max and no magnitude is -0.0, and so do
                // registers (`a_moved_partial_is_one_merged_into_an_empty_one`
                // in the ledger's tests).
                Slot::Vacant(slot) => {
                    slot.insert(partial);
                }
            }
        }
        for &hole in holes {
            self.sketches.mark_hole(hole);
            if self.layer == Layer::Fog2 {
                self.hole_relay.insert(hole);
            }
        }
        for &(section, through_s) in seals {
            self.sketches.seal(section, through_s);
            if self.layer == Layer::Fog2 {
                let slot = self.seal_relay.entry(section).or_insert(0);
                *slot = (*slot).max(through_s);
            }
        }
        refused
    }

    /// Installs an authoritative re-shipped partial over a coverage hole
    /// (the anti-entropy heal path): CRC-verified, *replaces* whatever
    /// fragment the ledger holds for the bucket — the shipper's own
    /// ledger entry is the full fold for its section, so merging would
    /// double-count — and clears the hole. Returns whether a hole was
    /// actually cleared; a heal below the compaction watermark or a
    /// corrupt re-shipment leaves the ledger untouched and returns
    /// `false`.
    pub(crate) fn heal_sketch(&mut self, key: SketchKey, bytes: &[u8]) -> bool {
        self.sketches
            .heal_encoded(key, bytes, self.flush_seq)
            .unwrap_or(false)
    }

    /// Drops any partial queued for upward relay at `key` (fog-2 only;
    /// a no-op elsewhere). Called after an anti-entropy heal shipped
    /// this node's full current fold upward: the queued increment is
    /// subsumed by it, and relaying it afterwards would double-count at
    /// the parent.
    pub(crate) fn drop_queued_relay(&mut self, key: &SketchKey) {
        self.sketch_relay.remove(key);
    }

    /// Applies the sketch-horizon compaction that [`F2cNode::flush`]
    /// runs for fog nodes. The cloud never flushes (it has no parent),
    /// so without this its ledger — and its coverage-hole set — would
    /// grow without bound; [`crate::F2cCity::flush_due`] calls it on
    /// the cloud every wave. Returns how many bucket entries were
    /// dropped; holes below the watermark retire with them.
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
        })
    }

    /// Receives one flush wave: the verified shipments of this node's
    /// children, in shipment order, stored as one merge into the local
    /// run and queued for the next hop as they arrived. At the cloud each
    /// shipment additionally passes classification (versioning/lineage),
    /// shipment by shipment, before the permanent archive, per §IV.B.
    pub(crate) fn receive_wave(
        &mut self,
        shipments: impl IntoIterator<Item = Vec<DataRecord>>,
        now_s: u64,
    ) {
        let ctx = PhaseContext::at(now_s);
        let classification = &mut self.classification;
        self.store
            .insert_runs(shipments.into_iter().map(|records| match classification {
                Some(phase) => phase.run(records, &ctx),
                None => records,
            }));
    }

    /// Verifies one flush shipment from the child stream `origin`
    /// (fog-2: the child's section; cloud: the shipping district) before
    /// it joins the wave [`F2cNode::receive_wave`] stores.
    ///
    /// When the shipment carries an encoded payload, the stream's
    /// mirror decoder decodes its columns and verifies them against the
    /// plainly-shipped records, reading-for-reading and in place — every
    /// flush is a live decode-equality proof, and the decoder's
    /// dictionary advances in lock-step with the child's encoder.
    ///
    /// # Errors
    ///
    /// Decode failures ([`Error::Compression`]) or a decoded batch that
    /// disagrees with the shipped records ([`Error::CodecMismatch`]).
    pub(crate) fn verify_flush(
        &mut self,
        origin: u16,
        payload: Option<&[u8]>,
        records: &[DataRecord],
    ) -> Result<()> {
        if let Some(bytes) = payload {
            let decoder = self.decoders.entry(origin).or_default();
            if !decoder.verify_batch(bytes, records)? {
                return Err(Error::CodecMismatch { origin });
            }
        }
        Ok(())
    }

    /// Takes the records due for upward shipping at `now_s` and packages
    /// them as a [`FlushBatch`] (compressing if the policy says so), then
    /// applies retention eviction — to the raw archive *and*, on the
    /// much longer sketch horizon, to the ledger.
    ///
    /// The batch also carries the sketch plane's shipment: a fog-1 node
    /// folds the batch into per-`(section, type, bucket)` partials
    /// (merged into its own ledger, then wire-encoded for the parent)
    /// and seals its section through `now_s`; a fog-2 node relays the
    /// partials and seals received from its children since the previous
    /// flush. An empty batch still ships its seals, so idle sections
    /// keep their parents' frontiers moving.
    ///
    /// # Errors
    ///
    /// Propagates compression failures.
    pub fn flush(&mut self, now_s: u64, catalog: &Catalog) -> Result<FlushBatch> {
        let records = self.store.take_flush_batch(now_s);
        self.store.evict_expired(now_s);
        self.flush_seq += 1;
        let (folded, seals, holes) = match self.layer {
            Layer::Fog1 => {
                let own = self.section.unwrap_or(0);
                let folded = fold_runs(&records, own, &self.sketches);
                // Copied, not moved, into the ledger: a copy is sized to
                // its registers, and the ledger keeps it for a month.
                for (key, partial) in &folded {
                    self.sketches.fold(*key, partial, self.flush_seq);
                }
                self.sketches.seal(own, now_s);
                // Fog 1 folds locally: its own shipments cannot have
                // been refused, so it never originates holes.
                (folded, vec![(own, now_s)], Vec::new())
            }
            Layer::Fog2 => (
                std::mem::take(&mut self.sketch_relay),
                std::mem::take(&mut self.seal_relay).into_iter().collect(),
                std::mem::take(&mut self.hole_relay).into_iter().collect(),
            ),
            // The cloud has no parent; nothing to ship.
            Layer::Cloud => (BTreeMap::new(), Vec::new(), Vec::new()),
        };
        if self.layer != Layer::Cloud {
            self.sketches
                .evict_older_than(now_s.saturating_sub(SKETCH_RETENTION_S));
        }
        let sketches: Vec<(SketchKey, Vec<u8>)> = folded
            .into_iter()
            .map(|(key, partial)| (key, partial.encode()))
            .collect();
        if records.is_empty() {
            return Ok(FlushBatch {
                sketches,
                seals,
                holes,
                ..FlushBatch::empty()
            });
        }
        let acct_bytes = acct_bytes_of(records.iter().map(DataRecord::sensor_type), catalog);
        // The shipped payload rides the columnar time-series codec, not
        // byte-oriented DEFLATE of the wire text: the stream encoder's
        // sensor dictionary persists across this node's flushes, so the
        // parent's mirror decoder must see every payload exactly once,
        // in order — guaranteed because a deferred wave never reaches
        // this point (the chaos gate runs before `flush()`). The codec
        // reads the readings where they sit, inside the records.
        let payload = if self.flush_policy.compress {
            Some(self.codec.encode_batch(&records)?)
        } else {
            None
        };
        Ok(FlushBatch {
            records,
            acct_bytes,
            payload,
            sketches,
            seals,
            holes,
        })
    }
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
    use scc_sensors::ReadingGenerator;

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
        assert!(!batch.records.is_empty());
        assert_eq!(
            batch.acct_bytes,
            batch.records.len() as u64 * 22,
            "temperature rows are 22 B in Table I"
        );
        let compressed = batch.compressed_bytes().expect("policy compresses");
        assert!(compressed < batch.wire_bytes());
        assert_eq!(batch.uplink_bytes(), compressed);
        // Second flush at the same instant ships nothing.
        let again = node.flush(3600, &catalog).unwrap();
        assert!(again.records.is_empty());
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
        let n = batch.records.len();
        cloud
            .verify_flush(0, batch.payload.as_deref(), &batch.records)
            .unwrap();
        cloud.receive_wave([batch.records], 86_400);
        assert_eq!(cloud.store().len(), n);
        assert_eq!(cloud.layer, Layer::Cloud);
        // Cloud never evicts.
        let mut cloud2 = F2cNode::cloud();
        cloud2.receive_wave([Vec::new()], 0);
        assert!(cloud2.store().is_empty());
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
        assert_eq!(shipped, batch.records.len() as u64);
        assert!(node.sketches().covers(0, 0, 2_700));
        // An idle follow-up flush still advances the seal frontier.
        let idle = node.flush(3_600, &catalog).unwrap();
        assert!(idle.records.is_empty() && idle.sketches.is_empty());
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
        assert_eq!(f2.receive_sketches(&batch.sketches, &batch.seals, &[]), 0);
        f2.verify_flush(0, batch.payload.as_deref(), &batch.records)
            .unwrap();
        f2.receive_wave([batch.records.clone()], 1_800);
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
        assert_eq!(folded, batch.records.len() as u64);
        // The next fog-2 flush relays the same partials (and seals) to
        // the cloud.
        let relay = f2.flush(3_600, &catalog).unwrap();
        assert_eq!(relay.sketches.len(), shipped);
        assert_eq!(relay.seals, vec![(0, 1_800)]);
        let mut cloud = F2cNode::cloud();
        assert_eq!(
            cloud.receive_sketches(&relay.sketches, &relay.seals, &[]),
            0
        );
        assert_eq!(cloud.sketches().sealed_through(0), 1_800);
    }

    #[test]
    fn corrupt_shipments_are_refused_and_counted() {
        let catalog = Catalog::barcelona();
        let mut f1 = fog1();
        let mut gen = ReadingGenerator::for_population(SensorType::Temperature, 10, 3);
        f1.ingest_wave(gen.wave(0), 1, &catalog).unwrap();
        let mut batch = f1.flush(900, &catalog).unwrap();
        let mid = batch.sketches[0].1.len() / 2;
        batch.sketches[0].1[mid] ^= 0xFF;
        let mut f2 = F2cNode::fog2(
            0,
            FlushPolicy::plain(3600),
            RetentionPolicy::keep(7 * 86_400),
        )
        .unwrap();
        let refused = f2.receive_sketches(&batch.sketches, &batch.seals, &[]);
        assert_eq!(refused, 1, "exactly the corrupted shipment is refused");
        assert_eq!(f2.sketches().len(), batch.sketches.len() - 1);
        assert_eq!(f2.sketches().crc_failures(), 1);
        // The seal still advanced, but the refused bucket is a coverage
        // hole: the ledger must never "prove" the damaged window, and
        // the hole relays to the cloud so no tier above proves it
        // either.
        let damaged = batch.sketches[0].0;
        assert_eq!(f2.sketches().sealed_through(0), 900);
        assert!(!f2.sketches().covers(
            damaged.section,
            damaged.bucket_start_s,
            damaged.bucket_start_s + 900
        ));
        let relay = f2.flush(3_600, &catalog).unwrap();
        assert_eq!(relay.holes, vec![damaged]);
        let mut cloud = F2cNode::cloud();
        cloud.receive_sketches(&relay.sketches, &relay.seals, &relay.holes);
        assert!(!cloud.sketches().covers(
            damaged.section,
            damaged.bucket_start_s,
            damaged.bucket_start_s + 900
        ));
    }

    #[test]
    fn sketch_ledger_outlives_raw_retention() {
        let catalog = Catalog::barcelona();
        let mut node = fog1();
        let mut gen = ReadingGenerator::for_population(SensorType::Temperature, 30, 11);
        node.ingest_wave(gen.wave(0), 1, &catalog).unwrap();
        node.flush(900, &catalog).unwrap();
        // Two days on: raw retention (1 day) has evicted the records,
        // the ledger still covers the window.
        node.flush(2 * 86_400, &catalog).unwrap();
        assert!(node.store().evicted_before_s() > 900, "raw is gone");
        assert!(node.sketches().covers(0, 0, 900), "the sketch survives");
        // Far past the sketch horizon the ledger compacts too.
        node.flush(40 * 86_400, &catalog).unwrap();
        assert!(!node.sketches().covers(0, 0, 900));
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
            let city: std::sync::Arc<str> = "Barcelona".into();
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
                        rec.descriptor_mut().set_location(city.clone(), 0, section);
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
        assert!(node.flush_policy.aggregate);
    }
}
