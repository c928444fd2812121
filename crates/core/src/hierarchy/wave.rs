//! How a shipment crosses a hop: the flush wave, each hop's chaos gate
//! and in-flight damage, and the receiver's landing, which ACKs a
//! shipment whole or NACKs it back to its sender.

use std::ops::RangeInclusive;

use citysim::barcelona::{BarcelonaTopology, DISTRICTS};
use citysim::time::SimTime;
use citysim::{Network, NodeId};
use f2c_obs::Site;
use scc_sensors::Catalog;

use super::{CityMetricIds, F2cCity};
use crate::incident::{ChaosSite, IncidentKind};
use crate::node::{F2cNode, FlushBatch};
use crate::shard::{run_shards, ObsScratch, ShipmentRecord};
use crate::{Error, Result};

impl F2cCity {
    /// `F2cCity::flush_due` of both tiers, whatever the nodes' flush
    /// periods: how the warm-up, the query loop and the benchmark flush.
    ///
    /// # Errors
    ///
    /// A failure that is no injected fault — a batch over the encoder's
    /// size limit, or an undamaged payload that names a section outside
    /// its sender's — first in district order, once the wave has run to
    /// its end.
    pub fn flush_all(&mut self, now_s: u64) -> Result<(u64, u64)> {
        self.flush_due(now_s, true, true)
    }

    /// Flushes the due tiers over the metered network — every fog-1 node
    /// to its parent when `fog1` is set, every fog-2 node to the cloud
    /// when `fog2` is — then compacts the cloud's ledger and evaluates
    /// the alerts. Returns the accounting bytes landed at each tier.
    ///
    /// Every hop first passes the chaos gate: a crashed child, an
    /// unreachable parent or a lost shipment defers the child's turn
    /// (its batch is never encoded). An encoded batch may then be
    /// damaged in flight: one encoded partial, or the record payload. A
    /// shipment lands whole or not at all: the receiver ACKs it once it
    /// has arrived and every partial and its payload decoded, and only
    /// then do the sender and the receiver commit it; the receiver
    /// stores the records it decoded. A lost message or a damaged
    /// partial or payload is a NACK, and the records stay queued at the
    /// sender to re-ship merged with the next batch. Every deferral and
    /// NACK is an incident against its child on the timeline, never an
    /// error for the wave.
    ///
    /// The wave runs sharded by district on [`F2cCity::parallelism`]
    /// workers: phase A (fog-1 → fog-2) is fully district-local and each
    /// shard buffers its metering, spans and incidents in an
    /// [`ObsScratch`]; phase B gates, takes and damages each district's
    /// batch in parallel, then the cloud lands them and answers each
    /// sender at the coordinator. Both phases merge in canonical
    /// district order, and sections are district-contiguous, so the
    /// byte streams (traces, incidents, meter, snapshots) are those of
    /// a plain section-order loop at every thread count.
    ///
    /// # Errors
    ///
    /// A failure that is no injected fault — a batch over the encoder's
    /// size limit, or an undamaged payload that names a section outside
    /// its sender's — first in district order. The failing shipment is
    /// rolled back and the rest of the wave still runs.
    pub(crate) fn flush_due(&mut self, now_s: u64, fog1: bool, fog2: bool) -> Result<(u64, u64)> {
        self.flush_epoch += 1;
        self.metrics.inc(self.ids.flush_waves);
        let epoch = self.flush_epoch;
        let threads = self.parallelism;
        let capture = self.capture_shipments;
        let (mut fog1_bytes, mut fog2_bytes) = (0, 0);
        let mut failed = None;
        if fog1 {
            // Phase A: one shard per district, owning the district's fog-1
            // slice and its fog-2 node.
            let city = &self.city;
            let catalog = &self.catalog;
            let mut rest: &mut [F2cNode] = &mut self.fog1;
            let mut shards: Vec<FlushShard<'_>> = Vec::with_capacity(self.fog2.len());
            let mut base = 0usize;
            for (d, fog2) in self.fog2.iter_mut().enumerate() {
                let (head, tail) = rest.split_at_mut(DISTRICTS[d].1);
                rest = tail;
                shards.push(FlushShard {
                    base,
                    fog1: head,
                    receiver: Receiver::new(Hop::Fog2(d), fog2),
                    landed: Ok(0),
                });
                base += DISTRICTS[d].1;
            }
            run_shards(threads, &mut shards, |_, shard| {
                let (base, hop) = (shard.base, shard.receiver.hop);
                let turns = shard.fog1.iter_mut().enumerate().map(|(k, child)| {
                    let turn = Shipment::take(city, hop, base + k, child, catalog, epoch, now_s);
                    (base + k, child, turn)
                });
                shard.landed = shard.receiver.land(city, capture, now_s, turns);
            });
            // Drop the node borrows, then absorb in district order.
            let results: Vec<(ObsScratch, Result<u64>)> = shards
                .into_iter()
                .map(|s| (s.receiver.obs, s.landed))
                .collect();
            for (mut obs, landed) in results {
                self.absorb_scratch(&mut obs);
                fog1_bytes += landed.unwrap_or_else(|e| {
                    failed.get_or_insert(e);
                    0
                });
            }
        }
        if fog2 {
            // Phase B: gate + take + in-flight damage per district in
            // parallel; the cloud lands the turns at the coordinator, in
            // district order, and answers each fog-2 sender.
            let city = &self.city;
            let catalog = &self.catalog;
            let mut cloud_shards: Vec<(&mut F2cNode, Option<Result<Shipment>>)> =
                self.fog2.iter_mut().map(|fog2| (fog2, None)).collect();
            run_shards(threads, &mut cloud_shards, |d, (fog2, turn)| {
                *turn = Some(Shipment::take(
                    city,
                    Hop::Cloud,
                    d,
                    fog2,
                    catalog,
                    epoch,
                    now_s,
                ));
            });
            let turns = cloud_shards
                .into_iter()
                .enumerate()
                .filter_map(|(d, (fog2, turn))| Some((d, fog2, turn?)));
            let mut cloud = Receiver::new(Hop::Cloud, &mut self.cloud);
            let landed = cloud.land(&self.city, capture, now_s, turns);
            let mut obs = cloud.obs;
            self.absorb_scratch(&mut obs);
            fog2_bytes = landed.unwrap_or_else(|e| {
                failed.get_or_insert(e);
                0
            });
        }
        // The cloud never flushes (no parent), so the wave runs its
        // sketch-horizon compaction here — otherwise its ledger would
        // grow for the lifetime of the deployment.
        let now_us = now_s * 1_000_000;
        let compact = self.tracer.open(Site::cloud(), "sketch-compact", now_us);
        self.cloud.compact_sketches(now_s);
        self.tracer.close(compact, now_us);
        // Every flush instant is also an alert evaluation instant, so
        // the burn-rate monitor sees one schedule under every driver.
        self.evaluate_alerts(now_s);
        failed.map_or(Ok((fog1_bytes, fog2_bytes)), Err)
    }
}

/// The receiving end of a tier crossing: what the landing needs to know
/// about a hop, so both hops run one code path.
#[derive(Debug, Clone, Copy)]
enum Hop {
    /// Fog 1 → the fog-2 node of a district (by index); the child
    /// streams are its sections.
    Fog2(usize),
    /// Fog 2 → the cloud; the child streams are the districts.
    Cloud,
}

impl Hop {
    /// Index into the per-hop counter pairs (`0` = fog-1 → fog-2).
    fn index(self) -> usize {
        match self {
            Hop::Fog2(_) => 0,
            Hop::Cloud => 1,
        }
    }

    /// The receiver's trace site.
    fn site(self) -> Site {
        match self {
            Hop::Fog2(d) => Site::new("fog2", d as u32),
            Hop::Cloud => Site::cloud(),
        }
    }

    /// The receiver's network node.
    fn node(self, city: &BarcelonaTopology) -> NodeId {
        match self {
            Hop::Fog2(d) => city.fog2_nodes()[d],
            Hop::Cloud => city.cloud(),
        }
    }

    /// The network node and chaos site of child stream `origin`.
    fn child(self, city: &BarcelonaTopology, origin: usize) -> (NodeId, ChaosSite) {
        match self {
            Hop::Fog2(_) => (city.fog1_nodes()[origin], ChaosSite::Fog1(origin)),
            Hop::Cloud => (city.fog2_nodes()[origin], ChaosSite::Fog2(origin)),
        }
    }

    /// Where child stream `origin`'s records were acquired: its
    /// district, and the sections it may name — a fog-1 child its own,
    /// a fog-2 child its district's (sections are district-contiguous).
    fn sender(self, origin: usize) -> (u16, RangeInclusive<u16>) {
        match self {
            Hop::Fog2(d) => (d as u16, origin as u16..=origin as u16),
            Hop::Cloud => {
                let first: usize = DISTRICTS[..origin].iter().map(|&(_, n)| n).sum();
                let last = first + DISTRICTS[origin].1 - 1;
                (origin as u16, first as u16..=last as u16)
            }
        }
    }
}

/// Gate one flush hop through the chaos plane. `Some(kind)` means the
/// child's turn is deferred: its `flush()` is never called, so its
/// records stay *pending* in its store and the completeness frontiers
/// above it honestly lag — deferral degrades availability, never
/// correctness.
fn flush_gate(
    net: &Network,
    from: NodeId,
    to: NodeId,
    epoch: u64,
    now_s: u64,
) -> Option<IncidentKind> {
    let at = SimTime::from_secs(now_s);
    let failures = net.failures();
    if failures.node_is_down(from, at) {
        return Some(IncidentKind::NodeDown);
    }
    if !net.path_is_up(from, to, at) {
        return Some(IncidentKind::FlushBlocked);
    }
    failures
        .shipment_lost(from, epoch)
        .then_some(IncidentKind::ShipmentLost)
}

/// One child's turn in a flush wave, as its receiver lands it.
enum Shipment {
    /// The chaos gate deferred the child's wave.
    Deferred(IncidentKind),
    /// The child's batch, perhaps damaged in flight.
    Shipped(FlushBatch),
}

impl Shipment {
    /// Takes child stream `origin`'s turn on `hop`: the chaos gate, then
    /// the child's flush and the in-flight corruption coins. Reads no
    /// receiver state, so the cloud's turns run in parallel shards.
    ///
    /// # Errors
    ///
    /// The child's flush failed; it changed nothing.
    fn take(
        city: &BarcelonaTopology,
        hop: Hop,
        origin: usize,
        child: &mut F2cNode,
        catalog: &Catalog,
        epoch: u64,
        now_s: u64,
    ) -> Result<Self> {
        let net = city.network();
        let (from, _) = hop.child(city, origin);
        if let Some(kind) = flush_gate(net, from, hop.node(city), epoch, now_s) {
            return Ok(Shipment::Deferred(kind));
        }
        let mut batch = child.flush(now_s, catalog)?;
        corrupt_in_flight(net, &mut batch, from, epoch);
        Ok(Shipment::Shipped(batch))
    }
}

/// Draws the in-flight corruption coins for one encoded batch: the
/// payload coin flips a byte of the record payload, the sketch coin a
/// byte of one encoded partial. Each fails its own CRC at the receiver,
/// which NACKs the shipment.
fn corrupt_in_flight(net: &Network, batch: &mut FlushBatch, sender: NodeId, epoch: u64) {
    let failures = net.failures();
    if failures.payload_corrupted(sender, epoch) {
        if let Some(payload) = &mut batch.payload {
            flip_byte(payload);
        }
    }
    let damaged = failures.corrupted_sketch(sender, epoch, batch.sketches.len());
    if let Some((_, bytes)) = damaged.and_then(|idx| batch.sketches.get_mut(idx)) {
        flip_byte(bytes);
    }
}

/// Damages a wire encoding in flight: flips its middle byte. The middle
/// byte of a `tsenc` payload or of an encoded partial lies inside its
/// CRC-covered span, and CRC-32 catches every single-byte error, so the
/// damage never decodes.
fn flip_byte(bytes: &mut [u8]) {
    if let Some(byte) = bytes.get_mut(bytes.len() / 2) {
        *byte ^= 0xFF;
    }
}

/// The incident a NACK records against its sender, when the receiver
/// refused the shipment because of an injected fault: a message lost
/// on a link, a link that went down mid-transfer, or a partial or
/// payload whose CRC failed. `None` for every other failure, which is
/// the wave's error.
fn injected_fault(e: &Error) -> Option<IncidentKind> {
    match e {
        Error::Network(citysim::Error::MessageLost { .. }) => Some(IncidentKind::ShipmentLost),
        Error::Network(citysim::Error::LinkDown { .. }) => Some(IncidentKind::FlushBlocked),
        Error::Sketch(f2c_aggregate::Error::CorruptPartial { .. })
        | Error::Compression(f2c_compress::Error::ChecksumMismatch { .. }) => {
            Some(IncidentKind::ShipmentCorrupted)
        }
        _ => None,
    }
}

/// A receiving node — a district's fog 2 or the cloud — and the scratch
/// its side of a hop buffers observability in until the coordinator
/// absorbs it. Both hops land flush waves through it.
struct Receiver<'a> {
    hop: Hop,
    node: &'a mut F2cNode,
    obs: ObsScratch,
    ids: CityMetricIds,
}

impl<'a> Receiver<'a> {
    fn new(hop: Hop, node: &'a mut F2cNode) -> Self {
        let mut obs = ObsScratch::new();
        let ids = CityMetricIds::register(&mut obs.reg);
        Self {
            hop,
            node,
            obs,
            ids,
        }
    }

    /// Lands one flush wave: the children's turns in order, every turn
    /// to the end. The receiver ACKs a shipment, with or without
    /// records, only when it crossed the uplink (a shipment without
    /// records crosses no link), every encoded partial decodes and the
    /// payload decodes ([`F2cNode::decode_flush`]). An ACKed shipment
    /// lands whole — the decoded records stored, partials and seals
    /// folded, counted, tapped — and its sender commits. Otherwise the
    /// receiver NACKs it, nothing of it lands, and its sender rolls it
    /// back. The landed records are stored as one wave.
    /// Returns the accounting bytes of the landed shipments that carried
    /// records.
    ///
    /// # Errors
    ///
    /// The first turn that failed for a reason other than an injected
    /// fault (see [`injected_fault`]), after every turn has run.
    fn land<'n>(
        &mut self,
        city: &BarcelonaTopology,
        capture: bool,
        now_s: u64,
        turns: impl IntoIterator<Item = (usize, &'n mut F2cNode, Result<Shipment>)>,
    ) -> Result<u64> {
        let at = SimTime::from_secs(now_s);
        let now_us = now_s * 1_000_000;
        let net = city.network();
        let to = self.hop.node(city);
        let (site, h) = (self.hop.site(), self.hop.index());
        let turns = turns.into_iter();
        let mut landed = Vec::with_capacity(turns.size_hint().0);
        let mut failed = None;
        let mut bytes = 0;
        // One wave span per receiving node; member hops nest under it
        // and the wave closes at its slowest hop's arrival.
        let wave = self.obs.tracer.open(site, "flush-wave", now_us);
        let mut wave_end_us = now_us;
        let mut shipped = 0u64;
        for (origin, sender, turn) in turns {
            let (from, child) = self.hop.child(city, origin);
            let batch = match turn {
                Ok(Shipment::Shipped(batch)) => batch,
                Ok(Shipment::Deferred(kind)) => {
                    self.obs.record_incident(now_s, child, kind);
                    continue;
                }
                Err(e) => {
                    failed.get_or_insert(e);
                    continue;
                }
            };
            let crossed = if batch.payload.is_none() {
                Ok(None)
            } else {
                net.send_scratch(&mut self.obs.net, from, to, batch.uplink_bytes(), at)
                    .map(|delivery| Some(delivery.arrival.as_micros()))
                    .map_err(Error::from)
            };
            // The partials decode before the payload: a decoded payload
            // advances the per-child mirror decoder, so a refusal after
            // it would leave the two ends of the stream out of step.
            let answer = crossed.and_then(|arrival_us| {
                let partials = self.node.decode_sketches(&batch.sketches)?;
                let (district, sections) = self.hop.sender(origin);
                let payload = batch.payload.as_deref();
                let records = self
                    .node
                    .decode_flush(origin as u16, district, sections, payload)?;
                Ok((arrival_us, partials, records))
            });
            let (arrival_us, partials, records) = match answer {
                Ok(accepted) => accepted,
                Err(e) => {
                    match injected_fault(&e) {
                        Some(kind) => self.obs.record_incident(now_s, child, kind),
                        None => {
                            failed.get_or_insert(e);
                        }
                    }
                    sender.rollback_flush();
                    continue;
                }
            };
            // The sketch shipment (pre-folded partials + seal frontiers)
            // lands with the records — an idle section still seals. Its
            // bytes ride the flush envelope and are accounted on the
            // sketch channel, not against the Table-I ground truth the
            // traffic cross-validation reproduces.
            self.obs
                .reg
                .add(self.ids.sketch_flush_bytes[h], batch.sketch_bytes());
            self.obs
                .reg
                .add(self.ids.raw_flush_bytes[h], batch.acct_bytes);
            let fold = self.obs.tracer.open(site, "sketch-fold", now_us);
            self.node.receive_sketches(partials, &batch.seals);
            self.obs
                .tracer
                .close_with(fold, now_us, batch.sketches.len() as u64);
            sender.commit_flush(now_s);
            let Some(arrival_us) = arrival_us else {
                continue;
            };
            bytes += batch.acct_bytes;
            let hop = self.obs.tracer.open(site, "flush-hop", now_us);
            self.obs
                .tracer
                .close_with(hop, arrival_us, batch.acct_bytes);
            wave_end_us = wave_end_us.max(arrival_us);
            shipped += 1;
            self.obs
                .reg
                .add(self.ids.uplink_flush_bytes[h], batch.uplink_bytes());
            self.obs.reg.inc(self.ids.flush_batches);
            if capture {
                if let Some(payload) = batch.payload {
                    self.obs.shipments.push(ShipmentRecord {
                        hop: h as u8 + 1,
                        origin: origin as u16,
                        at_s: now_s,
                        payload,
                    });
                }
            }
            landed.push(records);
        }
        self.node.receive_wave(landed);
        self.obs.tracer.close_with(wave, wave_end_us, shipped);
        failed.map_or(Ok(bytes), Err)
    }
}

/// One district's phase-A flush shard: the district's fog-1 slice and
/// its fog-2 receiver.
struct FlushShard<'a> {
    /// Global section index of `fog1[0]` (sections are
    /// district-contiguous, so shard-local `k` is section `base + k`).
    base: usize,
    fog1: &'a mut [F2cNode],
    receiver: Receiver<'a>,
    landed: Result<u64>,
}
