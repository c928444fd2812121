//! How one store answers one query: point and range reads over the archive's
//! ranks, and aggregates folded from cached partials, the ledger or a scan.

use std::ops::Range;

use f2c_aggregate::sketch::SketchLedger;
use f2c_core::{F2cCity, TieredStore, SKETCH_BUCKET_S};
use scc_dlc::preservation::ArchiveStore;
use scc_dlc::DataRecord;
use scc_sensors::SensorType;

use super::FoldTally;
use crate::cache::{NodeKey, PartialCache, SeriesKey};
use crate::model::{
    absorb_record, AggAcc, AggPartial, AggState, PointSample, Query, QueryAnswer, Scope, Selector,
};

/// Latest matching observation, with canonical tie-breaking by sensor
/// identity at equal creation times so every complete source yields the
/// same point. The archive's type columns name the newest second `T*` in
/// the window at which a selected type reported; only the records *at*
/// `T*` are examined (stepping to the next older candidate when none of
/// them is in scope — a fog-2 store holds more sections than a section
/// query asks for). Returns the point and the records examined, which
/// price the read.
pub(super) fn scan_point(store: &TieredStore, query: &Query) -> (Option<PointSample>, u64) {
    let archive = store.archive();
    let w = query.window;
    let mut visited = 0u64;
    let mut before_s = w.until_s;
    while let Some(at_s) = latest_report(archive, query.selector, w.from_s, before_s) {
        let (_, at) = archive.created_at(at_s);
        // The largest identity wins; among repeats of one sensor, the
        // latest arrival.
        let mut best: Option<(u64, &DataRecord)> = None;
        for rec in at.flatten() {
            visited += 1;
            let seed = rec.reading().sensor().seed_material();
            if query.matches(rec) && best.is_none_or(|(s, _)| seed >= s) {
                best = Some((seed, rec));
            }
        }
        if let Some((_, rec)) = best {
            let point = PointSample {
                created_s: at_s,
                sensor: rec.reading().sensor(),
                value: rec.reading().value().magnitude(),
            };
            return (Some(point), visited);
        }
        before_s = at_s;
    }
    (None, visited)
}

/// The newest second in `[from_s, before_s)` at which any type the
/// selector covers has a stored record.
fn latest_report(
    archive: &ArchiveStore,
    selector: Selector,
    from_s: u64,
    before_s: u64,
) -> Option<u64> {
    match selector {
        Selector::Type(ty) => archive.latest_of_type(ty, from_s, before_s),
        Selector::Category(_) => SensorType::ALL
            .iter()
            .filter(|&&ty| selector.matches(ty))
            .filter_map(|&ty| archive.latest_of_type(ty, from_s, before_s))
            .max(),
    }
}

pub(super) fn execute_point(store: &TieredStore, query: &Query) -> (QueryAnswer, u64) {
    let (best, visited) = scan_point(store, query);
    (QueryAnswer::Point(best), visited)
}

pub(super) fn scan_range(store: &TieredStore, query: &Query) -> (Vec<DataRecord>, u64) {
    let w = query.window;
    let mut visited = 0u64;
    let mut out = Vec::new();
    for records in store.archive().range(w.from_s, w.until_s) {
        visited += records.len() as u64;
        for rec in records {
            if query.matches(rec) {
                out.push(rec.clone());
            }
        }
    }
    (out, visited)
}

pub(super) fn execute_range(store: &TieredStore, query: &Query) -> (QueryAnswer, u64) {
    let (out, visited) = scan_range(store, query);
    (QueryAnswer::Records(out), visited)
}

/// The sections of `query`'s scope whose records `node` can hold — the
/// decomposition the sketch plane keys its ledgers by. Always one run of
/// consecutive section indices, because a district's sections are
/// contiguous in the city's numbering.
fn scope_sections(city: &F2cCity, query: &Query, node: NodeKey) -> Range<u16> {
    let district = |d: usize| {
        let members = city.sections_in_district(d);
        debug_assert!(members.windows(2).all(|w| w[1] == w[0] + 1));
        let first = members.first().map_or(0, |&s| s as u16);
        first..first + members.len() as u16
    };
    match query.scope {
        Scope::Section(s) => s as u16..s as u16 + 1,
        Scope::District(d) => district(d),
        Scope::City => match node {
            // Only the cloud is ever a single source for a city window.
            NodeKey::Cloud => 0..city.section_count() as u16,
            NodeKey::Fog1(s) => s..s + 1,
            NodeKey::Fog2(d) => district(d as usize),
        },
    }
}

/// Per-window prefold context, computed once per [`fold_aggregate`]
/// call instead of once per bucket: the node's ledger, the scoped
/// sections, and the frontier up to which the ledger provably matches
/// the archive.
struct PrefoldCtx<'a> {
    ledger: &'a SketchLedger,
    sections: Range<u16>,
    /// Buckets ending past this cannot prefold. Fog-1 ledgers lag their
    /// pending queue (folds happen at flush), so there it is the pending
    /// frontier; fog-2/cloud ledgers fold at receive time and never lag
    /// their stores.
    settled_until_s: u64,
}

impl<'a> PrefoldCtx<'a> {
    /// The context for `query` at `node`.
    fn new(city: &'a F2cCity, store: &TieredStore, node: NodeKey, query: &Query) -> Self {
        let ledger = match node {
            NodeKey::Fog1(s) => city.fog1(s as usize).sketches(),
            NodeKey::Fog2(d) => city.fog2(d as usize).sketches(),
            NodeKey::Cloud => city.cloud().sketches(),
        };
        let settled_until_s = if matches!(node, NodeKey::Fog1(_)) {
            store.pending_earliest_s().unwrap_or(u64::MAX)
        } else {
            u64::MAX
        };
        Self {
            ledger,
            sections: scope_sections(city, query, node),
            settled_until_s,
        }
    }

    /// Assembles one closed bucket from the ledger — the flush-shipped
    /// pre-folded partials — when the ledger provably matches the
    /// archive for it: every scoped section's seal frontier reaches past
    /// the bucket, nothing in it was compacted away, and nothing created
    /// inside it is still pending. Returns `None` when any check fails
    /// and the caller must scan.
    fn bucket(&self, query: &Query, bucket_start_s: u64, bucket_end_s: u64) -> Option<AggPartial> {
        if bucket_end_s > self.settled_until_s {
            return None;
        }
        if !self
            .sections
            .clone()
            .all(|s| self.ledger.covers(s, bucket_start_s, bucket_end_s))
        {
            return None;
        }
        let mut part = AggPartial::empty();
        for section in self.sections.clone() {
            merge_selected(
                self.ledger,
                section,
                query,
                bucket_start_s,
                bucket_end_s,
                &mut part,
            );
        }
        Some(part)
    }
}

/// Merges every ledger partial matching `query`'s selector over its
/// whole window for `section` into `acc`; returns the number merged.
/// This is a whole warm-sketch answer or leg: the planner proved
/// coverage, so absent buckets are provably empty.
pub(super) fn merge_warm_sketch(
    ledger: &SketchLedger,
    section: usize,
    query: &Query,
    acc: &mut AggAcc,
) -> u64 {
    let w = query.window;
    merge_selected(ledger, section as u16, query, w.from_s, w.until_s, acc)
}

/// Merges the ledger partials of every sensor type `query`'s selector
/// matches over `[from_s, until_s)` for `section`; returns the number
/// merged.
fn merge_selected<A: AggState>(
    ledger: &SketchLedger,
    section: u16,
    query: &Query,
    from_s: u64,
    until_s: u64,
    acc: &mut A,
) -> u64 {
    let mut merged = 0;
    for ty in SensorType::ALL {
        if query.selector.matches(ty) {
            merged += ledger.merge_range(section, ty, from_s, until_s, acc);
        }
    }
    merged
}

/// Folds the window into the current leg of `acc` — what a
/// scatter-gather leg ships to the gather node, or a single source's
/// whole answer — reusing cached closed buckets where the epoch allows,
/// and assembling closed buckets from the node's sketch ledger (the
/// flush-shipped pre-folded partials) before falling back to an archive
/// scan. Only a bucket about to be cached is ever built as an
/// [`AggPartial`]. Returns the records visited.
#[allow(clippy::too_many_arguments)]
pub(super) fn fold_aggregate(
    city: &F2cCity,
    store: &TieredStore,
    node: NodeKey,
    query: &Query,
    partials: &mut PartialCache,
    acc: &mut AggAcc,
    tally: &mut FoldTally,
    epoch: u64,
    now_s: u64,
) -> u64 {
    let w = query.window;
    let bucket_s = SKETCH_BUCKET_S;
    let mut visited = 0u64;
    let first_full = w.from_s.next_multiple_of(bucket_s);
    let last_full = (w.until_s / bucket_s) * bucket_s;
    if first_full >= last_full {
        // No full bucket inside the window: one direct fold.
        return fold_segment(store, query, w.from_s, w.until_s, acc);
    }
    let prefold = PrefoldCtx::new(city, store, node, query);
    // One table probe for the whole leg; its buckets are then found by
    // their start.
    let series = partials.series(SeriesKey {
        node,
        selector: query.selector,
        scope: query.scope,
    });
    visited += fold_segment(store, query, w.from_s, first_full, acc);
    let mut bucket = first_full;
    while bucket < last_full {
        let bucket_end = bucket + bucket_s;
        // Only closed buckets are cacheable: fog-1 ingest appends at
        // the clock frontier, and tiers above only change on flush
        // (which bumps the epoch), so a cached closed bucket cannot
        // drift.
        if bucket_end <= now_s {
            // A cached-partial merge is O(its registers) — no records
            // visited, so it never costs more than folding the bucket
            // (even an empty one).
            if partials.merge_at(series, bucket, epoch, acc) {
                tally.partial_hits += 1;
            } else if let Some(part) = prefold.bucket(query, bucket, bucket_end) {
                // The flush already folded this bucket: merge the
                // shipped partials instead of re-scanning, and cache
                // the assembly for the next query.
                acc.merge(&part);
                partials.put_at(series, bucket, part, epoch);
                tally.prefold_hits += 1;
            } else {
                let mut part = AggPartial::empty();
                visited += fold_segment(store, query, bucket, bucket_end, &mut part);
                acc.merge(&part);
                partials.put_at(series, bucket, part, epoch);
                tally.partial_fills += 1;
            }
        } else {
            visited += fold_segment(store, query, bucket, bucket_end, acc);
        }
        bucket = bucket_end;
    }
    visited + fold_segment(store, query, last_full, w.until_s, acc)
}

/// Folds the matching records created in `[from_s, until_s)` into `acc`
/// — the request's accumulator, or a bucket partial about to be cached;
/// returns the records visited.
fn fold_segment<A: AggState>(
    store: &TieredStore,
    query: &Query,
    from_s: u64,
    until_s: u64,
    acc: &mut A,
) -> u64 {
    // A bucket-aligned window has empty head and tail segments: most
    // calls. Two binary searches to find that out are not free.
    if from_s >= until_s {
        return 0;
    }
    let mut visited = 0u64;
    for records in store.archive().range(from_s, until_s) {
        visited += records.len() as u64;
        for rec in records {
            if query.matches(rec) {
                absorb_record(acc, rec);
            }
        }
    }
    visited
}
