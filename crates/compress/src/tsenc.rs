//! `tsenc` — columnar time-series codec for flush shipments.
//!
//! The flush path ships batches of sensor readings whose regularity a
//! byte-oriented codec cannot see: timestamps advance in near-constant
//! periods, sensor ids repeat wave after wave, and each sensor type's
//! values keep to one narrow [`Shape`]. This module splits a batch
//! into columns and encodes each with the cheapest of six integer
//! [`Technique`]s, chosen by a per-column cost probe and tagged in the
//! column's frame header. The probe is size-only — one pass over the
//! column computes every technique's exact body length from varint
//! lengths (the dictionary's from its own probe), builds no candidate,
//! and writes the winner once:
//!
//! | tag | technique        | wins when …                                |
//! |-----|------------------|--------------------------------------------|
//! | 0   | `Raw`            | nothing else does (small varints, noise)   |
//! | 1   | `Delta`          | values are monotone or slowly drifting     |
//! | 2   | `DeltaOfDelta`   | deltas themselves are regular (timestamps) |
//! | 3   | `Rle`            | long constant runs (flags, idle levels)    |
//! | 4   | `Dict`           | few distinct but large values              |
//! | 5   | `Xor`            | consecutive values share high bits         |
//!
//! Sensor identities are coded against a `SensorDict` that **persists
//! across consecutive batches of the same stream**: the first batch pays
//! for each sensor's `(type, index)` once, every later batch codes the
//! sensor as a small dense integer. [`StreamEncoder`] and
//! [`StreamDecoder`] carry that state; their dictionaries advance in
//! lock-step because every committed addition is carried in the batch
//! that introduced it, and a sender that ships over a lossy link stages
//! a batch's additions ([`StreamEncoder::stage_batch`]) and commits them
//! only when the receiver has verified the batch.
//!
//! The value planes are laid out by each type's [`Shape`]: a batch
//! holding a value of another variant, or a composite beyond the
//! columnar limits, is refused with [`Error::UnshippableRecord`] and
//! stages nothing. Acquisition refuses such a reading where it enters,
//! so live traffic never meets that error. Every column can fall back to
//! raw varints, which bounds a payload by the verbatim record bytes plus
//! one frame per column; that it also beats the byte-oriented codec on
//! real flush traffic is held by a test oracle over captured shipments
//! (`tests/flush_codec.rs`), not re-proved per batch.
//!
//! # Stream envelope
//!
//! ```text
//! "TSF1" | mode u8 = 0 | body … | crc32(mode‖body) LE u32
//! ```
//!
//! The envelope is [`ENVELOPE_LEN`] bytes; the mode byte is always
//! [`MODE_COLUMNAR`], and a decoder refuses any other. The body:
//! `varint n_records`, the dictionary-additions block
//! (`varint n_new`, then `(type_code u8, varint index)` per new sensor
//! in first-appearance order), then framed columns — sensor codes,
//! timestamps, and per-type value columns in `SensorType::ALL` order
//! (composites ship a field-count column and a flattened field column).
//! Every column frame is `tag u8 | varint body_len | body`, and every
//! count is validated against the declared record count, so truncated,
//! bit-flipped and length-lying streams fail with an [`Error`] instead
//! of panicking or over-allocating.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;

use scc_sensors::idhash::BuildIdHasher;
use scc_sensors::{IdMap, Reading, SensorId, SensorType, Shape, Value};

use crate::crc32;
use crate::error::{Error, Result};

/// Stream magic: "TSF1" (time-series flush, format 1).
pub const MAGIC: [u8; 4] = *b"TSF1";

/// Mode byte: columnar body follows (the only mode).
pub const MODE_COLUMNAR: u8 = 0;

/// Fixed envelope cost of a stream: magic (4) + mode (1) + CRC-32 (4).
pub const ENVELOPE_LEN: usize = 9;

/// Hard ceiling on records per batch — decoding never allocates past it.
pub const MAX_RECORDS: u64 = 1 << 22;

/// Hard ceiling on integers in one column (composite field columns can
/// exceed the record count, but never this).
pub(crate) const MAX_COLUMN_INTS: u64 = 1 << 22;

/// Largest composite value the columnar planes accept; the encoder
/// refuses a batch with a wider one, and the decoder a stream.
pub(crate) const MAX_COMPOSITE_FIELDS: u64 = 1 << 10;

// ---------------------------------------------------------------------------
// Primitives: varints and zigzag.
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint at `*pos`, advancing it.
pub(crate) fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data
            .get(*pos)
            .ok_or(Error::UnexpectedEof { offset: *pos })?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(Error::Malformed {
                reason: "varint overflows 64 bits",
                offset: *pos - 1,
            });
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::Malformed {
                reason: "varint longer than 10 bytes",
                offset: *pos - 1,
            });
        }
    }
}

/// Zigzag-maps a signed value to an unsigned one (small magnitudes stay
/// small regardless of sign).
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

// ---------------------------------------------------------------------------
// Integer column techniques.
// ---------------------------------------------------------------------------

/// One way of encoding an integer column; the cost probe picks the
/// cheapest per column and tags it in the frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Plain varints.
    Raw,
    /// First value, then zigzag varints of consecutive differences.
    Delta,
    /// First value, first delta, then zigzag varints of delta changes.
    DeltaOfDelta,
    /// `(value, run_length)` pairs; runs must sum exactly to the count.
    Rle,
    /// Local value dictionary (first-appearance order) plus indices.
    Dict,
    /// First value, then varints of consecutive XORs.
    Xor,
}

impl Technique {
    /// Every technique, in probe (and tie-break) order.
    pub const ALL: [Technique; 6] = [
        Technique::Raw,
        Technique::Delta,
        Technique::DeltaOfDelta,
        Technique::Rle,
        Technique::Dict,
        Technique::Xor,
    ];

    /// The frame-header tag.
    pub(crate) fn tag(self) -> u8 {
        match self {
            Technique::Raw => 0,
            Technique::Delta => 1,
            Technique::DeltaOfDelta => 2,
            Technique::Rle => 3,
            Technique::Dict => 4,
            Technique::Xor => 5,
        }
    }

    /// The technique for a frame-header tag.
    pub(crate) fn from_tag(tag: u8) -> Option<Technique> {
        Technique::ALL.into_iter().find(|t| t.tag() == tag)
    }
}

/// Bytes [`put_varint`] writes for `v`: seven payload bits per byte, and
/// zero still takes one.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros()).div_ceil(7) as usize
}

fn emit_raw(values: &[u64], out: &mut Vec<u8>) {
    for &v in values {
        put_varint(out, v);
    }
}

fn emit_delta(values: &[u64], out: &mut Vec<u8>) {
    let Some(&first) = values.first() else {
        return;
    };
    put_varint(out, first);
    for w in values.windows(2) {
        put_varint(out, zigzag(w[1].wrapping_sub(w[0]) as i64));
    }
}

fn emit_dod(values: &[u64], out: &mut Vec<u8>) {
    let Some(&first) = values.first() else {
        return;
    };
    put_varint(out, first);
    if values.len() == 1 {
        return;
    }
    let mut prev_delta = values[1].wrapping_sub(values[0]) as i64;
    put_varint(out, zigzag(prev_delta));
    for w in values[1..].windows(2) {
        let delta = w[1].wrapping_sub(w[0]) as i64;
        put_varint(out, zigzag(delta.wrapping_sub(prev_delta)));
        prev_delta = delta;
    }
}

fn emit_rle(values: &[u64], out: &mut Vec<u8>) {
    let Some(&first) = values.first() else {
        return;
    };
    let mut current = first;
    let mut run = 1u64;
    for &v in &values[1..] {
        if v == current {
            run += 1;
        } else {
            put_varint(out, current);
            put_varint(out, run);
            current = v;
            run = 1;
        }
    }
    put_varint(out, current);
    put_varint(out, run);
}

fn emit_xor(values: &[u64], out: &mut Vec<u8>) {
    let Some(&first) = values.first() else {
        return;
    };
    put_varint(out, first);
    for w in values.windows(2) {
        put_varint(out, w[0] ^ w[1]);
    }
}

/// The exact body length of every technique but `Dict` over `values`,
/// indexed by [`Technique::tag`], from one pass over the column and
/// varint lengths alone. `Dict`'s slot stays 0: its length needs the
/// column's dictionary, which [`DictProbe::probe`] builds.
fn body_lens(values: &[u64]) -> [usize; Technique::ALL.len()] {
    let mut lens = [0; Technique::ALL.len()];
    let Some((&first, rest)) = values.split_first() else {
        return lens;
    };
    let head = varint_len(first);
    let (mut raw, mut delta, mut dod, mut xor, mut rle) = (head, head, head, head, 0);
    // Against a zero previous delta, the first delta-of-delta is the
    // first delta itself, which is what the body's second varint holds.
    let (mut prev, mut prev_delta, mut run) = (first, 0i64, 1u64);
    for &v in rest {
        let d = v.wrapping_sub(prev) as i64;
        raw += varint_len(v);
        delta += varint_len(zigzag(d));
        dod += varint_len(zigzag(d.wrapping_sub(prev_delta)));
        xor += varint_len(prev ^ v);
        if v == prev {
            run += 1;
        } else {
            rle += varint_len(prev) + varint_len(run);
            run = 1;
        }
        prev = v;
        prev_delta = d;
    }
    rle += varint_len(prev) + varint_len(run);
    lens[Technique::Raw.tag() as usize] = raw;
    lens[Technique::Delta.tag() as usize] = delta;
    lens[Technique::DeltaOfDelta.tag() as usize] = dod;
    lens[Technique::Rle.tag() as usize] = rle;
    lens[Technique::Xor.tag() as usize] = xor;
    lens
}

/// The dictionary technique's working state: the local dictionary of
/// the column last probed. Kept between columns so a warm encoder
/// probes without allocating.
#[derive(Debug, Default)]
struct DictProbe {
    /// Keyed by column values the encoder itself transposed.
    index: IdMap<u64, u64>,
    /// Distinct values, first-appearance order.
    distinct: Vec<u64>,
    /// One dictionary index per column value.
    codes: Vec<u64>,
}

impl DictProbe {
    /// Builds the local dictionary of `values` and returns the length of
    /// its body — exact whenever that is below `limit`. Otherwise the
    /// probe stops as soon as its running lower bound (the bytes so far
    /// plus one byte per code still to come) reaches `limit`, and
    /// returns that bound: the body cannot be strictly smaller than
    /// `limit`, so the dictionary is left incomplete.
    fn probe(&mut self, values: &[u64], limit: usize) -> usize {
        self.index.clear();
        self.distinct.clear();
        self.codes.clear();
        // Distinct values and codes so far; the count varint rides on top.
        let mut bytes = 0usize;
        for (i, &v) in values.iter().enumerate() {
            let next = self.distinct.len() as u64;
            let code = *self.index.entry(v).or_insert(next);
            if code == next {
                self.distinct.push(v);
                bytes += varint_len(v);
            }
            self.codes.push(code);
            bytes += varint_len(code);
            let bound = varint_len(self.distinct.len() as u64) + bytes + (values.len() - i - 1);
            if bound >= limit {
                return bound;
            }
        }
        varint_len(self.distinct.len() as u64) + bytes
    }

    /// The body of the (completely) probed column.
    fn emit(&self, out: &mut Vec<u8>) {
        put_varint(out, self.distinct.len() as u64);
        emit_raw(&self.distinct, out);
        emit_raw(&self.codes, out);
    }
}

/// Writes `technique`'s body over `values`; for `Dict`, `dict` must hold
/// the completed probe of `values`.
fn emit_body(technique: Technique, values: &[u64], dict: &DictProbe, out: &mut Vec<u8>) {
    match technique {
        Technique::Raw => emit_raw(values, out),
        Technique::Delta => emit_delta(values, out),
        Technique::DeltaOfDelta => emit_dod(values, out),
        Technique::Rle => emit_rle(values, out),
        Technique::Dict => dict.emit(out),
        Technique::Xor => emit_xor(values, out),
    }
}

/// The length of `technique`'s body over `values`, computed from varint
/// lengths alone. `Dict` leaves its dictionary in `dict` for
/// [`write_frame`] and may stop early against `limit` (see
/// [`DictProbe::probe`]); every other technique is exact regardless.
fn body_len(technique: Technique, values: &[u64], dict: &mut DictProbe, limit: usize) -> usize {
    match technique {
        Technique::Dict => dict.probe(values, limit),
        _ => body_lens(values)[technique.tag() as usize],
    }
}

/// Writes one column frame whose body length is already known.
fn write_frame(
    technique: Technique,
    body_len: usize,
    values: &[u64],
    dict: &DictProbe,
    out: &mut Vec<u8>,
) {
    out.push(technique.tag());
    put_varint(out, body_len as u64);
    let body_start = out.len();
    emit_body(technique, values, dict, out);
    debug_assert_eq!(
        out.len() - body_start,
        body_len,
        "{technique:?}: computed cost disagrees with the body written"
    );
}

/// Encodes `values` as one framed column with a forced `technique`
/// (the composed encoder uses [`encode_column`]; this entry point lets
/// tests exercise each technique in isolation).
pub fn encode_column_as(technique: Technique, values: &[u64], out: &mut Vec<u8>) {
    let mut dict = DictProbe::default();
    let len = body_len(technique, values, &mut dict, usize::MAX);
    write_frame(technique, len, values, &dict, out);
}

/// Encodes `values` as one framed column, probing every technique and
/// keeping the cheapest (ties go to the earlier entry of
/// [`Technique::ALL`], so the choice is deterministic). The probe is
/// size-only: no candidate body is built, and only the winner is
/// written.
pub fn encode_column(values: &[u64], out: &mut Vec<u8>) -> Technique {
    probe_column(values, &mut DictProbe::default(), out)
}

/// [`encode_column`] over caller-owned dictionary-probe scratch. One
/// pass sizes every technique but `Dict`; `Dict` is then probed against
/// the best of those before it in probe order.
fn probe_column(values: &[u64], dict: &mut DictProbe, out: &mut Vec<u8>) -> Technique {
    let lens = body_lens(values);
    let mut best = Technique::Raw;
    let mut best_len = lens[best.tag() as usize];
    for &technique in &Technique::ALL[1..] {
        // `Dict` is probed once, so a win leaves its dictionary intact
        // for `write_frame` whatever is probed after it.
        let len = match technique {
            Technique::Dict => dict.probe(values, best_len),
            _ => lens[technique.tag() as usize],
        };
        if len < best_len {
            best = technique;
            best_len = len;
        }
    }
    write_frame(best, best_len, values, dict, out);
    best
}

/// Decodes one framed column at `*pos`, which must hold exactly
/// `expect` integers.
///
/// # Errors
///
/// [`Error::UnexpectedEof`] on truncation, [`Error::Malformed`] on an
/// unknown tag, a frame length that disagrees with its own body, runs
/// that do not sum to the count, or out-of-range dictionary indices.
pub fn decode_column(data: &[u8], pos: &mut usize, expect: u64) -> Result<(Technique, Vec<u64>)> {
    let mut values = Vec::new();
    let technique = decode_column_into(data, pos, expect, &mut values)?;
    Ok((technique, values))
}

/// [`decode_column`] into caller-owned `values` (cleared first), so a
/// warm stream decoder decodes without allocating. A count the frame
/// only declares is never a reason to allocate: every reserve is bounded
/// by the frame's body bytes, and `Rle` grows by validated runs alone.
fn decode_column_into(
    data: &[u8],
    pos: &mut usize,
    expect: u64,
    values: &mut Vec<u64>,
) -> Result<Technique> {
    values.clear();
    if expect > MAX_COLUMN_INTS {
        return Err(Error::SizeLimitExceeded {
            declared: expect,
            limit: MAX_COLUMN_INTS,
        });
    }
    let tag_off = *pos;
    let tag = *data
        .get(*pos)
        .ok_or(Error::UnexpectedEof { offset: *pos })?;
    *pos += 1;
    let technique = Technique::from_tag(tag).ok_or(Error::Malformed {
        reason: "unknown column technique tag",
        offset: tag_off,
    })?;
    let body_len = get_varint(data, pos)? as usize;
    let body_end = pos
        .checked_add(body_len)
        .filter(|&end| end <= data.len())
        .ok_or(Error::UnexpectedEof { offset: data.len() })?;
    let body = &data[*pos..body_end];
    let base = *pos;
    let expect = expect as usize;
    let mut p = 0usize;
    // Every decoder below reads only from `body`, so a lying `body_len`
    // is caught either by the in-body EOF or by the exact-consumption
    // check at the end.
    let at = |p: usize| base + p;
    let next = |p: &mut usize| get_varint(body, p).map_err(|e| rebase(e, base));
    // Every varint takes at least one body byte.
    let bounded = |count: usize| count.min(body.len() + 1);
    match technique {
        Technique::Raw => {
            values.reserve(bounded(expect));
            for _ in 0..expect {
                values.push(next(&mut p)?);
            }
        }
        Technique::Delta => {
            values.reserve(bounded(expect));
            if expect > 0 {
                let mut current = next(&mut p)?;
                values.push(current);
                for _ in 1..expect {
                    let d = unzigzag(next(&mut p)?);
                    current = current.wrapping_add(d as u64);
                    values.push(current);
                }
            }
        }
        Technique::DeltaOfDelta => {
            values.reserve(bounded(expect));
            if expect > 0 {
                let mut current = next(&mut p)?;
                values.push(current);
                if expect > 1 {
                    let mut delta = unzigzag(next(&mut p)?);
                    current = current.wrapping_add(delta as u64);
                    values.push(current);
                    for _ in 2..expect {
                        let dd = unzigzag(next(&mut p)?);
                        delta = delta.wrapping_add(dd);
                        current = current.wrapping_add(delta as u64);
                        values.push(current);
                    }
                }
            }
        }
        Technique::Rle => {
            // No reserve: a run is two varints for any length, so only a
            // validated run says how far the column grows.
            while values.len() < expect {
                let v = next(&mut p)?;
                let run = next(&mut p)?;
                if run == 0 || run > (expect - values.len()) as u64 {
                    return Err(Error::Malformed {
                        reason: "RLE runs do not sum to the column count",
                        offset: at(p),
                    });
                }
                values.resize(values.len() + run as usize, v);
            }
        }
        Technique::Dict => {
            let n_distinct = next(&mut p)?;
            if n_distinct > expect as u64 {
                return Err(Error::Malformed {
                    reason: "column dictionary larger than the column",
                    offset: at(p),
                });
            }
            // The dictionary sits in front of the values it resolves and
            // leaves once they are all resolved.
            let n_distinct = n_distinct as usize;
            values.reserve(bounded(n_distinct) + bounded(expect));
            for _ in 0..n_distinct {
                values.push(next(&mut p)?);
            }
            for _ in 0..expect {
                let code = next(&mut p)?;
                let v = usize::try_from(code)
                    .ok()
                    .filter(|&code| code < n_distinct)
                    .and_then(|code| values.get(code))
                    .copied()
                    .ok_or(Error::Malformed {
                        reason: "column dictionary index out of range",
                        offset: at(p),
                    })?;
                values.push(v);
            }
            values.drain(..n_distinct);
        }
        Technique::Xor => {
            values.reserve(bounded(expect));
            if expect > 0 {
                let mut current = next(&mut p)?;
                values.push(current);
                for _ in 1..expect {
                    current ^= next(&mut p)?;
                    values.push(current);
                }
            }
        }
    }
    if p != body.len() {
        return Err(Error::Malformed {
            reason: "column frame length disagrees with its body",
            offset: at(p),
        });
    }
    *pos = body_end;
    Ok(technique)
}

/// Shifts an in-body error offset into the enclosing stream.
fn rebase(e: Error, base: usize) -> Error {
    match e {
        Error::UnexpectedEof { offset } => Error::UnexpectedEof {
            offset: base + offset,
        },
        Error::Malformed { reason, offset } => Error::Malformed {
            reason,
            offset: base + offset,
        },
        other => other,
    }
}

// ---------------------------------------------------------------------------
// The persistent sensor dictionary.
// ---------------------------------------------------------------------------

/// Maps sensors to dense codes, in first-appearance order across the
/// lifetime of a stream. The encoder and decoder each hold one, and the
/// two stay in lock-step as long as each side commits exactly the
/// batches the other does, in order: the decoder a batch it verified,
/// the encoder a batch the receiver acknowledged.
///
/// The hasher follows who filled the table: the encoder's dictionary
/// holds ids this program generated ([`BuildIdHasher`]); the decoder's is
/// filled from payload bytes and keeps the standard keyed hasher.
#[derive(Debug, Clone, Default)]
pub(crate) struct SensorDict<S = RandomState> {
    ids: Vec<SensorId>,
    index: HashMap<SensorId, u64, S>,
}

impl<S: BuildHasher> SensorDict<S> {
    /// Committed entries.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The code of `id`, if committed.
    pub(crate) fn code_of(&self, id: SensorId) -> Option<u64> {
        self.index.get(&id).copied()
    }

    /// The sensor committed under `code`.
    pub(crate) fn sensor_of(&self, code: u64) -> Option<SensorId> {
        usize::try_from(code)
            .ok()
            .and_then(|i| self.ids.get(i))
            .copied()
    }

    /// Commits `id` under the next code, returning it. `id` must not be
    /// present yet.
    fn push(&mut self, id: SensorId) -> u64 {
        let code = self.ids.len() as u64;
        self.ids.push(id);
        self.index.insert(id, code);
        code
    }
}

// ---------------------------------------------------------------------------
// Sensor type codes.
// ---------------------------------------------------------------------------

fn type_code(ty: SensorType) -> u8 {
    ty.ordinal() as u8
}

fn type_from_code(code: u8) -> Option<SensorType> {
    SensorType::ALL.get(code as usize).copied()
}

// ---------------------------------------------------------------------------
// The composed stream codec.
// ---------------------------------------------------------------------------

/// Stateful batch encoder for one flush stream (one sender → one
/// receiver). Feed it consecutive batches of the stream in shipping
/// order; the matching [`StreamDecoder`] must verify or decode exactly
/// the payloads this side committed, once each, in the same order.
#[derive(Debug, Default)]
pub struct StreamEncoder {
    dict: SensorDict<BuildIdHasher>,
    columns: ColumnScratch,
}

/// The transposed batch: column vectors the encoder owns and reuses
/// across batches, so a warm stream encodes into them without
/// allocating.
#[derive(Debug, Default)]
struct ColumnScratch {
    codes: Vec<u64>,
    timestamps: Vec<u64>,
    /// One value column per sensor type, in `SensorType::ALL` order
    /// (for a composite type: its records' field counts).
    values: [Vec<u64>; SensorType::ALL.len()],
    /// The flattened zigzag fields of each composite type.
    fields: [Vec<u64>; SensorType::ALL.len()],
    /// Sensors the staged batch adds to the dictionary,
    /// first-appearance order.
    staged: Vec<SensorId>,
    staged_index: IdMap<SensorId, u64>,
    probe: DictProbe,
}

impl ColumnScratch {
    /// Transposes `readings` into the columns in one pass, staging the
    /// sensors `dict` has not committed.
    ///
    /// # Errors
    ///
    /// [`Error::UnshippableRecord`] for the first reading whose value is
    /// of another variant than its type's [`Shape`], or whose composite
    /// exceeds the columnar limits; the columns are then partial.
    fn transpose<R: AsRef<Reading>>(
        &mut self,
        dict: &SensorDict<BuildIdHasher>,
        readings: &[R],
    ) -> Result<()> {
        self.codes.clear();
        self.timestamps.clear();
        self.values.iter_mut().for_each(Vec::clear);
        self.fields.iter_mut().for_each(Vec::clear);
        self.staged.clear();
        self.staged_index.clear();
        let committed = dict.len() as u64;
        for (record, r) in readings.iter().enumerate() {
            let r = r.as_ref();
            let id = r.sensor();
            let t = id.sensor_type().ordinal();
            let column = &mut self.values[t];
            let refuse = |reason| Err(Error::UnshippableRecord { record, reason });
            match (id.sensor_type().shape(), r.value()) {
                (Shape::Scalar, Value::Scalar(v)) => column.push(zigzag(*v)),
                (Shape::Counter, Value::Counter(c)) => column.push(*c),
                (Shape::Flag, Value::Flag(b)) => column.push(u64::from(*b)),
                (Shape::Level, Value::Level(l)) => column.push(u64::from(*l)),
                (Shape::Composite { .. }, Value::Composite(fs)) => {
                    let fields = &mut self.fields[t];
                    if fs.len() as u64 > MAX_COMPOSITE_FIELDS
                        || (fields.len() + fs.len()) as u64 > MAX_COLUMN_INTS
                    {
                        return refuse("composite beyond the columnar limits");
                    }
                    column.push(fs.len() as u64);
                    fields.extend(fs.iter().map(|&f| zigzag(f)));
                }
                _ => return refuse("value variant contradicts its sensor type's shape"),
            }
            let code = dict.code_of(id).unwrap_or_else(|| {
                *self.staged_index.entry(id).or_insert_with(|| {
                    self.staged.push(id);
                    committed + self.staged.len() as u64 - 1
                })
            });
            self.codes.push(code);
            self.timestamps.push(r.timestamp_s());
        }
        Ok(())
    }

    /// Writes the columnar body of the transposed batch.
    fn write_body(&mut self, out: &mut Vec<u8>) {
        put_varint(out, self.codes.len() as u64);
        put_varint(out, self.staged.len() as u64);
        for id in &self.staged {
            out.push(type_code(id.sensor_type()));
            put_varint(out, u64::from(id.index()));
        }
        probe_column(&self.codes, &mut self.probe, out);
        probe_column(&self.timestamps, &mut self.probe, out);
        for ty in SensorType::ALL {
            let t = ty.ordinal();
            if self.values[t].is_empty() {
                continue;
            }
            probe_column(&self.values[t], &mut self.probe, out);
            if let Shape::Composite { .. } = ty.shape() {
                probe_column(&self.fields[t], &mut self.probe, out);
            }
        }
    }
}

impl StreamEncoder {
    /// A fresh stream with an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Committed dictionary entries so far.
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Encodes one batch and commits its dictionary additions:
    /// [`StreamEncoder::stage_batch`], then [`StreamEncoder::commit`].
    /// For a receiver that sees every payload.
    ///
    /// # Errors
    ///
    /// As [`StreamEncoder::stage_batch`].
    pub fn encode_batch<R: AsRef<Reading>>(&mut self, readings: &[R]) -> Result<Vec<u8>> {
        let payload = self.stage_batch(readings)?;
        self.commit();
        Ok(payload)
    }

    /// Encodes one batch, holding its dictionary additions staged until
    /// [`StreamEncoder::commit`] (the receiver verified the payload) or
    /// [`StreamEncoder::discard`] (it refused it, or it never arrived);
    /// the next staged batch also drops them. The batch is anything that
    /// lends readings — `&[Reading]`, or the records that wrap them — so
    /// a sender never copies its batch to encode it.
    ///
    /// # Errors
    ///
    /// [`Error::SizeLimitExceeded`] on a batch beyond [`MAX_RECORDS`];
    /// [`Error::UnshippableRecord`] on a value of another variant than
    /// its type's [`Shape`], or a composite beyond the columnar limits;
    /// then nothing is staged, and a `commit` leaves the dictionary as
    /// the last committed batch left it.
    pub fn stage_batch<R: AsRef<Reading>>(&mut self, readings: &[R]) -> Result<Vec<u8>> {
        if readings.len() as u64 > MAX_RECORDS {
            return Err(Error::SizeLimitExceeded {
                declared: readings.len() as u64,
                limit: MAX_RECORDS,
            });
        }
        if let Err(refused) = self.columns.transpose(&self.dict, readings) {
            self.discard();
            return Err(refused);
        }
        // A reserve, not a bound: warm flush traffic runs at three to
        // five bytes a record.
        let mut out = Vec::with_capacity(ENVELOPE_LEN + 16 + 4 * readings.len());
        out.extend_from_slice(&MAGIC);
        out.push(MODE_COLUMNAR);
        self.columns.write_body(&mut out);
        let crc = crc32::checksum(&out[MAGIC.len()..]);
        out.extend_from_slice(&crc.to_le_bytes());
        Ok(out)
    }

    /// Commits the staged batch's dictionary additions; a no-op when
    /// nothing is staged.
    pub fn commit(&mut self) {
        for id in self.columns.staged.drain(..) {
            self.dict.push(id);
        }
    }

    /// Drops the staged batch's dictionary additions, leaving the
    /// dictionary as the last committed batch left it.
    pub fn discard(&mut self) {
        self.columns.staged.clear();
    }
}

/// Stateful batch decoder mirroring [`StreamEncoder`]: feed it each
/// payload that arrives, in shipping order. A payload it refuses (an
/// error, or a mismatch in [`StreamDecoder::verify_batch`]) commits
/// nothing, so its sender re-ships the records in a later batch.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    dict: SensorDict,
    columns: DecodedColumns,
}

/// Stream offset of the body: after the magic and the mode byte.
const BODY_OFFSET: usize = MAGIC.len() + 1;

/// Checks a stream's envelope — magic, length, CRC, mode — and returns
/// its body.
fn open(data: &[u8]) -> Result<&[u8]> {
    if data.len() < MAGIC.len() {
        return Err(Error::UnexpectedEof { offset: data.len() });
    }
    if data[..MAGIC.len()] != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&data[..4]);
        return Err(Error::BadMagic { found });
    }
    if data.len() < ENVELOPE_LEN {
        return Err(Error::UnexpectedEof { offset: data.len() });
    }
    let crc_start = data.len() - 4;
    let trailer = data[crc_start..]
        .try_into()
        .map_err(|_| Error::UnexpectedEof { offset: data.len() })?;
    let expected = u32::from_le_bytes(trailer);
    let actual = crc32::checksum(&data[MAGIC.len()..crc_start]);
    if expected != actual {
        return Err(Error::ChecksumMismatch { expected, actual });
    }
    if data[MAGIC.len()] != MODE_COLUMNAR {
        return Err(Error::Malformed {
            reason: "unknown stream mode",
            offset: MAGIC.len(),
        });
    }
    Ok(&data[BODY_OFFSET..crc_start])
}

impl StreamDecoder {
    /// A fresh stream with an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Committed dictionary entries so far.
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Decodes one batch. The dictionary advances only on a successful
    /// decode — a stream that errors leaves the decoder state untouched,
    /// so the caller can refuse the shipment and await a clean
    /// re-delivery.
    ///
    /// # Errors
    ///
    /// [`Error::BadMagic`], [`Error::ChecksumMismatch`],
    /// [`Error::UnexpectedEof`], [`Error::SizeLimitExceeded`] or
    /// [`Error::Malformed`]; never panics, never allocates past the
    /// declared (validated) counts.
    pub fn decode_batch(&mut self, data: &[u8]) -> Result<Vec<Reading>> {
        self.columns.decode(&self.dict, open(data)?)?;
        let readings = self.columns.readings()?;
        self.commit();
        Ok(readings)
    }

    /// Bytes of `ty`'s value and field frames in the last batch decoded
    /// (0 if it held no `ty`); the rest of a payload is shared by its types.
    pub fn type_frame_bytes(&self, ty: SensorType) -> usize {
        self.columns.frame_bytes[ty.ordinal()]
    }

    /// Checks one batch against `batch`, the records shipped beside it,
    /// without building readings: `Ok(true)` exactly when
    /// [`StreamDecoder::decode_batch`] would return readings equal to
    /// `batch`'s. Every validation runs before any comparison, so the
    /// errors are `decode_batch`'s. The dictionary commits only on a
    /// match: a receiver refuses a mismatching batch, so its sender
    /// never commits it either.
    ///
    /// # Errors
    ///
    /// As [`StreamDecoder::decode_batch`].
    pub fn verify_batch<R: AsRef<Reading>>(&mut self, data: &[u8], batch: &[R]) -> Result<bool> {
        self.columns.decode(&self.dict, open(data)?)?;
        let matches = self.columns.matches(batch)?;
        if matches {
            self.commit();
        }
        Ok(matches)
    }

    /// Commits the decoded batch's additions, exactly as the encoder did.
    fn commit(&mut self) {
        for &id in &self.columns.staged {
            self.dict.push(id);
        }
    }
}

/// One batch decoded column by column into vectors the decoder
/// owns and reuses across batches. Both finishes read it:
/// [`StreamDecoder::decode_batch`] assembles readings from it, and
/// [`StreamDecoder::verify_batch`] compares records with it in place.
#[derive(Debug, Default)]
struct DecodedColumns {
    /// Sensors the batch adds to the dictionary, first-appearance order;
    /// committed only once the whole batch has decoded.
    staged: Vec<SensorId>,
    staged_set: HashSet<SensorId>,
    codes: Vec<u64>,
    /// The codes resolved, one sensor per record.
    sensors: Vec<SensorId>,
    timestamps: Vec<u64>,
    /// One value column per sensor type, laid out as the encoder's
    /// [`ColumnScratch`] lays it out, each checked against its shape.
    values: [Vec<u64>; SensorType::ALL.len()],
    /// The flattened zigzag fields of each composite type.
    fields: [Vec<u64>; SensorType::ALL.len()],
    /// Bytes of each type's value and field frames.
    frame_bytes: [usize; SensorType::ALL.len()],
    /// Stream offset of the body's end.
    end: usize,
}

impl DecodedColumns {
    /// Decodes and validates every column of `body` against the
    /// committed dictionary `dict`, leaving `dict` as it was.
    fn decode(&mut self, dict: &SensorDict, body: &[u8]) -> Result<()> {
        let base = BODY_OFFSET;
        let err = |reason: &'static str, pos: usize| Error::Malformed {
            reason,
            offset: base + pos,
        };
        let column = |pos: &mut usize, expect: u64, values: &mut Vec<u64>| -> Result<()> {
            decode_column_into(body, pos, expect, values)
                .map(drop)
                .map_err(|e| rebase(e, base))
        };
        let mut pos = 0usize;
        let n = get_varint(body, &mut pos).map_err(|e| rebase(e, base))?;
        if n > MAX_RECORDS {
            return Err(Error::SizeLimitExceeded {
                declared: n,
                limit: MAX_RECORDS,
            });
        }
        let n_staged = get_varint(body, &mut pos).map_err(|e| rebase(e, base))?;
        if n_staged > n {
            return Err(err("more dictionary additions than records", pos));
        }
        // An addition is at least two bytes, so the payload's own length
        // bounds both reserves; the re-add check is a set probe, which
        // keeps decode time linear in the payload whatever it declares.
        let reserve = (n_staged as usize).min(body.len() / 2);
        self.staged.clear();
        self.staged_set.clear();
        self.staged.reserve(reserve);
        self.staged_set.reserve(reserve);
        for _ in 0..n_staged {
            let ty_off = pos;
            let code = *body
                .get(pos)
                .ok_or(Error::UnexpectedEof { offset: base + pos })?;
            pos += 1;
            let ty = type_from_code(code).ok_or(err("unknown sensor type code", ty_off))?;
            let index_raw = get_varint(body, &mut pos).map_err(|e| rebase(e, base))?;
            let index =
                u32::try_from(index_raw).map_err(|_| err("sensor index exceeds 32 bits", pos))?;
            let id = SensorId::new(ty, index);
            if dict.code_of(id).is_some() || !self.staged_set.insert(id) {
                return Err(err("dictionary re-adds a known sensor", ty_off));
            }
            self.staged.push(id);
        }
        let committed = dict.len() as u64;
        column(&mut pos, n, &mut self.codes)?;
        self.sensors.clear();
        self.sensors.reserve(self.codes.len());
        // Records per sensor type: the length of each type's columns.
        let mut counts = [0u64; SensorType::ALL.len()];
        for &code in &self.codes {
            let sensor = if code < committed {
                dict.sensor_of(code)
            } else {
                self.staged.get((code - committed) as usize).copied()
            }
            .ok_or(err("sensor code out of range", pos))?;
            counts[sensor.sensor_type().ordinal()] += 1;
            self.sensors.push(sensor);
        }
        column(&mut pos, n, &mut self.timestamps)?;
        for ty in SensorType::ALL {
            let t = ty.ordinal();
            let values = &mut self.values[t];
            values.clear();
            self.fields[t].clear();
            self.frame_bytes[t] = 0;
            if counts[t] == 0 {
                continue;
            }
            let frames_start = pos;
            column(&mut pos, counts[t], values)?;
            match ty.shape() {
                Shape::Scalar | Shape::Counter => {}
                Shape::Flag => {
                    if values.iter().any(|&v| v > 1) {
                        return Err(err("flag value out of range", pos));
                    }
                }
                Shape::Level => {
                    if values.iter().any(|&v| v > u64::from(u8::MAX)) {
                        return Err(err("level value out of range", pos));
                    }
                }
                Shape::Composite { .. } => {
                    let mut total = 0u64;
                    for &c in values.iter() {
                        if c > MAX_COMPOSITE_FIELDS {
                            return Err(err("composite wider than the columnar limit", pos));
                        }
                        total += c;
                    }
                    column(&mut pos, total, &mut self.fields[t])?;
                }
            }
            self.frame_bytes[t] = pos - frames_start;
        }
        if pos != body.len() {
            return Err(err("trailing bytes after the last column", pos));
        }
        self.end = base + pos;
        Ok(())
    }

    /// Walks the decoded records in order, handing `visit` each one's
    /// sensor, timestamp, value-column entry (a composite's field count)
    /// and composite fields (empty for every other shape). Stops at, and
    /// returns `false` for, the first `false` `visit` returns.
    fn walk(&self, mut visit: impl FnMut(SensorId, u64, u64, &[u64]) -> bool) -> Result<bool> {
        let short = || Error::Malformed {
            reason: "value column shorter than its records",
            offset: self.end,
        };
        let mut next = [0usize; SensorType::ALL.len()];
        let mut next_field = [0usize; SensorType::ALL.len()];
        for (&sensor, &ts) in self.sensors.iter().zip(&self.timestamps) {
            let ty = sensor.sensor_type();
            let t = ty.ordinal();
            let v = *self.values[t].get(next[t]).ok_or_else(short)?;
            next[t] += 1;
            let fields: &[u64] = if let Shape::Composite { .. } = ty.shape() {
                let from = next_field[t];
                next_field[t] = from + v as usize;
                self.fields[t].get(from..next_field[t]).ok_or_else(short)?
            } else {
                &[]
            };
            if !visit(sensor, ts, v, fields) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The decoded batch as readings.
    fn readings(&self) -> Result<Vec<Reading>> {
        let mut readings = Vec::with_capacity(self.sensors.len());
        self.walk(|sensor, ts, v, fields| {
            let value = shape_value(sensor.sensor_type().shape(), v, fields);
            readings.push(Reading::new(sensor, ts, value));
            true
        })?;
        Ok(readings)
    }

    /// Whether the decoded batch is `batch`, record for record.
    fn matches<R: AsRef<Reading>>(&self, batch: &[R]) -> Result<bool> {
        if batch.len() != self.sensors.len() {
            return Ok(false);
        }
        let mut records = batch.iter().map(AsRef::as_ref);
        self.walk(|sensor, ts, v, fields| {
            records.next().is_some_and(|r| {
                r.sensor() == sensor
                    && r.timestamp_s() == ts
                    && value_matches(sensor.sensor_type().shape(), r.value(), v, fields)
            })
        })
    }
}

/// The value a decoded column entry `v` stands for under `shape` (for a
/// composite, `v` is the field count and `fields` the zigzag fields).
/// The entry has passed its shape's range check.
fn shape_value(shape: Shape, v: u64, fields: &[u64]) -> Value {
    match shape {
        Shape::Scalar => Value::Scalar(unzigzag(v)),
        Shape::Counter => Value::Counter(v),
        Shape::Flag => Value::Flag(v == 1),
        Shape::Level => Value::Level(v as u8),
        Shape::Composite { .. } => Value::Composite(fields.iter().map(|&f| unzigzag(f)).collect()),
    }
}

/// Whether `value` equals [`shape_value`]`(shape, v, fields)`, decided
/// by encoding `value` rather than decoding the entry.
fn value_matches(shape: Shape, value: &Value, v: u64, fields: &[u64]) -> bool {
    match (shape, value) {
        (Shape::Scalar, Value::Scalar(x)) => zigzag(*x) == v,
        (Shape::Counter, Value::Counter(c)) => *c == v,
        (Shape::Flag, Value::Flag(b)) => u64::from(*b) == v,
        (Shape::Level, Value::Level(l)) => u64::from(*l) == v,
        (Shape::Composite { .. }, Value::Composite(fs)) => {
            fs.len() == fields.len() && fs.iter().zip(fields).all(|(&f, &z)| zigzag(f) == z)
        }
        _ => false,
    }
}

/// One-shot encode with a fresh dictionary (tests, ad-hoc tools).
///
/// # Errors
///
/// As [`StreamEncoder::encode_batch`].
pub fn encode_once(readings: &[Reading]) -> Result<Vec<u8>> {
    StreamEncoder::new().encode_batch(readings)
}

/// One-shot decode with a fresh dictionary (tests, ad-hoc tools).
///
/// # Errors
///
/// As [`StreamDecoder::decode_batch`].
pub fn decode_once(data: &[u8]) -> Result<Vec<Reading>> {
    StreamDecoder::new().decode_batch(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scalar(idx: u32, ts: u64, v: f64) -> Reading {
        Reading::new(
            SensorId::new(SensorType::Temperature, idx),
            ts,
            Value::from_f64(v),
        )
    }

    #[test]
    fn varint_roundtrips_edge_values() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overlong_and_truncated() {
        assert!(matches!(
            get_varint(&[0x80; 11], &mut 0),
            Err(Error::Malformed { .. })
        ));
        assert!(matches!(
            get_varint(&[0x80, 0x80], &mut 0),
            Err(Error::UnexpectedEof { .. })
        ));
        // 10th byte may only contribute one bit.
        let mut overflow = vec![0xFF; 9];
        overflow.push(0x02);
        assert!(matches!(
            get_varint(&overflow, &mut 0),
            Err(Error::Malformed { .. })
        ));
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 4711, -4711] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn every_technique_roundtrips_every_shape() {
        let shapes: Vec<Vec<u64>> = vec![
            vec![],
            vec![42],
            vec![7; 100],
            (0..100u64).map(|i| 900 * i).collect(),
            vec![u64::MAX, 0, u64::MAX, 1],
            (0..50u64).map(|i| (i * i) ^ 0xABCD).collect(),
        ];
        for technique in Technique::ALL {
            for values in &shapes {
                let mut buf = Vec::new();
                encode_column_as(technique, values, &mut buf);
                let mut pos = 0;
                let (t, back) = decode_column(&buf, &mut pos, values.len() as u64)
                    .unwrap_or_else(|e| panic!("{technique:?} over {values:?}: {e}"));
                assert_eq!(t, technique);
                assert_eq!(&back, values, "{technique:?}");
                assert_eq!(pos, buf.len());
            }
        }
    }

    /// The frame `encode_column_as` writes is `tag | varint body_len | body`.
    fn forced_body_len(technique: Technique, values: &[u64]) -> usize {
        let mut frame = Vec::new();
        encode_column_as(technique, values, &mut frame);
        let mut pos = 1;
        let declared = get_varint(&frame, &mut pos).unwrap() as usize;
        assert_eq!(frame.len() - pos, declared, "{technique:?} frame header");
        declared
    }

    fn assert_costs_match_bodies(values: &[u64]) {
        let mut dict = DictProbe::default();
        for technique in Technique::ALL {
            assert_eq!(
                body_len(technique, values, &mut dict, usize::MAX),
                forced_body_len(technique, values),
                "{technique:?} over {values:?}"
            );
        }
    }

    /// The probe as it was: one sizing pass per technique, in probe
    /// order, each length the bytes of that technique's body, `Dict`
    /// probed against the best so far. Returns the choice and every
    /// length (`Dict`'s as probed).
    fn five_pass_probe(values: &[u64]) -> (Technique, [usize; 6]) {
        let mut dict = DictProbe::default();
        let mut lens = [0; 6];
        let mut best = Technique::Raw;
        let mut best_len = usize::MAX;
        for technique in Technique::ALL {
            let len = if technique == Technique::Dict {
                dict.probe(values, best_len)
            } else {
                let mut body = Vec::new();
                emit_body(technique, values, &dict, &mut body);
                body.len()
            };
            lens[technique.tag() as usize] = len;
            if len < best_len {
                best = technique;
                best_len = len;
            }
        }
        (best, lens)
    }

    fn assert_one_pass_probe_matches_five(values: &[u64]) {
        let (model_choice, model_lens) = five_pass_probe(values);
        let mut lens = body_lens(values);
        // `Dict` as `probe_column` probes it: against the best of the
        // techniques before it.
        let bound = lens[..Technique::Dict.tag() as usize]
            .iter()
            .copied()
            .min()
            .unwrap();
        lens[Technique::Dict.tag() as usize] = DictProbe::default().probe(values, bound);
        assert_eq!(lens, model_lens, "lengths over {values:?}");
        let mut frame = Vec::new();
        assert_eq!(
            encode_column(values, &mut frame),
            model_choice,
            "{values:?}"
        );
        let mut model_frame = Vec::new();
        encode_column_as(model_choice, values, &mut model_frame);
        assert_eq!(frame, model_frame, "frame over {values:?}");
    }

    #[test]
    fn one_pass_probe_matches_five_passes_on_edge_columns() {
        let wrapping: Vec<u64> = vec![u64::MAX, 0, u64::MAX - 1, 1, u64::MAX, 0];
        let edges: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![u64::MAX],
            vec![7, 7],
            vec![0, u64::MAX],
            vec![u64::MAX, 0],
            vec![u64::MAX; 50],
            vec![3; 500],
            wrapping,
            (0..300u64).map(|i| u64::MAX - 900 * i).collect(),
            (0..300u64).map(|i| 1_000_000 + 900 * i + i % 3).collect(),
        ];
        for values in &edges {
            assert_one_pass_probe_matches_five(values);
        }
    }

    #[test]
    fn size_only_costs_match_bodies_on_edge_columns() {
        assert_costs_match_bodies(&[]);
        for v in [0, 1, 127, 128, u64::MAX] {
            assert_eq!(varint_len(v), forced_body_len(Technique::Raw, &[v]));
            assert_costs_match_bodies(&[v]);
        }
        assert_costs_match_bodies(&[u64::MAX, 0, u64::MAX, 1]);
    }

    proptest! {
        #[test]
        fn size_only_costs_match_bodies_on_arbitrary_columns(
            wide in proptest::collection::vec(any::<u64>(), 0..200),
            narrow in proptest::collection::vec(0u64..6, 0..200),
        ) {
            assert_costs_match_bodies(&wide);
            assert_costs_match_bodies(&narrow);
        }

        #[test]
        fn one_pass_probe_matches_five_passes_on_arbitrary_columns(
            wide in proptest::collection::vec(any::<u64>(), 0..200),
            narrow in proptest::collection::vec(0u64..6, 0..200),
            start in any::<u64>(),
            steps in proptest::collection::vec(-3i64..4, 0..200),
        ) {
            assert_one_pass_probe_matches_five(&wide);
            assert_one_pass_probe_matches_five(&narrow);
            // A drifting cadence that may wrap past either end.
            let drift: Vec<u64> = steps
                .iter()
                .scan(start, |v, &s| {
                    *v = v.wrapping_add((900 + s) as u64);
                    Some(*v)
                })
                .collect();
            assert_one_pass_probe_matches_five(&drift);
        }

        #[test]
        fn a_dictionary_probe_that_bails_out_would_not_have_won(
            pool in proptest::collection::vec(any::<u64>(), 1..12),
            picks in proptest::collection::vec(0usize..1024, 0..200),
            noise in proptest::collection::vec(any::<u64>(), 0..8),
            limit in 0usize..600,
        ) {
            // Mostly repeats from a small pool (where the dictionary is
            // in contention), a little noise, and any limit.
            let mut values: Vec<u64> = picks.iter().map(|&i| pool[i % pool.len()]).collect();
            values.extend(noise);
            let mut dict = DictProbe::default();
            let exact = dict.probe(&values, usize::MAX);
            let bounded = dict.probe(&values, limit);
            prop_assert!(bounded <= exact, "a bound above the body: {} > {}", bounded, exact);
            if exact < limit {
                // It would have won: the probe must run to the end.
                prop_assert_eq!(bounded, exact);
                let mut body = Vec::new();
                dict.emit(&mut body);
                prop_assert_eq!(body.len(), exact);
            } else {
                prop_assert!(bounded >= limit, "bailed below the limit: {} < {}", bounded, limit);
            }
        }
    }

    #[test]
    fn probe_picks_dod_for_regular_timestamps_and_rle_for_runs() {
        let ts: Vec<u64> = (0..500u64).map(|i| 1_000_000 + 900 * i).collect();
        let mut buf = Vec::new();
        assert_eq!(encode_column(&ts, &mut buf), Technique::DeltaOfDelta);
        let runs = vec![3u64; 500];
        let mut buf2 = Vec::new();
        assert_eq!(encode_column(&runs, &mut buf2), Technique::Rle);
        // A regular period costs ~1 byte per record (zero residuals);
        // a constant run collapses to one (value, run) pair.
        assert!(
            buf.len() < 520 && buf2.len() < 10,
            "{} / {}",
            buf.len(),
            buf2.len()
        );
    }

    #[test]
    fn stream_roundtrips_and_dictionary_persists() {
        let mut enc = StreamEncoder::new();
        let mut dec = StreamDecoder::new();
        let wave =
            |t: u64| -> Vec<Reading> { (0..40).map(|i| scalar(i, t, 20.0 + i as f64)).collect() };
        let first = enc.encode_batch(&wave(900)).unwrap();
        let second = enc.encode_batch(&wave(1800)).unwrap();
        assert_eq!(enc.dict_len(), 40);
        assert!(
            second.len() < first.len(),
            "second batch must ride the dictionary ({} vs {})",
            second.len(),
            first.len()
        );
        assert_eq!(dec.decode_batch(&first).unwrap(), wave(900));
        assert_eq!(dec.decode_batch(&second).unwrap(), wave(1800));
        assert_eq!(dec.dict_len(), 40);
    }

    /// An irregular value, one its type's shape does not admit, no
    /// longer rides a DEFLATE fallback: the batch is refused and the
    /// first such record is named.
    #[test]
    fn irregular_values_ride_the_fallback() {
        // A parking spot shipping a scalar contradicts its shape; the
        // batch's first record is fine and the second is named.
        let mut enc = StreamEncoder::new();
        let odd = vec![
            Reading::new(
                SensorId::new(SensorType::ParkingSpot, 0),
                900,
                Value::Flag(true),
            ),
            Reading::new(
                SensorId::new(SensorType::ParkingSpot, 1),
                900,
                Value::Scalar(200),
            ),
        ];
        assert!(matches!(
            enc.encode_batch(&odd),
            Err(Error::UnshippableRecord { record: 1, .. })
        ));
        assert_eq!(enc.dict_len(), 0);
        // A composite past the columnar limit is refused the same way.
        let wide = vec![Reading::new(
            SensorId::new(SensorType::Weather, 0),
            900,
            Value::Composite(vec![0; MAX_COMPOSITE_FIELDS as usize + 1]),
        )];
        assert!(matches!(
            enc.encode_batch(&wide),
            Err(Error::UnshippableRecord { record: 0, .. })
        ));
        assert_eq!(enc.dict_len(), 0);
    }

    /// The refusal that took the fallback's place commits no dictionary
    /// state: a `commit` after it keeps `dict_len`, and the next batch
    /// decodes against a decoder that saw only the committed ones.
    #[test]
    fn fallback_commits_no_dictionary_state() {
        let mut enc = StreamEncoder::new();
        let mut dec = StreamDecoder::new();
        let first = vec![scalar(0, 900, 20.0)];
        assert_eq!(
            dec.decode_batch(&enc.encode_batch(&first).unwrap()),
            Ok(first.clone())
        );
        assert_eq!(enc.dict_len(), 1);
        let odd = vec![
            scalar(1, 1800, 21.0),
            Reading::new(
                SensorId::new(SensorType::ParkingSpot, 1),
                1800,
                Value::Scalar(200),
            ),
        ];
        assert!(enc.stage_batch(&odd).is_err());
        enc.commit();
        assert_eq!(enc.dict_len(), 1);
        let next = vec![scalar(0, 2700, 20.5), scalar(2, 2700, 22.0)];
        assert_eq!(
            dec.decode_batch(&enc.encode_batch(&next).unwrap()),
            Ok(next)
        );
        assert_eq!((enc.dict_len(), dec.dict_len()), (2, 2));
        let mut fresh = StreamEncoder::new();
        assert!(fresh.stage_batch(&odd).is_err());
        fresh.commit();
        assert_eq!(fresh.dict_len(), 0);
        let packed = fresh.encode_batch(&first).unwrap();
        assert_eq!(StreamDecoder::new().decode_batch(&packed), Ok(first));
    }

    #[test]
    fn empty_batch_roundtrips() {
        let packed = encode_once(&[]).unwrap();
        assert_eq!(decode_once(&packed).unwrap(), Vec::<Reading>::new());
    }

    #[test]
    fn decoder_rejects_bad_magic_and_bitflips() {
        let batch: Vec<Reading> = (0..20)
            .map(|i| scalar(i, 900 * u64::from(i), 21.0))
            .collect();
        let packed = encode_once(&batch).unwrap();
        let mut wrong = packed.clone();
        wrong[0] = b'X';
        assert!(matches!(decode_once(&wrong), Err(Error::BadMagic { .. })));
        for i in 4..packed.len() {
            let mut flipped = packed.clone();
            flipped[i] ^= 0x10;
            assert!(decode_once(&flipped).is_err(), "flip at {i} must fail");
        }
    }

    #[test]
    fn decoder_rejects_every_truncation() {
        let batch: Vec<Reading> = (0..20)
            .map(|i| scalar(i, 900 * u64::from(i), 21.0))
            .collect();
        let packed = encode_once(&batch).unwrap();
        for len in 0..packed.len() {
            assert!(
                decode_once(&packed[..len]).is_err(),
                "prefix {len} must fail"
            );
        }
    }

    #[test]
    fn mixed_type_batch_roundtrips() {
        let mut batch = Vec::new();
        for i in 0..10u32 {
            batch.push(Reading::new(
                SensorId::new(SensorType::ParkingSpot, i),
                900,
                Value::Flag(i % 2 == 0),
            ));
            batch.push(Reading::new(
                SensorId::new(SensorType::Traffic, i),
                900,
                Value::Counter(u64::from(i) * 17),
            ));
            batch.push(Reading::new(
                SensorId::new(SensorType::ContainerGlass, i),
                901,
                Value::Level((i % 100) as u8),
            ));
            batch.push(Reading::new(
                SensorId::new(SensorType::Weather, i),
                902,
                Value::Composite(vec![2100 + i64::from(i), -50, 10_132]),
            ));
        }
        let packed = encode_once(&batch).unwrap();
        assert_eq!(packed[4], MODE_COLUMNAR);
        assert_eq!(decode_once(&packed).unwrap(), batch);
    }

    #[test]
    fn type_frames_and_shared_bytes_make_up_the_payload() {
        let batch: Vec<Reading> = (0..10u32)
            .flat_map(|i| {
                [
                    scalar(i, 900 + u64::from(i), f64::from(i) * 0.5),
                    Reading::new(
                        SensorId::new(SensorType::Traffic, i),
                        900,
                        Value::Counter(u64::from(i) * 17),
                    ),
                    Reading::new(
                        SensorId::new(SensorType::Weather, i),
                        902,
                        Value::Composite(vec![2100 + i64::from(i), -50, 10_132]),
                    ),
                ]
            })
            .collect();
        let mut encoder = StreamEncoder::new();
        let mut decoder = StreamDecoder::new();
        let packed = encoder.encode_batch(&batch).unwrap();
        decoder.decode_batch(&packed).unwrap();
        let present = [
            SensorType::Temperature,
            SensorType::Traffic,
            SensorType::Weather,
        ];
        for ty in SensorType::ALL {
            assert_eq!(
                decoder.type_frame_bytes(ty) > 0,
                present.contains(&ty),
                "{ty:?}"
            );
        }
        // Shared: the envelope, the record count, the dictionary block
        // and the code and timestamp frames.
        let body = &packed[BODY_OFFSET..packed.len() - 4];
        let mut pos = 0;
        let n = get_varint(body, &mut pos).unwrap();
        for _ in 0..get_varint(body, &mut pos).unwrap() {
            pos += 1;
            get_varint(body, &mut pos).unwrap();
        }
        decode_column(body, &mut pos, n).unwrap();
        decode_column(body, &mut pos, n).unwrap();
        let typed: usize = present.iter().map(|&ty| decoder.type_frame_bytes(ty)).sum();
        assert_eq!(typed + ENVELOPE_LEN + pos, packed.len());
        // The next batch of the stream holds no weather reading.
        let next = encoder.encode_batch(&batch[..2]).unwrap();
        decoder.decode_batch(&next).unwrap();
        assert!(decoder.type_frame_bytes(SensorType::Traffic) > 0);
        assert_eq!(decoder.type_frame_bytes(SensorType::Weather), 0);
    }
}
