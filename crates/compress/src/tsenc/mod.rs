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
//! only when the receiver has decoded the batch.
//!
//! A batch also ships where each record was acquired: one section column
//! ([`Located::section`]), which a fog-1 batch fills with one run and a
//! fog-2 batch with one run per child shipment. The receiver names the
//! sections it accepts from the sender
//! ([`StreamDecoder::decode_records`]) and refuses a batch that names
//! another with [`Error::ForeignSection`], so it stores what it decodes.
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
//! "TSF2" | mode u8 = 0 | body … | crc32(mode‖body) LE u32
//! ```
//!
//! The envelope is [`ENVELOPE_LEN`] bytes; the mode byte is always
//! [`MODE_COLUMNAR`], and a decoder refuses any other. The body:
//! `varint n_records`, the dictionary-additions block
//! (`varint n_new`, then `(type_code u8, varint index)` per new sensor
//! in first-appearance order), then framed columns — sensor codes,
//! sections, timestamps, and per-type value columns in `SensorType::ALL` order
//! (composites ship a field-count column and a flattened field column).
//! Every column frame is `tag u8 | varint body_len | body`, and every
//! count is validated against the declared record count, so truncated,
//! bit-flipped and length-lying streams fail with an [`Error`] instead
//! of panicking or over-allocating.

mod column;

use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;
use std::ops::RangeInclusive;

use scc_sensors::idhash::BuildIdHasher;
use scc_sensors::{heap, IdMap, Located, Reading, SensorId, SensorType, Shape, Value};

use crate::crc32;
use crate::error::{Error, Result};
use column::{decode_column_into, get_varint, probe_column, rebase, unzigzag, zigzag, DictProbe};

pub use column::{decode_column, encode_column, encode_column_as, put_varint, Technique};

/// Stream magic: "TSF2" (time-series flush, format 2: format 1 plus
/// the section column).
pub const MAGIC: [u8; 4] = *b"TSF2";

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
// The persistent sensor dictionary.
// ---------------------------------------------------------------------------

/// Maps sensors to dense codes, in first-appearance order across the
/// lifetime of a stream. The encoder and decoder each hold one, and the
/// two stay in lock-step as long as each side commits exactly the
/// batches the other does, in order: the decoder a batch it decoded,
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
    /// Heap bytes of the codes and their index (it only grows).
    fn heap_bytes(&self) -> u64 {
        heap::vec_bytes(&self.ids) + heap::table_bytes::<(SensorId, u64)>(self.index.capacity())
    }

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
/// order; the matching [`StreamDecoder`] must decode exactly
/// the payloads this side committed, once each, in the same order.
///
/// A stream keeps only what outlives a batch: its dictionary, and the
/// additions a staged batch waits to commit. The columns a batch is
/// transposed into belong to the encoding thread, which reuses them for
/// every stream it encodes.
#[derive(Debug, Default)]
pub struct StreamEncoder {
    dict: SensorDict<BuildIdHasher>,
    /// Sensors the staged batch adds to the dictionary, first-appearance
    /// order: held from [`StreamEncoder::stage_batch`] to
    /// [`StreamEncoder::commit`] or [`StreamEncoder::discard`].
    staged: Vec<SensorId>,
}

thread_local! {
    /// The encoding thread's columns, shared by every stream it encodes.
    static COLUMNS: RefCell<ColumnScratch> = RefCell::default();
    /// The decoding thread's columns, shared by every stream it decodes.
    static DECODED: RefCell<DecodedColumns> = RefCell::default();
}

/// The transposed batch: column vectors a thread reuses across every
/// batch of every stream it encodes, so a warm thread encodes without
/// allocating. Nothing in them outlives the batch, so no stream keeps
/// them at rest: they are working memory, like a batch in flight.
#[derive(Debug, Default)]
struct ColumnScratch {
    codes: Vec<u64>,
    sections: Vec<u64>,
    timestamps: Vec<u64>,
    /// One value column per sensor type, in `SensorType::ALL` order
    /// (for a composite type: its records' field counts).
    values: [Vec<u64>; SensorType::ALL.len()],
    /// The flattened zigzag fields of each composite type.
    fields: [Vec<u64>; SensorType::ALL.len()],
    /// The code each of the batch's additions was given.
    staged_index: IdMap<SensorId, u64>,
    probe: DictProbe,
}

impl ColumnScratch {
    /// Transposes `readings` into the columns in one pass, staging in
    /// `staged` the sensors `dict` has not committed.
    ///
    /// # Errors
    ///
    /// [`Error::UnshippableRecord`] for the first reading whose value is
    /// of another variant than its type's [`Shape`], or whose composite
    /// exceeds the columnar limits; the columns are then partial.
    fn transpose<R: Located>(
        &mut self,
        dict: &SensorDict<BuildIdHasher>,
        staged: &mut Vec<SensorId>,
        readings: &[R],
    ) -> Result<()> {
        self.codes.clear();
        self.sections.clear();
        self.timestamps.clear();
        self.values.iter_mut().for_each(Vec::clear);
        self.fields.iter_mut().for_each(Vec::clear);
        staged.clear();
        self.staged_index.clear();
        let committed = dict.len() as u64;
        for (record, located) in readings.iter().enumerate() {
            let r = located.as_ref();
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
                    staged.push(id);
                    committed + staged.len() as u64 - 1
                })
            });
            self.codes.push(code);
            self.sections.push(u64::from(located.section()));
            self.timestamps.push(r.timestamp_s());
        }
        Ok(())
    }

    /// Writes the columnar body of the transposed batch, whose
    /// dictionary additions are `staged`.
    fn write_body(&mut self, staged: &[SensorId], out: &mut Vec<u8>) {
        put_varint(out, self.codes.len() as u64);
        put_varint(out, staged.len() as u64);
        for id in staged {
            out.push(type_code(id.sensor_type()));
            put_varint(out, u64::from(id.index()));
        }
        probe_column(&self.codes, &mut self.probe, out);
        probe_column(&self.sections, &mut self.probe, out);
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

    /// Heap bytes at rest: the dictionary and the staged additions'
    /// vector.
    pub fn heap_bytes(&self) -> u64 {
        self.dict.heap_bytes() + heap::vec_bytes(&self.staged)
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
    pub fn encode_batch<R: Located>(&mut self, readings: &[R]) -> Result<Vec<u8>> {
        let payload = self.stage_batch(readings)?;
        self.commit();
        Ok(payload)
    }

    /// Encodes one batch, holding its dictionary additions staged until
    /// [`StreamEncoder::commit`] (the receiver decoded the payload) or
    /// [`StreamEncoder::discard`] (it refused it, or it never arrived);
    /// the next staged batch also drops them. The batch is anything that
    /// lends readings and their sections ([`Located`]) — `&[Reading]`, or
    /// the records that wrap them — so a sender never copies its batch to
    /// encode it.
    ///
    /// # Errors
    ///
    /// [`Error::SizeLimitExceeded`] on a batch beyond [`MAX_RECORDS`];
    /// [`Error::UnshippableRecord`] on a value of another variant than
    /// its type's [`Shape`], or a composite beyond the columnar limits;
    /// then nothing is staged, and a `commit` leaves the dictionary as
    /// the last committed batch left it.
    pub fn stage_batch<R: Located>(&mut self, readings: &[R]) -> Result<Vec<u8>> {
        if readings.len() as u64 > MAX_RECORDS {
            return Err(Error::SizeLimitExceeded {
                declared: readings.len() as u64,
                limit: MAX_RECORDS,
            });
        }
        COLUMNS.with_borrow_mut(|columns| {
            if let Err(refused) = columns.transpose(&self.dict, &mut self.staged, readings) {
                self.discard();
                return Err(refused);
            }
            // A reserve, not a bound: warm flush traffic runs at three to
            // five bytes a record.
            let mut out = Vec::with_capacity(ENVELOPE_LEN + 16 + 4 * readings.len());
            out.extend_from_slice(&MAGIC);
            out.push(MODE_COLUMNAR);
            columns.write_body(&self.staged, &mut out);
            let crc = crc32::checksum(&out[MAGIC.len()..]);
            out.extend_from_slice(&crc.to_le_bytes());
            Ok(out)
        })
    }

    /// Commits the staged batch's dictionary additions; a no-op when
    /// nothing is staged.
    pub fn commit(&mut self) {
        for id in self.staged.drain(..) {
            self.dict.push(id);
        }
    }

    /// Drops the staged batch's dictionary additions, leaving the
    /// dictionary as the last committed batch left it.
    pub fn discard(&mut self) {
        self.staged.clear();
    }
}

/// Stateful batch decoder mirroring [`StreamEncoder`]: feed it each
/// payload that arrives, in shipping order. A payload it refuses commits
/// nothing, so its sender re-ships the records in a later batch.
///
/// A stream keeps its dictionary and the last batch's frame sizes; the
/// columns a batch decodes into belong to the decoding thread, which
/// reuses them for every stream it decodes.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    dict: SensorDict,
    /// Bytes of each type's value and field frames in the last batch.
    frame_bytes: [usize; SensorType::ALL.len()],
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

    /// Heap bytes at rest: the dictionary.
    pub fn heap_bytes(&self) -> u64 {
        self.dict.heap_bytes()
    }

    /// Committed dictionary entries so far.
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Decodes one batch into readings, whatever sections it names:
    /// [`StreamDecoder::decode_records`] over every section.
    ///
    /// # Errors
    ///
    /// As [`StreamDecoder::decode_records`], but never
    /// [`Error::ForeignSection`].
    pub fn decode_batch(&mut self, data: &[u8]) -> Result<Vec<Reading>> {
        self.decode_records(data, 0..=u16::MAX, |reading, _| reading)
    }

    /// Decodes one batch into the records `record` builds from each
    /// reading and its section, in shipping order. Every section must lie
    /// in `sections`, the ones the receiver accepts from this sender. The
    /// dictionary advances only on a successful decode — a stream that
    /// errors leaves the decoder state untouched, so the caller can
    /// refuse the shipment and await a clean re-delivery.
    ///
    /// # Errors
    ///
    /// [`Error::BadMagic`], [`Error::ChecksumMismatch`],
    /// [`Error::UnexpectedEof`], [`Error::SizeLimitExceeded`] or
    /// [`Error::Malformed`] on a damaged or lying stream, and
    /// [`Error::ForeignSection`] on a section outside `sections`; never
    /// panics, never allocates past the declared (validated) counts.
    pub fn decode_records<T>(
        &mut self,
        data: &[u8],
        sections: RangeInclusive<u16>,
        record: impl FnMut(Reading, u16) -> T,
    ) -> Result<Vec<T>> {
        DECODED.with_borrow_mut(|columns| {
            columns.decode(&self.dict, open(data)?, &sections, &mut self.frame_bytes)?;
            let records = columns.records(record)?;
            self.commit(columns);
            Ok(records)
        })
    }

    /// Bytes of `ty`'s value and field frames in the last batch decoded
    /// (0 if it held no `ty`); the rest of a payload is shared by its types.
    pub fn type_frame_bytes(&self, ty: SensorType) -> usize {
        self.frame_bytes[ty.ordinal()]
    }

    /// Commits the decoded batch's additions, exactly as the encoder did.
    fn commit(&mut self, columns: &DecodedColumns) {
        for &id in &columns.staged {
            self.dict.push(id);
        }
    }
}

/// One batch decoded column by column into vectors a thread reuses
/// across every batch of every stream it decodes; like
/// [`ColumnScratch`], working memory no stream keeps at rest.
/// [`StreamDecoder::decode_records`] assembles records from it.
#[derive(Debug, Default)]
struct DecodedColumns {
    /// Sensors the batch adds to the dictionary, first-appearance order;
    /// committed only once the whole batch has decoded.
    staged: Vec<SensorId>,
    staged_set: HashSet<SensorId>,
    codes: Vec<u64>,
    /// The codes resolved, one sensor per record.
    sensors: Vec<SensorId>,
    /// One section per record, each checked against the accepted ones.
    sections: Vec<u64>,
    timestamps: Vec<u64>,
    /// One value column per sensor type, laid out as the encoder's
    /// [`ColumnScratch`] lays it out, each checked against its shape.
    values: [Vec<u64>; SensorType::ALL.len()],
    /// The flattened zigzag fields of each composite type.
    fields: [Vec<u64>; SensorType::ALL.len()],
    /// Stream offset of the body's end.
    end: usize,
}

impl DecodedColumns {
    /// Decodes and validates every column of `body` against the
    /// committed dictionary `dict` and the accepted `sections`, leaving
    /// `dict` as it was, and writes the bytes of each type's value and
    /// field frames to `frame_bytes`.
    fn decode(
        &mut self,
        dict: &SensorDict,
        body: &[u8],
        sections: &RangeInclusive<u16>,
        frame_bytes: &mut [usize; SensorType::ALL.len()],
    ) -> Result<()> {
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
        column(&mut pos, n, &mut self.sections)?;
        for &section in &self.sections {
            let section =
                u16::try_from(section).map_err(|_| err("section exceeds 16 bits", pos))?;
            if !sections.contains(&section) {
                return Err(Error::ForeignSection { section });
            }
        }
        column(&mut pos, n, &mut self.timestamps)?;
        for ty in SensorType::ALL {
            let t = ty.ordinal();
            let values = &mut self.values[t];
            values.clear();
            self.fields[t].clear();
            frame_bytes[t] = 0;
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
            frame_bytes[t] = pos - frames_start;
        }
        if pos != body.len() {
            return Err(err("trailing bytes after the last column", pos));
        }
        self.end = base + pos;
        Ok(())
    }

    /// The decoded batch as the records `record` builds from each
    /// reading and its section, in order.
    fn records<T>(&self, mut record: impl FnMut(Reading, u16) -> T) -> Result<Vec<T>> {
        let short = || Error::Malformed {
            reason: "value column shorter than its records",
            offset: self.end,
        };
        let mut next = [0usize; SensorType::ALL.len()];
        let mut next_field = [0usize; SensorType::ALL.len()];
        let mut records = Vec::with_capacity(self.sensors.len());
        let located = self.sensors.iter().zip(&self.sections);
        for ((&sensor, &section), &ts) in located.zip(&self.timestamps) {
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
            let value = shape_value(ty.shape(), v, fields);
            // `decode` checked every section against 16 bits.
            records.push(record(Reading::new(sensor, ts, value), section as u16));
        }
        Ok(records)
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
mod tests;
