//! How one integer column is coded: varints and zigzag, the six
//! [`Technique`]s, the size-only probe that picks one, and the frame.

use scc_sensors::IdMap;

use super::MAX_COLUMN_INTS;
use crate::error::{Error, Result};

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
pub(super) fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64> {
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
pub(super) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(super) fn unzigzag(u: u64) -> i64 {
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
    pub(super) fn tag(self) -> u8 {
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
    pub(super) fn from_tag(tag: u8) -> Option<Technique> {
        Technique::ALL.into_iter().find(|t| t.tag() == tag)
    }
}

/// Bytes [`put_varint`] writes for `v`: seven payload bits per byte, and
/// zero still takes one.
pub(super) fn varint_len(v: u64) -> usize {
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
pub(super) fn body_lens(values: &[u64]) -> [usize; Technique::ALL.len()] {
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
/// the column last probed. Kept between columns so a warm thread
/// probes without allocating.
#[derive(Debug, Default)]
pub(super) struct DictProbe {
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
    pub(super) fn probe(&mut self, values: &[u64], limit: usize) -> usize {
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
    pub(super) fn emit(&self, out: &mut Vec<u8>) {
        put_varint(out, self.distinct.len() as u64);
        emit_raw(&self.distinct, out);
        emit_raw(&self.codes, out);
    }
}

/// Writes `technique`'s body over `values`; for `Dict`, `dict` must hold
/// the completed probe of `values`.
pub(super) fn emit_body(technique: Technique, values: &[u64], dict: &DictProbe, out: &mut Vec<u8>) {
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
pub(super) fn body_len(
    technique: Technique,
    values: &[u64],
    dict: &mut DictProbe,
    limit: usize,
) -> usize {
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
pub(super) fn probe_column(values: &[u64], dict: &mut DictProbe, out: &mut Vec<u8>) -> Technique {
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
pub(super) fn decode_column_into(
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
pub(super) fn rebase(e: Error, base: usize) -> Error {
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
