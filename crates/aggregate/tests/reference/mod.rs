//! The reference the sparse-first sketch is held to: the dense
//! `Vec<u8>` + `powi` HyperLogLog as it was before registers went
//! sparse-first, and the partial wire codec re-derived from its layout,
//! kept here so the tests can demand the same registers, the same
//! estimate and the same bytes.
//! Shared by `partial_robustness.rs` and `proptest_invariants.rs`; each
//! uses part of it.
#![allow(dead_code)]

use f2c_aggregate::sketch::{HyperLogLog, Registers};
use f2c_compress::crc32;

/// All `2^precision` registers, by index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseHll {
    pub precision: u32,
    pub registers: Vec<u8>,
}

impl DenseHll {
    pub fn new(precision: u32) -> Self {
        Self {
            precision,
            registers: vec![0; 1 << precision],
        }
    }

    /// The dense expansion of a sketch under test.
    pub fn of(hll: &HyperLogLog) -> Self {
        let mut out = Self::new(hll.precision());
        match hll.registers() {
            Registers::Sparse(entries) => {
                for &(i, r) in entries {
                    out.registers[usize::from(i)] = r;
                }
            }
            Registers::Dense(block) => out.registers.copy_from_slice(block),
        }
        out
    }

    /// What `add(key)` does, learned from a one-element sketch (the
    /// hash is private; a single insertion has one way to come out).
    pub fn add(&mut self, key: &[u8]) {
        let mut probe = HyperLogLog::new(self.precision).unwrap();
        probe.add(key);
        self.merge(&Self::of(&probe));
    }

    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.precision, other.precision);
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
    }

    pub fn occupied(&self) -> usize {
        self.registers.iter().filter(|&&r| r != 0).count()
    }

    /// Whether the canonical form of these registers is the sparse one.
    pub fn is_sparse(&self) -> bool {
        self.occupied() * 3 < self.registers.len()
    }

    pub fn estimate(&self) -> u64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 2f64.powi(-i32::from(r)))
            .sum();
        let raw = alpha * m * m / sum;
        let zeros = self.registers.len() - self.occupied();
        let corrected = if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        };
        corrected.round() as u64
    }
}

const MAGIC: [u8; 4] = *b"AGP2";
const PRECISION: u32 = 10;

/// Bytes before the register block's mode byte: magic, precision,
/// count, sum, 16-byte sum of squares, min, max.
pub const MODE_AT: usize = 4 + 1 + 8 + 8 + 16 + 8 + 8;

/// A partial as the reference codec sees it: the scalars as the wire
/// carries them, in hundredths, and the dense registers.
#[derive(Debug, Clone, PartialEq)]
pub struct RefPartial {
    pub count: u64,
    pub sum: i64,
    pub sum_sq: i128,
    /// `(min, max)`, `None` while empty.
    pub extremes: Option<(f64, f64)>,
    pub distinct: DenseHll,
}

impl RefPartial {
    pub fn empty() -> Self {
        Self {
            count: 0,
            sum: 0,
            sum_sq: 0,
            extremes: None,
            distinct: DenseHll::new(PRECISION),
        }
    }

    /// Absorbs a magnitude in whole hundredths into the scalars alone.
    pub fn absorb_value(&mut self, magnitude: f64) {
        let h = (magnitude * 100.0).round() as i64;
        self.count += 1;
        self.sum += h;
        self.sum_sq += i128::from(h) * i128::from(h);
        self.extremes = Some(match self.extremes {
            None => (magnitude, magnitude),
            Some((lo, hi)) => (lo.min(magnitude), hi.max(magnitude)),
        });
    }

    pub fn absorb(&mut self, magnitude: f64, sensor_key: u64) {
        self.absorb_value(magnitude);
        self.distinct.add(&sensor_key.to_le_bytes());
    }

    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.extremes = match (self.extremes, other.extremes) {
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
            (one, None) | (None, one) => one,
        };
        self.distinct.merge(&other.distinct);
    }

    pub fn distinct_estimate(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.distinct.estimate()
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let (min, max) = self.extremes.unwrap_or((0.0, 0.0));
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(PRECISION as u8);
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.sum.to_le_bytes());
        out.extend_from_slice(&self.sum_sq.to_le_bytes());
        out.extend_from_slice(&min.to_bits().to_le_bytes());
        out.extend_from_slice(&max.to_bits().to_le_bytes());
        let registers = &self.distinct.registers;
        if self.distinct.is_sparse() {
            let entries: Vec<(u16, u8)> = registers
                .iter()
                .enumerate()
                .filter(|&(_, &r)| r != 0)
                .map(|(i, &r)| (i as u16, r))
                .collect();
            out.extend_from_slice(&sparse_block(&entries));
        } else {
            out.push(0);
            out.extend_from_slice(registers);
        }
        seal(out)
    }

    /// `None` where the decoder refuses: besides the layout, scalars no
    /// fold of absorbs produces — sums or extremes without a count, a
    /// negative sum of squares, `(Σx)² > n·Σx²` while `n·Σx² < 2^126`
    /// (the bound under which the sum is exact), non-finite or crossed
    /// extremes.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < MODE_AT + 1 + 4 {
            return None;
        }
        let (body, crc) = bytes.split_at(bytes.len() - 4);
        if crc32::checksum(body).to_le_bytes() != crc {
            return None;
        }
        if body[0..4] != MAGIC || u32::from(body[4]) != PRECISION {
            return None;
        }
        let count = u64::from_le_bytes(body[5..13].try_into().unwrap());
        let sum = i64::from_le_bytes(body[13..21].try_into().unwrap());
        let sum_sq = i128::from_le_bytes(body[21..37].try_into().unwrap());
        let min = f64::from_bits(u64::from_le_bytes(body[37..45].try_into().unwrap()));
        let max = f64::from_bits(u64::from_le_bytes(body[45..53].try_into().unwrap()));
        let extremes = if count == 0 {
            if sum != 0 || sum_sq != 0 || min.to_bits() != 0 || max.to_bits() != 0 {
                return None;
            }
            None
        } else {
            let exact = (count < u64::MAX)
                .then(|| i128::from(count).checked_mul(sum_sq))
                .flatten()
                .filter(|&scaled| scaled < 1 << 126);
            if sum_sq < 0 || exact.is_some_and(|scaled| i128::from(sum).pow(2) > scaled) {
                return None;
            }
            if !min.is_finite() || !max.is_finite() || min > max {
                return None;
            }
            Some((min, max))
        };
        let mut distinct = DenseHll::new(PRECISION);
        let regs = &body[MODE_AT + 1..];
        match body[MODE_AT] {
            0 if regs.len() == distinct.registers.len() => {
                distinct.registers.copy_from_slice(regs);
            }
            1 if regs.len() >= 2 => {
                let n = usize::from(u16::from_le_bytes([regs[0], regs[1]]));
                if regs.len() != 2 + n * 3 {
                    return None;
                }
                for entry in regs[2..].chunks_exact(3) {
                    let idx = usize::from(u16::from_le_bytes([entry[0], entry[1]]));
                    // Last write wins.
                    *distinct.registers.get_mut(idx)? = entry[2];
                }
            }
            _ => return None,
        }
        Some(Self {
            count,
            sum,
            sum_sq,
            extremes,
            distinct,
        })
    }
}

/// A sparse register block — mode byte, count, entries — exactly as
/// given: unsorted, duplicated, zero-ranked or over-long if the caller
/// says so.
pub fn sparse_block(entries: &[(u16, u8)]) -> Vec<u8> {
    let mut out = vec![1];
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    for &(idx, rank) in entries {
        out.extend_from_slice(&idx.to_le_bytes());
        out.push(rank);
    }
    out
}

/// Appends the CRC-32 a decoder will accept, so a crafted body reaches
/// the layout checks instead of dying at the checksum.
pub fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32::checksum(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}
