//! The reference the sparse-first sketch is held to: the dense
//! `Vec<u8>` + `powi` HyperLogLog and the partial wire codec as they
//! were before registers went sparse-first, kept here so the tests can
//! demand the same registers, the same estimate and the same bytes.
//! Shared by `partial_robustness.rs` and `proptest_invariants.rs`; each
//! uses part of it.
#![allow(dead_code)]

use f2c_aggregate::functions::{Decomposable, MinMax, Moments};
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

const MAGIC: [u8; 4] = *b"AGP1";
const PRECISION: u32 = 10;

/// A partial as the reference codec sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct RefPartial {
    pub moments: Moments,
    pub minmax: MinMax,
    pub distinct: DenseHll,
}

impl RefPartial {
    pub fn empty() -> Self {
        Self {
            moments: Moments::empty(),
            minmax: MinMax::empty(),
            distinct: DenseHll::new(PRECISION),
        }
    }

    pub fn absorb(&mut self, magnitude: f64, sensor_key: u64) {
        self.moments.absorb(magnitude);
        self.minmax.absorb(magnitude);
        self.distinct.add(&sensor_key.to_le_bytes());
    }

    pub fn merge(&mut self, other: &Self) {
        self.moments.merge(&other.moments);
        self.minmax.merge(&other.minmax);
        self.distinct.merge(&other.distinct);
    }

    pub fn distinct_estimate(&self) -> u64 {
        if self.moments.count == 0 {
            0
        } else {
            self.distinct.estimate()
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = header(&self.moments, &self.minmax);
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

    /// `None` where the decoder refuses.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 4 + 2 + 5 * 8 + 1 + 4 {
            return None;
        }
        let (body, crc) = bytes.split_at(bytes.len() - 4);
        if crc32::checksum(body).to_le_bytes() != crc {
            return None;
        }
        if body[0..4] != MAGIC || u32::from(body[4]) != PRECISION || body[5] > 1 {
            return None;
        }
        let u64_at = |off: usize| u64::from_le_bytes(body[off..off + 8].try_into().unwrap());
        let mut distinct = DenseHll::new(PRECISION);
        let regs = &body[47..];
        match body[46] {
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
            moments: Moments {
                count: u64_at(6),
                sum: f64::from_bits(u64_at(14)),
                sum_sq: f64::from_bits(u64_at(22)),
            },
            minmax: if body[5] == 1 {
                MinMax {
                    min: Some(f64::from_bits(u64_at(30))),
                    max: Some(f64::from_bits(u64_at(38))),
                }
            } else {
                MinMax::empty()
            },
            distinct,
        })
    }
}

/// Everything before the register block's mode byte.
pub fn header(moments: &Moments, minmax: &MinMax) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.push(PRECISION as u8);
    out.push(u8::from(minmax.min.is_some()));
    out.extend_from_slice(&moments.count.to_le_bytes());
    out.extend_from_slice(&moments.sum.to_bits().to_le_bytes());
    out.extend_from_slice(&moments.sum_sq.to_bits().to_le_bytes());
    out.extend_from_slice(&minmax.min.unwrap_or(0.0).to_bits().to_le_bytes());
    out.extend_from_slice(&minmax.max.unwrap_or(0.0).to_bits().to_le_bytes());
    out
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
