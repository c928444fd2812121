//! The mergeable aggregate partial and its CRC-checked wire encoding —
//! the unit the sketch plane ships up the F2C hierarchy.
//!
//! An [`AggPartial`] bundles the three §V.A-mergeable states one
//! aggregate answer needs: [`Moments`] (count/sum/sum-of-squares),
//! [`MinMax`] extremes, and a [`HyperLogLog`] distinct-sensor sketch.
//! Folding records into partials and merging partials commutes with a
//! flat fold exactly, for every field and in any order, which is what
//! lets fog-1 nodes pre-fold their flush batches and every tier above
//! merge instead of re-scanning.
//!
//! The wire form ([`AggPartial::encode`] / [`AggPartial::decode`]) is a
//! fixed little-endian layout with a sparse-or-dense register encoding
//! for the HyperLogLog and a trailing CRC-32 over everything before it,
//! so a corrupted shipment is detected at the receiving tier instead of
//! silently skewing a city-wide aggregate. The sketch's in-memory form
//! follows the same sparse-or-dense rule ([`Registers`]), so encoding
//! copies the registers out and decoding adopts them as they arrive.

// Lint ratchet: this module parses bytes it did not write.

use crate::functions::{Decomposable, MinMax, Moments};
use crate::sketch::hyperloglog::is_valid_precision;
use crate::sketch::{AggState, HyperLogLog, Registers};
use crate::{Error, Result};

/// HyperLogLog precision used by every [`AggPartial`] (1024 registers,
/// ~3% standard error — plenty for per-district sensor populations).
/// One fixed precision keeps every partial in the system mergeable.
pub const PARTIAL_HLL_PRECISION: u32 = 10;
const _: () = assert!(is_valid_precision(PARTIAL_HLL_PRECISION));

/// Wire magic of an encoded partial (`b"AGP2"`: integer sums).
const MAGIC: [u8; 4] = *b"AGP2";

/// Bytes before the register block: magic, precision, count, sum,
/// 16-byte sum of squares, min, max (zero when empty), mode.
const HEADER_LEN: usize = 4 + 1 + 8 + 8 + 16 + 8 + 8 + 1;

/// A mergeable partial aggregation state over a slice of observations —
/// moments + extremes + a distinct-sensor sketch, all of which merge
/// exactly (the §V.A decomposable/counting computation classes).
///
/// # Examples
///
/// A fold split across two nodes merges to the flat fold, and the wire
/// roundtrip is lossless:
///
/// ```
/// use f2c_aggregate::sketch::AggPartial;
///
/// let mut flat = AggPartial::empty();
/// let (mut a, mut b) = (AggPartial::empty(), AggPartial::empty());
/// for i in 0..100u64 {
///     flat.absorb(i as f64, i % 7);
///     if i % 2 == 0 { a.absorb(i as f64, i % 7) } else { b.absorb(i as f64, i % 7) }
/// }
/// let shipped = AggPartial::decode(&a.encode())?; // CRC-checked hop
/// let mut merged = shipped;
/// merged.merge(&b);
/// assert_eq!(merged, flat);
/// # Ok::<(), f2c_aggregate::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AggPartial {
    moments: Moments,
    minmax: MinMax,
    distinct: HyperLogLog,
}

impl AggPartial {
    /// The identity partial. Allocates nothing.
    pub fn empty() -> Self {
        Self {
            moments: Moments::empty(),
            minmax: MinMax::empty(),
            distinct: HyperLogLog::with_valid_precision(PARTIAL_HLL_PRECISION),
        }
    }

    /// Absorbs one observation: its magnitude into the moments and
    /// extremes, its producing sensor's identity into the distinct
    /// sketch.
    pub fn absorb(&mut self, magnitude: f64, sensor_key: u64) {
        self.moments.absorb(magnitude);
        self.minmax.absorb(magnitude);
        self.distinct.add(&sensor_key.to_le_bytes());
    }

    /// Merges another partial into this one; any order gives the same bits.
    pub fn merge(&mut self, other: &Self) {
        self.moments.merge(&other.moments);
        self.minmax.merge(&other.minmax);
        self.distinct.merge(&other.distinct);
    }

    /// Number of absorbed observations.
    pub fn count(&self) -> u64 {
        self.moments.count
    }

    /// Heap bytes of the distinct sketch's registers; the moments and
    /// extremes are held inline.
    pub fn heap_bytes(&self) -> u64 {
        self.distinct.heap_bytes()
    }

    /// The distinct sketch's register block.
    pub(super) fn registers(&self) -> &Registers {
        self.distinct.registers()
    }

    /// The distinct sketch, for the accumulator's model tests.
    #[cfg(test)]
    pub(super) fn sketch(&self) -> &HyperLogLog {
        &self.distinct
    }

    /// Merges a bare sketch into the distinct state — how tests hand a
    /// partial the crafted registers only a wire could deliver.
    #[cfg(test)]
    pub(super) fn merge_sketch(&mut self, sketch: &HyperLogLog) {
        self.distinct.merge(sketch);
    }

    /// Encodes the partial for shipping: magic, moments, extremes, the
    /// HyperLogLog registers (sparse when mostly empty, dense
    /// otherwise), and a trailing CRC-32 over everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let registers = self.registers();
        let block_len = match registers {
            Registers::Sparse(entries) => 2 + entries.len() * 3,
            Registers::Dense(block) => block.len(),
        };
        let mut out = Vec::with_capacity(HEADER_LEN + block_len + 4);
        out.extend_from_slice(&MAGIC);
        out.push(PARTIAL_HLL_PRECISION as u8);
        out.extend_from_slice(&self.moments.count.to_le_bytes());
        out.extend_from_slice(&self.moments.sum.to_le_bytes());
        out.extend_from_slice(&self.moments.sum_sq);
        let (min, max) = self.minmax.extremes().unwrap_or((0.0, 0.0));
        out.extend_from_slice(&min.to_le_bytes());
        out.extend_from_slice(&max.to_le_bytes());
        // Sparse beats dense while fewer than a third of the registers
        // are occupied (3 bytes per entry vs 1 byte per register) — the
        // rule the sketch already holds its registers by.
        match registers {
            Registers::Sparse(entries) => {
                out.push(1);
                out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                for &(idx, rank) in entries {
                    out.extend_from_slice(&idx.to_le_bytes());
                    out.push(rank);
                }
            }
            Registers::Dense(block) => {
                out.push(0);
                out.extend_from_slice(block);
            }
        }
        let crc = f2c_compress::crc32::checksum(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a shipped partial, verifying the layout and the CRC.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptPartial`] on a short buffer, bad magic, precision
    /// mismatch, moments or extremes no absorb produces, malformed
    /// register block, or checksum failure.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let corrupt = |reason: &'static str| Error::CorruptPartial { reason };
        if bytes.len() < HEADER_LEN + 4 {
            return Err(corrupt("short buffer"));
        }
        let (mut rest, crc) = bytes
            .split_last_chunk::<4>()
            .ok_or(corrupt("short buffer"))?;
        if f2c_compress::crc32::checksum(rest) != u32::from_le_bytes(*crc) {
            return Err(corrupt("checksum mismatch"));
        }
        if take::<4>(&mut rest)? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let [precision] = take(&mut rest)?;
        if u32::from(precision) != PARTIAL_HLL_PRECISION {
            return Err(corrupt("precision mismatch"));
        }
        let moments = Moments {
            count: u64::from_le_bytes(take(&mut rest)?),
            sum: i64::from_le_bytes(take(&mut rest)?),
            sum_sq: take(&mut rest)?,
        };
        if !moments.reachable() {
            return Err(corrupt("moments no absorb produces"));
        }
        let min = f64::from_le_bytes(take(&mut rest)?);
        let max = f64::from_le_bytes(take(&mut rest)?);
        let minmax = match moments.count {
            0 if (min.to_bits(), max.to_bits()) == (0, 0) => MinMax::empty(),
            1.. if min <= max && min.is_finite() && max.is_finite() => MinMax { min, max },
            _ => return Err(corrupt("extremes no absorb produces")),
        };
        let [mode] = take(&mut rest)?;
        let regs = rest;
        let distinct = match mode {
            0 => {
                if regs.len() != 1 << PARTIAL_HLL_PRECISION {
                    return Err(corrupt("dense register block length"));
                }
                HyperLogLog::from_registers(PARTIAL_HLL_PRECISION, regs.to_vec())?
            }
            1 => {
                let (n, entries) = regs
                    .split_first_chunk::<2>()
                    .ok_or(corrupt("sparse register header"))?;
                if entries.len() != usize::from(u16::from_le_bytes(*n)) * 3 {
                    return Err(corrupt("sparse register block length"));
                }
                let entries = entries
                    .chunks_exact(3)
                    .map(|e| (u16::from_le_bytes([e[0], e[1]]), e[2]))
                    .collect();
                HyperLogLog::from_sparse(PARTIAL_HLL_PRECISION, entries)
                    .map_err(|_| corrupt("sparse register index out of range"))?
            }
            _ => return Err(corrupt("bad register mode")),
        };
        Ok(Self {
            moments,
            minmax,
            distinct,
        })
    }
}

impl AggState for AggPartial {
    fn absorb(&mut self, magnitude: f64, sensor_key: u64) {
        AggPartial::absorb(self, magnitude, sensor_key);
    }

    fn merge(&mut self, other: &AggPartial) {
        AggPartial::merge(self, other);
    }

    fn moments(&self) -> &Moments {
        &self.moments
    }

    fn minmax(&self) -> &MinMax {
        &self.minmax
    }

    fn distinct_estimate(&self) -> u64 {
        if self.moments.count == 0 {
            0
        } else {
            self.distinct.estimate()
        }
    }
}

/// Splits the next `N` bytes off the front of `rest`.
fn take<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N]> {
    let (head, tail) = rest.split_first_chunk::<N>().ok_or(Error::CorruptPartial {
        reason: "short buffer",
    })?;
    *rest = tail;
    Ok(*head)
}

impl Default for AggPartial {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u64, distinct: u64) -> AggPartial {
        let mut p = AggPartial::empty();
        for i in 0..n {
            p.absorb((i % 13) as f64 - 3.0, i % distinct.max(1));
        }
        p
    }

    #[test]
    fn roundtrip_is_lossless() {
        for p in [AggPartial::empty(), filled(1, 1), filled(500, 40)] {
            let wire = p.encode();
            assert_eq!(AggPartial::decode(&wire).unwrap(), p);
        }
    }

    #[test]
    fn sparse_encoding_shrinks_small_partials() {
        let empty = AggPartial::empty().encode();
        let small = filled(8, 8).encode();
        let big = filled(100_000, 100_000).encode();
        assert!(empty.len() < 64, "empty partial is {}B", empty.len());
        assert!(small.len() < 128, "small partial is {}B", small.len());
        // A saturated sketch falls back to the dense register block.
        assert!(big.len() > 1_024 && big.len() < 1_200);
    }

    #[test]
    fn corruption_is_detected() {
        let mut wire = filled(64, 9).encode();
        let mid = wire.len() / 2;
        wire[mid] ^= 0x40;
        assert!(matches!(
            AggPartial::decode(&wire),
            Err(Error::CorruptPartial { .. })
        ));
        assert!(matches!(
            AggPartial::decode(&wire[..10]),
            Err(Error::CorruptPartial { .. })
        ));
        assert!(matches!(
            AggPartial::decode(&[]),
            Err(Error::CorruptPartial { .. })
        ));
    }

    #[test]
    fn truncation_and_magic_are_detected() {
        let wire = filled(64, 9).encode();
        // Recompute a valid CRC over a truncated body: the layout checks
        // must still refuse it.
        let mut cut = wire[..wire.len() - 10].to_vec();
        let crc = f2c_compress::crc32::checksum(&cut);
        cut.extend_from_slice(&crc.to_le_bytes());
        assert!(AggPartial::decode(&cut).is_err());

        let mut relabeled = wire.clone();
        relabeled[0] = b'X';
        let body_len = relabeled.len() - 4;
        let crc = f2c_compress::crc32::checksum(&relabeled[..body_len]);
        relabeled[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            AggPartial::decode(&relabeled),
            Err(Error::CorruptPartial {
                reason: "bad magic"
            })
        ));
    }

    #[test]
    fn merge_of_decoded_equals_merge_of_originals() {
        let a = filled(300, 25);
        let b = filled(77, 11);
        let mut direct = a.clone();
        direct.merge(&b);
        let mut wired = AggPartial::decode(&a.encode()).unwrap();
        wired.merge(&AggPartial::decode(&b.encode()).unwrap());
        assert_eq!(direct, wired);
    }

    #[test]
    fn empty_partial_finalizes_to_zeroes() {
        let p = AggPartial::empty();
        assert_eq!(p.count(), 0);
        assert_eq!(p.distinct_estimate(), 0);
        assert_eq!(p.minmax().extremes(), None);
        assert_eq!(p.moments().mean(), None);
    }
}
