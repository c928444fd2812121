//! HyperLogLog: approximate distinct counting in fixed memory — the
//! "randomized counting" class of the paper's taxonomy.
//!
//! Registers are held sparse-first (see [`Registers`]): a sketch that
//! saw a handful of sensors costs a handful of entries, not `2^p` bytes.

// Lint ratchet: this module parses register blocks it did not write.

use super::hash64;
use crate::{Error, Result};

/// The register block of a [`HyperLogLog`], in one of two forms picked
/// by occupancy alone: sparse while `3 * occupied < 2^precision` —
/// exactly when the partial wire's 3-byte entries beat its
/// byte-per-register block — and dense from then on. Occupancy only
/// grows, so promotion is one-way, and because equal register values
/// always take the same form, derived equality is register equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Registers {
    /// The occupied registers only, as `(index, rank)` with strictly
    /// ascending indices and non-zero ranks.
    Sparse(Vec<(u16, u8)>),
    /// Every register, by index; length `2^precision`.
    Dense(Vec<u8>),
}

/// A HyperLogLog cardinality estimator with `2^precision` registers.
///
/// Standard error is ≈ `1.04 / sqrt(2^precision)` (≈3.2 % at precision 10).
/// Includes the small-range linear-counting correction.
///
/// # Examples
///
/// ```
/// use f2c_aggregate::sketch::HyperLogLog;
///
/// let mut hll = HyperLogLog::new(12)?;
/// for i in 0..10_000u32 {
///     hll.add(&i.to_le_bytes());
/// }
/// let est = hll.estimate();
/// assert!((est as f64 - 10_000.0).abs() / 10_000.0 < 0.05);
/// # Ok::<(), f2c_aggregate::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    precision: u32,
    registers: Registers,
}

/// Whether a sketch can be built at `precision`.
pub(super) const fn is_valid_precision(precision: u32) -> bool {
    4 <= precision && precision <= 16
}

/// Whether `occupied` registers out of `2^precision` are held sparse.
fn is_sparse(occupied: usize, precision: u32) -> bool {
    occupied * 3 < 1 << precision
}

/// `2^-rank`, built from the exponent bits (exact for every `u8` rank).
pub(super) fn pow2_neg(rank: u8) -> f64 {
    f64::from_bits((1023 - u64::from(rank)) << 52)
}

/// The largest rank whose `2^-rank` still sums exactly: with every rank
/// at most `52 - p`, each term is a multiple of `2^-(52 - p)` and the
/// total is at most `2^p`, so every partial sum in any order is an
/// integer below `2^53` times that unit — exactly representable. The
/// empty registers' `1.0`s can then be added at once, and the occupied
/// ones in whatever order they are held.
pub(super) const fn exact_rank(precision: u32) -> u8 {
    (52 - precision) as u8
}

/// The register `key` falls in at `precision` and the rank it offers
/// that register — the one slot arithmetic every sketch form shares.
#[inline]
pub(super) fn slot_rank(key: &[u8], precision: u32) -> (u16, u8) {
    let h = hash64(key, HLL_SEED);
    let idx = (h >> (64 - precision)) as u16;
    let rest = h << precision;
    // Rank: position of the first 1-bit in the remaining bits, 1-based.
    let rank = (rest.leading_zeros() + 1).min(64 - precision + 1) as u8;
    (idx, rank)
}

/// The cardinality estimate of `2^precision` registers of which `zeros`
/// are empty and whose `2^-rank` sum to `sum` (empty ones counting
/// `1.0`), with the small-range linear-counting correction.
pub(super) fn estimate_from(precision: u32, sum: f64, zeros: usize) -> u64 {
    let count = 1usize << precision;
    let m = count as f64;
    let alpha = match count {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m),
    };
    let raw = alpha * m * m / sum;
    // Small-range correction: linear counting.
    let corrected = if raw <= 2.5 * m && zeros > 0 {
        m * (m / zeros as f64).ln()
    } else {
        raw
    };
    corrected.round() as u64
}

impl HyperLogLog {
    /// Creates an estimator with `2^precision` registers, `4 <= precision <= 16`.
    /// Allocates nothing until the first [`HyperLogLog::add`].
    ///
    /// # Errors
    ///
    /// [`Error::DegenerateSketch`] if `precision` is outside `4..=16`.
    pub fn new(precision: u32) -> Result<Self> {
        if !is_valid_precision(precision) {
            return Err(Error::DegenerateSketch {
                parameter: "precision",
            });
        }
        Ok(Self::with_valid_precision(precision))
    }

    /// [`HyperLogLog::new`] for a precision the caller has already
    /// proved to lie in `4..=16`.
    pub(super) const fn with_valid_precision(precision: u32) -> Self {
        Self {
            precision,
            registers: Registers::Sparse(Vec::new()),
        }
    }

    /// Rebuilds an estimator from all `2^precision` raw register values
    /// (the dense wire form of a shipped partial).
    ///
    /// # Errors
    ///
    /// [`Error::DegenerateSketch`] if `precision` is outside `4..=16` or
    /// the register block has the wrong length.
    pub fn from_registers(precision: u32, registers: Vec<u8>) -> Result<Self> {
        if !is_valid_precision(precision) || registers.len() != 1 << precision {
            return Err(Error::DegenerateSketch {
                parameter: "registers",
            });
        }
        let occupied = registers.iter().filter(|&&r| r != 0).count();
        let registers = if is_sparse(occupied, precision) {
            let mut entries = Vec::with_capacity(occupied);
            entries.extend(
                (0u16..=u16::MAX)
                    .zip(&registers)
                    .filter(|&(_, &r)| r != 0)
                    .map(|(i, &r)| (i, r)),
            );
            Registers::Sparse(entries)
        } else {
            Registers::Dense(registers)
        };
        Ok(Self {
            precision,
            registers,
        })
    }

    /// Rebuilds an estimator from `(index, rank)` entries (the sparse
    /// wire form of a shipped partial). The list this crate writes —
    /// strictly ascending indices, no zero rank, few enough entries to
    /// stay sparse — is adopted as is; any other list means what writing
    /// its entries in order into a zeroed register block means (the last
    /// write to an index wins).
    ///
    /// # Errors
    ///
    /// [`Error::DegenerateSketch`] if `precision` is outside `4..=16` or
    /// an index is `2^precision` or more.
    pub fn from_sparse(precision: u32, entries: Vec<(u16, u8)>) -> Result<Self> {
        if !is_valid_precision(precision) {
            return Err(Error::DegenerateSketch {
                parameter: "precision",
            });
        }
        let m = 1usize << precision;
        if entries.iter().any(|&(i, _)| usize::from(i) >= m) {
            return Err(Error::DegenerateSketch {
                parameter: "registers",
            });
        }
        let canonical = is_sparse(entries.len(), precision)
            && entries.iter().all(|&(_, r)| r != 0)
            && entries.windows(2).all(|w| w[0].0 < w[1].0);
        if canonical {
            return Ok(Self {
                precision,
                registers: Registers::Sparse(entries),
            });
        }
        let mut registers = vec![0u8; m];
        for (i, r) in entries {
            registers[usize::from(i)] = r;
        }
        Self::from_registers(precision, registers)
    }

    /// Number of registers.
    pub(crate) fn register_count(&self) -> usize {
        1 << self.precision
    }

    /// Heap bytes of the register block at its capacity.
    pub(crate) fn heap_bytes(&self) -> u64 {
        match &self.registers {
            Registers::Sparse(entries) => scc_sensors::heap::vec_bytes(entries),
            Registers::Dense(registers) => scc_sensors::heap::vec_bytes(registers),
        }
    }

    /// The sketch's precision.
    pub fn precision(&self) -> u32 {
        self.precision
    }

    /// The register block (for wire encoding; merging two sketches is a
    /// register-wise max over these).
    pub fn registers(&self) -> &Registers {
        &self.registers
    }

    /// Adds one element.
    pub fn add(&mut self, key: &[u8]) {
        let (idx, rank) = slot_rank(key, self.precision);
        match &mut self.registers {
            Registers::Sparse(entries) => match entries.binary_search_by_key(&idx, |e| e.0) {
                Ok(at) => entries[at].1 = entries[at].1.max(rank),
                Err(at) => {
                    entries.insert(at, (idx, rank));
                    if !is_sparse(entries.len(), self.precision) {
                        self.registers = Registers::Dense(to_dense(entries, self.precision));
                    }
                }
            },
            Registers::Dense(registers) => {
                let slot = &mut registers[usize::from(idx)];
                *slot = (*slot).max(rank);
            }
        }
    }

    /// Estimated number of distinct elements added.
    pub fn estimate(&self) -> u64 {
        let (sum, zeros) = self.harmonic_sum();
        estimate_from(self.precision, sum, zeros)
    }

    /// The sum of `2^-rank` over all registers in index order, and the
    /// number of empty registers.
    pub(super) fn harmonic_sum(&self) -> (f64, usize) {
        let count = self.register_count();
        match &self.registers {
            Registers::Dense(registers) => (
                registers.iter().map(|&r| pow2_neg(r)).sum::<f64>(),
                registers.iter().filter(|&&r| r == 0).count(),
            ),
            Registers::Sparse(entries) => {
                let zeros = count - entries.len();
                // Exact in any order up to `exact_rank`: the empty
                // registers' `1.0`s can be added at once.
                let exact = exact_rank(self.precision);
                let sum = if entries.iter().all(|&(_, r)| r <= exact) {
                    zeros as f64 + entries.iter().map(|&(_, r)| pow2_neg(r)).sum::<f64>()
                } else {
                    let mut occupied = entries.iter().peekable();
                    (0..count)
                        .map(|i| match occupied.next_if(|e| usize::from(e.0) == i) {
                            Some(&(_, r)) => pow2_neg(r),
                            None => 1.0,
                        })
                        .sum()
                };
                (sum, zeros)
            }
        }
    }

    /// Merges another estimator with the same precision (register-wise
    /// max). Sparse into sparse merges in place — no allocation beyond
    /// the list's amortised growth; a dense block is allocated only by
    /// the one-way promotion.
    ///
    /// # Panics
    ///
    /// Panics on precision mismatch.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge HLLs of different precisions (a caller's bug: \
             every `AggPartial` is built at the one `PARTIAL_HLL_PRECISION`)"
        );
        match (&mut self.registers, &other.registers) {
            (Registers::Sparse(mine), Registers::Sparse(theirs)) => {
                if !merge_sparse(mine, theirs, self.precision) {
                    let mut merged = to_dense(mine, self.precision);
                    raise(&mut merged, theirs);
                    self.registers = Registers::Dense(merged);
                }
            }
            (Registers::Dense(mine), Registers::Sparse(theirs)) => raise(mine, theirs),
            (Registers::Dense(mine), Registers::Dense(theirs)) => {
                for (a, b) in mine.iter_mut().zip(theirs) {
                    *a = (*a).max(*b);
                }
            }
            (Registers::Sparse(mine), Registers::Dense(theirs)) => {
                let mut merged = theirs.clone();
                raise(&mut merged, mine);
                self.registers = Registers::Dense(merged);
            }
        }
    }
}

/// Register-wise max of the sparse `entries` into a dense block.
fn raise(registers: &mut [u8], entries: &[(u16, u8)]) {
    for &(i, r) in entries {
        let slot = &mut registers[usize::from(i)];
        *slot = (*slot).max(r);
    }
}

/// The dense block holding exactly the sparse `entries`.
fn to_dense(entries: &[(u16, u8)], precision: u32) -> Vec<u8> {
    let mut registers = vec![0u8; 1 << precision];
    raise(&mut registers, entries);
    registers
}

/// Merges the sparse list `theirs` into `mine` (register-wise max), in
/// place, if the union stays sparse at `precision`. Otherwise returns
/// `false` with `mine` holding the registers it held, except that ranks
/// of indices both lists hold may already be raised.
///
/// A settled bucket merged into an accumulator that already knows its
/// sensors costs `|theirs| * log |mine|` comparisons and moves nothing;
/// a new index shifts the entries above it, once.
fn merge_sparse(mine: &mut Vec<(u16, u8)>, theirs: &[(u16, u8)], precision: u32) -> bool {
    // Forward: raise the ranks of shared indices, count the new ones.
    let mut at = 0;
    let mut fresh = 0;
    for &(i, r) in theirs {
        at += mine[at..].partition_point(|e| e.0 < i);
        match mine.get_mut(at) {
            Some(e) if e.0 == i => e.1 = e.1.max(r),
            _ => fresh += 1,
        }
    }
    let union = mine.len() + fresh;
    if !is_sparse(union, precision) {
        return false;
    }
    // Backward: open the gaps from the top, so nothing is read after it
    // is overwritten and nothing is allocated but the list's growth.
    // `mine[..read]` is still to be placed, `mine[write..]` is final;
    // once they meet, every new index is in and the rest is in place.
    let mut read = mine.len();
    mine.resize(union, (0, 0));
    let mut write = union;
    for &(i, r) in theirs.iter().rev() {
        if read == write {
            break;
        }
        while read > 0 && mine[read - 1].0 > i {
            read -= 1;
            write -= 1;
            mine[write] = mine[read];
        }
        if read == 0 || mine[read - 1].0 != i {
            write -= 1;
            mine[write] = (i, r);
        }
    }
    debug_assert_eq!(read, write, "one gap per new index");
    true
}

/// Hash seed for HLL (ASCII "HLL").
const HLL_SEED: u64 = 0x48_4C_4C;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_bounds_enforced() {
        assert!(HyperLogLog::new(3).is_err());
        assert!(HyperLogLog::new(17).is_err());
        assert!(HyperLogLog::new(4).is_ok());
        assert!(HyperLogLog::new(16).is_ok());
    }

    #[test]
    fn small_cardinalities_are_near_exact() {
        let mut hll = HyperLogLog::new(10).unwrap();
        for i in 0..100u32 {
            hll.add(&i.to_le_bytes());
        }
        let est = hll.estimate();
        assert!((90..=110).contains(&est), "estimated {est} for 100");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut hll = HyperLogLog::new(10).unwrap();
        for _ in 0..50 {
            for i in 0..200u32 {
                hll.add(&i.to_le_bytes());
            }
        }
        let est = hll.estimate();
        assert!(
            (170..=230).contains(&est),
            "estimated {est} for 200 distinct"
        );
    }

    #[test]
    fn large_cardinality_within_error_bound() {
        let mut hll = HyperLogLog::new(12).unwrap();
        let n = 100_000u32;
        for i in 0..n {
            hll.add(&i.to_le_bytes());
        }
        let est = hll.estimate() as f64;
        let rel = (est - f64::from(n)).abs() / f64::from(n);
        assert!(rel < 0.05, "relative error {rel:.3}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(11).unwrap();
        let mut b = HyperLogLog::new(11).unwrap();
        let mut whole = HyperLogLog::new(11).unwrap();
        for i in 0..20_000u32 {
            let key = i.to_le_bytes();
            if i % 2 == 0 {
                a.add(&key);
            } else {
                b.add(&key);
            }
            whole.add(&key);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn empty_estimates_zero() {
        let hll = HyperLogLog::new(8).unwrap();
        assert_eq!(hll.estimate(), 0);
    }

    #[test]
    #[should_panic(expected = "different precisions")]
    fn precision_mismatch_merge_panics() {
        let mut a = HyperLogLog::new(8).unwrap();
        let b = HyperLogLog::new(9).unwrap();
        a.merge(&b);
    }
}
