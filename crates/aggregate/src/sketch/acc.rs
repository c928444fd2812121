//! The dense gather accumulator — what an aggregate request folds into.
//!
//! The sketch plane has one rule for its two forms: what is *stored or
//! shipped* is an [`AggPartial`] (sparse-first, canonical, encodable);
//! what a request *folds into* is an [`AggAcc`] (dense, reused, never
//! encoded). A ledger bucket or a cached partial holds a handful of
//! registers for years and pays for exactly those; a gather merges
//! hundreds of them in microseconds and pays for a search and a shift per
//! entry if it keeps the sparse form. So the accumulator holds all
//! `2^p` registers flat plus the list of the ones it touched: merging a
//! partial is a register *raise* per entry — no search, no shift, no
//! allocation — and clearing or estimating costs what was touched.
//!
//! Every field merges exactly — integer sums, a min, a max, a register
//! max — so what the accumulator reads is the same bits as the partials
//! it took merged in any order.

// Lint ratchet: the serving path folds every aggregate through this file.

use super::hyperloglog::{estimate_from, exact_rank, pow2_neg, slot_rank};
use super::{AggPartial, Registers, PARTIAL_HLL_PRECISION};
use crate::functions::{Decomposable, MinMax, Moments};

const REGISTER_COUNT: usize = 1 << PARTIAL_HLL_PRECISION;

/// A mergeable aggregate state: what a fold lands in and what an answer
/// is read from. [`AggPartial`] is the stored and shipped form,
/// [`AggAcc`] the one a request folds into.
pub trait AggState {
    /// Absorbs one observation: its magnitude into the moments and
    /// extremes, its producing sensor's identity into the distinct
    /// sketch.
    fn absorb(&mut self, magnitude: f64, sensor_key: u64);
    /// Merges a stored partial into this state.
    fn merge(&mut self, other: &AggPartial);
    /// The moments state (count, sum, sum of squares).
    fn moments(&self) -> &Moments;
    /// The extremes state.
    fn minmax(&self) -> &MinMax;
    /// Estimate of distinct absorbed sensor keys (0 when nothing was
    /// absorbed).
    fn distinct_estimate(&self) -> u64;
}

/// The reusable dense accumulator of one aggregate request: the scalars,
/// one flat register file, and the indices of its occupied registers.
///
/// # Examples
///
/// Records and partials folded into one accumulator read like the
/// partials merged:
///
/// ```
/// use f2c_aggregate::sketch::{AggAcc, AggPartial, AggState};
///
/// let (mut a, mut b) = (AggPartial::empty(), AggPartial::empty());
/// let mut acc = AggAcc::new();
/// for i in 0..40u64 {
///     a.absorb(i as f64, i % 9);
///     acc.absorb(i as f64, i % 9);
/// }
/// b.absorb(7.5, 100);
/// acc.merge(&b); // a cached or ledger partial
/// a.merge(&b);
/// assert_eq!(acc.moments(), a.moments());
/// assert_eq!(acc.distinct_estimate(), a.distinct_estimate());
/// acc.clear(); // ready for the next request, nothing reallocated
/// assert_eq!(acc.moments().count, 0);
/// ```
#[derive(Debug, Clone)]
pub struct AggAcc {
    moments: Moments,
    minmax: MinMax,
    registers: [u8; REGISTER_COUNT],
    /// Indices of the non-zero registers, in first-touch order.
    occupied: Vec<u16>,
    /// Largest rank held: decides whether the estimate may sum the
    /// occupied registers in list order (see `exact_rank`).
    max_rank: u8,
}

impl AggAcc {
    /// An empty accumulator. The occupied list is sized for a full
    /// register file here, once, so no fold ever grows it.
    pub fn new() -> Self {
        Self {
            moments: Moments::empty(),
            minmax: MinMax::empty(),
            registers: [0; REGISTER_COUNT],
            occupied: Vec::with_capacity(REGISTER_COUNT),
            max_rank: 0,
        }
    }

    /// Back to empty, touching only the registers that were raised.
    pub fn clear(&mut self) {
        for &idx in &self.occupied {
            self.registers[usize::from(idx)] = 0;
        }
        self.occupied.clear();
        self.max_rank = 0;
        self.moments = Moments::empty();
        self.minmax = MinMax::empty();
    }

    /// Bit for bit what `HyperLogLog::harmonic_sum` reads off the same
    /// registers in either of its forms, so the estimate is a function
    /// of the register values, not of how they are held.
    fn harmonic_sum(&self) -> (f64, usize) {
        let zeros = REGISTER_COUNT - self.occupied.len();
        let sum = if self.max_rank <= exact_rank(PARTIAL_HLL_PRECISION) {
            // Exact in any order, so list order will do.
            let occupied = self.occupied.iter();
            let ranks = occupied.map(|&idx| self.registers[usize::from(idx)]);
            zeros as f64 + ranks.map(pow2_neg).sum::<f64>()
        } else {
            self.registers.iter().copied().map(pow2_neg).sum::<f64>()
        };
        (sum, zeros)
    }

    /// Register-wise max of one `(index, rank)` into the file.
    #[inline]
    fn raise(&mut self, idx: u16, rank: u8) {
        let slot = &mut self.registers[usize::from(idx)];
        if rank > *slot {
            if *slot == 0 {
                self.occupied.push(idx);
            }
            *slot = rank;
            self.max_rank = self.max_rank.max(rank);
        }
    }
}

impl Default for AggAcc {
    fn default() -> Self {
        Self::new()
    }
}

impl AggState for AggAcc {
    fn absorb(&mut self, magnitude: f64, sensor_key: u64) {
        self.moments.absorb(magnitude);
        self.minmax.absorb(magnitude);
        let (idx, rank) = slot_rank(&sensor_key.to_le_bytes(), PARTIAL_HLL_PRECISION);
        self.raise(idx, rank);
    }

    fn merge(&mut self, other: &AggPartial) {
        self.moments.merge(other.moments());
        self.minmax.merge(other.minmax());
        match other.registers() {
            Registers::Sparse(entries) => {
                for &(idx, rank) in entries {
                    self.raise(idx, rank);
                }
            }
            Registers::Dense(block) => {
                for (idx, &rank) in (0u16..).zip(block) {
                    self.raise(idx, rank);
                }
            }
        }
    }

    fn moments(&self) -> &Moments {
        &self.moments
    }

    fn minmax(&self) -> &MinMax {
        &self.minmax
    }

    fn distinct_estimate(&self) -> u64 {
        if self.moments.count == 0 {
            return 0;
        }
        let (sum, zeros) = self.harmonic_sum();
        estimate_from(PARTIAL_HLL_PRECISION, sum, zeros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::HyperLogLog;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// One step of a request: `(kind, seed, n, high)`.
    type Step = (u8, u64, u32, bool);

    fn steps(len: impl Into<proptest::collection::SizeRange>) -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec((0u8..8, any::<u64>(), 0u32..700, any::<bool>()), len)
    }

    /// A magnitude in whole hundredths, as every reading is.
    fn magnitude(rng: &mut SmallRng) -> f64 {
        rng.gen_range(-30_000i64..1_000_000) as f64 / 100.0
    }

    /// A partial only the wire can deliver: a few absorbed observations
    /// plus `n` crafted register entries — sparse below a third of the
    /// registers, dense above — with ranks up to 30, or with `high` up
    /// to the cap of 55, past the `52 - p` = 42 the exact sum stops at.
    fn crafted(rng: &mut SmallRng, n: u32, high: bool) -> AggPartial {
        let mut p = AggPartial::empty();
        for _ in 0..rng.gen_range(0..5) {
            p.absorb(magnitude(rng), rng.gen_range(0..3_000));
        }
        let cap = if high { 56 } else { 31 };
        let entries = (0..n)
            .map(|_| (rng.gen_range(0..1_024), rng.gen_range(0..cap)))
            .collect();
        let sketch = HyperLogLog::from_sparse(PARTIAL_HLL_PRECISION, entries).unwrap();
        p.merge_sketch(&sketch);
        p
    }

    /// Runs `steps` against the accumulator and against one `AggPartial`
    /// per leg, the legs merged in reverse, and holds every read of the
    /// two to the same bits.
    fn run_against_model(acc: &mut AggAcc, steps: &[Step]) {
        let mut legs = vec![AggPartial::empty()];
        for &(kind, seed, n, high) in steps {
            let mut rng = SmallRng::seed_from_u64(seed);
            let leg = legs.last_mut().unwrap();
            match kind {
                0..=3 => {
                    for _ in 0..n % 40 {
                        let (v, key) = (magnitude(&mut rng), rng.gen_range(0..3_000));
                        acc.absorb(v, key);
                        leg.absorb(v, key);
                    }
                }
                4..=5 => {
                    // Mostly sparse operands, some past the promotion.
                    let n = if kind == 4 { n % 60 } else { n };
                    let other = crafted(&mut rng, n, high);
                    AggState::merge(acc, &other);
                    leg.merge(&other);
                }
                _ => legs.push(AggPartial::empty()),
            }
        }
        let mut total = AggPartial::empty();
        for leg in legs.iter().rev() {
            total.merge(leg);
        }

        assert_eq!(AggState::moments(acc), total.moments());
        assert_eq!(AggState::minmax(acc), total.minmax());
        let (got, want) = (acc.harmonic_sum(), total.sketch().harmonic_sum());
        assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
        assert_eq!(AggState::distinct_estimate(acc), total.distinct_estimate());
    }

    proptest! {
        #[test]
        fn any_interleaving_reads_like_per_leg_partials_merged(steps in steps(0..40)) {
            run_against_model(&mut AggAcc::new(), &steps);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        #[test]
        fn clear_leaves_no_register_behind(
            requests in proptest::collection::vec(steps(0..6), 1_000),
        ) {
            let mut acc = AggAcc::new();
            for steps in &requests {
                run_against_model(&mut acc, steps);
                acc.clear();
                prop_assert!(acc.registers.iter().all(|&r| r == 0));
                prop_assert!(acc.occupied.is_empty());
                prop_assert_eq!(acc.occupied.capacity(), REGISTER_COUNT);
            }
        }
    }

    /// `items` in the order `seed` draws (Fisher–Yates).
    fn permuted<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = items.to_vec();
        for i in (1..out.len()).rev() {
            out.swap(i, rng.gen_range(0..=i));
        }
        out
    }

    proptest! {
        #[test]
        fn any_merge_order_gives_the_same_bits(
            legs in proptest::collection::vec(
                proptest::collection::vec((any::<u64>(), 0u32..60, any::<bool>()), 0..8),
                0..12,
            ),
            seed in any::<u64>(),
        ) {
            // Legs of bucket partials, as a scatter gathers them.
            let legs: Vec<Vec<AggPartial>> = legs
                .iter()
                .map(|buckets| {
                    let buckets = buckets.iter();
                    buckets
                        .map(|&(s, n, high)| crafted(&mut SmallRng::seed_from_u64(s), n, high))
                        .collect()
                })
                .collect();
            let reorder = |seed: u64| -> Vec<Vec<AggPartial>> {
                let legs = permuted(&legs, seed);
                (0u64..).zip(&legs).map(|(i, b)| permuted(b, seed ^ i)).collect()
            };
            let (ours, theirs) = (reorder(seed), reorder(!seed));
            // Through the accumulator, bucket by bucket …
            let mut acc = AggAcc::new();
            for bucket in ours.iter().flatten() {
                AggState::merge(&mut acc, bucket);
            }
            // … and through partials merged per leg, then across legs.
            let mut total = AggPartial::empty();
            for leg in &theirs {
                let mut merged = AggPartial::empty();
                for bucket in leg {
                    merged.merge(bucket);
                }
                total.merge(&AggPartial::decode(&merged.encode()).unwrap());
            }
            let mut flat = AggPartial::empty();
            for bucket in legs.iter().flatten() {
                flat.merge(bucket);
            }
            prop_assert_eq!(total.encode(), flat.encode());
            prop_assert_eq!(AggState::moments(&acc), flat.moments());
            prop_assert_eq!(AggState::minmax(&acc), flat.minmax());
            prop_assert_eq!(AggState::distinct_estimate(&acc), flat.distinct_estimate());
            let bits = |m: &Moments| [m.sum(), m.mean(), m.variance()].map(|v| v.map(f64::to_bits));
            prop_assert_eq!(bits(AggState::moments(&acc)), bits(total.moments()));
        }
    }

    #[test]
    fn a_high_rank_switches_to_the_index_order_sum() {
        // Ranks past `52 - p` make the harmonic sum order-dependent: the
        // accumulator must then walk the registers by index, as both
        // `HyperLogLog` forms do. Raised in descending index order, so a
        // list-order sum would add the terms the other way round.
        let mut acc = AggAcc::new();
        let mut whole = AggPartial::empty();
        for i in (0..200u16).rev() {
            let mut p = AggPartial::empty();
            p.absorb(1.0, u64::from(i));
            let entry = vec![(i * 5, 30 + (i % 26) as u8)];
            p.merge_sketch(&HyperLogLog::from_sparse(PARTIAL_HLL_PRECISION, entry).unwrap());
            AggState::merge(&mut acc, &p);
            whole.merge(&p);
        }
        assert!(acc.max_rank > exact_rank(PARTIAL_HLL_PRECISION));
        let (got, want) = (acc.harmonic_sum(), whole.sketch().harmonic_sum());
        assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
        assert_eq!(AggState::distinct_estimate(&acc), whole.distinct_estimate());
    }
}
