//! A sublinear-memory sketch — HyperLogLog, the "randomized counting"
//! class of the paper's computation taxonomy (§V.A, \[20\]) — and the
//! **sketch plane** built on it.
//!
//! Fog nodes have bounded memory; a distinct-count sketch lets them
//! answer cardinality questions about city-scale streams (how many
//! distinct vehicles passed) in constant space and merge those answers
//! up the F2C hierarchy.
//!
//! The sketch plane is that merge made systemic: [`AggPartial`] bundles
//! the mergeable states one aggregate answer needs (moments, extremes,
//! a HyperLogLog distinct sketch) behind a CRC-checked wire encoding,
//! and [`SketchLedger`] keeps a node's bucketed partials — epoch-keyed,
//! seal-fronted, surviving raw-record compaction — so flush shipments
//! arrive pre-folded and evicted windows stay answerable.
//!
//! # Example: fold at fog 1, ship, merge at fog 2
//!
//! ```
//! use f2c_aggregate::sketch::{AggPartial, AggState, SketchKey, SketchLedger};
//! use scc_sensors::SensorType;
//!
//! // Fog 1 folds its flush batch into one bucket partial...
//! let mut partial = AggPartial::empty();
//! for i in 0..50u64 {
//!     partial.absorb(20.0 + (i % 5) as f64, i % 12);
//! }
//! let key = SketchKey { section: 3, ty: SensorType::Temperature, bucket_start_s: 0 };
//! let shipped = partial.encode(); // CRC-protected wire form
//!
//! // ...and fog 2 folds the shipment instead of re-scanning records.
//! let mut fog2 = SketchLedger::new(900)?;
//! fog2.fold_encoded(key, &shipped, 1)?;
//! fog2.seal(3, 900);
//! let mut answer = AggPartial::empty();
//! assert!(fog2.covers(3, 0, 900));
//! fog2.merge_range(3, SensorType::Temperature, 0, 900, &mut answer);
//! assert_eq!(answer.count(), 50);
//! assert_eq!(answer.distinct_estimate(), 12);
//! # Ok::<(), f2c_aggregate::Error>(())
//! ```

mod acc;
mod hyperloglog;
mod ledger;
mod partial;

pub use acc::{AggAcc, AggState};
pub use hyperloglog::{HyperLogLog, Registers};
pub use ledger::{SketchKey, SketchLedger};
pub use partial::{AggPartial, PARTIAL_HLL_PRECISION};

/// 64-bit FNV-1a hash used by HyperLogLog (dependency-free, well mixed
/// after the final avalanche step).
pub(crate) fn hash64(data: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // Final avalanche (splitmix-style) to decorrelate low bits.
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_differs_by_seed_and_input() {
        let a = hash64(b"sensor-1", 0);
        let b = hash64(b"sensor-1", 1);
        let c = hash64(b"sensor-2", 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hash_distributes_low_bits() {
        // Bucket 10k keys into 64 buckets; no bucket should be wildly off.
        let mut buckets = [0u32; 64];
        for i in 0..10_000u32 {
            let h = hash64(&i.to_le_bytes(), 7);
            buckets[(h % 64) as usize] += 1;
        }
        let expected = 10_000 / 64;
        for (i, &c) in buckets.iter().enumerate() {
            assert!(
                (c as i64 - expected as i64).abs() < 80,
                "bucket {i} has {c}, expected ~{expected}"
            );
        }
    }
}
