//! Shared measurement harness for the experiment binaries and benches.
//!
//! The binaries in `src/bin/` regenerate the paper's tables and figures
//! (`table1`, `fig7`, `compression`, `latency`, `placement`, `ablation`)
//! and run the serving benchmarks (`queries`, gated by `perf_gate`).
//! This library holds the measurement code they share — chiefly the
//! *measured* compression ratios that replace the paper's PKWARE-Zip
//! number with this repo's own codec on the same data shape.

#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod export;

use std::collections::BTreeMap;

use scc_sensors::{wire, Catalog, Category, ReadingGenerator};

use f2c_aggregate::RedundancyFilter;

/// Measured compression ratios (compressed/original) per category plus the
/// overall ratio, on deduped daily observation batches.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredRatios {
    /// Per-category ratio.
    pub per_category: BTreeMap<Category, f64>,
    /// Overall ratio across all categories.
    pub overall: f64,
    /// Total original bytes measured.
    pub original_bytes: u64,
    /// Total compressed bytes produced.
    pub compressed_bytes: u64,
}

impl MeasuredRatios {
    /// The paper's convention: reduction percentage.
    pub fn overall_reduction_percent(&self) -> f64 {
        (1.0 - self.overall) * 100.0
    }
}

/// Generates a deduped observation sample for every category (the data the
/// paper zipped at fog layer 1), compresses it with `f2c-compress`, and
/// reports the ratios.
///
/// `population` sensors per type and `waves` transaction waves bound the
/// sample size; 100×100 yields a few hundred kilobytes per category in a
/// few milliseconds.
pub fn measure_compression_ratios(seed: u64, population: u32, waves: u64) -> MeasuredRatios {
    let catalog = Catalog::barcelona();
    let mut per_category = BTreeMap::new();
    let mut total_in = 0u64;
    let mut total_out = 0u64;
    for category in Category::ALL {
        let mut encoded = Vec::new();
        for spec in catalog.specs_in(category) {
            let mut gen = ReadingGenerator::for_population(spec.sensor_type(), population, seed);
            let mut dedup = RedundancyFilter::new();
            let interval = spec.tx_interval_secs().max(1.0) as u64;
            for w in 0..waves {
                let kept = dedup.filter_batch(gen.wave(w * interval));
                encoded.extend_from_slice(&wire::encode_batch(&kept));
            }
        }
        #[allow(
            clippy::expect_used,
            reason = "`compress_with` returns `Ok` on every path"
        )]
        let packed = f2c_compress::compress(&encoded).expect("compression is infallible");
        per_category.insert(category, packed.len() as f64 / encoded.len().max(1) as f64);
        total_in += encoded.len() as u64;
        total_out += packed.len() as u64;
    }
    MeasuredRatios {
        per_category,
        overall: total_out as f64 / total_in.max(1) as f64,
        original_bytes: total_in,
        compressed_bytes: total_out,
    }
}

/// Pretty-prints a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_ratio_is_in_the_zip_class() {
        let r = measure_compression_ratios(7, 60, 60);
        // The paper reports ~78% reduction; any deflate-class codec on
        // Sentilo-shaped text lands in the 70–95% band.
        let reduction = r.overall_reduction_percent();
        assert!(
            (70.0..=97.0).contains(&reduction),
            "reduction {reduction:.1}% out of the zip class"
        );
        assert_eq!(r.per_category.len(), 5);
        for (cat, ratio) in &r.per_category {
            assert!(*ratio < 0.4, "{cat}: ratio {ratio:.3} too poor");
        }
    }

    #[test]
    fn ratios_are_deterministic_per_seed() {
        let a = measure_compression_ratios(1, 20, 20);
        let b = measure_compression_ratios(1, 20, 20);
        assert_eq!(a, b);
    }
}
