//! The centralized cloud baseline (Fig. 3): four layers — physical,
//! network, cloud, application — where every sensed byte crosses the WAN
//! to the cloud unreduced, and all processing happens there.
//!
//! The baseline shares the sensor substrate (the runtime's
//! [`section_generators`] split) and topology with the F2C runtime so the
//! comparison isolates the architecture, not the workload.

use citysim::barcelona::{BarcelonaTopology, LatencyProfile};
use citysim::time::SimTime;
use scc_sensors::{Catalog, Category};
use std::collections::BTreeMap;

use crate::runtime::section_generators;
use crate::{Error, Result};

/// Baseline parameters.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Divide every sensor population by this factor (≥ 1).
    pub scale: u64,
    /// RNG seed.
    pub seed: u64,
    /// Simulated horizon in seconds.
    pub horizon_s: u64,
    /// Link parameters.
    pub profile: LatencyProfile,
    /// Collection-frequency multiplier (§IV.D: centralized systems throttle
    /// sensor reporting to protect the network; 1.0 = the Table I rates).
    pub frequency_factor: f64,
}

impl BaselineConfig {
    /// The Table I workload at 1/1000 scale.
    pub fn paper_scaled() -> Self {
        Self {
            scale: 1000,
            seed: 2017,
            horizon_s: 86_400,
            profile: LatencyProfile::default(),
            frequency_factor: 1.0,
        }
    }
}

/// What the baseline run measured.
#[derive(Debug, Clone, Default)]
pub struct BaselineReport {
    /// Population scale.
    pub scale: u64,
    /// Readings generated.
    pub generated_readings: u64,
    /// Accounting bytes arriving at the cloud (everything, unreduced).
    pub cloud_ingress_acct_bytes: u64,
    /// Bytes metered across all network links (each hop counted).
    pub network_bytes: u64,
    /// Per-category cloud ingress.
    pub per_category: BTreeMap<Category, u64>,
}

/// Runs the centralized architecture: every wave's bytes travel
/// section→district→cloud with no reduction.
///
/// # Errors
///
/// Configuration and network errors.
pub fn simulate_baseline(config: BaselineConfig) -> Result<BaselineReport> {
    if config.scale == 0 {
        return Err(Error::BadConfig {
            field: "scale",
            reason: "must be >= 1",
        });
    }
    if config.frequency_factor <= 0.0 {
        return Err(Error::BadConfig {
            field: "frequency_factor",
            reason: "must be positive",
        });
    }
    let catalog = Catalog::barcelona();
    let scaled = catalog.scaled_down(config.scale);
    let mut city = BarcelonaTopology::build(&config.profile);

    let mut report = BaselineReport {
        scale: config.scale,
        ..BaselineReport::default()
    };
    for c in Category::ALL {
        report.per_category.insert(c, 0);
    }

    let mut generators = section_generators(&scaled, config.seed);
    for spec in scaled.iter() {
        let ty = spec.sensor_type();
        let interval = spec.tx_interval_secs() / config.frequency_factor;
        let mut t = interval;
        while t <= config.horizon_s as f64 {
            let now = SimTime::from_micros((t * 1e6) as u64);
            for (section, per_section) in generators.iter_mut().enumerate() {
                let Some(gen) = per_section.get_mut(&ty) else {
                    continue;
                };
                let readings = gen.wave(t as u64);
                if readings.is_empty() {
                    continue;
                }
                let bytes = readings.len() as u64 * spec.tx_bytes();
                report.generated_readings += readings.len() as u64;
                report.cloud_ingress_acct_bytes += bytes;
                *report.per_category.entry(ty.category()).or_default() += bytes;
                let from = city.fog1_nodes()[section];
                let to = city.cloud();
                city.network_mut().send(from, to, bytes, now)?;
            }
            t += interval;
        }
    }

    report.network_bytes = city.network().meter().total_bytes();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{simulate, SimConfig};
    use crate::traffic::TrafficModel;

    fn small() -> BaselineConfig {
        let mut c = BaselineConfig::paper_scaled();
        c.scale = 5_000;
        c.horizon_s = 4 * 3600;
        c
    }

    #[test]
    fn cloud_receives_everything_unreduced() {
        let report = simulate_baseline(small()).unwrap();
        assert!(report.generated_readings > 0);
        // Ingress equals generation exactly: no aggregation anywhere.
        let per_cat_sum: u64 = report.per_category.values().sum();
        assert_eq!(per_cat_sum, report.cloud_ingress_acct_bytes);
        // Every byte crossed two hops (fog1->fog2->cloud routing).
        assert_eq!(report.network_bytes, 2 * report.cloud_ingress_acct_bytes);
    }

    #[test]
    fn baseline_matches_table1_cloud_column_at_scale() {
        let mut c = BaselineConfig::paper_scaled();
        c.scale = 2_000;
        let report = simulate_baseline(c).unwrap();
        let expected = TrafficModel::paper().table1_totals().daily_fog1;
        let measured = (report.cloud_ingress_acct_bytes * report.scale) as f64;
        let err = (measured - expected as f64).abs() / expected as f64;
        assert!(err < 0.12, "baseline off by {:.1}%", err * 100.0);
    }

    #[test]
    fn f2c_beats_baseline_on_wan_traffic() {
        // The paper's headline comparison, at matched scale and horizon.
        let baseline = simulate_baseline(small()).unwrap();
        let mut f2c_config = SimConfig::paper_scaled();
        f2c_config.scale = 5_000;
        f2c_config.horizon_s = 4 * 3600;
        let f2c = simulate(f2c_config).unwrap();
        assert!(
            f2c.fog2_uplink_acct_bytes < baseline.cloud_ingress_acct_bytes,
            "F2C cloud ingress {} must be below baseline {}",
            f2c.fog2_uplink_acct_bytes,
            baseline.cloud_ingress_acct_bytes
        );
        // And the reduction factor is in the paper's band (~41%).
        let factor = f2c.fog2_uplink_acct_bytes as f64 / baseline.cloud_ingress_acct_bytes as f64;
        assert!(
            (0.5..0.72).contains(&factor),
            "F2C/baseline ratio {factor:.3}, paper predicts ~0.587"
        );
    }

    #[test]
    fn frequency_increase_scales_traffic() {
        let mut c = small();
        c.horizon_s = 2 * 3600;
        let base = simulate_baseline(c.clone()).unwrap();
        c.frequency_factor = 2.0;
        let doubled = simulate_baseline(c).unwrap();
        let ratio = doubled.cloud_ingress_acct_bytes as f64 / base.cloud_ingress_acct_bytes as f64;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn degenerate_configs_rejected() {
        let mut c = small();
        c.scale = 0;
        assert!(simulate_baseline(c).is_err());
        let mut c = small();
        c.frequency_factor = 0.0;
        assert!(simulate_baseline(c).is_err());
    }
}
