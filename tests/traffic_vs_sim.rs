//! Cross-validation: the event-driven simulation must agree with the
//! analytic Table I model, and the F2C architecture must beat the
//! centralized baseline by the paper's factors.

use std::sync::OnceLock;

use f2c_smartcity::core::baseline::{simulate_baseline, BaselineConfig};
use f2c_smartcity::core::runtime::{simulate, SimConfig, SimReport};
use f2c_smartcity::core::traffic::TrafficModel;

/// Six hours on the first `sections` sampled sections.
fn six_hours(sections: usize) -> SimReport {
    let mut c = SimConfig::paper();
    c.sections = sections;
    c.horizon_s = 6 * 3600;
    simulate(c).unwrap()
}

/// Six hours on one section: the run the tests below share.
fn f2c_small() -> &'static SimReport {
    static REPORT: OnceLock<SimReport> = OnceLock::new();
    REPORT.get_or_init(|| six_hours(1))
}

#[test]
fn sim_and_model_agree_on_totals() {
    let report = f2c_small();
    let model = TrafficModel::paper();
    let totals = model.table1_totals();
    // Scale the 6-hour full-city estimate to a day.
    let day_factor = 86_400.0 / report.horizon_s as f64;
    let raw = report.per_category.values().map(|t| t.raw).sum::<u64>() as f64 * day_factor;
    let dedup = report
        .per_category
        .values()
        .map(|t| t.after_dedup)
        .sum::<u64>() as f64
        * day_factor;
    let raw_err = (raw - totals.daily_fog1 as f64).abs() / totals.daily_fog1 as f64;
    let dedup_err = (dedup - totals.daily_fog2 as f64).abs() / totals.daily_fog2 as f64;
    assert!(raw_err < 0.12, "raw {:.1}% off", raw_err * 100.0);
    assert!(dedup_err < 0.15, "dedup {:.1}% off", dedup_err * 100.0);
}

#[test]
fn f2c_to_baseline_ratio_matches_table1() {
    // Table I predicts F2C ships 5.036/8.583 ≈ 58.7% of the baseline's
    // bytes to the cloud.
    let f2c = f2c_small();
    let mut bc = BaselineConfig::paper();
    bc.horizon_s = 6 * 3600;
    let baseline = simulate_baseline(bc).unwrap();
    let measured = f2c.fog2_uplink_acct_bytes as f64 / baseline.cloud_ingress_acct_bytes as f64;
    let predicted = 5_036_071_584.0 / 8_583_503_168.0;
    assert!(
        (measured - predicted).abs() < 0.08,
        "cloud-ingress ratio {measured:.3}, Table I predicts {predicted:.3}"
    );
}

#[test]
fn per_category_dedup_rates_match_table1() {
    // Full-day horizon: every sensor's first reading is admitted
    // unconditionally, adding redundancy/waves excess keep, so short
    // horizons bias the keep rate upward (garbage at 50 tx/day over 6 h
    // would carry ≈ +0.06 bias plus small-population noise — right at the
    // tolerance). Over 24 h the bias falls below +0.015.
    let report = simulate(SimConfig::paper()).unwrap();
    for row in TrafficModel::paper().fig7_rows() {
        let t = report.per_category[&row.category];
        if t.raw == 0 {
            continue;
        }
        let measured_keep = t.after_dedup as f64 / t.raw as f64;
        let predicted_keep = row.after_dedup as f64 / row.raw as f64;
        assert!(
            (measured_keep - predicted_keep).abs() < 0.09,
            "{}: keep rate {measured_keep:.3} vs Table I {predicted_keep:.3}",
            row.category
        );
        assert!(
            measured_keep >= predicted_keep - 0.02,
            "{}: dedup cannot beat the generator's redundancy",
            row.category
        );
    }
}

#[test]
fn compressed_bytes_do_not_depend_on_the_sample_size() {
    // Every section holds about 1/73 of each type's sensors, so one
    // section's flush batches are already the full city's: sampling two
    // sections estimates the same shipped bytes. A population scaled
    // down instead would ship smaller batches whose fixed costs grow
    // with the scale-back.
    let one = f2c_small();
    let two = six_hours(2);
    for (category, t) in &two.per_category {
        let single = one.per_category[category].compressed;
        let drift = (t.compressed as f64 - single as f64).abs() / t.compressed as f64;
        assert!(
            drift < 0.03,
            "{category}: compressed {single} on one section vs {} on two",
            t.compressed
        );
        assert!(
            t.compressed <= t.after_dedup,
            "{category}: compressed {} above after dedup {}",
            t.compressed,
            t.after_dedup
        );
    }
}
