//! Experiment E6: ablations of the design choices §IV.B/§IV.D call out —
//! flush period vs per-flush batch size, off-peak scheduling, and the
//! "collection frequency can be increased at no additional \[WAN\] cost"
//! claim.
//!
//! Run with `cargo run --release -p f2c-bench --bin ablation`.

use f2c_core::baseline::{simulate_baseline, BaselineConfig};
use f2c_core::policy::FlushPolicy;
use f2c_core::report::thousands;
use f2c_core::runtime::{flush_period_ablation, simulate, SimConfig};

fn main() {
    // (a) Flush period: longer periods accumulate bigger (better-
    //     compressing) batches but delay upstream freshness.
    println!("== E6a: fog-1 flush period vs per-flush uplink bytes ==\n");
    println!("{:>12} {:>22}", "period (s)", "avg bytes per flush");
    let rows =
        flush_period_ablation(&[300, 900, 1800, 3600], 10_000).expect("ablation simulations run");
    let mut prev = 0u64;
    for (period, bytes) in &rows {
        println!("{:>12} {:>22}", period, thousands(*bytes));
        assert!(*bytes >= prev, "longer period must not shrink batches");
        prev = *bytes;
    }

    // (b) Off-peak scheduling: the same bytes ship, but inside the window.
    println!("\n== E6b: off-peak flush scheduling ==\n");
    let mut on_peak = SimConfig::paper_scaled();
    on_peak.scale = 10_000;
    on_peak.horizon_s = 86_400;
    let mut off_peak = on_peak.clone();
    off_peak.fog1_flush = FlushPolicy {
        off_peak_window: Some((7_200, 21_600)), // 02:00–06:00
        ..FlushPolicy::paper_fog1()
    };
    let a = simulate(on_peak).expect("on-peak run");
    let b = simulate(off_peak).expect("off-peak run");
    println!(
        "  anytime flushes : fog1 uplink {} B (acct)",
        thousands(a.fog1_uplink_acct_bytes)
    );
    println!(
        "  off-peak window : fog1 uplink {} B (acct)",
        thousands(b.fog1_uplink_acct_bytes)
    );
    let err = (a.fog1_uplink_acct_bytes as f64 - b.fog1_uplink_acct_bytes as f64).abs()
        / a.fog1_uplink_acct_bytes as f64;
    assert!(
        err < 0.02,
        "off-peak scheduling must move bytes in time, not change their volume ({err:.3})"
    );
    // Steady-state window share, without the end-of-horizon drain and with
    // both tiers deferring into the window (two simulated days).
    let mut steady_any = SimConfig::paper_scaled();
    steady_any.scale = 10_000;
    steady_any.horizon_s = 2 * 86_400;
    steady_any.drain_at_end = false;
    let mut steady_off = steady_any.clone();
    steady_off.fog1_flush = FlushPolicy {
        off_peak_window: Some((7_200, 21_600)),
        ..FlushPolicy::paper_fog1()
    };
    steady_off.fog2_flush = FlushPolicy {
        off_peak_window: Some((7_200, 25_200)), // relay window, one hour wider
        ..FlushPolicy::plain(3600)
    };
    let sa = simulate(steady_any).expect("steady anytime run");
    let so = simulate(steady_off).expect("steady off-peak run");
    let share_anytime = sa.network.window_share(7_200, 25_200);
    let share_offpeak = so.network.window_share(7_200, 25_200);
    println!(
        "  steady-state window share [02:00-07:00): anytime {:.0}%, off-peak {:.0}%",
        share_anytime * 100.0,
        share_offpeak * 100.0
    );
    assert!(
        share_offpeak > 0.9 && share_offpeak > share_anytime + 0.4,
        "off-peak run must concentrate traffic in the window ({share_offpeak:.2} vs {share_anytime:.2})"
    );
    println!("  -> same volume, shifted into the window. SHAPE OK");

    // (c) §IV.D: doubling the sensor collection frequency doubles the
    //     *centralized* WAN bill, while under F2C the extra readings are
    //     mostly redundant repeats that dedup absorbs at fog 1.
    println!("\n== E6c: collection-frequency increase ==\n");
    let mut base_cfg = BaselineConfig::paper_scaled();
    base_cfg.scale = 10_000;
    base_cfg.horizon_s = 6 * 3600;
    let base1 = simulate_baseline(base_cfg.clone()).expect("baseline x1");
    base_cfg.frequency_factor = 2.0;
    let base2 = simulate_baseline(base_cfg).expect("baseline x2");
    let centralized_growth =
        base2.cloud_ingress_acct_bytes as f64 / base1.cloud_ingress_acct_bytes as f64;
    println!(
        "  centralized: x1 {} B -> x2 {} B  ({:.2}x WAN growth)",
        thousands(base1.cloud_ingress_acct_bytes),
        thousands(base2.cloud_ingress_acct_bytes),
        centralized_growth
    );
    assert!(
        centralized_growth > 1.8,
        "centralized WAN must scale with frequency"
    );

    // F2C side, measured: time-correlated phenomena (change as a Poisson
    // process) sampled faster repeat more, and fog-1 dedup absorbs the
    // repeats. Uplink growth stays well below the sampling growth.
    let f2c_uplink = |interval_s: u64| -> u64 {
        use f2c_aggregate::RedundancyFilter;
        use scc_sensors::{SensorId, SensorType, TimeCorrelatedStream};
        let mut filter = RedundancyFilter::new();
        let mut kept = 0u64;
        for sensor in 0..100u32 {
            let id = SensorId::new(SensorType::Temperature, sensor);
            let mut stream = TimeCorrelatedStream::calibrated(id, 2017, 900.0);
            let mut t = 0u64;
            while t < 6 * 3600 {
                if filter.admit(&stream.next_reading(t)) {
                    kept += 1;
                }
                t += interval_s;
            }
        }
        kept
    };
    let up1 = f2c_uplink(900);
    let up2 = f2c_uplink(450);
    let f2c_growth = up2 as f64 / up1 as f64;
    println!(
        "  F2C:         x1 {} msgs -> x2 {} msgs after fog-1 dedup ({:.2}x uplink growth)",
        thousands(up1),
        thousands(up2),
        f2c_growth
    );
    assert!(
        f2c_growth < 1.35,
        "F2C uplink should grow far sublinearly ({f2c_growth:.2}x)"
    );
    println!(
        "  -> 2x sampling costs the centralized WAN {centralized_growth:.2}x but the F2C uplink only {f2c_growth:.2}x."
    );
    println!("\nAll ablations consistent with §IV.B/§IV.D. SHAPE OK");
}
