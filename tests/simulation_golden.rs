//! Golden digests of the event-driven simulation behind Fig. 7 and the
//! E6 ablations: `runtime::simulate` and `runtime::flush_period_ablation`
//! are pure functions of their configuration, so a change that reshapes
//! how the simulation runs — which hierarchy it drives, how it schedules
//! waves and flushes, how it reads the meters — must leave these
//! renderings byte for byte where they were, at every `PARALLELISM`.
//! The runs here are short and sample one section; the full day behind
//! Fig. 7 is pinned by `bench/baseline_fig7.json`.

use f2c_smartcity::core::policy::FlushPolicy;
use f2c_smartcity::core::runtime::{flush_period_ablation, simulate, SimConfig, SimReport};

/// 64-bit FNV-1a over a rendering.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins a rendering to its golden digest.
fn assert_golden(rendering: &str, golden: u64, fixture: &str) {
    let got = fnv1a(rendering.as_bytes());
    assert_eq!(
        got, golden,
        "{fixture}: rendering hash {got:#018x}, golden {golden:#018x}. Regenerate the \
         golden constant only when a change intends to move the simulation's results, \
         and say so in CHANGES.md.\n{rendering}"
    );
}

/// Every measured field of a report, one `name value` line each, then
/// the per-category rows and the hourly network series.
fn render(report: &SimReport) -> String {
    let mut out = String::new();
    for (name, value) in [
        ("horizon_s", report.horizon_s),
        ("generated_readings", report.generated_readings),
        ("stored_after_dedup", report.stored_after_dedup),
        ("raw_acct_bytes", report.raw_acct_bytes),
        ("fog1_uplink_acct_bytes", report.fog1_uplink_acct_bytes),
        ("fog2_uplink_acct_bytes", report.fog2_uplink_acct_bytes),
        (
            "fog1_uplink_compressed_bytes",
            report.fog1_uplink_compressed_bytes,
        ),
        ("fog1_shipments", report.fog1_shipments),
        ("network_fog1_fog2_bytes", report.network_fog1_fog2_bytes),
        ("network_fog2_cloud_bytes", report.network_fog2_cloud_bytes),
        ("cloud_records", report.cloud_records),
    ] {
        out += &format!("{name} {value}\n");
    }
    for (category, t) in &report.per_category {
        out += &format!(
            "{category:?} raw={} after_dedup={} compressed={}\n",
            t.raw, t.after_dedup, t.compressed
        );
    }
    for (hour, bytes) in report.network.hourly_bytes() {
        out += &format!("hour {hour} {bytes}\n");
    }
    out
}

/// The first six hours of the paper's day on one sampled section.
const GOLDEN_PAPER_DAY: u64 = 0x72db_8b4c_8051_71ac;

/// The E6b steady-state pair, over the first eight hours: no drain,
/// anytime flushes and both tiers deferred into their off-peak windows.
const GOLDEN_STEADY_PAIR: u64 = 0x4aa7_c072_087d_add5;

/// The E6a flush-period sweep on one sampled section.
const GOLDEN_PERIOD_ABLATION: u64 = 0xdeca_3d74_5d50_081e;

#[test]
fn the_paper_day_is_pinned() {
    let mut config = SimConfig::paper();
    config.horizon_s = 6 * 3600;
    let report = simulate(config).unwrap();
    assert_golden(&render(&report), GOLDEN_PAPER_DAY, "paper day");
}

#[test]
fn the_steady_off_peak_pair_is_pinned() {
    let mut anytime = SimConfig::paper();
    anytime.horizon_s = 8 * 3600;
    anytime.drain_at_end = false;
    let mut off_peak = anytime.clone();
    off_peak.fog1_flush = FlushPolicy {
        off_peak_window: Some((7_200, 21_600)),
        ..FlushPolicy::paper_fog1()
    };
    off_peak.fog2_flush = FlushPolicy {
        off_peak_window: Some((7_200, 25_200)),
        ..FlushPolicy::plain(3600)
    };
    let rendering = render(&simulate(anytime).unwrap()) + &render(&simulate(off_peak).unwrap());
    assert_golden(&rendering, GOLDEN_STEADY_PAIR, "steady off-peak pair");
}

#[test]
fn the_flush_period_ablation_is_pinned() {
    let rows = flush_period_ablation(&[300, 900, 1800, 3600], 1).unwrap();
    assert_golden(
        &format!("{rows:?}"),
        GOLDEN_PERIOD_ABLATION,
        "flush-period ablation",
    );
}
