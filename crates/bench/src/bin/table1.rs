//! Experiment E1 + E5: regenerates **Table I** (the redundant-data
//! aggregation model) and the §II "≈8 GB/day" estimate.
//!
//! Run with `cargo run --release -p f2c-bench --bin table1`.
//! Exports a schema-versioned `BENCH_table1.json` (override with
//! `BENCH_OUT`) that CI diffs against `bench/baseline_table1.json` —
//! the checkpoints are closed-form arithmetic, so the gate tolerates
//! zero drift.

use f2c_bench::export;
use f2c_core::report::{render_table1, thousands};
use f2c_core::traffic::TrafficModel;
use f2c_obs::Json;

fn main() {
    let model = TrafficModel::paper();
    let rows = model.table1_rows();
    let totals = model.table1_totals();

    println!("== E1: Table I — redundant data aggregation model ==\n");
    println!("{}", render_table1(&rows, &totals));

    println!("\n== Paper checkpoints ==");
    let checks = [
        ("total sensors", totals.sensors, 1_005_019u64),
        (
            "wave bytes at centralized cloud",
            totals.wave_cloud_model,
            54_388_158,
        ),
        (
            "wave bytes at fog2 / F2C cloud",
            totals.wave_fog2,
            28_165_079,
        ),
        (
            "daily bytes generated (E5: ~8 GB)",
            totals.daily_fog1,
            8_583_503_168,
        ),
        (
            "daily bytes at F2C cloud",
            totals.daily_cloud_f2c,
            5_036_071_584,
        ),
    ];
    let mut all_ok = true;
    for (name, got, expected) in checks {
        let ok = got == expected;
        all_ok &= ok;
        println!(
            "  {:<38} {:>16}  (paper {:>16})  {}",
            name,
            thousands(got),
            thousands(expected),
            if ok { "MATCH" } else { "MISMATCH" }
        );
    }
    println!(
        "\nF2C reduces daily cloud ingress by {} ({}%).",
        thousands(model.daily_dedup_savings()),
        (model.daily_dedup_savings() as f64 / totals.daily_fog1 as f64 * 100.0).round()
    );
    assert!(all_ok, "Table I regeneration diverged from the paper");

    // Export the checkpoint set as the second gated bench document. The
    // values are closed-form, so `table1_budget_rules` holds them to the
    // baseline with zero tolerance — any drift is a model regression.
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_table1.json".to_string());
    let mut doc = Json::obj();
    doc.set("schema_version", export::num(export::TABLE1_SCHEMA_VERSION));
    doc.set("bench", Json::Str("table1".to_string()));
    let mut totals_j = Json::obj();
    totals_j.set("sensors", export::num(totals.sensors));
    totals_j.set("wave_cloud_model", export::num(totals.wave_cloud_model));
    totals_j.set("wave_fog2", export::num(totals.wave_fog2));
    totals_j.set("daily_fog1", export::num(totals.daily_fog1));
    totals_j.set("daily_cloud_f2c", export::num(totals.daily_cloud_f2c));
    totals_j.set(
        "daily_dedup_savings",
        export::num(model.daily_dedup_savings()),
    );
    doc.set("totals", totals_j);
    std::fs::write(&out_path, doc.to_pretty()).expect("bench export writes");
    println!(
        "\nexported Table-I checkpoints -> {out_path} ({} gated metrics; \
         diff with `cargo run -p f2c-bench --bin perf_gate -- \
         bench/baseline_table1.json {out_path}`)",
        export::table1_budget_rules().len()
    );
}
