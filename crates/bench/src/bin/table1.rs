//! Experiment E1 + E5: regenerates **Table I** (the redundant-data
//! aggregation model) and the §II "≈8 GB/day" estimate.
//!
//! Run with `cargo run --release -p f2c-bench --bin table1`.
//! Exports the schema-versioned `BENCH_table1.json` of the
//! `export::TABLE1` row (override with `BENCH_OUT`), which CI diffs
//! against `bench/baseline_table1.json` — the checkpoints are
//! closed-form arithmetic, so the gate tolerates zero drift.

use f2c_bench::export;
use f2c_core::report::{render_table1, thousands};
use f2c_core::traffic::TrafficModel;

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
    // values are closed-form, so the `table1` row holds them to the
    // baseline with zero tolerance — any drift is a model regression.
    let mut doc = export::TABLE1.doc();
    let totals_j = export::counts_json([
        ("sensors", totals.sensors),
        ("wave_cloud_model", totals.wave_cloud_model),
        ("wave_fog2", totals.wave_fog2),
        ("daily_fog1", totals.daily_fog1),
        ("daily_cloud_f2c", totals.daily_cloud_f2c),
        ("daily_dedup_savings", model.daily_dedup_savings()),
    ]);
    doc.set("totals", totals_j);
    let out_path = export::TABLE1.write(&doc).expect("bench export writes");
    println!(
        "\nexported Table-I checkpoints -> {out_path} ({} gated metrics; \
         diff with `cargo run -p f2c-bench --bin perf_gate -- \
         {} {out_path}`)",
        export::TABLE1.rules.len(),
        export::TABLE1.baseline
    );
}
