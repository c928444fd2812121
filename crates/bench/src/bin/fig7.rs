//! Experiment E2: regenerates **Fig. 7 (a)–(e)** — per-category daily
//! volume raw → after redundant-data elimination → after compression —
//! twice: once with the paper's Zip ratio, once with the measured
//! `f2c-compress` ratio, and cross-validates against the event simulation.
//!
//! Run with `cargo run --release -p f2c-bench --bin fig7`.

use f2c_bench::{export, measure_compression_ratios};
use f2c_core::report::{gb, render_fig7};
use f2c_core::runtime::{simulate, SimConfig};
use f2c_core::traffic::{Fig7Row, TrafficModel};
use f2c_obs::Json;

fn main() {
    // (a) Analytic, paper's Zip ratio.
    let paper = TrafficModel::paper();
    println!(
        "== E2: Fig. 7 — analytic, paper Zip ratio ({:.1}% reduction) ==\n",
        (1.0 - paper.compression_ratio()) * 100.0
    );
    println!("{}", render_fig7(&paper.fig7_rows()));

    // (b) Analytic, measured ratio from this repo's codec.
    let measured = measure_compression_ratios(2017, 120, 120);
    let ours = TrafficModel::paper().with_compression_ratio(measured.overall);
    println!(
        "== E2: Fig. 7 — analytic, measured f2c-compress ratio ({:.1}% reduction) ==\n",
        measured.overall_reduction_percent()
    );
    println!("{}", render_fig7(&ours.fig7_rows()));

    // (c) Event-driven simulation at 1/1000 scale, scaled back up.
    println!("== E2: Fig. 7 — event simulation (scale 1/1000, scaled back) ==\n");
    let report = simulate(SimConfig::paper_scaled()).expect("simulation runs");
    println!(
        "{:<22} {:>12} {:>14} {:>18}",
        "Category", "Raw", "After dedup", "Compressed (wire)"
    );
    println!("{}", "-".repeat(70));
    for (category, t) in &report.per_category {
        println!(
            "{:<22} {:>12} {:>14} {:>18}",
            category.to_string(),
            gb(report.scaled_up(t.raw)),
            gb(report.scaled_up(t.after_dedup)),
            gb(report.scaled_up(t.compressed)),
        );
    }
    println!(
        "\nsim dedup rate {:.1}% | sim compression ratio {:.3} | {} readings simulated",
        report.dedup_rate() * 100.0,
        report.compression_ratio(),
        report.generated_readings
    );

    // Shape assertions: who wins and by what class of factor.
    for row in paper.fig7_rows() {
        let sim = &report.per_category[&row.category];
        let raw_err = (report.scaled_up(sim.raw) as f64 - row.raw as f64).abs() / row.raw as f64;
        assert!(
            raw_err < 0.15,
            "{}: raw diverged {raw_err:.2}",
            row.category
        );
    }
    println!("\nAll per-category raw volumes within 15% of Table I. SHAPE OK");

    // Diffable JSON artifact (analytic rows, both ratios).
    let rows_json = |rows: &[Fig7Row]| {
        let row_json = |r: &Fig7Row| {
            let mut row = Json::obj();
            row.set("category", Json::Str(r.category.to_string()));
            row.set("raw", export::num(r.raw));
            row.set("after_dedup", export::num(r.after_dedup));
            row.set(
                "after_dedup_and_compression",
                export::num(r.after_dedup_and_compression),
            );
            row.set("compressed_raw", export::num(r.compressed_raw));
            row
        };
        Json::Arr(rows.iter().map(row_json).collect())
    };
    let mut artifact = Json::obj();
    artifact.set("experiment", Json::Str("E2-fig7".to_string()));
    artifact.set("paper_ratio", Json::Num(paper.compression_ratio()));
    artifact.set("measured_ratio", Json::Num(measured.overall));
    artifact.set("rows_paper_ratio", rows_json(&paper.fig7_rows()));
    artifact.set("rows_measured_ratio", rows_json(&ours.fig7_rows()));
    let path = "fig7.json";
    std::fs::write(path, artifact.to_pretty()).expect("artifact writable");
    println!("wrote {path}");
}
