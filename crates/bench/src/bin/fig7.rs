//! Experiment E2: regenerates **Fig. 7 (a)–(e)** — per-category daily
//! volume raw → after redundant-data elimination → after compression —
//! twice analytically: once with the paper's Zip ratio, once with the
//! measured `f2c-compress` ratio; then from the event simulation, whose
//! compressed column is the `tsenc` payloads the fog-1 tier ships.
//!
//! Run with `cargo run --release -p f2c-bench --bin fig7`.
//! Exports the schema-versioned `BENCH_fig7.json` of the `export::FIG7`
//! row (override with `BENCH_OUT`), which CI diffs against
//! `bench/baseline_fig7.json`: the simulation is a pure function of its
//! seed, so the gate tolerates zero drift.

use f2c_bench::{export, measure_compression_ratios};
use f2c_core::report::render_fig7;
use f2c_core::runtime::{simulate, SimConfig};
use f2c_core::traffic::TrafficModel;
use f2c_obs::Json;

/// The sample the table prints and the document gates.
const SECTIONS: usize = 4;

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

    // (c) Event-driven simulation: sampled sections at full population,
    //     so every flush batch is the size the full city ships.
    println!(
        "== E2: Fig. 7 — event simulation ({SECTIONS} sampled sections, full population) ==\n"
    );
    let sampled_day = |sections| {
        simulate(SimConfig {
            sections,
            ..SimConfig::paper()
        })
    };
    let report = sampled_day(SECTIONS).expect("simulation runs");
    println!(
        "{:<22} {:>12} {:>14} {:>28}",
        "Category", "Raw", "After dedup", "Compressed (tsenc, shipped)"
    );
    println!("{}", "-".repeat(79));
    // Three decimals: garbage ships about 5 MB a day.
    let gb = |bytes: u64| format!("{:.3} GB", bytes as f64 / 1e9);
    for (category, t) in &report.per_category {
        let (raw, dedup, compressed) = (gb(t.raw), gb(t.after_dedup), gb(t.compressed));
        println!("{category:<22} {raw:>12} {dedup:>14} {compressed:>28}");
    }
    println!(
        "\nsim dedup rate {:.1}% | {} readings simulated",
        report.dedup_rate() * 100.0,
        report.generated_readings
    );

    // Shape assertions: raw volumes reproduce Table I, compression never
    // inflates a category, and the compressed column does not depend on
    // how many sections are sampled. The gated document holds the same
    // seed-pure values.
    let half = sampled_day(SECTIONS / 2).expect("simulation runs");
    let mut categories = Json::obj();
    for row in paper.fig7_rows() {
        let t = report.per_category[&row.category];
        let raw_err = (t.raw as f64 / row.raw as f64 - 1.0).abs();
        let drift =
            (half.per_category[&row.category].compressed as f64 / t.compressed as f64 - 1.0).abs();
        assert!(
            raw_err < 0.01 && t.compressed <= t.after_dedup && drift < 0.03,
            "{}: {t:?} against Table I raw {}; compressed moves {drift:.3} from {} sections",
            row.category,
            row.raw,
            SECTIONS / 2
        );
        categories.set(
            &format!("{:?}", row.category).to_lowercase(),
            export::counts_json([
                ("raw", t.raw),
                ("after_dedup", t.after_dedup),
                ("compressed", t.compressed),
            ]),
        );
    }
    println!(
        "\nEvery simulated raw volume within 1% of Table I, every compressed volume at most \
         its after-dedup volume and within 3% of {} sections'. SHAPE OK",
        SECTIONS / 2
    );

    let mut doc = export::FIG7.doc();
    doc.set(
        "sample",
        export::counts_json([
            ("sections", SECTIONS as u64),
            ("horizon_s", report.horizon_s),
            ("readings", report.generated_readings),
            ("stored", report.stored_after_dedup),
        ]),
    );
    doc.set("categories", categories);
    let out_path = export::FIG7.write(&doc).expect("bench export writes");
    println!(
        "\nexported the Fig. 7 simulation -> {out_path} ({} gated metrics; diff with \
         `cargo run -p f2c-bench --bin perf_gate -- {} {out_path}`)",
        export::FIG7.rules.len(),
        export::FIG7.baseline
    );
}
