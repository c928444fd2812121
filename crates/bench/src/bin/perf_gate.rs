//! The CI perf-budget gate.
//!
//! Usage: `perf_gate <baseline.json> <current.json>`
//!
//! Parses both documents, looks up the [`export::ARTIFACTS`] row named by
//! the current document's `bench` member and runs its
//! [`export::Artifact::gate`]: the baseline must be of the same bench,
//! every gated metric stays within its tolerance, and the row's
//! must-be-zero paths read 0 whatever the baseline says (the `queries`
//! row's `alerts.fired`: a fault-free run that fires an SLO alert is a
//! defect no regenerated baseline may grandfather in). It prints one
//! line per violation and exits nonzero if any. The runs are
//! deterministic, so an unchanged tree reproduces the baseline exactly;
//! a failure means the change regressed a budgeted metric and must be
//! fixed or ship with a regenerated baseline.
//!
//! `docs/REPRODUCTION.md` says how to regenerate a baseline.

use std::process::ExitCode;

use f2c_bench::export;
use f2c_obs::Json;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))
}

fn run() -> Result<Vec<String>, String> {
    let mut args = std::env::args().skip(1);
    let (Some(baseline_path), Some(current_path)) = (args.next(), args.next()) else {
        return Err("usage: perf_gate <baseline.json> <current.json>".to_string());
    };
    let baseline = load(&baseline_path)?;
    let current = load(&current_path)?;
    let bench = current
        .get("bench")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{current_path} carries no `bench` member"))?;
    let artifact = export::ARTIFACTS
        .iter()
        .find(|a| a.bench == bench)
        .ok_or_else(|| format!("no gated document is named `{bench}`"))?;
    let violations = artifact.gate(&baseline, &current);
    println!(
        "perf gate: {} metrics gated for bench `{bench}` ({} vs {})",
        artifact.rules.len(),
        baseline_path,
        current_path
    );
    if current.get("parallel").is_some() {
        // Ungated info lines: the sharded runtime is byte-identical at any
        // thread count, so parallelism can never move a gated metric — but
        // the thread count and wall time explain throughput differences
        // between runs at a glance.
        for (label, doc) in [("baseline", &baseline), ("current", &current)] {
            let field = |path: &str| {
                doc.path(path)
                    .and_then(Json::as_u64)
                    .map_or_else(|| "-".to_string(), |v| v.to_string())
            };
            println!(
                "perf gate: info — {label} ran on {} worker thread(s) in {} ms (ungated)",
                field("parallel.threads"),
                field("parallel.wall_ms"),
            );
        }
    }
    Ok(violations)
}

fn main() -> ExitCode {
    match run() {
        Ok(violations) if violations.is_empty() => {
            println!("perf gate: PASS — every gated metric within budget");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            eprintln!(
                "perf gate: FAIL — {} budget violation(s):",
                violations.len()
            );
            for v in &violations {
                eprintln!("  {v}");
            }
            eprintln!(
                "either fix the regression or regenerate the baseline \
                 (see crates/bench/src/bin/perf_gate.rs)"
            );
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("perf gate: ERROR — {msg}");
            ExitCode::FAILURE
        }
    }
}
