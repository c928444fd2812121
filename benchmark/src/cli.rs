//! Command line: the driver contract (`--workload … --seed … --seconds …
//! --trace …`) and the `run` / `trace` / `compare` / `manifest` subcommands.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use f2c_obs::Json;

use crate::layers;
use crate::report::{self, MetricDef, Values, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread, top_percentile};
use crate::workload::{self, PassOut, Spec, Trace, WORKLOADS};

const USAGE: &str = "usage:
  run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; the last line of stdout is the result
  run.sh run     [--seed n] [--seconds s] [--rounds r] [--out file] all workloads, r interleaved rounds (seed, seed+1, …)
  run.sh trace   [--seed n] [--seconds s] [--out file]              traced run of each workload + isolated layer profile
  run.sh compare <a.json> <b.json>                                  two `run` files, each metric against its own bound
  run.sh manifest                                                   print BENCHMARK.json";

/// `--key value` pairs after the subcommand; unknown keys are an error.
fn options(args: &[String], known: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key.strip_prefix("--").filter(|k| known.contains(k));
        let (Some(name), Some(value)) = (name, it.next()) else {
            return Err(format!("unexpected argument `{key}`\n{USAGE}"));
        };
        out.insert(name.to_owned(), value.clone());
    }
    Ok(out)
}

fn number(opts: &BTreeMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    opts.get(key).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("--{key} takes a whole number, got `{v}`"))
    })
}

/// Passes of one run: at least two (so the determinism check compares
/// something), then more until `seconds` of measured loop time have passed.
/// A traced run alternates plain and traced passes, plain first.
fn run_passes(spec: &Spec, seed: u64, seconds: u64, traced: bool) -> Result<Vec<PassOut>, String> {
    let mut passes: Vec<PassOut> = Vec::new();
    let mut measured = 0.0;
    while passes.len() < 2 || measured < seconds as f64 {
        let i = passes.len();
        let pass = workload::run_pass(spec, seed, traced && i % 2 == 1, i == 0)?;
        measured += pass.wall_s();
        passes.push(pass);
    }
    Ok(passes)
}

/// Output checks over a finished run; empty means correct.
fn failures(passes: &[PassOut], profile: Option<&layers::Profile>) -> Vec<String> {
    let mut out: Vec<String> = passes
        .iter()
        .flat_map(|p| p.check_failures.clone())
        .collect();
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.exact != passes[0].exact {
            out.push(format!(
                "determinism: pass {i} differs from pass 0: {:?} vs {:?}",
                p.exact, passes[0].exact
            ));
        }
    }
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    if failed > 0 {
        out.push(format!(
            "{failed} operations failed or were shed on a fault-free workload"
        ));
    }
    if let Some(profile) = profile {
        out.extend(profile.check_failures.iter().cloned());
    }
    out
}

fn same_names(values: &Values, declared: &[MetricDef]) -> Result<(), String> {
    let mut printed: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
    let mut wanted: Vec<&str> = declared.iter().map(|m| m.name).collect();
    printed.sort_unstable();
    wanted.sort_unstable();
    if printed == wanted {
        Ok(())
    } else {
        Err("internal: the printed metric names are not the declared ones".to_owned())
    }
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// Run outputs (ignored by git); committed results go to `results/`.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

fn print_values(values: &[(&'static str, f64)]) {
    for (name, value) in values {
        println!("  {name:<34} {value:>16.4} {}", report::unit_of(name));
    }
}

fn print_failures(failed: &[String]) {
    for f in failed {
        println!("CHECK FAILED: {f}");
    }
}

/// Writes the spans of the run's first traced pass; returns that pass's
/// trace and the file's path.
fn write_spans<'a>(
    spec: &Spec,
    passes: &'a [PassOut],
) -> Result<Option<(&'a Trace, String)>, String> {
    let Some(tr) = passes.iter().find_map(|p| p.trace.as_ref()) else {
        return Ok(None);
    };
    let path = format!("{OUT_DIR}/trace-{}.json", spec.name);
    write_file(&path, &tr.rec.to_json())?;
    Ok(Some((tr, path)))
}

/// One driver run. Prints every metric with unit and sample count, an
/// `exact` line of the seed-determined counts, then the result line.
fn driver(opts: &BTreeMap<String, String>, traced_binary: bool) -> Result<bool, String> {
    let name = opts.get("workload").ok_or(USAGE)?;
    let spec = workload::find(name).ok_or_else(|| format!("no workload `{name}`"))?;
    let seed = number(opts, "seed", 2017)?;
    let seconds = number(opts, "seconds", report::RUN_SECONDS)?;
    let traced = match number(opts, "trace", 0)? {
        0 => false,
        1 if traced_binary => true,
        1 => {
            return Err(
                "--trace 1 needs the counting allocator: run it through benchmark/run.sh"
                    .to_owned(),
            )
        }
        _ => return Err("--trace takes 0 or 1".to_owned()),
    };
    let passes = run_passes(spec, seed, seconds, traced)?;
    let profile = if traced {
        Some(layers::run(seed)?)
    } else {
        None
    };
    let values = match &profile {
        Some(profile) => report::per_layer(&passes, profile),
        None => report::end_to_end(&passes),
    };
    same_names(&values, if traced { &PER_LAYER } else { &END_TO_END })?;
    let mut failed = failures(&passes, profile.as_ref());
    let calls = passes[0].call_ns.len();
    if !top_percentile(calls).is_some_and(|p| p >= 0.99) {
        failed.push(format!(
            "{calls} timed calls per pass leave fewer than 10 samples beyond p99"
        ));
    }
    println!(
        "{}: seed {seed}, {} passes, ops = {}, calls = {} ({calls} timed per pass)",
        spec.name,
        passes.len(),
        spec.op,
        spec.call,
    );
    let per_pass: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.0}", p.ops as f64 / p.wall_s()))
        .collect();
    println!("  ops per second, pass by pass: {}", per_pass.join(" "));
    print_values(&values);
    if let Some((tr, path)) = write_spans(spec, &passes)? {
        println!("  spans of the first traced pass: {path}");
        println!("  registry deltas over that pass (op counts of the reconciliation):");
        for ((name, key), value) in workload::REGISTRY_KEYS.iter().zip(&tr.registry) {
            let value = value.map_or_else(|| "absent".to_owned(), |v| v.to_string());
            println!("    {name:<20} {value:>12}  {key}");
        }
    }
    print_failures(&failed);
    let x = &passes[0].exact;
    let mut exact = Json::obj();
    // Hex: a u64 hash does not fit a JSON number.
    exact.set(
        "outcome_hash",
        Json::Str(format!("{:016x}", x.outcome_hash)),
    );
    for (key, v) in [
        ("offered", x.offered),
        ("stored", x.stored),
        ("flush_waves", x.flush_waves),
        ("requests", x.requests),
        ("answered", x.answered),
        ("uplink_bytes", x.uplink_bytes),
        ("sim_p50_us", x.sim_p50_us),
        ("sim_p99_us", x.sim_p99_us),
        ("cloud_len", x.cloud_len),
    ] {
        exact.set(key, Json::Num(v as f64));
    }
    println!("exact {}", report::one_line(&exact));

    let mut result = Json::obj();
    result.set("correct", Json::Bool(failed.is_empty()));
    result.set(
        "attempted",
        Json::Num(passes.iter().map(|p| p.attempted).sum::<u64>() as f64),
    );
    result.set(
        "failed",
        Json::Num(passes.iter().map(|p| p.failed).sum::<u64>() as f64),
    );
    result.set("metrics", report::metrics_json(&values));
    println!("{}", report::one_line(&result));
    Ok(failed.is_empty())
}

/// Trimmed stdout of a helper program, or `unknown` when it cannot run.
fn stdout_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// What every results file records about where it was measured.
fn environment(seed: u64, seconds: u64) -> Json {
    let mut env = Json::obj();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    env.set("nproc", Json::Num(nproc as f64));
    env.set("rustc", Json::Str(stdout_of("rustc", &["-V"])));
    let commit = stdout_of(
        "git",
        &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
    );
    env.set("commit", Json::Str(commit));
    env.set("seed", Json::Num(seed as f64));
    env.set("seconds", Json::Num(seconds as f64));
    let mut sizes = Json::obj();
    for w in &WORKLOADS {
        sizes.set(w.name, report::sizes_json(w));
    }
    env.set("sizes", sizes);
    env
}

/// Runs this binary in driver mode as a child (one at a time, waited for),
/// so `peak_rss_mb` is per workload. Returns its `exact` and result lines.
fn child(spec: &Spec, seed: u64, seconds: u64) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", spec.name, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning a pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{} (seed {seed}) failed:\n{stdout}", spec.name));
    }
    let mut lines = stdout.lines().rev();
    let result = lines.next().and_then(|l| Json::parse(l).ok());
    let exact = lines
        .find_map(|l| l.strip_prefix("exact "))
        .and_then(|l| Json::parse(l).ok());
    result
        .zip(exact)
        .map(|(r, x)| (x, r))
        .ok_or_else(|| format!("{}: unreadable child output:\n{stdout}", spec.name))
}

fn num_arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

/// `run`: every workload, `rounds` times round-robin (A B C D A B C D …),
/// round `r` on seed `seed + r` — the acceptance protocol's "each time with
/// another seed". Prints medians with their quartile spread.
fn run_all(opts: &BTreeMap<String, String>) -> Result<bool, String> {
    let seed = number(opts, "seed", 2017)?;
    let seconds = number(opts, "seconds", report::RUN_SECONDS)?;
    let rounds = number(opts, "rounds", 3)?.max(1);
    let t = Instant::now();
    // values[workload][metric] = one value per round; exacts[workload] = one per round.
    let mut values = vec![vec![Vec::<f64>::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut exacts = vec![Vec::<Json>::new(); WORKLOADS.len()];
    let mut correct = true;
    for round in 0..rounds {
        for (w, spec) in WORKLOADS.iter().enumerate() {
            let (exact, result) = child(spec, seed + round, seconds)?;
            correct &= result.get("correct") == Some(&Json::Bool(true));
            for (m, def) in END_TO_END.iter().enumerate() {
                let v = result
                    .path(&format!("metrics.{}", def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{}: no {} in the result", spec.name, def.name))?;
                values[w][m].push(v);
            }
            exacts[w].push(exact);
            eprintln!(
                "round {} of {rounds}: {} done ({:.0?})",
                round + 1,
                spec.name,
                t.elapsed()
            );
        }
    }
    let mut doc = environment(seed, seconds);
    doc.set("rounds", Json::Num(rounds as f64));
    let mut results = Json::obj();
    println!(
        "{:<14} {:<26} {:>14} {:<9} {:>8}  rounds",
        "workload", "metric", "median", "unit", "spread"
    );
    for (w, spec) in WORKLOADS.iter().enumerate() {
        let mut per_workload = Json::obj();
        for (m, def) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            let spread = if v.len() >= 2 {
                quartile_spread(v)
            } else {
                0.0
            };
            println!(
                "{:<14} {:<26} {:>14.4} {:<9} {:>7.2}%  {}",
                spec.name,
                def.name,
                median(v),
                def.unit,
                spread * 100.0,
                v.len()
            );
            let mut o = Json::obj();
            o.set("unit", Json::Str(def.unit.to_owned()));
            o.set("median", Json::Num(median(v)));
            o.set("spread", Json::Num(spread));
            o.set("values", num_arr(v));
            per_workload.set(def.name, o);
        }
        per_workload.set("exact", Json::Arr(exacts[w].clone()));
        results.set(spec.name, per_workload);
    }
    doc.set("results", results);
    let default_out = format!("{OUT_DIR}/run-{seed}.json");
    let path = opts.get("out").unwrap_or(&default_out);
    write_file(path, &doc.to_pretty())?;
    println!(
        "{} — all checks {}",
        path,
        if correct { "passed" } else { "FAILED" }
    );
    Ok(correct)
}

/// `trace`: one traced run per workload, in-process, sharing one isolated
/// layer profile; written as the committed `results/profile.json`.
fn trace_all(opts: &BTreeMap<String, String>, traced_binary: bool) -> Result<bool, String> {
    if !traced_binary {
        return Err(
            "`trace` needs the counting allocator: run it through benchmark/run.sh".to_owned(),
        );
    }
    let seed = number(opts, "seed", 2017)?;
    let seconds = number(opts, "seconds", report::RUN_SECONDS)?;
    let profile = layers::run(seed)?;
    let mut doc = environment(seed, seconds);
    doc.set("isolated_repeats", Json::Num(layers::REPEATS as f64));
    doc.set(
        "parallel_tn_threads",
        Json::Num(layers::tn_threads() as f64),
    );
    let mut correct = profile.check_failures.is_empty();
    let mut per_workload = Json::obj();
    for spec in &WORKLOADS {
        let passes = run_passes(spec, seed, seconds, true)?;
        let failed = failures(&passes, None);
        correct &= failed.is_empty();
        let values = report::per_layer(&passes, &profile);
        same_names(&values, &PER_LAYER)?;
        let in_situ: Values = values
            .into_iter()
            .filter(|(name, _)| profile.get(name).is_none())
            .collect();
        println!(
            "{} ({} passes, every other one traced)",
            spec.name,
            passes.len()
        );
        print_values(&in_situ);
        print_failures(&failed);
        write_spans(spec, &passes)?;
        let mut o = report::metrics_json(&in_situ);
        o.set(
            "outcome_hash",
            Json::Str(format!("{:016x}", passes[0].exact.outcome_hash)),
        );
        per_workload.set(spec.name, o);
    }
    println!("isolated layers (median of {} repeats)", layers::REPEATS);
    print_values(&profile.metrics);
    print_failures(&profile.check_failures);
    doc.set("workloads", per_workload);
    doc.set("isolated", report::metrics_json(&profile.metrics));
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/results/profile.json").to_owned();
    let path = opts.get("out").unwrap_or(&default_out);
    write_file(path, &doc.to_pretty())?;
    println!(
        "{path} — all checks {}",
        if correct { "passed" } else { "FAILED" }
    );
    Ok(correct)
}

fn floats(json: Option<&Json>) -> Vec<f64> {
    match json {
        Some(Json::Arr(items)) => items.iter().filter_map(Json::as_f64).collect(),
        _ => Vec::new(),
    }
}

/// `compare a.json b.json`: `b` (the change) against `a` (the parent), each
/// end-to-end metric by its own bound. Seed-determined counts must be equal.
/// A wall metric whose spread on either side exceeds its bound is
/// `unresolved`, unless every run of one side beats every run of the other.
fn compare(paths: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = paths else {
        return Err(USAGE.to_owned());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: not JSON at byte {}", e.at))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!(
        "{:<14} {:<26} {:>12} {:>12} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound", "spread"
    );
    for spec in &WORKLOADS {
        let side = |doc: &Json| doc.path("results").and_then(|r| r.get(spec.name)).cloned();
        let (Some(ra), Some(rb)) = (side(&a), side(&b)) else {
            return Err(format!("{}: missing from one of the files", spec.name));
        };
        let same = ra.get("exact") == rb.get("exact");
        ok &= same;
        println!(
            "{:<14} {:<26} {}",
            spec.name,
            "exact counts, outcome_hash",
            if same { "equal" } else { "DIFFERENT" }
        );
        for def in &END_TO_END {
            let (va, vb) = (
                floats(ra.get(def.name).and_then(|m| m.get("values"))),
                floats(rb.get(def.name).and_then(|m| m.get("values"))),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} {}: no values", spec.name, def.name));
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if def.higher {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let spread = |v: &[f64]| {
                if v.len() >= 2 {
                    quartile_spread(v)
                } else {
                    0.0
                }
            };
            let widest = spread(&va).max(spread(&vb));
            let better = |x: f64, y: f64| if def.higher { x > y } else { x < y };
            let separated =
                |x: &[f64], y: &[f64]| x.iter().all(|&p| y.iter().all(|&q| better(p, q)));
            let verdict = if widest > def.bound && !separated(&va, &vb) && !separated(&vb, &va) {
                "unresolved"
            } else if worse > def.bound {
                ok = false;
                "REGRESSED"
            } else {
                "within bound"
            };
            println!(
                "{:<14} {:<26} {:>12.4} {:>12.4} {:>8.2}% {:>6.0}% {:>6.2}%  {verdict}",
                spec.name,
                def.name,
                ma,
                mb,
                worse * 100.0,
                def.bound * 100.0,
                widest * 100.0
            );
        }
    }
    Ok(ok)
}

/// Entry point of both binaries; `traced_binary` says whether the counting
/// allocator is installed. Returns the process exit code.
pub fn main(traced_binary: bool) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let driver_keys = ["workload", "seed", "seconds", "trace"];
    let outcome = match args.first().map(String::as_str) {
        Some("run") => {
            options(&args[1..], &["seed", "seconds", "rounds", "out"]).and_then(|o| run_all(&o))
        }
        Some("trace") => options(&args[1..], &["seed", "seconds", "out"])
            .and_then(|o| trace_all(&o, traced_binary)),
        Some("compare") => compare(&args[1..]),
        Some("manifest") => {
            print!("{}", report::manifest().to_pretty());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => {
            options(&args, &driver_keys).and_then(|o| driver(&o, traced_binary))
        }
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("{message}");
            2
        }
    }
}
