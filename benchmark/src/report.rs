//! Metric declarations (the single source `BENCHMARK.json` is generated from
//! and tested against) and the reduction of passes to metric values.

use f2c_obs::Json;

use crate::layers::Profile;
use crate::spans;
use crate::stats::{median, percentile};
use crate::workload::{PassOut, Spec, Trace, VIAS, WORKLOADS};

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
    /// Share of the parent's median a metric may worsen by (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, false, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, true, 0.0)
}

/// What a user of the system sees. Every workload reports every one of them;
/// none is ever 0. What `ops_per_s` counts and `call_p*_us` times is fixed
/// per workload by [`Spec::op`] and [`Spec::call`].
pub const END_TO_END: [MetricDef; 6] = [
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("call_p50_us", "us", false, 0.25),
    e2e("call_p99_us", "us", false, 0.25),
    e2e("uplink_bytes_per_record", "B/record", false, 0.02),
    e2e("peak_rss_mb", "MB", false, 0.10),
    e2e("setup_s", "s", false, 0.25),
];

/// Per-layer metrics. In-situ ones come from the traced passes of the
/// workload; isolated ones from [`crate::layers`] and read the same on every
/// workload (up to noise). A metric a workload never exercises reads 0.
pub const PER_LAYER: [MetricDef; 88] = [
    // -- in-situ: the workload-specific views of the end-to-end numbers -----
    higher("write_records_per_s", "1/s"),
    higher("requests_per_s", "1/s"),
    lower("flush_wave_p50_ms", "ms"),
    lower("serve_p50_us", "us"),
    lower("serve_p99_us", "us"),
    lower("sim_p50_ms", "ms"),
    lower("sim_p99_ms", "ms"),
    // -- in-situ: f2c-core::hierarchy ---------------------------------------
    lower("city.generate.busy_share", "ratio"),
    lower("city.ingest.busy_share", "ratio"),
    lower("city.flush_all.busy_share", "ratio"),
    lower("city.ingest.ns", "ns"),
    lower("city.flush_all.ns", "ns"),
    higher("city.stored_ratio", "ratio"),
    lower("write.allocs_per_reading", "count"),
    // -- in-situ: f2c-query::engine, by how the request was answered --------
    lower("serve.busy_share", "ratio"),
    lower("serve.edge_cache.ns", "ns"),
    higher("serve.edge_cache.count", "count"),
    lower("serve.source_cache.ns", "ns"),
    higher("serve.source_cache.count", "count"),
    lower("serve.store_fog1.ns", "ns"),
    lower("serve.store_fog1.count", "count"),
    lower("serve.store_fog2.ns", "ns"),
    lower("serve.store_fog2.count", "count"),
    lower("serve.store_cloud.ns", "ns"),
    lower("serve.store_cloud.count", "count"),
    lower("serve.warm_sketch.ns", "ns"),
    lower("serve.warm_sketch.count", "count"),
    lower("serve.scatter.ns", "ns"),
    lower("serve.scatter.count", "count"),
    lower("serve.scatter.legs_per_query", "count"),
    lower("serve.records_scanned_per_request", "count"),
    lower("serve.allocs_per_request", "count"),
    // -- in-situ: f2c-query::cache ------------------------------------------
    higher("cache.edge_hit_ratio", "ratio"),
    higher("cache.source_hit_ratio", "ratio"),
    higher("cache.partial_hit_ratio", "ratio"),
    higher("cache.prefold_ratio", "ratio"),
    // -- in-situ: the benchmark itself --------------------------------------
    lower("bench.self_share", "ratio"),
    lower("trace.overhead_pct", "%"),
    lower("reconcile.residual_pct", "%"),
    // -- isolated: scc-sensors ----------------------------------------------
    lower("sensors.wave.ns", "ns"),
    lower("sensors.wave.allocs", "count"),
    lower("sensors.wire_encode.ns", "ns"),
    lower("sensors.wire_encode.allocs", "count"),
    // -- isolated: scc-dlc acquisition, f2c-aggregate::dedup ----------------
    lower("dlc.acquire.ns", "ns"),
    lower("dlc.acquire.allocs", "count"),
    lower("dlc.acquire.kept_ratio", "ratio"),
    lower("aggregate.dedup_admit.ns", "ns"),
    // -- isolated: f2c-core::store ------------------------------------------
    lower("store.insert.ns", "ns"),
    lower("store.insert.allocs", "count"),
    lower("store.take_evict.ns", "ns"),
    lower("store.range.ns", "ns"),
    // -- isolated: f2c-compress ---------------------------------------------
    lower("tsenc.encode.ns", "ns"),
    lower("tsenc.encode.allocs", "count"),
    lower("tsenc.decode.ns", "ns"),
    lower("tsenc.decode.allocs", "count"),
    lower("tsenc.bytes_per_reading", "B"),
    lower("deflate.compress.ns_per_byte", "ns"),
    lower("deflate.decompress.ns_per_byte", "ns"),
    higher("deflate.ratio", "ratio"),
    // -- isolated: f2c-aggregate::sketch ------------------------------------
    lower("partial.absorb.ns", "ns"),
    lower("partial.encode.ns", "ns"),
    lower("partial.decode.ns", "ns"),
    lower("partial.merge.ns", "ns"),
    lower("partial.encoded_bytes", "B"),
    lower("ledger.fold.ns", "ns"),
    lower("ledger.fold_encoded.ns", "ns"),
    lower("ledger.covers.ns", "ns"),
    lower("ledger.merge_range.ns", "ns"),
    // -- isolated: f2c-qos::admission ---------------------------------------
    lower("qos.acquire_release.ns", "ns"),
    lower("qos.scatter_acquire_release.ns", "ns"),
    // -- isolated: f2c-query::planner / cache / scatter ---------------------
    lower("planner.plan_section.ns", "ns"),
    lower("planner.plan_district.ns", "ns"),
    lower("planner.plan_city.ns", "ns"),
    lower("planner.plan_city.allocs", "count"),
    lower("cache.result_put.ns", "ns"),
    lower("cache.result_hit.ns", "ns"),
    lower("cache.result_miss.ns", "ns"),
    lower("scatter.merge_aggregates.ns", "ns"),
    lower("scatter.merge_ranges.ns", "ns"),
    // -- isolated: f2c-obs, citysim::event ----------------------------------
    lower("obs.counter_add.ns", "ns"),
    lower("obs.span.ns", "ns"),
    lower("obs.span.allocs", "count"),
    lower("obs.snapshot.ns", "ns"),
    lower("obs.absorb_idle.ns", "ns"),
    lower("event.schedule_pop.ns", "ns"),
    // -- isolated: f2c-query::parallel (informational) ----------------------
    lower("parallel.us_per_request.t1", "us"),
    lower("parallel.us_per_request.tn", "us"),
    higher("parallel.speedup", "ratio"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Json {
    let str_arr =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).to_owned())).collect());
    let metric = |m: &MetricDef, with_bound: bool| {
        let mut o = Json::obj();
        o.set("name", Json::Str(m.name.to_owned()));
        o.set("unit", Json::Str(m.unit.to_owned()));
        o.set(
            "better",
            Json::Str(if m.higher { "higher" } else { "lower" }.to_owned()),
        );
        if with_bound {
            o.set("bound", Json::Num(m.bound));
        }
        o
    };
    let mut doc = Json::obj();
    doc.set("command", str_arr(&["bash", "benchmark/run.sh"]));
    doc.set("paths", str_arr(&["benchmark"]));
    doc.set("run_seconds", Json::Num(RUN_SECONDS as f64));
    doc.set(
        "workloads",
        Json::Arr(
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut o = Json::obj();
                    o.set("name", Json::Str(w.name.to_owned()));
                    o.set("why", Json::Str(w.why.to_owned()));
                    o
                })
                .collect(),
        ),
    );
    doc.set(
        "end_to_end",
        Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
    );
    doc.set(
        "per_layer",
        Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
    );
    doc
}

/// `VmHWM` of this process in MB, or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Named values in declaration order.
pub type Values = Vec<(&'static str, f64)>;

/// Element-wise minimum over the passes of a run: the fastest replica of
/// each piece of work. Passes replay the same inputs, so element `i` is the
/// same work in every row and its spread is the machine's, not the program's;
/// on a shared box that noise only ever adds time, so the fastest replica is
/// the best estimate of the undisturbed cost — and unlike a median over whole
/// passes it still finds one when every pass was disturbed somewhere. (Rows
/// are equally long whenever the determinism check holds; otherwise the
/// shortest row decides.)
fn fastest_replica<T: Copy + Ord>(rows: &[&[T]]) -> Vec<T> {
    let len = rows.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| rows.iter().map(|r| r[i]).min().expect("a run has passes"))
        .collect()
}

/// The measured loop's wall ns with every segment at its fastest replica.
fn fastest_loop_ns<'a>(passes: impl Iterator<Item = &'a PassOut>) -> u64 {
    let rows: Vec<&[u64]> = passes.map(|p| p.seg_ns.as_slice()).collect();
    fastest_replica(&rows).iter().sum()
}

/// The end-to-end metrics of a run. Latency percentiles are taken over the
/// calls of a pass, and the loop time is summed over its segments, after each
/// call and segment is reduced to its [`fastest_replica`].
pub fn end_to_end(passes: &[PassOut]) -> Values {
    let first = &passes[0].exact;
    let mut calls = fastest_replica(
        &passes
            .iter()
            .map(|p| p.call_ns.as_slice())
            .collect::<Vec<_>>(),
    );
    calls.sort_unstable();
    let call_us = |p: f64| f64::from(percentile(&calls, p)) / 1e3;
    let loop_ns = fastest_loop_ns(passes.iter());
    vec![
        ("ops_per_s", passes[0].ops as f64 / loop_ns as f64 * 1e9),
        ("call_p50_us", call_us(0.5)),
        ("call_p99_us", call_us(0.99)),
        (
            "uplink_bytes_per_record",
            first.uplink_bytes as f64 / first.stored.max(1) as f64,
        ),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(0.0)),
        (
            "setup_s",
            median(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
        ),
    ]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// In-situ per-layer values of one traced pass (everything but the two
/// cross-pass metrics `trace.overhead_pct` and `reconcile.residual_pct`).
fn in_situ(pass: &PassOut, tr: &Trace) -> Values {
    let x = &pass.exact;
    let total = |name| tr.rec.total_ns(name);
    let pass_ns = total(spans::PASS).max(1);
    let share = |ns: u64| ns as f64 / pass_ns as f64;
    let write_ns = total(spans::GENERATE) + total(spans::INGEST) + total(spans::FLUSH);
    let durations = |name: &str| -> Vec<u64> {
        let mut d: Vec<u64> = tr
            .rec
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        d.sort_unstable();
        d
    };
    let pct = |d: &[u64], p: f64| {
        if d.is_empty() {
            0.0
        } else {
            percentile(d, p) as f64
        }
    };
    let flushes = durations(spans::FLUSH);
    let serves = durations(spans::SERVE);
    let reg = |name| tr.registry(name).unwrap_or(0);
    let buckets = reg("partial_hits") + reg("partial_fills") + reg("prefold_hits");
    let mut v: Values = vec![
        ("write_records_per_s", ratio(x.offered, write_ns) * 1e9),
        ("requests_per_s", x.requests as f64 / pass.wall_s()),
        ("flush_wave_p50_ms", pct(&flushes, 0.5) / 1e6),
        ("serve_p50_us", pct(&serves, 0.5) / 1e3),
        ("serve_p99_us", pct(&serves, 0.99) / 1e3),
        ("sim_p50_ms", x.sim_p50_us as f64 / 1e3),
        ("sim_p99_ms", x.sim_p99_us as f64 / 1e3),
        ("city.generate.busy_share", share(total(spans::GENERATE))),
        ("city.ingest.busy_share", share(total(spans::INGEST))),
        ("city.flush_all.busy_share", share(total(spans::FLUSH))),
        ("city.ingest.ns", ratio(total(spans::INGEST), x.offered)),
        ("city.flush_all.ns", ratio(total(spans::FLUSH), x.stored)),
        ("city.stored_ratio", ratio(x.stored, x.offered)),
        (
            "write.allocs_per_reading",
            ratio(tr.write_allocs, x.offered),
        ),
        ("serve.busy_share", share(total(spans::SERVE))),
    ];
    const VIA_NAMES: [(&str, &str); VIAS.len()] = [
        ("serve.edge_cache.ns", "serve.edge_cache.count"),
        ("serve.source_cache.ns", "serve.source_cache.count"),
        ("serve.store_fog1.ns", "serve.store_fog1.count"),
        ("serve.store_fog2.ns", "serve.store_fog2.count"),
        ("serve.store_cloud.ns", "serve.store_cloud.count"),
        ("serve.warm_sketch.ns", "serve.warm_sketch.count"),
        ("serve.scatter.ns", "serve.scatter.count"),
    ];
    for (i, (ns, count)) in VIA_NAMES.into_iter().enumerate() {
        v.push((ns, ratio(tr.via_ns[i], tr.via_count[i])));
        v.push((count, tr.via_count[i] as f64));
    }
    v.extend([
        (
            "serve.scatter.legs_per_query",
            ratio(reg("scatter_legs"), reg("scatter_served")),
        ),
        (
            "serve.records_scanned_per_request",
            ratio(reg("records_scanned"), x.requests),
        ),
        (
            "serve.allocs_per_request",
            ratio(tr.serve_allocs, x.requests),
        ),
        ("cache.edge_hit_ratio", ratio(reg("edge_hits"), x.requests)),
        (
            "cache.source_hit_ratio",
            ratio(reg("source_hits"), x.requests),
        ),
        (
            "cache.partial_hit_ratio",
            ratio(reg("partial_hits"), buckets),
        ),
        ("cache.prefold_ratio", ratio(reg("prefold_hits"), buckets)),
        (
            "bench.self_share",
            share(tr.rec.self_ns(spans::PASS) + tr.rec.self_ns(spans::WAVE)),
        ),
    ]);
    v
}

/// Σ(isolated layer `.ns` × in-situ op count) for one traced pass, in ns,
/// next to the busy time it models (`generate` + `city.ingest` +
/// `city.flush_all` + `query.serve`). The formulas are in the README.
fn reconcile(pass: &PassOut, tr: &Trace, profile: &Profile) -> (f64, f64) {
    let ns = |name| profile.get(name).unwrap_or(0.0);
    let reg = |name| tr.registry(name).unwrap_or(0) as f64;
    let x = &pass.exact;
    let (offered, stored) = (x.offered as f64, x.stored as f64);
    let partial_bytes = ns("partial.encoded_bytes").max(1.0);
    let (hop1, hop2) = (
        reg("sketch_bytes_hop1") / partial_bytes,
        reg("sketch_bytes_hop2") / partial_bytes,
    );
    let generate = offered * ns("sensors.wave.ns");
    let ingest = offered * ns("dlc.acquire.ns") + stored * ns("store.insert.ns");
    let flush = stored
        * (ns("partial.absorb.ns")
            + 2.0
                * (ns("store.take_evict.ns")
                    + ns("sensors.wire_encode.ns")
                    + ns("tsenc.encode.ns")
                    + ns("tsenc.decode.ns")
                    + ns("store.insert.ns")))
        + hop1 * (ns("ledger.fold.ns") + ns("partial.encode.ns") + ns("ledger.fold_encoded.ns"))
        + hop2 * (ns("partial.encode.ns") + ns("ledger.fold_encoded.ns"));
    let count = |i: usize| tr.via_count[i] as f64;
    let cached = count(0) + count(1);
    let stores = count(2) + count(3) + count(4) + count(5);
    let scatters = count(6);
    let requests = x.requests as f64;
    let spans_opened = 2.0 * cached + 5.0 * (stores + scatters) + reg("scatter_legs");
    let serve = tr.scope_count[0] as f64 * ns("planner.plan_section.ns")
        + tr.scope_count[1] as f64 * ns("planner.plan_district.ns")
        + tr.scope_count[2] as f64 * ns("planner.plan_city.ns")
        + spans_opened * ns("obs.span.ns")
        + requests * (ns("obs.absorb_idle.ns") + 4.0 * ns("obs.counter_add.ns"))
        + cached * ns("cache.result_hit.ns")
        + (requests - cached) * (ns("cache.result_miss.ns") + ns("cache.result_put.ns"))
        + stores * ns("qos.acquire_release.ns")
        + scatters * ns("qos.scatter_acquire_release.ns")
        + reg("records_scanned") * ns("store.range.ns")
        + reg("partial_hits") * ns("partial.merge.ns")
        + reg("prefold_hits") * ns("ledger.merge_range.ns")
        + reg("scatter_legs") * ns("scatter.merge_aggregates.ns");
    let busy = tr.rec.total_ns(spans::GENERATE)
        + tr.rec.total_ns(spans::INGEST)
        + tr.rec.total_ns(spans::FLUSH)
        + tr.rec.total_ns(spans::SERVE);
    (generate + ingest + flush + serve, busy as f64)
}

/// The per-layer metrics of a traced run: in-situ medians over the traced
/// passes, the tracing overhead against the plain passes they alternate
/// with, the reconciliation residual, and the isolated profile.
pub fn per_layer(passes: &[PassOut], profile: &Profile) -> Values {
    let traced: Vec<(&PassOut, &Trace)> = passes
        .iter()
        .filter_map(|p| p.trace.as_ref().map(|t| (p, t)))
        .collect();
    let per_pass: Vec<Values> = traced.iter().map(|(p, t)| in_situ(p, t)).collect();
    let mut out: Values = (0..per_pass[0].len())
        .map(|i| {
            let values: Vec<f64> = per_pass.iter().map(|v| v[i].1).collect();
            (per_pass[0][i].0, median(&values))
        })
        .collect();
    // Plain and traced passes replay the same segments: compare the loops
    // with every segment at its fastest replica on each side.
    let traced_ns = fastest_loop_ns(passes.iter().filter(|p| p.trace.is_some()));
    let plain_ns = fastest_loop_ns(passes.iter().filter(|p| p.trace.is_none()));
    out.push((
        "trace.overhead_pct",
        (traced_ns as f64 / plain_ns.max(1) as f64 - 1.0) * 100.0,
    ));
    let residuals: Vec<f64> = traced
        .iter()
        .map(|(p, t)| {
            let (model, busy) = reconcile(p, t, profile);
            (busy - model) / busy.max(1.0) * 100.0
        })
        .collect();
    out.push(("reconcile.residual_pct", median(&residuals)));
    out.extend(profile.metrics.iter().copied());
    out
}

/// `{"name": {"value": v, "unit": u}, …}`.
pub fn metrics_json(values: &Values) -> Json {
    let mut o = Json::obj();
    for (name, value) in values {
        let mut m = Json::obj();
        m.set("value", Json::Num(*value));
        m.set("unit", Json::Str(unit_of(name).to_owned()));
        o.set(name, m);
    }
    o
}

/// One line of JSON: `to_pretty` never emits a raw newline inside a string,
/// so dropping line breaks and indentation is safe.
pub fn one_line(json: &Json) -> String {
    json.to_pretty().lines().map(str::trim_start).collect()
}

/// What [`Spec`] sizes a results file records.
pub fn sizes_json(spec: &Spec) -> Json {
    let mut o = Json::obj();
    o.set("scale", Json::Num(spec.scale as f64));
    o.set("warm_s", Json::Num(spec.warm_s as f64));
    o.set("sim_s", Json::Num(spec.sim_s as f64));
    o.set("req_per_sim_s", Json::Num(spec.req_per_sim_s as f64));
    o.set("op", Json::Str(spec.op.to_owned()));
    o.set("call", Json::Str(spec.call.to_owned()));
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(!setup.higher && setup.unit == "s");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_code_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark/run.sh manifest`"
        );
        assert!(text.len() <= 64 * 1024);
    }

    /// A fabricated traced pass: enough for the reductions to run.
    fn fake_pass() -> PassOut {
        let mut tr = Trace::new();
        let pass = tr.rec.open(spans::PASS, 0);
        let serve = tr.rec.open(spans::SERVE, 1);
        tr.rec.close(serve);
        tr.rec.tag_last("realtime", VIAS[0]);
        tr.rec.close(pass);
        PassOut {
            setup_s: 0.5,
            ops: 10,
            call_ns: vec![1_000],
            seg_ns: vec![2_000_000_000],
            attempted: 10,
            failed: 0,
            exact: crate::workload::Exact {
                outcome_hash: 1,
                offered: 10,
                stored: 5,
                flush_waves: 1,
                requests: 1,
                answered: 1,
                uplink_bytes: 50,
                sim_p50_us: 4_100,
                sim_p99_us: 10_000,
                cloud_len: 5,
            },
            trace: Some(tr),
            check_failures: Vec::new(),
        }
    }

    #[test]
    fn printed_names_are_the_declared_ones() {
        let pass = fake_pass();
        let names = |v: &Values| v.iter().map(|(n, _)| *n).collect::<Vec<_>>();
        let declared = |d: &[MetricDef]| d.iter().map(|m| m.name).collect::<Vec<_>>();
        let e2e = end_to_end(std::slice::from_ref(&pass));
        assert_eq!(names(&e2e), declared(&END_TO_END));
        assert_eq!(e2e[3], ("uplink_bytes_per_record", 10.0));
        // The in-situ block, then the two cross-pass metrics, open PER_LAYER;
        // the isolated names after them are checked against a real profile
        // at the end of every traced run.
        let mut situ = names(&in_situ(&pass, pass.trace.as_ref().expect("traced")));
        situ.extend(["trace.overhead_pct", "reconcile.residual_pct"]);
        assert_eq!(situ, declared(&PER_LAYER[..situ.len()]));
        assert!(PER_LAYER[situ.len()].name.starts_with("sensors."));
    }

    #[test]
    fn each_call_and_segment_counts_at_its_fastest_replica() {
        let mut a = fake_pass();
        let mut b = fake_pass();
        (a.call_ns, b.call_ns) = (vec![1_000, 9_000, 3_000], vec![5_000, 2_000, 3_500]);
        (a.seg_ns, b.seg_ns) = (vec![400, 100], vec![300, 700]);
        (a.setup_s, b.setup_s) = (0.25, 0.75);
        let v = end_to_end(&[a, b]);
        // Per-call minima 1, 2, 3 µs; per-segment minima 300 + 100 ns for 10 ops.
        assert_eq!(v[0], ("ops_per_s", 10.0 / 400e-9));
        assert_eq!(v[1], ("call_p50_us", 2.0));
        assert_eq!(v[2], ("call_p99_us", 3.0));
        assert_eq!(v[5], ("setup_s", 0.5));
    }

    #[test]
    fn serving_mixes_are_percentages() {
        for w in WORKLOADS.iter().filter(|w| w.serves()) {
            let m = w.mix;
            assert_eq!(
                m.realtime + m.dashboard + m.analytics + m.citywide,
                100,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn one_line_keeps_the_document() {
        let doc = manifest();
        let line = one_line(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).expect("still JSON"), doc);
    }
}
