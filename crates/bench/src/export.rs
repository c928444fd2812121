//! The `BENCH_*.json` export pipeline and the perf-budget rule set.
//!
//! The `queries` experiment serializes its registry snapshot, per-phase
//! trace summaries and chaos incident table into one schema-versioned
//! document; CI re-runs the bench at smoke scale and the `perf_gate`
//! binary diffs the fresh document against the committed
//! `bench/baseline.json` under [`budget_rules`]. The simulation is
//! deterministic, so on an unchanged tree every gated value matches the
//! baseline exactly — the tolerances exist to absorb *intentional*
//! behavior changes, and anything beyond them ships with a regenerated
//! baseline or not at all.

use f2c_obs::{BudgetRule, HistogramSummary, Json, Snapshot, Tracer};

/// Version stamp for the `BENCH_queries.json` layout (up to v3 it also
/// stamped `BENCH_table1.json`, which keeps [`TABLE1_SCHEMA_VERSION`]).
/// Bump on any breaking change to the document layout;
/// [`f2c_obs::check_budget`] fails closed on a mismatch rather than
/// gating across incompatible schemas.
///
/// v2: per-phase `dropped` counts, the diagnosis-plane sections
/// (`explains`, `exemplars`, `alerts`, `chaos.alerts`) and the
/// second gated document `BENCH_table1.json`.
///
/// v3: the flush section gains `uplink_bytes` (what the network really
/// carried once the tsenc codec encodes both hops) and
/// `flush.bytes_per_record` is redefined over it — uplink bytes per
/// cloud-stored record — so the codec's win is the gated quantity.
///
/// v4: the per-phase `dropped` counts are gone — each phase's summary
/// now covers every span of that phase, ring-evicted ones included, so
/// `phases.query.count` equals the requests served.
pub const SCHEMA_VERSION: u64 = 4;

/// Version stamp for the `BENCH_table1.json` layout, unchanged since v3.
pub const TABLE1_SCHEMA_VERSION: u64 = 3;

/// A `u64` as a JSON number (every exporter value fits in 2^53).
pub fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

/// A [`HistogramSummary`] as a JSON object, all durations in simulated
/// microseconds.
pub fn summary_json(s: &HistogramSummary) -> Json {
    let mut out = Json::obj();
    out.set("count", num(s.count));
    out.set("min_us", num(s.min_us));
    out.set("p50_us", num(s.p50_us));
    out.set("p90_us", num(s.p90_us));
    out.set("p99_us", num(s.p99_us));
    out.set("max_us", num(s.max_us));
    out.set("mean_us", num(s.mean_us));
    out
}

/// A full registry [`Snapshot`] as `{counters, gauges, histograms}`, every
/// series under its canonical `name{labels}` key. Keys never contain dots,
/// so `Json::path` can address them (`registry.counters.query_requests{…}`).
pub fn snapshot_json(snap: &Snapshot) -> Json {
    let mut counters = Json::obj();
    for (key, value) in &snap.counters {
        counters.set(key, num(*value));
    }
    let mut gauges = Json::obj();
    for (key, value) in &snap.gauges {
        gauges.set(key, Json::Num(*value as f64));
    }
    let mut histograms = Json::obj();
    for (key, summary) in &snap.histograms {
        histograms.set(key, summary_json(summary));
    }
    let mut out = Json::obj();
    out.set("counters", counters);
    out.set("gauges", gauges);
    out.set("histograms", histograms);
    out
}

/// Per-phase span-duration summaries pooled across every site the tracer
/// saw: `{"flush-hop": {count, p50_us, p99_us, …}, "query": …}`. Each
/// summary covers every span of its phase the tracer completed, whether
/// or not the span is still in its site's ring.
pub fn phases_json(tracer: &Tracer) -> Json {
    let mut out = Json::obj();
    for (name, hist) in tracer.phase_histograms() {
        out.set(name, summary_json(&HistogramSummary::of(&hist)));
    }
    out
}

/// A label→count table (the incident timeline summary) as a JSON object.
pub fn counts_json<'a>(counts: impl IntoIterator<Item = (&'a str, u64)>) -> Json {
    let mut out = Json::obj();
    for (label, count) in counts {
        out.set(label, num(count));
    }
    out
}

/// The gated metric set for `BENCH_queries.json`.
///
/// Latency phases and byte costs are ceilings (a fall is an improvement);
/// answer/cache/heal rates are bands (a collapse in either direction means
/// the workload stopped exercising the machinery it claims to measure).
pub fn budget_rules() -> &'static [BudgetRule] {
    const RULES: &[BudgetRule] = &[
        // The run must stay the same experiment.
        BudgetRule::band("workload.issued", 0.01, 1.0),
        BudgetRule::band("workload.answer_rate", 0.02, 0.005),
        BudgetRule::band("workload.cache_hit_rate", 0.15, 0.01),
        BudgetRule::ceiling("workload.shed_total", 0.25, 32.0),
        BudgetRule::ceiling("workload.unanswerable", 0.25, 8.0),
        // Pure functions of the seed, and what a scan is priced by: an
        // index may make a read cheaper to run, never cheaper to model.
        BudgetRule::band("workload.records_scanned", 0.0, 0.0),
        BudgetRule::band(
            "registry.counters.query_records_scanned{service=query}",
            0.0,
            0.0,
        ),
        // Simulated-time latency budgets, per traced phase.
        BudgetRule::ceiling("phases.query.p99_us", 0.35, 250.0),
        BudgetRule::ceiling("phases.query-execute.p99_us", 0.35, 250.0),
        BudgetRule::ceiling("phases.query-deliver.p99_us", 0.35, 250.0),
        BudgetRule::ceiling("phases.flush-hop.p99_us", 0.35, 250.0),
        BudgetRule::ceiling("phases.scatter-leg.p99_us", 0.35, 250.0),
        // Shipping cost: bytes per stored record and the sketch channel's
        // share of the raw stream it summarizes.
        BudgetRule::ceiling("flush.bytes_per_record", 0.20, 4.0),
        BudgetRule::ceiling("flush.sketch_ratio", 0.25, 0.005),
        // The chaos scenario must keep degrading *and* healing.
        BudgetRule::ceiling("chaos.fault_shed", 0.50, 50.0),
        BudgetRule::band("chaos.incidents.hole-healed", 0.50, 4.0),
        BudgetRule::band("chaos.heal.healed", 0.50, 4.0),
        // Diagnosis plane: the fault-free main run must never burn SLO
        // budget (a fire here is a planted fault or a broken monitor —
        // perf_gate additionally hard-fails on it regardless of
        // baseline drift), while the storm must both fire and resolve.
        BudgetRule::band("alerts.fired", 0.0, 0.0),
        BudgetRule::band("chaos.alerts.fired", 0.0, 2.0),
        BudgetRule::band("chaos.alerts.resolved", 0.0, 2.0),
        // The explain reservoir and exemplar slots must keep filling.
        BudgetRule::band("explains.kept", 0.25, 4.0),
        BudgetRule::band("exemplars.kept", 0.25, 8.0),
    ];
    RULES
}

/// The gated metric set for `BENCH_table1.json`.
///
/// Table I is closed-form arithmetic over the paper's sensor inventory —
/// no simulation, no tolerance: every checkpoint must match the committed
/// baseline (which matches the paper) exactly.
pub fn table1_budget_rules() -> &'static [BudgetRule] {
    const RULES: &[BudgetRule] = &[
        BudgetRule::band("totals.sensors", 0.0, 0.0),
        BudgetRule::band("totals.wave_cloud_model", 0.0, 0.0),
        BudgetRule::band("totals.wave_fog2", 0.0, 0.0),
        BudgetRule::band("totals.daily_fog1", 0.0, 0.0),
        BudgetRule::band("totals.daily_cloud_f2c", 0.0, 0.0),
        BudgetRule::band("totals.daily_dedup_savings", 0.0, 0.0),
    ];
    RULES
}

/// The rule set for a document, keyed on its `bench` member
/// (`"queries"` → [`budget_rules`], `"table1"` →
/// [`table1_budget_rules`]). Unknown or missing names gate nothing —
/// the caller should treat that as an error rather than a pass.
pub fn budget_rules_for(bench: Option<&str>) -> Option<&'static [BudgetRule]> {
    match bench {
        Some("queries") => Some(budget_rules()),
        Some("table1") => Some(table1_budget_rules()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citysim::time::Duration;
    use f2c_obs::{check_budget, Labels, MetricsRegistry, Site};

    fn sample_doc() -> Json {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("queries_served", Labels::new().layer("fog1"));
        reg.add(c, 7);
        let g = reg.gauge("in_flight", Labels::new().layer("fog2"));
        reg.set(g, -3);
        let h = reg.histogram("latency", Labels::new());
        reg.observe(h, Duration::from_micros(400));

        let mut tracer = Tracer::new();
        let span = tracer.open(Site::new("fog1", 0), "query", 1_000);
        tracer.close(span, 1_900);

        let mut doc = Json::obj();
        doc.set("schema_version", num(SCHEMA_VERSION));
        doc.set("registry", snapshot_json(&reg.snapshot()));
        doc.set("phases", phases_json(&tracer));
        doc.set("incidents", counts_json([("hole-punched", 2u64)]));
        doc
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let doc = sample_doc();
        let parsed = Json::parse(&doc.to_pretty()).expect("parses");
        assert_eq!(
            parsed
                .path("registry.counters.queries_served{layer=fog1}")
                .and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(
            parsed
                .path("registry.gauges.in_flight{layer=fog2}")
                .and_then(Json::as_f64),
            Some(-3.0)
        );
        assert_eq!(
            parsed.path("phases.query.p50_us").and_then(Json::as_u64),
            Some(900)
        );
        assert_eq!(
            parsed.path("incidents.hole-punched").and_then(Json::as_u64),
            Some(2)
        );
    }

    #[test]
    fn an_unchanged_document_passes_its_own_gate() {
        // The rule set may gate paths the sample doc lacks — restrict to
        // the shared subset to prove identical documents always pass.
        let doc = sample_doc();
        let rules: Vec<BudgetRule> = budget_rules()
            .iter()
            .filter(|r| doc.path(r.path).is_some())
            .copied()
            .collect();
        assert!(check_budget(&doc, &doc.clone(), &rules).is_empty());
    }
}
