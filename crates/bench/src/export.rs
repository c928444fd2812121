//! The gated `BENCH_*.json` documents, one [`Artifact`] row each in
//! [`ARTIFACTS`], and the JSON builders their bins share. The runs are
//! deterministic, so an unchanged tree matches each committed baseline
//! exactly: tolerances absorb *intentional* changes, and anything beyond
//! them ships with a regenerated baseline. `docs/REPRODUCTION.md` lists
//! every bench bin, gated or not.

use f2c_obs::{check_budget, BudgetRule, HistogramSummary, Json, Snapshot, Tracer};

/// One gated bench document.
pub struct Artifact {
    /// The bin that writes the document, and its `bench` member.
    pub bench: &'static str,
    /// Layout version: bump on any breaking change, since
    /// [`check_budget`] fails closed across versions.
    pub(crate) schema_version: u64,
    /// The file [`Artifact::write`] writes unless `BENCH_OUT` is set.
    pub(crate) out_file: &'static str,
    /// The committed baseline, relative to the workspace root.
    pub baseline: &'static str,
    /// The gated metric set.
    pub rules: &'static [BudgetRule],
    /// Paths that must read 0 whatever the baseline says: a defect no
    /// regenerated baseline may grandfather in.
    pub(crate) must_be_zero: &'static [&'static str],
}

/// The E7 serving document, `BENCH_queries.json`.
///
/// Schema history (up to v3 the version also stamped
/// `BENCH_table1.json`, which stays at v3):
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
///
/// v5: the flush codec has one stream mode, so `flush.batches_columnar`
/// becomes `flush.batches` (and its series `flush_batches{service=flush}`),
/// the fallback's `flush.batches_fallback` and series are gone, and the
/// registry gains `ingest_shape_refused{service=ingest}`, the readings
/// acquisition refused because their value contradicts their type's
/// shape.
///
/// v6: a `mem` section prices the main city's bytes at rest per tier —
/// `mem.{fog1,fog2,cloud}.bytes` (`F2cCity::heap_bytes`, from lengths
/// and capacities) and `mem.bytes_per_stored_record`, their sum over
/// every record copy the three tiers archive. All four are pure
/// functions of the seed, gated at zero tolerance.
///
/// Since v6, additively (so the version holds): the registry gains
/// `ingest_quality_violations{service=ingest,kind=…}` for `out_of_range`,
/// `stale` and `future_timestamp`, the readings acquisition dropped on
/// quality, under each violation they showed. The quality report no
/// longer rides on each stored record, so this is where the quality
/// phase's verdicts are read. CI's `cmp` of the document holds them.
///
/// v7: `mem` is priced where the main run ends, not ten simulated days
/// later, when fog 1 and fog 2 held no records; each tier gains
/// `mem.<tier>.store_bytes`, its stores' part, gated exactly.
pub const QUERIES: Artifact = Artifact {
    bench: "queries",
    schema_version: 7,
    out_file: "BENCH_queries.json",
    baseline: "bench/baseline.json",
    // Latency phases and byte costs are ceilings (a fall is an
    // improvement); answer/cache/heal rates are bands (a collapse either
    // way means the workload stopped exercising what it measures).
    rules: &[
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
        // Bytes at rest: what each tier holds, priced from lengths and
        // capacities, so any move is a change to what is stored.
        BudgetRule::band("mem.fog1.bytes", 0.0, 0.0),
        BudgetRule::band("mem.fog2.bytes", 0.0, 0.0),
        BudgetRule::band("mem.cloud.bytes", 0.0, 0.0),
        BudgetRule::band("mem.fog1.store_bytes", 0.0, 0.0),
        BudgetRule::band("mem.fog2.store_bytes", 0.0, 0.0),
        BudgetRule::band("mem.cloud.store_bytes", 0.0, 0.0),
        BudgetRule::band("mem.bytes_per_stored_record", 0.0, 0.0),
        // The chaos scenario must keep degrading *and* healing.
        BudgetRule::ceiling("chaos.fault_shed", 0.50, 50.0),
        BudgetRule::band("chaos.incidents.hole-healed", 0.50, 4.0),
        BudgetRule::band("chaos.heal.healed", 0.50, 4.0),
        // Diagnosis plane: the fault-free main run must never burn SLO
        // budget (`must_be_zero` below holds it absolutely), while the
        // storm must both fire and resolve.
        BudgetRule::band("alerts.fired", 0.0, 0.0),
        BudgetRule::band("chaos.alerts.fired", 0.0, 2.0),
        BudgetRule::band("chaos.alerts.resolved", 0.0, 2.0),
        // The explain reservoir and exemplar slots must keep filling.
        BudgetRule::band("explains.kept", 0.25, 4.0),
        BudgetRule::band("exemplars.kept", 0.25, 8.0),
    ],
    // The fault-free main run must fire no SLO burn-rate alert: a fire
    // there is a real degradation or a broken monitor, never drift. And
    // the generators emit only what their types' shapes admit, so
    // acquisition must refuse none of it.
    must_be_zero: &[
        "alerts.fired",
        "registry.counters.ingest_shape_refused{service=ingest}",
    ],
};

/// The Table I checkpoints, `BENCH_table1.json`, unchanged since v3.
pub const TABLE1: Artifact = Artifact {
    bench: "table1",
    schema_version: 3,
    out_file: "BENCH_table1.json",
    baseline: "bench/baseline_table1.json",
    // Closed-form arithmetic over the paper's sensor inventory: no
    // simulation, so every checkpoint matches the baseline exactly.
    rules: &[
        BudgetRule::band("totals.sensors", 0.0, 0.0),
        BudgetRule::band("totals.wave_cloud_model", 0.0, 0.0),
        BudgetRule::band("totals.wave_fog2", 0.0, 0.0),
        BudgetRule::band("totals.daily_fog1", 0.0, 0.0),
        BudgetRule::band("totals.daily_cloud_f2c", 0.0, 0.0),
        BudgetRule::band("totals.daily_dedup_savings", 0.0, 0.0),
    ],
    must_be_zero: &[],
};

/// The Fig. 7 event simulation, `BENCH_fig7.json`: a full day on four
/// sampled sections at full population, scaled to the full city.
pub const FIG7: Artifact = Artifact {
    bench: "fig7",
    schema_version: 1,
    out_file: "BENCH_fig7.json",
    baseline: "bench/baseline_fig7.json",
    // The simulation is a pure function of its seed at every thread
    // count, so every value matches the baseline exactly.
    rules: &[
        BudgetRule::band("sample.readings", 0.0, 0.0),
        BudgetRule::band("sample.stored", 0.0, 0.0),
        BudgetRule::band("categories.energy.raw", 0.0, 0.0),
        BudgetRule::band("categories.energy.after_dedup", 0.0, 0.0),
        BudgetRule::band("categories.energy.compressed", 0.0, 0.0),
        BudgetRule::band("categories.noise.raw", 0.0, 0.0),
        BudgetRule::band("categories.noise.after_dedup", 0.0, 0.0),
        BudgetRule::band("categories.noise.compressed", 0.0, 0.0),
        BudgetRule::band("categories.garbage.raw", 0.0, 0.0),
        BudgetRule::band("categories.garbage.after_dedup", 0.0, 0.0),
        BudgetRule::band("categories.garbage.compressed", 0.0, 0.0),
        BudgetRule::band("categories.parking.raw", 0.0, 0.0),
        BudgetRule::band("categories.parking.after_dedup", 0.0, 0.0),
        BudgetRule::band("categories.parking.compressed", 0.0, 0.0),
        BudgetRule::band("categories.urban.raw", 0.0, 0.0),
        BudgetRule::band("categories.urban.after_dedup", 0.0, 0.0),
        BudgetRule::band("categories.urban.compressed", 0.0, 0.0),
    ],
    must_be_zero: &[],
};

/// The E4 read latencies, `BENCH_latency.json`: fog-local against
/// centralized reads per payload size, the age tiers, the WAN outage and
/// the device radio energy.
pub const LATENCY: Artifact = Artifact {
    bench: "latency",
    schema_version: 1,
    out_file: "BENCH_latency.json",
    baseline: "bench/baseline_latency.json",
    // Priced by the cost model on a fixed profile, with no seed at all:
    // any move is a change to the model.
    rules: &[
        BudgetRule::band("reads.100.f2c_us", 0.0, 0.0),
        BudgetRule::band("reads.100.centralized_us", 0.0, 0.0),
        BudgetRule::band("reads.1000.f2c_us", 0.0, 0.0),
        BudgetRule::band("reads.1000.centralized_us", 0.0, 0.0),
        BudgetRule::band("reads.10000.f2c_us", 0.0, 0.0),
        BudgetRule::band("reads.10000.centralized_us", 0.0, 0.0),
        BudgetRule::band("reads.100000.f2c_us", 0.0, 0.0),
        BudgetRule::band("reads.100000.centralized_us", 0.0, 0.0),
        BudgetRule::band("reads.1000000.f2c_us", 0.0, 0.0),
        BudgetRule::band("reads.1000000.centralized_us", 0.0, 0.0),
        BudgetRule::band("tiers.local_us", 0.0, 0.0),
        BudgetRule::band("tiers.recent_us", 0.0, 0.0),
        BudgetRule::band("tiers.historical_us", 0.0, 0.0),
        BudgetRule::band("outage.fog2_served", 0.0, 0.0),
        BudgetRule::band("outage.centralized_served", 0.0, 0.0),
        BudgetRule::band("energy.centralized_j", 0.0, 0.0),
        BudgetRule::band("energy.f2c_j", 0.0, 0.0),
    ],
    must_be_zero: &["outage.centralized_served"],
};

/// Every gated document, one row each.
pub const ARTIFACTS: &[Artifact] = &[QUERIES, TABLE1, FIG7, LATENCY];

impl Artifact {
    /// An empty document stamped with this row's `schema_version` and
    /// `bench`.
    pub fn doc(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("schema_version", num(self.schema_version));
        doc.set("bench", Json::Str(self.bench.to_string()));
        doc
    }

    /// Writes `doc` to `BENCH_OUT`, or to `out_file` when that is unset,
    /// and returns the path written.
    pub fn write(&self, doc: &Json) -> std::io::Result<String> {
        let path = std::env::var("BENCH_OUT").unwrap_or_else(|_| self.out_file.to_string());
        std::fs::write(&path, doc.to_pretty())?;
        Ok(path)
    }

    /// Every way `current` breaks this row, one line each (empty: the
    /// gate passes): a baseline of another bench, which would compare
    /// nothing; the baseline diff under [`Artifact::rules`]; each
    /// `must_be_zero` path that is missing or nonzero.
    pub fn gate(&self, baseline: &Json, current: &Json) -> Vec<String> {
        let mut violations = Vec::new();
        if baseline.get("bench").and_then(Json::as_str) != Some(self.bench) {
            violations.push(format!(
                "bench: the baseline is not a `{}` document",
                self.bench
            ));
        }
        let diff = check_budget(baseline, current, self.rules);
        violations.extend(diff.iter().map(ToString::to_string));
        for path in self.must_be_zero {
            let value = current.path(path).and_then(Json::as_u64);
            if value != Some(0) {
                let read = value.map_or_else(|| "missing".to_string(), |n| n.to_string());
                violations.push(format!(
                    "{path}: {read}, must be 0 whatever the baseline says"
                ));
            }
        }
        violations
    }
}

/// A `u64` as a JSON number (every exporter value fits in 2^53).
pub fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

/// A [`HistogramSummary`] as a JSON object, all durations in simulated
/// microseconds.
pub(crate) fn summary_json(s: &HistogramSummary) -> Json {
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

/// A label→count table as a JSON object, in iteration order.
pub fn counts_json<'a>(counts: impl IntoIterator<Item = (&'a str, u64)>) -> Json {
    let mut out = Json::obj();
    for (label, count) in counts {
        out.set(label, num(count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use citysim::time::Duration;
    use f2c_obs::{Labels, MetricsRegistry, Site};

    /// A file at the workspace root, where the baselines and docs live.
    fn read_at_root(relative: &str) -> String {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        std::fs::read_to_string(format!("{root}{relative}")).expect(relative)
    }

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

        let mut doc = QUERIES.doc();
        doc.set("registry", snapshot_json(&reg.snapshot()));
        doc.set("phases", phases_json(&tracer));
        doc.set("incidents", counts_json([("hole-punched", 2u64)]));
        doc
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let parsed = Json::parse(&sample_doc().to_pretty()).expect("parses");
        for (path, expected) in [
            ("registry.counters.queries_served{layer=fog1}", 7.0),
            ("registry.gauges.in_flight{layer=fog2}", -3.0),
            ("phases.query.p50_us", 900.0),
            ("incidents.hole-punched", 2.0),
        ] {
            assert_eq!(
                parsed.path(path).and_then(Json::as_f64),
                Some(expected),
                "{path}"
            );
        }
    }

    #[test]
    fn an_unchanged_document_passes_its_own_gate() {
        // The rule set may gate paths the sample doc lacks — restrict to
        // the shared subset to prove identical documents always pass.
        let doc = sample_doc();
        let rules: Vec<BudgetRule> = QUERIES
            .rules
            .iter()
            .filter(|r| doc.path(r.path).is_some())
            .copied()
            .collect();
        assert!(check_budget(&doc, &doc.clone(), &rules).is_empty());
    }

    #[test]
    fn every_committed_baseline_is_its_rows_document_and_passes_its_gate() {
        for row in ARTIFACTS {
            let doc = Json::parse(&read_at_root(row.baseline)).expect(row.baseline);
            assert_eq!(doc.get("bench").and_then(Json::as_str), Some(row.bench));
            let version = doc.get("schema_version").and_then(Json::as_u64);
            assert_eq!(version, Some(row.schema_version), "{}", row.baseline);
            assert_eq!(
                row.gate(&doc, &doc),
                Vec::<String>::new(),
                "{}",
                row.baseline
            );
        }
    }

    #[test]
    fn a_fired_or_missing_alert_fails_the_gate_whatever_the_baseline_says() {
        let baseline = Json::parse(&read_at_root(QUERIES.baseline)).expect("parses");
        let mut fired = baseline.get("alerts").expect("alerts section").clone();
        fired.set("fired", num(1));
        // Each document is gated against itself, so the baseline diff
        // reads the same on both sides: the one extra line is the
        // baseline-independent check.
        for alerts in [fired, Json::obj()] {
            let mut doc = baseline.clone();
            doc.set("alerts", alerts);
            let violations = QUERIES.gate(&doc, &doc);
            let diff = check_budget(&doc, &doc, QUERIES.rules).len();
            assert_eq!(violations.len(), diff + 1, "{violations:?}");
            assert!(violations[diff].starts_with("alerts.fired: "));
        }
    }

    #[test]
    fn the_reproduction_ledger_names_every_gated_document() {
        let ledger = read_at_root("docs/REPRODUCTION.md");
        for row in ARTIFACTS {
            assert!(
                ledger.contains(&format!("`{}`", row.bench)),
                "{}",
                row.bench
            );
            assert!(ledger.contains(row.baseline), "{}", row.baseline);
        }
    }
}
