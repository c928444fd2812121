//! Parallel-runtime conformance: the district-sharded workload runtime
//! ([`f2c_smartcity::query::parallel`]) must produce **byte-identical**
//! run artifacts at every worker-thread count — the per-request
//! transcript and its hash, every node's store and sketch ledger, the
//! unified metric snapshot, the trace stream and the incident timeline.
//! The shard decomposition (one logical shard per district) and every
//! merge order are fixed by construction; threads only carry shards, so
//! `PARALLELISM=8` must reproduce `PARALLELISM=1` exactly.
//!
//! The oracle reports the *first divergent byte offset* on failure, so
//! a nondeterminism regression pinpoints which artifact — and where —
//! stopped being a pure function of the seed.

use f2c_smartcity::citysim::net::FailurePlan;
use f2c_smartcity::compress::tsenc::StreamDecoder;
use f2c_smartcity::core::runtime::populate_city;
use f2c_smartcity::core::{ChaosSite, F2cCity, Parallelism};
use f2c_smartcity::query::{
    parallel, DiurnalCurve, EngineConfig, FlashCrowd, QueryEngine, ServiceClass, WorkloadConfig,
    WorkloadReport,
};
use f2c_smartcity::sensors::wire;

/// Asserts two replica byte streams are identical, reporting the first
/// divergent offset and a ±8-byte hex window on failure.
fn assert_byte_identical(a: &[u8], b: &[u8], label: &str) {
    if a == b {
        return;
    }
    let common = a.len().min(b.len());
    let offset = (0..common).find(|&i| a[i] != b[i]).unwrap_or(common);
    let window =
        |s: &[u8]| -> Vec<u8> { s[offset.saturating_sub(8)..(offset + 8).min(s.len())].to_vec() };
    panic!(
        "{label}: replicas diverge at byte offset {offset} \
         (lengths {} vs {});\n  a[..±8] = {:02x?}\n  b[..±8] = {:02x?}",
        a.len(),
        b.len(),
        window(a),
        window(b),
    );
}

/// 64-bit FNV-1a over an artifact stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins a fixture's single-thread artifact stream to its golden hash.
/// The thread-count sweeps compare the city only with itself, so a
/// change that reorders spans, incidents or shipments at every thread
/// count alike passes them; this catches it.
fn assert_golden(artifacts: &[u8], golden: u64, fixture: &str) {
    let got = fnv1a(artifacts);
    assert_eq!(
        got, golden,
        "{fixture}: artifact hash {got:#018x}, golden {golden:#018x}. Regenerate the \
         golden constant only when a change intends to move the artifacts, and say so \
         in CHANGES.md."
    );
}

/// FNV-1a of the fault-free fixture's artifacts at one thread.
const GOLDEN_WORKLOAD: u64 = 0xeba8_475e_0c74_7732;

/// FNV-1a of the storm fixture's artifacts at one thread: partials
/// corrupted in flight on both hops, and the shipments that carried
/// them NACKed back to their senders.
const GOLDEN_STORM: u64 = 0xe28b_6061_d4cd_059a;

/// Whether the artifact stream's incident lines hold `kind` at a site
/// whose name starts with `site`.
fn has_incident(artifacts: &[u8], site: &str, kind: &str) -> bool {
    String::from_utf8_lossy(artifacts).lines().any(|line| {
        line.starts_with("incident ")
            && line.contains(&format!(" site={site}"))
            && line.ends_with(&format!(" kind={kind}"))
    })
}

/// Renders every artifact of a finished run into one byte stream:
/// transcript, report accounting, per-node store and sketch-ledger
/// fingerprints, the cloud archive's full wire text, the metric
/// snapshot, the trace stream and the incident timeline.
fn run_artifacts(engine: &QueryEngine, transcript: &[u8], summary: &str) -> Vec<u8> {
    let mut out = transcript.to_vec();
    out.extend_from_slice(summary.as_bytes());
    let city = engine.city();
    for s in 0..city.section_count() {
        let store = city.fog1(s).store();
        let ledger = city.fog1(s).sketches();
        out.extend_from_slice(
            format!(
                "fog1[{s}] len={} pending={} wire={} evicted={} ledger_len={} folds={}\n",
                store.len(),
                store.pending_len(),
                store.wire_bytes(),
                store.evicted_before_s(),
                ledger.len(),
                ledger.folds(),
            )
            .as_bytes(),
        );
    }
    for d in 0..city.district_count() {
        let store = city.fog2(d).store();
        let ledger = city.fog2(d).sketches();
        out.extend_from_slice(
            format!(
                "fog2[{d}] len={} pending={} wire={} ledger_len={} folds={} crc={}\n",
                store.len(),
                store.pending_len(),
                store.wire_bytes(),
                ledger.len(),
                ledger.folds(),
                ledger.crc_failures(),
            )
            .as_bytes(),
        );
    }
    let cloud = city.cloud().store();
    out.extend_from_slice(
        format!(
            "cloud len={} wire={} ledger_len={} folds={}\n",
            cloud.len(),
            cloud.wire_bytes(),
            city.cloud().sketches().len(),
            city.cloud().sketches().folds(),
        )
        .as_bytes(),
    );
    for record in cloud.range(0, u64::MAX) {
        out.extend_from_slice(wire::encode(record.reading()).as_bytes());
        out.push(b'\n');
    }
    let snapshot = city.metrics().snapshot();
    for (key, value) in &snapshot.counters {
        out.extend_from_slice(format!("{key}={value}\n").as_bytes());
    }
    for (key, value) in &snapshot.gauges {
        out.extend_from_slice(format!("{key}={value}\n").as_bytes());
    }
    // The flush-codec tap: every encoded shipment that crossed either
    // hop, raw payload bytes included — cross-batch dictionary state
    // makes each payload depend on every prior flush of its stream, so
    // any thread-order leak anywhere upstream shows here. The wire text
    // is the decoded payload's, one decoder per stream.
    let mut decoders = std::collections::BTreeMap::new();
    for shipment in city.shipment_log() {
        let readings = decoders
            .entry((shipment.hop, shipment.origin))
            .or_insert_with(StreamDecoder::new)
            .decode_batch(&shipment.payload)
            .expect("a tapped payload decodes");
        out.extend_from_slice(
            format!(
                "shipment hop={} origin={} t={} payload={} wire={}\n",
                shipment.hop,
                shipment.origin,
                shipment.at_s,
                shipment.payload.len(),
                wire::encode_batch(&readings).len(),
            )
            .as_bytes(),
        );
        out.extend_from_slice(&shipment.payload);
        out.push(b'\n');
    }
    out.extend_from_slice(&city.tracer().encode());
    // The diagnosis plane rides the same oracle: explain transcripts,
    // per-bucket trace exemplars and the alert log are shard-merged
    // observables, so their exports must be byte-identical too.
    out.extend_from_slice(city.explains().export().to_pretty().as_bytes());
    out.extend_from_slice(city.exemplars().export().to_pretty().as_bytes());
    out.extend_from_slice(city.burn_monitor().export().to_pretty().as_bytes());
    for incident in city.timeline().iter() {
        out.extend_from_slice(
            format!(
                "incident t={} site={} kind={}\n",
                incident.at_s,
                incident.site,
                incident.kind.label()
            )
            .as_bytes(),
        );
    }
    out
}

/// The two load shapes only this loop carries, as oracle inputs: the
/// paper's day curve, and an analytics stampede (48 users thinking 32×
/// faster for 120 s) shortly after the run starts.
fn shaped(mut config: WorkloadConfig, diurnal: bool, flash: bool) -> WorkloadConfig {
    config.diurnal = diurnal.then(DiurnalCurve::paper_day);
    config.flash_crowds[0] = flash.then_some(FlashCrowd {
        class: ServiceClass::Analytics,
        start_s: config.start_s + 10,
        duration_s: 120,
        users: 48,
        think_divisor: 32,
    });
    config
}

/// Asserts that the engine's counters put every issued request in
/// exactly one outcome: answered, shed (capacity, deadline or fault) or
/// unanswerable — in total and per class. No counter tallies a class's
/// unanswerable requests, so those come from the transcript's `U` lines
/// (`n;Class;U;;0`).
fn assert_outcomes_partition(report: &WorkloadReport) {
    let s = &report.stats;
    assert_eq!(report.issued, s.requests, "every issued request is counted");
    assert_eq!(
        s.requests,
        s.answered + s.shed_total() + s.deadline_shed_total() + s.fault_shed + s.unanswerable,
        "every request has exactly one outcome: {s:?}"
    );
    let transcript = String::from_utf8_lossy(&report.transcript);
    for class in ServiceClass::ALL {
        let name = format!("{class:?}");
        let unanswerable = transcript
            .lines()
            .filter(|line| line.split(';').skip(1).take(2).eq([name.as_str(), "U"]))
            .count() as u64;
        let c = report.class_stats(class);
        assert_eq!(
            c.requests,
            c.answered + c.shed + c.deadline_shed + c.fault_shed + unanswerable,
            "every {class:?} request has exactly one outcome: {c:?}"
        );
    }
}

/// One sharded-workload replica at `threads` worker threads: warm a
/// seeded city, optionally install a fault storm, drive the sharded
/// closed loop, and return every run artifact as one byte stream, with
/// the memory ledger's per-tier bytes at the end.
fn shard_replica(
    config: &WorkloadConfig,
    threads: usize,
    storm: bool,
) -> (Vec<u8>, (u64, u64, u64)) {
    let mut city = F2cCity::barcelona().expect("city builds");
    city.set_parallelism(Parallelism::new(threads));
    city.set_capture_shipments(true);
    populate_city(&mut city, 20_000, config.seed, config.start_s, 900).expect("warm-up runs");
    if storm {
        let mut plan = FailurePlan::with_seed(config.seed);
        plan.set_shipment_loss(0.10);
        plan.set_shipment_corruption(0.08);
        city.set_failures(plan);
        city.inject_node_outage(
            ChaosSite::Fog1(5),
            config.start_s + 50,
            config.start_s + 380,
        );
        city.inject_node_outage(ChaosSite::Cloud, config.start_s + 400, config.start_s + 500);
    }
    let mut engine = QueryEngine::new(city, EngineConfig::default());
    let mut cfg = *config;
    cfg.record_transcript = true;
    let report = parallel::run(&mut engine, &cfg).expect("sharded workload runs");
    assert_outcomes_partition(&report);
    let s = &report.stats;
    let summary = format!(
        "report issued={} answered={} shed={} unanswerable={} hash={:016x} end={}\n",
        report.issued,
        report.answered,
        s.shed_total() + s.deadline_shed_total() + s.fault_shed,
        s.unanswerable,
        report.transcript_hash,
        report.sim_end_s,
    );
    (
        run_artifacts(&engine, &report.transcript, &summary),
        engine.city().heap_bytes(),
    )
}

#[test]
fn sharded_workload_is_thread_count_invariant() {
    // The tentpole conformance sweep, query-serving plane: live flush
    // and ingest barriers under the day curve and a flash crowd, every
    // artifact byte-identical at 1/2/4/8 worker threads.
    let config = shaped(
        WorkloadConfig {
            seed: 2017,
            requests: 1_200,
            users: 24,
            start_s: 3_600,
            flush_period_s: 300,
            ingest_period_s: 300,
            ingest_scale: 5_000,
            ..WorkloadConfig::default()
        },
        true,
        true,
    );
    let (baseline, heap) = shard_replica(&config, 1, false);
    assert!(
        baseline.len() > 10_000,
        "artifact stream suspiciously small ({} bytes)",
        baseline.len()
    );
    assert_golden(&baseline, GOLDEN_WORKLOAD, "sharded workload");
    for threads in [2usize, 4, 8] {
        let (other, other_heap) = shard_replica(&config, threads, false);
        assert_byte_identical(
            &baseline,
            &other,
            &format!("sharded workload, threads=1 vs threads={threads}"),
        );
        assert_eq!(
            heap, other_heap,
            "memory ledger, threads=1 vs threads={threads}"
        );
    }
}

#[test]
fn sharded_storm_is_thread_count_invariant() {
    // Chaos composes with the sharded runtime: loss/corruption coins
    // and crash windows under live sharded load must not introduce any
    // thread-count dependence.
    let config = WorkloadConfig {
        seed: 4099,
        requests: 800,
        users: 16,
        start_s: 3_600,
        flush_period_s: 300,
        ingest_period_s: 300,
        ingest_scale: 5_000,
        ..WorkloadConfig::default()
    };
    let (baseline, heap) = shard_replica(&config, 1, true);
    assert_golden(&baseline, GOLDEN_STORM, "sharded storm");
    // What the golden hash holds: damaged shipments from both tiers of
    // senders, each a NACK recorded against its sender.
    for (site, kind) in [
        ("fog1/", "shipment-corrupted"),
        ("fog2/", "shipment-corrupted"),
    ] {
        assert!(
            has_incident(&baseline, site, kind),
            "the storm fixture no longer covers {kind} at {site}"
        );
    }
    let (other, other_heap) = shard_replica(&config, 4, true);
    assert_byte_identical(&baseline, &other, "sharded storm, threads=1 vs threads=4");
    assert_eq!(heap, other_heap, "memory ledger, threads=1 vs threads=4");
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The satellite oracle: for *arbitrary* seeds, population
        /// shapes, load shapes, barrier cadences and thread counts, the sharded
        /// runtime's full artifact stream equals the single-thread
        /// run's byte-for-byte.
        #[test]
        fn arbitrary_shapes_are_thread_count_invariant(
            seed in any::<u64>(),
            users in 1u32..32,
            requests in 40u64..300,
            threads in 2usize..9,
            flush_period_s in proptest::sample::select(vec![0u64, 300, 900]),
            ingest_period_s in proptest::sample::select(vec![0u64, 300]),
            diurnal in any::<bool>(),
            flash in any::<bool>(),
        ) {
            let config = shaped(
                WorkloadConfig {
                    seed,
                    requests,
                    users,
                    start_s: 3_600,
                    flush_period_s,
                    ingest_period_s,
                    ingest_scale: 5_000,
                    ..WorkloadConfig::default()
                },
                diurnal,
                flash,
            );
            let (baseline, _) = shard_replica(&config, 1, false);
            let (other, _) = shard_replica(&config, threads, false);
            prop_assert_eq!(
                baseline.len(),
                other.len(),
                "artifact lengths diverge at threads={}", threads
            );
            let offset = (0..baseline.len()).find(|&i| baseline[i] != other[i]);
            prop_assert!(
                offset.is_none(),
                "artifacts diverge at byte offset {:?} (threads={})",
                offset,
                threads
            );
        }
    }
}
