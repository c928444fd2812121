//! Determinism conformance: the seeded Barcelona pipeline (sensor
//! generation → fog-1 ingest/dedup → flush → compression) must be
//! byte-for-byte reproducible. Three independent replicas run the same
//! seeded workload; any divergence fails with the first differing byte
//! offset and a hex window around it, so a regression pinpoints *where*
//! the pipeline stopped being a pure function of its seed.
//!
//! Everything downstream leans on this guarantee: property tests replay
//! failures by seed, the traffic cross-validation compares runs, and the
//! ROADMAP's sharding/scale work needs replicas that agree.

use f2c_smartcity::citysim::net::FailurePlan;
use f2c_smartcity::compress;
use f2c_smartcity::compress::tsenc::StreamDecoder;
use f2c_smartcity::core::runtime::populate_city;
use f2c_smartcity::core::{ChaosSite, F2cCity, F2cNode, FlushPolicy, Parallelism, RetentionPolicy};
use f2c_smartcity::query::parallel;
use f2c_smartcity::query::workload::WorkloadConfig;
use f2c_smartcity::query::{EngineConfig, QueryEngine};
use f2c_smartcity::sensors::{wire, Catalog, ReadingGenerator, SensorType};

/// One full replica: ingests 24 waves (6 simulated hours at 900 s) from
/// four sensor types spanning all five categories' value models, flushing
/// every hour, and returns the concatenated flush transcript — wire text
/// of every flushed record, each flush's accounting line, and finally the
/// compressed form of the whole transcript.
fn replica(seed: u64) -> Vec<u8> {
    let catalog = Catalog::barcelona();
    let mut fog1 = F2cNode::fog1(
        3,
        21,
        FlushPolicy::paper_fog1(),
        RetentionPolicy::keep(86_400),
    )
    .expect("fog-1 node builds");
    let mut generators: Vec<ReadingGenerator> = [
        SensorType::Temperature,
        SensorType::NoiseTrafficZone,
        SensorType::ContainerOrganic,
        SensorType::ParkingSpot,
    ]
    .into_iter()
    .map(|ty| ReadingGenerator::for_population(ty, 25, seed))
    .collect();

    let mut transcript = Vec::new();
    let mut decoder = StreamDecoder::new();
    for wave in 0..24u64 {
        let now_s = wave * 900;
        for generator in &mut generators {
            fog1.ingest_wave(generator.wave(now_s), now_s + 1, &catalog)
                .expect("ingest succeeds");
        }
        if (wave + 1) % 4 == 0 {
            let batch = fog1.flush(now_s + 2, &catalog).expect("flush succeeds");
            fog1.commit_flush(now_s + 2);
            let payload = batch.payload.as_deref().expect("every hour ships records");
            let readings = decoder.decode_batch(payload).expect("the payload decodes");
            let text = wire::encode_batch(&readings);
            transcript.extend_from_slice(&text);
            transcript.extend_from_slice(
                format!(
                    "flush t={} records={} acct={} wire={} compressed={}\n",
                    now_s + 2,
                    readings.len(),
                    batch.acct_bytes,
                    text.len(),
                    payload.len(),
                )
                .as_bytes(),
            );
        }
    }
    let packed = compress::compress(&transcript).expect("transcript compresses");
    transcript.extend_from_slice(&packed);
    transcript
}

/// Asserts two replica transcripts are identical, reporting the first
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

#[test]
fn three_replicas_produce_identical_flush_transcripts() {
    let first = replica(2017);
    let second = replica(2017);
    let third = replica(2017);
    assert!(
        first.len() > 1_000,
        "transcript suspiciously small ({} bytes) — pipeline produced no flushes",
        first.len()
    );
    assert_byte_identical(&first, &second, "replica 1 vs 2");
    assert_byte_identical(&first, &third, "replica 1 vs 3");
}

#[test]
fn distinct_seeds_produce_distinct_transcripts() {
    // Guards against the degenerate way to pass the test above: a pipeline
    // that ignores its seed entirely.
    let a = replica(2017);
    let b = replica(2018);
    assert_ne!(a, b, "different seeds must change the observation stream");
}

/// One full serving replica: warm a small city through the event-driven
/// runtime, then drive a seeded closed-loop query workload (dashboard /
/// analytics / real-time mix, background ingest and flushes included)
/// through the district-sharded loop at `threads` worker threads.
/// Returns the concatenated per-shard transcript plus the report's
/// rolling hash.
fn query_replica(seed: u64, threads: usize) -> Vec<u8> {
    let mut city = F2cCity::barcelona().expect("city builds");
    city.set_parallelism(Parallelism::new(threads));
    populate_city(&mut city, 20_000, seed, 3_600, 900).expect("warm-up runs");
    let mut engine = QueryEngine::new(city, EngineConfig::default());
    let config = WorkloadConfig {
        seed,
        requests: 2_000,
        users: 24,
        start_s: 3_600,
        record_transcript: true,
        ..WorkloadConfig::default()
    };
    let report = parallel::run(&mut engine, &config).expect("workload runs");
    let mut out = report.transcript;
    out.extend_from_slice(format!("hash={:016x}\n", report.transcript_hash).as_bytes());
    out
}

#[test]
fn query_workload_replays_are_transcript_identical() {
    let first = query_replica(2017, 1);
    let second = query_replica(2017, 1);
    assert!(
        first.len() > 10_000,
        "transcript suspiciously small ({} bytes) — workload issued nothing",
        first.len()
    );
    assert_byte_identical(&first, &second, "query replica 1 vs 2");
    // And the seed must matter, exactly as for the ingest pipeline.
    let other = query_replica(2018, 1);
    assert_ne!(
        first, other,
        "different seeds must change the serving transcript"
    );
}

#[test]
fn sharded_query_workload_is_thread_count_invariant() {
    // The tentpole conformance sweep, serving plane: the sharded
    // closed loop's transcript and hash must be identical at every
    // worker-thread count (tests/parallel.rs holds the full-artifact
    // oracle; this pins the per-request stream itself).
    let baseline = query_replica(2017, 1);
    assert!(
        baseline.len() > 10_000,
        "transcript suspiciously small ({} bytes) — sharded workload issued nothing",
        baseline.len()
    );
    for threads in [2usize, 4, 8] {
        let other = query_replica(2017, threads);
        assert_byte_identical(
            &baseline,
            &other,
            &format!("sharded query workload, threads=1 vs threads={threads}"),
        );
    }
    let other_seed = query_replica(2018, 1);
    assert_ne!(
        baseline, other_seed,
        "different seeds must change the sharded transcript"
    );
}

/// One observability replica: a seeded chaos storm (crash windows plus
/// shipment loss/corruption coins) under live closed-loop load, returning
/// the tracer's byte-stable transcript concatenated with the registry
/// snapshot and incident timeline rendered to text — the whole
/// observability plane held to the same byte-identical oracle as the
/// flush pipeline. `threads` sets the city's shard worker count.
fn trace_replica_at(seed: u64, threads: usize) -> Vec<u8> {
    let mut city = F2cCity::barcelona().expect("city builds");
    city.set_parallelism(Parallelism::new(threads));
    populate_city(&mut city, 5_000, seed, 3_600, 900).expect("warm-up runs");
    let mut plan = FailurePlan::with_seed(seed);
    plan.set_shipment_loss(0.10);
    plan.set_shipment_corruption(0.08);
    city.set_failures(plan);
    city.inject_node_outage(ChaosSite::Fog1(5), 3_650, 3_980);
    city.inject_node_outage(ChaosSite::Cloud, 4_000, 4_100);
    let mut engine = QueryEngine::new(city, EngineConfig::default());
    let config = WorkloadConfig {
        seed,
        requests: 2_000,
        users: 24,
        start_s: 3_600,
        flush_period_s: 300,
        ingest_period_s: 300,
        ingest_scale: 5_000,
        ..WorkloadConfig::default()
    };
    parallel::run(&mut engine, &config).expect("storm workload runs");
    let mut out = engine.city().tracer().encode();
    let snapshot = engine.city().metrics().snapshot();
    for (key, value) in &snapshot.counters {
        out.extend_from_slice(format!("{key}={value}\n").as_bytes());
    }
    for (key, value) in &snapshot.gauges {
        out.extend_from_slice(format!("{key}={value}\n").as_bytes());
    }
    for incident in engine.city().timeline().iter() {
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

#[test]
fn chaos_storm_trace_transcripts_are_replica_identical() {
    let first = trace_replica_at(2017, 1);
    let second = trace_replica_at(2017, 1);
    let third = trace_replica_at(2017, 1);
    assert!(
        first.len() > 10_000,
        "trace transcript suspiciously small ({} bytes) — storm traced nothing",
        first.len()
    );
    assert_byte_identical(&first, &second, "trace replica 1 vs 2");
    assert_byte_identical(&first, &third, "trace replica 1 vs 3");
    // And the seed must matter: a different storm traces differently.
    let other = trace_replica_at(2018, 1);
    assert_ne!(
        first, other,
        "different seeds must change the trace transcript"
    );
}

#[test]
fn chaos_storm_traces_are_thread_count_invariant() {
    // The tentpole conformance sweep, flush/heal/ingest plane: the whole
    // observability byte stream (traces + snapshot + timeline) of a
    // chaos storm must be identical at every worker-thread count,
    // because district shards merge in canonical order at barriers.
    let baseline = trace_replica_at(2017, 1);
    for threads in [2usize, 4, 8] {
        let other = trace_replica_at(2017, threads);
        assert_byte_identical(
            &baseline,
            &other,
            &format!("chaos storm, threads=1 vs threads={threads}"),
        );
    }
}

/// One flush-codec replica: the raw `tsenc` payload bytes of every
/// shipment a seeded warm-up puts on either hop, in canonical capture
/// order. Cross-batch dictionary state makes each payload a function of
/// every prior flush of its stream, so this transcript pins the codec's
/// whole lifecycle — probe choices, dictionary commits, fallback
/// verdicts — to the seed.
fn shipment_replica(seed: u64) -> Vec<u8> {
    let mut city = F2cCity::barcelona().expect("city builds");
    city.set_capture_shipments(true);
    populate_city(&mut city, 20_000, seed, 3_600, 900).expect("warm-up runs");
    let mut out = Vec::new();
    for shipment in city.take_shipment_log() {
        out.extend_from_slice(
            format!(
                "shipment hop={} origin={} t={}\n",
                shipment.hop, shipment.origin, shipment.at_s
            )
            .as_bytes(),
        );
        out.extend_from_slice(&shipment.payload);
        out.push(b'\n');
    }
    out
}

#[test]
fn encoded_shipment_streams_are_replica_identical() {
    let first = shipment_replica(2017);
    let second = shipment_replica(2017);
    assert!(
        first.len() > 1_000,
        "shipment transcript suspiciously small ({} bytes) — no flushes shipped",
        first.len()
    );
    assert_byte_identical(&first, &second, "shipment replica 1 vs 2");
    let other = shipment_replica(2018);
    assert_ne!(
        first, other,
        "different seeds must change the encoded shipment stream"
    );
}

#[test]
fn divergence_reporting_points_at_first_differing_byte() {
    // The reporter itself is load-bearing diagnostics; pin its message.
    let err = std::panic::catch_unwind(|| {
        assert_byte_identical(b"abcdef", b"abcXef", "probe");
    })
    .expect_err("differing inputs must panic");
    let message = err
        .downcast_ref::<String>()
        .expect("panic carries a String");
    assert!(
        message.contains("byte offset 3"),
        "unexpected divergence report: {message}"
    );
}
