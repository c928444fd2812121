//! Quickstart: stand up one fog-1 node, push sensor waves through the
//! SCC-DLC acquisition block, flush upward to a fog-2 node and the cloud,
//! and query the result through the open-data portal.
//!
//! Run with `cargo run --example quickstart`.

use f2c_smartcity::core::{F2cNode, FlushPolicy, RetentionPolicy};
use f2c_smartcity::dlc::preservation::{AccessRole, OpenDataPortal, QueryFilter};
use f2c_smartcity::sensors::{Catalog, ReadingGenerator, SensorType};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = Catalog::barcelona();

    // One section's fog node, the paper's flush policy (15-minute
    // aggregated + compressed flushes), one day of local retention.
    let mut fog1 = F2cNode::fog1(
        3,  // district: Les Corts
        21, // section id
        FlushPolicy::paper_fog1(),
        RetentionPolicy::keep(86_400),
    )?;
    let mut fog2 = F2cNode::fog2(
        3,
        FlushPolicy::plain(3600),
        RetentionPolicy::keep(7 * 86_400),
    )?;
    let mut cloud = F2cNode::cloud();

    // 50 temperature sensors report every 15 minutes for 2 hours.
    let mut sensors = ReadingGenerator::for_population(SensorType::Temperature, 50, 42);
    for wave in 0..8u64 {
        let t = wave * 900;
        let outcome = fog1.ingest_wave(sensors.wave(t), t + 1, &catalog)?;
        println!(
            "t={t:>5}s  offered {:>2} readings, stored {:>2} after dedup ({} B -> {} B)",
            outcome.offered, outcome.stored, outcome.raw_bytes, outcome.kept_bytes
        );
    }

    // Ship: fog1 -> fog2 -> cloud.
    let batch = fog1.flush(7200, &catalog)?;
    println!(
        "\nfog1 flush: {} records, {} B accounting, {} B wire, {:?} B compressed",
        batch.records.len(),
        batch.acct_bytes,
        batch.wire_bytes(),
        batch.compressed_bytes()
    );
    // Each receiver decodes the shipped payload with its mirror decoder
    // for the child stream (fog 2: the section; cloud: the district) and
    // checks it against the records before storing them.
    fog2.verify_flush(21, batch.payload.as_deref(), &batch.records)?;
    fog2.receive_wave([batch.records], 7200);
    let batch = fog2.flush(7200, &catalog)?;
    cloud.verify_flush(3, batch.payload.as_deref(), &batch.records)?;
    cloud.receive_wave([batch.records], 7200);
    println!(
        "cloud now preserves {} records permanently",
        cloud.store().len()
    );

    // Consume through the dissemination interface. Energy data is tagged
    // Restricted by the description phase, so a public query is refused
    // while a city service succeeds.
    let portal = OpenDataPortal::new();
    let public = portal.query(
        cloud.store().archive(),
        AccessRole::Public,
        QueryFilter::default(),
    );
    let service = portal.query(
        cloud.store().archive(),
        AccessRole::Service,
        QueryFilter::default(),
    )?;
    println!(
        "\nopen-data portal: public sees {} records, city service sees {}",
        public.map(|v| v.len()).unwrap_or(0),
        service.len()
    );
    Ok(())
}
