//! Quickstart: assemble the city, push sensor waves through one
//! section's SCC-DLC acquisition block, flush upward through its
//! district's fog-2 node to the cloud, and query the result through the
//! open-data portal.
//!
//! Run with `cargo run --example quickstart`.

use f2c_smartcity::citysim::barcelona::DISTRICTS;
use f2c_smartcity::core::F2cCity;
use f2c_smartcity::dlc::preservation::{AccessRole, OpenDataPortal, QueryFilter};
use f2c_smartcity::sensors::{ReadingGenerator, SensorType};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's deployment: 73 fog-1 nodes, 10 fog-2 nodes and the
    // cloud, with the paper's flush policy at fog 1 (15-minute aggregated
    // + compressed flushes) and one day of local retention there.
    let mut city = F2cCity::barcelona()?;
    let section = 18;
    let district = city.district_of(section);
    println!(
        "section {section} sits in district {district} ({})\n",
        DISTRICTS[district].0
    );

    // 50 temperature sensors report every 15 minutes for 2 hours.
    let mut sensors = ReadingGenerator::for_population(SensorType::Temperature, 50, 42);
    for wave in 0..8u64 {
        let t = wave * 900;
        let outcome = city.ingest(section, sensors.wave(t), t + 1)?;
        println!(
            "t={t:>5}s  offered {:>2} readings, stored {:>2} after dedup ({} B -> {} B)",
            outcome.offered, outcome.stored, outcome.raw_bytes, outcome.kept_bytes
        );
    }

    // Ship: fog1 -> fog2 -> cloud. Each receiver decodes the shipped
    // payload with its mirror decoder for the child stream (fog 2: the
    // section; cloud: the district) and checks it against the records
    // before storing them.
    let (fog1_acct, fog2_acct) = city.flush_all(7200)?;
    let (fog1_wire, fog2_wire) = city.uplink_flush_bytes();
    println!(
        "\nflush: fog1 -> fog2 {fog1_acct} B accounting, {fog1_wire} B compressed; \
         fog2 -> cloud {fog2_acct} B accounting, {fog2_wire} B compressed"
    );
    let archive = city.cloud().store().archive();
    println!("cloud now preserves {} records permanently", archive.len());

    // Consume through the dissemination interface. Energy data is tagged
    // Restricted by the description phase, so a public query is refused
    // while a city service succeeds.
    let portal = OpenDataPortal::new();
    let public = portal.query(archive, AccessRole::Public, QueryFilter::default());
    let service = portal.query(archive, AccessRole::Service, QueryFilter::default())?;
    println!(
        "\nopen-data portal: public sees {} records, city service sees {}",
        public.map(|v| v.len()).unwrap_or(0),
        service.len()
    );
    Ok(())
}
