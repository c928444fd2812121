//! The event-driven F2C simulation: synthetic Sentilo waves flow into an
//! assembled [`F2cCity`] — 73 fog-1 nodes, 10 fog-2 nodes and the cloud —
//! whose tiers flush on their policies' schedules, with aggregation and
//! compression applied per the flush policies. Its traffic accounting
//! cross-validates the analytic [`crate::traffic::TrafficModel`] at a
//! configurable population scale.

use std::collections::BTreeMap;

use citysim::barcelona::LatencyProfile;
use citysim::event::EventQueue;
use citysim::net::TrafficMeter;
use citysim::time::SimTime;
use scc_sensors::{wire, Catalog, Category, Reading, ReadingGenerator, SensorType};

use crate::hierarchy::F2cCity;
use crate::node::IngestOutcome;
use crate::policy::{FlushPolicy, RetentionPolicy};
use crate::{Error, Result};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Divide every sensor population by this factor (≥ 1).
    pub scale: u64,
    /// RNG seed for the generators.
    pub seed: u64,
    /// Simulated horizon in seconds (one day reproduces the paper).
    pub horizon_s: u64,
    /// Fog-1 flush policy (aggregation/compression live here).
    pub fog1_flush: FlushPolicy,
    /// Fog-2 flush policy.
    pub fog2_flush: FlushPolicy,
    /// Link parameters for the Barcelona topology.
    pub profile: LatencyProfile,
    /// Drain all tiers at the end of the horizon so record conservation
    /// holds (disable to study steady-state scheduling effects — e.g. the
    /// off-peak window share — without the artificial final flush).
    pub drain_at_end: bool,
}

impl SimConfig {
    /// The paper's configuration at 1/1000 population scale: one day,
    /// 15-minute aggregated+compressed fog-1 flushes, hourly fog-2 flushes.
    pub fn paper_scaled() -> Self {
        Self {
            scale: 1000,
            seed: 2017,
            horizon_s: 86_400,
            fog1_flush: FlushPolicy::paper_fog1(),
            fog2_flush: FlushPolicy::plain(3600),
            profile: LatencyProfile::default(),
            drain_at_end: true,
        }
    }

    /// Checks the scale and horizon; [`F2cCity::new`] checks the
    /// policies.
    fn validate(&self) -> Result<()> {
        if self.scale == 0 {
            return Err(Error::BadConfig {
                field: "scale",
                reason: "must be >= 1",
            });
        }
        if self.horizon_s == 0 {
            return Err(Error::BadConfig {
                field: "horizon_s",
                reason: "must be positive",
            });
        }
        Ok(())
    }
}

/// Per-category traffic accounting (Table-I byte convention).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryTraffic {
    /// Raw bytes generated by sensors.
    pub raw: u64,
    /// Bytes surviving fog-1 aggregation (accounting sizes).
    pub after_dedup: u64,
    /// Wire-encoded size of the fog-1 batches shipped encoded (0 when
    /// fog 1 does not compress: only encoded shipments are tapped, as for
    /// [`SimReport::fog1_uplink_wire_bytes`]).
    pub wire: u64,
    /// Compressed size of the fog-1 batches shipped encoded (0 when fog 1
    /// does not compress).
    pub compressed: u64,
}

/// What one simulated run measured.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Population scale of the run.
    pub scale: u64,
    /// Simulated horizon.
    pub horizon_s: u64,
    /// Readings generated at the sensors.
    pub generated_readings: u64,
    /// Records surviving fog-1 acquisition.
    pub stored_after_dedup: u64,
    /// Raw accounting bytes offered to fog 1.
    pub raw_acct_bytes: u64,
    /// Accounting bytes shipped fog1→fog2.
    pub fog1_uplink_acct_bytes: u64,
    /// Accounting bytes shipped fog2→cloud.
    pub fog2_uplink_acct_bytes: u64,
    /// Wire bytes of fog-1 uplink batches (before compression; 0 when
    /// not compressing, since only encoded shipments are tapped).
    pub fog1_uplink_wire_bytes: u64,
    /// Compressed bytes of fog-1 uplink batches (0 when not compressing).
    pub fog1_uplink_compressed_bytes: u64,
    /// Per-category breakdown.
    pub per_category: BTreeMap<Category, CategoryTraffic>,
    /// Bytes metered on fog1→fog2 links (what actually crossed the wire).
    pub network_fog1_fog2_bytes: u64,
    /// Bytes metered on fog2→cloud links.
    pub network_fog2_cloud_bytes: u64,
    /// Records resting at the cloud after the final drain.
    pub cloud_records: u64,
    /// The city's network meter at the end of the run: bytes per link,
    /// per node and per simulated hour.
    pub network: TrafficMeter,
}

impl SimReport {
    /// Measured dedup rate (fraction of readings suppressed at fog 1).
    pub fn dedup_rate(&self) -> f64 {
        if self.generated_readings == 0 {
            0.0
        } else {
            1.0 - self.stored_after_dedup as f64 / self.generated_readings as f64
        }
    }

    /// Measured compression ratio on the shipped batches.
    pub fn compression_ratio(&self) -> f64 {
        if self.fog1_uplink_wire_bytes == 0 || self.fog1_uplink_compressed_bytes == 0 {
            1.0
        } else {
            self.fog1_uplink_compressed_bytes as f64 / self.fog1_uplink_wire_bytes as f64
        }
    }

    /// Scales a measured byte count back to full deployment size.
    pub fn scaled_up(&self, bytes: u64) -> u64 {
        bytes * self.scale
    }
}

/// Runs the F2C architecture over one simulated horizon: one [`F2cCity`]
/// built with the configured policies, each tier flushed on its own
/// policy's schedule (period and off-peak window), read back through the
/// city's flush counters, shipment tap and network meter.
///
/// # Errors
///
/// Configuration and network errors.
///
/// # Examples
///
/// ```
/// use f2c_core::runtime::{simulate, SimConfig};
///
/// let mut config = SimConfig::paper_scaled();
/// config.scale = 20_000;     // tiny population: fast doctest
/// config.horizon_s = 7_200;  // two hours
/// let report = simulate(config)?;
/// assert!(report.generated_readings > 0);
/// assert!(report.cloud_records as f64 >= 0.9 * report.stored_after_dedup as f64);
/// # Ok::<(), f2c_core::Error>(())
/// ```
pub fn simulate(config: SimConfig) -> Result<SimReport> {
    config.validate()?;
    let mut city = F2cCity::new(
        &config.profile,
        config.fog1_flush,
        config.fog2_flush,
        RetentionPolicy::keep(86_400),
    )?;
    city.set_capture_shipments(true);
    let scaled = city.catalog().scaled_down(config.scale);

    // Each tier's flush instants. Ticks of both tiers on one second are
    // one wave, so the flush epoch counts instants, not tiers.
    let mut flushes: BTreeMap<u64, [bool; 2]> = BTreeMap::new();
    for (tier, policy) in [config.fog1_flush, config.fog2_flush].iter().enumerate() {
        let mut t = policy.next_flush_at(0);
        while t <= config.horizon_s {
            flushes.entry(t).or_default()[tier] = true;
            t = policy.next_flush_at(t);
        }
    }

    let mut report = SimReport {
        scale: config.scale,
        horizon_s: config.horizon_s,
        per_category: Category::ALL
            .iter()
            .map(|&c| (c, CategoryTraffic::default()))
            .collect(),
        ..SimReport::default()
    };
    drive(
        &mut city,
        &scaled,
        config.seed,
        config.horizon_s,
        &flushes,
        |ty, outcome| {
            report.generated_readings += outcome.offered;
            report.stored_after_dedup += outcome.stored;
            report.raw_acct_bytes += outcome.raw_bytes;
            let ct = report.per_category.entry(ty.category()).or_default();
            ct.raw += outcome.raw_bytes;
            ct.after_dedup += outcome.kept_bytes;
        },
    )?;
    // Final drain so conservation holds end-to-end.
    if config.drain_at_end {
        city.flush_due(config.horizon_s, true, true)?;
    }

    (report.fog1_uplink_acct_bytes, report.fog2_uplink_acct_bytes) = city.raw_flush_bytes();
    for shipment in city.take_shipment_log() {
        if shipment.hop != 1 {
            continue;
        }
        report.fog1_uplink_wire_bytes += shipment.wire.len() as u64;
        report.fog1_uplink_compressed_bytes += shipment.payload.len() as u64;
        let mut by_cat: BTreeMap<Category, Vec<Reading>> = BTreeMap::new();
        for reading in wire::parse_batch(&shipment.wire)? {
            by_cat
                .entry(reading.sensor_type().category())
                .or_default()
                .push(reading);
        }
        for (cat, readings) in by_cat {
            let encoded = wire::encode_batch(&readings);
            let ct = report.per_category.entry(cat).or_default();
            ct.wire += encoded.len() as u64;
            ct.compressed += f2c_compress::compress(&encoded)?.len() as u64;
        }
    }
    report.cloud_records = city.cloud().store().len() as u64;

    // Read the meters: fog1→fog2 links vs fog2→cloud links.
    let topology = city.topology();
    let net = topology.network();
    let mut fog2_cloud = 0u64;
    for &f2 in topology.fog2_nodes() {
        for &(peer, link) in net.topology().neighbors(f2) {
            if peer == topology.cloud() {
                fog2_cloud += net.meter().link_traffic(link).bytes;
            }
        }
    }
    report.network_fog2_cloud_bytes = fog2_cloud;
    report.network_fog1_fog2_bytes = net.meter().total_bytes() - fog2_cloud;
    report.network = net.meter().clone();
    Ok(report)
}

/// Deterministic mixing hash (splitmix64 finalizer) used to spread
/// population remainders across sections without an RNG dependency.
fn spread_hash(ty: SensorType, section: usize) -> u64 {
    let mut z = (ty as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(section as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits each catalog type's population across the 73 sections and
/// builds one deterministic generator per (section, type) share —
/// `generators[section][type]`. Shared by [`simulate`], the warm-up in
/// [`populate_city`], the centralized baseline and the query workload's
/// background ingest, so all of them agree on which sensors live where.
///
/// The `n % 73` remainder sensors land on the sections that rank first
/// under a per-type deterministic hash, *not* on sections `0..extra`:
/// [`Catalog::scaled_down`] truncates populations hard, and at small
/// scales (where most types keep fewer than 73 sensors) a
/// lowest-index-first split would concentrate the entire city in the
/// first few districts. Hash-spreading keeps every district populated at
/// every scale while remaining a pure function of the catalog.
pub fn section_generators(
    catalog: &Catalog,
    seed: u64,
) -> Vec<BTreeMap<SensorType, ReadingGenerator>> {
    let mut generators: Vec<BTreeMap<SensorType, ReadingGenerator>> =
        (0..73).map(|_| BTreeMap::new()).collect();
    for spec in catalog.iter() {
        let n = spec.sensors();
        let base = n / 73;
        let extra = (n % 73) as usize;
        let mut ranked: Vec<usize> = (0..73).collect();
        ranked.sort_by_key(|&s| spread_hash(spec.sensor_type(), s));
        let mut gets_extra = [false; 73];
        for &s in &ranked[..extra] {
            gets_extra[s] = true;
        }
        for (section, per_section) in generators.iter_mut().enumerate() {
            let count = base + u64::from(gets_extra[section]);
            if count > 0 {
                per_section.insert(
                    spec.sensor_type(),
                    ReadingGenerator::for_population(
                        spec.sensor_type(),
                        count as u32,
                        seed ^ ((section as u64) << 32),
                    ),
                );
            }
        }
    }
    generators
}

/// What [`populate_city`] ingested and shipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PopulateOutcome {
    /// Readings offered by the sensors.
    pub offered: u64,
    /// Records stored at fog 1 after acquisition.
    pub stored: u64,
    /// Number of hierarchy-wide flushes performed (including the final
    /// settling flush).
    pub flushes: u64,
}

/// Event-driven warm-up of an assembled [`F2cCity`]: schedules every
/// sensor type's waves at its Table-I transmission interval (population
/// divided by `scale`) and hierarchy-wide flushes every
/// `flush_period_s`, over `horizon_s` of simulated time, then settles
/// with one final flush so fog-2 and the cloud hold everything ingested.
///
/// This is the runtime integration point for the `f2c-query` serving
/// subsystem: a bench warms the hierarchy here, then drives a query
/// workload against the populated city.
///
/// # Errors
///
/// [`Error::BadConfig`] on a zero scale/horizon/period; network errors
/// from flush shipping.
pub fn populate_city(
    city: &mut F2cCity,
    scale: u64,
    seed: u64,
    horizon_s: u64,
    flush_period_s: u64,
) -> Result<PopulateOutcome> {
    if scale == 0 {
        return Err(Error::BadConfig {
            field: "scale",
            reason: "must be >= 1",
        });
    }
    if horizon_s == 0 || flush_period_s == 0 {
        return Err(Error::BadConfig {
            field: "horizon_s/flush_period_s",
            reason: "must be positive",
        });
    }
    let scaled = city.catalog().scaled_down(scale);
    let flushes: BTreeMap<u64, [bool; 2]> = (1..=horizon_s / flush_period_s)
        .map(|k| (k * flush_period_s, [true; 2]))
        .collect();
    let (mut offered, mut stored) = (0, 0);
    drive(city, &scaled, seed, horizon_s, &flushes, |_, ingest| {
        offered += ingest.offered;
        stored += ingest.stored;
    })?;
    city.flush_all(horizon_s)?;
    Ok(PopulateOutcome {
        offered,
        stored,
        flushes: flushes.len() as u64 + 1,
    })
}

/// Drives `city` over `horizon_s` of simulated time: every type of
/// `scaled` reports at its Table-I transmission interval, section by
/// section through [`F2cCity::ingest`], and at each instant of `flushes`
/// the city runs [`F2cCity::flush_due`] for the tiers flagged there
/// (`[fog 1, fog 2]`). Waves are scheduled before flushes, so a wave and
/// a flush at the same instant ingest first. `on_ingest` sees each
/// section's outcome with its sensor type.
fn drive(
    city: &mut F2cCity,
    scaled: &Catalog,
    seed: u64,
    horizon_s: u64,
    flushes: &BTreeMap<u64, [bool; 2]>,
    mut on_ingest: impl FnMut(SensorType, IngestOutcome),
) -> Result<()> {
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Event {
        Wave(SensorType),
        Flush([bool; 2]),
    }
    let mut generators = section_generators(scaled, seed);
    let mut queue: EventQueue<Event> = EventQueue::new();
    for spec in scaled.iter() {
        let interval = spec.tx_interval_secs();
        let mut t = interval;
        while t <= horizon_s as f64 {
            queue.schedule_at(
                SimTime::from_micros((t * 1e6) as u64),
                Event::Wave(spec.sensor_type()),
            );
            t += interval;
        }
    }
    for (&at_s, &tiers) in flushes {
        queue.schedule_at(SimTime::from_secs(at_s), Event::Flush(tiers));
    }

    while let Some((at, event)) = queue.pop() {
        let now_s = at.as_secs();
        match event {
            Event::Wave(ty) => {
                for (section, per_section) in generators.iter_mut().enumerate() {
                    if let Some(gen) = per_section.get_mut(&ty) {
                        let readings = gen.wave(now_s);
                        on_ingest(ty, city.ingest(section, readings, now_s)?);
                    }
                }
            }
            Event::Flush([fog1, fog2]) => {
                city.flush_due(now_s, fog1, fog2)?;
            }
        }
    }
    Ok(())
}

/// Runs the paper's ablation: the same day with a different fog-1 flush
/// period, returning `(period_s, peak flush bytes on one uplink)` — used
/// by the E6 experiment to show how the flush period trades peak traffic
/// for data freshness upstream.
pub fn flush_period_ablation(periods_s: &[u64], scale: u64) -> Result<Vec<(u64, u64)>> {
    let mut out = Vec::with_capacity(periods_s.len());
    for &period in periods_s {
        let mut config = SimConfig::paper_scaled();
        config.scale = scale;
        config.horizon_s = 6 * 3600;
        config.fog1_flush = FlushPolicy {
            period_s: period,
            ..FlushPolicy::paper_fog1()
        };
        let report = simulate(config)?;
        // Peak per-flush bytes ≈ uplink bytes / number of flushes.
        let flushes = (6 * 3600 / period).max(1) * 73;
        let avg_per_flush = report
            .fog1_uplink_compressed_bytes
            .max(report.fog1_uplink_acct_bytes)
            / flushes;
        out.push((period, avg_per_flush));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficModel;
    use citysim::barcelona::DISTRICTS;

    fn small_config() -> SimConfig {
        // 1/2500 scale (~400 sensors). Smaller populations leave many
        // sections with one sensor now that the remainder split covers
        // every district, and single-reading flush batches are too small
        // to compress — representative batches need a few sensors per
        // section.
        let mut c = SimConfig::paper_scaled();
        c.scale = 2_500;
        c.horizon_s = 4 * 3600;
        c
    }

    #[test]
    fn conservation_no_record_lost_between_layers() {
        let report = simulate(small_config()).unwrap();
        assert_eq!(
            report.cloud_records, report.stored_after_dedup,
            "every deduped record must reach the cloud after the final drain"
        );
    }

    #[test]
    fn dedup_rate_is_in_the_papers_band() {
        let report = simulate(small_config()).unwrap();
        // Mixed-category rate: between urban's 30% and noise's 75%.
        let rate = report.dedup_rate();
        assert!((0.3..0.75).contains(&rate), "dedup rate {rate:.3}");
    }

    #[test]
    fn uplink_sees_fewer_bytes_than_raw() {
        let report = simulate(small_config()).unwrap();
        assert!(report.fog1_uplink_acct_bytes < report.raw_acct_bytes);
        assert!(report.fog1_uplink_compressed_bytes < report.fog1_uplink_wire_bytes);
        assert_eq!(report.fog1_uplink_acct_bytes, report.fog2_uplink_acct_bytes);
    }

    #[test]
    fn simulation_cross_validates_the_analytic_model() {
        // A full scaled day: per-category dedup output must match Table I
        // within sampling tolerance.
        let mut config = SimConfig::paper_scaled();
        config.scale = 2_000;
        let report = simulate(config).unwrap();
        let model = TrafficModel::paper();
        for row in model.fig7_rows() {
            let measured = report.per_category[&row.category];
            let scaled_raw = report.scaled_up(measured.raw) as f64;
            let scaled_dedup = report.scaled_up(measured.after_dedup) as f64;
            let raw_err = (scaled_raw - row.raw as f64).abs() / row.raw as f64;
            let dedup_err = (scaled_dedup - row.after_dedup as f64).abs() / row.after_dedup as f64;
            assert!(
                raw_err < 0.12,
                "{}: raw off by {:.1}% (sim {scaled_raw:.3e} vs model {})",
                row.category,
                raw_err * 100.0,
                row.raw,
            );
            assert!(
                dedup_err < 0.15,
                "{}: dedup off by {:.1}%",
                row.category,
                dedup_err * 100.0
            );
        }
    }

    #[test]
    fn network_meters_agree_with_uplink_accounting() {
        let report = simulate(small_config()).unwrap();
        // Compression on: the fog1->fog2 wire carries the compressed bytes.
        assert_eq!(
            report.network_fog1_fog2_bytes, report.fog1_uplink_compressed_bytes,
            "metered fog1->fog2 bytes match compressed shipments"
        );
        assert!(report.network_fog2_cloud_bytes > 0);
    }

    #[test]
    fn bad_configs_rejected() {
        let mut c = SimConfig::paper_scaled();
        c.scale = 0;
        assert!(simulate(c).is_err());
        let mut c = SimConfig::paper_scaled();
        c.horizon_s = 0;
        assert!(simulate(c).is_err());
    }

    #[test]
    fn populate_city_settles_everything_at_the_cloud() {
        let mut city = F2cCity::barcelona().unwrap();
        let out = populate_city(&mut city, 20_000, 7, 2 * 3600, 900).unwrap();
        assert!(out.offered > 0);
        assert!(out.stored > 0 && out.stored <= out.offered);
        assert_eq!(out.flushes, 9, "8 periodic + 1 settling flush");
        assert_eq!(
            city.cloud().store().len() as u64,
            out.stored,
            "final settle ships every stored record to the cloud"
        );
        assert_eq!(city.flush_epoch(), 9);
        // Warm-up is a pure function of its seed.
        let mut city2 = F2cCity::barcelona().unwrap();
        let out2 = populate_city(&mut city2, 20_000, 7, 2 * 3600, 900).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn scaled_down_populations_cover_every_district() {
        // At 1/2000 scale most types keep < 73 sensors; the hash-spread
        // remainder must still leave every district with sensors instead
        // of concentrating the city in the low section indices.
        let catalog = Catalog::barcelona().scaled_down(2_000);
        let generators = section_generators(&catalog, 7);
        let mut district_sensors = [0u64; 10];
        let mut section = 0usize;
        for (d, (_, sections)) in DISTRICTS.iter().enumerate() {
            for _ in 0..*sections {
                district_sensors[d] += generators[section]
                    .values()
                    .map(|g| g.population() as u64)
                    .sum::<u64>();
                section += 1;
            }
        }
        for (d, &count) in district_sensors.iter().enumerate() {
            assert!(
                count > 0,
                "district {d} has no sensors: {district_sensors:?}"
            );
        }
        // Determinism: the split is a pure function of the catalog.
        let again = section_generators(&catalog, 7);
        for s in 0..73 {
            let a: Vec<_> = generators[s].keys().collect();
            let b: Vec<_> = again[s].keys().collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn populate_city_rejects_zero_parameters() {
        let mut city = F2cCity::barcelona().unwrap();
        assert!(populate_city(&mut city, 0, 7, 3600, 900).is_err());
        assert!(populate_city(&mut city, 1000, 7, 0, 900).is_err());
        assert!(populate_city(&mut city, 1000, 7, 3600, 0).is_err());
    }

    #[test]
    fn flush_period_ablation_trades_period_for_batch_size() {
        let rows = flush_period_ablation(&[900, 3600], 20_000).unwrap();
        assert_eq!(rows.len(), 2);
        // Longer periods accumulate bigger batches per flush.
        assert!(rows[1].1 > rows[0].1);
    }
}
