//! The event-driven F2C simulation: synthetic Sentilo waves flow into an
//! assembled [`F2cCity`] — 73 fog-1 nodes, 10 fog-2 nodes and the cloud —
//! whose tiers flush on their policies' schedules, with aggregation
//! applied per the flush policies and every shipment `tsenc`-encoded. It runs a sample of
//! sections at full population, so every flush batch is the size the
//! full city ships, and its per-category traffic estimates the full city
//! to cross-validate the analytic [`crate::traffic::TrafficModel`].

use std::collections::BTreeMap;

use citysim::barcelona::{LatencyProfile, DISTRICTS};
use citysim::event::EventQueue;
use citysim::net::TrafficMeter;
use citysim::time::SimTime;
use f2c_compress::tsenc::StreamDecoder;
use scc_sensors::{Catalog, Category, ReadingGenerator, SensorType};

use crate::hierarchy::F2cCity;
use crate::node::IngestOutcome;
use crate::policy::{FlushPolicy, RetentionPolicy};
use crate::{Error, Result};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// How many sections run at full population (1..=73), taken district
    /// by district in turn.
    pub sections: usize,
    /// RNG seed for the generators.
    pub seed: u64,
    /// Simulated horizon in seconds (one day reproduces the paper).
    pub horizon_s: u64,
    /// Fog-1 flush policy (aggregation lives here).
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
    /// The paper's configuration on one sampled section: one day,
    /// 15-minute aggregated fog-1 flushes, hourly fog-2 flushes.
    pub fn paper() -> Self {
        Self {
            sections: 1,
            seed: 2017,
            horizon_s: 86_400,
            fog1_flush: FlushPolicy::paper_fog1(),
            fog2_flush: FlushPolicy::plain(3600),
            profile: LatencyProfile::default(),
            drain_at_end: true,
        }
    }
}

/// One category's full-city daily traffic, estimated from the sampled
/// sections (Table-I byte convention for raw and after-dedup).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryTraffic {
    /// Raw bytes generated by sensors.
    pub raw: u64,
    /// Bytes surviving fog-1 aggregation (accounting sizes).
    pub after_dedup: u64,
    /// `tsenc` payload bytes shipped fog 1 → fog 2.
    pub compressed: u64,
}

/// What one simulated run measured. `per_category` estimates the full
/// city; every other field is measured on the sampled sections.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
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
    /// `tsenc` payload bytes of fog-1 uplink batches.
    pub fog1_uplink_compressed_bytes: u64,
    /// Encoded fog-1 uplink batches shipped.
    pub fog1_shipments: u64,
    /// Full-city estimate per category.
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
}

/// The sections a run simulates, at full population: the first
/// `sections` of a district round-robin order (each district's first
/// section, then each one's second, …). Every section holds ⌊n/73⌋ or
/// ⌈n/73⌉ sensors of each type, so one section already carries what a
/// flush batch of the full city carries.
pub(crate) struct Sample {
    /// `generators[section][type]`; a section outside the sample is empty.
    pub(crate) generators: Vec<BTreeMap<SensorType, ReadingGenerator>>,
    /// Per type: full-city population over sampled population.
    factor: BTreeMap<SensorType, f64>,
}

impl Sample {
    /// Samples `sections` of `catalog`'s full population.
    ///
    /// # Errors
    ///
    /// [`Error::BadConfig`] unless `sections` is in `1..=73`.
    pub(crate) fn new(catalog: &Catalog, sections: usize, seed: u64) -> Result<Self> {
        if !(1..=73).contains(&sections) {
            return Err(Error::BadConfig {
                field: "sections",
                reason: "must be in 1..=73",
            });
        }
        // (rank in its district, section): sections are district-
        // contiguous, so this sorts each rank's sections by district.
        let mut order: Vec<(usize, usize)> =
            DISTRICTS.iter().flat_map(|&(_, n)| 0..n).zip(0..).collect();
        order.sort_unstable();
        let mut generators: Vec<_> = (0..73).map(|_| BTreeMap::new()).collect();
        for &(_, s) in &order[..sections] {
            generators[s] = generators_in(catalog, s, seed);
        }
        let factor = catalog
            .iter()
            .map(|spec| {
                let ty = spec.sensor_type();
                let sampled: usize = generators
                    .iter()
                    .filter_map(|g| g.get(&ty).map(ReadingGenerator::population))
                    .sum();
                (ty, spec.sensors() as f64 / sampled as f64)
            })
            .collect();
        Ok(Self { generators, factor })
    }

    /// The full-city estimate of `sampled` bytes of type `ty`.
    pub(crate) fn full_city(&self, ty: SensorType, sampled: f64) -> u64 {
        (sampled * self.factor[&ty]).round() as u64
    }
}

/// Reads the fog-1 payloads each flush wave shipped, one decoder per
/// section: each type is charged its own value and field frames, and the
/// payload's shared bytes by record count.
#[derive(Default)]
struct PayloadTap {
    decoders: BTreeMap<u16, StreamDecoder>,
    /// Sampled payload bytes charged to each type.
    per_type: BTreeMap<SensorType, f64>,
    bytes: u64,
    shipments: u64,
}

impl PayloadTap {
    /// Drains `city`'s shipment log.
    fn read(&mut self, city: &mut F2cCity) -> Result<()> {
        for shipment in city.take_shipment_log() {
            if shipment.hop != 1 {
                continue;
            }
            self.shipments += 1;
            self.bytes += shipment.payload.len() as u64;
            let decoder = self.decoders.entry(shipment.origin).or_default();
            let readings = decoder.decode_batch(&shipment.payload)?;
            let mut records: BTreeMap<SensorType, usize> = BTreeMap::new();
            for reading in &readings {
                *records.entry(reading.sensor_type()).or_default() += 1;
            }
            let typed: usize = records.keys().map(|&ty| decoder.type_frame_bytes(ty)).sum();
            let shared = (shipment.payload.len() - typed) as f64 / readings.len() as f64;
            for (ty, n) in records {
                *self.per_type.entry(ty).or_default() +=
                    decoder.type_frame_bytes(ty) as f64 + shared * n as f64;
            }
        }
        Ok(())
    }
}

/// Runs the F2C architecture over one simulated horizon: one [`F2cCity`]
/// built with the configured policies, its sampled sections ingesting at
/// full population, each tier flushed on its own policy's schedule
/// (period and off-peak window), read back through the city's flush
/// counters, shipment tap and network meter.
///
/// # Errors
///
/// [`Error::BadConfig`] on a sample outside `1..=73` sections or a zero
/// horizon; network errors.
///
/// # Examples
///
/// ```
/// use f2c_core::runtime::{simulate, SimConfig};
///
/// let mut config = SimConfig::paper(); // one section at full population
/// config.horizon_s = 1_800;            // half an hour: fast doctest
/// let report = simulate(config)?;
/// assert!(report.generated_readings > 0);
/// assert_eq!(report.cloud_records, report.stored_after_dedup);
/// # Ok::<(), f2c_core::Error>(())
/// ```
pub fn simulate(config: SimConfig) -> Result<SimReport> {
    if config.horizon_s == 0 {
        return Err(Error::BadConfig {
            field: "horizon_s",
            reason: "must be positive",
        });
    }
    let mut city = F2cCity::new(
        &config.profile,
        config.fog1_flush,
        config.fog2_flush,
        RetentionPolicy::keep(86_400),
    )?;
    city.set_capture_shipments(true);
    let mut sample = Sample::new(city.catalog(), config.sections, config.seed)?;

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
        horizon_s: config.horizon_s,
        ..SimReport::default()
    };
    // Sampled (raw, after-dedup) bytes per type.
    let mut per_type: BTreeMap<SensorType, (u64, u64)> = BTreeMap::new();
    // Drained after every flush, so the shipment log never holds a day.
    let mut tap = PayloadTap::default();
    drive(
        &mut city,
        &mut sample.generators,
        config.horizon_s,
        &flushes,
        |ty, outcome| {
            report.generated_readings += outcome.offered;
            report.stored_after_dedup += outcome.stored;
            report.raw_acct_bytes += outcome.raw_bytes;
            let t = per_type.entry(ty).or_default();
            t.0 += outcome.raw_bytes;
            t.1 += outcome.kept_bytes;
        },
        |city| tap.read(city),
    )?;
    // Final drain so conservation holds end-to-end.
    if config.drain_at_end {
        city.flush_due(config.horizon_s, true, true)?;
        tap.read(&mut city)?;
    }

    (report.fog1_uplink_acct_bytes, report.fog2_uplink_acct_bytes) = city.raw_flush_bytes();
    (report.fog1_uplink_compressed_bytes, report.fog1_shipments) = (tap.bytes, tap.shipments);
    for (ty, (raw, after_dedup)) in per_type {
        let c = report.per_category.entry(ty.category()).or_default();
        c.raw += sample.full_city(ty, raw as f64);
        c.after_dedup += sample.full_city(ty, after_dedup as f64);
        c.compressed += sample.full_city(ty, tap.per_type.get(&ty).copied().unwrap_or(0.0));
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
/// `generators[section][type]`. Shared by the warm-up in
/// [`populate_city`] and the query workload's background ingest; the
/// sampled sections of [`simulate`] and the centralized baseline are
/// built section by section from the same split, so all of them agree on
/// which sensors live where.
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
    (0..73)
        .map(|section| generators_in(catalog, section, seed))
        .collect()
}

/// `section`'s share of [`section_generators`].
fn generators_in(
    catalog: &Catalog,
    section: usize,
    seed: u64,
) -> BTreeMap<SensorType, ReadingGenerator> {
    let mut generators = BTreeMap::new();
    for spec in catalog.iter() {
        let ty = spec.sensor_type();
        // The section's place in the type's hash order, ties by index.
        let key = |s: usize| (spread_hash(ty, s), s);
        let mine = key(section);
        let rank = (0..73).filter(|&s| key(s) < mine).count() as u64;
        let count = spec.sensors() / 73 + u64::from(rank < spec.sensors() % 73);
        if count > 0 {
            let root_seed = seed ^ ((section as u64) << 32);
            generators.insert(
                ty,
                ReadingGenerator::for_population(ty, count as u32, root_seed),
            );
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
    let mut gens = section_generators(&city.catalog().scaled_down(scale), seed);
    let flushes: BTreeMap<u64, [bool; 2]> = (1..=horizon_s / flush_period_s)
        .map(|k| (k * flush_period_s, [true; 2]))
        .collect();
    let (mut offered, mut stored) = (0, 0);
    let on_ingest = |_, ingest: IngestOutcome| {
        offered += ingest.offered;
        stored += ingest.stored;
    };
    drive(city, &mut gens, horizon_s, &flushes, on_ingest, |_| Ok(()))?;
    city.flush_all(horizon_s)?;
    Ok(PopulateOutcome {
        offered,
        stored,
        flushes: flushes.len() as u64 + 1,
    })
}

/// Drives `city` over `horizon_s` of simulated time: every type reports
/// at its Table-I transmission interval, through each section's generator
/// of it in `generators` and [`F2cCity::ingest`], and at each instant of
/// `flushes` the city runs [`F2cCity::flush_due`] for the tiers flagged
/// there (`[fog 1, fog 2]`). Waves are scheduled before flushes, so a
/// wave and a flush at the same instant ingest first. `on_ingest` sees
/// each section's outcome with its sensor type, `on_flush` the city after
/// each flush.
fn drive(
    city: &mut F2cCity,
    generators: &mut [BTreeMap<SensorType, ReadingGenerator>],
    horizon_s: u64,
    flushes: &BTreeMap<u64, [bool; 2]>,
    mut on_ingest: impl FnMut(SensorType, IngestOutcome),
    mut on_flush: impl FnMut(&mut F2cCity) -> Result<()>,
) -> Result<()> {
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Event {
        Wave(SensorType),
        Flush([bool; 2]),
    }
    let mut queue: EventQueue<Event> = EventQueue::new();
    for spec in city.catalog().iter() {
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
                on_flush(city)?;
            }
        }
    }
    Ok(())
}

/// Runs the paper's ablation: the same six hours with a different fog-1
/// flush period, returning `(period_s, mean payload bytes per flush)` —
/// the mean `tsenc` payload one sampled section ships per fog-1 flush —
/// used by the E6 experiment to show how the flush period trades batch
/// size for data freshness upstream.
///
/// # Errors
///
/// As [`simulate`].
pub fn flush_period_ablation(periods_s: &[u64], sections: usize) -> Result<Vec<(u64, u64)>> {
    let mut out = Vec::with_capacity(periods_s.len());
    for &period in periods_s {
        let mut config = SimConfig::paper();
        config.sections = sections;
        config.horizon_s = 6 * 3600;
        config.fog1_flush = FlushPolicy {
            period_s: period,
            ..FlushPolicy::paper_fog1()
        };
        let report = simulate(config)?;
        let shipments = report.fog1_shipments.max(1);
        out.push((period, report.fog1_uplink_compressed_bytes / shipments));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficModel;
    use std::sync::OnceLock;

    /// One section, four hours: the run the accounting tests share.
    fn small_report() -> &'static SimReport {
        static REPORT: OnceLock<SimReport> = OnceLock::new();
        REPORT.get_or_init(|| {
            let mut c = SimConfig::paper();
            c.horizon_s = 4 * 3600;
            simulate(c).unwrap()
        })
    }

    #[test]
    fn conservation_no_record_lost_between_layers() {
        let report = small_report();
        assert_eq!(
            report.cloud_records, report.stored_after_dedup,
            "every deduped record must reach the cloud after the final drain"
        );
    }

    #[test]
    fn dedup_rate_is_in_the_papers_band() {
        // Mixed-category rate: between urban's 30% and noise's 75%.
        let rate = small_report().dedup_rate();
        assert!((0.3..0.75).contains(&rate), "dedup rate {rate:.3}");
    }

    #[test]
    fn uplink_sees_fewer_bytes_than_raw() {
        let report = small_report();
        assert!(report.fog1_uplink_acct_bytes < report.raw_acct_bytes);
        assert!(report.fog1_uplink_compressed_bytes < report.fog1_uplink_acct_bytes);
        assert_eq!(report.fog1_uplink_acct_bytes, report.fog2_uplink_acct_bytes);
        for (category, t) in &report.per_category {
            assert!(
                0 < t.compressed && t.compressed <= t.after_dedup,
                "{category}: compressed {} vs after dedup {}",
                t.compressed,
                t.after_dedup
            );
        }
    }

    #[test]
    fn simulation_cross_validates_the_analytic_model() {
        // A full sampled day: per-category raw and dedup output must
        // match Table I within sampling tolerance.
        let report = simulate(SimConfig::paper()).unwrap();
        let model = TrafficModel::paper();
        for row in model.fig7_rows() {
            let measured = report.per_category[&row.category];
            let raw_err = (measured.raw as f64 - row.raw as f64).abs() / row.raw as f64;
            let dedup_err = (measured.after_dedup as f64 - row.after_dedup as f64).abs()
                / row.after_dedup as f64;
            assert!(
                raw_err < 0.01,
                "{}: raw off by {:.2}% (sim {} vs model {})",
                row.category,
                raw_err * 100.0,
                measured.raw,
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
        let report = small_report();
        // Compression on: the fog1->fog2 wire carries the payload bytes.
        assert_eq!(
            report.network_fog1_fog2_bytes, report.fog1_uplink_compressed_bytes,
            "metered fog1->fog2 bytes match compressed shipments"
        );
        assert!(report.network_fog2_cloud_bytes > 0);
    }

    #[test]
    fn bad_configs_rejected() {
        for sections in [0, 74] {
            let mut c = SimConfig::paper();
            c.sections = sections;
            assert!(matches!(
                simulate(c),
                Err(Error::BadConfig {
                    field: "sections",
                    ..
                })
            ));
        }
        let mut c = SimConfig::paper();
        c.horizon_s = 0;
        assert!(simulate(c).is_err());
    }

    #[test]
    fn the_sample_walks_the_districts_round_robin() {
        // A 1/100 catalog still puts sensors of some type in every section.
        let small = Catalog::barcelona().scaled_down(100);
        let sampled = |sections| {
            let sample = Sample::new(&small, sections, 7).unwrap();
            let kept: Vec<usize> = (0..73)
                .filter(|&s| !sample.generators[s].is_empty())
                .collect();
            (kept, sample)
        };
        // District firsts: 0, 4, 10, 18, 21, 27, 32, 43, 56, 63.
        assert_eq!(sampled(1).0, [0]);
        assert_eq!(sampled(3).0, [0, 4, 10]);
        assert_eq!(sampled(11).0, [0, 1, 4, 10, 18, 21, 27, 32, 43, 56, 63]);
        let (kept, all) = sampled(73);
        assert_eq!(kept.len(), 73);
        assert!(all.factor.values().all(|&f| f == 1.0));
        // One section of the full city holds every type at about 1/73 of
        // its population.
        let one = Sample::new(&Catalog::barcelona(), 1, 7).unwrap();
        assert_eq!(one.factor.len(), 21);
        for (ty, &f) in &one.factor {
            assert!((72.0..74.0).contains(&f), "{ty:?}: factor {f}");
        }
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
        let rows = flush_period_ablation(&[900, 3600], 1).unwrap();
        assert_eq!(rows.len(), 2);
        // Longer periods accumulate bigger payloads per flush.
        assert!(rows[1].1 > rows[0].1);
    }
}
