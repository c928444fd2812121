//! What a deterministic closed-loop query workload *is*: its shape
//! ([`WorkloadConfig`]), its per-class query and think-time generators,
//! and what a run reports ([`WorkloadReport`]). The loop that drives it
//! is [`crate::parallel::run`] — the only closed loop in the workspace.
//!
//! A fixed population of simulated users (each assigned a service class)
//! drives the engine through the event-driven clock: every user issues a
//! query, waits for its simulated completion plus a per-class think time,
//! then issues the next — while background ingest waves and periodic
//! hierarchy flushes keep the city live. Everything derives from one
//! seed, and every request appends to an order-exact transcript hash, so
//! two replays of the same configuration are byte-identical (the same
//! guarantee `tests/determinism.rs` enforces for the ingest pipeline).
//!
//! Two load shapes stress admission control beyond the steady closed
//! loop:
//!
//! * a [`DiurnalCurve`] scales every think time by a day-shaped
//!   intensity (the paper's §IV.D off-peak window story) — peaks almost
//!   double the offered load, troughs model the quiet night hours, and
//! * [`FlashCrowd`]s inject temporary bursts of extra users of one
//!   service class (a city-wide incident pulling everyone's dashboards
//!   up, an analytics batch kicking off at midnight), which is what
//!   makes per-class quotas earn their keep: the burst class sheds
//!   while the real-time guarantee stays untouched.

use citysim::time::Duration;
use citysim::Histogram;
use f2c_core::{F2cCity, Layer};
use f2c_qos::CLASS_COUNT;
use rand::rngs::SmallRng;
use rand::Rng;
use scc_sensors::{Category, SensorType};

pub use f2c_qos::ServiceClass;

use crate::engine::ClassStats;
use crate::model::{Query, QueryKind, Scope, Selector, TimeWindow};
use crate::{Error, Result};

/// Relative weights of the service classes in a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Weight of [`ServiceClass::Dashboard`].
    pub dashboard: u32,
    /// Weight of [`ServiceClass::Analytics`].
    pub analytics: u32,
    /// Weight of [`ServiceClass::RealTime`].
    pub realtime: u32,
    /// Weight of [`ServiceClass::CityWide`].
    pub city: u32,
}

impl Default for Mix {
    fn default() -> Self {
        Self {
            dashboard: 42,
            analytics: 10,
            realtime: 42,
            city: 6,
        }
    }
}

impl Mix {
    pub(crate) fn total(&self) -> u32 {
        self.dashboard + self.analytics + self.realtime + self.city
    }

    pub(crate) fn sample(&self, rng: &mut SmallRng) -> ServiceClass {
        let x = rng.gen_range(0..self.total());
        if x < self.dashboard {
            ServiceClass::Dashboard
        } else if x < self.dashboard + self.analytics {
            ServiceClass::Analytics
        } else if x < self.dashboard + self.analytics + self.realtime {
            ServiceClass::RealTime
        } else {
            ServiceClass::CityWide
        }
    }
}

/// A day-shaped request-intensity curve: a triangle wave ramping from a
/// trough to a peak and back over each period. Think times divide by
/// the intensity, so a 1 800‰ peak nearly doubles the offered load and
/// a 400‰ trough models the §IV.D off-peak window. Integer arithmetic
/// throughout keeps replays bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiurnalCurve {
    /// Cycle length in seconds (86 400 for a calendar day).
    pub period_s: u64,
    /// Intensity at the trough, per mille of nominal (e.g. 400 = 0.4×).
    pub trough_milli: u64,
    /// Intensity at the peak, per mille of nominal (e.g. 1 800 = 1.8×).
    pub peak_milli: u64,
    /// Instant of the (first) peak within the cycle.
    pub peak_at_s: u64,
}

impl DiurnalCurve {
    /// A calendar day peaking at 13:00 with a 0.4× night trough and a
    /// 1.8× afternoon peak.
    pub fn paper_day() -> Self {
        Self {
            period_s: 86_400,
            trough_milli: 400,
            peak_milli: 1_800,
            peak_at_s: 13 * 3_600,
        }
    }

    /// Request intensity at `t_s`, per mille of nominal (≥ 1).
    pub(crate) fn intensity_milli(&self, t_s: u64) -> u64 {
        let period = self.period_s.max(2);
        let x = (t_s + period - self.peak_at_s % period) % period;
        // Distance from the nearest peak, 0..=period/2.
        let d = x.min(period - x);
        let half = period / 2;
        let span = self.peak_milli.saturating_sub(self.trough_milli);
        (self.peak_milli - span * d / half).max(1)
    }
}

/// A seeded flash crowd: `users` temporary closed-loop users of one
/// service class joining at `start_s`, thinking `think_divisor`× faster
/// than the class nominal, and leaving `duration_s` later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashCrowd {
    /// The class every burst user issues.
    pub class: ServiceClass,
    /// When the crowd arrives (simulated seconds).
    pub start_s: u64,
    /// How long it stays.
    pub duration_s: u64,
    /// How many extra users join.
    pub users: u32,
    /// Burst users think this many times faster than the class nominal
    /// (≥ 1).
    pub think_divisor: u32,
}

impl FlashCrowd {
    pub(crate) fn active_at(&self, t_s: u64) -> bool {
        t_s >= self.start_s && t_s < self.start_s.saturating_add(self.duration_s)
    }
}

/// Maximum flash crowds per workload (a fixed-size array keeps
/// [`WorkloadConfig`] `Copy`).
pub(crate) const MAX_FLASH_CROWDS: usize = 4;

/// Workload shape: everything the closed loop needs, seed included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Master seed: user classes, query parameters, think-time jitter.
    pub seed: u64,
    /// Total requests to issue before draining.
    pub requests: u64,
    /// Closed-loop user population.
    pub users: u32,
    /// Service-class mix.
    pub mix: Mix,
    /// Simulated start instant (typically the warm-up horizon).
    pub start_s: u64,
    /// Hierarchy-wide flush period during serving (0 disables).
    pub flush_period_s: u64,
    /// Background ingest-wave period during serving (0 disables).
    pub ingest_period_s: u64,
    /// Population divisor for the background ingest generators.
    pub ingest_scale: u64,
    /// Day-shaped think-time scaling (`None` keeps the flat load of the
    /// steady closed loop).
    pub diurnal: Option<DiurnalCurve>,
    /// Up to `MAX_FLASH_CROWDS` seeded per-class bursts.
    pub flash_crowds: [Option<FlashCrowd>; MAX_FLASH_CROWDS],
    /// Keep the full per-request transcript in the report (the rolling
    /// hash is always computed).
    pub record_transcript: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            seed: 2017,
            requests: 10_000,
            users: 64,
            mix: Mix::default(),
            start_s: 0,
            flush_period_s: 900,
            ingest_period_s: 300,
            ingest_scale: 20_000,
            diurnal: None,
            flash_crowds: [None; MAX_FLASH_CROWDS],
            record_transcript: false,
        }
    }
}

/// What a workload run measured.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Requests issued.
    pub issued: u64,
    /// Requests answered (cache or store).
    pub answered: u64,
    /// Requests shed by admission control (either cause).
    pub shed: u64,
    /// Requests no layer could answer completely.
    pub unanswerable: u64,
    /// Edge result-cache hits during the run.
    pub edge_hits: u64,
    /// Source result-cache hits during the run.
    pub source_hits: u64,
    /// Store executions during the run.
    pub store_served: u64,
    /// Scatter-gather executions during the run.
    pub scatter_served: u64,
    /// Fan-out legs executed during the run.
    pub scatter_legs: u64,
    /// Contested fan-out-vs-cloud routes the fan-out won during the run.
    pub scatter_wins: u64,
    /// Contested fan-out-vs-cloud routes the cloud won during the run.
    pub cloud_wins: u64,
    /// Closed buckets assembled from flush-shipped pre-folded partials
    /// (the sketch ledger) instead of archive scans during the run.
    pub prefold_hits: u64,
    /// Closed buckets that had to be scanned and cached during the run
    /// (no cached partial, no ledger coverage).
    pub partial_fills: u64,
    /// Queries answered from warm sketches after raw eviction during
    /// the run.
    pub sketch_served: u64,
    /// Scatter legs executed from warm sketches during the run.
    pub sketch_legs: u64,
    /// Requests shed because an injected fault left no viable route
    /// during the run.
    pub fault_shed: u64,
    /// Fan-out legs shed by injected faults during the run.
    pub legs_shed: u64,
    /// Answered requests degraded to partial completeness (surviving
    /// legs only) during the run.
    pub degraded: u64,
    /// Estimated-latency histograms per serving layer (fog 1, fog 2,
    /// cloud).
    pub latency_by_layer: [Histogram; 3],
    /// Estimated-latency histograms per service class, indexed by
    /// [`ServiceClass::index`].
    pub latency_by_class: [Histogram; CLASS_COUNT],
    /// Per-class engine-counter deltas for this run (requests issued,
    /// answered, sheds by cause, reroutes, SLO attainment), indexed by
    /// [`ServiceClass::index`].
    pub per_class: [ClassStats; CLASS_COUNT],
    /// Capacity sheds per class that occurred while any flash crowd was
    /// active — the "same instant" evidence that a burst sheds its own
    /// class, not the guaranteed ones. Indexed by
    /// [`ServiceClass::index`].
    pub shed_during_flash: [u64; CLASS_COUNT],
    /// Estimated-latency histogram of scatter-gather-served requests.
    pub scatter_latency: Histogram,
    /// Simulated instant of the last processed request.
    pub sim_end_s: u64,
    /// Order-exact FNV-1a hash over every request's transcript line.
    pub transcript_hash: u64,
    /// The transcript itself, when recorded.
    pub transcript: Vec<u8>,
}

impl WorkloadReport {
    /// The latency histogram of one serving layer.
    pub fn layer_hist(&self, layer: Layer) -> &Histogram {
        &self.latency_by_layer[layer.index()]
    }

    /// The latency histogram of one service class.
    pub fn class_hist(&self, class: ServiceClass) -> &Histogram {
        &self.latency_by_class[class.index()]
    }

    /// The counters of one service class during this run.
    pub fn class_stats(&self, class: ServiceClass) -> &ClassStats {
        &self.per_class[class.index()]
    }

    /// This run's in-flash capacity sheds of one service class.
    pub fn flash_shed(&self, class: ServiceClass) -> u64 {
        self.shed_during_flash[class.index()]
    }

    /// Fraction of answered requests served from a result cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            (self.edge_hits + self.source_hits) as f64 / self.answered as f64
        }
    }
}

pub(crate) fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a offset basis — the initial value of every transcript hash.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub(crate) fn think(class: ServiceClass, rng: &mut SmallRng) -> Duration {
    let (base_ms, jitter_ms) = match class {
        ServiceClass::RealTime => (1_000, 1_000),
        ServiceClass::Dashboard => (2_000, 3_000),
        ServiceClass::Analytics => (8_000, 8_000),
        ServiceClass::CityWide => (6_000, 6_000),
    };
    Duration::from_millis(base_ms + rng.gen_range(0..jitter_ms))
}

/// One closed-loop user: class, think-time divisor (flash-crowd members
/// tick faster) and an optional retirement instant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct User {
    pub(crate) class: ServiceClass,
    pub(crate) think_divisor: u32,
    pub(crate) retires_at_s: Option<u64>,
}

/// One request of `class` at `now_s`, from `origin`, over windows settled
/// up to `settled`. The caller supplies the origin section and the
/// settled frontier: each district shard draws origins from its own
/// sections, and serving only ever holds `&F2cCity`.
pub(crate) fn gen_query_at(
    class: ServiceClass,
    now_s: u64,
    origin: usize,
    settled: u64,
    city: &F2cCity,
    rng: &mut SmallRng,
) -> Query {
    match class {
        ServiceClass::RealTime => Query {
            origin,
            class,
            selector: Selector::Type(SensorType::ALL[rng.gen_range(0..SensorType::ALL.len())]),
            scope: Scope::Section(origin),
            window: TimeWindow::new(now_s.saturating_sub(1_800), now_s + 1),
            kind: QueryKind::Point,
        },
        ServiceClass::Dashboard => {
            if rng.gen_bool(0.25) {
                // Raw recent feed of the user's own section (always
                // local-complete).
                Query {
                    origin,
                    class,
                    selector: Selector::Type(
                        SensorType::ALL[rng.gen_range(0..SensorType::ALL.len())],
                    ),
                    scope: Scope::Section(origin),
                    window: TimeWindow::new(now_s.saturating_sub(900), now_s + 1),
                    kind: QueryKind::Range,
                }
            } else {
                // District aggregate over the last settled hour.
                let district = city.district_of(origin);
                Query {
                    origin,
                    class,
                    selector: Selector::Category(
                        Category::ALL[rng.gen_range(0..Category::ALL.len())],
                    ),
                    scope: Scope::District(district),
                    window: TimeWindow::new(settled.saturating_sub(3_600), settled),
                    kind: QueryKind::Aggregate,
                }
            }
        }
        ServiceClass::Analytics => Query {
            origin,
            class,
            selector: Selector::Category(Category::ALL[rng.gen_range(0..Category::ALL.len())]),
            scope: Scope::District(rng.gen_range(0..10usize)),
            // A randomized lookback keeps long-window analytics mostly
            // distinct (real batch jobs rarely repeat a window exactly),
            // so bursts stress admission instead of the result caches.
            window: TimeWindow::new(rng.gen_range(0..settled / 2 + 1), settled),
            kind: QueryKind::Aggregate,
        },
        ServiceClass::CityWide => {
            if rng.gen_bool(0.2) {
                // City-wide latest observation of one type (a status
                // probe racing every shard's winner).
                Query {
                    origin,
                    class,
                    selector: Selector::Type(
                        SensorType::ALL[rng.gen_range(0..SensorType::ALL.len())],
                    ),
                    scope: Scope::City,
                    window: TimeWindow::new(now_s.saturating_sub(1_800), now_s + 1),
                    kind: QueryKind::Point,
                }
            } else {
                // City-wide aggregate panel over the last settled hour.
                Query {
                    origin,
                    class,
                    selector: Selector::Category(
                        Category::ALL[rng.gen_range(0..Category::ALL.len())],
                    ),
                    scope: Scope::City,
                    window: TimeWindow::new(settled.saturating_sub(3_600), settled),
                    kind: QueryKind::Aggregate,
                }
            }
        }
    }
}

/// Rejects degenerate workload shapes; returns the flattened flash-crowd
/// list on success.
pub(crate) fn validate(config: &WorkloadConfig) -> Result<Vec<FlashCrowd>> {
    if config.users == 0 || config.requests == 0 || config.mix.total() == 0 {
        return Err(Error::BadQuery {
            field: "workload",
            reason: "users, requests and the mix total must be positive".to_owned(),
        });
    }
    if let Some(curve) = &config.diurnal {
        if curve.peak_milli < curve.trough_milli || curve.trough_milli == 0 || curve.period_s < 2 {
            return Err(Error::BadQuery {
                field: "diurnal",
                reason: format!("need period ≥ 2 and peak ≥ trough ≥ 1‰, got {curve:?}"),
            });
        }
    }
    let crowds: Vec<FlashCrowd> = config.flash_crowds.iter().flatten().copied().collect();
    if crowds
        .iter()
        .any(|c| c.users == 0 || c.duration_s == 0 || c.think_divisor == 0)
    {
        return Err(Error::BadQuery {
            field: "flash_crowds",
            reason: "every flash crowd needs users, a duration and a divisor ≥ 1".to_owned(),
        });
    }
    Ok(crowds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, LayerCaps, QueryEngine};
    use crate::parallel::run;
    use f2c_core::runtime::populate_city;

    fn warm_engine() -> QueryEngine {
        let mut city = F2cCity::barcelona().unwrap();
        populate_city(&mut city, 50_000, 7, 3_600, 900).unwrap();
        QueryEngine::new(city, EngineConfig::default())
    }

    fn small_config() -> WorkloadConfig {
        WorkloadConfig {
            requests: 800,
            users: 16,
            start_s: 3_600,
            record_transcript: true,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn closed_loop_issues_exactly_the_requested_count() {
        let mut engine = warm_engine();
        let report = run(&mut engine, &small_config()).unwrap();
        assert_eq!(report.issued, 800);
        assert_eq!(
            report.answered + report.shed + report.unanswerable,
            report.issued,
            "every request has exactly one outcome"
        );
        assert!(report.answered > 0, "a warm city answers most requests");
        assert!(
            report.latency_by_layer.iter().any(|h| h.count() > 0),
            "latencies were recorded"
        );
        assert_eq!(
            report.transcript.iter().filter(|&&b| b == b'\n').count() as u64,
            report.issued,
            "one transcript line per request"
        );
        let by_class: u64 = report.per_class.iter().map(|c| c.requests).sum();
        assert_eq!(by_class, report.issued, "per-class request counts add up");
        let answered_by_class: u64 = report.per_class.iter().map(|c| c.answered).sum();
        assert_eq!(answered_by_class, report.answered);
        let recorded: u64 = report.latency_by_class.iter().map(Histogram::count).sum();
        assert_eq!(recorded, report.answered, "per-class latencies recorded");
    }

    #[test]
    fn repeated_queries_warm_the_caches() {
        let mut engine = warm_engine();
        let report = run(&mut engine, &small_config()).unwrap();
        assert!(
            report.edge_hits + report.source_hits > 0,
            "dashboards repeat over settled windows: {report:?}"
        );
    }

    #[test]
    fn city_wide_mix_exercises_scatter_gather() {
        let mut engine = warm_engine();
        let mut config = small_config();
        config.mix = Mix {
            dashboard: 20,
            analytics: 10,
            realtime: 20,
            city: 50,
        };
        let report = run(&mut engine, &config).unwrap();
        assert!(
            report.scatter_served > 0,
            "city-wide queries must fan out: {report:?}"
        );
        assert!(
            report.scatter_legs >= report.scatter_served,
            "every scatter execution has at least one leg"
        );
        assert!(
            report.scatter_latency.count() == report.scatter_served,
            "scatter latencies are recorded per execution"
        );
        assert!(
            report.scatter_wins + report.cloud_wins > 0,
            "settled city windows put the fan-out and the cloud in contest"
        );
    }

    #[test]
    fn fan_out_replays_are_transcript_identical() {
        // The scatter path merges per-leg partials; replays must stay
        // byte-identical with fan-out (and its multi-slot admission
        // releases) in the mix.
        let run_once = || {
            let mut engine = warm_engine();
            let mut config = small_config();
            config.mix = Mix {
                dashboard: 10,
                analytics: 10,
                realtime: 10,
                city: 70,
            };
            run(&mut engine, &config).unwrap()
        };
        let a = run_once();
        let b = run_once();
        assert!(a.scatter_served > 0, "fan-out must actually run: {a:?}");
        assert_eq!(a.transcript, b.transcript, "fan-out replay diverged");
        assert_eq!(a.transcript_hash, b.transcript_hash);
    }

    #[test]
    fn replays_are_transcript_identical_and_seeds_matter() {
        let run_once = |seed: u64| {
            let mut engine = warm_engine();
            let mut config = small_config();
            config.seed = seed;
            run(&mut engine, &config).unwrap()
        };
        let a = run_once(2017);
        let b = run_once(2017);
        assert_eq!(a.transcript, b.transcript, "replays must be identical");
        assert_eq!(a.transcript_hash, b.transcript_hash);
        let c = run_once(2018);
        assert_ne!(
            a.transcript_hash, c.transcript_hash,
            "a different seed must change the workload"
        );
    }

    #[test]
    fn diurnal_and_burst_replays_are_transcript_identical() {
        // The diurnal scaling and flash-crowd machinery run off the same
        // seed and clock as everything else: replays must stay
        // byte-identical, and the knobs must actually change the run.
        let run_once = |seed: u64, diurnal: bool| {
            let mut engine = warm_engine();
            let mut config = small_config();
            config.seed = seed;
            if diurnal {
                config.diurnal = Some(DiurnalCurve::paper_day());
            }
            config.flash_crowds[0] = Some(FlashCrowd {
                class: ServiceClass::Analytics,
                start_s: 3_620,
                duration_s: 60,
                users: 12,
                think_divisor: 8,
            });
            run(&mut engine, &config).unwrap()
        };
        let a = run_once(2017, true);
        let b = run_once(2017, true);
        assert_eq!(a.transcript, b.transcript, "diurnal/burst replay diverged");
        assert_eq!(a.transcript_hash, b.transcript_hash);
        assert!(
            a.class_stats(ServiceClass::Analytics).requests > 0,
            "the burst issues analytics traffic"
        );
        let flat = run_once(2017, false);
        assert_ne!(
            a.transcript_hash, flat.transcript_hash,
            "the diurnal curve must reshape the run"
        );
    }

    #[test]
    fn diurnal_intensity_peaks_and_troughs_where_configured() {
        let curve = DiurnalCurve::paper_day();
        assert_eq!(curve.intensity_milli(13 * 3_600), 1_800, "peak at 13:00");
        assert_eq!(curve.intensity_milli(on_the_far_side(&curve)), 400);
        // Periodicity.
        assert_eq!(
            curve.intensity_milli(13 * 3_600),
            curve.intensity_milli(13 * 3_600 + 86_400)
        );
        // Monotone ramp between trough and peak.
        let morning: Vec<u64> = (1..13)
            .map(|h| curve.intensity_milli(3_600 + h * 3_600))
            .collect();
        assert!(morning.windows(2).all(|w| w[0] <= w[1]), "{morning:?}");
    }

    fn on_the_far_side(curve: &DiurnalCurve) -> u64 {
        curve.peak_at_s + curve.period_s / 2
    }

    #[test]
    fn an_analytics_flash_crowd_sheds_analytics_not_realtime() {
        // Tight caps plus a hard analytics burst: the burst must shed
        // *its own* class while real-time reads ride their guaranteed
        // share untouched — the core QoS promise, asserted at workload
        // scale. The result caches are disabled (TTL 0) so the burst's
        // repetitive settled-window aggregates cannot hide behind cache
        // hits, which bypass admission entirely.
        let mut city = F2cCity::barcelona().unwrap();
        populate_city(&mut city, 50_000, 7, 3_600, 900).unwrap();
        let cfg = EngineConfig {
            result_ttl_s: 0,
            caps: LayerCaps {
                fog1: 64,
                fog2: 8,
                cloud: 4,
            },
            ..EngineConfig::default()
        };
        let mut engine = QueryEngine::new(city, cfg);
        let mut config = WorkloadConfig {
            requests: 3_000,
            users: 32,
            start_s: 3_600,
            ..WorkloadConfig::default()
        };
        config.flash_crowds[0] = Some(FlashCrowd {
            class: ServiceClass::Analytics,
            start_s: 3_610,
            duration_s: 120,
            users: 48,
            think_divisor: 32,
        });
        let report = run(&mut engine, &config).unwrap();
        let realtime = report.class_stats(ServiceClass::RealTime);
        assert!(
            report.flash_shed(ServiceClass::Analytics) > 0,
            "the burst must overrun the analytics quota: {report:?}"
        );
        assert_eq!(
            realtime.shed, 0,
            "real-time reads must never shed while analytics bursts: {report:?}"
        );
        assert_eq!(report.flash_shed(ServiceClass::RealTime), 0);
        assert!(realtime.requests > 0, "the steady mix keeps issuing reads");
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut engine = warm_engine();
        let mut config = small_config();
        config.users = 0;
        assert!(matches!(
            run(&mut engine, &config),
            Err(Error::BadQuery {
                field: "workload",
                ..
            })
        ));
        let mut config = small_config();
        config.mix = Mix {
            dashboard: 0,
            analytics: 0,
            realtime: 0,
            city: 0,
        };
        assert!(run(&mut engine, &config).is_err());
        let mut config = small_config();
        config.diurnal = Some(DiurnalCurve {
            period_s: 86_400,
            trough_milli: 2_000,
            peak_milli: 1_000, // inverted
            peak_at_s: 0,
        });
        assert!(run(&mut engine, &config).is_err());
        let mut config = small_config();
        config.flash_crowds[0] = Some(FlashCrowd {
            class: ServiceClass::Dashboard,
            start_s: 3_600,
            duration_s: 0, // degenerate
            users: 4,
            think_divisor: 1,
        });
        assert!(run(&mut engine, &config).is_err());
    }
}
