//! The deterministic parallel runtime's building blocks.
//!
//! The city is partitioned into **district shards** — a fixed logical
//! partition (one shard per fog-2 district, owning that district's fog-1
//! sections) that never depends on the thread count. Threads only *map*
//! shards to workers: shard `i` runs on worker `i % threads`, and each
//! worker walks its shards in ascending order. Between synchronization
//! points a shard mutates only what it owns plus an [`ObsScratch`] of
//! buffered observability (metrics deltas, trace spans, incidents,
//! network metering); at every barrier the coordinator absorbs the
//! scratches in canonical district order. Because a shard's work is a
//! pure function of the shared snapshot and its own state, and merges
//! fold in district order — never arrival order — every artifact
//! (snapshots, transcripts, the BENCH export) is byte-identical at any
//! thread count, including 1.

use citysim::NetScratch;
use f2c_obs::{CounterId, ExemplarStore, ExplainStore, Labels, MetricsRegistry, Tracer};

use crate::incident::{ChaosSite, IncidentKind, IncidentTimeline};

/// Worker-thread count for sharded phases. `1` runs every shard inline
/// on the caller, in district order — the same schedule the workers
/// reproduce, which is why thread counts cannot diverge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism(usize);

impl Parallelism {
    /// Run all shards inline on the calling thread.
    pub const SEQUENTIAL: Self = Self(1);

    /// A worker count (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self(threads.max(1))
    }

    /// The `PARALLELISM` environment knob: an explicit thread count, or
    /// the machine's available cores when unset/unparseable.
    pub fn from_env() -> Self {
        match std::env::var("PARALLELISM")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) => Self::new(n),
            None => Self::new(
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1),
            ),
        }
    }

    /// The worker count (≥ 1).
    pub fn get(self) -> usize {
        self.0
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Runs `f(i, &mut shards[i])` for every shard, on `threads` workers.
///
/// Shard `i` is pinned to worker `i % threads` and every worker visits
/// its shards in ascending index; with `threads == 1` the loop runs
/// inline in the same order. The shard → work assignment is therefore a
/// function of the shard index alone, so any observable the closure
/// writes into its shard is identical at every thread count.
pub fn run_shards<S, F>(threads: Parallelism, shards: &mut [S], f: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    let workers = threads.get().min(shards.len().max(1));
    if workers <= 1 {
        for (i, shard) in shards.iter_mut().enumerate() {
            f(i, shard);
        }
        return;
    }
    let mut buckets: Vec<Vec<(usize, &mut S)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, shard) in shards.iter_mut().enumerate() {
        buckets[i % workers].push((i, shard));
    }
    std::thread::scope(|scope| {
        for bucket in buckets {
            let f = &f;
            scope.spawn(move || {
                for (i, shard) in bucket {
                    f(i, shard);
                }
            });
        }
    });
}

/// One encoded flush shipment as it crossed a hop, captured only when
/// the city's shipment tap is on (differential corpus tests re-encode
/// and re-decode these offline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipmentRecord {
    /// Which hop shipped it: `1` = fog-1 → fog-2, `2` = fog-2 → cloud.
    pub hop: u8,
    /// The child stream at the receiver (hop 1: global section index,
    /// hop 2: district index) — the key the decoder state is kept under.
    pub origin: u16,
    /// Simulated instant of the flush wave.
    pub at_s: u64,
    /// The encoded `tsenc` payload that crossed the link.
    pub payload: Vec<u8>,
    /// The same records in verbatim wire-batch form, for the
    /// DEFLATE-vs-tsenc differential bound.
    pub wire: Vec<u8>,
}

/// One shard's buffered observability: everything a phase would normally
/// publish into the city's unified registry/tracer/timeline/meter, held
/// locally until the coordinator absorbs it at a barrier.
///
/// The scratch registry registers series on demand with the same
/// `(name, labels)` keys the city uses; absorption translates by key
/// (with a cached dense-id map, so the steady-state cost is one array
/// add per series), which makes the merge insensitive to registration
/// order across shards.
#[derive(Debug)]
pub struct ObsScratch {
    pub(crate) reg: MetricsRegistry,
    pub(crate) tracer: Tracer,
    pub(crate) timeline: IncidentTimeline,
    pub(crate) net: NetScratch,
    pub(crate) explains: ExplainStore,
    pub(crate) exemplars: ExemplarStore,
    /// Captured flush shipments (empty unless the tap is on).
    pub(crate) shipments: Vec<ShipmentRecord>,
    /// Cached scratch-counter-id → city-counter-id translation.
    pub(crate) map: Vec<CounterId>,
}

impl Default for ObsScratch {
    fn default() -> Self {
        Self {
            reg: MetricsRegistry::default(),
            tracer: Tracer::default(),
            timeline: IncidentTimeline::default(),
            net: NetScratch::default(),
            explains: ExplainStore::new(),
            exemplars: ExemplarStore::new(),
            shipments: Vec::new(),
            map: Vec::new(),
        }
    }
}

impl ObsScratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shard-local metrics registry.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.reg
    }

    /// The shard-local tracer.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The shard-local network scratch (metering + loss-coin draws).
    pub fn net_mut(&mut self) -> &mut NetScratch {
        &mut self.net
    }

    /// The shard-local explain reservoir.
    pub fn explains_mut(&mut self) -> &mut ExplainStore {
        &mut self.explains
    }

    /// The shard-local exemplar slots.
    pub fn exemplars_mut(&mut self) -> &mut ExemplarStore {
        &mut self.exemplars
    }

    /// Records an incident, mirroring `F2cCity::record_incident`: the
    /// event lands on the shard timeline and bumps the shard's
    /// `incidents{kind=…}` counter, so absorption reproduces exactly
    /// what a direct city-side record would have published.
    pub fn record_incident(&mut self, at_s: u64, site: ChaosSite, kind: IncidentKind) {
        let id = self
            .reg
            .counter("incidents", Labels::new().kind(kind.label()));
        self.reg.inc(id);
        self.timeline.record(at_s, site, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_clamps_and_reads_env_shape() {
        assert_eq!(Parallelism::new(0).get(), 1);
        assert_eq!(Parallelism::new(4).get(), 4);
        assert_eq!(Parallelism::SEQUENTIAL.get(), 1);
    }

    #[test]
    fn run_shards_visits_every_shard_once_at_any_thread_count() {
        for threads in [1usize, 2, 3, 8, 32] {
            let mut shards: Vec<u64> = vec![0; 10];
            run_shards(Parallelism::new(threads), &mut shards, |i, s| {
                *s += i as u64 + 1;
            });
            let want: Vec<u64> = (1..=10).collect();
            assert_eq!(shards, want, "threads={threads}");
        }
    }

    #[test]
    fn scratch_incidents_mirror_city_accounting() {
        let mut s = ObsScratch::new();
        s.record_incident(100, ChaosSite::Cloud, IncidentKind::NodeDown);
        s.record_incident(101, ChaosSite::Fog2(3), IncidentKind::NodeDown);
        assert_eq!(s.timeline.iter().count(), 2);
        assert_eq!(
            s.reg
                .counter_named("incidents", Labels::new().kind("node-down")),
            Some(2)
        );
    }
}
