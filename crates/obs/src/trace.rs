//! Deterministic sim-time tracing.
//!
//! Spans are plain values opened and closed on the *event clock* — no wall
//! time, no globals, no thread locals — so a trace is a pure function of the
//! seeded run and three replicas encode byte-identical transcripts.
//!
//! Each traced node ([`Site`]) owns a [`TraceLog`]: a bounded ring of
//! completed [`Span`]s plus a stack of currently-open ones. Nesting is
//! structural — a span opened while another is open becomes its child
//! (depth + 1), and a close must name the *innermost* open span; anything
//! else is counted as malformed rather than silently reshuffled, so the
//! well-formedness property is checkable (and property-tested). An
//! evicted span's duration stays in its tracer's per-phase histograms.
//!
//! Cost model: `open`, `close` and [`Tracer::mark`] are O(1) in the number
//! of sites (one log lookup, no allocation once the ring is full);
//! [`Tracer::absorb`] and [`Tracer::spans_since`] visit only the sites
//! touched since the source tracer was last drained — a request pays for
//! the sites it traced, not for every site that ever traced.
//!
//! A site is a small integer and is addressed as one: logs live in a
//! `Vec`, and the three city tiers (`cloud` / `fog1` / `fog2`) resolve a
//! site to its slot through a dense per-tier `index → slot` table — two
//! loads, no string compare through a tree. The tables are bounded
//! (`DENSE_LIMIT` indices per tier): an index past the bound, or a tier
//! the tables do not know, resolves through the ordered `Site → slot` map
//! instead, so `Site::new("fog1", u32::MAX)` costs one map entry, not a
//! 4-billion-entry table. That map is otherwise only walked by the
//! key-ordered readers (`encode`, `sites`, `flight_record`).

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use citysim::time::Duration;
use citysim::Histogram;

/// A traced node: a static tier name plus an index within the tier
/// (`fog1/17`, `fog2/3`, `cloud/0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Site {
    /// Tier name (`"fog1"`, `"fog2"`, `"cloud"`, …).
    pub tier: &'static str,
    /// Index within the tier.
    pub index: u32,
}

impl Site {
    /// A site.
    pub const fn new(tier: &'static str, index: u32) -> Self {
        Self { tier, index }
    }

    /// The cloud site.
    pub const fn cloud() -> Self {
        Self::new("cloud", 0)
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.tier, self.index)
    }
}

/// One completed span: a named interval of simulated time at one site,
/// with its nesting depth and one free attribute (bytes shipped, legs
/// gathered, holes healed — whatever the phase counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Phase name (static: `"flush-wave"`, `"query"`, `"heal-round"`, …).
    pub name: &'static str,
    /// Open instant, simulated microseconds.
    pub start_us: u64,
    /// Close instant, simulated microseconds.
    pub end_us: u64,
    /// Nesting depth at open time (0 = root).
    pub depth: u16,
    /// Free attribute recorded at close.
    pub attr: u64,
}

impl Span {
    /// The span's simulated duration.
    pub(crate) fn duration(&self) -> Duration {
        Duration::from_micros(self.end_us.saturating_sub(self.start_us))
    }
}

/// Token returned by [`Tracer::open`]; closing consumes it. Carries the
/// site so a close cannot be misdelivered to another node's log.
#[derive(Debug, Clone, Copy)]
#[must_use = "an unclosed span is an orphan in the transcript"]
pub struct SpanToken {
    site: Site,
    seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    seq: u64,
    name: &'static str,
    start_us: u64,
    depth: u16,
}

/// One node's bounded span log. See the module docs.
#[derive(Debug, Clone)]
pub struct TraceLog {
    capacity: usize,
    /// Completed spans, each beside the tracer-wide completion ordinal it
    /// was stamped with — increasing along the ring (see [`Tracer::mark`]).
    done: VecDeque<(u64, Span)>,
    open: Vec<OpenSpan>,
    next_seq: u64,
    dropped: u64,
    malformed: u64,
    /// Whether the owning tracer's dirty list already names this log.
    listed: bool,
}

/// Per-phase histograms of evicted spans' durations (see `Tracer`).
type Evicted = Vec<(&'static str, Histogram)>;

/// The histogram of `phase` in a per-phase list, added empty on first
/// use. Phase names are literals, so the same phase almost always arrives
/// as the same pointer and matches without a byte compare; the string
/// compare behind it keeps one entry per *name* whatever the linker did
/// with the literals.
fn phase_entry<'a>(list: &'a mut Evicted, phase: &'static str) -> &'a mut Histogram {
    let found = list
        .iter()
        .position(|(n, _)| std::ptr::eq(*n, phase) || *n == phase);
    let at = found.unwrap_or_else(|| {
        list.push((phase, Histogram::default()));
        list.len() - 1
    });
    &mut list[at].1
}

impl TraceLog {
    /// An empty log keeping at most `capacity` completed spans (oldest
    /// evicted first).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            done: VecDeque::new(),
            open: Vec::new(),
            next_seq: 0,
            dropped: 0,
            malformed: 0,
            listed: false,
        }
    }

    fn open(&mut self, name: &'static str, at_us: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.open.push(OpenSpan {
            seq,
            name,
            start_us: at_us,
            depth: self.open.len() as u16,
        });
        seq
    }

    fn close(&mut self, seq: u64, at_us: u64, attr: u64, ord: u64, evicted: &mut Evicted) -> bool {
        match self.open.pop_if(|top| top.seq == seq) {
            Some(top) => {
                let span = Span {
                    name: top.name,
                    start_us: top.start_us,
                    end_us: at_us.max(top.start_us),
                    depth: top.depth,
                    attr,
                };
                self.push_completed(ord, span, evicted);
                true
            }
            None => {
                // Closing anything but the innermost open span (or a span
                // never opened here) is a structural bug in the caller;
                // count it, drop the entry if present, record nothing.
                self.open.retain(|o| o.seq != seq);
                self.malformed += 1;
                false
            }
        }
    }

    /// Appends an already-completed span, honoring the ring bound; an
    /// evicted span's duration goes to `evicted`. This is also the merge
    /// path: a shard's scratch log drains into the global one span by
    /// span, so eviction behaves exactly as if the span had closed here.
    fn push_completed(&mut self, ord: u64, span: Span, evicted: &mut Evicted) {
        if self.done.len() == self.capacity {
            if let Some((_, old)) = self.done.pop_front() {
                self.dropped += 1;
                phase_entry(evicted, old.name).record(old.duration());
            }
        }
        self.done.push_back((ord, span));
    }

    /// Completed spans, oldest first.
    pub fn completed(&self) -> impl Iterator<Item = &Span> {
        self.done.iter().map(|(_, span)| span)
    }

    /// Number of spans currently open (0 in a well-formed quiescent log).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Structurally invalid closes observed (0 in a well-formed log).
    pub fn malformed(&self) -> u64 {
        self.malformed
    }
}

/// A position in one tracer's completion order; see [`Tracer::mark`].
#[derive(Debug, Clone, Copy)]
pub struct TracerMark(u64);

/// The tiers whose sites resolve through a dense `index → slot` table.
const DENSE_TIERS: [&str; 3] = ["cloud", "fog1", "fog2"];

/// Indices a dense tier table may hold; a site at or past this resolves
/// through the ordered map instead, so a table never outgrows 4 KiB.
const DENSE_LIMIT: u32 = 1_024;

/// A dense-table entry naming no slot.
const VACANT: u32 = u32::MAX;

/// Where `site` sits in the dense tables — `(tier table, index)` — if its
/// tier has one and its index is under `DENSE_LIMIT`.
fn dense_key(site: Site) -> Option<(usize, usize)> {
    if site.index >= DENSE_LIMIT {
        return None;
    }
    let tier = DENSE_TIERS.iter().position(|t| *t == site.tier)?;
    Some((tier, site.index as usize))
}

/// The per-run tracer: one `TraceLog` per [`Site`], encoded key-ordered
/// so the transcript is byte-stable across replicas.
#[derive(Debug, Clone)]
pub struct Tracer {
    capacity: usize,
    /// Every site's log, in first-touch order; a *slot* is an index here.
    logs: Vec<(Site, TraceLog)>,
    /// Per dense tier, `index → slot` ([`VACANT`] where no log exists yet),
    /// grown on demand up to `DENSE_LIMIT` entries.
    dense: [Vec<u32>; DENSE_TIERS.len()],
    /// Every site's slot, key-ordered: the lookup for sites off the dense
    /// tables and the iteration order of every encoded artifact.
    by_key: BTreeMap<Site, u32>,
    /// The ordinal the next completed span is stamped with.
    next_ord: u64,
    /// The slots touched since this tracer was last drained by
    /// [`Tracer::absorb`], each named once (`TraceLog::listed`).
    dirty: Vec<u32>,
    /// The durations of the spans every ring evicted, per phase name:
    /// a short list (a run names about a dozen phases), one entry per
    /// name, in first-eviction order.
    evicted: Evicted,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Default per-site ring capacity, sized for the rings' readers:
    /// `flight_record(8)`, and `spans_since` over one query's spans at a
    /// site (five at its origin, six if it also runs a leg there; one
    /// `scatter-leg` elsewhere). Durations never depend on the rings.
    pub(crate) const DEFAULT_CAPACITY: usize = 8;

    /// A tracer with the default per-site capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A tracer keeping at most `capacity` completed spans per site.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity,
            logs: Vec::new(),
            dense: Default::default(),
            by_key: BTreeMap::new(),
            next_ord: 0,
            dirty: Vec::new(),
            evicted: Vec::new(),
        }
    }

    /// The slot of `site`'s log, if it has one.
    fn slot_of(&self, site: Site) -> Option<u32> {
        match dense_key(site) {
            Some((tier, index)) => self.dense[tier]
                .get(index)
                .copied()
                .filter(|&slot| slot != VACANT),
            None => self.by_key.get(&site).copied(),
        }
    }

    /// Gives `site` an empty log and returns its slot.
    fn add_site(&mut self, site: Site) -> u32 {
        let slot = self.logs.len() as u32;
        self.logs.push((site, TraceLog::new(self.capacity)));
        self.by_key.insert(site, slot);
        if let Some((tier, index)) = dense_key(site) {
            let table = &mut self.dense[tier];
            if table.len() <= index {
                table.resize(index + 1, VACANT);
            }
            table[index] = slot;
        }
        slot
    }

    /// The log in `slot` (one `slot_of` or `add_site` returned), entered
    /// in the dirty list unless already there, beside the evicted spans.
    fn listed_log(&mut self, slot: u32) -> (&mut TraceLog, &mut Evicted) {
        let (_, log) = &mut self.logs[slot as usize];
        if !log.listed {
            log.listed = true;
            self.dirty.push(slot);
        }
        (log, &mut self.evicted)
    }

    /// The log of `site`, created on first use and listed as dirty.
    fn touch(&mut self, site: Site) -> (&mut TraceLog, &mut Evicted) {
        let slot = match self.slot_of(site) {
            Some(slot) => slot,
            None => self.add_site(site),
        };
        self.listed_log(slot)
    }

    /// Every site's log, key-ordered.
    fn ordered(&self) -> impl Iterator<Item = (Site, &TraceLog)> {
        self.by_key
            .iter()
            .map(|(&site, &slot)| (site, &self.logs[slot as usize].1))
    }

    /// Opens a span at `site` at simulated instant `at_us`; it nests under
    /// any span already open there.
    pub fn open(&mut self, site: Site, name: &'static str, at_us: u64) -> SpanToken {
        let seq = self.touch(site).0.open(name, at_us);
        SpanToken { site, seq }
    }

    /// Closes a span with attribute 0. Returns `false` (and counts the
    /// close as malformed) if the token is not the innermost open span.
    pub fn close(&mut self, token: SpanToken, at_us: u64) -> bool {
        self.close_with(token, at_us, 0)
    }

    /// Closes a span recording one free attribute.
    pub fn close_with(&mut self, token: SpanToken, at_us: u64, attr: u64) -> bool {
        let Some(slot) = self.slot_of(token.site) else {
            return false;
        };
        let ord = self.next_ord;
        self.next_ord += 1;
        let (log, evicted) = self.listed_log(slot);
        log.close(token.seq, at_us, attr, ord, evicted)
    }

    /// The log of one site, if it ever opened a span.
    pub fn log(&self, site: Site) -> Option<&TraceLog> {
        let (_, log) = self.logs.get(self.slot_of(site)? as usize)?;
        Some(log)
    }

    /// All traced sites, key-ordered.
    pub fn sites(&self) -> impl Iterator<Item = Site> + '_ {
        self.by_key.keys().copied()
    }

    /// Total completed spans currently retained across all sites.
    pub fn span_count(&self) -> usize {
        self.logs.iter().map(|(_, l)| l.done.len()).sum()
    }

    /// Total malformed closes across all sites (0 in a well-formed run).
    pub fn malformed(&self) -> u64 {
        self.logs.iter().map(|(_, l)| l.malformed).sum()
    }

    /// Moves every completed span (and ring/malformed accounting, and the
    /// evicted spans' histograms) of `other` into `self`, preserving each
    /// site's span order. Only the
    /// sites `other` touched since it was last drained are visited (in
    /// any order: a site's log depends on no other's), so draining a
    /// scratch after one request costs what that request traced. Open
    /// spans stay behind in `other` — a scratch tracer is only absorbed
    /// at quiescent points, where a well-formed caller has closed
    /// everything it opened. Called per shard in canonical shard order at
    /// barriers, the merged transcript is a pure function of the shard
    /// schedule, never of thread timing.
    pub fn absorb(&mut self, other: &mut Tracer) {
        for slot in other.dirty.drain(..) {
            let Some((site, log)) = other.logs.get_mut(slot as usize) else {
                continue;
            };
            log.listed = false;
            let first_ord = self.next_ord;
            self.next_ord += log.done.len() as u64;
            let (dst, evicted) = self.touch(*site);
            for (ord, (_, span)) in (first_ord..).zip(log.done.drain(..)) {
                dst.push_completed(ord, span, evicted);
            }
            dst.dropped += std::mem::take(&mut log.dropped);
            dst.malformed += std::mem::take(&mut log.malformed);
        }
        for (phase, hist) in other.evicted.drain(..) {
            phase_entry(&mut self.evicted, phase).merge(&hist);
        }
    }

    /// The current position in this tracer's completion order, for
    /// carving out the spans one operation appended
    /// ([`Tracer::spans_since`]). O(1): every completed span is stamped
    /// with a tracer-wide ordinal and the mark is the next one to be
    /// handed out. A mark is valid until its tracer is next drained by
    /// [`Tracer::absorb`] (as the source); the serving path marks, serves
    /// and renders inside one call.
    pub fn mark(&self) -> TracerMark {
        TracerMark(self.next_ord)
    }

    /// Renders every span completed since `mark`, site-ordered, oldest
    /// first per site. Ordinals increase along each ring, so the suffix
    /// is exact whatever the ring evicted in between, and only the sites
    /// touched since the last drain can hold one. This is how a query's
    /// own span tree is carved out of the shared log for an exemplar slot.
    pub fn spans_since(&self, mark: &TracerMark) -> String {
        let mut touched: Vec<&(Site, TraceLog)> = self
            .dirty
            .iter()
            .filter_map(|&slot| self.logs.get(slot as usize))
            .collect();
        touched.sort_unstable_by_key(|(site, _)| *site);
        let mut out = String::new();
        for (site, log) in touched {
            let start = log.done.partition_point(|&(ord, _)| ord < mark.0);
            for (_, span) in log.done.range(start..) {
                let _ = writeln!(
                    out,
                    "{site} {} {}..{} d={} a={}",
                    span.name, span.start_us, span.end_us, span.depth, span.attr
                );
            }
        }
        out
    }

    /// A byte-stable "flight recorder" dump: the most recent `per_site`
    /// completed spans of every site, key-ordered, oldest-first within a
    /// site. This is what the burn-rate monitor attaches to a fired alert
    /// — a bounded look at what the city was doing when the SLO burned.
    pub fn flight_record(&self, per_site: usize) -> String {
        let mut out = String::new();
        for (site, log) in self.ordered() {
            let skip = log.done.len().saturating_sub(per_site);
            for span in log.completed().skip(skip) {
                let _ = writeln!(
                    out,
                    "{site} {} {}..{} d={} a={}",
                    span.name, span.start_us, span.end_us, span.depth, span.attr
                );
            }
        }
        out
    }

    /// Per-phase duration histograms, name-keyed, over every span kept or
    /// evicted since the last drain — complete at any ring size. This is
    /// where the export's per-phase p50/p99 come from.
    pub fn phase_histograms(&self) -> BTreeMap<&'static str, Histogram> {
        let mut out: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        for &(name, ref hist) in &self.evicted {
            out.entry(name).or_default().merge(hist);
        }
        for (_, log) in self.ordered() {
            for span in log.completed() {
                out.entry(span.name).or_default().record(span.duration());
            }
        }
        out
    }

    /// The byte-stable transcript: every site in key order, a header line
    /// with its ring accounting, then its retained spans oldest-first with
    /// depth rendered as leading dots. Two replicas of a seeded run must
    /// produce identical bytes — `tests/determinism.rs` holds this to the
    /// same oracle as the simulation's flush transcripts.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = String::new();
        for (site, log) in self.ordered() {
            let _ = writeln!(
                out,
                "@{site} kept={} dropped={} open={} malformed={}",
                log.done.len(),
                log.dropped,
                log.open.len(),
                log.malformed,
            );
            for span in log.completed() {
                for _ in 0..span.depth {
                    out.push('.');
                }
                let _ = writeln!(
                    out,
                    "{} {}..{} a={}",
                    span.name, span.start_us, span.end_us, span.attr
                );
            }
        }
        out.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: Site = Site::new("fog1", 0);

    #[test]
    fn spans_nest_and_encode_deterministically() {
        let mut t = Tracer::new();
        let wave = t.open(S, "flush-wave", 1_000);
        let hop = t.open(S, "flush-hop", 1_100);
        assert!(t.close_with(hop, 1_400, 512));
        assert!(t.close_with(wave, 2_000, 1));
        let log = t.log(S).unwrap();
        assert_eq!(log.open_count(), 0);
        assert_eq!(log.malformed(), 0);
        let spans: Vec<_> = log.completed().copied().collect();
        // Children complete before parents; depth marks the nesting.
        assert_eq!(spans[0].name, "flush-hop");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].name, "flush-wave");
        assert_eq!(spans[1].depth, 0);
        let text = String::from_utf8(t.encode()).unwrap();
        assert_eq!(
            text,
            "@fog1/0 kept=2 dropped=0 open=0 malformed=0\n\
             .flush-hop 1100..1400 a=512\n\
             flush-wave 1000..2000 a=1\n"
        );
    }

    #[test]
    fn out_of_order_close_is_malformed_not_reshuffled() {
        let mut t = Tracer::new();
        let outer = t.open(S, "outer", 0);
        let _inner = t.open(S, "inner", 1);
        assert!(!t.close(outer, 2), "outer is not innermost");
        let log = t.log(S).unwrap();
        assert_eq!(log.malformed(), 1);
        assert_eq!(log.completed().count(), 0);
        // The inner span survives and can still close cleanly.
        assert_eq!(log.open_count(), 1);
    }

    #[test]
    fn double_close_is_malformed() {
        let mut t = Tracer::new();
        let a = t.open(S, "a", 0);
        assert!(t.close(a, 5));
        assert!(!t.close(a, 9));
        assert_eq!(t.malformed(), 1);
        assert_eq!(t.span_count(), 1);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut t = Tracer::with_capacity(2);
        for i in 0..5u64 {
            let s = t.open(S, "tick", i * 10);
            t.close(s, i * 10 + 1);
        }
        let log = t.log(S).unwrap();
        assert_eq!(log.dropped, 3);
        let kept: Vec<u64> = log.completed().map(|s| s.start_us).collect();
        assert_eq!(kept, vec![30, 40]);
    }

    #[test]
    fn drops_are_attributed_to_the_evicted_phase() {
        let mut t = Tracer::with_capacity(2);
        // Two "old" spans fill the ring; three "new" ones evict them plus
        // one of their own.
        for _ in 0..2 {
            let s = t.open(S, "old", 0);
            t.close(s, 1);
        }
        for _ in 0..3 {
            let s = t.open(S, "new", 10);
            t.close(s, 11);
        }
        // Each phase's histogram counts its evicted spans with the kept.
        let phases = t.phase_histograms();
        assert_eq!(phases["old"].count(), 2);
        assert_eq!(phases["old"].mean(), Duration::from_micros(1));
        assert_eq!(phases["new"].count(), 3);
        assert_eq!(t.log(S).unwrap().dropped, 3);
        assert_eq!(t.span_count(), 2);
    }

    #[test]
    fn absorb_carries_per_phase_drop_accounting() {
        let mut scratch = Tracer::with_capacity(1);
        for _ in 0..3 {
            let s = scratch.open(S, "shard-work", 0);
            scratch.close(s, 1);
        }
        assert_eq!(scratch.phase_histograms()["shard-work"].count(), 3);
        let mut global = Tracer::new();
        global.absorb(&mut scratch);
        assert_eq!(global.phase_histograms()["shard-work"].count(), 3);
        assert_eq!(global.log(S).unwrap().dropped, 2);
        assert!(scratch.phase_histograms().is_empty());
    }

    #[test]
    fn spans_since_carves_out_one_operation_even_across_eviction() {
        let mut t = Tracer::with_capacity(2);
        let a = t.open(S, "before", 0);
        t.close(a, 1);
        let mark = t.mark();
        // Two new spans: the first evicts "before", the second evicts the
        // first — the suffix since the mark is exactly the survivor plus
        // what eviction math recovers.
        for i in 0..3u64 {
            let s = t.open(S, "after", 100 + i);
            t.close(s, 200 + i);
        }
        let dump = t.spans_since(&mark);
        assert_eq!(
            dump,
            "fog1/0 after 101..201 d=0 a=0\n\
             fog1/0 after 102..202 d=0 a=0\n"
        );
        assert!(!dump.contains("before"));
    }

    #[test]
    fn flight_record_keeps_the_most_recent_spans_per_site() {
        let mut t = Tracer::new();
        for i in 0..4u64 {
            let s = t.open(S, "q", i * 10);
            t.close_with(s, i * 10 + 5, i);
        }
        let dump = t.flight_record(2);
        assert_eq!(
            dump,
            "fog1/0 q 20..25 d=0 a=2\n\
             fog1/0 q 30..35 d=0 a=3\n"
        );
    }

    #[test]
    fn sites_are_isolated_and_key_ordered() {
        let mut t = Tracer::new();
        let b = t.open(Site::new("fog2", 3), "x", 0);
        let a = t.open(Site::new("fog1", 9), "y", 0);
        t.close(b, 1);
        t.close(a, 1);
        let sites: Vec<String> = t.sites().map(|s| s.to_string()).collect();
        assert_eq!(sites, vec!["fog1/9", "fog2/3"]);
    }

    #[test]
    fn clock_going_backwards_clamps_to_zero_length() {
        let mut t = Tracer::new();
        let s = t.open(S, "odd", 100);
        t.close(s, 50);
        let span = *t.log(S).unwrap().completed().next().unwrap();
        assert_eq!(span.end_us, 100);
        assert_eq!(span.duration(), Duration::ZERO);
    }

    #[test]
    fn phase_histograms_pool_across_sites() {
        let mut t = Tracer::new();
        for (site, us) in [(Site::new("fog1", 0), 100), (Site::new("fog1", 1), 300)] {
            let s = t.open(site, "flush-hop", 0);
            t.close(s, us);
        }
        let phases = t.phase_histograms();
        let h = &phases["flush-hop"];
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), Duration::from_micros(200));
    }

    #[test]
    fn absorbing_the_same_scratch_twice_moves_nothing_the_second_time() {
        let mut scratch = Tracer::with_capacity(2);
        for i in 0..3u64 {
            let s = scratch.open(S, "shard-work", i);
            scratch.close(s, i + 1);
        }
        let stale = scratch.open(S, "never-closed", 9);
        scratch.close(stale, 10);
        scratch.close(stale, 11);
        let mut city = Tracer::new();
        city.absorb(&mut scratch);
        let once = city.encode();
        city.absorb(&mut scratch);
        assert_eq!(city.encode(), once);
        assert_eq!(scratch.span_count(), 0);
        assert_eq!(scratch.malformed(), 0);
    }

    #[test]
    fn a_destination_clean_before_an_absorb_is_absorbed_onward() {
        let idle = Site::new("fog2", 1);
        let mut scratch = Tracer::new();
        let mut shard = Tracer::new();
        let mut city = Tracer::new();
        // Round one creates the shard's and the city's logs; round two
        // finds them clean and must still carry the span all the way up.
        for round in 0..2u64 {
            let s = scratch.open(S, "query", round * 10);
            scratch.close_with(s, round * 10 + 5, round);
            if round == 0 {
                // A site that only ever opens still gets its header line.
                let _ = scratch.open(idle, "stuck", 0);
            }
            shard.absorb(&mut scratch);
            assert_eq!(city.span_count(), round as usize);
            city.absorb(&mut shard);
            assert_eq!(shard.span_count(), 0);
        }
        assert_eq!(
            String::from_utf8(city.encode()).unwrap(),
            "@fog1/0 kept=2 dropped=0 open=0 malformed=0\n\
             query 0..5 a=0\n\
             query 10..15 a=1\n\
             @fog2/1 kept=0 dropped=0 open=0 malformed=0\n"
        );
    }

    #[test]
    fn a_mark_on_a_destination_is_exact_across_an_absorb_that_carries_drops() {
        // The snapshot mark subtracted the *source's* evictions from the
        // destination's position and rendered spans older than the mark;
        // ordinals do not care whose ring dropped what.
        let mut scratch = Tracer::with_capacity(1);
        for i in 0..3u64 {
            let s = scratch.open(S, "shard-work", i);
            scratch.close(s, i + 1);
        }
        let mut city = Tracer::new();
        let before = city.open(S, "before", 0);
        city.close(before, 1);
        let mark = city.mark();
        city.absorb(&mut scratch);
        assert_eq!(city.spans_since(&mark), "fog1/0 shard-work 2..3 d=0 a=0\n");
        let mark = city.mark();
        let after = city.open(S, "after", 5);
        city.close(after, 6);
        assert_eq!(city.spans_since(&mark), "fog1/0 after 5..6 d=0 a=0\n");
    }

    #[test]
    fn a_site_past_the_dense_bound_takes_the_ordered_map_not_a_table() {
        let mut t = Tracer::new();
        let far = Site::new("fog1", u32::MAX);
        let edge = Site::new("fog1", DENSE_LIMIT);
        let odd = Site::new("edge", 7);
        for (i, site) in [far, S, edge, odd, Site::cloud()].into_iter().enumerate() {
            let s = t.open(site, "q", i as u64);
            assert!(t.close(s, i as u64 + 1));
        }
        // Only the in-bound city sites sized a table, and only to their index.
        assert_eq!(t.dense.iter().map(Vec::len).collect::<Vec<_>>(), [1, 1, 0]);
        for site in [far, edge, odd] {
            assert_eq!(t.log(site).unwrap().completed().count(), 1);
        }
        assert_eq!(t.log(Site::new("fog1", DENSE_LIMIT + 1)).map(|_| ()), None);
        assert_eq!(t.log(Site::new("fog2", 0)).map(|_| ()), None);
        let sites: Vec<String> = t.sites().map(|s| s.to_string()).collect();
        assert_eq!(
            sites,
            [
                "cloud/0",
                "edge/7",
                "fog1/0",
                "fog1/1024",
                "fog1/4294967295"
            ]
        );
    }

    #[test]
    fn a_token_from_a_tracer_that_knows_more_sites_closes_nowhere() {
        let mut knows = Tracer::new();
        let token = knows.open(Site::new("fog2", 3), "q", 0);
        let mut other = Tracer::new();
        assert!(!other.close(token, 1));
        assert_eq!(other.malformed(), 0, "no log, nothing to count against");
        assert_eq!(other.sites().count(), 0);
    }

    #[test]
    fn per_phase_drops_keep_one_entry_per_name_whatever_the_pointer() {
        // Two equal names at different addresses must share an entry.
        let a: &'static str = "tick";
        let b: &'static str = String::from("tick").leak();
        assert!(!std::ptr::eq(a, b));
        let mut t = Tracer::with_capacity(1);
        for name in [a, b, a, b] {
            let s = t.open(S, name, 0);
            t.close(s, 1);
        }
        assert_eq!(t.evicted.len(), 1);
        assert_eq!(t.evicted[0].1.count(), 3);
        let phases = t.phase_histograms();
        assert_eq!(
            phases
                .iter()
                .map(|(n, h)| (*n, h.count()))
                .collect::<Vec<_>>(),
            [("tick", 4)]
        );
    }

    /// The tracer as it was before completion ordinals and the dirty
    /// list, kept as the reference model: `mark` snapshots every log,
    /// `absorb` walks every log, `spans_since` recovers each suffix from
    /// `(len, dropped)` arithmetic, and every completed span is also kept
    /// in one unbounded list that the phase histograms are built from.
    /// Tokens are shared with the real tracer — both number a site's
    /// opens from 0.
    mod model {
        use super::*;

        #[derive(Default)]
        struct Log {
            done: VecDeque<Span>,
            open: Vec<OpenSpan>,
            next_seq: u64,
            dropped: u64,
            malformed: u64,
        }

        pub(crate) struct Mark {
            per_site: BTreeMap<Site, (usize, u64)>,
        }

        pub(crate) struct Tracer {
            capacity: usize,
            logs: BTreeMap<Site, Log>,
            /// Every span completed or absorbed since the last drain,
            /// never evicted.
            all: Vec<Span>,
        }

        impl Log {
            fn push_completed(&mut self, capacity: usize, span: Span) {
                if self.done.len() == capacity {
                    self.done.pop_front();
                    self.dropped += 1;
                }
                self.done.push_back(span);
            }
        }

        impl Tracer {
            pub(crate) fn with_capacity(capacity: usize) -> Self {
                Self {
                    capacity,
                    logs: BTreeMap::new(),
                    all: Vec::new(),
                }
            }

            pub(crate) fn open(&mut self, site: Site, name: &'static str, at_us: u64) {
                let log = self.logs.entry(site).or_default();
                log.open.push(OpenSpan {
                    seq: log.next_seq,
                    name,
                    start_us: at_us,
                    depth: log.open.len() as u16,
                });
                log.next_seq += 1;
            }

            pub(crate) fn close_with(&mut self, token: SpanToken, at_us: u64, attr: u64) -> bool {
                let Some(log) = self.logs.get_mut(&token.site) else {
                    return false;
                };
                match log.open.last() {
                    Some(top) if top.seq == token.seq => {
                        let top = log.open.pop().unwrap();
                        let span = Span {
                            name: top.name,
                            start_us: top.start_us,
                            end_us: at_us.max(top.start_us),
                            depth: top.depth,
                            attr,
                        };
                        log.push_completed(self.capacity, span);
                        self.all.push(span);
                        true
                    }
                    _ => {
                        log.open.retain(|o| o.seq != token.seq);
                        log.malformed += 1;
                        false
                    }
                }
            }

            pub(crate) fn absorb(&mut self, other: &mut Tracer) {
                for (site, log) in &mut other.logs {
                    let dst = self.logs.entry(*site).or_default();
                    while let Some(span) = log.done.pop_front() {
                        dst.push_completed(self.capacity, span);
                    }
                    dst.dropped += std::mem::take(&mut log.dropped);
                    dst.malformed += std::mem::take(&mut log.malformed);
                }
                self.all.append(&mut other.all);
            }

            pub(crate) fn mark(&self) -> Mark {
                Mark {
                    per_site: self
                        .logs
                        .iter()
                        .map(|(site, log)| (*site, (log.done.len(), log.dropped)))
                        .collect(),
                }
            }

            pub(crate) fn spans_since(&self, mark: &Mark) -> String {
                let mut out = String::new();
                for (site, log) in &self.logs {
                    let (mark_len, mark_dropped) =
                        mark.per_site.get(site).copied().unwrap_or((0, 0));
                    let evicted_since = (log.dropped - mark_dropped) as usize;
                    let start = mark_len.saturating_sub(evicted_since);
                    for span in log.done.iter().skip(start) {
                        let _ = writeln!(
                            out,
                            "{site} {} {}..{} d={} a={}",
                            span.name, span.start_us, span.end_us, span.depth, span.attr
                        );
                    }
                }
                out
            }

            pub(crate) fn span_count(&self) -> usize {
                self.logs.values().map(|l| l.done.len()).sum()
            }

            pub(crate) fn malformed(&self) -> u64 {
                self.logs.values().map(|l| l.malformed).sum()
            }

            pub(crate) fn sites(&self) -> impl Iterator<Item = Site> + '_ {
                self.logs.keys().copied()
            }

            pub(crate) fn flight_record(&self, per_site: usize) -> String {
                let mut out = String::new();
                for (site, log) in &self.logs {
                    let skip = log.done.len().saturating_sub(per_site);
                    for span in log.done.iter().skip(skip) {
                        let _ = writeln!(
                            out,
                            "{site} {} {}..{} d={} a={}",
                            span.name, span.start_us, span.end_us, span.depth, span.attr
                        );
                    }
                }
                out
            }

            /// Ring evictions since this tracer was last drained.
            pub(crate) fn dropped(&self) -> u64 {
                self.logs.values().map(|l| l.dropped).sum()
            }

            pub(crate) fn phase_histograms(&self) -> BTreeMap<&'static str, Histogram> {
                let mut out: BTreeMap<&'static str, Histogram> = BTreeMap::new();
                for span in &self.all {
                    out.entry(span.name).or_default().record(span.duration());
                }
                out
            }

            pub(crate) fn encode(&self) -> Vec<u8> {
                let mut out = String::new();
                for (site, log) in &self.logs {
                    let _ = writeln!(
                        out,
                        "@{site} kept={} dropped={} open={} malformed={}",
                        log.done.len(),
                        log.dropped,
                        log.open.len(),
                        log.malformed,
                    );
                    for span in &log.done {
                        out.push_str(&".".repeat(span.depth as usize));
                        let _ = writeln!(
                            out,
                            "{} {}..{} a={}",
                            span.name, span.start_us, span.end_us, span.attr
                        );
                    }
                }
                out.into_bytes()
            }
        }
    }

    /// Sites on every lookup path: each dense tier (dense, sparse and
    /// last-under-the-bound indices), indices at and far past the bound
    /// (ordered map), and two tiers the tables do not know — one sorting
    /// before `cloud`, one between `fog1` and `fog2`. The last site only
    /// ever opens.
    const SITES: [Site; 12] = [
        Site::new("fog1", 0),
        Site::new("fog1", 1),
        Site::new("fog1", 72),
        Site::new("fog1", DENSE_LIMIT - 1),
        Site::new("fog1", DENSE_LIMIT),
        Site::new("fog1", u32::MAX),
        Site::new("fog2", 9),
        Site::new("fog2", u32::MAX),
        Site::cloud(),
        Site::new("fog1x", 3),
        Site::new("branch", 0),
        Site::new("fog2", 0),
    ];
    const OPEN_ONLY: usize = 11;
    const NAMES: [&str; 3] = ["query", "flush-hop", "heal-round"];

    /// The real tracer and the model side by side, fed the same calls.
    struct Pair {
        real: Tracer,
        model: model::Tracer,
        /// Tokens still open, per site, innermost last.
        open: [Vec<SpanToken>; SITES.len()],
        /// The token closed last (for double closes).
        closed: Option<SpanToken>,
        /// The marks still valid, as each side took them.
        marks: Vec<(TracerMark, model::Mark)>,
    }

    impl Pair {
        fn with_capacity(capacity: usize) -> Self {
            Self {
                real: Tracer::with_capacity(capacity),
                model: model::Tracer::with_capacity(capacity),
                open: Default::default(),
                closed: None,
                marks: Vec::new(),
            }
        }

        fn open(&mut self, site: usize, name: &'static str, at_us: u64) {
            self.open[site].push(self.real.open(SITES[site], name, at_us));
            self.model.open(SITES[site], name, at_us);
        }

        fn close(&mut self, token: SpanToken, at_us: u64) {
            let ok = self.real.close_with(token, at_us, at_us);
            assert_eq!(ok, self.model.close_with(token, at_us, at_us));
            self.closed = Some(token);
        }

        /// Drains `other` into `self`. That ends `other`'s marks; it
        /// ends `self`'s too if `other` carries ring drops, because the
        /// model books the source's evictions against the destination's
        /// positions (`a_mark_on_a_destination_is_exact_…` pins the
        /// real tracer there).
        fn absorb(&mut self, other: &mut Pair) {
            if other.model.dropped() > 0 {
                self.marks.clear();
            }
            other.marks.clear();
            self.real.absorb(&mut other.real);
            self.model.absorb(&mut other.model);
        }

        fn agree(&self) -> Result<(), proptest::test_runner::TestCaseError> {
            use proptest::prelude::*;
            prop_assert_eq!(
                String::from_utf8(self.real.encode()),
                String::from_utf8(self.model.encode())
            );
            // Complete at any ring size: every span ever completed here.
            prop_assert_eq!(self.real.phase_histograms(), self.model.phase_histograms());
            prop_assert_eq!(
                self.real.sites().collect::<Vec<_>>(),
                self.model.sites().collect::<Vec<_>>()
            );
            prop_assert_eq!(self.real.flight_record(2), self.model.flight_record(2));
            prop_assert_eq!(self.real.malformed(), self.model.malformed());
            prop_assert_eq!(self.real.span_count(), self.model.span_count());
            for (real, model) in &self.marks {
                prop_assert_eq!(self.real.spans_since(real), self.model.spans_since(model));
            }
            Ok(())
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(192))]

        /// One step is `(kind, tracer, site, name)`: open, close the
        /// innermost, close the outermost of two (out of order), close
        /// the last-closed token again, mark, or drain the scratch into
        /// the city.
        #[test]
        fn ordinal_tracer_equals_the_snapshot_model(
            scratch_cap in 1usize..=4,
            city_cap in 1usize..=4,
            ops in proptest::collection::vec((0u8..14, 0u8..2, 0usize..SITES.len(), 0usize..3), 1..160),
        ) {
            let mut scratch = Pair::with_capacity(scratch_cap);
            let mut city = Pair::with_capacity(city_cap);
            for (step, &(kind, on_city, site, name)) in ops.iter().enumerate() {
                let at_us = step as u64;
                let pair = if on_city == 1 { &mut city } else { &mut scratch };
                match kind {
                    0..=4 => pair.open(site, NAMES[name], at_us),
                    5..=8 if site != OPEN_ONLY => {
                        if let Some(token) = pair.open[site].pop() {
                            pair.close(token, at_us);
                        }
                    }
                    9 if site != OPEN_ONLY && pair.open[site].len() >= 2 => {
                        let token = pair.open[site].remove(0);
                        pair.close(token, at_us);
                    }
                    10 => {
                        if let Some(token) = pair.closed {
                            pair.close(token, at_us);
                        }
                    }
                    11 => pair.marks.push((pair.real.mark(), pair.model.mark())),
                    12 | 13 => city.absorb(&mut scratch),
                    _ => {}
                }
                scratch.agree()?;
                city.agree()?;
            }
        }
    }
}
