//! Trace exemplars: one concrete span tree per latency bucket.
//!
//! A histogram's p99 says *how slow*; an exemplar says *what the slow one
//! did*. [`ExemplarStore`] mirrors the [`citysim::Histogram`] bucket
//! layout slot-for-slot and keeps, per bucket, the slowest query that
//! landed there together with its rendered span tree — so the tail
//! bucket's exemplar is a plan→admit→execute→leg breakdown, not a number.
//!
//! The combine rule is keep-max latency, ties broken on the query's
//! explain-reservoir hash (smallest wins) and then on trace bytes
//! (smallest wins). It is a total order, so it is associative and
//! commutative: per-shard stores absorbed at barriers in canonical shard
//! order export the same bytes at any thread count, same discipline as
//! the rest of the observability plane.

use std::cmp::Reverse;

use citysim::metrics::{bucket_index, bucket_upper_micros, NUM_BUCKETS};

use crate::json::Json;

/// One retained exemplar: the slowest observation in its bucket.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// The observation's latency, microseconds.
    pub latency_us: u64,
    /// The query's explain-reservoir key: the first latency tie-break.
    pub hash: u64,
    /// Rendered span tree of the exemplar query, byte-stable.
    pub trace: String,
}

/// Per-bucket exemplar slots mirroring the histogram layout. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct ExemplarStore {
    slots: Vec<Option<Exemplar>>,
    /// Bit `i` set ⇔ `slots[i]` is occupied, so a drain visits what is
    /// held rather than every bucket.
    occupied: u64,
    seen: u64,
}

// One mask bit per bucket.
const _: () = assert!(NUM_BUCKETS <= u64::BITS as usize);

impl ExemplarStore {
    /// An empty store, one slot per histogram bucket.
    pub fn new() -> Self {
        Self {
            slots: vec![None; NUM_BUCKETS],
            occupied: 0,
            seen: 0,
        }
    }

    /// Whether an observation at `latency_us` with query hash `hash`
    /// would displace (or fill) its bucket's slot. Callers use this to
    /// skip rendering the span tree for the overwhelming majority of
    /// queries that are not their bucket's slowest.
    ///
    /// An observation made into a scratch store must clear the gate of
    /// the store it will be [`absorb`](Self::absorb)ed into as well: a
    /// scratch drained after every observation is always empty and admits
    /// everything.
    ///
    /// Exact except on a full tie: equal latency and equal hash answer
    /// `true`, because the last tie-break is on trace bytes, which only
    /// exist after rendering.
    pub fn would_admit(&self, latency_us: u64, hash: u64) -> bool {
        match &self.slots[bucket_index(latency_us)] {
            None => true,
            Some(e) => (Reverse(latency_us), hash) <= (Reverse(e.latency_us), e.hash),
        }
    }

    /// Counts one observation. `trace` carries the caller's gate
    /// decision: the rendered span tree, or `None` when
    /// [`Self::would_admit`] already ruled it out and nothing was
    /// rendered — counted, not built. A rendered observation is retained
    /// if it is its bucket's slowest (keep-max latency; on ties, smallest
    /// hash, then smallest trace bytes).
    pub fn observe(&mut self, latency_us: u64, hash: u64, trace: Option<String>) {
        self.seen += 1;
        if let Some(trace) = trace {
            self.observe_rendered(Exemplar {
                latency_us,
                hash,
                trace,
            });
        }
    }

    fn observe_rendered(&mut self, offered: Exemplar) {
        let slot = bucket_index(offered.latency_us);
        let rank = |e: &Exemplar| (Reverse(e.latency_us), e.hash);
        if self.slots[slot]
            .as_ref()
            .is_none_or(|kept| (rank(&offered), &offered.trace) < (rank(kept), &kept.trace))
        {
            self.slots[slot] = Some(offered);
            self.occupied |= 1 << slot;
        }
    }

    /// Observations offered so far (retained or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Buckets currently holding an exemplar.
    pub fn kept(&self) -> usize {
        self.occupied.count_ones() as usize
    }

    /// The exemplar of the bucket that `latency_us` falls in, if any.
    pub fn exemplar_for(&self, latency_us: u64) -> Option<&Exemplar> {
        self.slots[bucket_index(latency_us)].as_ref()
    }

    /// Drains `other` into `self` under the keep-max rule; seen counts
    /// add. Bucket layouts are identical by construction.
    pub fn absorb(&mut self, other: &mut ExemplarStore) {
        self.seen += std::mem::take(&mut other.seen);
        let mut held = std::mem::take(&mut other.occupied);
        while held != 0 {
            let slot = held.trailing_zeros() as usize;
            held &= held - 1;
            if let Some(e) = other.slots.get_mut(slot).and_then(Option::take) {
                self.observe_rendered(e);
            }
        }
    }

    /// The retained exemplars as a Json export: bucket-ordered entries of
    /// `{bucket, upper_us, latency_us, trace}` plus the accounting.
    pub fn export(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("seen", Json::Num(self.seen as f64));
        doc.set("kept", Json::Num(self.kept() as f64));
        let mut buckets = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(e) = slot else { continue };
            let mut entry = Json::obj();
            entry.set("bucket", Json::Num(i as f64));
            entry.set("upper_us", Json::Num(bucket_upper_micros(i) as f64));
            entry.set("latency_us", Json::Num(e.latency_us as f64));
            entry.set("trace", Json::Str(e.trace.clone()));
            buckets.push(entry);
        }
        doc.set("buckets", Json::Arr(buckets));
        doc
    }
}

impl Default for ExemplarStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_slowest_per_bucket() {
        let mut s = ExemplarStore::new();
        // 1100 and 1400 share the [1024, 1536) bucket; 100 lives elsewhere.
        s.observe(1_100, 0, Some("fast".to_string()));
        s.observe(1_400, 9, Some("slow".to_string()));
        s.observe(100, 1, Some("other".to_string()));
        assert_eq!(s.seen(), 3);
        assert_eq!(s.kept(), 2);
        assert_eq!(s.exemplar_for(1_100).unwrap().trace, "slow");
        assert_eq!(s.exemplar_for(100).unwrap().trace, "other");
    }

    #[test]
    fn would_admit_gates_rendering() {
        let mut s = ExemplarStore::new();
        s.observe(1_400, 7, Some("slowest".to_string()));
        assert!(!s.would_admit(1_100, 0), "faster loses whatever its hash");
        assert!(
            s.would_admit(1_500, u64::MAX),
            "slower wins whatever its hash"
        );
        assert!(!s.would_admit(1_400, 8), "equal latency, bigger hash loses");
        assert!(s.would_admit(1_400, 6), "equal latency, smaller hash wins");
        assert!(
            s.would_admit(1_400, 7),
            "a full tie must render to tie-break on trace bytes"
        );
        s.observe(1_100, 0, None);
        assert_eq!(s.seen(), 2, "a skipped observation is still counted");
        assert_eq!(s.kept(), 1);
        assert_eq!(s.exemplar_for(1_400).unwrap().trace, "slowest");
    }

    #[test]
    fn a_gate_on_scratch_and_destination_exports_what_no_gate_exports() {
        // Same discipline as the explain reservoir: a scratch drained
        // into the destination after every observation gates nothing by
        // itself; gating on both skips losers and exports the same bytes.
        let obs: [(u64, u64, &str); 7] = [
            (1_100, 5, "a"),
            (1_400, 5, "c"),
            (1_200, 1, "d"),
            (1_400, 9, "b"),
            (1_400, 5, "a"),
            (30, 2, "e"),
            (20, 3, "f"),
        ];
        let mut ungated = ExemplarStore::new();
        let mut city = ExemplarStore::new();
        let mut scratch = ExemplarStore::new();
        let mut rendered = Vec::new();
        for (us, hash, t) in obs {
            ungated.observe(us, hash, Some(t.to_string()));
            assert!(
                scratch.would_admit(us, hash),
                "a drained scratch gates nothing"
            );
            let admit = city.would_admit(us, hash);
            rendered.push(admit);
            scratch.observe(us, hash, admit.then(|| t.to_string()));
            city.absorb(&mut scratch);
        }
        assert_eq!(city.export().to_pretty(), ungated.export().to_pretty());
        assert_eq!(city.seen(), obs.len() as u64);
        assert!(!rendered[2], "a faster query is skipped");
        assert!(!rendered[3], "a latency tie with a bigger hash is skipped");
        assert!(rendered[4], "a full tie renders");
        let kept = city.exemplar_for(1_400).unwrap();
        assert_eq!((kept.hash, kept.trace.as_str()), (5, "a"));
    }

    #[test]
    fn absorb_is_order_insensitive() {
        let obs: [(u64, u64, &str); 5] = [
            (900, 1, "a"),
            (1_400, 4, "b"),
            (1_400, 3, "c"),
            (1_400, 3, "e"),
            (30, 0, "d"),
        ];
        let mut whole = ExemplarStore::new();
        for (us, hash, t) in obs {
            whole.observe(us, hash, Some(t.to_string()));
        }
        assert_eq!(whole.exemplar_for(1_400).unwrap().trace, "c");
        for split_at in 0..obs.len() {
            let mut left = ExemplarStore::new();
            let mut right = ExemplarStore::new();
            for (i, (us, hash, t)) in obs.iter().enumerate() {
                let dst = if i < split_at { &mut left } else { &mut right };
                dst.observe(*us, *hash, Some(t.to_string()));
            }
            let mut merged = ExemplarStore::new();
            merged.absorb(&mut right);
            merged.absorb(&mut left);
            assert_eq!(merged.export().to_pretty(), whole.export().to_pretty());
            assert_eq!(left.seen(), 0, "absorb drains the source");
            assert_eq!(left.kept(), 0);
            assert_eq!(merged.kept(), whole.kept());
        }
    }

    #[test]
    fn a_drained_store_fills_and_drains_again() {
        // The occupancy mask must track the slots across drains, or a
        // second round's exemplars would be stranded in the scratch.
        let mut city = ExemplarStore::new();
        let mut scratch = ExemplarStore::new();
        for (round, us) in [(0, 100), (1, 100_000), (2, u64::MAX)] {
            scratch.observe(us, round, Some(format!("round {round}")));
            assert_eq!(scratch.kept(), 1);
            city.absorb(&mut scratch);
            assert_eq!(scratch.kept(), 0);
            assert!(scratch.exemplar_for(us).is_none());
            assert_eq!(
                city.exemplar_for(us).unwrap().trace,
                format!("round {round}")
            );
        }
        assert_eq!(city.kept(), 3);
        assert_eq!(city.seen(), 3);
    }
}
