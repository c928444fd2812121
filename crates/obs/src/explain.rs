//! Deterministic reservoir retention for planner EXPLAIN transcripts.
//!
//! The planner can explain every query, but a million-query run cannot
//! keep a million transcripts. [`ExplainStore`] keeps a fixed number of
//! slots and retains, per slot, the record whose *key hash* is smallest —
//! a reservoir-by-key sample. Unlike a classic reservoir (which needs a
//! random stream and so depends on visit order), min-hash retention is a
//! pure function of the *set* of offered keys: the combine rule
//! (keep-min per slot) is associative and commutative, so per-shard
//! stores drained into the city store at barriers in canonical shard
//! order yield byte-identical exports at any thread count.
//!
//! Records are [`Json`] values — the store is generic over what an
//! explain says; the query crate decides the schema.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::json::Json;

/// One retained explain record.
#[derive(Debug, Clone)]
struct Kept {
    hash: u64,
    /// Pre-rendered record bytes; also the tie-breaker on hash collision.
    text: String,
}

/// A fixed-slot, min-hash reservoir of [`Json`] explain records. See the
/// module docs for why this sampling scheme is deterministic.
#[derive(Debug, Clone)]
pub struct ExplainStore {
    slots: Vec<Option<Kept>>,
    /// Occupied slots, so draining an empty store visits none.
    kept: usize,
    seen: u64,
}

impl ExplainStore {
    /// Default slot count: enough route diversity to read, small enough
    /// to commit in a bench artifact.
    pub const DEFAULT_SLOTS: usize = 24;

    /// A store with the default slot count.
    pub fn new() -> Self {
        Self::with_slots(Self::DEFAULT_SLOTS)
    }

    /// A store with `slots` reservoir slots.
    pub(crate) fn with_slots(slots: usize) -> Self {
        Self {
            slots: vec![None; slots.max(1)],
            kept: 0,
            seen: 0,
        }
    }

    /// Whether a record with this key hash would displace (or fill) its
    /// slot. Callers use this to skip building the (comparatively
    /// expensive) explain transcript for queries that would lose anyway —
    /// the common case is one modulo and one compare per query.
    ///
    /// A record offered to a scratch store must clear the gate of the
    /// store it will be [`absorb`](Self::absorb)ed into as well: a scratch
    /// drained after every offer is always empty and admits everything.
    ///
    /// Equal hashes answer `true`: the tie is broken on record bytes,
    /// which only exist after building.
    pub fn would_admit(&self, hash: u64) -> bool {
        match &self.slots[(hash % self.slots.len() as u64) as usize] {
            None => true,
            Some(kept) => hash <= kept.hash,
        }
    }

    /// Counts one offered record. `record` carries the caller's gate
    /// decision: the built transcript, or `None` when [`Self::would_admit`]
    /// already ruled it out and nothing was built — counted, not built.
    /// A built record is retained if it wins its slot (smallest hash; on
    /// equal hash, smallest record bytes — both order-insensitive).
    pub fn offer(&mut self, hash: u64, record: Option<Json>) {
        self.seen += 1;
        if let Some(record) = record {
            self.offer_rendered(hash, record.to_pretty());
        }
    }

    fn offer_rendered(&mut self, hash: u64, text: String) {
        let slot = (hash % self.slots.len() as u64) as usize;
        let admit = match &self.slots[slot] {
            None => {
                self.kept += 1;
                true
            }
            Some(kept) => (hash, text.as_str()) < (kept.hash, kept.text.as_str()),
        };
        if admit {
            self.slots[slot] = Some(Kept { hash, text });
        }
    }

    /// Records offered so far (admitted or not).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Slots currently holding a record.
    pub fn kept(&self) -> usize {
        self.kept
    }

    /// Drains `other` into `self`: seen counts add, every retained record
    /// is re-offered under the keep-min rule. Both stores must have the
    /// same slot count (they are built from the same constructor in
    /// practice); records land in the same slot they came from.
    ///
    /// # Panics
    ///
    /// Panics if the slot counts differ.
    pub fn absorb(&mut self, other: &mut ExplainStore) {
        assert_eq!(
            self.slots.len(),
            other.slots.len(),
            "explain stores with different slot counts cannot merge"
        );
        self.seen += std::mem::take(&mut other.seen);
        if std::mem::take(&mut other.kept) == 0 {
            return;
        }
        for slot in &mut other.slots {
            if let Some(kept) = slot.take() {
                self.offer_rendered(kept.hash, kept.text);
            }
        }
    }

    /// The retained records as a Json export: slot-ordered, with the
    /// reservoir accounting. Byte-stable for a given retained set. A
    /// record is kept as the text [`Json::to_pretty`] rendered, which
    /// parses back; were one ever not to, it is exported as that text.
    pub fn export(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("seen", Json::Num(self.seen as f64));
        doc.set("kept", Json::Num(self.kept() as f64));
        let mut records = Vec::new();
        for kept in self.slots.iter().flatten() {
            records.push(Json::parse(&kept.text).unwrap_or_else(|_| Json::Str(kept.text.clone())));
        }
        doc.set("records", Json::Arr(records));
        doc
    }
}

impl Default for ExplainStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tag: &str) -> Json {
        let mut j = Json::obj();
        j.set("route", Json::Str(tag.to_string()));
        j
    }

    #[test]
    fn keeps_the_min_hash_record_per_slot() {
        let mut s = ExplainStore::with_slots(4);
        s.offer(8, Some(record("first"))); // slot 0
        s.offer(4, Some(record("smaller"))); // slot 0, wins
        s.offer(12, Some(record("larger"))); // slot 0, loses
        assert_eq!(s.seen(), 3);
        assert_eq!(s.kept(), 1);
        let out = s.export();
        assert_eq!(out.get("seen").unwrap().as_u64(), Some(3));
        let Json::Arr(records) = out.get("records").unwrap() else {
            panic!("records must be an array");
        };
        assert_eq!(records[0].get("route").unwrap().as_str(), Some("smaller"));
    }

    #[test]
    fn would_admit_gates_building() {
        let mut s = ExplainStore::with_slots(2);
        s.offer(2, Some(record("keep")));
        assert!(!s.would_admit(6), "bigger hash in an occupied slot loses");
        assert!(s.would_admit(2), "equal hash must build to tie-break");
        assert!(s.would_admit(1));
        s.offer(6, None);
        assert_eq!(s.seen(), 2, "a skipped record is still counted");
        assert_eq!(s.kept(), 1);
    }

    #[test]
    fn a_gate_on_scratch_and_destination_exports_what_no_gate_exports() {
        // The engine's discipline: offer into a scratch that is drained
        // into the destination after every offer. Gating on the scratch
        // alone is vacuous (it is always empty); gating on both must
        // still export exactly what building every record exports.
        let offers: [(u64, &str); 7] = [
            (9, "a"),
            (3, "b"),
            (7, "c"),
            (3, "a"),
            (5, "d"),
            (1, "e"),
            (11, "f"),
        ];
        let mut ungated = ExplainStore::with_slots(2);
        let mut city = ExplainStore::with_slots(2);
        let mut scratch = ExplainStore::with_slots(2);
        let mut built = 0;
        for (h, t) in offers {
            ungated.offer(h, Some(record(t)));
            assert!(scratch.would_admit(h), "a drained scratch gates nothing");
            let admit = city.would_admit(h);
            built += usize::from(admit);
            scratch.offer(h, admit.then(|| record(t)));
            city.absorb(&mut scratch);
        }
        assert_eq!(city.export().to_pretty(), ungated.export().to_pretty());
        assert_eq!(city.seen(), offers.len() as u64);
        assert!(built < offers.len(), "the destination gate skipped losers");
    }

    #[test]
    fn absorb_is_order_insensitive() {
        let offers: [(u64, &str); 4] = [(9, "a"), (3, "b"), (7, "c"), (5, "d")];
        // One store sees everything; two shard stores split the offers and
        // merge in either order. All three exports must agree.
        let mut whole = ExplainStore::with_slots(2);
        for (h, t) in offers {
            whole.offer(h, Some(record(t)));
        }
        for split_at in 0..offers.len() {
            let mut left = ExplainStore::with_slots(2);
            let mut right = ExplainStore::with_slots(2);
            for (i, (h, t)) in offers.iter().enumerate() {
                let dst = if i < split_at { &mut left } else { &mut right };
                dst.offer(*h, Some(record(t)));
            }
            let mut merged = ExplainStore::with_slots(2);
            merged.absorb(&mut right);
            merged.absorb(&mut left);
            assert_eq!(merged.export().to_pretty(), whole.export().to_pretty());
            assert_eq!(left.seen(), 0, "absorb drains the source");
            assert_eq!(left.kept(), 0);
        }
    }

    #[test]
    fn equal_hashes_tie_break_on_bytes() {
        let mut a = ExplainStore::with_slots(1);
        a.offer(5, Some(record("zz")));
        a.offer(5, Some(record("aa")));
        let mut b = ExplainStore::with_slots(1);
        b.offer(5, Some(record("aa")));
        b.offer(5, Some(record("zz")));
        assert_eq!(a.export().to_pretty(), b.export().to_pretty());
    }
}
