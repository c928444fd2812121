//! Deterministic failure injection: link outage windows, packet loss,
//! fog-node crash/recover windows and flush-shipment faults.
//!
//! The paper argues F2C "enhances fault tolerance" because shorter paths
//! cross fewer failure domains (§IV.D). The failure-injection experiments
//! quantify that: with the same per-link loss/outage model, fog-local
//! accesses survive outages that break edge-to-cloud paths.
//!
//! Every probabilistic draw is a **keyed hash coin**, not a shared RNG
//! stream: the verdict for a message is a pure function of
//! `(seed, link, per-link sequence)` — and for a flush shipment of
//! `(seed, sender, flush epoch)` — so reordering unrelated sends (a
//! future sharded runtime, replay from a different entry point) never
//! changes which messages drop. Replays are bit-identical per seed.
//!
//! A [`LinkId`] is a dense index a topology hands out, so everything kept
//! per link — outage windows, loss probability, coin sequence — is a `Vec`
//! indexed by it, grown on first write. A [`NodeId`] can be forged
//! (`NodeId::from_raw`), so node crash windows stay a map.

use std::collections::HashMap;

use super::{entry, LinkId, NodeId};
use crate::time::SimTime;

/// A scheduled outage window `[from, until)` on one link or node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outage {
    from: SimTime,
    until: SimTime,
}

fn in_any(windows: Option<&Vec<Outage>>, at: SimTime) -> bool {
    windows.is_some_and(|ws| ws.iter().any(|w| at >= w.from && at < w.until))
}

/// splitmix64 finalizer: a few cheap rounds that spread every input bit
/// across the output, so consecutive sequence numbers yield independent
/// coins.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Keyed hash over `(seed, domain, a, b)`. Each fault family uses its
/// own `domain` constant so a link coin and a shipment coin with equal
/// operands stay independent.
fn keyed(seed: u64, domain: u64, a: u64, b: u64) -> u64 {
    mix(mix(mix(seed ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ a) ^ b)
}

/// Converts a hash to a Bernoulli draw with success probability `p`.
fn coin(h: u64, p: f64) -> bool {
    // 53 uniform mantissa bits — the standard open-interval construction.
    ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
}

const DOMAIN_LINK_LOSS: u64 = 0x11;
const DOMAIN_SHIP_LOSS: u64 = 0x22;
const DOMAIN_SHIP_CORRUPT: u64 = 0x33;
const DOMAIN_PAYLOAD_CORRUPT: u64 = 0x44;

/// Failure plan: per-link outages and message loss, per-node
/// crash/recover windows, and flush-shipment loss/corruption.
///
/// Loss draws are keyed hash coins over the message identity, so a plan
/// replayed against the same message sequence produces the same drops
/// regardless of how unrelated sends interleave.
#[derive(Debug, Clone)]
pub struct FailurePlan {
    seed: u64,
    /// Outage windows by link index.
    outages: Vec<Vec<Outage>>,
    node_outages: HashMap<NodeId, Vec<Outage>>,
    /// Message-loss probability by link index (0 = lossless).
    loss: Vec<f64>,
    /// Message sequence counters keying the loss coin, by link index.
    seq: Vec<u64>,
    /// Probability one flush-wave shipment is lost in transit (the
    /// sender detects the failure and retries next flush).
    shipment_loss: f64,
    /// Probability one flush-wave sketch shipment arrives corrupted
    /// (fails its CRC at the receiver and punches a coverage hole).
    shipment_corruption: f64,
    /// Probability one flush-wave *record payload* arrives with a byte
    /// flipped (its CRC fails at the receiver, which refuses it).
    payload_corruption: f64,
}

impl FailurePlan {
    /// A plan with no failures.
    pub fn none() -> Self {
        Self::with_seed(0)
    }

    /// An empty plan whose loss draws use `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            outages: Vec::new(),
            node_outages: HashMap::new(),
            loss: Vec::new(),
            seq: Vec::new(),
            shipment_loss: 0.0,
            shipment_corruption: 0.0,
            payload_corruption: 0.0,
        }
    }

    /// Schedules an outage on `link` for `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn add_outage(&mut self, link: LinkId, from: SimTime, until: SimTime) {
        assert!(until > from, "outage window must be non-empty");
        entry(&mut self.outages, link).push(Outage { from, until });
    }

    /// Schedules a crash window on `node` for `[from, until)`: while
    /// down the node neither flushes, ingests, heals nor serves.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn add_node_outage(&mut self, node: NodeId, from: SimTime, until: SimTime) {
        assert!(until > from, "outage window must be non-empty");
        self.node_outages
            .entry(node)
            .or_default()
            .push(Outage { from, until });
    }

    /// Sets an i.i.d. message-loss probability on `link`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_loss(&mut self, link: LinkId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        *entry(&mut self.loss, link) = p;
    }

    /// Sets the i.i.d. probability that a whole flush-wave shipment is
    /// lost in transit (sender-detected; the batch stays queued below).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_shipment_loss(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.shipment_loss = p;
    }

    /// Sets the i.i.d. probability that a flush-wave sketch shipment
    /// arrives corrupted (one encoded partial fails its CRC).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_shipment_corruption(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.shipment_corruption = p;
    }

    /// Sets the i.i.d. probability that a flush-wave record payload
    /// arrives corrupted: a byte flips in flight, the receiver's CRC
    /// check refuses the payload, and the sender keeps the batch to
    /// re-ship it.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_payload_corruption(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.payload_corruption = p;
    }

    /// Whether `link` is inside an outage window at `at`.
    pub(crate) fn is_down(&self, link: LinkId, at: SimTime) -> bool {
        in_any(self.outages.get(link.index()), at)
    }

    /// Whether `node` is inside a crash window at `at`.
    pub fn node_is_down(&self, node: NodeId, at: SimTime) -> bool {
        in_any(self.node_outages.get(&node), at)
    }

    /// Draws the loss coin for one message on `link`: a keyed hash of
    /// `(seed, link, per-link message sequence)`, so the verdict for the
    /// n-th message of a link is fixed per seed no matter how sends on
    /// other links interleave.
    pub(crate) fn drops(&mut self, link: LinkId) -> bool {
        let n = entry(&mut self.seq, link);
        let seq = *n;
        *n += 1;
        self.loss_verdict(link, seq)
    }

    /// The loss verdict for the `seq`-th message ever sent on `link` —
    /// the pure function behind [`FailurePlan::drops`]. Sharded senders
    /// draw against an explicit sequence (base + their local count) so a
    /// read-only phase can toss coins without mutating the plan.
    pub(crate) fn loss_verdict(&self, link: LinkId, seq: u64) -> bool {
        match self.loss.get(link.index()) {
            Some(&p) if p > 0.0 => coin(
                keyed(self.seed, DOMAIN_LINK_LOSS, link.index() as u64, seq),
                p,
            ),
            _ => false,
        }
    }

    /// The next unused loss-coin sequence number of `link`.
    pub(crate) fn loss_seq(&self, link: LinkId) -> u64 {
        self.seq.get(link.index()).copied().unwrap_or(0)
    }

    /// Advances `link`'s loss-coin sequence by `n` draws — how a shard's
    /// buffered sends are folded back into the plan at a barrier.
    pub(crate) fn advance_loss_seq(&mut self, link: LinkId, n: u64) {
        if n > 0 {
            *entry(&mut self.seq, link) += n;
        }
    }

    /// Whether the flush shipment `sender` ships at flush `epoch` is
    /// lost in transit. Pure in `(seed, sender, epoch)` — replays and
    /// re-asks agree.
    pub fn shipment_lost(&self, sender: NodeId, epoch: u64) -> bool {
        self.shipment_loss > 0.0
            && coin(
                keyed(self.seed, DOMAIN_SHIP_LOSS, sender.index() as u64, epoch),
                self.shipment_loss,
            )
    }

    /// Which of the `n_sketches` encoded partials in `sender`'s flush
    /// `epoch` shipment arrives corrupted, if any. Pure in
    /// `(seed, sender, epoch)`.
    pub fn corrupted_sketch(&self, sender: NodeId, epoch: u64, n_sketches: usize) -> Option<usize> {
        if n_sketches == 0 || self.shipment_corruption == 0.0 {
            return None;
        }
        let h = keyed(self.seed, DOMAIN_SHIP_CORRUPT, sender.index() as u64, epoch);
        coin(h, self.shipment_corruption).then(|| (mix(h) % n_sketches as u64) as usize)
    }

    /// Whether the record payload `sender` ships at flush `epoch`
    /// arrives corrupted. Pure in `(seed, sender, epoch)`, drawn once
    /// the batch is taken.
    pub fn payload_corrupted(&self, sender: NodeId, epoch: u64) -> bool {
        self.payload_corruption > 0.0
            && coin(
                keyed(
                    self.seed,
                    DOMAIN_PAYLOAD_CORRUPT,
                    sender.index() as u64,
                    epoch,
                ),
                self.payload_corruption,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Link, Topology};
    use crate::time::Duration;

    fn one_link() -> (Topology, LinkId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l = t
            .add_link(a, b, Link::new(Duration::from_millis(1), 1_000_000))
            .unwrap();
        (t, l)
    }

    fn two_links() -> (Topology, LinkId, LinkId) {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let l1 = t
            .add_link(a, b, Link::new(Duration::from_millis(1), 1_000_000))
            .unwrap();
        let l2 = t
            .add_link(b, c, Link::new(Duration::from_millis(1), 1_000_000))
            .unwrap();
        (t, l1, l2)
    }

    #[test]
    fn outage_windows_are_half_open() {
        let (_, l) = one_link();
        let mut p = FailurePlan::none();
        p.add_outage(l, SimTime::from_secs(10), SimTime::from_secs(20));
        assert!(!p.is_down(l, SimTime::from_secs(9)));
        assert!(p.is_down(l, SimTime::from_secs(10)));
        assert!(p.is_down(l, SimTime::from_secs(19)));
        assert!(!p.is_down(l, SimTime::from_secs(20)));
    }

    #[test]
    fn multiple_windows_supported() {
        let (_, l) = one_link();
        let mut p = FailurePlan::none();
        p.add_outage(l, SimTime::from_secs(1), SimTime::from_secs(2));
        p.add_outage(l, SimTime::from_secs(5), SimTime::from_secs(6));
        assert!(p.is_down(l, SimTime::from_secs(1)));
        assert!(!p.is_down(l, SimTime::from_secs(3)));
        assert!(p.is_down(l, SimTime::from_secs(5)));
    }

    #[test]
    fn overlapping_and_duplicate_windows_union() {
        let (_, l) = one_link();
        let mut p = FailurePlan::none();
        // Overlapping windows: [10, 30) and [20, 50) act as [10, 50).
        p.add_outage(l, SimTime::from_secs(10), SimTime::from_secs(30));
        p.add_outage(l, SimTime::from_secs(20), SimTime::from_secs(50));
        // An exact duplicate of the first must change nothing.
        p.add_outage(l, SimTime::from_secs(10), SimTime::from_secs(30));
        assert!(!p.is_down(l, SimTime::from_secs(9)));
        for t in [10u64, 19, 20, 29, 30, 49] {
            assert!(p.is_down(l, SimTime::from_secs(t)), "down at {t}");
        }
        assert!(!p.is_down(l, SimTime::from_secs(50)));
        // A window nested entirely inside another adds nothing either.
        p.add_outage(l, SimTime::from_secs(12), SimTime::from_secs(14));
        assert!(p.is_down(l, SimTime::from_secs(13)));
        assert!(!p.is_down(l, SimTime::from_secs(50)));
    }

    #[test]
    fn node_outage_windows_are_half_open() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let mut p = FailurePlan::none();
        p.add_node_outage(a, SimTime::from_secs(100), SimTime::from_secs(200));
        assert!(!p.node_is_down(a, SimTime::from_secs(99)));
        assert!(p.node_is_down(a, SimTime::from_secs(100)));
        assert!(p.node_is_down(a, SimTime::from_secs(199)));
        assert!(!p.node_is_down(a, SimTime::from_secs(200)));
        assert!(
            !p.node_is_down(b, SimTime::from_secs(150)),
            "only a is down"
        );
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let (_, l) = one_link();
        let mut p = FailurePlan::with_seed(7);
        p.set_loss(l, 0.25);
        let dropped = (0..10_000).filter(|_| p.drops(l)).count();
        assert!((2000..3000).contains(&dropped), "dropped {dropped}/10000");
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let (_, l) = one_link();
        let mut p1 = FailurePlan::with_seed(3);
        let mut p2 = FailurePlan::with_seed(3);
        p1.set_loss(l, 0.5);
        p2.set_loss(l, 0.5);
        for _ in 0..100 {
            assert_eq!(p1.drops(l), p2.drops(l));
        }
    }

    #[test]
    fn loss_verdicts_ignore_cross_link_interleaving() {
        // The satellite fix: the n-th message of a link gets the same
        // verdict whether or not other links' sends interleave.
        let (_, l1, l2) = two_links();
        let mut sequential = FailurePlan::with_seed(11);
        sequential.set_loss(l1, 0.4);
        sequential.set_loss(l2, 0.4);
        let alone: Vec<bool> = (0..200).map(|_| sequential.drops(l1)).collect();

        let mut interleaved = FailurePlan::with_seed(11);
        interleaved.set_loss(l1, 0.4);
        interleaved.set_loss(l2, 0.4);
        let mut mixed = Vec::new();
        for i in 0..200 {
            // Unrelated traffic on l2, interleaved unevenly.
            for _ in 0..(i % 3) {
                interleaved.drops(l2);
            }
            mixed.push(interleaved.drops(l1));
        }
        assert_eq!(alone, mixed, "l2 traffic must not perturb l1 verdicts");
    }

    #[test]
    fn shipment_coins_are_pure_functions_of_identity() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let mut p = FailurePlan::with_seed(5);
        p.set_shipment_loss(0.3);
        p.set_shipment_corruption(0.3);
        // Re-asking never changes the verdict (no hidden state).
        for epoch in 0..50u64 {
            assert_eq!(p.shipment_lost(a, epoch), p.shipment_lost(a, epoch));
            assert_eq!(
                p.corrupted_sketch(a, epoch, 7),
                p.corrupted_sketch(a, epoch, 7)
            );
        }
        // Different senders draw independent coins.
        let a_hits = (0..1000).filter(|&e| p.shipment_lost(a, e)).count();
        let b_hits = (0..1000).filter(|&e| p.shipment_lost(b, e)).count();
        assert!((200..400).contains(&a_hits), "a lost {a_hits}/1000");
        assert!((200..400).contains(&b_hits), "b lost {b_hits}/1000");
        // A corrupted index always lies inside the shipment.
        for epoch in 0..200u64 {
            if let Some(i) = p.corrupted_sketch(b, epoch, 7) {
                assert!(i < 7);
            }
        }
        assert_eq!(p.corrupted_sketch(a, 0, 0), None, "empty shipments pass");
    }

    #[test]
    fn payload_corruption_coin_is_pure_and_counts_toward_triviality() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let mut p = FailurePlan::with_seed(5);
        p.set_payload_corruption(0.3);
        for epoch in 0..50u64 {
            assert_eq!(p.payload_corrupted(a, epoch), p.payload_corrupted(a, epoch));
        }
        let a_hits = (0..1000).filter(|&e| p.payload_corrupted(a, e)).count();
        let b_hits = (0..1000).filter(|&e| p.payload_corrupted(b, e)).count();
        assert!((200..400).contains(&a_hits), "a corrupted {a_hits}/1000");
        assert!((200..400).contains(&b_hits), "b corrupted {b_hits}/1000");
        // The payload coin is independent of the shipment-loss coin: the
        // two domains must not shadow each other.
        p.set_shipment_loss(0.3);
        let overlap = (0..1000)
            .filter(|&e| p.payload_corrupted(a, e) && p.shipment_lost(a, e))
            .count();
        assert!(overlap < a_hits, "coins are perfectly correlated");
        p.set_payload_corruption(0.0);
        assert!(!p.payload_corrupted(a, 0));
    }

    #[test]
    fn zero_loss_clears_the_entry() {
        let (_, l) = one_link();
        let mut p = FailurePlan::none();
        p.set_loss(l, 0.9);
        p.set_loss(l, 0.0);
        assert!(p.loss.iter().all(|&q| q == 0.0));
        assert!(!p.drops(l));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_outage_rejected() {
        let (_, l) = one_link();
        let mut p = FailurePlan::none();
        p.add_outage(l, SimTime::from_secs(5), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_node_outage_rejected() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let mut p = FailurePlan::none();
        p.add_node_outage(a, SimTime::from_secs(5), SimTime::from_secs(5));
    }
}
