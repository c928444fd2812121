//! A deterministic discrete-event queue.
//!
//! Events scheduled for the same instant pop in scheduling order (FIFO
//! tie-breaking via a monotonically increasing sequence number), which makes
//! every simulation in the workspace bit-for-bit reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{Duration, SimTime};

#[derive(Debug, PartialEq, Eq)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E: Eq> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E: Eq> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered queue of events of type `E`.
///
/// Popping an event advances the queue's clock to the event's timestamp;
/// scheduling in the past is rejected (a classic simulation bug) by panic.
///
/// # Examples
///
/// ```
/// use citysim::{EventQueue, Duration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule_in(Duration::from_secs(5), "flush");
/// q.schedule_in(Duration::from_secs(1), "collect");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "collect")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "flush")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Default)]
pub struct EventQueue<E: Eq> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

impl<E: Eq> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        self.heap.push(Reverse(Entry {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Schedules `event` after `delay` from the current clock.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some((entry.at, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), 'c');
        q.schedule_at(SimTime::from_secs(1), 'a');
        q.schedule_at(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), 1);
        q.pop();
        // A zero delay now lands at the popped event's time, not at zero.
        q.schedule_in(Duration::ZERO, 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), 1);
        q.pop();
        q.schedule_at(SimTime::from_secs(1), 2);
    }

    #[test]
    fn interleaved_scheduling_and_popping() {
        let mut q = EventQueue::new();
        q.schedule_in(Duration::from_secs(1), 1);
        let (t1, _) = q.pop().unwrap();
        assert_eq!(t1, SimTime::from_secs(1));
        // schedule_in is relative to the advanced clock.
        q.schedule_in(Duration::from_secs(1), 2);
        let (t2, _) = q.pop().unwrap();
        assert_eq!(t2, SimTime::from_secs(2));
    }
}
