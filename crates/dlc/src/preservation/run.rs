//! The archive's run: records in creation-time order, held as a deque
//! of fixed-capacity chunks, so it grows without copying a record and
//! gives its memory back as its front is evicted.

use std::collections::VecDeque;
use std::iter::once;
use std::mem::size_of;

use scc_sensors::heap;

use crate::record::DataRecord;

/// A sequence of records in chunks of at most `CHUNK`.
///
/// No chunk is empty, and every chunk but the first and the last is
/// full, so a position is found by arithmetic: inside the first chunk,
/// or `CHUNK`-aligned past it. The first chunk grows by doubling up to
/// `CHUNK`, so a small run stays small; every later one is allocated at
/// `CHUNK` once and never moves. Removing the front drops whole chunks
/// and drains at most one.
///
/// The last chunk is held inline, outside the deque: an append — the
/// common write — reaches its records without a hop through the deque.
#[derive(Debug, Clone, Default)]
pub(crate) struct Run<const CHUNK: usize> {
    /// Every chunk before the last, oldest first.
    head: VecDeque<Vec<DataRecord>>,
    /// The last chunk; empty only when the run is.
    last: Vec<DataRecord>,
}

impl<const CHUNK: usize> Run<CHUNK> {
    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        match self.head.front() {
            Some(first) => first.len() + (self.head.len() - 1) * CHUNK + self.last.len(),
            None => self.last.len(),
        }
    }

    /// The `c`-th chunk, oldest first; the last one is `head.len()`.
    fn chunk(&self, c: usize) -> Option<&Vec<DataRecord>> {
        match c.checked_sub(self.head.len()) {
            None => self.head.get(c),
            Some(0) => Some(&self.last),
            Some(_) => None,
        }
    }

    /// As [`Run::chunk`], mutably.
    fn chunk_mut(&mut self, c: usize) -> Option<&mut Vec<DataRecord>> {
        match c.checked_sub(self.head.len()) {
            None => self.head.get_mut(c),
            Some(0) => Some(&mut self.last),
            Some(_) => None,
        }
    }

    /// The chunk holding position `at` and the offset in it; the end of
    /// a full chunk is the start of the next.
    fn locate(&self, at: usize) -> (usize, usize) {
        let first = self.head.front().unwrap_or(&self.last).len();
        match at.checked_sub(first) {
            None => (0, at),
            Some(past) => (1 + past / CHUNK, past % CHUNK),
        }
    }

    /// The oldest record.
    pub(crate) fn first(&self) -> Option<&DataRecord> {
        self.head.front().unwrap_or(&self.last).first()
    }

    /// The newest record.
    pub(crate) fn last(&self) -> Option<&DataRecord> {
        self.last.last()
    }

    /// The first position whose record fails `pred`, as
    /// [`slice::partition_point`] over the whole run: the records that
    /// pass must come first. One search over the chunks' first records
    /// finds the chunk where they stop, and one search inside it the
    /// position.
    pub(crate) fn partition_point(&self, mut pred: impl FnMut(&DataRecord) -> bool) -> usize {
        let mut passed = self
            .head
            .partition_point(|chunk| chunk.first().is_some_and(&mut pred));
        if passed == self.head.len() && self.last.first().is_some_and(&mut pred) {
            passed += 1;
        }
        let Some(c) = passed.checked_sub(1) else {
            return 0;
        };
        let start = match c {
            0 => 0,
            _ => self.head.front().map_or(0, Vec::len) + (c - 1) * CHUNK,
        };
        start + self.chunk(c).map_or(0, |chunk| chunk.partition_point(pred))
    }

    /// The chunk slices that hold positions `[from, until)`, in order,
    /// none of them empty; an inverted range yields none.
    pub(crate) fn slices(
        &self,
        from: usize,
        until: usize,
    ) -> impl DoubleEndedIterator<Item = &[DataRecord]> {
        let until = until.min(self.len());
        let from = from.min(until);
        let (first, head) = self.locate(from);
        let (last, tail) = self.locate(until);
        let end = match (from == until, tail) {
            (true, _) => first,
            (false, 0) => last,
            (false, _) => last + 1,
        };
        (first..end).map(move |c| {
            let chunk = self.chunk(c).map_or(&[][..], Vec::as_slice);
            let lo = if c == first { head } else { 0 };
            let hi = if c == last { tail } else { chunk.len() };
            &chunk[lo..hi]
        })
    }

    /// Every record, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &DataRecord> {
        self.head.iter().flatten().chain(&self.last)
    }

    /// Room left in the last chunk, opening a new one when it is full.
    fn open(&mut self) -> usize {
        if self.last.len() == CHUNK {
            let full = std::mem::replace(&mut self.last, Vec::with_capacity(CHUNK));
            self.head.push_back(full);
        }
        CHUNK - self.last.len()
    }

    /// Appends one record.
    pub(crate) fn push(&mut self, record: DataRecord) {
        self.open();
        reserve::<CHUNK>(&mut self.last, 1);
        self.last.push(record);
    }

    /// Moves the next `n` records of `records` to the end, filling the
    /// last chunk before opening the next. When the rest of `records`
    /// fits the last chunk — an ingest wave, one shipment at one
    /// instant — it moves as one block copy.
    pub(crate) fn extend(&mut self, records: &mut std::vec::IntoIter<DataRecord>, n: usize) {
        let mut n = n.min(records.len());
        while n > 0 {
            let m = self.open().min(n);
            reserve::<CHUNK>(&mut self.last, m);
            if m == records.len() {
                self.last.extend(std::mem::take(records));
            } else {
                self.last.extend(records.by_ref().take(m));
            }
            n -= m;
        }
    }

    /// Inserts `record` at position `at` (the end if past it): each full
    /// chunk on the way hands its last record on to the next.
    pub(crate) fn insert(&mut self, at: usize, record: DataRecord) {
        let (mut c, mut offset) = self.locate(at.min(self.len()));
        let mut carry = record;
        while let Some(chunk) = self.chunk_mut(c) {
            if chunk.len() < CHUNK {
                reserve::<CHUNK>(chunk, 1);
                chunk.insert(offset, carry);
                return;
            }
            let Some(out) = chunk.pop() else {
                return;
            };
            chunk.insert(offset, carry);
            (carry, c, offset) = (out, c + 1, 0);
        }
        self.push(carry);
    }

    /// Stably sorts positions `from..` by creation time: in place when
    /// they lie in the last chunk; otherwise gathered, sorted and put
    /// back into the chunks they came from.
    pub(crate) fn sort_tail(&mut self, from: usize) {
        let (c, offset) = self.locate(from);
        let Some(head_len) = self.head.get(c).map(Vec::len) else {
            if c == self.head.len() {
                self.last[offset..].sort_by_key(created_s);
            }
            return;
        };
        let mut tail = Vec::with_capacity(self.len() - from);
        let chunks = self.head.range_mut(c..).chain(once(&mut self.last));
        for (i, chunk) in chunks.enumerate() {
            tail.extend(chunk.drain(if i == 0 { offset } else { 0 }..));
        }
        tail.sort_by_key(created_s);
        let mut tail = tail.into_iter();
        let chunks = self.head.range_mut(c..).chain(once(&mut self.last));
        for (i, chunk) in chunks.enumerate() {
            let room = if i == 0 { head_len - offset } else { CHUNK };
            chunk.extend(tail.by_ref().take(room));
        }
    }

    /// Removes the first `k` records, handing them to `out` oldest first
    /// when one is given: whole chunks go at once, at most one drains.
    pub(crate) fn remove_front(&mut self, mut k: usize, mut out: Option<&mut Vec<DataRecord>>) {
        while k > 0 {
            let first = self.head.front_mut().unwrap_or(&mut self.last);
            if first.len() > k {
                let gone = first.drain(..k);
                if let Some(out) = out {
                    out.extend(gone);
                }
                return;
            }
            k -= first.len();
            let chunk = match self.head.pop_front() {
                Some(chunk) => chunk,
                None => {
                    k = 0;
                    std::mem::take(&mut self.last)
                }
            };
            if let Some(out) = out.as_deref_mut() {
                out.extend(chunk);
            }
        }
    }

    /// Every record, oldest first, in one vector.
    pub(crate) fn into_vec(self) -> Vec<DataRecord> {
        let mut all = Vec::with_capacity(self.len());
        for chunk in self.head.into_iter().chain(once(self.last)) {
            all.extend(chunk);
        }
        all
    }

    /// Heap bytes: the chunk deque and each chunk at its capacity.
    pub(crate) fn heap_bytes(&self) -> u64 {
        (self.head.capacity() * size_of::<Vec<DataRecord>>()) as u64
            + self
                .head
                .iter()
                .chain(once(&self.last))
                .map(heap::vec_bytes)
                .sum::<u64>()
    }
}

/// Room for `n` more records in a chunk that holds at most `CHUNK - n`:
/// short of it, the capacity doubles (to the power of two that fits),
/// never past `CHUNK`.
fn reserve<const CHUNK: usize>(chunk: &mut Vec<DataRecord>, n: usize) {
    let need = chunk.len() + n;
    if need > chunk.capacity() {
        let target = need.next_power_of_two().min(CHUNK);
        chunk.reserve_exact(target - chunk.len());
    }
}

/// The run's sort key.
pub(crate) fn created_s(record: &DataRecord) -> u64 {
    record.descriptor().created_s()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use scc_sensors::{Reading, SensorId, SensorType, Value};

    /// Four records a chunk: a few dozen records cross many boundaries.
    type Small = Run<4>;

    fn rec(idx: u32, t: u64) -> DataRecord {
        DataRecord::from_reading(Reading::new(
            SensorId::new(SensorType::Traffic, idx),
            t,
            Value::Counter(u64::from(idx)),
        ))
    }

    /// The layout every operation must leave, its price, and every
    /// position range, forwards and backwards, against the model.
    fn check(run: &Small, model: &[DataRecord]) -> Result<(), TestCaseError> {
        let chunks: Vec<&Vec<DataRecord>> = (0..).map_while(|c| run.chunk(c)).collect();
        let n = chunks.len();
        prop_assert_eq!(n, run.head.len() + 1);
        prop_assert_eq!(run.last.is_empty(), model.is_empty());
        for (c, chunk) in chunks.iter().enumerate().filter(|_| !model.is_empty()) {
            prop_assert!(!chunk.is_empty(), "chunk {} of {} is empty", c, n);
            prop_assert!(chunk.capacity() <= 4, "chunk {} grew past 4", c);
            if c > 0 && c + 1 < n {
                prop_assert_eq!(chunk.len(), 4, "middle chunk {} is not full", c);
            }
        }
        prop_assert_eq!(run.len(), model.len());
        prop_assert!(run.iter().eq(model.iter()));
        prop_assert_eq!(run.first(), model.first());
        prop_assert_eq!(run.last(), model.last());
        // Every prefix is a partition, sorted or not: the search finds
        // each one's end.
        let mut prefix = std::collections::HashSet::new();
        for p in 0..=model.len() {
            let got = run.partition_point(|r| prefix.contains(&r.reading().sensor().index()));
            prop_assert_eq!(got, p, "prefix {}", p);
            if let Some(r) = model.get(p) {
                prefix.insert(r.reading().sensor().index());
            }
        }
        // At every probe second that partitions the records (all of
        // them, once the run is sorted), the time search is the model's.
        for t in 0..=8 {
            let before = |r: &DataRecord| created_s(r) < t;
            let want = model.iter().take_while(|r| before(r)).count();
            if model[want..].iter().all(|r| !before(r)) {
                prop_assert_eq!(run.partition_point(before), want, "second {}", t);
            }
        }
        // Only the first and the last chunk may hold room: at most three
        // records' worth each.
        let deque = (run.head.capacity() * size_of::<Vec<DataRecord>>()) as u64;
        let chunks = run.heap_bytes() - deque;
        let record = size_of::<DataRecord>() as u64;
        let len = model.len() as u64;
        prop_assert!(len * record <= chunks && chunks <= (len + 6) * record);
        for from in 0..=model.len() + 1 {
            for until in 0..=model.len() + 1 {
                let want = &model[from.min(until).min(model.len())..until.min(model.len())];
                let got: Vec<&DataRecord> = run.slices(from, until).flatten().collect();
                prop_assert!(got.iter().copied().eq(want.iter()), "[{}, {})", from, until);
                let back: Vec<&DataRecord> = run.slices(from, until).flatten().rev().collect();
                prop_assert!(
                    back.iter().copied().eq(want.iter().rev()),
                    "[{}, {}) reversed",
                    from,
                    until
                );
                prop_assert!(run.slices(from, until).all(|s| !s.is_empty()));
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn a_chunked_run_reads_like_one_vector(
            // (operation, size or position, creation-time salt)
            ops in proptest::collection::vec((0u8..7, 0usize..64, any::<u64>()), 0..40),
        ) {
            let (mut run, mut model) = (Small::default(), Vec::new());
            let mut next = 0u32;
            let mut fresh = |t: u64| {
                next += 1;
                rec(next, t)
            };
            for &(op, a, salt) in &ops {
                match op {
                    0 | 1 => {
                        // Eight distinct seconds, so sorts meet ties.
                        let batch: Vec<DataRecord> =
                            (0..a % 14).map(|i| fresh(salt.rotate_left(i as u32 * 5) % 8)).collect();
                        model.extend(batch.iter().cloned());
                        let n = batch.len();
                        run.extend(&mut batch.into_iter(), n);
                    }
                    2 => {
                        let record = fresh(salt % 8);
                        model.insert(a.min(model.len()), record.clone());
                        run.insert(a, record);
                    }
                    3 | 4 => {
                        // Op 4 sorts the whole run, so the time searches
                        // meet sorted runs of every layout.
                        let from = if op == 3 { a % (model.len() + 1) } else { 0 };
                        model[from..].sort_by_key(created_s);
                        run.sort_tail(from);
                    }
                    5 => {
                        let k = a % (model.len() + 1);
                        let mut out = Vec::new();
                        run.remove_front(k, Some(&mut out));
                        prop_assert!(out.into_iter().eq(model.drain(..k)));
                    }
                    _ => {
                        let k = a % (model.len() + 1);
                        run.remove_front(k, None);
                        model.drain(..k);
                    }
                }
                check(&run, &model)?;
            }
            prop_assert_eq!(run.clone().into_vec(), model.clone());
            run.remove_front(model.len(), None);
            prop_assert_eq!(run.heap_bytes(), (run.head.capacity() * size_of::<Vec<DataRecord>>()) as u64);
        }
    }

    #[test]
    fn the_first_chunk_doubles_and_later_ones_are_born_full() {
        let mut run = Small::default();
        let mut caps = Vec::new();
        for i in 0..10 {
            run.push(rec(i, 0));
            caps.push(
                (0..)
                    .map_while(|c| run.chunk(c))
                    .map(Vec::capacity)
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(caps[0], [1]);
        assert_eq!(caps[1], [2]);
        assert_eq!(caps[2], [4]);
        assert_eq!(caps[4], [4, 4]);
        assert_eq!(caps[9], [4, 4, 4]);
    }
}
