//! The simulation's one event queue: timers popped in `(deadline, push
//! order)` order, with FIFO lanes in front of a binary heap.
//!
//! Most deadline sources in the simulator are monotone: a host's
//! transmitter serializes its segments, so their arrival times never
//! decrease; a timer armed a constant delay after the current instant
//! lands after every earlier one armed the same way. Each push names a
//! *lane key* for such a source. An item whose deadline is not earlier
//! than its lane's tail is appended to the lane's `VecDeque` — O(1),
//! no sift — and anything else goes to a single fallback
//! [`BinaryHeap`]. The earliest entry across lanes and heap is cached,
//! so [`TimerQueue::next_deadline`] and [`TimerQueue::has_due`] are O(1).
//!
//! Lanes only make the queue faster. Every entry carries its global
//! push sequence number and the head is always the least `(at, seq)`
//! over all lane fronts and the heap top, so the pop order is exactly
//! that of one `BinaryHeap<Reverse<(at, seq)>>`, whatever the keys.
//!
//! # Examples
//!
//! ```
//! use simcore::queue::TimerQueue;
//! use simcore::time::SimTime;
//!
//! let mut q = TimerQueue::new();
//! q.push(SimTime::from_micros(5), Some(1), "late");
//! q.push(SimTime::from_micros(2), Some(1), "early, off-lane");
//! q.push(SimTime::from_micros(5), None, "late, second");
//! assert_eq!(q.next_deadline(), Some(SimTime::from_micros(2)));
//! let now = SimTime::from_micros(5);
//! assert_eq!(q.pop_due(now), Some((SimTime::from_micros(2), "early, off-lane")));
//! assert_eq!(q.pop_due(now), Some((now, "late")));
//! assert_eq!(q.pop_due(now), Some((now, "late, second")));
//! assert_eq!(q.pop_due(now), None);
//! ```

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Distinct lane keys beyond this many share the fallback heap, which
/// bounds the head rescan after a pop.
const MAX_LANES: usize = 16;

/// `Head::src` of an entry that lives in the fallback heap.
const IN_HEAP: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

// The heap is a max-heap: order entries by reversed `(at, seq)` so the
// earliest sits on top. `seq` is unique, so the payload never compares.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

#[derive(Debug, Clone)]
struct Lane<T> {
    key: u64,
    /// Deadline of the last item appended: the lane stays sorted as long
    /// as appends never go below it.
    tail: SimTime,
    q: VecDeque<Entry<T>>,
}

#[derive(Debug, Clone, Copy)]
struct Head {
    at: SimTime,
    seq: u64,
    /// Lane index, or [`IN_HEAP`].
    src: u32,
}

/// A deadline-ordered timer queue; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct TimerQueue<T> {
    /// Created on a key's first push, never removed.
    lanes: Vec<Lane<T>>,
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    head: Option<Head>,
}

impl<T> Default for TimerQueue<T> {
    fn default() -> Self {
        TimerQueue::new()
    }
}

impl<T> TimerQueue<T> {
    /// An empty queue. Allocates nothing until the first push.
    pub fn new() -> TimerQueue<T> {
        TimerQueue {
            lanes: Vec::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
            head: None,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(|l| l.q.len()).sum::<usize>()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// Earliest queued deadline, O(1).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.head.map(|h| h.at)
    }

    /// Whether an item is due at or before `now`, O(1).
    pub fn has_due(&self, now: SimTime) -> bool {
        self.head.is_some_and(|h| h.at <= now)
    }

    /// Queues `item` for `at`. `lane` names a source whose deadlines
    /// usually arrive in order; `None` (or an out-of-order deadline)
    /// uses the fallback heap. Items due at the same instant pop in
    /// push order.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn push(&mut self, at: SimTime, lane: Option<u64>, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, item };
        let src = 'placed: {
            if let Some(key) = lane {
                match self.lanes.iter().position(|l| l.key == key) {
                    Some(i) if self.lanes[i].tail <= at => {
                        let l = &mut self.lanes[i];
                        l.tail = at;
                        l.q.push_back(entry);
                        break 'placed i as u32;
                    }
                    None if self.lanes.len() < MAX_LANES => {
                        self.lanes.push(Lane {
                            key,
                            tail: at,
                            q: VecDeque::from([entry]),
                        });
                        break 'placed self.lanes.len() as u32 - 1;
                    }
                    // Below the lane's tail, or no room for a new lane.
                    _ => {}
                }
            }
            self.heap.push(entry);
            IN_HEAP
        };
        // `seq` is the largest yet, so only a strictly earlier deadline
        // displaces the head.
        if self.head.is_none_or(|h| at < h.at) {
            self.head = Some(Head { at, seq, src });
        }
    }

    /// Makes room for `additional` more pushes on lane `key` without
    /// regrowing it — for a caller about to push a known batch.
    /// Creates the lane if needed; does nothing when the lane table is
    /// full.
    pub fn reserve(&mut self, key: u64, additional: usize) {
        match self.lanes.iter().position(|l| l.key == key) {
            Some(i) => self.lanes[i].q.reserve(additional),
            None if self.lanes.len() < MAX_LANES => self.lanes.push(Lane {
                key,
                tail: SimTime::ZERO,
                q: VecDeque::with_capacity(additional),
            }),
            None => {}
        }
    }

    /// Removes and returns the earliest item if it is due at or before
    /// `now`, with its deadline.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        let head = self.head.filter(|h| h.at <= now)?;
        let entry = if head.src == IN_HEAP {
            self.heap.pop()
        } else {
            self.lanes[head.src as usize].q.pop_front()
        }
        .expect("invariant: the cached head is queued");
        debug_assert_eq!(entry.seq, head.seq);
        self.refresh_head();
        Some((entry.at, entry.item))
    }

    /// Recomputes the cached head: the least `(at, seq)` over the lane
    /// fronts and the heap top.
    fn refresh_head(&mut self) {
        let mut best = self.heap.peek().map(|e| Head {
            at: e.at,
            seq: e.seq,
            src: IN_HEAP,
        });
        for (i, lane) in self.lanes.iter().enumerate() {
            let Some(e) = lane.q.front() else { continue };
            if best.is_none_or(|b| e.key() < (b.at, b.seq)) {
                best = Some(Head {
                    at: e.at,
                    seq: e.seq,
                    src: i as u32,
                });
            }
        }
        self.head = best;
    }

    /// Calls `f(at, seq, item)` for every queued item in pop order —
    /// the walk state fingerprints fold. `seq` counts pushes from 0.
    pub fn for_each_in_order(&self, mut f: impl FnMut(SimTime, u64, &T)) {
        let mut all: Vec<&Entry<T>> = self
            .heap
            .iter()
            .chain(self.lanes.iter().flat_map(|l| l.q.iter()))
            .collect();
        all.sort_unstable_by_key(|e| e.key());
        for e in all {
            f(e.at, e.seq, &e.item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn empty_queue_has_no_deadline_and_allocates_nothing() {
        let mut q: TimerQueue<u8> = TimerQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_deadline(), None);
        assert!(!q.has_due(SimTime::MAX));
        assert_eq!(q.pop_due(SimTime::MAX), None);
        assert_eq!(q.lanes.capacity(), 0);
        assert_eq!(q.heap.capacity(), 0);
    }

    #[test]
    fn equal_deadlines_pop_in_push_order_across_lanes_and_heap() {
        let mut q = TimerQueue::new();
        q.push(t(3), Some(7), 'a');
        q.push(t(3), None, 'b');
        q.push(t(3), Some(9), 'c');
        q.push(t(3), Some(7), 'd');
        let order: Vec<char> = std::iter::from_fn(|| q.pop_due(t(3)).map(|(_, c)| c)).collect();
        assert_eq!(order, ['a', 'b', 'c', 'd']);
    }

    #[test]
    fn out_of_order_push_falls_back_to_the_heap() {
        let mut q = TimerQueue::new();
        q.push(t(10), Some(1), 10);
        q.push(t(4), Some(1), 4);
        assert_eq!(q.lanes[0].q.len(), 1);
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.next_deadline(), Some(t(4)));
        assert_eq!(q.pop_due(t(9)), Some((t(4), 4)));
        assert_eq!(q.pop_due(t(9)), None);
        assert!(q.has_due(t(10)));
        assert_eq!(q.pop_due(t(10)), Some((t(10), 10)));
        assert!(q.is_empty());
    }

    #[test]
    fn lanes_beyond_the_cap_share_the_heap() {
        let mut q = TimerQueue::new();
        for key in 0..(MAX_LANES as u64 + 4) {
            q.push(t(key), Some(key), key);
        }
        assert_eq!(q.lanes.len(), MAX_LANES);
        assert_eq!(q.heap.len(), 4);
        let got: Vec<u64> =
            std::iter::from_fn(|| q.pop_due(SimTime::MAX).map(|(_, k)| k)).collect();
        assert_eq!(got, (0..(MAX_LANES as u64 + 4)).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_in_order_walks_pop_order_with_push_sequence() {
        let mut q = TimerQueue::new();
        q.push(t(5), Some(0), 'x');
        q.push(t(1), Some(0), 'y');
        q.push(t(5), None, 'z');
        let mut walked = Vec::new();
        q.for_each_in_order(|at, seq, &c| walked.push((at, seq, c)));
        assert_eq!(walked, [(t(1), 1, 'y'), (t(5), 0, 'x'), (t(5), 2, 'z')]);
    }

    /// One step of the differential test.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push at `now + delta` on lane `lane`; lanes 6 and up push
        /// with no lane at all.
        Push { delta: u64, lane: u64 },
        /// Push at `now` on `lane`, usually below the lane's tail, which
        /// forces the fallback heap.
        PushNow { lane: u64 },
        /// Advance the clock by `step` and pop everything due.
        Advance { step: u64 },
        /// Pop at most one item due now, then push a follow-up due now.
        PopAndFollow { lane: u64 },
        /// Reserve room on `lane`, creating it if it is new.
        Reserve { lane: u64 },
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..5, 0u64..50, 0u64..8).prop_map(|(kind, n, lane)| match kind {
            0 => Op::Push { delta: n, lane },
            1 => Op::PushNow { lane },
            2 => Op::Advance { step: n % 12 },
            3 => Op::PopAndFollow { lane },
            _ => Op::Reserve { lane },
        })
    }

    /// The queue under test beside the reference heap it must match.
    struct Pair {
        q: TimerQueue<u64>,
        reference: BinaryHeap<Reverse<(SimTime, u64)>>,
        seq: u64,
    }

    impl Pair {
        fn push(&mut self, at: SimTime, lane: u64) {
            self.q.push(at, (lane < 6).then_some(lane), self.seq);
            self.reference.push(Reverse((at, self.seq)));
            self.seq += 1;
        }

        /// Pops one due item from both; returns whether there was one.
        fn pop(&mut self, now: SimTime) -> bool {
            let got = self.q.pop_due(now);
            let want = self
                .reference
                .peek()
                .filter(|Reverse((at, _))| *at <= now)
                .map(|&Reverse(k)| k);
            if want.is_some() {
                self.reference.pop();
            }
            assert_eq!(got, want);
            got.is_some()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Against a reference `BinaryHeap<Reverse<(at, seq)>>`: random
        /// pushes on random lanes (including off-lane pushes and pushes
        /// below a lane's tail, which force the fallback), pops
        /// interleaved with pushes at the current instant, and lanes
        /// opened early by `reserve`. Every pop,
        /// deadline and length agrees, and so does the in-order walk
        /// of whatever is left.
        #[test]
        fn pops_match_a_reference_heap(ops in prop::collection::vec(op(), 1..200)) {
            let mut p = Pair { q: TimerQueue::new(), reference: BinaryHeap::new(), seq: 0 };
            let mut now = SimTime::ZERO;
            for op in ops {
                match op {
                    Op::Push { delta, lane } => p.push(now + SimDuration::from_micros(delta), lane),
                    Op::PushNow { lane } => p.push(now, lane),
                    Op::Advance { step } => {
                        now += SimDuration::from_micros(step);
                        while p.pop(now) {}
                    }
                    Op::PopAndFollow { lane } => {
                        p.pop(now);
                        p.push(now, lane);
                    }
                    Op::Reserve { lane } => p.q.reserve(lane, 8),
                }
                prop_assert_eq!(p.q.len(), p.reference.len());
                prop_assert_eq!(p.q.next_deadline(), p.reference.peek().map(|Reverse((at, _))| *at));
                prop_assert_eq!(p.q.has_due(now), p.reference.peek().is_some_and(|Reverse((at, _))| *at <= now));
            }
            let mut walked = Vec::new();
            p.q.for_each_in_order(|at, seq, &item| {
                assert_eq!(seq, item);
                walked.push((at, seq));
            });
            let mut rest: Vec<(SimTime, u64)> = p.reference.into_iter().map(|Reverse(k)| k).collect();
            rest.sort_unstable();
            prop_assert_eq!(walked, rest);
        }
    }
}
