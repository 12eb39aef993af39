//! Ephemeral port allocation with TIME_WAIT accounting.
//!
//! The paper's benchmark procedure is shaped by this resource: "we can
//! have only about 60000 open sockets at a single point in time. When a
//! socket closes it enters the TIME-WAIT state for sixty seconds, so we
//! must avoid reaching the port number limitation. We therefore run each
//! benchmark for 35,000 connections, and then wait for all sockets to
//! leave the TIMEWAIT state" (§5). This module reproduces that limit.

use std::collections::VecDeque;

use simcore::fingerprint::Fnv;
use simcore::paged::PagedBits;
use simcore::time::SimTime;

use crate::addr::Port;

/// Default start of the ephemeral range (Linux 2.2 used 1024).
pub const EPHEMERAL_LO: Port = 1024;
/// Default end (exclusive) of the ephemeral range.
pub const EPHEMERAL_HI: Port = 61024;

/// Allocates ephemeral ports and tracks TIME_WAIT occupancy.
#[derive(Debug, Clone)]
pub struct PortAllocator {
    lo: Port,
    hi: Port,
    next: Port,
    /// Ports currently bound to a live endpoint.
    in_use: PagedBits,
    /// Ports in TIME_WAIT as `(expiry, port)`, ordered by expiry, equal
    /// expiries in release order. The network always releases with
    /// `now + time_wait`, so releases append at the back.
    time_wait: VecDeque<(SimTime, Port)>,
    /// The ports in `time_wait`, as a set.
    waiting: PagedBits,
}

impl PortAllocator {
    /// Creates an allocator over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn new(lo: Port, hi: Port) -> PortAllocator {
        assert!(lo < hi, "empty port range");
        PortAllocator {
            lo,
            hi,
            next: lo,
            in_use: PagedBits::new(),
            time_wait: VecDeque::new(),
            waiting: PagedBits::new(),
        }
    }

    /// Creates an allocator over the default ephemeral range.
    pub fn ephemeral() -> PortAllocator {
        PortAllocator::new(EPHEMERAL_LO, EPHEMERAL_HI)
    }

    /// Expires TIME_WAIT entries due at or before `now`.
    pub fn expire(&mut self, now: SimTime) {
        while let Some(&(at, port)) = self.time_wait.front() {
            if at > now {
                break;
            }
            self.time_wait.pop_front();
            self.waiting.remove(usize::from(port));
        }
    }

    /// Allocates a port, or `None` if the range is exhausted
    /// (everything is in use or in TIME_WAIT). Ports are handed out
    /// round-robin: the first free port at or after the one past the
    /// last allocation, wrapping to the bottom of the range.
    pub fn alloc(&mut self, now: SimTime) -> Option<Port> {
        self.expire(now);
        let p = self
            .first_free(self.next, self.hi)
            .or_else(|| self.first_free(self.lo, self.next))?;
        self.next = if p + 1 >= self.hi { self.lo } else { p + 1 };
        self.in_use.insert(usize::from(p));
        Some(p)
    }

    /// Lowest port in `[from, to)` that is neither bound nor in
    /// TIME_WAIT, scanned 64 ports per step.
    fn first_free(&self, from: Port, to: Port) -> Option<Port> {
        let (mut ix, to) = (usize::from(from), usize::from(to));
        while ix < to {
            let w = ix / 64;
            // Bits below `ix` in its word count as taken.
            let taken = self.in_use.word(w) | self.waiting.word(w) | ((1u64 << (ix % 64)) - 1);
            if taken != u64::MAX {
                let p = w * 64 + (!taken).trailing_zeros() as usize;
                return (p < to).then_some(p as Port);
            }
            ix = (w + 1) * 64;
        }
        None
    }

    /// Marks a specific port as bound (for well-known server ports).
    ///
    /// Returns `false` if the port is already taken.
    pub fn bind(&mut self, port: Port) -> bool {
        self.in_use.insert(usize::from(port))
    }

    /// Releases a port into TIME_WAIT until `until`.
    pub fn release_time_wait(&mut self, port: Port, until: SimTime) {
        if !self.in_use.remove(usize::from(port)) {
            return;
        }
        if self.time_wait.back().is_none_or(|&(at, _)| at <= until) {
            self.time_wait.push_back((until, port));
        } else {
            // An earlier expiry than the newest: keep the queue sorted,
            // after any entries that expire at the same instant.
            let ix = self.time_wait.partition_point(|&(at, _)| at <= until);
            self.time_wait.insert(ix, (until, port));
        }
        self.waiting.insert(usize::from(port));
    }

    /// Releases a port immediately (abortive close — no TIME_WAIT).
    pub fn release(&mut self, port: Port) {
        self.in_use.remove(usize::from(port));
    }

    /// Number of ports currently bound.
    pub fn in_use(&self) -> usize {
        self.in_use.count()
    }

    /// Number of ports sitting in TIME_WAIT.
    pub fn in_time_wait(&self) -> usize {
        self.waiting.count()
    }

    /// Earliest TIME_WAIT expiry, if any.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.time_wait.front().map(|&(at, _)| at)
    }

    /// Folds the allocator's semantic state into `h`. Each port set is
    /// folded as its size plus the XOR of its ports' digests, and the
    /// TIME_WAIT queue as one group per distinct expiry.
    pub fn fingerprint_into(&self, h: &mut Fnv) {
        h.write_u64(u64::from(self.lo));
        h.write_u64(u64::from(self.hi));
        h.write_u64(u64::from(self.next));
        let xor_of = |set: &PagedBits| {
            let mut acc = 0u64;
            set.for_each_nonzero_word(|w, mut word| {
                while word != 0 {
                    let mut e = Fnv::new();
                    e.write_u64((w * 64 + word.trailing_zeros() as usize) as u64);
                    acc ^= e.finish();
                    word &= word - 1;
                }
            });
            acc
        };
        h.write_len(self.in_use.count());
        h.write_u64(xor_of(&self.in_use));
        h.write_len(self.waiting.count());
        h.write_u64(xor_of(&self.waiting));
        let tw = &self.time_wait;
        let expiries = tw
            .iter()
            .zip(tw.iter().skip(1))
            .filter(|(a, b)| a.0 != b.0)
            .count()
            + usize::from(!tw.is_empty());
        h.write_len(expiries);
        let mut i = 0;
        while i < tw.len() {
            let at = tw[i].0;
            let n = tw.range(i..).take_while(|&&(t, _)| t == at).count();
            h.write_u64(at.as_nanos());
            h.write_len(n);
            for &(_, p) in tw.range(i..i + n) {
                h.write_u64(u64::from(p));
            }
            i += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;

    #[test]
    fn allocates_distinct_ports() {
        let mut a = PortAllocator::new(10, 14);
        let t = SimTime::ZERO;
        let mut got = vec![
            a.alloc(t).unwrap(),
            a.alloc(t).unwrap(),
            a.alloc(t).unwrap(),
            a.alloc(t).unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, vec![10, 11, 12, 13]);
        assert_eq!(a.alloc(t), None);
    }

    #[test]
    fn released_ports_are_reusable() {
        let mut a = PortAllocator::new(10, 12);
        let t = SimTime::ZERO;
        let p = a.alloc(t).unwrap();
        a.alloc(t).unwrap();
        assert_eq!(a.alloc(t), None);
        a.release(p);
        assert_eq!(a.alloc(t), Some(p));
    }

    #[test]
    fn time_wait_blocks_reuse_until_expiry() {
        let mut a = PortAllocator::new(10, 11);
        let t0 = SimTime::ZERO;
        let p = a.alloc(t0).unwrap();
        let expiry = t0 + SimDuration::from_secs(60);
        a.release_time_wait(p, expiry);
        assert_eq!(a.in_time_wait(), 1);
        assert_eq!(a.alloc(SimTime::from_secs(59)), None);
        assert_eq!(a.alloc(expiry), Some(p));
        assert_eq!(a.in_time_wait(), 0);
    }

    #[test]
    fn bind_well_known_port() {
        let mut a = PortAllocator::new(10, 20);
        assert!(a.bind(80));
        assert!(!a.bind(80));
        a.release(80);
        assert!(a.bind(80));
    }

    #[test]
    fn next_expiry_reports_earliest() {
        let mut a = PortAllocator::new(10, 20);
        let t = SimTime::ZERO;
        let p1 = a.alloc(t).unwrap();
        let p2 = a.alloc(t).unwrap();
        a.release_time_wait(p1, SimTime::from_secs(60));
        a.release_time_wait(p2, SimTime::from_secs(30));
        assert_eq!(a.next_expiry(), Some(SimTime::from_secs(30)));
    }

    #[test]
    fn allocation_order_is_pinned_across_wrap_reuse_and_exhaustion() {
        // A 130-port range spans three 64-bit words of the bitsets.
        let (lo, hi) = (1000, 1130);
        let mut a = PortAllocator::new(lo, hi);
        let t0 = SimTime::ZERO;
        let first: Vec<Port> = (0..hi - lo).map(|_| a.alloc(t0).unwrap()).collect();
        assert_eq!(first, (lo..hi).collect::<Vec<_>>(), "ascending from lo");
        assert_eq!(a.alloc(t0), None, "exhausted");

        // Free a port in each word, one into TIME_WAIT: the scan resumes
        // after the last allocation (the top of the range), so it wraps
        // and finds the lowest free port first.
        a.release(1100);
        a.release(1003);
        let expiry = SimTime::from_secs(60);
        a.release_time_wait(1070, expiry);
        assert_eq!(a.alloc(t0), Some(1003));
        assert_eq!(a.alloc(t0), Some(1100), "resumes after 1003, skips 1070");
        assert_eq!(a.alloc(t0), None, "1070 still in TIME_WAIT");
        assert_eq!(a.in_use(), 129);
        assert_eq!(a.in_time_wait(), 1);

        // After expiry the waiting port is reusable, found by wrapping.
        assert_eq!(a.alloc(expiry), Some(1070));
        assert_eq!(a.in_time_wait(), 0);
        assert_eq!(a.alloc(expiry), None);

        // Round-robin, not lowest-first: after 1070 the next free port
        // at or above 1071 wins over a lower one.
        a.release(1010);
        a.release(1120);
        assert_eq!(a.alloc(expiry), Some(1120));
        assert_eq!(a.alloc(expiry), Some(1010));
    }

    #[test]
    fn out_of_order_time_wait_releases_expire_in_expiry_order() {
        let mut a = PortAllocator::new(10, 20);
        let t = SimTime::ZERO;
        let ports: Vec<Port> = (0..4).map(|_| a.alloc(t).unwrap()).collect();
        a.release_time_wait(ports[0], SimTime::from_secs(50));
        a.release_time_wait(ports[1], SimTime::from_secs(30));
        a.release_time_wait(ports[2], SimTime::from_secs(50));
        a.release_time_wait(ports[3], SimTime::from_secs(30));
        assert_eq!(a.next_expiry(), Some(SimTime::from_secs(30)));
        let order: Vec<Port> = a.time_wait.iter().map(|&(_, p)| p).collect();
        assert_eq!(order, [ports[1], ports[3], ports[0], ports[2]]);
        a.expire(SimTime::from_secs(30));
        assert_eq!(a.in_time_wait(), 2);
        assert_eq!(a.next_expiry(), Some(SimTime::from_secs(50)));
    }

    #[test]
    fn exhaustion_reproduces_paper_limit() {
        // Faster than 1000 conns/s with 60s TIME_WAIT exhausts a
        // 60000-port range in under a minute — the reason the paper ran
        // 35,000 connections per benchmark and then drained.
        let mut a = PortAllocator::ephemeral();
        let mut t = SimTime::ZERO;
        let mut failed_at = None;
        for i in 0..70_000u64 {
            t = SimTime::from_micros(i * 900); // ~1111 conns per second.
            match a.alloc(t) {
                Some(p) => a.release_time_wait(p, t + SimDuration::from_secs(60)),
                None => {
                    failed_at = Some(i);
                    break;
                }
            }
        }
        assert_eq!(
            failed_at,
            Some(60_000),
            "exhausts exactly at the range size"
        );
        // After the drain the allocator recovers fully.
        a.expire(t + SimDuration::from_secs(61));
        assert_eq!(a.in_time_wait(), 0);
        assert!(a.alloc(t + SimDuration::from_secs(61)).is_some());
    }
}
