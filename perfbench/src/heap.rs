//! Counting global allocator: live and peak bytes, allocation counts,
//! and a per-layer allocation tally charged to whichever layer's call
//! is open (see [`crate::ledger`]).
//!
//! The benchmark drives one world at a time on one thread. The peak
//! update is a load/compare/store rather than a read-modify-write loop,
//! so concurrent allocations (the test harness's threads) can miss a
//! peak; the counters themselves stay exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Number of allocation accounts: index 0 is "no layer open", the rest
/// are [`crate::ledger::Crate`] values.
pub const ACCOUNTS: usize = 6;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static PROCESS_PEAK: AtomicU64 = AtomicU64::new(0);
static CURRENT: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: [AtomicU64; ACCOUNTS] = [const { AtomicU64::new(0) }; ACCOUNTS];

/// The counting allocator; all storage comes from [`System`].
pub struct Counting;

impl Counting {
    fn grew(size: usize) {
        let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
        if live > PEAK.load(Relaxed) {
            PEAK.store(live, Relaxed);
            if live > PROCESS_PEAK.load(Relaxed) {
                PROCESS_PEAK.store(live, Relaxed);
            }
        }
        ALLOCS[CURRENT.load(Relaxed)].fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the bookkeeping touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            Self::grew(new_size);
        }
        p
    }
}

/// Live heap bytes now.
pub fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// Peak live heap bytes since start or the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}

/// Peak live heap bytes since process start.
pub fn process_peak() -> u64 {
    PROCESS_PEAK.load(Relaxed)
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Charges allocations from now on to `account`; returns the previous
/// account so the caller can restore it.
pub fn charge_to(account: usize) -> usize {
    CURRENT.swap(account, Relaxed)
}

/// Allocation counts per account, since process start.
pub fn allocs() -> [u64; ACCOUNTS] {
    std::array::from_fn(|i| ALLOCS[i].load(Relaxed))
}
