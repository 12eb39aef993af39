//! The host-speed yardstick: a fixed reference loop, timed before every
//! world and every slice, by which the end-to-end host times are scaled.
//!
//! The benchmark runs on a few cores of a shared machine. How fast that
//! machine runs the simulator drifts with the load of the other tenants:
//! a 30k-connection `devpoll-paper` world took 0.21 s at one moment and
//! 0.41 s a minute later, in the same process, with no steal time and
//! no run-queue wait visible in the guest. Tight loops barely notice (a
//! dependent ALU chain moved ±7%), so the drift is not a clock-speed
//! change; it hits code that misses in the branch predictor and the
//! caches, as the simulator does. This loop does the same, and is timed
//! right after a slice has filled the caches with the world's data. Over
//! minutes of worlds, world time ÷ loop time in 25 s windows spread
//! 2–6% where raw world time spread up to 25%. A warmed-up loop (run twice,
//! the second pass timed) tracked the worlds far worse, 8–16%: what the
//! host's load slows is largely the refill of the caches.
//!
//! The loop is the benchmark's own code and never calls the program, so
//! a program that gets faster or slower moves the scaled times as it
//! moves the raw ones, with one exception: a change that shrinks the
//! world's cache footprint leaves the loop's tables warmer and so reads
//! partly as a faster host. The warm loop was at most about 20% faster
//! than the cold one at the median, which bounds that effect.

use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::time::{Duration, Instant};

const TABLE_LEN: usize = 1 << 16;

/// 256 KiB of pseudo-random words, built at compile time so the
/// yardstick allocates nothing and never shows in the heap metrics.
static TABLE: [u32; TABLE_LEN] = table();

const fn table() -> [u32; TABLE_LEN] {
    let mut t = [0; TABLE_LEN];
    let mut x: u32 = 0x9E37_79B9;
    let mut i = 0;
    while i < TABLE_LEN {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        t[i] = x;
        i += 1;
    }
    t
}

/// Events per measurement: 0.5–0.9 ms on the reference machine, under
/// a tenth of a one-second slice of the paper worlds.
const STEPS: u32 = 8_000;

/// Pending events in the loop's queue.
const EVENTS: usize = 4_096;

/// Distinct event owners; each has a counter in [`TALLY`].
const OWNERS: usize = 1 << 16;

/// Per-owner counters the loop writes: another 256 KiB, static for the
/// same reason as [`TABLE`].
static TALLY: [AtomicU32; OWNERS] = [const { AtomicU32::new(0) }; OWNERS];

/// The loop's time on the machine the benchmark was defined on (a
/// 2-vCPU x86-64 KVM guest, "Intel Xeon Processor", 2.1 GHz nominal)
/// in its fast phases: about its 5th percentile between slices. Scaled
/// times are host times as that machine ran them when little else
/// slowed it.
pub const REFERENCE: Duration = Duration::from_micros(550);

/// Runs the reference loop once and returns its host time. Every call
/// does the same work: a miniature of the simulator's dispatch loop. An
/// event queue (a binary min-heap of `due << 16 | owner`, on the stack)
/// hands out the earliest event; its owner's counter is updated; a
/// random table word picks, through data-dependent branches, the delay
/// of the event that replaces it, for a random owner.
pub fn measure() -> Duration {
    let mut queue = [0u64; EVENTS];
    let started = Instant::now();
    for (i, e) in queue.iter_mut().enumerate() {
        *e = ((i as u64) << 16) | i as u64;
    }
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let top = queue[0];
        let owner = (top & 0xFFFF) as usize;
        let v = TABLE[x as usize & (TABLE_LEN - 1)];
        let tally = &TALLY[owner];
        tally.store(tally.load(Relaxed).wrapping_add(v), Relaxed);
        let delay = if v & 1 == 0 {
            u64::from(v & 0xFF)
        } else if v & 2 == 0 {
            u64::from(v >> 24)
        } else {
            1
        };
        let next = (((top >> 16) + delay + 1) << 16) | ((x >> 20) & 0xFFFF);
        replace_top(&mut queue, next);
    }
    black_box(&queue);
    started.elapsed()
}

/// Replaces the heap's minimum with `e` and sifts it down.
fn replace_top(heap: &mut [u64], e: u64) {
    let mut i = 0;
    loop {
        let l = 2 * i + 1;
        if l >= heap.len() {
            break;
        }
        let c = if l + 1 < heap.len() && heap[l + 1] < heap[l] {
            l + 1
        } else {
            l
        };
        if heap[c] >= e {
            break;
        }
        heap[i] = heap[c];
        i = c;
    }
    heap[i] = e;
}

/// How much slower than the reference the host ran: the median of
/// `samples` ÷ [`REFERENCE`].
pub fn slowdown(samples: &[Duration]) -> f64 {
    let secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    crate::metrics::median(&secs) / REFERENCE.as_secs_f64()
}
