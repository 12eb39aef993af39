//! The cross-crate probe layer: a metric registry every subsystem
//! records into, plus snapshot rendering for reports.
//!
//! Three metric kinds cover the paper's internal quantities:
//!
//! * **counters** — monotonic event counts (driver polls, RT-signal
//!   overflows);
//! * **gauges** — instantaneous levels with a high-water mark (RT queue
//!   depth, interest-table size);
//! * **histograms** — log2-bucketed value distributions (per-syscall
//!   simulated latency, event batch sizes).
//!
//! Metrics are keyed by `&'static str`. A record finds its slot through
//! a small cache keyed by the string's address, so the hot path does no
//! string compare; names are ordered in `BTreeMap`s that only a name's
//! first use and snapshots touch, so every rendered snapshot is
//! deterministic. Two identical seeded runs produce byte-identical
//! snapshots.
//!
//! # Examples
//!
//! ```
//! use simcore::probe::MetricRegistry;
//!
//! let mut probe = MetricRegistry::new();
//! probe.inc("devpoll.scans");
//! probe.gauge_set("rtsig.queue_depth", 7);
//! probe.observe("syscall_ns.read", 2_300);
//! let snap = probe.snapshot();
//! assert_eq!(snap.counter("devpoll.scans"), 1);
//! assert!(snap.to_text().contains("rtsig.queue_depth"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Highest log2 bucket index: values up to `u64::MAX` land in bucket 64.
pub const HIST_MAX_BUCKET: usize = 64;

/// A level with a high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Current value.
    pub value: u64,
    /// Largest value ever set.
    pub high_water: u64,
}

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds exactly the value 0; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`, so `u64::MAX` lands in bucket [`HIST_MAX_BUCKET`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    buckets: [u64; HIST_MAX_BUCKET + 1],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_MAX_BUCKET + 1],
        }
    }
}

/// The log2 bucket index of a value.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (u64::BITS - value.leading_zeros()) as usize
    }
}

/// Inclusive lower bound of a bucket.
pub fn bucket_lo(index: usize) -> u64 {
    if index <= 1 {
        index as u64
    } else {
        1u64 << (index - 1)
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count in the bucket with the given index.
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the log2 buckets
    /// by upper-bound interpolation: the target rank is located in its
    /// bucket, then the estimate interpolates linearly from the bucket's
    /// lower bound toward its upper bound (clamped to the observed
    /// min/max). Exact values are lost to bucketing, so this is an
    /// estimate with at most one-bucket (2×) error — plenty for p50/p90/
    /// p99 tables.
    pub fn quantile_est(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let lo = bucket_lo(i).max(self.min);
                let hi = if i >= HIST_MAX_BUCKET {
                    u64::MAX
                } else {
                    bucket_lo(i + 1).saturating_sub(1)
                }
                .min(self.max);
                let frac = (target - cum) as f64 / c as f64;
                let est = lo as f64 + frac * hi.saturating_sub(lo) as f64;
                return (est as u64).clamp(lo, hi);
            }
            cum += c;
        }
        self.max
    }

    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lo(i), c))
            .collect()
    }
}

/// One metric kind's storage: values in dense slots, named by an
/// ordered map that only first touches and snapshots consult.
#[derive(Debug, Clone)]
struct Family<V> {
    by_name: BTreeMap<&'static str, u32>,
    values: Vec<V>,
}

impl<V> Default for Family<V> {
    fn default() -> Self {
        Family {
            by_name: BTreeMap::new(),
            values: Vec::new(),
        }
    }
}

impl<V: Default> Family<V> {
    /// The slot of `name`, created on its first use.
    fn slot_of(&mut self, name: &'static str) -> u32 {
        let fresh = self.values.len() as u32;
        let slot = *self.by_name.entry(name).or_insert(fresh);
        if slot == fresh {
            self.values.push(V::default());
        }
        slot
    }

    fn get(&self, name: &str) -> Option<&V> {
        self.by_name.get(name).map(|&s| &self.values[s as usize])
    }

    /// `(name, value)` in name order.
    fn iter(&self) -> impl Iterator<Item = (&'static str, &V)> {
        self.by_name
            .iter()
            .map(|(&k, &s)| (k, &self.values[s as usize]))
    }
}

/// Metric kinds, indexing [`CacheEntry::slots`].
const COUNTER: usize = 0;
const GAUGE: usize = 1;
const HIST: usize = 2;

/// No slot for this kind yet.
const NO_SLOT: u32 = u32::MAX;

/// One name alias in the front cache: the address and length of a
/// `&'static str`, and the slot that name has in each family.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    /// 0 marks an empty bucket (a `&str` is never null).
    addr: usize,
    len: u32,
    slots: [u32; 3],
}

const EMPTY: CacheEntry = CacheEntry {
    addr: 0,
    len: 0,
    slots: [NO_SLOT; 3],
};

/// The front cache: an open-addressing table keyed by string *address*,
/// so a record on the hot path hashes one pointer and compares two
/// words, never the string bytes. A `&'static str` is never freed, so
/// an address cannot come to name different bytes. The same name
/// reached through another address misses once, finds its slot in the
/// name-ordered map, and is cached as a second alias.
#[derive(Debug, Clone, Default)]
struct NameCache {
    /// Power-of-two bucket count, or empty before the first record.
    buckets: Vec<CacheEntry>,
    used: usize,
}

impl NameCache {
    /// The first bucket `(addr, len)` probes.
    fn home(&self, addr: usize, len: u32) -> usize {
        let h = (addr as u64 ^ len as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & (self.buckets.len() - 1)
    }

    /// The cached slot of `name` in family `kind`, if any.
    // #[hot_path] — simcheck bans per-call allocation in this function
    #[inline]
    fn get(&self, kind: usize, name: &str) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let (addr, len) = (name.as_ptr() as usize, name.len() as u32);
        let mut i = self.home(addr, len);
        loop {
            let e = &self.buckets[i];
            if (e.addr, e.len) == (addr, len) {
                return (e.slots[kind] != NO_SLOT).then_some(e.slots[kind]);
            }
            if e.addr == 0 {
                return None;
            }
            i = (i + 1) & (self.buckets.len() - 1);
        }
    }

    /// Records `slot` as `name`'s slot in family `kind`.
    fn insert(&mut self, kind: usize, name: &str, slot: u32) {
        if (self.used + 1) * 2 > self.buckets.len() {
            let bigger = vec![EMPTY; (self.buckets.len() * 2).max(32)];
            self.used = 0;
            for e in std::mem::replace(&mut self.buckets, bigger) {
                if e.addr != 0 {
                    *self.entry(e.addr, e.len) = e;
                }
            }
        }
        self.entry(name.as_ptr() as usize, name.len() as u32).slots[kind] = slot;
    }

    /// The bucket holding `(addr, len)`, claimed if it was absent.
    fn entry(&mut self, addr: usize, len: u32) -> &mut CacheEntry {
        let mask = self.buckets.len() - 1;
        let mut i = self.home(addr, len);
        while self.buckets[i].addr != 0
            && (self.buckets[i].addr, self.buckets[i].len) != (addr, len)
        {
            i = (i + 1) & mask;
        }
        let e = &mut self.buckets[i];
        if e.addr == 0 {
            *e = CacheEntry { addr, len, ..EMPTY };
            self.used += 1;
        }
        e
    }
}

/// The registry all subsystems record into.
///
/// Owned by the simulated kernel and reachable from every syscall and
/// device path; end-of-run folding merges counters kept elsewhere (the
/// network stack, server metrics) before a snapshot is taken.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    counters: Family<u64>,
    gauges: Family<Gauge>,
    hists: Family<Histogram>,
    cache: NameCache,
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricRegistry {
        MetricRegistry::default()
    }

    /// The slot of `name` in family `kind`: from the front cache, or on
    /// a miss from [`MetricRegistry::first_touch`].
    // #[hot_path] — simcheck bans per-call allocation in this function
    #[inline]
    fn slot(&mut self, kind: usize, name: &'static str) -> usize {
        match self.cache.get(kind, name) {
            Some(slot) => slot as usize,
            None => self.first_touch(kind, name) as usize,
        }
    }

    /// The slow path of [`MetricRegistry::slot`]: a name's first use
    /// through this address. Finds or creates the name's slot in the
    /// name-ordered map and caches the alias.
    #[inline(never)]
    fn first_touch(&mut self, kind: usize, name: &'static str) -> u32 {
        let slot = match kind {
            COUNTER => self.counters.slot_of(name),
            GAUGE => self.gauges.slot_of(name),
            _ => self.hists.slot_of(name),
        };
        self.cache.insert(kind, name, slot);
        slot
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to a counter.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn add(&mut self, name: &'static str, n: u64) {
        let slot = self.slot(COUNTER, name);
        self.counters.values[slot] += n;
    }

    /// Current counter value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge, updating its high-water mark.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn gauge_set(&mut self, name: &'static str, value: u64) {
        let slot = self.slot(GAUGE, name);
        let g = &mut self.gauges.values[slot];
        g.value = value;
        g.high_water = g.high_water.max(value);
    }

    /// Current gauge state.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges.get(name).copied().unwrap_or_default()
    }

    /// Records a histogram sample.
    // #[hot_path] — simcheck bans per-call allocation in this function
    pub fn observe(&mut self, name: &'static str, value: u64) {
        let slot = self.slot(HIST, name);
        self.hists.values[slot].observe(value);
    }

    /// Histogram access (None if never touched).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.by_name.is_empty()
            && self.gauges.by_name.is_empty()
            && self.hists.by_name.is_empty()
    }

    /// Clears every metric (and the front cache with it).
    pub fn clear(&mut self) {
        *self = MetricRegistry::default();
    }

    /// Takes an immutable, ordered snapshot for rendering and reports.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| (k.to_string(), v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, &g)| (k.to_string(), g))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, h)| (k.to_string(), h.clone()))
                .collect(),
        }
    }
}

/// An ordered, owned copy of the registry at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, Gauge)>,
    hists: Vec<(String, Histogram)>,
}

impl Snapshot {
    /// Counter value by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Gauge by name (zeros if absent).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges
            .iter()
            .find(|(k, _)| k == name)
            .map_or(Gauge::default(), |&(_, g)| g)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Renders an aligned text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .chain(self.gauges.iter().map(|(k, _)| k.len()))
            .chain(self.hists.iter().map(|(k, _)| k.len()))
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<width$}  {v}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (k, g) in &self.gauges {
                let _ = writeln!(out, "  {k:<width$}  {} (high {})", g.value, g.high_water);
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (k, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {k:<width$}  n={} mean={:.1} min={} max={}",
                    h.count(),
                    h.mean(),
                    h.min(),
                    h.max()
                );
                let buckets = h.nonzero_buckets();
                if !buckets.is_empty() {
                    let mut line = String::from("  ");
                    line.push_str(&" ".repeat(width));
                    line.push_str("  ");
                    for (lo, c) in buckets {
                        let _ = write!(line, "[{lo}+]:{c} ");
                    }
                    let _ = writeln!(out, "{}", line.trim_end());
                }
            }
        }
        out
    }

    /// Renders a per-histogram quantile table (p50/p90/p99 by
    /// [`Histogram::quantile_est`] upper-bound interpolation), so phase
    /// and syscall latency histograms are readable without the JSON
    /// export. Kept separate from [`Snapshot::to_text`] so existing
    /// rendered output — and every digest derived from it — stays
    /// byte-identical.
    pub fn quantiles_text(&self) -> String {
        let mut out = String::new();
        if self.hists.is_empty() {
            return out;
        }
        let width = self
            .hists
            .iter()
            .map(|(k, _)| k.len())
            .max()
            .unwrap_or(0)
            .max("histogram".len());
        let _ = writeln!(
            out,
            "  {:<width$}  {:>12} {:>12} {:>12} {:>12}",
            "histogram", "n", "p50", "p90", "p99"
        );
        for (k, h) in &self.hists {
            let _ = writeln!(
                out,
                "  {k:<width$}  {:>12} {:>12} {:>12} {:>12}",
                h.count(),
                h.quantile_est(0.50),
                h.quantile_est(0.90),
                h.quantile_est(0.99),
            );
        }
        out
    }

    /// Renders one JSON object per line (JSON-lines), no tags.
    pub fn to_json_lines(&self) -> String {
        self.to_json_lines_with(&[])
    }

    /// A stable 64-bit digest of the snapshot (FNV-1a over the rendered
    /// JSON lines). Two identical seeded runs produce equal digests on
    /// every platform, so baselines can compare whole probe snapshots as
    /// one number without shipping them.
    pub fn digest(&self) -> u64 {
        fnv1a(self.to_json_lines().as_bytes())
    }

    /// [`Snapshot::digest`] rendered as fixed-width hex, the form stored
    /// in `BENCH.json`.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }

    /// Renders JSON-lines with extra leading string fields on each line
    /// (e.g. `[("server", "devpoll"), ("rate", "700")]`).
    pub fn to_json_lines_with(&self, tags: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let prefix = {
            let mut p = String::new();
            for (k, v) in tags {
                let _ = write!(p, "\"{}\":\"{}\",", escape(k), escape(v));
            }
            p
        };
        for (k, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{{prefix}\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
                escape(k)
            );
        }
        for (k, g) in &self.gauges {
            let _ = writeln!(
                out,
                "{{{prefix}\"type\":\"gauge\",\"name\":\"{}\",\"value\":{},\"high_water\":{}}}",
                escape(k),
                g.value,
                g.high_water
            );
        }
        for (k, h) in &self.hists {
            let mut buckets = String::new();
            for (i, (lo, c)) in h.nonzero_buckets().iter().enumerate() {
                if i > 0 {
                    buckets.push(',');
                }
                let _ = write!(buckets, "[{lo},{c}]");
            }
            let _ = writeln!(
                out,
                "{{{prefix}\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{buckets}]}}",
                escape(k),
                h.count(),
                h.sum(),
                h.min(),
                h.max()
            );
        }
        out
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms —
/// exactly what a checked-in baseline digest needs. Not cryptographic.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Minimal JSON string escaping (metric names and tags are plain ASCII,
/// but be safe).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        // The three edge cases: 0 has its own bucket, 1 starts the log2
        // ladder, u64::MAX lands in the last bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_MAX_BUCKET);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(2), 2);
        assert_eq!(bucket_lo(3), 4);
    }

    #[test]
    fn histogram_observes_edge_values() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(HIST_MAX_BUCKET), 1);
        let nz = h.nonzero_buckets();
        assert_eq!(nz.len(), 3);
        assert_eq!(nz[0], (0, 1));
        assert_eq!(nz[1], (1, 1));
        assert_eq!(nz[2], (1u64 << 63, 1));
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::default();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantile_est_interpolates_toward_upper_bound() {
        let mut h = Histogram::default();
        // 100 samples of 1000: every quantile is inside bucket [512,1023],
        // clamped to the observed min==max.
        for _ in 0..100 {
            h.observe(1000);
        }
        assert_eq!(h.quantile_est(0.50), 1000);
        assert_eq!(h.quantile_est(0.99), 1000);
        // Bimodal: 90 low (value 8) + 10 high (value 5000).
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.observe(8);
        }
        for _ in 0..10 {
            h.observe(5000);
        }
        let p50 = h.quantile_est(0.50);
        assert!((8..=15).contains(&p50), "p50={p50}");
        let p90 = h.quantile_est(0.90);
        assert!((8..=15).contains(&p90), "p90={p90}");
        let p99 = h.quantile_est(0.99);
        assert!((4096..=5000).contains(&p99), "p99={p99}");
        // Degenerate inputs.
        assert_eq!(Histogram::default().quantile_est(0.5), 0);
        assert_eq!(h.quantile_est(0.0), 8);
        assert_eq!(h.quantile_est(1.0), 5000);
    }

    #[test]
    fn quantiles_text_lists_histograms_only() {
        let mut p = MetricRegistry::new();
        p.inc("counter.only");
        assert!(p.snapshot().quantiles_text().is_empty());
        for v in 1..=100u64 {
            p.observe("span_ns.read", v);
        }
        let text = p.snapshot().quantiles_text();
        assert!(text.contains("span_ns.read"));
        assert!(text.contains("p99"));
        assert!(!text.contains("counter.only"));
    }

    #[test]
    fn gauge_tracks_high_water() {
        let mut p = MetricRegistry::new();
        p.gauge_set("q", 3);
        p.gauge_set("q", 9);
        p.gauge_set("q", 2);
        let g = p.gauge("q");
        assert_eq!(g.value, 2);
        assert_eq!(g.high_water, 9);
    }

    #[test]
    fn counters_accumulate() {
        let mut p = MetricRegistry::new();
        p.inc("a");
        p.add("a", 4);
        assert_eq!(p.counter("a"), 5);
        assert_eq!(p.counter("missing"), 0);
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        // Insertion order differs; rendered order must not.
        let mut a = MetricRegistry::new();
        a.inc("z.last");
        a.inc("a.first");
        a.gauge_set("m.mid", 1);
        let mut b = MetricRegistry::new();
        b.gauge_set("m.mid", 1);
        b.inc("a.first");
        b.inc("z.last");
        assert_eq!(a.snapshot().to_text(), b.snapshot().to_text());
        assert_eq!(a.snapshot().to_json_lines(), b.snapshot().to_json_lines());
        let text = a.snapshot().to_text();
        let first = text.find("a.first").unwrap();
        let last = text.find("z.last").unwrap();
        assert!(first < last);
    }

    /// `name` at a fresh heap address as a `&'static str`. The leaked
    /// strings stay reachable from a static, so Miri's leak check
    /// accepts them.
    fn leaked(name: String) -> &'static str {
        static KEEP: std::sync::Mutex<Vec<&'static str>> = std::sync::Mutex::new(Vec::new());
        let s: &'static str = Box::leak(name.into_boxed_str());
        KEEP.lock().expect("test lock").push(s);
        s
    }

    #[test]
    fn aliases_of_one_name_share_a_metric_and_snapshots_ignore_fill_order() {
        // The same name through two distinct addresses: a literal and a
        // leaked heap copy.
        let lit: &'static str = "alias.metric";
        let heap = leaked(lit.to_string());
        assert_ne!(lit.as_ptr(), heap.as_ptr());

        let mut a = MetricRegistry::new();
        a.add(lit, 2);
        a.add(heap, 3);
        a.gauge_set(heap, 9);
        a.gauge_set(lit, 4);
        a.observe(lit, 1);
        a.observe(heap, 100);
        // Enough other names to grow the cache past its first table.
        let names: Vec<&'static str> = (0..100).map(|i| leaked(format!("fill.{i:03}"))).collect();
        for &n in &names {
            a.inc(n);
        }
        a.inc(lit);
        assert_eq!(a.counter("alias.metric"), 6);
        assert_eq!(
            a.gauge("alias.metric"),
            Gauge {
                value: 4,
                high_water: 9
            }
        );
        assert_eq!(a.histogram("alias.metric").map(Histogram::count), Some(2));

        // The same contents recorded in another order, through other
        // aliases, render byte-identically.
        let mut b = MetricRegistry::new();
        for n in names.iter().rev() {
            b.add(n, 1);
        }
        b.observe(heap, 100);
        b.observe(lit, 1);
        b.gauge_set(lit, 9);
        b.add(heap, 6);
        b.gauge_set(heap, 4);
        assert_eq!(a.snapshot().to_text(), b.snapshot().to_text());
        assert_eq!(a.snapshot().to_json_lines(), b.snapshot().to_json_lines());
        assert_eq!(a.snapshot().counters.len(), 101);

        // `clear` forgets the cached slots with the metrics.
        a.clear();
        assert!(a.is_empty());
        a.gauge_set(heap, 1);
        a.inc(lit);
        assert_eq!(a.counter("alias.metric"), 1);
        assert_eq!(a.gauge("alias.metric").high_water, 1);
        assert_eq!(a.histogram("alias.metric"), None);
        assert_eq!(a.snapshot().counters.len(), 1);
    }

    #[test]
    fn json_lines_schema() {
        let mut p = MetricRegistry::new();
        p.inc("c");
        p.gauge_set("g", 2);
        p.observe("h", 5);
        let json = p.snapshot().to_json_lines_with(&[("server", "devpoll")]);
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"server\":\"devpoll\",\"type\":\"counter\""));
        assert!(lines[1].contains("\"high_water\":2"));
        assert!(lines[2].contains("\"buckets\":[[4,1]]"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\ny");
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        // Known FNV-1a vectors pin cross-platform stability.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut a = MetricRegistry::new();
        a.inc("x");
        a.observe("h", 9);
        let mut b = a.clone();
        assert_eq!(a.snapshot().digest(), b.snapshot().digest());
        assert_eq!(a.snapshot().digest_hex().len(), 16);
        b.inc("x");
        assert_ne!(a.snapshot().digest(), b.snapshot().digest());
    }
}
