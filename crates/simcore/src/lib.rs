#![warn(missing_docs)]

//! `simcore` — deterministic discrete-event simulation primitives.
//!
//! This crate is the foundation of the reproduction of *Scalable Network
//! I/O in Linux* (Provos & Lever, USENIX 2000). It provides:
//!
//! * [`time`] — the simulated clock ([`time::SimTime`],
//!   [`time::SimDuration`]);
//! * [`queue`] — the one event queue every deadline source runs on
//!   ([`queue::TimerQueue`]: `(deadline, push order)` pops, FIFO lanes
//!   in front of a fallback heap);
//! * [`rng`] — seeded, fork-able randomness ([`rng::SimRng`]);
//! * [`stats`] — measurement primitives (online moments, exact quantiles,
//!   the per-window [`stats::RateSampler`] behind the paper's reply-rate
//!   plots);
//! * [`series`] — figure/series containers with CSV and ASCII rendering;
//! * [`probe`] — the cross-crate metric registry (counters, gauges,
//!   log2 histograms) behind every run's observability snapshot;
//! * [`span`] — deterministic scoped span tracing, the latency-anatomy
//!   layer ([`span::SpanTracer`]).
//!
//! Everything is single-threaded and deterministic: a run is exactly
//! reproducible from its RNG seed.

pub mod fingerprint;
pub mod paged;
pub mod probe;
pub mod queue;
pub mod rng;
pub mod series;
pub mod span;
pub mod stats;
pub mod time;
pub mod trace;

pub use paged::{PagedBits, PagedSlots, PAGE_SLOTS};
pub use probe::{Gauge, Histogram, MetricRegistry, Snapshot};
pub use queue::TimerQueue;
pub use rng::SimRng;
pub use span::{Phase, SpanGuard, SpanRecord, SpanTracer};
pub use stats::{OnlineStats, Quantiles, RateSampler, RateSummary};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEntry};
