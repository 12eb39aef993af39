//! The benchmark's worlds: four workloads, the server each one runs,
//! one untraced world run stepped in one-simulated-second slices, and
//! the simulated outcome that every world is checked on.

use std::time::{Duration, Instant};

use devpoll::{DevPollBackend, EventBackend, StockPollBackend};
use httperf::{RunParams, RunReport, ServerKind, Testbed};
use servers::{PhConfig, Phhttpd, Server, ServerConfig, ServerCtx, Thttpd};
use simcore::time::{SimDuration, SimTime};

use crate::heap;
use crate::ledger::Timed;
use crate::yardstick;

/// The event mechanisms the workloads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// thttpd over stock `poll()`.
    Poll,
    /// thttpd over `/dev/poll` with hints and the mmap result area.
    DevPoll,
    /// phhttpd over POSIX RT signals.
    Phhttpd,
}

impl Mechanism {
    /// The same server as an `httperf` run kind.
    pub fn kind(self) -> ServerKind {
        match self {
            Mechanism::Poll => ServerKind::ThttpdPoll,
            Mechanism::DevPoll => ServerKind::ThttpdDevPoll,
            Mechanism::Phhttpd => ServerKind::Phhttpd,
        }
    }
}

/// One named workload: a mechanism and a world shape per seed.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Server and event mechanism.
    pub mechanism: Mechanism,
    /// Targeted request rate, requests per simulated second.
    pub rate: f64,
    /// Held-open (inactive) connections.
    pub inactive: usize,
    /// Active connections per world.
    pub conns: u64,
    /// The million-lane shape: more client hosts, raised fd limits and
    /// backlog, a warmup long enough to establish the population, and
    /// the `mem.*` probes.
    pub held_open: bool,
    /// Client timeouts are part of the simulated outcome (recorded in
    /// the references, not a failure): at 10^5 held-open connections
    /// thttpd's once-a-second idle scan charges simulated CPU for every
    /// connection, and requests that queue behind it can time out.
    pub timeouts_expected: bool,
}

/// The `slice_ms.tail` percentile. A 30-second invocation steps 1,800
/// to 7,500 one-second slices, so p95 leaves at least 90 beyond it on
/// every workload. Higher percentiles measure the host more than the
/// simulator: p99 sits on the edge of the ~1% of slices a host
/// interruption lands in and flips between the two from one invocation
/// to the next, and p98 and p99 spread about twice as far as p95 when
/// the host is busy.
pub const TAIL_Q: f64 = 0.95;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "devpoll-paper",
        mechanism: Mechanism::DevPoll,
        rate: 1000.0,
        inactive: 501,
        conns: 30_000,
        held_open: false,
        timeouts_expected: false,
    },
    Workload {
        name: "poll-scan",
        mechanism: Mechanism::Poll,
        rate: 600.0,
        inactive: 501,
        conns: 30_000,
        held_open: false,
        timeouts_expected: false,
    },
    Workload {
        name: "rtsig-signals",
        mechanism: Mechanism::Phhttpd,
        rate: 700.0,
        inactive: 251,
        conns: 30_000,
        held_open: false,
        timeouts_expected: false,
    },
    Workload {
        name: "held-open",
        mechanism: Mechanism::DevPoll,
        rate: 500.0,
        inactive: 100_000,
        conns: 2_000,
        held_open: true,
        timeouts_expected: true,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The run parameters of this workload's world for `seed`.
    pub fn params(&self, seed: u64) -> RunParams {
        let mut p = RunParams::paper(self.mechanism.kind(), self.rate, self.inactive)
            .with_conns(self.conns)
            .with_seed(seed);
        if self.held_open {
            // The shape of the figures' million lane: a client host per
            // 50k held-open connections, descriptor limits that fit the
            // population, a warmup that spreads the connects, and a
            // backlog raised the way a real deployment raises somaxconn.
            p = p
                .with_mem_probes()
                .with_client_hosts(self.inactive.div_ceil(50_000))
                .with_server_fd_limit(self.inactive + 4_096)
                .with_client_fd_limit(self.inactive + 65_536);
            p.load.warmup = SimDuration::from_millis((self.inactive as u64 / 4).max(2_500));
            p.server.idle_timeout = SimDuration::from_secs(600);
            p.server.backlog = 4_096;
        }
        p
    }

    /// The same configuration with no connections at all: the fixed
    /// heap a world costs before it simulates anything.
    pub fn empty_params(&self) -> RunParams {
        let mut p = self.params(0);
        p.load.total_conns = 0;
        p.load.inactive = 0;
        p
    }
}

/// Builds the workload's server on `ctx`, as `httperf::run_one` builds
/// it. With `traced` the event backend is wrapped in the ledger's timing
/// adapter.
pub fn build_server(
    mechanism: Mechanism,
    ctx: &mut ServerCtx<'_>,
    cfg: ServerConfig,
    traced: bool,
) -> Box<dyn Server> {
    match mechanism {
        Mechanism::Poll => thttpd(ctx, StockPollBackend::new(), cfg, traced),
        Mechanism::DevPoll => thttpd(ctx, DevPollBackend::new(), cfg, traced),
        Mechanism::Phhttpd => Box::new(Phhttpd::new(ctx, cfg, PhConfig::default())),
    }
}

fn thttpd<B: EventBackend + 'static>(
    ctx: &mut ServerCtx<'_>,
    backend: B,
    cfg: ServerConfig,
    traced: bool,
) -> Box<dyn Server> {
    if traced {
        Box::new(Thttpd::new(ctx, Timed::new(backend), cfg))
    } else {
        Box::new(Thttpd::new(ctx, backend, cfg))
    }
}

/// Builds a world for `params`: the testbed and its server.
pub fn build_world(
    mechanism: Mechanism,
    params: &RunParams,
    traced: bool,
) -> (Testbed, Box<dyn Server>) {
    let mut bed = Testbed::new(params.cost, params.tcp, params.link, params.load.clone());
    let server = {
        let mut ctx = ServerCtx {
            kernel: &mut bed.kernel,
            net: &mut bed.net,
            registry: &mut bed.registry,
            now: SimTime::ZERO,
        };
        build_server(mechanism, &mut ctx, params.server, traced)
    };
    (bed, server)
}

/// The simulated outcome of one world: deterministic per seed, and what
/// a reference records.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Connections attempted.
    pub attempted: u64,
    /// Successful replies.
    pub replies: u64,
    /// Errors by kind: timeouts, refused, fd shortage, ports exhausted,
    /// resets.
    pub errors: [u64; 5],
    /// Simulated median connection time, ms.
    pub median_ms: f64,
    /// Simulated p90 connection time, ms.
    pub p90_ms: f64,
    /// Digest of the end-of-run probe snapshot.
    pub digest: String,
}

impl Outcome {
    /// The outcome a run report carries.
    pub fn of(report: &mut RunReport) -> Outcome {
        let e = report.errors;
        Outcome {
            attempted: report.attempted,
            replies: report.replies,
            errors: [
                e.timeouts,
                e.refused,
                e.fd_shortage,
                e.ports_exhausted,
                e.resets,
            ],
            median_ms: report.median_latency_ms(),
            p90_ms: report.latency_quantile_ms(0.9),
            digest: report.probe_digest_hex(),
        }
    }

    /// One reference line: `workload seed attempted replies e0..e4
    /// median p90 digest`. Floats print in shortest round-trip form.
    pub fn reference_line(&self, workload: &str, seed: u64) -> String {
        let e = self.errors;
        format!(
            "{workload} {seed} {} {} {} {} {} {} {} {:?} {:?} {}",
            self.attempted,
            self.replies,
            e[0],
            e[1],
            e[2],
            e[3],
            e[4],
            self.median_ms,
            self.p90_ms,
            self.digest
        )
    }
}

/// Counter values by name from a probe snapshot's JSON lines.
pub fn counters(report: &RunReport) -> Vec<(String, u64)> {
    let json = report.probe.to_json_lines();
    json.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("{\"type\":\"counter\",\"name\":\"")?;
            let (name, rest) = rest.split_once("\",\"value\":")?;
            let value = rest.strip_suffix('}')?.parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

/// Checks that hold for every seed: every connection attempted and
/// answered, with no error but the expected timeouts, and each bypass
/// workload really bypasses its layer. Returns the first violation.
pub fn check_invariants(
    w: &Workload,
    outcome: &Outcome,
    counters: &[(String, u64)],
) -> Result<(), String> {
    if outcome.attempted != w.conns {
        return Err(format!(
            "attempted {} of {} connections",
            outcome.attempted, w.conns
        ));
    }
    let [timeouts, other @ ..] = outcome.errors;
    let resolved = outcome.replies + timeouts == w.conns;
    if !resolved || other.iter().any(|&e| e > 0) || (timeouts > 0 && !w.timeouts_expected) {
        return Err(format!(
            "{} replies and errors {:?} for {} connections",
            outcome.replies, outcome.errors, w.conns
        ));
    }
    let nonzero = |prefix: &str| {
        counters
            .iter()
            .find(|(k, v)| k.starts_with(prefix) && *v > 0)
            .map(|(k, v)| format!("{k}={v}"))
    };
    let bypassed: &[&str] = match w.mechanism {
        // RT signals only: no poll(), no /dev/poll, no fallback.
        Mechanism::Phhttpd => &[
            "poll.",
            "devpoll.",
            "server.mode_switches",
            "server.overflows",
        ],
        // Stock poll(): the /dev/poll device is never touched.
        Mechanism::Poll => &["devpoll."],
        Mechanism::DevPoll => &["poll."],
    };
    for prefix in bypassed {
        if let Some(hit) = nonzero(prefix) {
            return Err(format!(
                "{} should bypass {prefix}* but counted {hit}",
                w.name
            ));
        }
    }
    Ok(())
}

/// Host measurements of one untraced world.
#[derive(Debug, Clone)]
pub struct WorldRun {
    /// The simulated outcome.
    pub outcome: Outcome,
    /// Probe counters at the end of the run.
    pub counters: Vec<(String, u64)>,
    /// Events dispatched.
    pub events: u64,
    /// Simulated seconds.
    pub sim_secs: f64,
    /// Peak server endpoints.
    pub eps_peak: u64,
    /// Connections simulated: active attempted plus held-open.
    pub conns: u64,
    /// Host time from the start of construction to the first timed
    /// simulated instant: testbed, server, server start, load bootstrap
    /// and the drain at time zero.
    pub setup: Duration,
    /// Host time of the whole world, construction to report, without
    /// the yardstick's own time.
    pub wall: Duration,
    /// Host time of each one-simulated-second slice.
    pub slices: Vec<Duration>,
    /// How much slower than the reference the host ran during the
    /// world, from the yardstick measured before construction and
    /// before each slice (see [`crate::yardstick`]).
    pub slowdown: f64,
    /// Peak live heap during the world, above the heap live before it.
    pub peak_heap: u64,
}

/// Runs one world untraced, stepping `Testbed::run` one simulated
/// second at a time.
pub fn run_world(w: &Workload, params: &RunParams) -> WorldRun {
    // One yardstick time per slice plus one for setup, allocated before
    // the heap baseline so the world's heap does not include it.
    let mut probes = Vec::with_capacity(params.horizon.as_millis() as usize / 1000 + 2);
    let base = heap::live();
    heap::reset_peak();
    probes.push(yardstick::measure());
    let started = Instant::now();
    let (mut bed, mut server) = build_world(w.mechanism, params, false);
    bed.start(server.as_mut());
    let setup = started.elapsed();
    let slices = run_sliced(&mut bed, server.as_mut(), params.horizon, &mut probes);
    let mut report = bed.report(server.as_ref());
    drop(server);
    let wall = started.elapsed() - probes[1..].iter().sum::<Duration>();
    let peak_heap = heap::peak().saturating_sub(base);
    WorldRun {
        outcome: Outcome::of(&mut report),
        conns: report.attempted + w.inactive as u64,
        counters: counters(&report),
        events: report.events,
        sim_secs: report.sim_secs,
        eps_peak: report.mem_eps_peak,
        setup,
        wall,
        slices,
        slowdown: yardstick::slowdown(&probes),
        peak_heap,
    }
}

/// Advances a started testbed to completion (or `horizon`) in steps of
/// one simulated second; returns the host time of each step. Before
/// each step it measures the yardstick and appends the time to
/// `probes`.
pub fn run_sliced(
    bed: &mut Testbed,
    server: &mut dyn Server,
    horizon: SimTime,
    probes: &mut Vec<Duration>,
) -> Vec<Duration> {
    let mut slices = Vec::new();
    let mut until = SimTime::ZERO;
    while !bed.load.done() && until < horizon {
        until = (until + SimDuration::from_secs(1)).min(horizon);
        probes.push(yardstick::measure());
        let t = Instant::now();
        bed.run(server, until);
        slices.push(t.elapsed());
    }
    slices
}

/// Peak heap of the workload's empty world, above the heap live before
/// it: the fixed cost a world pays before it simulates anything.
pub fn empty_world_heap(w: &Workload) -> u64 {
    run_world(w, &w.empty_params()).peak_heap
}
