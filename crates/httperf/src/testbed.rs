//! The testbed orchestrator: two hosts on a switch, a server process on
//! one, the load generator on the other — the paper's experimental
//! set-up (§5) as one deterministic co-simulation loop.

use devpoll::DevPollRegistry;
use simcore::queue::TimerQueue;
use simcore::stats::RateSummary;
use simcore::time::SimTime;
use simkernel::{CostModel, Kernel, KernelEvent};
use simnet::{HostId, LinkConfig, NetNotify, Network, SockAddr, TcpConfig};

use servers::{Server, ServerCtx};

use crate::load::{LoadConfig, LoadGen, LoadTimer};
use crate::report::RunReport;

/// The client (load-driving) host — the paper's 4-way Xeon.
pub const CLIENT_HOST: HostId = HostId(0);
/// The server host — the paper's 400 MHz K6-2.
pub const SERVER_HOST: HostId = HostId(1);

/// The assembled world.
pub struct Testbed {
    /// The network fabric.
    pub net: Network,
    /// The server host's kernel.
    pub kernel: Kernel,
    /// `/dev/poll` instances.
    pub registry: DevPollRegistry,
    /// The load generator.
    pub load: LoadGen,
    /// Load-generator timers, one lane per kind (see [`timer_lane`]).
    timers: TimerQueue<LoadTimer>,
    now: SimTime,
    /// Simulation events dispatched so far: network notifies, kernel
    /// events and load-generator timer firings. The numerator of the
    /// throughput lane in `BENCH.json` (events per wall-second).
    events: u64,
    /// Reused across `drain_at` iterations so the hot loop never
    /// allocates per tick.
    notify_scratch: Vec<NetNotify>,
    kevent_scratch: Vec<KernelEvent>,
    new_timer_scratch: Vec<(SimTime, LoadTimer)>,
}

impl Testbed {
    /// Builds a testbed with the given stacks and load.
    pub fn new(cost: CostModel, tcp: TcpConfig, link: LinkConfig, load_cfg: LoadConfig) -> Testbed {
        // Hosts: the client, the server, plus any extra client machines
        // the inactive population round-robins over (numbered from 2).
        let hosts = 2 + load_cfg.client_hosts.saturating_sub(1);
        let net = Network::new(tcp, link, hosts);
        let kernel = Kernel::new(SERVER_HOST, cost);
        let load = LoadGen::new(load_cfg, CLIENT_HOST, SockAddr::new(SERVER_HOST, 80));
        Testbed {
            net,
            kernel,
            registry: DevPollRegistry::new(),
            load,
            timers: TimerQueue::new(),
            now: SimTime::ZERO,
            events: 0,
            notify_scratch: Vec::new(),
            kevent_scratch: Vec::new(),
            new_timer_scratch: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Simulation events dispatched so far (see the `events` field).
    pub fn events(&self) -> u64 {
        self.events
    }

    fn schedule(&mut self, at: SimTime, t: LoadTimer) {
        self.timers.push(at, Some(timer_lane(t)), t);
    }

    /// Starts the server and arms the load generator.
    pub fn start(&mut self, server: &mut dyn Server) {
        let mut ctx = ServerCtx {
            kernel: &mut self.kernel,
            net: &mut self.net,
            registry: &mut self.registry,
            now: self.now,
        };
        server
            .start(&mut ctx)
            .expect("invariant: server start on a fresh testbed cannot fail");
        let timers = self.load.bootstrap(self.now);
        // One `NextArrival`, then the held-open population's staggered
        // reopens: size their lane once instead of regrowing it.
        self.timers
            .reserve(timer_lane(LoadTimer::ReopenInactive), timers.len());
        for (at, t) in timers {
            self.schedule(at, t);
        }
        self.drain_at(self.now, server);
    }

    /// Processes everything due at exactly `now` until quiescent.
    // #[hot_path] — simcheck bans per-call allocation in this function
    fn drain_at(&mut self, now: SimTime, server: &mut dyn Server) {
        loop {
            // Network deliveries and their fan-out.
            let mut notifies = std::mem::take(&mut self.notify_scratch);
            notifies.clear();
            self.net.advance_into(now, &mut notifies);
            self.events += notifies.len() as u64;
            let mut new_timers = std::mem::take(&mut self.new_timer_scratch);
            for n in &notifies {
                self.kernel.on_net(now, n);
                new_timers.extend(self.load.on_net(&mut self.net, now, n));
            }
            self.notify_scratch = notifies;
            for (at, t) in new_timers.drain(..) {
                self.schedule(at, t);
            }
            self.new_timer_scratch = new_timers;

            // Kernel events: hints and runnable processes.
            let mut kevents = std::mem::take(&mut self.kevent_scratch);
            kevents.clear();
            self.kernel.advance_into(now, &mut kevents);
            self.events += kevents.len() as u64;
            for &e in &kevents {
                match e {
                    KernelEvent::FdEvent { pid, fd, .. } => {
                        self.registry.on_fd_event(&mut self.kernel, now, pid, fd);
                    }
                    KernelEvent::ProcRunnable { pid } => {
                        if server.handles(pid) {
                            let mut ctx = ServerCtx {
                                kernel: &mut self.kernel,
                                net: &mut self.net,
                                registry: &mut self.registry,
                                now,
                            };
                            server.run_batch_for(&mut ctx, pid);
                        }
                    }
                }
            }
            self.kevent_scratch = kevents;

            // Load-generator timers due now.
            while let Some((_, t)) = self.timers.pop_due(now) {
                self.events += 1;
                let follow = self.load.on_timer(&mut self.net, now, t);
                for (at, t) in follow {
                    self.schedule(at, t);
                }
            }

            // Quiescence test: actions above may have scheduled more
            // work due at this same instant (a syscall queued segments,
            // a wakeup became runnable, a timer follow-up landed on
            // `now`). The O(1) `has_work_at` probes replace a full —
            // and usually empty — extra pass through every phase.
            let more = self.net.has_work_at(now)
                || self.kernel.has_work_at(now)
                || self.timers.has_due(now);
            if !more {
                break;
            }
        }
    }

    fn next_deadline(&mut self) -> Option<SimTime> {
        let mut next = self.net.next_deadline();
        if let Some(k) = self.kernel.next_deadline() {
            next = Some(next.map_or(k, |n| n.min(k)));
        }
        if let Some(t) = self.timers.next_deadline() {
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        next
    }

    /// Runs until the load completes or `horizon` passes. Returns the
    /// end-of-run time.
    pub fn run(&mut self, server: &mut dyn Server, horizon: SimTime) -> SimTime {
        while !self.load.done() {
            let Some(next) = self.next_deadline() else {
                break; // Stalled: nothing left to do.
            };
            if next > horizon {
                break;
            }
            debug_assert!(next >= self.now, "time went backwards");
            self.now = next;
            self.drain_at(next, server);
        }
        self.now
    }

    /// Produces the run report.
    pub fn report(self, server: &dyn Server) -> RunReport {
        let Testbed {
            load,
            now,
            mut kernel,
            net,
            registry,
            events,
            ..
        } = self;
        let kernel_wakeups = kernel.stats().wakeups;
        // Fold the subsystem counters that live outside the kernel into
        // its registry so one snapshot carries the whole run.
        server.metrics().fold_into(kernel.probe_mut());
        net.stats().fold_into(kernel.probe_mut());
        kernel
            .probe_mut()
            .gauge_set("tcp.time_wait", net.time_wait_count(SERVER_HOST) as u64);
        // Memory lane: server-side heap high-water (paged stores never
        // free pages) over the peak endpoint population.
        let mem_server_bytes = (kernel.mem_bytes() + registry.mem_bytes()) as u64;
        let mem_eps_peak = kernel.eps_peak() as u64;
        if load.config().mem_probes {
            let emfile = kernel.stats().emfile;
            let probe = kernel.probe_mut();
            probe.gauge_set("mem.server.bytes", mem_server_bytes);
            probe.gauge_set("mem.server.eps_peak", mem_eps_peak);
            probe.gauge_set("mem.server.devpoll_bytes", registry.mem_bytes() as u64);
            probe.gauge_set(
                "mem.client.bytes",
                (load.mem_bytes() + net.conn_mem_bytes()) as u64,
            );
            if emfile > 0 {
                probe.add("kernel.emfile", emfile);
            }
        }
        let probe = kernel.probe().snapshot();
        let trace = kernel.trace().dump();
        let (span_chrome, span_folded) = if kernel.spans().is_empty() {
            (String::new(), String::new())
        } else {
            (kernel.spans().chrome_trace(), kernel.spans().folded())
        };
        // The measured interval is the arrival period: stragglers resolve
        // (as errors) up to a client-timeout later, but windows after the
        // last launched request would only dilute the rate statistics.
        let end = load.last_arrival.max(SimTime::ZERO + load.config().warmup);
        let sim_end = load.last_resolution.max(now);
        let attempted = load.attempted();
        let target_rate = load.config().rate;
        let inactive = load.config().inactive;
        let LoadGen {
            sampler,
            latencies_ms,
            errors,
            replies,
            ..
        } = load;
        let rates = sampler.finish(end);
        RunReport {
            server: server.name(),
            target_rate,
            inactive,
            attempted,
            replies,
            errors,
            rate: RateSummary::of(&rates),
            latencies_ms,
            sim_secs: sim_end.as_secs_f64(),
            events,
            server_metrics: server.metrics(),
            kernel_wakeups,
            probe,
            trace,
            span_chrome,
            span_folded,
            mem_server_bytes,
            mem_eps_peak,
        }
    }
}

/// Timer-queue lane of a load-generator timer: its kind. Each kind is
/// armed a fixed delay after the current instant (`Timeout` + client
/// timeout, `SendRequest` + think time, `ReopenInactive` +100/+50 ms)
/// or, for `NextArrival`, one at a time, so each lane's deadlines
/// arrive in order. The queue sends any exception, such as a reopen
/// due before the last of the bootstrap's staggered reopens, to its
/// fallback heap.
fn timer_lane(t: LoadTimer) -> u64 {
    match t {
        LoadTimer::NextArrival => 0,
        LoadTimer::Timeout(_) => 1,
        LoadTimer::ReopenInactive => 2,
        LoadTimer::SendRequest(_) => 3,
    }
}

/// Convenience: builds a default testbed for `load`.
pub fn default_testbed(load: LoadConfig) -> Testbed {
    Testbed::new(
        CostModel::k6_2_400mhz(),
        TcpConfig::default(),
        LinkConfig::default(),
        load,
    )
}
