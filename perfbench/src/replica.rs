//! The traced run: a replica of `Testbed::start`, `run` and `drain_at`
//! built only from public calls into the layers, each call timed by the
//! ledger. It must reproduce the untraced world exactly; any difference
//! in outcome or event count means the replica has diverged.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use httperf::{LoadTimer, RunParams, Testbed};
use servers::{Server, ServerCtx};
use simcore::time::SimTime;
use simkernel::KernelEvent;
use simnet::NetNotify;

use crate::heap;
use crate::ledger::{self, timed, Site, Totals};
use crate::world::{build_world, counters, Outcome, Workload};

/// Counts and gauges of one traced world, beside the ledger's totals.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Simulated outcome; must equal the untraced world's.
    pub outcome: Outcome,
    /// Events dispatched; must equal the untraced report's.
    pub events: u64,
    /// Host time of the whole traced world.
    pub wall: Duration,
    /// Per-site calls and times.
    pub totals: Totals,
    /// Allocations per [`crate::ledger::Crate`] during the world.
    pub allocs: [u64; heap::ACCOUNTS],
    /// Passes through the drain loop.
    pub drain_passes: u64,
    /// Distinct simulated instants drained.
    pub instants: u64,
    /// Notifies returned by `Network::advance_into`.
    pub notifies: u64,
    /// `Network::advance_into` calls that returned none.
    pub empty_advances: u64,
    /// Kernel events returned by `Kernel::advance_into`.
    pub kevents: u64,
    /// Retransmits from `NetStats`.
    pub retransmits: u64,
    /// Refused connects for lack of a port, from `NetStats`.
    pub ports_exhausted: u64,
    /// Hand-summed heap gauges: simnet connections, kernel, `/dev/poll`
    /// registry, load generator.
    pub mem_simnet: u64,
    /// See `mem_simnet`.
    pub mem_simkernel: u64,
    /// See `mem_simnet`.
    pub mem_devpoll: u64,
    /// See `mem_simnet`.
    pub mem_loadgen: u64,
    /// Probe counters at the end of the run.
    pub counters: Vec<(String, u64)>,
}

#[derive(Default)]
struct Replica {
    timers: BinaryHeap<Reverse<(SimTime, u64, LoadTimer)>>,
    timer_seq: u64,
    events: u64,
    drain_passes: u64,
    instants: u64,
    notifies: u64,
    empty_advances: u64,
    kevents: u64,
    notify_scratch: Vec<NetNotify>,
    kevent_scratch: Vec<KernelEvent>,
    new_timer_scratch: Vec<(SimTime, LoadTimer)>,
}

impl Replica {
    fn schedule(&mut self, at: SimTime, t: LoadTimer) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(Reverse((at, seq, t)));
    }

    fn timer_due(&self, now: SimTime) -> bool {
        self.timers
            .peek()
            .is_some_and(|&Reverse((at, _, _))| at <= now)
    }

    /// `Testbed::start`: server start, load bootstrap, drain at zero.
    fn start(&mut self, bed: &mut Testbed, server: &mut dyn Server) {
        let now = SimTime::ZERO;
        let mut ctx = ServerCtx {
            kernel: &mut bed.kernel,
            net: &mut bed.net,
            registry: &mut bed.registry,
            now,
        };
        server
            .start(&mut ctx)
            .expect("invariant: server start on a fresh testbed cannot fail");
        for (at, t) in bed.load.bootstrap(now) {
            self.schedule(at, t);
        }
        self.drain_at(bed, now, server);
    }

    /// `Testbed::drain_at`: everything due at `now` until quiescent.
    fn drain_at(&mut self, bed: &mut Testbed, now: SimTime, server: &mut dyn Server) {
        self.instants += 1;
        loop {
            self.drain_passes += 1;
            let mut notifies = std::mem::take(&mut self.notify_scratch);
            notifies.clear();
            timed(Site::NetAdvance, || {
                bed.net.advance_into(now, &mut notifies)
            });
            self.events += notifies.len() as u64;
            self.notifies += notifies.len() as u64;
            self.empty_advances += u64::from(notifies.is_empty());
            let mut new_timers = std::mem::take(&mut self.new_timer_scratch);
            for n in &notifies {
                timed(Site::KernelOnNet, || bed.kernel.on_net(now, n));
                timed(Site::LoadOnNet, || {
                    new_timers.extend(bed.load.on_net(&mut bed.net, now, n))
                });
            }
            self.notify_scratch = notifies;
            if !new_timers.is_empty() {
                timed(Site::Sched, || {
                    for (at, t) in new_timers.drain(..) {
                        self.schedule(at, t);
                    }
                });
            }
            self.new_timer_scratch = new_timers;

            let mut kevents = std::mem::take(&mut self.kevent_scratch);
            kevents.clear();
            timed(Site::KernelAdvance, || {
                bed.kernel.advance_into(now, &mut kevents)
            });
            self.events += kevents.len() as u64;
            self.kevents += kevents.len() as u64;
            for &e in &kevents {
                match e {
                    KernelEvent::FdEvent { pid, fd, .. } => {
                        timed(Site::DevpollHint, || {
                            bed.registry.on_fd_event(&mut bed.kernel, now, pid, fd)
                        });
                    }
                    KernelEvent::ProcRunnable { pid } => {
                        if server.handles(pid) {
                            let mut ctx = ServerCtx {
                                kernel: &mut bed.kernel,
                                net: &mut bed.net,
                                registry: &mut bed.registry,
                                now,
                            };
                            timed(Site::ServerBatch, || server.run_batch_for(&mut ctx, pid));
                        }
                    }
                }
            }
            self.kevent_scratch = kevents;

            if self.timer_due(now) {
                // The heap work is scheduler time; each firing is a
                // nested load-generator span.
                ledger::enter(Site::Sched);
                while self.timer_due(now) {
                    let Reverse((_, _, t)) = self
                        .timers
                        .pop()
                        .expect("invariant: peeked timer still queued");
                    self.events += 1;
                    let follow = timed(Site::LoadOnTimer, || {
                        bed.load.on_timer(&mut bed.net, now, t)
                    });
                    for (at, t) in follow {
                        self.schedule(at, t);
                    }
                }
                ledger::exit();
            }

            let more = timed(Site::Sched, || {
                bed.net.has_work_at(now) || bed.kernel.has_work_at(now) || self.timer_due(now)
            });
            if !more {
                break;
            }
        }
    }

    fn next_deadline(&self, bed: &Testbed) -> Option<SimTime> {
        let mut next = bed.net.next_deadline();
        if let Some(k) = bed.kernel.next_deadline() {
            next = Some(next.map_or(k, |n| n.min(k)));
        }
        if let Some(&Reverse((t, _, _))) = self.timers.peek() {
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        next
    }

    /// `Testbed::run`: instant by instant until the load completes or
    /// `horizon` passes.
    fn run(&mut self, bed: &mut Testbed, server: &mut dyn Server, horizon: SimTime) {
        while !bed.load.done() {
            let Some(next) = timed(Site::Sched, || self.next_deadline(bed)) else {
                break;
            };
            if next > horizon {
                break;
            }
            self.drain_at(bed, next, server);
        }
    }
}

/// Runs one world through the replica with every layer call timed.
pub fn run_traced(w: &Workload, params: &RunParams, world: u32) -> TracedRun {
    ledger::begin_world(world);
    let allocs_before = heap::allocs();
    let started = Instant::now();
    let (mut bed, mut server) = build_world(w.mechanism, params, true);
    let mut replica = Replica::default();
    replica.start(&mut bed, server.as_mut());
    replica.run(&mut bed, server.as_mut(), params.horizon);
    let stats = bed.net.stats();
    let mem_simnet = bed.net.conn_mem_bytes() as u64;
    let mem_simkernel = bed.kernel.mem_bytes() as u64;
    let mem_devpoll = bed.registry.mem_bytes() as u64;
    let mem_loadgen = bed.load.mem_bytes() as u64;
    let mut report = bed.report(server.as_ref());
    drop(server);
    let wall = started.elapsed();
    let allocs_after = heap::allocs();
    TracedRun {
        outcome: Outcome::of(&mut report),
        events: replica.events,
        wall,
        totals: ledger::totals(),
        allocs: std::array::from_fn(|i| allocs_after[i] - allocs_before[i]),
        drain_passes: replica.drain_passes,
        instants: replica.instants,
        notifies: replica.notifies,
        empty_advances: replica.empty_advances,
        kevents: replica.kevents,
        retransmits: stats.retransmits,
        ports_exhausted: stats.ports_exhausted,
        mem_simnet,
        mem_simkernel,
        mem_devpoll,
        mem_loadgen,
        counters: counters(&report),
    }
}
