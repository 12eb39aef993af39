//! Simulated-cost microbenchmark tables: what one event-collection call
//! costs the simulated 400 MHz K6-2, per mechanism and interest-set
//! size. These are the microscopic numbers behind the macroscopic
//! figures — the per-call costs §3 of the paper argues about.

use devpoll::{sys_poll, DevPollConfig, DevPollRegistry, DvPoll, PollFd};
use simcore::time::{SimDuration, SimTime};
use simkernel::{CostModel, Fd, Kernel, Pid, PollBits};
use simnet::{HostId, LinkConfig, Network, SockAddr, TcpConfig};

struct World {
    net: Network,
    kernel: Kernel,
    registry: DevPollRegistry,
    pid: Pid,
    fds: Vec<Fd>,
}

fn world_with_conns(n: usize) -> World {
    let mut net = Network::new(TcpConfig::default(), LinkConfig::default(), 2);
    let mut kernel = Kernel::new(HostId(1), CostModel::k6_2_400mhz());
    let pid = kernel.spawn(n + 16, 1024);
    kernel.begin_batch(SimTime::ZERO, pid);
    let lfd = kernel
        .sys_listen(&mut net, SimTime::ZERO, pid, 80, 8192)
        .unwrap();
    kernel.end_batch(SimTime::ZERO, pid);
    let mut fds = Vec::new();
    let mut now = SimTime::ZERO;
    for i in 0..n {
        let at = SimTime::from_micros(i as u64 * 50);
        net.connect(
            at.max(now),
            HostId(0),
            SockAddr::new(HostId(1), 80),
            SimDuration::ZERO,
        )
        .unwrap();
        while let Some(t) = net.next_deadline() {
            now = t;
            for ntf in net.advance(t) {
                kernel.on_net(t, &ntf);
            }
            let _ = kernel.advance(t);
        }
        kernel.begin_batch(now, pid);
        let _ = kernel.sys_accept(&mut net, now, pid, lfd).unwrap();
        kernel.end_batch(now, pid);
    }
    // Collect the stream fds.
    for (fd, file) in kernel.process(pid).fds.iter() {
        if matches!(file.kind, simkernel::FileKind::Stream(_)) {
            fds.push(fd);
        }
    }
    World {
        net,
        kernel,
        registry: DevPollRegistry::new(),
        pid,
        fds,
    }
}

/// Runs `f` inside a batch and returns the simulated cost it charged.
fn charged(w: &mut World, f: impl FnOnce(&mut World)) -> SimDuration {
    let now = SimTime::from_secs(100);
    w.kernel.begin_batch(now, w.pid);
    f(w);
    let cost = w
        .kernel
        .process(w.pid)
        .batch_acc
        .expect("batch in progress");
    w.kernel.end_batch(now, w.pid);
    cost
}

fn main() {
    println!("Simulated per-call costs on the K6-2 cost model (microseconds)");
    println!();
    println!(
        "{:<10} {:>14} {:>16} {:>16} {:>14}",
        "interests", "stock poll()", "DP_POLL (hints)", "DP_POLL (none)", "DP_POLL 1-hint"
    );
    for n in [16usize, 64, 256, 501, 1024] {
        let mut w = world_with_conns(n);

        // Stock poll over everything.
        let mut pollfds: Vec<PollFd> = w
            .fds
            .iter()
            .map(|&fd| PollFd::new(fd, PollBits::POLLIN))
            .collect();
        let stock = charged(&mut w, |w| {
            let _ = sys_poll(
                &mut w.kernel,
                SimTime::from_secs(100),
                w.pid,
                &mut pollfds,
                0,
            );
        });

        // /dev/poll with hints: steady state, nothing hinted.
        let now = SimTime::from_secs(100);
        w.kernel.begin_batch(now, w.pid);
        let dp_hints = w
            .registry
            .open(&mut w.kernel, now, w.pid, DevPollConfig::default())
            .unwrap();
        let dp_none = w
            .registry
            .open(
                &mut w.kernel,
                now,
                w.pid,
                DevPollConfig {
                    hints: false,
                    ..DevPollConfig::default()
                },
            )
            .unwrap();
        let entries: Vec<PollFd> = w
            .fds
            .iter()
            .map(|&fd| PollFd::new(fd, PollBits::POLLIN))
            .collect();
        w.registry
            .write(&mut w.kernel, now, w.pid, dp_hints, &entries)
            .unwrap();
        w.registry
            .write(&mut w.kernel, now, w.pid, dp_none, &entries)
            .unwrap();
        // Settle fresh-interest hints.
        let _ = w.registry.dp_poll(
            &mut w.kernel,
            now,
            w.pid,
            dp_hints,
            DvPoll::into_user_buffer(64, 0),
        );
        w.kernel.end_batch(now, w.pid);

        let hints = charged(&mut w, |w| {
            let _ = w.registry.dp_poll(
                &mut w.kernel,
                SimTime::from_secs(100),
                w.pid,
                dp_hints,
                DvPoll::into_user_buffer(64, 0),
            );
        });
        let none = charged(&mut w, |w| {
            let _ = w.registry.dp_poll(
                &mut w.kernel,
                SimTime::from_secs(100),
                w.pid,
                dp_none,
                DvPoll::into_user_buffer(64, 0),
            );
        });

        // One hint marked: the incremental revalidation cost.
        let fd0 = w.fds[0];
        let one = charged(&mut w, |w| {
            w.registry
                .on_fd_event(&mut w.kernel, SimTime::from_secs(100), w.pid, fd0);
            let _ = w.registry.dp_poll(
                &mut w.kernel,
                SimTime::from_secs(100),
                w.pid,
                dp_hints,
                DvPoll::into_user_buffer(64, 0),
            );
        });

        println!(
            "{:<10} {:>12.1}us {:>14.1}us {:>14.1}us {:>12.1}us",
            n,
            stock.as_nanos() as f64 / 1e3,
            hints.as_nanos() as f64 / 1e3,
            none.as_nanos() as f64 / 1e3,
            one.as_nanos() as f64 / 1e3,
        );
    }

    println!();
    println!("Result delivery: copy-out vs shared mmap (64 ready results)");
    {
        let n = 256;
        let mut w = world_with_conns(n);
        let now = SimTime::from_secs(100);
        w.kernel.begin_batch(now, w.pid);
        let dpfd = w
            .registry
            .open(&mut w.kernel, now, w.pid, DevPollConfig::default())
            .unwrap();
        let entries: Vec<PollFd> = w
            .fds
            .iter()
            .map(|&fd| PollFd::new(fd, PollBits::POLLIN))
            .collect();
        w.registry
            .write(&mut w.kernel, now, w.pid, dpfd, &entries)
            .unwrap();
        w.registry
            .dp_alloc_mmap(&mut w.kernel, now, w.pid, dpfd, 512)
            .unwrap();
        w.kernel.end_batch(now, w.pid);
        // Make 64 fds ready by feeding data.
        let mut ready_eps = Vec::new();
        for &fd in w.fds.iter().take(64) {
            let ep = w.kernel.endpoint_of(w.pid, fd).unwrap();
            ready_eps.push(ep.peer());
        }
        let t = now;
        for ep in &ready_eps {
            let _ = w.net.send(t, *ep, b"x");
        }
        while let Some(next) = w.net.next_deadline() {
            for ntf in w.net.advance(next) {
                w.kernel.on_net(next, &ntf);
            }
            for e in w.kernel.advance(next) {
                if let simkernel::KernelEvent::FdEvent { pid, fd, .. } = e {
                    w.registry.on_fd_event(&mut w.kernel, next, pid, fd);
                }
            }
        }
        let copyout = charged(&mut w, |w| {
            let _ = w.registry.dp_poll(
                &mut w.kernel,
                SimTime::from_secs(100),
                w.pid,
                dpfd,
                DvPoll::into_user_buffer(64, 0),
            );
        });
        // All 64 are cached-ready now, so a second scan revalidates them;
        // compare mmap delivery.
        let mmap = charged(&mut w, |w| {
            let _ = w.registry.dp_poll(
                &mut w.kernel,
                SimTime::from_secs(100),
                w.pid,
                dpfd,
                DvPoll::into_mmap(64, 0),
            );
        });
        println!(
            "  user-buffer copy-out: {:>8.1}us",
            copyout.as_nanos() as f64 / 1e3
        );
        println!(
            "  shared mmap area:     {:>8.1}us",
            mmap.as_nanos() as f64 / 1e3
        );
    }

    println!();
    println!("Interest update + poll: separate write()+ioctl() vs combined (§6)");
    {
        let n = 64;
        let mut w = world_with_conns(n);
        let now = SimTime::from_secs(100);
        w.kernel.begin_batch(now, w.pid);
        let dpfd = w
            .registry
            .open(&mut w.kernel, now, w.pid, DevPollConfig::default())
            .unwrap();
        w.kernel.end_batch(now, w.pid);
        let upd = [PollFd::new(w.fds[0], PollBits::POLLIN)];
        let separate = charged(&mut w, |w| {
            let _ = w
                .registry
                .write(&mut w.kernel, SimTime::from_secs(100), w.pid, dpfd, &upd);
            let _ = w.registry.dp_poll(
                &mut w.kernel,
                SimTime::from_secs(100),
                w.pid,
                dpfd,
                DvPoll::into_user_buffer(8, 0),
            );
        });
        let combined = charged(&mut w, |w| {
            let _ = w.registry.write_combined(
                &mut w.kernel,
                SimTime::from_secs(100),
                w.pid,
                dpfd,
                &upd,
            );
            let _ = w.registry.dp_poll(
                &mut w.kernel,
                SimTime::from_secs(100),
                w.pid,
                dpfd,
                DvPoll::into_user_buffer(8, 0),
            );
        });
        println!("  separate: {:>8.1}us", separate.as_nanos() as f64 / 1e3);
        println!("  combined: {:>8.1}us", combined.as_nanos() as f64 / 1e3);
    }

    wall_microbench();
}

/// Wall-clock microbenchmarks of the simulator's two hottest loops:
/// the timer queue every deadline source runs on and the `DP_POLL`
/// interest scan. Unlike the simulated cost tables above, these measure
/// *this machine's* real time. (Binary drivers are exempt from the
/// wallclock lint; library code never reads the clock.)
fn wall_microbench() {
    use simcore::queue::TimerQueue;
    use std::time::Instant;

    /// Median ns-per-unit over 5 samples; `f` runs the workload once
    /// and returns how many units it dispatched.
    fn per_unit_ns(mut f: impl FnMut() -> u64) -> f64 {
        let _ = f(); // warm-up
        let mut samples: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                let units = f().max(1);
                start.elapsed().as_nanos() as f64 / units as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    }

    println!();
    println!("Wall-clock microbenchmarks (real time on this machine, median of 5)");

    /// Pushes `N` timers, `keep` in flight, popping the earliest as it
    /// falls due; `lane(i)` picks each push's lane. Returns the pushes.
    fn churn(lane: impl Fn(u64) -> Option<u64>) -> u64 {
        const N: u64 = 200_000;
        let mut q: TimerQueue<u64> = TimerQueue::new();
        let mut now = SimTime::ZERO;
        let mut acc = 0u64;
        for i in 0..N {
            // Four sources, each a constant delay after `now`: monotone
            // per source, interleaved across sources.
            let delay = SimDuration::from_micros(100 + 37 * (i % 4));
            q.push(now + delay, lane(i % 4), i);
            now += SimDuration::from_micros(1);
            while let Some((_, v)) = q.pop_due(now) {
                acc = acc.wrapping_add(v);
            }
        }
        while let Some((_, v)) = q.pop_due(SimTime::MAX) {
            acc = acc.wrapping_add(v);
        }
        std::hint::black_box(acc);
        N
    }
    let laned = per_unit_ns(|| churn(Some));
    let heap = per_unit_ns(|| churn(|_| None));
    println!("  timer queue push+pop, 4 lanes:  {laned:>7.1} ns/timer");
    println!("  timer queue push+pop, heap only: {heap:>7.1} ns/timer");

    for (label, hints) in [("hints", true), ("full scan", false)] {
        let mut w = world_with_conns(501);
        let now = SimTime::from_secs(100);
        w.kernel.begin_batch(now, w.pid);
        let dpfd = w
            .registry
            .open(
                &mut w.kernel,
                now,
                w.pid,
                DevPollConfig {
                    hints,
                    ..DevPollConfig::default()
                },
            )
            .unwrap();
        let entries: Vec<PollFd> = w
            .fds
            .iter()
            .map(|&fd| PollFd::new(fd, PollBits::POLLIN))
            .collect();
        w.registry
            .write(&mut w.kernel, now, w.pid, dpfd, &entries)
            .unwrap();
        // Settle fresh-interest hints.
        let _ = w.registry.dp_poll(
            &mut w.kernel,
            now,
            w.pid,
            dpfd,
            DvPoll::into_user_buffer(64, 0),
        );
        w.kernel.end_batch(now, w.pid);
        let calls = 2_000u64;
        let ns = per_unit_ns(|| {
            for _ in 0..calls {
                w.kernel.begin_batch(now, w.pid);
                let _ = w.registry.dp_poll(
                    &mut w.kernel,
                    now,
                    w.pid,
                    dpfd,
                    DvPoll::into_user_buffer(64, 0),
                );
                w.kernel.end_batch(now, w.pid);
            }
            calls
        });
        println!("  DP_POLL scan (501 fds, {label:<9}): {ns:>7.1} ns/call");
    }
}
