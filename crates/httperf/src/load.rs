//! The load generator: an httperf-style open-loop request stream plus
//! the paper's constant population of inactive (high-latency,
//! never-completing) connections.
//!
//! "We add client programs that do not complete an http request. To keep
//! the number of high-latency clients constant, these clients reopen
//! their connection if the server times them out." (§5)

use simcore::paged::PagedSlots;
use simcore::rng::SimRng;
use simcore::stats::{Quantiles, RateSampler};
use simcore::time::{SimDuration, SimTime};
use simnet::{ConnId, ConnectError, EndpointId, HostId, NetNotify, Network, Side, SockAddr};

use crate::report::ErrorCounts;

/// The arrival process shape.
///
/// The paper notes (§5, citing Banga & Druschel) that real WAN clients
/// "induce a bursty and unpredictable interrupt load on the server";
/// [`LoadShape::Bursty`] models that by alternating between an elevated
/// rate and silence while preserving the same average rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadShape {
    /// Evenly spaced arrivals (httperf's fixed --rate).
    Constant,
    /// On/off bursts: arrivals at `rate / duty` during a fraction `duty`
    /// of each `period`, silence otherwise. Average rate is preserved.
    Bursty {
        /// Burst cycle length.
        period: SimDuration,
        /// Fraction of the period spent bursting, in (0, 1].
        duty: f64,
    },
}

/// Load parameters for one benchmark run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Targeted request rate, requests per second.
    pub rate: f64,
    /// Stop after this many active connection attempts.
    pub total_conns: u64,
    /// Constant inactive-connection population.
    pub inactive: usize,
    /// Client-side timeout for a full response.
    pub client_timeout: SimDuration,
    /// Extra one-way latency on inactive (modem-class) connections.
    pub inactive_extra_delay: SimDuration,
    /// Extra one-way latency on active (LAN) connections.
    pub active_extra_delay: SimDuration,
    /// Uniform jitter fraction applied to inter-arrival gaps.
    pub jitter: f64,
    /// Maximum simultaneously open client sockets (fd limit).
    pub client_fd_limit: usize,
    /// RNG seed.
    pub seed: u64,
    /// Document requested.
    pub doc_path: String,
    /// Reply-rate sampling window.
    pub window: SimDuration,
    /// Time reserved to establish the inactive population before the
    /// first request is launched; measurement starts here too.
    pub warmup: SimDuration,
    /// Client user-space turnaround between `connect` completing and the
    /// request hitting the wire (process wakeup + `write()` on the
    /// 4-way Xeon client).
    pub client_think: SimDuration,
    /// Arrival process shape.
    pub shape: LoadShape,
    /// Client machines driving the inactive population. One host offers
    /// ~60k ephemeral ports, so populations beyond that need more
    /// machines — the paper's multi-client testbed. Inactive connections
    /// round-robin across the hosts; active requests stay on the first.
    pub client_hosts: usize,
    /// Fold end-of-run memory gauges (`mem.*`) and exhaustion counters
    /// into the probe snapshot. Off by default: the gauges would change
    /// the snapshot of existing figure configs.
    pub mem_probes: bool,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            rate: 500.0,
            total_conns: 35_000,
            inactive: 0,
            client_timeout: SimDuration::from_secs(2),
            inactive_extra_delay: SimDuration::from_millis(150),
            active_extra_delay: SimDuration::ZERO,
            jitter: 0.05,
            client_fd_limit: 60_000,
            seed: 1,
            doc_path: "/index.html".to_string(),
            window: SimDuration::from_secs(1),
            warmup: SimDuration::from_millis(2_500),
            client_think: SimDuration::from_micros(500),
            shape: LoadShape::Constant,
            client_hosts: 1,
            mem_probes: false,
        }
    }
}

/// What kind of connection a client socket is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnKind {
    Active,
    Inactive,
}

// #[hot_struct]: one per client socket, a million strong
#[derive(Debug)]
struct ClientConn {
    kind: ConnKind,
    started: SimTime,
    /// Bytes of response received so far (active only).
    got: usize,
    /// First bytes look like a 200 response.
    ok_prefix: Option<bool>,
    /// Request sent yet?
    sent_request: bool,
    /// Deadline for the whole exchange (active only).
    deadline: SimTime,
    done: bool,
}

/// Timer kinds the load generator schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LoadTimer {
    /// Launch the next active connection.
    NextArrival,
    /// Check an active connection's deadline.
    Timeout(ConnId),
    /// Re-open one inactive connection.
    ReopenInactive,
    /// Send the request on an established connection (after the client's
    /// turnaround time).
    SendRequest(ConnId),
}

/// The load generator state machine.
pub struct LoadGen {
    cfg: LoadConfig,
    host: HostId,
    server: SockAddr,
    rng: SimRng,
    /// Paged per-connection table indexed by `ConnId`: sequential ids
    /// keep pages dense, and a million-connection population costs only
    /// the pages its live id range touches.
    conns: PagedSlots<ClientConn>,
    /// Round-robin cursor over the client hosts for inactive connects.
    inactive_rr: usize,
    launched: u64,
    resolved: u64,
    /// Successful replies.
    pub replies: u64,
    /// Error tallies.
    pub errors: ErrorCounts,
    /// Reply completion sampler.
    pub sampler: RateSampler,
    /// Connection times in milliseconds.
    pub latencies_ms: Quantiles,
    inactive_open: usize,
    /// When the last active connection resolved.
    pub last_resolution: SimTime,
    /// When the last active connection was launched (measurement end).
    pub last_arrival: SimTime,
    finished_arrivals: bool,
}

impl LoadGen {
    /// Creates the generator; call [`LoadGen::bootstrap`] to get the
    /// initial timers.
    pub fn new(cfg: LoadConfig, host: HostId, server: SockAddr) -> LoadGen {
        let rng = SimRng::new(cfg.seed);
        let sampler = RateSampler::new(SimTime::ZERO + cfg.warmup, cfg.window);
        LoadGen {
            cfg,
            host,
            server,
            rng,
            conns: PagedSlots::new(),
            inactive_rr: 0,
            launched: 0,
            resolved: 0,
            replies: 0,
            errors: ErrorCounts::default(),
            sampler,
            latencies_ms: Quantiles::new(),
            inactive_open: 0,
            last_resolution: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            finished_arrivals: false,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &LoadConfig {
        &self.cfg
    }

    /// Connections attempted so far.
    pub fn attempted(&self) -> u64 {
        self.launched
    }

    /// Whether every active connection has resolved.
    pub fn done(&self) -> bool {
        self.finished_arrivals && self.resolved >= self.launched
    }

    /// Timers to schedule at startup: the first arrival plus one reopen
    /// per inactive slot (they all connect at staggered times).
    pub fn bootstrap(&mut self, now: SimTime) -> Vec<(SimTime, LoadTimer)> {
        // Inactive population first (staggered over 2 s), then requests
        // after the warmup — the paper fixes the inactive load, then
        // drives request rates against it (§5.1).
        let first = self.next_arrival_at(now + self.cfg.warmup);
        let mut timers = Vec::with_capacity(1 + self.cfg.inactive);
        timers.push((first, LoadTimer::NextArrival));
        // Large populations (the million lane) spread across the whole
        // warmup so the connect burst doesn't pile onto one instant;
        // the classic loads keep the original 2 s stagger bit for bit.
        let stagger = if self.cfg.inactive > 10_000 {
            self.cfg.warmup
        } else {
            SimDuration::from_secs(2).min(self.cfg.warmup)
        };
        for i in 0..self.cfg.inactive {
            let at = now
                + SimDuration::from_nanos(
                    stagger.as_nanos() * i as u64 / self.cfg.inactive.max(1) as u64,
                );
            timers.push((at, LoadTimer::ReopenInactive));
        }
        timers
    }

    fn gap(&mut self) -> SimDuration {
        let base = 1.0 / self.cfg.rate.max(1e-9);
        let j = self.cfg.jitter;
        let f = 1.0 + j * (2.0 * self.rng.next_f64() - 1.0);
        SimDuration::from_secs_f64(base * f)
    }

    /// The next arrival instant after `now`, honouring the load shape.
    fn next_arrival_at(&mut self, now: SimTime) -> SimTime {
        match self.cfg.shape {
            LoadShape::Constant => now + self.gap(),
            LoadShape::Bursty { period, duty } => {
                let duty = duty.clamp(1e-3, 1.0);
                // Within a burst, arrivals come `duty` times as fast so
                // the average over the period matches `rate`.
                let fast_gap = self.gap().mul_f64(duty);
                let mut at = now + fast_gap;
                // If that lands in the silent part of the cycle, push to
                // the start of the next burst.
                let period_ns = period.as_nanos().max(1);
                let burst_ns = (period_ns as f64 * duty) as u64;
                let phase = at.as_nanos() % period_ns;
                if phase >= burst_ns {
                    let next_burst = at.as_nanos() - phase + period_ns;
                    at = SimTime::from_nanos(next_burst);
                }
                at
            }
        }
    }

    fn open_sockets(&self) -> usize {
        self.conns.len()
    }

    /// Heap bytes held by the client-side connection table.
    pub fn mem_bytes(&self) -> usize {
        self.conns.heap_bytes()
    }

    /// The host the next inactive connection originates from. With one
    /// client host this is always `self.host` (the pre-multi-client
    /// behaviour, bit for bit); with more, the population round-robins
    /// so no single host exhausts its ephemeral port range.
    fn next_inactive_host(&mut self) -> HostId {
        if self.cfg.client_hosts <= 1 {
            return self.host;
        }
        let i = self.inactive_rr % self.cfg.client_hosts;
        self.inactive_rr += 1;
        if i == 0 {
            self.host
        } else {
            // Extra client machines are numbered past the server host.
            HostId(self.host.0.max(self.server.host.0) + i)
        }
    }

    fn conn_get(&self, conn: ConnId) -> Option<&ClientConn> {
        self.conns.get(conn.0 as usize)
    }

    fn conn_get_mut(&mut self, conn: ConnId) -> Option<&mut ClientConn> {
        self.conns.get_mut(conn.0 as usize)
    }

    fn conn_insert(&mut self, conn: ConnId, c: ClientConn) {
        self.conns.insert(conn.0 as usize, c);
    }

    fn conn_remove(&mut self, conn: ConnId) -> Option<ClientConn> {
        self.conns.take(conn.0 as usize)
    }

    /// Fires one timer; returns follow-up timers to schedule.
    pub fn on_timer(
        &mut self,
        net: &mut Network,
        now: SimTime,
        timer: LoadTimer,
    ) -> Vec<(SimTime, LoadTimer)> {
        match timer {
            LoadTimer::NextArrival => self.launch_active(net, now),
            LoadTimer::Timeout(conn) => {
                self.check_timeout(net, now, conn);
                Vec::new()
            }
            LoadTimer::ReopenInactive => self.launch_inactive(net, now),
            LoadTimer::SendRequest(conn) => {
                self.send_request(net, now, conn);
                Vec::new()
            }
        }
    }

    fn send_request(&mut self, net: &mut Network, now: SimTime, conn: ConnId) {
        let Some(c) = self.conn_get_mut(conn) else {
            return;
        };
        if c.kind != ConnKind::Active || c.sent_request || c.done {
            return;
        }
        c.sent_request = true;
        let req = format!(
            "GET {} HTTP/1.0\r\nUser-Agent: simhttperf\r\n\r\n",
            self.cfg.doc_path
        );
        let ep = EndpointId::new(conn, Side::Client);
        let _ = net.send(now, ep, req.as_bytes());
    }

    fn launch_active(&mut self, net: &mut Network, now: SimTime) -> Vec<(SimTime, LoadTimer)> {
        let mut timers = Vec::new();
        if self.launched < self.cfg.total_conns {
            self.launched += 1;
            self.last_arrival = now;
            if self.launched == self.cfg.total_conns {
                self.finished_arrivals = true;
            } else {
                let at = self.next_arrival_at(now);
                timers.push((at, LoadTimer::NextArrival));
            }
            if self.open_sockets() >= self.cfg.client_fd_limit {
                self.errors.fd_shortage += 1;
                self.resolve(now);
            } else {
                match net.connect(now, self.host, self.server, self.cfg.active_extra_delay) {
                    Ok(conn) => {
                        let deadline = now + self.cfg.client_timeout;
                        self.conn_insert(
                            conn,
                            ClientConn {
                                kind: ConnKind::Active,
                                started: now,
                                got: 0,
                                ok_prefix: None,
                                sent_request: false,
                                deadline,
                                done: false,
                            },
                        );
                        timers.push((deadline, LoadTimer::Timeout(conn)));
                    }
                    Err(ConnectError::PortsExhausted) => {
                        self.errors.ports_exhausted += 1;
                        self.resolve(now);
                    }
                    Err(_) => {
                        self.errors.refused += 1;
                        self.resolve(now);
                    }
                }
            }
        }
        timers
    }

    fn launch_inactive(&mut self, net: &mut Network, now: SimTime) -> Vec<(SimTime, LoadTimer)> {
        if self.inactive_open >= self.cfg.inactive {
            return Vec::new();
        }
        let host = self.next_inactive_host();
        match net.connect(now, host, self.server, self.cfg.inactive_extra_delay) {
            Ok(conn) => {
                self.inactive_open += 1;
                self.conn_insert(
                    conn,
                    ClientConn {
                        kind: ConnKind::Inactive,
                        started: now,
                        got: 0,
                        ok_prefix: None,
                        sent_request: false,
                        deadline: SimTime::MAX,
                        done: false,
                    },
                );
                Vec::new()
            }
            Err(_) => {
                // Retry shortly; the population must stay constant.
                vec![(
                    now + SimDuration::from_millis(100),
                    LoadTimer::ReopenInactive,
                )]
            }
        }
    }

    fn check_timeout(&mut self, net: &mut Network, now: SimTime, conn: ConnId) {
        let Some(c) = self.conn_get(conn) else {
            return; // Already resolved.
        };
        if c.done || c.kind != ConnKind::Active {
            return;
        }
        if now < c.deadline {
            return; // Stale timer.
        }
        // Give up: abort and count a timeout.
        let ep = EndpointId::new(conn, Side::Client);
        let _ = net.abort(now, ep);
        self.conn_remove(conn);
        self.errors.timeouts += 1;
        self.resolve(now);
    }

    fn resolve(&mut self, now: SimTime) {
        self.resolved += 1;
        self.last_resolution = now;
    }

    /// Routes a network notification; returns follow-up timers.
    pub fn on_net(
        &mut self,
        net: &mut Network,
        now: SimTime,
        notify: &NetNotify,
    ) -> Vec<(SimTime, LoadTimer)> {
        match *notify {
            NetNotify::ConnectDone { ep } if ep.side == Side::Client => {
                self.on_connected(net, now, ep)
            }
            NetNotify::ConnectFailed { conn, reason, .. } => {
                if let Some(c) = self.conn_remove(conn) {
                    match c.kind {
                        ConnKind::Active => {
                            match reason {
                                ConnectError::Refused => self.errors.refused += 1,
                                ConnectError::Timeout => self.errors.timeouts += 1,
                                ConnectError::PortsExhausted => {
                                    self.errors.ports_exhausted += 1;
                                }
                            }
                            self.resolve(now);
                            Vec::new()
                        }
                        ConnKind::Inactive => {
                            self.inactive_open -= 1;
                            vec![(
                                now + SimDuration::from_millis(100),
                                LoadTimer::ReopenInactive,
                            )]
                        }
                    }
                } else {
                    Vec::new()
                }
            }
            NetNotify::Readable { ep } if ep.side == Side::Client => {
                self.drain(net, now, ep);
                Vec::new()
            }
            NetNotify::PeerClosed { ep } if ep.side == Side::Client => {
                self.on_peer_closed(net, now, ep)
            }
            NetNotify::ConnReset { ep } if ep.side == Side::Client => {
                if let Some(c) = self.conn_remove(ep.conn) {
                    match c.kind {
                        ConnKind::Active => {
                            self.errors.resets += 1;
                            self.resolve(now);
                            Vec::new()
                        }
                        ConnKind::Inactive => {
                            self.inactive_open -= 1;
                            vec![(
                                now + SimDuration::from_millis(100),
                                LoadTimer::ReopenInactive,
                            )]
                        }
                    }
                } else {
                    Vec::new()
                }
            }
            NetNotify::ConnClosed { ep } if ep.side == Side::Client => {
                // Fully closed; if still tracked (e.g. inactive closed by
                // the server cleanly) treat like a peer-close.
                if self.conn_get(ep.conn).is_some() {
                    self.on_peer_closed(net, now, ep)
                } else {
                    Vec::new()
                }
            }
            _ => Vec::new(),
        }
    }

    fn on_connected(
        &mut self,
        _net: &mut Network,
        now: SimTime,
        ep: EndpointId,
    ) -> Vec<(SimTime, LoadTimer)> {
        let Some(c) = self.conn_get_mut(ep.conn) else {
            return Vec::new();
        };
        if c.kind == ConnKind::Active && !c.sent_request {
            // Real clients take a scheduling quantum to issue the write.
            return vec![(now + self.cfg.client_think, LoadTimer::SendRequest(ep.conn))];
        }
        Vec::new()
    }

    fn drain(&mut self, net: &mut Network, now: SimTime, ep: EndpointId) {
        let Some(c) = self.conn_get_mut(ep.conn) else {
            return;
        };
        // Discarding read: the client only ever inspects the status-line
        // prefix, so the payload is never materialised.
        let Ok(sum) = net.recv_discard(now, ep, usize::MAX) else {
            return;
        };
        if sum.len == 0 {
            return;
        }
        if c.ok_prefix.is_none() && sum.len >= 12 {
            c.ok_prefix = Some(sum.prefix() == b"HTTP/1.0 200");
        }
        c.got += sum.len;
    }

    fn on_peer_closed(
        &mut self,
        net: &mut Network,
        now: SimTime,
        ep: EndpointId,
    ) -> Vec<(SimTime, LoadTimer)> {
        // Drain whatever arrived with the FIN.
        self.drain(net, now, ep);
        let Some(c) = self.conn_get_mut(ep.conn) else {
            return Vec::new();
        };
        match c.kind {
            ConnKind::Active => {
                let started = c.started;
                let ok = c.got > 0 && c.ok_prefix == Some(true);
                c.done = true;
                let _ = net.close(now, ep);
                self.conn_remove(ep.conn);
                if ok {
                    self.replies += 1;
                    self.sampler.record(now);
                    let ms = now.saturating_duration_since(started).as_nanos() as f64 / 1e6;
                    self.latencies_ms.add(ms);
                } else {
                    // Closed without a usable response (e.g. idle-closed
                    // by an overloaded server): counts as a timeout-class
                    // error immediately.
                    self.errors.timeouts += 1;
                }
                self.resolve(now);
                Vec::new()
            }
            ConnKind::Inactive => {
                // Server timed us out: close our side and reopen to keep
                // the population constant (§5).
                let _ = net.close(now, ep);
                self.conn_remove(ep.conn);
                self.inactive_open -= 1;
                vec![(
                    now + SimDuration::from_millis(50),
                    LoadTimer::ReopenInactive,
                )]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_schedules_arrival_and_inactive() {
        let cfg = LoadConfig {
            inactive: 10,
            ..LoadConfig::default()
        };
        let mut lg = LoadGen::new(cfg, HostId(0), SockAddr::new(HostId(1), 80));
        let timers = lg.bootstrap(SimTime::ZERO);
        let arrivals = timers
            .iter()
            .filter(|(_, t)| *t == LoadTimer::NextArrival)
            .count();
        let reopens = timers
            .iter()
            .filter(|(_, t)| *t == LoadTimer::ReopenInactive)
            .count();
        assert_eq!(arrivals, 1);
        assert_eq!(reopens, 10);
    }

    #[test]
    fn gap_tracks_rate_with_jitter_bounds() {
        let cfg = LoadConfig {
            rate: 1000.0,
            jitter: 0.05,
            ..LoadConfig::default()
        };
        let mut lg = LoadGen::new(cfg, HostId(0), SockAddr::new(HostId(1), 80));
        for _ in 0..1000 {
            let g = lg.gap();
            let ns = g.as_nanos();
            assert!(
                (950_000..=1_050_000).contains(&ns),
                "gap {ns}ns out of bounds"
            );
        }
    }

    #[test]
    fn send_request_fires_after_think_time() {
        let cfg = LoadConfig {
            total_conns: 1,
            rate: 1000.0,
            warmup: SimDuration::ZERO,
            ..LoadConfig::default()
        };
        let mut net = Network::new(
            simnet::TcpConfig::default(),
            simnet::LinkConfig::default(),
            2,
        );
        let _listener = net.listen(HostId(1), 80, 8).unwrap();
        let mut lg = LoadGen::new(cfg, HostId(0), SockAddr::new(HostId(1), 80));
        let timers = lg.on_timer(&mut net, SimTime::from_millis(1), LoadTimer::NextArrival);
        let conn = match timers.iter().find_map(|(_, t)| match t {
            LoadTimer::Timeout(c) => Some(*c),
            _ => None,
        }) {
            Some(c) => c,
            None => panic!("timeout timer expected"),
        };
        // Drive the handshake to completion.
        let mut follow = Vec::new();
        while let Some(t) = net.next_deadline() {
            if t > SimTime::from_millis(20) {
                break;
            }
            for n in net.advance(t) {
                follow.extend(lg.on_net(&mut net, t, &n));
            }
        }
        // ConnectDone scheduled a SendRequest after client_think.
        assert!(
            follow
                .iter()
                .any(|(_, t)| matches!(t, LoadTimer::SendRequest(c) if *c == conn)),
            "{follow:?}"
        );
        // Firing it puts the request on the wire.
        let at = SimTime::from_millis(30);
        let _ = lg.on_timer(&mut net, at, LoadTimer::SendRequest(conn));
        while let Some(t) = net.next_deadline() {
            if t > SimTime::from_millis(40) {
                break;
            }
            let _ = net.advance(t);
        }
        let server_ep = EndpointId::new(conn, Side::Server);
        assert!(net.readable_bytes(server_ep) > 0, "request bytes arrived");
    }

    #[test]
    fn fd_limit_counts_as_fd_shortage() {
        let cfg = LoadConfig {
            total_conns: 3,
            rate: 1000.0,
            client_fd_limit: 1,
            warmup: SimDuration::ZERO,
            ..LoadConfig::default()
        };
        let mut net = Network::new(
            simnet::TcpConfig::default(),
            simnet::LinkConfig::default(),
            2,
        );
        let _listener = net.listen(HostId(1), 80, 8).unwrap();
        let mut lg = LoadGen::new(cfg, HostId(0), SockAddr::new(HostId(1), 80));
        // First launch occupies the single fd; the next two fail.
        let mut timers = vec![(SimTime::from_millis(1), LoadTimer::NextArrival)];
        while let Some((at, timer)) = timers.pop() {
            if matches!(timer, LoadTimer::NextArrival) {
                timers.extend(lg.on_timer(&mut net, at, timer));
            }
        }
        assert_eq!(lg.attempted(), 3);
        assert_eq!(lg.errors.fd_shortage, 2);
    }

    #[test]
    fn bursty_gap_lands_inside_bursts() {
        let cfg = LoadConfig {
            rate: 1000.0,
            jitter: 0.0,
            shape: LoadShape::Bursty {
                period: SimDuration::from_millis(100),
                duty: 0.5,
            },
            warmup: SimDuration::ZERO,
            ..LoadConfig::default()
        };
        let mut lg = LoadGen::new(cfg, HostId(0), SockAddr::new(HostId(1), 80));
        let mut at = SimTime::ZERO;
        let mut in_burst = 0;
        let n = 500;
        for _ in 0..n {
            at = lg.next_arrival_at(at);
            let phase = at.as_nanos() % 100_000_000;
            if phase < 50_000_000 {
                in_burst += 1;
            }
        }
        assert_eq!(in_burst, n, "every arrival falls inside the duty window");
    }

    #[test]
    fn done_requires_all_resolved() {
        let cfg = LoadConfig {
            total_conns: 1,
            rate: 1000.0,
            ..LoadConfig::default()
        };
        let mut net = Network::new(
            simnet::TcpConfig::default(),
            simnet::LinkConfig::default(),
            2,
        );
        // No listener: the connect will eventually fail, but not yet.
        let mut lg = LoadGen::new(cfg, HostId(0), SockAddr::new(HostId(1), 80));
        assert!(!lg.done());
        let timers = lg.on_timer(&mut net, SimTime::from_millis(1), LoadTimer::NextArrival);
        // Single conn launched; arrivals finished but unresolved.
        assert!(!lg.done());
        assert_eq!(lg.attempted(), 1);
        // Timeout timer scheduled.
        assert!(timers
            .iter()
            .any(|(_, t)| matches!(t, LoadTimer::Timeout(_))));
    }
}
