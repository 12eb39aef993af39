//! The network: hosts, links, listeners and connections, driven by an
//! internal timer queue.
//!
//! # Driving the network
//!
//! [`Network`] is a passive state machine. The orchestrator (the test
//! harness or the benchmark driver) repeatedly asks for
//! [`Network::next_deadline`], advances its global clock, and calls
//! [`Network::advance`], which fires due timers and returns the batch of
//! [`NetNotify`] notifications produced since the last call. Mutating
//! calls (connect/send/close/…) may also produce notifications; they are
//! buffered and returned by the next `advance`.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::collections::VecDeque;

use simcore::paged::PagedSlots;
use simcore::queue::TimerQueue;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};

use crate::addr::{ConnId, EndpointId, HostId, ListenerId, Port, Side, SockAddr};
use crate::link::{LinkConfig, Tx, TxOutcome};
use crate::ports::PortAllocator;
use crate::seg::{SegKind, Segment};
use crate::tcp::{Conn, ConnState, ConnectError, TcpConfig};

/// Notifications surfaced to the layer above (socket layers, clients).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetNotify {
    /// A segment arrived at `host` — interrupt/softirq load accounting.
    SegmentArrived {
        /// Receiving host.
        host: HostId,
        /// Size on the wire, headers included.
        wire_bytes: u32,
    },
    /// A `connect` completed; the client endpoint is usable.
    ConnectDone {
        /// The client half.
        ep: EndpointId,
    },
    /// A `connect` failed.
    ConnectFailed {
        /// The connection that failed.
        conn: ConnId,
        /// The connecting host.
        host: HostId,
        /// Why.
        reason: ConnectError,
    },
    /// A listener's accept queue went non-empty (or grew).
    AcceptReady {
        /// The listener.
        listener: ListenerId,
    },
    /// In-order data arrived; `recv` will return more bytes.
    Readable {
        /// The receiving endpoint.
        ep: EndpointId,
    },
    /// Send-buffer space became available after being exhausted.
    Writable {
        /// The sending endpoint.
        ep: EndpointId,
    },
    /// The peer's FIN arrived in order (read side is at EOF after
    /// draining).
    PeerClosed {
        /// The endpoint observing EOF.
        ep: EndpointId,
    },
    /// The connection was reset (RST received or retries exhausted).
    ConnReset {
        /// The endpoint observing the reset.
        ep: EndpointId,
    },
    /// The connection closed cleanly in both directions.
    ConnClosed {
        /// The endpoint observing the close.
        ep: EndpointId,
    },
    /// A SYN was dropped (or refused) because the backlog was full.
    SynDropped {
        /// The overloaded listener.
        listener: ListenerId,
    },
}

/// Errors from endpoint I/O calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// Unknown or already-freed connection/endpoint.
    Gone,
    /// The operation conflicts with the endpoint state (e.g. `send` after
    /// `close`).
    BadState,
    /// The address is already bound.
    AddrInUse,
}

#[derive(Debug, Clone)]
enum Timer {
    Deliver(Segment),
    Rto { conn: ConnId, side: Side },
}

#[derive(Debug, Clone)]
struct Host {
    tx: Tx,
    ports: PortAllocator,
    segments_in: u64,
    bytes_in: u64,
}

#[derive(Debug, Clone)]
struct Listener {
    backlog: usize,
    /// Handshakes in progress.
    syn_rcvd: BTreeSet<ConnId>,
    /// Established, waiting for `accept`.
    accept_q: VecDeque<ConnId>,
    /// SYNs dropped or refused for backlog overflow.
    refused: u64,
}

/// Aggregate statistics, mostly for tests and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections created (SYN sent).
    pub conns_started: u64,
    /// Connections that completed the handshake.
    pub conns_established: u64,
    /// Connections that ended in RST or retry exhaustion.
    pub conns_reset: u64,
    /// Connections that closed cleanly.
    pub conns_closed: u64,
    /// Data segments retransmitted.
    pub retransmits: u64,
    /// SYNs dropped at a full backlog.
    pub syn_drops: u64,
    /// Segments dropped by injected random loss.
    pub injected_losses: u64,
    /// `connect` attempts refused locally because the client host had no
    /// free ephemeral port (the paper's 60000-socket limitation, modeled
    /// as a first-class failure mode).
    pub ports_exhausted: u64,
}

impl NetStats {
    /// Folds these counters into a probe registry under `tcp.*` names
    /// (called once at report time).
    pub fn fold_into(&self, probe: &mut simcore::probe::MetricRegistry) {
        probe.add("tcp.conns_started", self.conns_started);
        probe.add("tcp.conns_established", self.conns_established);
        probe.add("tcp.conns_reset", self.conns_reset);
        probe.add("tcp.conns_closed", self.conns_closed);
        probe.add("tcp.retransmits", self.retransmits);
        probe.add("tcp.syn_drops", self.syn_drops);
        probe.add("tcp.injected_losses", self.injected_losses);
        // Gated: absent from runs that never hit the port ceiling, so the
        // probe snapshot of pre-existing configurations is unchanged.
        if self.ports_exhausted > 0 {
            probe.add("tcp.ports_exhausted", self.ports_exhausted);
        }
    }
}

/// The simulated network fabric connecting all hosts through one switch.
#[derive(Clone)]
pub struct Network {
    cfg: TcpConfig,
    base_delay: SimDuration,
    loss_prob: f64,
    rng: SimRng,
    hosts: Vec<Host>,
    /// Connection storage: ids stay unique forever (they participate in
    /// deterministic orderings), but the heavyweight state lives in a
    /// slab arena whose slots are recycled as connections die. The
    /// id → slot map is paged (sparse): long runs whose live window of
    /// ids marches upward only pay for the pages that window touches,
    /// not for every id ever issued.
    conn_slot: PagedSlots<u32>,
    conn_arena: Vec<Option<Conn>>,
    conn_free: Vec<u32>,
    next_conn: u32,
    /// Dense, id-indexed (listeners are never removed).
    listeners: Vec<Listener>,
    listen_by_addr: HashMap<SockAddr, ListenerId>,
    /// Segments in flight and RTOs, fired in `(at, arming order)`
    /// order. Deliveries ride one lane per (sending host, extra delay)
    /// and RTOs one per constant delay; see [`deliver_lane`].
    timers: TimerQueue<Timer>,
    out: Vec<NetNotify>,
    /// Scratch for `pump` (reused, no per-call allocation).
    pump_scratch: Vec<Segment>,
    stats: NetStats,
}

impl Network {
    /// Creates a network of `n_hosts` hosts, all sharing the same link
    /// configuration, attached to one switch.
    pub fn new(cfg: TcpConfig, link: LinkConfig, n_hosts: usize) -> Network {
        Network {
            cfg,
            base_delay: link.base_delay,
            loss_prob: link.loss_prob.clamp(0.0, 1.0),
            rng: SimRng::new(0x5EED_1055),
            hosts: (0..n_hosts)
                .map(|_| Host {
                    tx: Tx::new(link),
                    ports: PortAllocator::ephemeral(),
                    segments_in: 0,
                    bytes_in: 0,
                })
                .collect(),
            conn_slot: PagedSlots::new(),
            conn_arena: Vec::new(),
            conn_free: Vec::new(),
            next_conn: 0,
            listeners: Vec::new(),
            listen_by_addr: HashMap::new(),
            timers: TimerQueue::new(),
            out: Vec::new(),
            pump_scratch: Vec::new(),
            stats: NetStats::default(),
        }
    }

    /// Returns the transport configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Returns aggregate statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Folds the network's full semantic state into one FNV digest for
    /// world deduplication in `simcheck explore`.
    ///
    /// Included: per-host transmitters and port allocators, every live
    /// connection (lifecycle state, both endpoint halves including
    /// buffered bytes and FIN/ack positions), listeners, armed timers,
    /// and undelivered notifications. Excluded: aggregate counters
    /// ([`NetStats`], per-host rx tallies) and the loss RNG (never
    /// advanced at `loss_prob == 0`, the only configuration explored),
    /// so semantically equal worlds that differ only in diagnostics
    /// hash alike.
    pub fn state_fingerprint(&self) -> u64 {
        use simcore::fingerprint::Fnv;
        let mut h = Fnv::new();
        let seg_into = |h: &mut Fnv, s: &Segment| {
            h.write_u64(u64::from(s.conn.0));
            h.write_bool(s.from == Side::Server);
            match s.kind {
                SegKind::Syn => h.write_u8(0),
                SegKind::SynAck => h.write_u8(1),
                SegKind::Ack { ack } => {
                    h.write_u8(2);
                    h.write_u64(ack);
                }
                SegKind::Data { seq, len } => {
                    h.write_u8(3);
                    h.write_u64(seq);
                    h.write_u64(u64::from(len));
                }
                SegKind::Fin { seq } => {
                    h.write_u8(4);
                    h.write_u64(seq);
                }
                SegKind::Rst => h.write_u8(5),
            }
        };
        h.write_len(self.hosts.len());
        for host in &self.hosts {
            host.tx.fingerprint_into(&mut h);
            host.ports.fingerprint_into(&mut h);
        }
        h.write_u64(u64::from(self.next_conn));
        h.write_len(self.conn_arena.iter().filter(|s| s.is_some()).count());
        for (slot, conn) in self.conn_arena.iter().enumerate() {
            let Some(c) = conn else { continue };
            h.write_usize(slot);
            h.write_u8(match c.state {
                ConnState::SynSent => 0,
                ConnState::Established => 1,
                ConnState::Closed => 2,
                ConnState::Reset => 3,
            });
            for side in [Side::Client, Side::Server] {
                h.write_usize(c.host(side).0);
                h.write_u64(u64::from(c.port(side)));
                let ep = c.ep(side);
                h.write_len(ep.out.len());
                h.write_u64(ep.out_base);
                h.write_u64(ep.wrote);
                h.write_u64(ep.snd_nxt);
                h.write_u64(ep.snd_una);
                h.write_u64(ep.fin_at().map_or(u64::MAX, |s| s));
                h.write_bool(ep.fin_sent());
                h.write_bool(ep.fin_acked());
                h.write_len(ep.inbox.len());
                h.write_bytes(ep.inbox.as_slice());
                h.write_u64(ep.rcv_nxt);
                h.write_u64(ep.peer_fin().map_or(u64::MAX, |s| s));
                h.write_u32(u32::from(ep.retries));
                h.write_bool(ep.rto_armed());
                h.write_bool(ep.blocked_writer());
            }
            h.write_u64(c.listener.map_or(u64::MAX, |l| u64::from(l.0)));
            h.write_u32(u32::from(c.syn_sent));
            h.write_u8(match c.closed_first() {
                None => 0,
                Some(Side::Client) => 1,
                Some(Side::Server) => 2,
            });
            h.write_bool(c.accept_queued());
            h.write_bool(c.accepted());
            h.write_bool(c.ports_freed());
        }
        h.write_len(self.listeners.len());
        for l in &self.listeners {
            h.write_usize(l.backlog);
            h.write_len(l.syn_rcvd.len());
            for c in &l.syn_rcvd {
                h.write_u64(u64::from(c.0));
            }
            h.write_len(l.accept_q.len());
            for c in &l.accept_q {
                h.write_u64(u64::from(c.0));
            }
        }
        h.write_len(self.timers.len());
        self.timers.for_each_in_order(|at, seq, timer| {
            h.write_u64(at.as_nanos());
            h.write_u64(seq);
            match timer {
                Timer::Deliver(s) => {
                    h.write_u8(1);
                    seg_into(&mut h, s);
                }
                Timer::Rto { conn, side } => {
                    h.write_u8(2);
                    h.write_u64(u64::from(conn.0));
                    h.write_bool(*side == Side::Server);
                }
            }
        });
        h.write_len(self.out.len());
        h.finish()
    }

    /// Segments and bytes received by `host` so far.
    pub fn host_rx(&self, host: HostId) -> (u64, u64) {
        let h = &self.hosts[host.0];
        (h.segments_in, h.bytes_in)
    }

    /// Segments dropped on `host`'s egress queue.
    pub fn host_tx_drops(&self, host: HostId) -> u64 {
        self.hosts[host.0].tx.drops()
    }

    /// Ports currently in TIME_WAIT on `host`.
    pub fn time_wait_count(&self, host: HostId) -> usize {
        self.hosts[host.0].ports.in_time_wait()
    }

    // ------------------------------------------------------------------
    // Connection storage.
    // ------------------------------------------------------------------

    fn conn(&self, id: ConnId) -> Option<&Conn> {
        let &slot = self.conn_slot.get(id.0 as usize)?;
        self.conn_arena[slot as usize].as_ref()
    }

    fn conn_mut(&mut self, id: ConnId) -> Option<&mut Conn> {
        let &slot = self.conn_slot.get(id.0 as usize)?;
        self.conn_arena[slot as usize].as_mut()
    }

    fn conn_insert(&mut self, id: ConnId, conn: Conn) {
        let slot = match self.conn_free.pop() {
            Some(s) => {
                self.conn_arena[s as usize] = Some(conn);
                s
            }
            None => {
                self.conn_arena.push(Some(conn));
                (self.conn_arena.len() - 1) as u32
            }
        };
        self.conn_slot.insert(id.0 as usize, slot);
    }

    fn conn_remove(&mut self, id: ConnId) {
        if let Some(slot) = self.conn_slot.take(id.0 as usize) {
            self.conn_arena[slot as usize] = None;
            self.conn_free.push(slot);
        }
    }

    /// Heap bytes held by the connection machinery (id map pages, the
    /// slab arena, free lists) — the network side of the
    /// bytes-per-connection lane. Buffered stream bytes inside endpoints
    /// are excluded: inactive connections hold none.
    pub fn conn_mem_bytes(&self) -> usize {
        self.conn_slot.heap_bytes()
            + self.conn_arena.capacity() * std::mem::size_of::<Option<Conn>>()
            + self.conn_free.capacity() * std::mem::size_of::<u32>()
    }

    // ------------------------------------------------------------------
    // Timers.
    // ------------------------------------------------------------------

    /// Arms an RTO `delay` after `now` on that delay's lane.
    fn arm_rto(&mut self, now: SimTime, delay: SimDuration, conn: ConnId, side: Side) {
        self.timers
            .push(now + delay, delay_lane(delay), Timer::Rto { conn, side });
    }

    /// Earliest pending work, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let timer = self.timers.next_deadline();
        let ports = self
            .hosts
            .iter()
            .filter_map(|h| h.ports.next_expiry())
            .min();
        match (timer, ports) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// O(1): whether `advance_into(now, …)` would do anything — pending
    /// notifications, a due timer, or a due TIME_WAIT expiry. Lets the
    /// driving loop test for quiescence without paying for an empty
    /// advance pass.
    pub fn has_work_at(&self, now: SimTime) -> bool {
        !self.out.is_empty()
            || self.timers.has_due(now)
            || self
                .hosts
                .iter()
                .any(|h| h.ports.next_expiry().is_some_and(|t| t <= now))
    }

    /// Fires all timers due at or before `now` and returns the
    /// notifications accumulated since the previous call.
    ///
    /// Convenience wrapper over [`Network::advance_into`] that allocates
    /// a fresh vector per call; hot callers should hold a scratch buffer
    /// and use `advance_into` directly.
    pub fn advance(&mut self, now: SimTime) -> Vec<NetNotify> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    /// Fires all timers due at or before `now` and appends the
    /// notifications accumulated since the previous call to `out` (which
    /// is *not* cleared — the caller owns the buffer).
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<NetNotify>) {
        while let Some((t, timer)) = self.timers.pop_due(now) {
            match timer {
                Timer::Deliver(seg) => self.deliver(t, seg),
                Timer::Rto { conn, side } => self.rto_fire(t, conn, side),
            }
        }
        for h in &mut self.hosts {
            h.ports.expire(now);
        }
        out.append(&mut self.out);
    }

    // ------------------------------------------------------------------
    // Listener API.
    // ------------------------------------------------------------------

    /// Opens a listening socket on `host:port` with the given backlog.
    pub fn listen(
        &mut self,
        host: HostId,
        port: Port,
        backlog: usize,
    ) -> Result<ListenerId, NetError> {
        let addr = SockAddr::new(host, port);
        if self.listen_by_addr.contains_key(&addr) {
            return Err(NetError::AddrInUse);
        }
        if !self.hosts[host.0].ports.bind(port) {
            return Err(NetError::AddrInUse);
        }
        let id = ListenerId(self.listeners.len() as u32);
        self.listeners.push(Listener {
            backlog,
            syn_rcvd: BTreeSet::new(),
            accept_q: VecDeque::new(),
            refused: 0,
        });
        self.listen_by_addr.insert(addr, id);
        Ok(id)
    }

    /// Pops one established connection off the accept queue.
    pub fn accept(&mut self, listener: ListenerId) -> Option<EndpointId> {
        let l = self.listeners.get_mut(listener.0 as usize)?;
        let conn = l.accept_q.pop_front()?;
        if let Some(c) = self.conn_mut(conn) {
            c.set_accepted(true);
        }
        Some(EndpointId::new(conn, Side::Server))
    }

    /// When this endpoint's connection entered the accept queue
    /// (`None` until the three-way handshake queued it). Still valid
    /// after [`Network::accept`] pops it — the accept-wait latency span
    /// reads it from the just-accepted endpoint.
    pub fn accept_queued_at(&self, ep: EndpointId) -> Option<SimTime> {
        let c = self.conn(ep.conn)?;
        if c.accept_queued() {
            Some(c.accept_queued_at)
        } else {
            None
        }
    }

    /// Number of connections waiting in the accept queue.
    pub fn accept_queue_len(&self, listener: ListenerId) -> usize {
        self.listeners
            .get(listener.0 as usize)
            .map_or(0, |l| l.accept_q.len())
    }

    /// SYNs this listener refused because its backlog was full.
    pub fn refused_count(&self, listener: ListenerId) -> u64 {
        self.listeners
            .get(listener.0 as usize)
            .map_or(0, |l| l.refused)
    }

    // ------------------------------------------------------------------
    // Connection API.
    // ------------------------------------------------------------------

    /// Starts a connection from `host` to `remote`.
    ///
    /// `extra_delay` is added one-way to every segment of this
    /// connection, modelling a high-latency (modem-class) client.
    pub fn connect(
        &mut self,
        now: SimTime,
        host: HostId,
        remote: SockAddr,
        extra_delay: SimDuration,
    ) -> Result<ConnId, ConnectError> {
        let Some(port) = self.hosts[host.0].ports.alloc(now) else {
            self.stats.ports_exhausted += 1;
            return Err(ConnectError::PortsExhausted);
        };
        let id = ConnId(self.next_conn);
        // Checked: id exhaustion is a loud failure, never a silent wrap
        // onto a live handle.
        self.next_conn = self
            .next_conn
            .checked_add(1)
            .expect("invariant: connection id space (2^32) never exhausted in one run");
        let conn = Conn::new([host, remote.host], [port, remote.port], extra_delay, now);
        self.conn_insert(id, conn);
        self.stats.conns_started += 1;
        self.transmit(
            now,
            Segment {
                conn: id,
                from: Side::Client,
                kind: SegKind::Syn,
            },
        );
        if let Some(c) = self.conn_mut(id) {
            c.syn_sent = 1;
            // The SYN timer doubles as the client's data-RTO timer once
            // the handshake completes, so mark it armed to avoid a
            // duplicate from `pump`.
            c.ep_mut(Side::Client).set_rto_armed(true);
        }
        self.arm_rto(now, self.cfg.syn_rto, id, Side::Client);
        Ok(id)
    }

    /// Test hook: repositions the connection-id counter (e.g. near
    /// `u32::MAX`) so tests can exercise high-id handle paths — the
    /// paged id → slot map must serve sparse, huge indices without
    /// densifying.
    #[doc(hidden)]
    pub fn set_next_conn_id(&mut self, next: u32) {
        self.next_conn = next;
    }

    /// Writes application bytes into the endpoint's send buffer.
    ///
    /// Returns how many bytes were accepted (may be less than offered when
    /// the buffer fills; a [`NetNotify::Writable`] will follow once space
    /// frees).
    pub fn send(&mut self, now: SimTime, ep: EndpointId, data: &[u8]) -> Result<usize, NetError> {
        let accepted = {
            let cfg = self.cfg;
            let conn = self.conn_mut(ep.conn).ok_or(NetError::Gone)?;
            if conn.state == ConnState::Reset || conn.state == ConnState::Closed {
                return Err(NetError::BadState);
            }
            let e = conn.ep_mut(ep.side);
            if e.fin_at().is_some() {
                return Err(NetError::BadState);
            }
            let space = e.send_space(&cfg);
            let n = space.min(data.len());
            e.out.extend_from_slice(&data[..n]);
            e.wrote += n as u64;
            if n < data.len() {
                e.set_blocked_writer(true);
            }
            n
        };
        if accepted > 0 {
            self.pump(now, ep.conn, ep.side);
        }
        Ok(accepted)
    }

    /// Reads up to `max` bytes of in-order data.
    pub fn recv(&mut self, now: SimTime, ep: EndpointId, max: usize) -> Result<Vec<u8>, NetError> {
        let mut buf = Vec::new();
        self.recv_into(now, ep, max, &mut buf)?;
        Ok(buf)
    }

    /// Reads up to `max` bytes of in-order data, appending them to `buf`.
    ///
    /// The allocation-free sibling of [`Network::recv`]: servers read
    /// straight into their per-connection request buffers instead of
    /// routing every chunk through a fresh `Vec`.
    pub fn recv_into(
        &mut self,
        _now: SimTime,
        ep: EndpointId,
        max: usize,
        buf: &mut Vec<u8>,
    ) -> Result<usize, NetError> {
        let conn = self.conn_mut(ep.conn).ok_or(NetError::Gone)?;
        let e = conn.ep_mut(ep.side);
        let n = e.inbox.len().min(max);
        buf.extend_from_slice(&e.inbox.as_slice()[..n]);
        e.inbox.consume(n);
        Ok(n)
    }

    /// Reads and discards up to `max` bytes of in-order data, returning
    /// only a summary — the byte count and the first bytes of the chunk.
    /// This is the hot-path sibling of [`Network::recv`] for callers
    /// (e.g. load generators) that never look past a response prefix.
    pub fn recv_discard(
        &mut self,
        _now: SimTime,
        ep: EndpointId,
        max: usize,
    ) -> Result<RecvSummary, NetError> {
        let conn = self.conn_mut(ep.conn).ok_or(NetError::Gone)?;
        let e = conn.ep_mut(ep.side);
        let n = e.inbox.len().min(max);
        let mut prefix = [0u8; RECV_PREFIX];
        let prefix_len = n.min(RECV_PREFIX);
        prefix[..prefix_len].copy_from_slice(&e.inbox.as_slice()[..prefix_len]);
        e.inbox.consume(n);
        Ok(RecvSummary {
            len: n,
            prefix,
            prefix_len,
        })
    }

    /// Bytes available for `recv` right now.
    pub fn readable_bytes(&self, ep: EndpointId) -> usize {
        self.conn(ep.conn).map_or(0, |c| c.ep(ep.side).inbox.len())
    }

    /// Whether the peer has closed its sending direction (EOF after the
    /// inbox drains).
    pub fn peer_closed(&self, ep: EndpointId) -> bool {
        self.conn(ep.conn)
            .is_some_and(|c| c.ep(ep.side).recv_done())
    }

    /// Free space in the send buffer.
    pub fn send_space(&self, ep: EndpointId) -> usize {
        self.conn(ep.conn)
            .map_or(0, |c| c.ep(ep.side).send_space(&self.cfg))
    }

    /// Whether the connection is established and not reset.
    pub fn is_established(&self, conn: ConnId) -> bool {
        self.conn(conn)
            .is_some_and(|c| c.state == ConnState::Established)
    }

    /// Whether the connection still exists (reset tombstones awaiting
    /// their RST delivery do not count).
    pub fn exists(&self, conn: ConnId) -> bool {
        self.conn(conn).is_some_and(|c| c.state != ConnState::Reset)
    }

    /// One-way base delay of the switch fabric.
    fn link_base_delay(&self) -> SimDuration {
        // All hosts share one link configuration; asking host 0 is fine.
        self.base_delay
    }

    /// Half-closes the endpoint: all buffered data is sent, then a FIN.
    pub fn close(&mut self, now: SimTime, ep: EndpointId) -> Result<(), NetError> {
        {
            let conn = self.conn_mut(ep.conn).ok_or(NetError::Gone)?;
            if conn.state == ConnState::Reset || conn.state == ConnState::Closed {
                return Err(NetError::BadState);
            }
            let e = conn.ep_mut(ep.side);
            if e.fin_at().is_some() {
                return Err(NetError::BadState);
            }
            e.set_fin_at(e.wrote);
            if conn.closed_first().is_none() {
                conn.set_closed_first(ep.side);
            }
        }
        self.pump(now, ep.conn, ep.side);
        Ok(())
    }

    /// Aborts the connection: RST to the peer, local resources freed
    /// immediately, no TIME_WAIT.
    pub fn abort(&mut self, now: SimTime, ep: EndpointId) -> Result<(), NetError> {
        let conn = self.conn_mut(ep.conn).ok_or(NetError::Gone)?;
        if conn.state == ConnState::Closed || conn.state == ConnState::Reset {
            return Err(NetError::BadState);
        }
        conn.state = ConnState::Reset;
        let (from_host, extra) = (conn.host(ep.side), conn.extra_delay);
        self.stats.conns_reset += 1;
        let seg = Segment {
            conn: ep.conn,
            from: ep.side,
            kind: SegKind::Rst,
        };
        // RSTs bypass the drop-tail queue: modelling their loss would only
        // leak tombstones without adding any behaviour the paper measures.
        let delay = self.hosts[from_host.0].tx.tx_time(seg.wire_bytes());
        let base = self.link_base_delay();
        self.timers
            .push(now + delay + base + extra, None, Timer::Deliver(seg));
        self.free_conn_ports(ep.conn, None);
        self.detach_listener(ep.conn);
        // The tombstone is reaped when the RST delivers (`on_rst`).
        Ok(())
    }

    // ------------------------------------------------------------------
    // Internals: transmission and delivery.
    // ------------------------------------------------------------------

    fn transmit(&mut self, now: SimTime, seg: Segment) {
        let (from_host, extra) = match self.conn(seg.conn) {
            Some(conn) => (conn.host(seg.from), conn.extra_delay),
            None => return,
        };
        // Injected random loss (never applied to RSTs, which bypass the
        // queue in `abort` for tombstone-reaping reasons).
        if self.loss_prob > 0.0 && self.rng.gen_bool(self.loss_prob) {
            self.stats.injected_losses += 1;
            return;
        }
        match self.hosts[from_host.0].tx.offer(now, &seg, extra) {
            TxOutcome::Deliver(at) => {
                self.timers
                    .push(at, deliver_lane(from_host, extra), Timer::Deliver(seg));
            }
            TxOutcome::Dropped => {
                // Loss: the retransmission machinery recovers.
            }
        }
    }

    fn deliver(&mut self, now: SimTime, seg: Segment) {
        let Some(conn) = self.conn(seg.conn) else {
            return; // Connection vanished (aborted); stale segment.
        };
        let to_side = seg.from.other();
        let host = conn.host(to_side);
        {
            let h = &mut self.hosts[host.0];
            h.segments_in += 1;
            h.bytes_in += seg.wire_bytes() as u64;
        }
        self.out.push(NetNotify::SegmentArrived {
            host,
            wire_bytes: seg.wire_bytes(),
        });
        match seg.kind {
            SegKind::Syn => self.on_syn(now, seg.conn),
            SegKind::SynAck => self.on_synack(now, seg.conn),
            SegKind::Ack { ack } => self.on_ack(now, seg.conn, to_side, ack),
            SegKind::Data { seq, len } => self.on_data(now, seg.conn, to_side, seq, len),
            SegKind::Fin { seq } => self.on_fin(now, seg.conn, to_side, seq),
            SegKind::Rst => self.on_rst(now, seg.conn, to_side),
        }
    }

    fn on_syn(&mut self, now: SimTime, conn_id: ConnId) {
        let Some(conn) = self.conn_mut(conn_id) else {
            return;
        };
        if conn.listener.is_some() {
            if !conn.accept_queued() {
                // Duplicate SYN (client retransmission): re-answer.
                let seg = Segment {
                    conn: conn_id,
                    from: Side::Server,
                    kind: SegKind::SynAck,
                };
                self.transmit(now, seg);
            }
            return;
        }
        let addr = SockAddr::new(conn.host(Side::Server), conn.port(Side::Server));
        let Some(&lid) = self.listen_by_addr.get(&addr) else {
            // No listener: refuse.
            let seg = Segment {
                conn: conn_id,
                from: Side::Server,
                kind: SegKind::Rst,
            };
            self.transmit(now, seg);
            return;
        };
        let l = self
            .listeners
            .get_mut(lid.0 as usize)
            .expect("invariant: accepting connections keep their listener");
        if l.syn_rcvd.len() + l.accept_q.len() >= l.backlog {
            l.refused += 1;
            self.stats.syn_drops += 1;
            self.out.push(NetNotify::SynDropped { listener: lid });
            if self.cfg.rst_on_backlog_full {
                let seg = Segment {
                    conn: conn_id,
                    from: Side::Server,
                    kind: SegKind::Rst,
                };
                self.transmit(now, seg);
            }
            return;
        }
        l.syn_rcvd.insert(conn_id);
        let conn = self
            .conn_mut(conn_id)
            .expect("invariant: delivered segments reference live connections");
        conn.listener = Some(lid);
        let seg = Segment {
            conn: conn_id,
            from: Side::Server,
            kind: SegKind::SynAck,
        };
        self.transmit(now, seg);
    }

    fn on_synack(&mut self, now: SimTime, conn_id: ConnId) {
        let Some(conn) = self.conn_mut(conn_id) else {
            return;
        };
        match conn.state {
            ConnState::SynSent => {
                conn.state = ConnState::Established;
                conn.ep_mut(Side::Client).last_progress = now;
                self.stats.conns_established += 1;
                self.out.push(NetNotify::ConnectDone {
                    ep: EndpointId::new(conn_id, Side::Client),
                });
                let seg = Segment {
                    conn: conn_id,
                    from: Side::Client,
                    kind: SegKind::Ack { ack: 0 },
                };
                self.transmit(now, seg);
                // Data may already be buffered (connect-then-write).
                self.pump(now, conn_id, Side::Client);
            }
            ConnState::Established => {
                // Duplicate SYN-ACK: re-ack the handshake.
                let seg = Segment {
                    conn: conn_id,
                    from: Side::Client,
                    kind: SegKind::Ack { ack: 0 },
                };
                self.transmit(now, seg);
            }
            _ => {}
        }
    }

    /// Promotes a server-side connection onto the accept queue (on the
    /// handshake ack, or on first data/FIN doing double duty when the ack
    /// was lost).
    fn promote_server(&mut self, now: SimTime, conn_id: ConnId) {
        let Some(conn) = self.conn_mut(conn_id) else {
            return;
        };
        let Some(lid) = conn.listener else {
            return; // No SYN seen yet (cannot happen in a FIFO network).
        };
        if conn.accept_queued() {
            return;
        }
        conn.ep_mut(Side::Server).last_progress = now;
        conn.set_accept_queued(true);
        conn.accept_queued_at = now;
        let l = self
            .listeners
            .get_mut(lid.0 as usize)
            .expect("invariant: accepting connections keep their listener");
        l.syn_rcvd.remove(&conn_id);
        l.accept_q.push_back(conn_id);
        self.out.push(NetNotify::AcceptReady { listener: lid });
    }

    fn on_ack(&mut self, now: SimTime, conn_id: ConnId, to_side: Side, ack: u64) {
        if to_side == Side::Server {
            self.promote_server(now, conn_id);
        }
        let cfg = self.cfg;
        let mut became_writable = false;
        let mut fin_now_acked = false;
        {
            let Some(conn) = self.conn_mut(conn_id) else {
                return;
            };
            let e = conn.ep_mut(to_side);
            if ack > e.snd_una {
                e.snd_una = ack.min(e.snd_nxt);
                e.last_progress = now;
                e.retries = 0;
                // Trim acknowledged bytes (the FIN occupies one virtual
                // sequence slot past `wrote`, so clamp).
                let trim_to = e.snd_una.min(e.wrote);
                if e.out_base < trim_to {
                    e.out.consume((trim_to - e.out_base) as usize);
                    e.out_base = trim_to;
                }
                if let Some(fin) = e.fin_at() {
                    if e.snd_una > fin {
                        if !e.fin_acked() {
                            fin_now_acked = true;
                        }
                        e.set_fin_acked(true);
                    }
                }
                if e.blocked_writer() && e.send_space(&cfg) > 0 {
                    e.set_blocked_writer(false);
                    became_writable = true;
                }
            }
        }
        if became_writable {
            self.out.push(NetNotify::Writable {
                ep: EndpointId::new(conn_id, to_side),
            });
        }
        // More window may be open now.
        self.pump(now, conn_id, to_side);
        if fin_now_acked {
            self.check_full_close(now, conn_id);
        }
    }

    fn on_data(&mut self, now: SimTime, conn_id: ConnId, to_side: Side, seq: u64, len: u32) {
        if to_side == Side::Server {
            self.promote_server(now, conn_id);
        }
        let mut readable = false;
        let ack;
        {
            let Some(conn) = self.conn_mut(conn_id) else {
                return;
            };
            if conn.state != ConnState::Established {
                return;
            }
            // Copy the in-order payload straight from the peer's stream
            // buffer into the inbox (split borrow of the endpoint pair —
            // no intermediate allocation).
            if seq == conn.ep(to_side).rcv_nxt {
                let (a, b) = conn.eps.split_at_mut(1);
                let (rx, tx) = match to_side.index() {
                    0 => (&mut a[0], &b[0]),
                    _ => (&mut b[0], &a[0]),
                };
                let start = (seq - tx.out_base) as usize;
                let payload = &tx.out.as_slice()[start..start + len as usize];
                rx.inbox.extend_from_slice(payload);
                rx.rcv_nxt = seq + len as u64;
                readable = true;
            }
            ack = conn.ep(to_side).rcv_nxt;
        }
        if readable {
            self.out.push(NetNotify::Readable {
                ep: EndpointId::new(conn_id, to_side),
            });
        }
        let seg = Segment {
            conn: conn_id,
            from: to_side,
            kind: SegKind::Ack { ack },
        };
        self.transmit(now, seg);
    }

    fn on_fin(&mut self, now: SimTime, conn_id: ConnId, to_side: Side, seq: u64) {
        if to_side == Side::Server {
            self.promote_server(now, conn_id);
        }
        let mut saw_fin = false;
        let ack;
        {
            let Some(conn) = self.conn_mut(conn_id) else {
                return;
            };
            let e = conn.ep_mut(to_side);
            if seq == e.rcv_nxt && e.peer_fin().is_none() {
                e.set_peer_fin(seq);
                e.rcv_nxt = seq + 1;
                saw_fin = true;
            }
            ack = conn.ep(to_side).rcv_nxt;
        }
        if saw_fin {
            self.out.push(NetNotify::PeerClosed {
                ep: EndpointId::new(conn_id, to_side),
            });
        }
        let seg = Segment {
            conn: conn_id,
            from: to_side,
            kind: SegKind::Ack { ack },
        };
        self.transmit(now, seg);
        if saw_fin {
            self.check_full_close(now, conn_id);
        }
    }

    fn on_rst(&mut self, now: SimTime, conn_id: ConnId, to_side: Side) {
        let Some(conn) = self.conn_mut(conn_id) else {
            return;
        };
        let was_syn_sent = conn.state == ConnState::SynSent;
        let newly_reset = conn.state != ConnState::Reset;
        conn.state = ConnState::Reset;
        let host = conn.host(Side::Client);
        if newly_reset {
            self.stats.conns_reset += 1;
        }
        if was_syn_sent {
            self.out.push(NetNotify::ConnectFailed {
                conn: conn_id,
                host,
                reason: ConnectError::Refused,
            });
        } else {
            self.out.push(NetNotify::ConnReset {
                ep: EndpointId::new(conn_id, to_side),
            });
        }
        let _ = now;
        self.free_conn_ports(conn_id, None);
        self.detach_listener(conn_id);
        self.conn_remove(conn_id);
    }

    /// Sends whatever the window allows: data first, then the FIN.
    fn pump(&mut self, now: SimTime, conn_id: ConnId, side: Side) {
        let mut to_send = std::mem::take(&mut self.pump_scratch);
        to_send.clear();
        let mut arm_rto = false;
        {
            let cfg = self.cfg;
            let Some(conn) = self.conn_mut(conn_id) else {
                self.pump_scratch = to_send;
                return;
            };
            if conn.state != ConnState::Established {
                self.pump_scratch = to_send;
                return; // Data flows only once established.
            }
            let window = cfg.window_segments as u64 * cfg.mss as u64;
            let e = conn.ep_mut(side);
            while e.snd_nxt < e.wrote && e.in_flight() < window {
                let len = (e.wrote - e.snd_nxt).min(cfg.mss as u64) as u32;
                to_send.push(Segment {
                    conn: conn_id,
                    from: side,
                    kind: SegKind::Data {
                        seq: e.snd_nxt,
                        len,
                    },
                });
                e.snd_nxt += len as u64;
            }
            if let Some(fin) = e.fin_at() {
                if e.snd_nxt == fin && !e.fin_sent() && e.in_flight() < window + 1 {
                    to_send.push(Segment {
                        conn: conn_id,
                        from: side,
                        kind: SegKind::Fin { seq: fin },
                    });
                    e.set_fin_sent(true);
                    e.snd_nxt = fin + 1;
                }
            }
            if e.in_flight() > 0 && !e.rto_armed() {
                e.set_rto_armed(true);
                arm_rto = true;
            }
        }
        for &seg in &to_send {
            self.transmit(now, seg);
        }
        self.pump_scratch = to_send;
        if arm_rto {
            self.arm_rto(now, self.cfg.rto_initial, conn_id, side);
        }
    }

    fn rto_fire(&mut self, now: SimTime, conn_id: ConnId, side: Side) {
        enum Action {
            None,
            ConnectTimeout,
            ResendSyn { rearm: SimDuration },
            ResetBoth,
            Retransmit { rearm: SimDuration },
            Rearm { at: SimTime },
        }
        let action;
        {
            let cfg = self.cfg;
            let Some(conn) = self.conn_mut(conn_id) else {
                return;
            };
            match conn.state {
                ConnState::SynSent if side == Side::Client => {
                    if u32::from(conn.syn_sent) > cfg.syn_retries {
                        action = Action::ConnectTimeout;
                    } else {
                        conn.syn_sent += 1;
                        let backoff = cfg.syn_rto * (1 << (conn.syn_sent - 1).min(4)) as u64;
                        action = Action::ResendSyn {
                            rearm: backoff.min(cfg.rto_max),
                        };
                    }
                }
                ConnState::Established => {
                    let e = conn.ep_mut(side);
                    if e.in_flight() == 0 {
                        e.set_rto_armed(false);
                        action = Action::None;
                    } else {
                        let rto = cfg
                            .rto_initial
                            .mul_f64((1u64 << e.retries.min(6)) as f64)
                            .min(cfg.rto_max);
                        let age = now.saturating_duration_since(e.last_progress);
                        if age >= rto {
                            if u32::from(e.retries) >= cfg.data_retries {
                                action = Action::ResetBoth;
                            } else {
                                e.retries += 1;
                                e.snd_nxt = e.snd_una; // Go-back-N.
                                if let Some(fin) = e.fin_at() {
                                    if e.snd_una <= fin {
                                        e.set_fin_sent(false);
                                    }
                                }
                                let next = cfg
                                    .rto_initial
                                    .mul_f64((1u64 << e.retries.min(6)) as f64)
                                    .min(cfg.rto_max);
                                action = Action::Retransmit { rearm: next };
                            }
                        } else {
                            action = Action::Rearm {
                                at: e.last_progress + rto,
                            };
                        }
                    }
                }
                _ => {
                    // Handshake completed or connection tearing down:
                    // disarm quietly.
                    let e = conn.ep_mut(side);
                    e.set_rto_armed(false);
                    action = Action::None;
                }
            }
        }
        match action {
            Action::None => {}
            Action::ConnectTimeout => {
                let conn = self
                    .conn(conn_id)
                    .expect("invariant: existence checked above");
                let host = conn.host(Side::Client);
                self.out.push(NetNotify::ConnectFailed {
                    conn: conn_id,
                    host,
                    reason: ConnectError::Timeout,
                });
                self.free_conn_ports(conn_id, None);
                self.conn_remove(conn_id);
            }
            Action::ResendSyn { rearm } => {
                self.transmit(
                    now,
                    Segment {
                        conn: conn_id,
                        from: Side::Client,
                        kind: SegKind::Syn,
                    },
                );
                self.timers.push(
                    now + rearm,
                    None,
                    Timer::Rto {
                        conn: conn_id,
                        side,
                    },
                );
            }
            Action::ResetBoth => {
                let conn = self
                    .conn_mut(conn_id)
                    .expect("invariant: existence checked above");
                conn.state = ConnState::Reset;
                self.stats.conns_reset += 1;
                self.out.push(NetNotify::ConnReset {
                    ep: EndpointId::new(conn_id, side),
                });
                self.out.push(NetNotify::ConnReset {
                    ep: EndpointId::new(conn_id, side.other()),
                });
                self.free_conn_ports(conn_id, None);
                self.detach_listener(conn_id);
                self.conn_remove(conn_id);
            }
            Action::Retransmit { rearm } => {
                self.stats.retransmits += 1;
                self.pump_retransmit(now, conn_id, side);
                self.timers.push(
                    now + rearm,
                    None,
                    Timer::Rto {
                        conn: conn_id,
                        side,
                    },
                );
            }
            Action::Rearm { at } => {
                self.timers.push(
                    at,
                    None,
                    Timer::Rto {
                        conn: conn_id,
                        side,
                    },
                );
            }
        }
    }

    /// Re-sends everything from `snd_una` (go-back-N restart).
    fn pump_retransmit(&mut self, now: SimTime, conn_id: ConnId, side: Side) {
        // `pump` resends from `snd_nxt`, which the RTO handler rewound.
        self.pump(now, conn_id, side);
    }

    fn check_full_close(&mut self, now: SimTime, conn_id: ConnId) {
        let done = self.conn(conn_id).is_some_and(|c| c.fully_closed());
        if !done {
            return;
        }
        self.stats.conns_closed += 1;
        self.out.push(NetNotify::ConnClosed {
            ep: EndpointId::new(conn_id, Side::Client),
        });
        self.out.push(NetNotify::ConnClosed {
            ep: EndpointId::new(conn_id, Side::Server),
        });
        // TIME_WAIT is per connection tuple; whichever side closed first,
        // the tuple — and hence the client's ephemeral port — cannot be
        // reused for `time_wait`. Parking the client port models that.
        self.free_conn_ports(conn_id, Some((Side::Client, now + self.cfg.time_wait)));
        self.detach_listener(conn_id);
        if let Some(c) = self.conn_mut(conn_id) {
            c.state = ConnState::Closed;
        }
        self.conn_remove(conn_id);
    }

    /// Releases both ports; the side in `time_wait` (if any) holds its
    /// port until the given expiry.
    fn free_conn_ports(&mut self, conn_id: ConnId, time_wait: Option<(Side, SimTime)>) {
        let Some(conn) = self.conn_mut(conn_id) else {
            return;
        };
        if conn.ports_freed() {
            return;
        }
        conn.set_ports_freed(true);
        let sides = [
            (conn.host(Side::Client), conn.port(Side::Client)),
            (conn.host(Side::Server), conn.port(Side::Server)),
        ];
        for (side, (host, port)) in [Side::Client, Side::Server].into_iter().zip(sides) {
            // A listener's well-known port is shared by many connections;
            // only ephemeral (client-allocated) ports are released.
            let is_listener_port = self.listen_by_addr.contains_key(&SockAddr::new(host, port));

            if is_listener_port {
                continue;
            }
            match time_wait {
                Some((tw_side, until)) if tw_side == side => {
                    self.hosts[host.0].ports.release_time_wait(port, until);
                }
                _ => self.hosts[host.0].ports.release(port),
            }
        }
    }

    fn detach_listener(&mut self, conn_id: ConnId) {
        let Some(conn) = self.conn(conn_id) else {
            return;
        };
        let (listener, accepted) = (conn.listener, conn.accepted());
        if let Some(lid) = listener {
            if let Some(l) = self.listeners.get_mut(lid.0 as usize) {
                l.syn_rcvd.remove(&conn_id);
                if !accepted {
                    l.accept_q.retain(|c| *c != conn_id);
                }
            }
        }
    }
}

/// Timer-queue lane of a segment delivery. `Tx` serializes each host's
/// segments and the base delay is shared, so for one (sending host,
/// extra delay) pair arrival times never decrease.
fn deliver_lane(host: HostId, extra: SimDuration) -> Option<u64> {
    Some((extra.as_nanos() << 16) | (host.0 as u64 & 0xFFFF))
}

/// Timer-queue lane of a timer armed a constant `delay` after the
/// current instant (kept apart from [`deliver_lane`] by the top bit).
fn delay_lane(delay: SimDuration) -> Option<u64> {
    Some((1 << 63) | delay.as_nanos())
}

/// How many response-prefix bytes [`Network::recv_discard`] captures.
pub const RECV_PREFIX: usize = 12;

/// Summary of a drained-and-discarded read: the byte count plus the
/// first bytes of the chunk (enough for an HTTP status-line check)
/// without materialising the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvSummary {
    /// Bytes drained from the inbox.
    pub len: usize,
    /// The first `prefix_len` bytes of the drained chunk.
    pub prefix: [u8; RECV_PREFIX],
    /// How many bytes of `prefix` are valid.
    pub prefix_len: usize,
}

impl RecvSummary {
    /// The valid prefix bytes.
    pub fn prefix(&self) -> &[u8] {
        &self.prefix[..self.prefix_len]
    }
}
