//! The host-time ledger of the traced run: a timer around every call the
//! replica makes into a layer's public functions, self time by span
//! nesting, allocations charged to the open layer, and a sampled span
//! log exported as Chrome-trace JSON.
//!
//! The ledger is thread-local state because the backend adapter
//! ([`Timed`]) runs inside the server, out of the replica's reach.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use devpoll::{DevPollRegistry, EventBackend, WaitResult};
use simcore::fingerprint::Fnv;
use simcore::time::SimTime;
use simkernel::{Errno, Fd, Kernel, Pid, PollBits};

use crate::heap;

/// The crates allocations are charged to (index into
/// [`heap::allocs`]; 0 is the replica's own loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crate {
    /// `httperf`: load generator and scheduler.
    Httperf = 1,
    /// `simnet`.
    Simnet = 2,
    /// `simkernel`.
    Simkernel = 3,
    /// `devpoll` (`crates/core`).
    Devpoll = 4,
    /// `servers`.
    Servers = 5,
}

/// A timed call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// `LoadGen::on_net`.
    LoadOnNet,
    /// `LoadGen::on_timer`.
    LoadOnTimer,
    /// Deadline and quiescence polling plus the timer heap.
    Sched,
    /// `Network::advance_into`.
    NetAdvance,
    /// `Kernel::on_net`.
    KernelOnNet,
    /// `Kernel::advance_into`.
    KernelAdvance,
    /// `DevPollRegistry::on_fd_event`.
    DevpollHint,
    /// `EventBackend::wait`.
    BackendWait,
    /// `EventBackend::set_interest`.
    BackendSet,
    /// `EventBackend::remove_interest`.
    BackendRemove,
    /// `Server::run_batch_for`.
    ServerBatch,
}

/// Number of [`Site`]s.
pub const SITES: usize = 11;

impl Site {
    /// Metric-name prefix and span name.
    pub fn name(self) -> &'static str {
        match self {
            Site::LoadOnNet => "httperf.loadgen.on_net",
            Site::LoadOnTimer => "httperf.loadgen.on_timer",
            Site::Sched => "httperf.sched",
            Site::NetAdvance => "simnet.advance",
            Site::KernelOnNet => "simkernel.on_net",
            Site::KernelAdvance => "simkernel.advance",
            Site::DevpollHint => "devpoll.on_fd_event",
            Site::BackendWait => "devpoll.backend.wait",
            Site::BackendSet => "devpoll.backend.set_interest",
            Site::BackendRemove => "devpoll.backend.remove_interest",
            Site::ServerBatch => "servers.batch",
        }
    }

    /// The crate whose code the site runs.
    pub fn account(self) -> Crate {
        match self {
            Site::LoadOnNet | Site::LoadOnTimer | Site::Sched => Crate::Httperf,
            Site::NetAdvance => Crate::Simnet,
            Site::KernelOnNet | Site::KernelAdvance => Crate::Simkernel,
            Site::DevpollHint | Site::BackendWait | Site::BackendSet | Site::BackendRemove => {
                Crate::Devpoll
            }
            Site::ServerBatch => Crate::Servers,
        }
    }
}

/// Totals per site for one world.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Calls.
    pub calls: [u64; SITES],
    /// Host ns inside the call, children included.
    pub total_ns: [u64; SITES],
    /// Host ns inside the call, children excluded.
    pub self_ns: [u64; SITES],
    /// Ready descriptors returned by `wait`.
    pub ready: u64,
}

/// One retained span: site, start and end in ns since the ledger's
/// origin, and the index of the enclosing span.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    site: Site,
    world: u32,
    start: u64,
    end: u64,
    parent: Option<u32>,
}

struct Open {
    site: Site,
    start: Instant,
    child_ns: u64,
    prev_account: usize,
    span: Option<u32>,
}

/// One top-level span in this many is retained with its children.
pub const SAMPLE_EVERY: u64 = 1024;
/// Retained span cap for the whole process.
pub const SPAN_CAP: usize = 1 << 17;

struct Ledger {
    totals: Totals,
    stack: Vec<Open>,
    origin: Instant,
    world: u32,
    top_level: u64,
    spans: Vec<SpanRec>,
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger {
        totals: Totals::default(),
        stack: Vec::with_capacity(8),
        origin: Instant::now(),
        world: 0,
        top_level: 0,
        spans: Vec::new(),
    });
}

/// Starts a world: clears the totals and tags later spans with `world`.
/// Spans a panicking world left open are dropped.
pub fn begin_world(world: u32) {
    heap::charge_to(0);
    LEDGER.with_borrow_mut(|l| {
        l.stack.clear();
        l.totals = Totals::default();
        l.world = world;
        if l.spans.capacity() == 0 {
            l.spans.reserve_exact(SPAN_CAP);
        }
    });
}

/// The totals since [`begin_world`].
pub fn totals() -> Totals {
    LEDGER.with_borrow(|l| l.totals.clone())
}

/// Opens a span at `site`.
pub fn enter(site: Site) {
    let prev_account = heap::charge_to(site.account() as usize);
    LEDGER.with_borrow_mut(|l| {
        let parent = l.stack.last().map(|o| o.span);
        let keep = match parent {
            Some(parent) => parent.is_some(),
            None => {
                l.top_level += 1;
                l.top_level % SAMPLE_EVERY == 1
            }
        };
        let span = (keep && l.spans.len() < SPAN_CAP).then(|| {
            l.spans.push(SpanRec {
                site,
                world: l.world,
                start: 0,
                end: 0,
                parent: parent.flatten(),
            });
            (l.spans.len() - 1) as u32
        });
        let start = Instant::now();
        if let Some(i) = span {
            l.spans[i as usize].start = start.duration_since(l.origin).as_nanos() as u64;
        }
        l.stack.push(Open {
            site,
            start,
            child_ns: 0,
            prev_account,
            span,
        });
    });
}

/// Closes the innermost open span.
pub fn exit() {
    let end = Instant::now();
    let prev_account = LEDGER.with_borrow_mut(|l| {
        let open = l.stack.pop().expect("invariant: exit matches an enter");
        let ns = end.duration_since(open.start).as_nanos() as u64;
        let i = open.site as usize;
        l.totals.calls[i] += 1;
        l.totals.total_ns[i] += ns;
        l.totals.self_ns[i] += ns.saturating_sub(open.child_ns);
        if let Some(parent) = l.stack.last_mut() {
            parent.child_ns += ns;
        }
        if let Some(s) = open.span {
            l.spans[s as usize].end = end.duration_since(l.origin).as_nanos() as u64;
        }
        open.prev_account
    });
    heap::charge_to(prev_account);
}

/// Runs `f` inside a span at `site`.
#[inline]
pub fn timed<R>(site: Site, f: impl FnOnce() -> R) -> R {
    enter(site);
    let r = f();
    exit();
    r
}

/// Retained spans so far.
pub fn span_count() -> usize {
    LEDGER.with_borrow(|l| l.spans.len())
}

/// The retained spans as Chrome-trace JSON (`chrome://tracing`,
/// Perfetto): one complete event per span, one track per world, times
/// in µs since the ledger's origin.
pub fn chrome_trace() -> String {
    LEDGER.with_borrow(|l| {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in l.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                s.site.name(),
                s.site.name().split('.').next().unwrap_or(""),
                s.world,
                s.start as f64 / 1e3,
                s.end.saturating_sub(s.start) as f64 / 1e3,
                s.parent.map_or(-1, i64::from),
            );
        }
        out.push_str("]}\n");
        out
    })
}

/// The timing adapter: the real backend, with each `wait`,
/// `set_interest` and `remove_interest` timed as a `devpoll.backend.*`
/// span and `wait`'s ready descriptors counted.
pub struct Timed<B> {
    inner: B,
}

impl<B> Timed<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Timed<B> {
        Timed { inner }
    }
}

impl<B: EventBackend> EventBackend for Timed<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(
        &mut self,
        kernel: &mut Kernel,
        registry: &mut DevPollRegistry,
        now: SimTime,
        pid: Pid,
    ) -> Result<(), Errno> {
        self.inner.init(kernel, registry, now, pid)
    }

    fn set_interest(
        &mut self,
        kernel: &mut Kernel,
        registry: &mut DevPollRegistry,
        now: SimTime,
        pid: Pid,
        fd: Fd,
        events: PollBits,
    ) -> Result<(), Errno> {
        timed(Site::BackendSet, || {
            self.inner
                .set_interest(kernel, registry, now, pid, fd, events)
        })
    }

    fn remove_interest(
        &mut self,
        kernel: &mut Kernel,
        registry: &mut DevPollRegistry,
        now: SimTime,
        pid: Pid,
        fd: Fd,
    ) -> Result<(), Errno> {
        timed(Site::BackendRemove, || {
            self.inner.remove_interest(kernel, registry, now, pid, fd)
        })
    }

    fn wait(
        &mut self,
        kernel: &mut Kernel,
        registry: &mut DevPollRegistry,
        now: SimTime,
        pid: Pid,
        max: usize,
        timeout_ms: i32,
    ) -> Result<WaitResult, Errno> {
        let result = timed(Site::BackendWait, || {
            self.inner.wait(kernel, registry, now, pid, max, timeout_ms)
        });
        if let Ok(WaitResult::Events(ready)) = &result {
            LEDGER.with_borrow_mut(|l| l.totals.ready += ready.len() as u64);
        }
        result
    }

    fn interest_len(&self) -> usize {
        self.inner.interest_len()
    }

    /// Forks the real backend; the copy is not timed.
    fn clone_box(&self) -> Box<dyn EventBackend> {
        self.inner.clone_box()
    }

    fn fingerprint_into(&self, h: &mut Fnv) {
        self.inner.fingerprint_into(h)
    }
}
