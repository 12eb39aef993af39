//! Metric definitions: the end-to-end metrics of untraced worlds, the
//! per-layer ledger of traced ones, and the result line.

use std::fmt::Write as _;
use std::time::Duration;

use crate::ledger::{Crate, Site};
use crate::replica::TracedRun;
use crate::world::{WorldRun, TAIL_Q};

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The `q` quantile of `values`, interpolating between order
/// statistics; `NaN` for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Heap above the empty world's, per peak server endpoint.
fn heap_per_conn(run: &WorldRun, empty_heap: u64) -> f64 {
    ratio(
        run.peak_heap.saturating_sub(empty_heap),
        run.eps_peak.max(1),
    )
}

/// The end-to-end metrics over the untraced worlds of one invocation.
/// Host times are scaled by each world's slowdown (see
/// [`crate::yardstick`]): they read as the reference machine would
/// have run the world at its fast phase.
pub fn end_to_end(runs: &[WorldRun], empty_heap: u64) -> Vec<Metric> {
    if runs.is_empty() {
        return Vec::new();
    }
    let per_world = |f: &dyn Fn(&WorldRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let secs = |r: &WorldRun, d: Duration| d.as_secs_f64() / r.slowdown;
    let slices: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.slices.iter().map(move |&d| secs(r, d) * 1e3))
        .collect();
    vec![
        metric(
            "wall_ns_per_conn",
            per_world(&|r| secs(r, r.wall) * 1e9 / r.conns as f64),
            "ns",
        ),
        metric(
            "sim_s_per_wall_s",
            per_world(&|r| r.sim_secs / secs(r, r.wall)),
            "s/s",
        ),
        metric("slice_ms.p50", median(&slices), "ms"),
        metric("slice_ms.tail", quantile(&slices, TAIL_Q), "ms"),
        metric(
            "peak_heap_mb",
            crate::heap::process_peak() as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        metric(
            "heap_bytes_per_conn",
            per_world(&|r| heap_per_conn(r, empty_heap)),
            "B",
        ),
        metric("setup_s", per_world(&|r| secs(r, r.setup)), "s"),
    ]
}

/// The raw host figures behind the scaled ones, for the report lines
/// above the result: unscaled wall time per connection, and the host's
/// median slowdown against the yardstick's reference.
pub fn unscaled(runs: &[WorldRun]) -> Vec<Metric> {
    let per_world = |f: &dyn Fn(&WorldRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    vec![
        metric(
            "unscaled wall_ns_per_conn",
            per_world(&|r| r.wall.as_nanos() as f64 / r.conns as f64),
            "ns",
        ),
        metric("host slowdown", per_world(&|r| r.slowdown), "x"),
    ]
}

/// The per-layer metrics of one traced world, paired with its untraced
/// run.
fn layer_metrics(untraced: &WorldRun, t: &TracedRun, empty_heap: u64) -> Vec<Metric> {
    let conns = untraced.conns as f64;
    let tot = &t.totals;
    let per_conn = |ns: u64| ns as f64 / conns;
    let count = |n: u64| n as f64;
    let mut out = Vec::new();
    let site = |s: Site, out: &mut Vec<Metric>| {
        let i = s as usize;
        out.push(metric(
            format!("{}.ns_per_conn", s.name()),
            per_conn(tot.self_ns[i]),
            "ns",
        ));
        out.push(metric(
            format!("{}.calls", s.name()),
            count(tot.calls[i]),
            "count",
        ));
    };
    let sched = Site::Sched as usize;
    let counter = |name: &str| {
        t.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, v)| v)
    };
    let syscalls: u64 = t
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("syscall."))
        .map(|(_, v)| v)
        .sum();
    let allocs = |c: Crate| t.allocs[c as usize] as f64 / conns;

    site(Site::LoadOnNet, &mut out);
    site(Site::LoadOnTimer, &mut out);
    out.push(metric(
        "httperf.sched.ns_per_conn",
        per_conn(tot.self_ns[sched]),
        "ns",
    ));
    out.push(metric(
        "httperf.sched.drain_passes",
        count(t.drain_passes),
        "count",
    ));
    out.push(metric("httperf.sched.instants", count(t.instants), "count"));
    out.push(metric(
        "httperf.sched.passes_per_instant",
        ratio(t.drain_passes, t.instants),
        "ratio",
    ));
    out.push(metric("httperf.events", count(t.events), "count"));

    site(Site::NetAdvance, &mut out);
    let advances = tot.calls[Site::NetAdvance as usize];
    out.push(metric(
        "simnet.advance.empty_share",
        ratio(t.empty_advances, advances),
        "ratio",
    ));
    out.push(metric("simnet.notifies", count(t.notifies), "count"));
    out.push(metric("simnet.retransmits", count(t.retransmits), "count"));
    out.push(metric(
        "simnet.ports_exhausted",
        count(t.ports_exhausted),
        "count",
    ));
    out.push(metric(
        "simnet.allocs_per_conn",
        allocs(Crate::Simnet),
        "count",
    ));
    out.push(metric("simnet.mem_bytes", count(t.mem_simnet), "B"));

    site(Site::KernelOnNet, &mut out);
    site(Site::KernelAdvance, &mut out);
    out.push(metric("simkernel.kevents", count(t.kevents), "count"));
    out.push(metric("simkernel.syscalls", count(syscalls), "count"));
    out.push(metric(
        "simkernel.sigwaitinfo",
        count(counter("syscall.sigwaitinfo")),
        "count",
    ));
    out.push(metric(
        "simkernel.allocs_per_conn",
        allocs(Crate::Simkernel),
        "count",
    ));
    out.push(metric("simkernel.mem_bytes", count(t.mem_simkernel), "B"));

    site(Site::DevpollHint, &mut out);
    site(Site::BackendWait, &mut out);
    let waits = tot.calls[Site::BackendWait as usize];
    out.push(metric(
        "devpoll.backend.ready_per_wait",
        ratio(tot.ready, waits),
        "ratio",
    ));
    site(Site::BackendSet, &mut out);
    site(Site::BackendRemove, &mut out);
    // Driver polls of the backend layer, through /dev/poll or poll().
    let driver_polls = counter("devpoll.driver_polls") + counter("poll.driver_polls");
    out.push(metric("devpoll.driver_polls", count(driver_polls), "count"));
    out.push(metric(
        "devpoll.allocs_per_conn",
        allocs(Crate::Devpoll),
        "count",
    ));
    out.push(metric("devpoll.mem_bytes", count(t.mem_devpoll), "B"));

    let batch = Site::ServerBatch as usize;
    out.push(metric(
        "servers.batch.ns_per_conn",
        per_conn(tot.total_ns[batch]),
        "ns",
    ));
    out.push(metric(
        "servers.batch.calls",
        count(tot.calls[batch]),
        "count",
    ));
    out.push(metric(
        "servers.self.ns_per_conn",
        per_conn(tot.self_ns[batch]),
        "ns",
    ));
    out.push(metric(
        "servers.allocs_per_conn",
        allocs(Crate::Servers),
        "count",
    ));

    let gauges = t.mem_simnet + t.mem_simkernel + t.mem_devpoll + t.mem_loadgen;
    let heap = untraced.peak_heap.saturating_sub(empty_heap);
    out.push(metric("mem.gauge_bytes", count(gauges), "B"));
    out.push(metric("mem.heap_bytes", count(heap), "B"));
    out.push(metric("mem.gauge_coverage", ratio(gauges, heap), "ratio"));

    let covered: u64 = tot.self_ns.iter().sum();
    out.push(metric(
        "ledger.coverage",
        covered as f64 / t.wall.as_nanos() as f64,
        "ratio",
    ));
    out.push(metric(
        "ledger.overhead",
        t.wall.as_secs_f64() / untraced.wall.as_secs_f64(),
        "ratio",
    ));
    out
}

/// The per-layer metrics: each one's median over the traced worlds.
pub fn per_layer(worlds: &[(WorldRun, TracedRun)], empty_heap: u64) -> Vec<Metric> {
    let per_world: Vec<Vec<Metric>> = worlds
        .iter()
        .map(|(u, t)| layer_metrics(u, t, empty_heap))
        .collect();
    let Some(first) = per_world.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_world.iter().map(|ms| ms[i].value).collect();
            metric(m.name.clone(), median(&values), m.unit)
        })
        .collect()
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
