//! `perfbench`: host cost per simulated connection.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--record N]
//! ```
//!
//! Runs the named workload as a single-threaded series of seeded worlds
//! (seeds `N`, `N+1`, …) for `S` host seconds, checks each world's
//! simulated outcome, and prints the end-to-end metrics (`--trace 0`)
//! or the per-layer ledger (`--trace 1`). The last line of standard
//! output is one JSON object. `--record N` instead prints the outcome
//! reference lines of `N` consecutive seeds. See `README.md`.

mod heap;
mod ledger;
mod metrics;
mod replica;
mod world;
mod yardstick;

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::Metric;
use world::{check_invariants, run_world, Workload, WORKLOADS};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Recorded outcome references, one line per (workload, seed).
const REFERENCES: &str = include_str!("../references.txt");

/// The seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: Option<u64>,
}

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--record N]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            "--record" => &mut record,
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => return Err(format!("unexpected argument `{other}`")),
        };
        if slot.is_some() {
            return Err(format!("flag `{flag}` given twice"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        *slot = Some(value.clone());
    }
    let number = |flag: &str, value: Option<String>, default: u64| -> Result<u64, String> {
        match value {
            None => Ok(default),
            Some(v) => v.parse::<u64>().map_err(|_| {
                format!("malformed `{flag}` value `{v}`: expected a non-negative integer")
            }),
        }
    };
    let name = workload.ok_or("missing `--workload`")?;
    let workload = Workload::by_name(&name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{name}`; expected one of: {}",
            names.join(", ")
        )
    })?;
    let seed = number("--seed", seed, DEFAULT_SEED)?;
    let seconds = number("--seconds", seconds, 30)?;
    if seconds == 0 {
        return Err("malformed `--seconds` value `0`: expected at least 1".into());
    }
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("malformed `--trace` value `{v}`: expected 0 or 1")),
    };
    let record = match record {
        None => None,
        Some(v) => Some(number("--record", Some(v), 0)?),
    };
    if seed.checked_add(record.unwrap_or(0) + 1_000_000).is_none() {
        return Err(format!("malformed `--seed` value `{seed}`: too large"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        record,
    })
}

/// Reference lines by (workload, seed).
fn references() -> HashMap<(&'static str, u64), &'static str> {
    REFERENCES
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut f = l.split(' ');
            let w = f.next()?;
            let seed = f.next()?.parse().ok()?;
            Some(((w, seed), l))
        })
        .collect()
}

/// Checks one world; `Ok(true)` when it matched a recorded reference,
/// `Ok(false)` when no reference exists and the invariants hold.
fn check_world(
    refs: &HashMap<(&str, u64), &str>,
    w: &Workload,
    seed: u64,
    run: &world::WorldRun,
) -> Result<bool, String> {
    check_invariants(w, &run.outcome, &run.counters)?;
    let line = run.outcome.reference_line(w.name, seed);
    match refs.get(&(w.name, seed)) {
        Some(&want) if want == line => Ok(true),
        Some(&want) => Err(format!(
            "outcome differs from reference\n  want {want}\n  got  {line}"
        )),
        None => Ok(false),
    }
}

/// Runs `f`, turning a panic into an error message.
fn catching<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())
    })
}

struct Tally {
    attempted: u64,
    failed: u64,
    referenced: u64,
    slices: usize,
}

impl Tally {
    fn fail(&mut self, w: &Workload, seed: u64, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: {} seed {seed} failed: {why}", w.name);
    }
}

fn record(args: &Args) -> ExitCode {
    let w = args.workload;
    let mut bad = false;
    for seed in args.seed..args.seed + args.record.unwrap_or(0) {
        let run = run_world(w, &w.params(seed));
        if let Err(e) = check_invariants(w, &run.outcome, &run.counters) {
            eprintln!("perfbench: {} seed {seed}: {e}", w.name);
            bad = true;
        }
        println!("{}", run.outcome.reference_line(w.name, seed));
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs the workload for `--seconds`; returns the tally, the metrics of
/// the result line, and figures printed only in the report lines.
fn measure(args: &Args) -> (Tally, Vec<Metric>, Vec<Metric>) {
    let w = args.workload;
    let refs = references();
    let budget = Duration::from_secs(args.seconds);
    let empty_heap = world::empty_world_heap(w);
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        referenced: 0,
        slices: 0,
    };
    let mut runs = Vec::new();
    let mut traced = Vec::new();
    let started = Instant::now();
    let mut seed = args.seed;
    while tally.attempted == 0 || started.elapsed() < budget {
        tally.attempted += 1;
        let params = w.params(seed);
        match catching(|| run_world(w, &params)) {
            Err(e) => tally.fail(w, seed, &format!("panicked: {e}")),
            Ok(run) => match check_world(&refs, w, seed, &run) {
                Err(e) => tally.fail(w, seed, &e),
                Ok(referenced) => {
                    tally.referenced += u64::from(referenced);
                    if args.trace {
                        let world = (seed - args.seed) as u32;
                        match catching(|| replica::run_traced(w, &params, world)) {
                            Err(e) => tally.fail(w, seed, &format!("traced run panicked: {e}")),
                            Ok(t) if t.outcome != run.outcome || t.events != run.events => {
                                tally.fail(
                                    w,
                                    seed,
                                    &format!(
                                        "traced replica diverged: {:?} events {} vs untraced {:?} events {}",
                                        t.outcome, t.events, run.outcome, run.events
                                    ),
                                );
                            }
                            Ok(t) => traced.push((run, t)),
                        }
                    } else {
                        runs.push(run);
                    }
                }
            },
        }
        seed += 1;
    }
    tally.slices = runs
        .iter()
        .chain(traced.iter().map(|(untraced, _)| untraced))
        .map(|r| r.slices.len())
        .sum();
    if args.trace {
        (tally, metrics::per_layer(&traced, empty_heap), Vec::new())
    } else if runs.is_empty() {
        (tally, Vec::new(), Vec::new())
    } else {
        let unscaled = metrics::unscaled(&runs);
        (tally, metrics::end_to_end(&runs, empty_heap), unscaled)
    }
}

fn write_trace(w: &Workload, seed: u64) {
    let name = format!("perfbench-trace-{}-{seed}.json", w.name);
    let path = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name(name),
        Err(e) => {
            eprintln!("perfbench: no trace written: {e}");
            return;
        }
    };
    match std::fs::write(&path, ledger::chrome_trace()) {
        Ok(()) => eprintln!(
            "perfbench: {} sampled spans written to {}",
            ledger::span_count(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: no trace written to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.record.is_some() {
        return record(&args);
    }
    let (tally, metrics, unscaled) = measure(&args);
    if args.trace {
        write_trace(args.workload, args.seed);
    }
    let w = args.workload;
    println!(
        "{}: worlds attempted {}, failed {}, checked against a reference {}; {} slices",
        w.name, tally.attempted, tally.failed, tally.referenced, tally.slices
    );
    for m in metrics.iter().chain(&unscaled) {
        println!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let all_finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == 0 && !metrics.is_empty() && all_finite;
    println!(
        "{}",
        metrics::result_json(correct, tally.attempted, tally.failed, &metrics)
    );
    if metrics.is_empty() || !all_finite {
        eprintln!("perfbench: no measurable world");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
