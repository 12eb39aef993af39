//! The benchmark's own tests: its worlds are the program's worlds, the
//! sliced and traced runs reproduce the one-shot run, every printed
//! metric is declared, and bad input is refused by name.

use httperf::run_one;
use simcore::time::SimTime;

use crate::metrics::{end_to_end, per_layer, Metric};
use crate::replica::run_traced;
use crate::world::{build_world, run_sliced, run_world, Outcome, Workload, WorldRun, WORKLOADS};
use crate::{parse_args, references, DEFAULT_SEED};

/// A seed far from the ones runs start at, with a recorded reference,
/// for checking a change on worlds it was not tuned on.
const HELD_OUT_SEED: u64 = 1_000_003;

/// The paper workloads, cut to a few thousand connections so the tests
/// stay fast in a debug build.
fn small(name: &str) -> Workload {
    let w = *Workload::by_name(name).expect("workload exists");
    Workload { conns: 1_500, ..w }
}

const SMALL: [&str; 3] = ["poll-scan", "devpoll-paper", "rtsig-signals"];

#[test]
fn servers_match_run_one() {
    for name in SMALL {
        let w = small(name);
        let params = w.params(7);
        let mut want = run_one(params.clone());
        let (mut bed, mut server) = build_world(w.mechanism, &params, false);
        bed.start(server.as_mut());
        bed.run(server.as_mut(), params.horizon);
        let mut got = bed.report(server.as_ref());
        assert_eq!(got.probe_digest_hex(), want.probe_digest_hex(), "{name}");
        assert_eq!(Outcome::of(&mut got), Outcome::of(&mut want), "{name}");
        assert_eq!(got.events, want.events, "{name}");
    }
}

#[test]
fn sliced_run_matches_one_shot() {
    for name in SMALL {
        let w = small(name);
        let params = w.params(3);
        let mut one_shot = run_one(params.clone());
        let (mut bed, mut server) = build_world(w.mechanism, &params, false);
        bed.start(server.as_mut());
        let slices = run_sliced(&mut bed, server.as_mut(), params.horizon, &mut Vec::new());
        assert!(slices.len() > 1, "{name}: more than one slice");
        assert!(
            bed.now() <= SimTime::from_secs(slices.len() as u64),
            "{name}"
        );
        let mut sliced = bed.report(server.as_ref());
        assert_eq!(
            Outcome::of(&mut sliced),
            Outcome::of(&mut one_shot),
            "{name}"
        );
        assert_eq!(sliced.events, one_shot.events, "{name}");
        assert_eq!(sliced.sim_secs, one_shot.sim_secs, "{name}");
    }
}

#[test]
fn traced_replica_matches_untraced_run() {
    for (i, name) in SMALL.into_iter().enumerate() {
        let w = small(name);
        let params = w.params(11);
        let untraced = run_world(&w, &params);
        let traced = run_traced(&w, &params, i as u32);
        assert_eq!(traced.outcome, untraced.outcome, "{name}");
        assert_eq!(traced.events, untraced.events, "{name}");
        assert_eq!(traced.counters, untraced.counters, "{name}");
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("field") + key.len() + 2;
                let rest = &entry[at..];
                let open = rest.find('"').expect("value opens") + 1;
                let close = open + rest[open..].find('"').expect("value closes");
                rest[open..close].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_declared(printed: &[Metric], section: &str) {
    let declared = declared(section);
    for m in printed {
        assert!(
            !m.name.is_empty()
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {:?}",
            m.name
        );
        assert!(
            declared.contains(&(m.name.clone(), m.unit.to_string())),
            "{} [{}] is printed but not declared in {section}",
            m.name,
            m.unit
        );
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    for (name, _) in &declared {
        assert!(
            printed.iter().any(|m| &m.name == name),
            "{name} is declared in {section} but not printed"
        );
    }
}

#[test]
fn printed_metrics_are_declared() {
    let w = small("devpoll-paper");
    let params = w.params(5);
    let untraced = run_world(&w, &params);
    let traced = run_traced(&w, &params, 0);
    assert_declared(
        &end_to_end(std::slice::from_ref(&untraced), 0),
        "end_to_end",
    );
    assert_declared(&per_layer(&[(untraced, traced)], 0), "per_layer");
}

#[test]
fn host_times_scale_with_the_slowdown() {
    let w = small("devpoll-paper");
    let run = run_world(&w, &w.params(5));
    let at = |slowdown: f64| {
        let r = WorldRun {
            slowdown,
            ..run.clone()
        };
        end_to_end(&[r], 0)
    };
    let (reference, slow) = (at(1.0), at(2.0));
    for (r, s) in reference.iter().zip(&slow) {
        let want = match r.name.as_str() {
            "wall_ns_per_conn" | "slice_ms.p50" | "slice_ms.tail" | "setup_s" => r.value / 2.0,
            "sim_s_per_wall_s" => r.value * 2.0,
            _ => continue,
        };
        assert!((s.value - want).abs() <= 1e-9 * want, "{}", r.name);
    }
}

#[test]
fn workloads_are_declared() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name)),
            "{}",
            w.name
        );
    }
}

fn parse(line: &str) -> Result<(), String> {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    parse_args(&argv).map(|_| ())
}

#[test]
fn bad_input_is_refused_by_name() {
    let cases = [
        ("--workload nope --seed 1", "nope"),
        ("--workload devpoll-paper --seed x1", "x1"),
        ("--workload devpoll-paper --seed -3", "-3"),
        ("--workload devpoll-paper --seconds 0", "--seconds"),
        ("--workload devpoll-paper --trace 2", "--trace"),
        ("--workload devpoll-paper --frobnicate 1", "--frobnicate"),
        ("--workload devpoll-paper --seed", "--seed"),
        ("--workload devpoll-paper --seed 1 --seed 2", "--seed"),
        ("--seed 1", "--workload"),
        ("--workload devpoll-paper stray", "stray"),
    ];
    for (line, named) in cases {
        let err = parse(line).expect_err(line);
        assert!(err.contains(named), "{line}: {err}");
    }
    assert!(parse("--workload held-open --seed 4 --seconds 3 --trace 1").is_ok());
}

#[test]
fn references_cover_default_and_held_out_seeds() {
    let refs = references();
    for w in WORKLOADS {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            assert!(refs.contains_key(&(w.name, seed)), "{} seed {seed}", w.name);
        }
    }
    let lines = crate::REFERENCES
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .count();
    assert_eq!(lines, refs.len(), "one reference per workload and seed");
}
