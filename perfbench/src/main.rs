//! Serving benchmark for the CIM simulator. See README.md.

mod reference;
mod stats;
mod trace;
mod workload;

use stats::{median, tail_mean, Metrics};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Events, Kind};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut probe = false;
    let mut i = 0;
    while i < argv.len() {
        let val = |i: usize| {
            argv.get(i + 1)
                .cloned()
                .ok_or(format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&val(i)?).ok_or(format!("unknown workload {}", val(i)?))?)
            }
            "--seed" => seed = Some(val(i)?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val(i)?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match val(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--probe-outage" => {
                probe = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let seed = seed.ok_or("--seed is required")?;
    if probe {
        workload::print_outage(seed);
        return Ok(None);
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Some(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

/// Runs the outage probe in a child process and reads its windows.
fn probe_outage(seed: u64) -> Result<Vec<cim_fabric::fleet::FleetEvent>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--probe-outage", "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("outage probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "outage probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    workload::parse_outage(&String::from_utf8_lossy(&out.stdout))
        .ok_or("unreadable outage probe output".into())
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// End-to-end metrics, in the order the untraced run prints them.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "host_req_per_s",
    "peak_rss_mb",
    "sim_mean_us",
    "sim_tail_mean_us",
    "sim_nj_per_req",
];

/// Share of completed requests whose mean modeled latency is the tail
/// metric. A tail mean rather than a percentile: on these workloads
/// p50, p95 and p99 each sit on a seed-independent class or recovery
/// latency for some workload (see README).
const TAIL_SHARE: f64 = 0.05;

/// Boots per round, each timed for `setup_s`; the last one serves.
/// Spread over the run like the serving calls, the boots meet the same
/// host speeds (boots made back to back at the start read one moment's
/// speed, and their median spread up to 20% between runs).
const BOOTS_PER_ROUND: usize = 3;

/// The serving rounds of one run: whole serving calls, each on a fresh
/// boot, until `seconds` have passed (at least one).
struct Rounds {
    setups: Vec<f64>,
    rates: Vec<f64>,
    attempted: u64,
    failed: u64,
    first: workload::Served,
    differing: usize,
}

fn rounds(
    kind: Kind,
    seed: u64,
    classes: &[workload::Class],
    events: &Events,
    seconds: f64,
) -> Rounds {
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let (mut attempted, mut failed, mut differing) = (0u64, 0u64, 0usize);
    let mut first: Option<(u64, workload::Served)> = None;
    while first.is_none() || started.elapsed().as_secs_f64() < seconds {
        let mut b = workload::boot(kind, seed, classes);
        setups.push(b.setup_s());
        for _ in 1..BOOTS_PER_ROUND {
            drop(b);
            b = workload::boot(kind, seed, classes);
            setups.push(b.setup_s());
        }
        let served = workload::serve(kind, &mut b.target, events);
        drop(b);
        rates.push(served.offered as f64 / served.serve_s);
        attempted += served.offered as u64;
        failed += (served.offered - served.completed) as u64;
        let digest = served.digest();
        match &first {
            None => first = Some((digest, served)),
            Some((d, _)) if *d != digest => differing += 1,
            Some(_) => {}
        }
    }
    Rounds {
        setups,
        rates,
        attempted,
        failed,
        first: first.expect("at least one round").1,
        differing,
    }
}

fn run(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let kind = args.kind;
    let classes = workload::classes();
    // The schedule comes from a throwaway boot (faults need the
    // placement) or the probe child (fleet outages), before any timing.
    let (events, damage) = match kind {
        Kind::DetailedSteady => (Events::Service(Vec::new()), Vec::new()),
        Kind::DetailedFaults => {
            let b = workload::boot(kind, args.seed, &classes);
            let workload::Target::Service(svc) = &b.target else {
                unreachable!("detailed_faults serves one device")
            };
            let (ev, dmg) = workload::fault_schedule(args.seed, svc);
            (Events::Service(ev), dmg)
        }
        Kind::AnalyticFleetFailover => (Events::Fleet(probe_outage(args.seed)?), Vec::new()),
    };
    // The traced run serves one round, then measures the layers; its
    // length is set by the layer measurements, not by `--seconds`.
    let seconds = if args.trace { 0.0 } else { args.seconds };
    let r = rounds(kind, args.seed, &classes, &events, seconds);
    // Read before the output checks, so it covers serving alone.
    let peak_rss = peak_rss_mib();
    let s = &r.first;

    let mut problems: Vec<String> = Vec::new();
    if r.differing > 0 {
        problems.push(format!("{} rounds differ from the first", r.differing));
    }
    for id in &s.broken_identities {
        problems.push(format!("report identity broken: {id}"));
    }
    let check = workload::check_outputs(kind, args.seed, &classes, &damage, s);
    if check.outside > 0 {
        problems.push(format!("{} outputs outside the bound", check.outside));
    }
    if check.control_caught == 0 {
        problems.push("perturbed-weight negative control not caught".into());
    }
    let cap = reference::median_error_cap(kind.mode());
    for (c, &e) in classes.iter().zip(&check.class_median_error) {
        if e.is_nan() || e > cap {
            problems.push(format!(
                "class {}: median relative error {e:.4} over the cap {cap}",
                c.spec.name
            ));
        }
    }
    for name in &check.controls_missed {
        problems.push(format!("{name} outputs not caught by the median-error cap"));
    }
    if kind == Kind::AnalyticFleetFailover && s.failovers == 0 {
        problems.push("no failover".into());
    }
    if kind == Kind::DetailedFaults && s.recoveries == 0 {
        problems.push("no recovery".into());
    }
    let lat = s.latencies_us();
    let mean = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
    let tail = tail_mean(&lat, TAIL_SHARE);
    if tail.is_none() {
        problems.push("too few completed requests for the tail".into());
    }
    eprintln!(
        "{} seed {}: {} rounds, completed {}/{} per round, recoveries {}, failovers {}, \
         negative control caught {}, median |error|/bound {:.3}, median relative error per class \
         {:.4?} (cap {}), worst latency/deadline {:.3}",
        kind.name(),
        args.seed,
        r.rates.len(),
        s.completed,
        s.offered,
        s.recoveries,
        s.failovers,
        check.control_caught,
        check.median_error_share,
        check.class_median_error,
        cap,
        workload::worst_deadline_share(&classes, s),
    );
    let m = if args.trace {
        let (m, failed) = trace::layers(kind, args.seed, &classes, &events, s);
        problems.extend(failed);
        m
    } else {
        let mut m = Metrics::default();
        m.push("setup_s", median(&r.setups), "s");
        m.push("host_req_per_s", median(&r.rates), "1/s");
        m.push("peak_rss_mb", peak_rss, "MiB");
        m.push("sim_mean_us", mean, "us");
        m.push("sim_tail_mean_us", tail.unwrap_or(f64::NAN), "us");
        m.push(
            "sim_nj_per_req",
            s.energy_fj as f64 / 1e6 / s.completed.max(1) as f64,
            "nJ",
        );
        m
    };
    let names: Vec<&str> = m.0.iter().map(|(n, _, _)| n.as_str()).collect();
    let expected: &[&str] = if args.trace {
        &trace::PER_LAYER
    } else {
        &END_TO_END
    };
    if names != expected {
        problems.push("metric list differs from the declared one".into());
    }
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let correct = problems.is_empty() && m.0.iter().all(|(_, v, _)| v.is_finite());
    Ok((correct, r.attempted, r.failed, m))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, m)) => {
            for (n, v, u) in &m.0 {
                println!("{n:<28} {v:>16.6} {u}");
            }
            println!("{}", m.result_json(correct, attempted, failed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_sim::json::{parse, Json};

    fn keys(v: &Json) -> Vec<&str> {
        v.as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    fn names(v: &Json, list: &str) -> Vec<String> {
        v.get(list)
            .and_then(Json::as_array)
            .expect("list")
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_holds_only_the_fixed_fields() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let b = parse(&text).expect("valid JSON");
        assert_eq!(
            keys(&b),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        for (list, fields) in [
            ("workloads", &["name", "why"][..]),
            ("end_to_end", &["name", "unit", "better", "bound"][..]),
            ("per_layer", &["name", "unit", "better"][..]),
        ] {
            for e in b.get(list).and_then(Json::as_array).expect("list") {
                assert_eq!(keys(e), fields, "{list}");
                if let Some(bound) = e.get("bound") {
                    let bound = bound.as_f64().expect("number");
                    assert!(bound > 0.0 && bound <= 0.25, "{list} bound {bound}");
                }
            }
        }
        for w in names(&b, "workloads") {
            assert!(Kind::parse(&w).is_some(), "unknown workload {w}");
        }
        assert_eq!(names(&b, "end_to_end"), END_TO_END);
        assert_eq!(names(&b, "per_layer"), trace::PER_LAYER);
        let mut all = names(&b, "end_to_end");
        all.extend(names(&b, "per_layer"));
        all.extend(names(&b, "workloads"));
        for n in &all {
            assert!(stats::valid_metric_name(n), "{n}");
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "names are used once");
    }
}
