//! The traced run: host time per layer, measured from outside the
//! program by timing calls into each layer's public functions with the
//! workload's own inputs, and the ladder that adds them up.
//!
//! | row | measured as |
//! |---|---|
//! | DPE reads | `DotProductEngine::matvec` on an engine programmed with the class layer, fed the workload's inputs (layer 0) or the ReLU of that engine's own layer-0 output (layer 1) |
//! | NoC | `NocNetwork::transmit` (detailed) or `estimate` (analytic) of each cross-tile hop of the class's placement |
//! | engine self | `CimRuntime::run` of each request on a runtime booted like the serving one (same events), minus the DPE and NoC rows |
//! | service / fleet self | the serving call minus `CimRuntime::run`, both on `echo` classes (source → sink) over the same arrivals and events |
//!
//! `ladder.unattributed_pct` is the untraced per-request host time not
//! covered by the rows. Since engine self is item − DPE − NoC, the sum
//! of the rows is item + service/fleet self, and the ladder alone cannot
//! expose a wrong DPE or NoC row. Two more checks can: the DPE row must
//! stay within the untraced serving calls (plus their own range), and
//! engine self, printed per slice of the replay, is reported unresolved
//! when it falls below the host's noise.

use crate::stats::{median, Metrics};
use crate::workload::{self, Class, Events, Kind, Served, Target};
use cim_crossbar::dpe::DotProductEngine;
use cim_crossbar::matrix::DenseMatrix;
use cim_dataflow::graph::{DataflowGraph, GraphBuilder, NodeRef};
use cim_dataflow::ops::Operation;
use cim_fabric::engine::StreamOptions;
use cim_fabric::mapper::MappingPolicy;
use cim_fabric::runtime::{CimRuntime, JobId, JobStatus};
use cim_fabric::service::{Disposition, RequestOutcome, ServiceEvent};
use cim_noc::{NocNetwork, NodeId, Packet, TrafficClass};
use cim_sim::telemetry::TelemetryLevel;
use cim_sim::time::SimTime;
use cim_sim::SeedTree;
use std::collections::HashMap;
use std::time::Instant;

/// The layer shapes of the standard mix, as `rows x cols`.
pub const SHAPES: [&str; 5] = ["16x8", "8x4", "32x16", "64x32", "32x8"];

/// Per-layer metrics, in the order the traced run prints them.
pub const PER_LAYER: [&str; 24] = [
    "dpe.matvec_us.16x8",
    "dpe.matvec_us.8x4",
    "dpe.matvec_us.32x16",
    "dpe.matvec_us.64x32",
    "dpe.matvec_us.32x8",
    "dpe.matvecs_per_req",
    "dpe.program_ms",
    "boot.device_ms",
    "boot.register_ms",
    "engine.recoveries",
    "noc.transmit_ns",
    "noc.estimate_ns",
    "noc.packets_per_req",
    "engine.item_us",
    "engine.self_us",
    "service.self_us_per_req",
    "fleet.self_us_per_req",
    "fleet.failovers",
    "fleet.voided",
    "persist.power_cycle_ms",
    "telemetry.overhead_pct",
    "obs.overhead_pct",
    "ladder.unattributed_pct",
    "trace.overhead_pct",
];

/// Slices of the replay; an untraced serving call precedes each and
/// follows the last.
const SLICES: usize = 6;

fn ms(s: f64) -> f64 {
    s * 1e3
}

fn us(s: f64) -> f64 {
    s * 1e6
}

/// Times `f` and returns its result and host seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// A runtime booted like one serving device, with every class resident
/// in registration order.
fn replay_runtime(kind: Kind, seed: u64, graphs: &[DataflowGraph]) -> (CimRuntime, Vec<JobId>) {
    let mut rt = CimRuntime::new(workload::fabric(kind, seed)).expect("device boots");
    let jobs = graphs
        .iter()
        .map(
            |g| match rt.submit(g.clone(), MappingPolicy::LocalityAware) {
                Ok(JobStatus::Running(id)) => id,
                other => panic!("class must be resident: {other:?}"),
            },
        )
        .collect();
    (rt, jobs)
}

/// `echo` stand-ins for the classes: source → sink of the same width,
/// so serving them costs the front door and a near-empty engine item.
fn echo_classes(classes: &[Class]) -> Vec<Class> {
    classes
        .iter()
        .map(|c| {
            let w = c.spec.input_width();
            let mut b = GraphBuilder::new();
            let s = b.add("in", Operation::Source { width: w });
            let k = b.add("out", Operation::Sink { width: w });
            b.connect(s, k, 0).expect("same width");
            Class {
                spec: c.spec.clone(),
                graph: b.build().expect("valid"),
                src: s,
                sink: k,
                mlp: c.mlp.clone(),
            }
        })
        .collect()
}

fn service_events(events: &Events) -> &[ServiceEvent] {
    match events {
        Events::Service(ev) => ev,
        Events::Fleet(_) => &[],
    }
}

/// Counts read off a target after its serving call.
fn counts(target: &Target) -> (u64, u64) {
    let runtimes: Vec<&CimRuntime> = match target {
        Target::Service(s) => vec![s.runtime()],
        Target::Fleet(f) => (0..f.device_count()).map(|d| f.runtime(d)).collect(),
    };
    let mut mvms = 0;
    let mut packets = 0;
    for rt in runtimes {
        mvms += rt
            .device()
            .units()
            .iter()
            .filter_map(|u| u.dpe())
            .map(DotProductEngine::mvm_count)
            .sum::<u64>();
        packets += rt.device().noc().stats().packets;
    }
    (mvms, packets)
}

/// Dispatches `events` due by `now` onto the device, the way the serving
/// front door does between requests.
fn apply_due(rt: &mut CimRuntime, events: &[ServiceEvent], next: &mut usize, now: SimTime) {
    while *next < events.len() && events[*next].at() <= now {
        if let Some(inj) = events[*next].to_injection() {
            rt.device_mut().apply_injection(&inj);
        }
        *next += 1;
    }
}

/// Runs one request through `CimRuntime::run` as the front door would.
fn run_item(
    rt: &mut CimRuntime,
    job: JobId,
    src: NodeRef,
    x: &[f64],
    start: SimTime,
    pending: &[ServiceEvent],
) -> cim_fabric::StreamReport {
    let opts = StreamOptions {
        start,
        injections: pending
            .iter()
            .filter_map(ServiceEvent::to_injection)
            .collect(),
        ..StreamOptions::default()
    };
    let item = HashMap::from([(src, x.to_vec())]);
    rt.run(job, std::slice::from_ref(&item), &opts)
        .expect("replayed request runs")
}

/// Cross-tile hops `(from, to, bytes)` of each class's placement.
fn hops(rt: &CimRuntime, jobs: &[JobId], classes: &[Class]) -> Vec<Vec<(NodeId, NodeId, usize)>> {
    jobs.iter()
        .zip(classes)
        .map(|(&job, c)| {
            let prog = rt.program(job).expect("resident");
            let tile = |node: usize| rt.device().unit(prog.placement().unit_of(node)).tile();
            c.graph
                .edges()
                .iter()
                .filter_map(|e| {
                    let (a, b) = (tile(e.from), tile(e.to));
                    let bytes = 8 * c.graph.node(NodeRef::from_index(e.from)).op.output_width();
                    (a != b).then_some((a, b, bytes))
                })
                .collect()
        })
        .collect()
}

/// The front door's own host seconds per request: serving the `echo`
/// classes, minus replaying their engine items.
fn front_door_self(kind: Kind, seed: u64, classes: &[Class], events: &Events) -> f64 {
    let echo = echo_classes(classes);
    let mut b = workload::boot(kind, seed, &echo);
    let served = workload::serve(kind, &mut b.target, events);
    drop(b);
    let graphs: Vec<DataflowGraph> = echo.iter().map(|c| c.graph.clone()).collect();
    let (mut rt, jobs) = replay_runtime(kind, seed, &graphs);
    let inputs = workload::regenerate_inputs(seed, &echo, &served.outcomes);
    let evs = service_events(events);
    let mut next = 0;
    let mut engine_s = 0.0;
    for (o, x) in served.outcomes.iter().zip(&inputs) {
        if !matches!(o.disposition, Disposition::Completed { .. }) {
            continue;
        }
        apply_due(&mut rt, evs, &mut next, o.arrival);
        let c = &echo[o.class];
        engine_s += timed(|| run_item(&mut rt, jobs[o.class], c.src, x, o.arrival, &evs[next..])).1;
    }
    (served.serve_s - engine_s) / served.offered.max(1) as f64
}

/// Per-layer metrics for one workload, replaying the requests of
/// `served`. Also returns the checks that failed: an untraced serving
/// call made here that did not reproduce `served` exactly, or a DPE row
/// larger than the slowest untraced serving call per request.
pub fn layers(
    kind: Kind,
    seed: u64,
    classes: &[Class],
    events: &Events,
    served: &Served,
) -> (Metrics, Vec<String>) {
    let mut m = Metrics::default();
    let mut spans = 0u64;
    let traced_started = Instant::now();
    let cfg = workload::fabric(kind, seed);
    let inputs = workload::regenerate_inputs(seed, classes, &served.outcomes);

    // Boot: device construction, class registration, one DPE program.
    let boot_device: Vec<f64> = (0..5)
        .map(|_| timed(|| CimRuntime::new(cfg.clone()).expect("boots")).1)
        .collect();
    let mut register = Vec::new();
    for _ in 0..3 {
        register.extend(workload::boot(kind, seed, classes).register_s);
    }
    let fresh_engine = |l: &crate::reference::Layer| {
        let mut dpe = DotProductEngine::new(cfg.dpe.clone(), SeedTree::new(seed));
        dpe.set_mode(kind.mode());
        let w = DenseMatrix::new(l.rows, l.cols, l.weights.clone()).expect("matrix");
        let t = timed(|| dpe.program(&w).expect("programs")).1;
        (dpe, t)
    };
    let mut program = Vec::new();
    for _ in 0..3 {
        for c in classes {
            program.extend(c.mlp.layers.iter().map(|l| fresh_engine(l).1));
        }
    }

    // The replay pass.
    let mut engines: Vec<Vec<DotProductEngine>> = classes
        .iter()
        .map(|c| c.mlp.layers.iter().map(|l| fresh_engine(l).0).collect())
        .collect();
    let graphs: Vec<DataflowGraph> = classes.iter().map(|c| c.graph.clone()).collect();
    let (mut rt, jobs) = replay_runtime(kind, seed, &graphs);
    let hops = hops(&rt, &jobs, classes);
    let mut noc_t = NocNetwork::new(cfg.mesh_width, cfg.mesh_height, seed).expect("mesh");
    let mut noc_e = NocNetwork::new(cfg.mesh_width, cfg.mesh_height, seed).expect("mesh");
    noc_e.set_mode(cim_sim::SimMode::Analytic);
    let evs = service_events(events);
    let mut next = 0;
    let mut shape_times: HashMap<String, (f64, u64)> = HashMap::new();
    let (mut item_s, mut dpe_s, mut noc_s, mut transmit_s, mut estimate_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut items, mut hop_calls, mut same) = (0u64, 0u64, 0u64);
    let mut packet_id = 0u64;
    let completed: Vec<(&RequestOutcome, &Vec<f64>)> = served
        .outcomes
        .iter()
        .zip(&inputs)
        .filter(|(o, _)| matches!(o.disposition, Disposition::Completed { .. }))
        .collect();
    // The ladder's reference: untraced serving calls before, between and
    // after `SLICES` slices of the replay, so host speed drifting over the
    // run weighs on both sides alike. The first also gives the counts.
    let serve_plain = || {
        let mut b = workload::boot(kind, seed, classes);
        let s = workload::serve(kind, &mut b.target, events);
        let c = counts(&b.target);
        (s, c)
    };
    let mut serving = Vec::new();
    let mut same_results = true;
    let mut counted = None;
    let mut reference = |serving: &mut Vec<f64>| {
        let (s, c) = serve_plain();
        // The layer measurements leave the program's results alone.
        same_results &= s.digest() == served.digest();
        counted.get_or_insert((c, s.offered.max(1) as f64));
        serving.push(s.serve_s / s.offered.max(1) as f64);
    };
    // Within a slice, engine items and the isolated layer calls alternate
    // in chunks, so that a slow spell of the host weighs on both and each
    // pass still finds its own working set in cache. Detailed requests
    // (≈2 ms) go ten at a time: in chunks of 150 the per-slice engine self
    // moved by up to 350 µs within one run, and one at a time the replay
    // read 3–7% above the untraced call. Analytic requests (≈15 µs) go
    // 10,000 at a time.
    let chunk = match kind.mode() {
        cim_sim::SimMode::Analytic => 10_000,
        cim_sim::SimMode::Detailed => 10,
    };
    // Engine self per slice, to show how far the difference of the two
    // independently timed rows moves within one run.
    let mut slice_self = Vec::new();
    for slice in completed.chunks(completed.len().div_ceil(SLICES).max(1)) {
        reference(&mut serving);
        let before = (item_s, dpe_s, noc_s, items);
        for part in slice.chunks(chunk) {
            for &(o, x) in part {
                let Disposition::Completed { output, .. } = &o.disposition else {
                    unreachable!("filtered to completed requests")
                };
                let c = &classes[o.class];
                apply_due(&mut rt, evs, &mut next, o.arrival);
                let (rep, t) =
                    timed(|| run_item(&mut rt, jobs[o.class], c.src, x, o.arrival, &evs[next..]));
                item_s += t;
                items += 1;
                same += u64::from(rep.outputs[0].get(&c.sink) == Some(output));
                spans += 1;
            }
            for &(o, x) in part {
                let c = &classes[o.class];
                let mut input = x.clone();
                for (li, l) in c.mlp.layers.iter().enumerate() {
                    let dpe = &mut engines[o.class][li];
                    let (y, t) = timed(|| dpe.matvec(&input).expect("matvec"));
                    dpe_s += t;
                    let e = shape_times
                        .entry(format!("{}x{}", l.rows, l.cols))
                        .or_default();
                    e.0 += t;
                    e.1 += 1;
                    input = y.values.iter().map(|&v| v.max(0.0)).collect();
                }
                for &(a, b, bytes) in &hops[o.class] {
                    packet_id += 1;
                    let p = Packet::new(packet_id, a, b, vec![0u8; bytes])
                        .with_class(TrafficClass::Guaranteed);
                    let tt = timed(|| noc_t.transmit(&p, o.arrival).expect("route")).1;
                    let te = timed(|| {
                        noc_e
                            .estimate(a, b, bytes, TrafficClass::Guaranteed, o.arrival)
                            .expect("route")
                    })
                    .1;
                    transmit_s += tt;
                    estimate_s += te;
                    noc_s += match kind.mode() {
                        cim_sim::SimMode::Analytic => te,
                        cim_sim::SimMode::Detailed => tt,
                    };
                    hop_calls += 1;
                }
                spans += c.mlp.layers.len() as u64 + 2 * hops[o.class].len() as u64;
            }
        }
        let n = (items - before.3).max(1) as f64;
        slice_self.push(((item_s - before.0) - (dpe_s - before.1) - (noc_s - before.2)) / n);
    }
    reference(&mut serving);
    let ((mvms, packets), offered) = counted.expect("at least one reference call");
    let untraced_s = median(&serving);
    let slowest_untraced_s = serving.iter().copied().fold(0.0, f64::max);
    eprintln!("engine replay: {same}/{items} outputs bit-identical to the serving call");
    let per = |v: f64| v / items.max(1) as f64;
    let (item_s, dpe_s, noc_s) = (per(item_s), per(dpe_s), per(noc_s));
    for shape in SHAPES {
        let v = shape_times
            .get(shape)
            .map_or(f64::NAN, |&(t, k)| us(t / k as f64));
        m.push(format!("dpe.matvec_us.{shape}"), v, "us");
    }

    let front_self = front_door_self(kind, seed, classes, events);

    // Power cycle of the replayed device (every class resident).
    let power: Vec<f64> = (0..5).map(|_| timed(|| rt.power_cycle(true)).1).collect();

    // Telemetry and observability switched on for one serving call each,
    // each next to a plain call.
    let serve_with = |setup: &dyn Fn(&mut Target)| {
        let mut b = workload::boot(kind, seed, classes);
        setup(&mut b.target);
        workload::serve(kind, &mut b.target, events).serve_s / offered
    };
    let overhead = |setup: &dyn Fn(&mut Target)| {
        let plain = serve_with(&|_| {});
        serve_with(setup) / plain - 1.0
    };
    let tel_overhead = overhead(&|t| match t {
        Target::Service(s) => {
            s.runtime_mut()
                .device_mut()
                .enable_telemetry(TelemetryLevel::Metrics);
        }
        Target::Fleet(f) => {
            for d in 0..f.device_count() {
                f.runtime_mut(d)
                    .device_mut()
                    .enable_telemetry(TelemetryLevel::Metrics);
            }
        }
    });
    let obs_overhead = overhead(&|t| match t {
        Target::Service(s) => s.enable_observability(cim_obs::ObsConfig::default()),
        Target::Fleet(f) => f.enable_observability(cim_obs::ObsConfig::default()),
    });

    // What the span recorder itself costs: two clock reads per span.
    let probe = 100_000;
    let clock_s = timed(|| {
        for _ in 0..probe {
            std::hint::black_box(Instant::now());
        }
    })
    .1;
    let traced_s = traced_started.elapsed().as_secs_f64();
    let span_cost_s = 2.0 * clock_s / probe as f64 * spans as f64;

    let engine_self = item_s - dpe_s - noc_s;
    let rows = dpe_s + noc_s + engine_self + front_self;
    let mean_ns = |t: f64| {
        if hop_calls == 0 {
            0.0
        } else {
            1e9 * t / hop_calls as f64
        }
    };
    m.push("dpe.matvecs_per_req", mvms as f64 / offered, "count");
    m.push("dpe.program_ms", ms(median(&program)), "ms");
    m.push("boot.device_ms", ms(median(&boot_device)), "ms");
    m.push("boot.register_ms", ms(median(&register)), "ms");
    m.push("engine.recoveries", served.recoveries as f64, "count");
    m.push("noc.transmit_ns", mean_ns(transmit_s), "ns");
    m.push("noc.estimate_ns", mean_ns(estimate_s), "ns");
    m.push("noc.packets_per_req", packets as f64 / offered, "count");
    m.push("engine.item_us", us(item_s), "us");
    m.push("engine.self_us", us(engine_self), "us");
    let (svc_self, fleet_self) = if kind.is_fleet() {
        (0.0, front_self)
    } else {
        (front_self, 0.0)
    };
    m.push("service.self_us_per_req", us(svc_self), "us");
    m.push("fleet.self_us_per_req", us(fleet_self), "us");
    m.push("fleet.failovers", served.failovers as f64, "count");
    m.push("fleet.voided", served.voided as f64, "count");
    m.push("persist.power_cycle_ms", ms(median(&power)), "ms");
    m.push("telemetry.overhead_pct", 100.0 * tel_overhead, "%");
    m.push("obs.overhead_pct", 100.0 * obs_overhead, "%");
    m.push(
        "ladder.unattributed_pct",
        100.0 * (untraced_s - rows) / untraced_s,
        "%",
    );
    m.push("trace.overhead_pct", 100.0 * span_cost_s / traced_s, "%");

    println!(
        "layer ladder, host time per request ({}, {} untraced serving calls):",
        kind.name(),
        serving.len()
    );
    let mut rows_out: Vec<(String, f64)> = [
        ("dpe reads", dpe_s),
        ("noc", noc_s),
        ("engine self", engine_self),
        (
            if kind.is_fleet() {
                "fleet self"
            } else {
                "service self"
            },
            front_self,
        ),
        ("sum of rows", rows),
        ("untraced serving call", untraced_s),
    ]
    .into_iter()
    .map(|(row, v)| (row.to_owned(), v))
    .collect();
    rows_out.extend(
        slice_self
            .iter()
            .enumerate()
            .map(|(i, &v)| (format!("engine self, slice {}", i + 1), v)),
    );
    for (row, v) in rows_out {
        println!(
            "  {row:<24} {:>12.3} us {:>7.1}%",
            us(v),
            100.0 * v / untraced_s
        );
    }
    // `engine self` is item minus DPE minus NoC, so the ladder's sum
    // cannot expose a wrong DPE or NoC row; these two checks can.
    let mut problems = Vec::new();
    // The DPE row may not exceed the slowest untraced call by more than
    // the untraced calls' own range (the host's noise over this run).
    let fastest_untraced_s = serving.iter().copied().fold(f64::INFINITY, f64::min);
    let dpe_limit_s = 2.0 * slowest_untraced_s - fastest_untraced_s;
    if dpe_s > dpe_limit_s {
        problems.push(format!(
            "the DPE row ({:.3} us) exceeds the untraced serving calls ({:.3}..{:.3} us per request)",
            us(dpe_s),
            us(fastest_untraced_s),
            us(slowest_untraced_s)
        ));
    }
    // Engine self is the difference of two independently timed rows. It
    // is below the host's noise when the DPE row alone exceeds the
    // untraced call or a slice reads it as zero or less.
    let lo = slice_self.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = slice_self.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if dpe_s > untraced_s || lo <= 0.0 {
        println!(
            "  engine self is unresolved: the DPE row is {:.1}% of the untraced call and \
             engine self ranges over {:.3}..{:.3} us between slices",
            100.0 * dpe_s / untraced_s,
            us(lo),
            us(hi)
        );
    }
    if !same_results {
        problems.push("a traced-run serving call differs from the untraced one".into());
    }
    (m, problems)
}
