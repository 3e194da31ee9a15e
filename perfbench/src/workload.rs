//! The three serving workloads: inputs from the seed, boot, one serving
//! call, and the checks on what it returned.

use crate::reference::{self, Damage, Mlp, MlpBound};
use crate::stats;
use cim_dataflow::graph::{DataflowGraph, NodeRef};
use cim_fabric::engine::InjectionKind;
use cim_fabric::fleet::{CimFleet, FleetConfig, FleetEvent};
use cim_fabric::service::{CimService, Disposition, RequestOutcome, ServiceConfig, ServiceEvent};
use cim_fabric::FabricConfig;
use cim_noc::packet::NodeId;
use cim_sim::rng::Rng;
use cim_sim::time::SimTime;
use cim_sim::{SeedTree, SimMode};
use cim_workloads::serving::{standard_request_mix, RequestClassSpec};
use std::time::Instant;

/// Seed of the resident models' weights. The models are the deployment,
/// not the traffic: they stay the same for every `--seed`, which varies
/// the requests (arrivals, classes, inputs), the device's noise streams
/// and the fault and outage times.
const MODEL_SEED: u64 = 0x7E4A47;

/// Index of each `MatVec` node in an MLP class graph
/// (`input, fc0, relu0, fc1, output`).
const FC_NODES: [usize; 2] = [1, 3];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DetailedSteady,
    DetailedFaults,
    AnalyticFleetFailover,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::DetailedSteady,
        Kind::DetailedFaults,
        Kind::AnalyticFleetFailover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::DetailedSteady => "detailed_steady",
            Kind::DetailedFaults => "detailed_faults",
            Kind::AnalyticFleetFailover => "analytic_fleet_failover",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn mode(self) -> SimMode {
        match self {
            Kind::AnalyticFleetFailover => SimMode::Analytic,
            _ => SimMode::Detailed,
        }
    }

    /// Offered open-loop rate, requests per simulated second.
    pub fn rate_hz(self) -> f64 {
        match self {
            Kind::AnalyticFleetFailover => 200_000.0,
            _ => 100_000.0,
        }
    }

    /// Requests offered by one serving call (one round).
    pub fn requests(self) -> usize {
        match self {
            Kind::AnalyticFleetFailover => 40_000,
            _ => 1_500,
        }
    }

    pub fn is_fleet(self) -> bool {
        self == Kind::AnalyticFleetFailover
    }
}

/// One tenant class: its spec, resident graph and reference MLP.
pub struct Class {
    pub spec: RequestClassSpec,
    pub graph: DataflowGraph,
    pub src: NodeRef,
    pub sink: NodeRef,
    pub mlp: Mlp,
}

/// The standard three-tenant mix with its resident models.
pub fn classes() -> Vec<Class> {
    standard_request_mix()
        .into_iter()
        .map(|spec| {
            let (graph, src, sink) = spec.build_graph(SeedTree::new(MODEL_SEED));
            let mlp = Mlp::from_graph(&graph);
            Class {
                spec,
                graph,
                src,
                sink,
                mlp,
            }
        })
        .collect()
}

pub fn fabric(kind: Kind, seed: u64) -> FabricConfig {
    FabricConfig {
        seed,
        sim_mode: kind.mode(),
        ..FabricConfig::default()
    }
}

pub fn fleet_config(kind: Kind, seed: u64) -> FleetConfig {
    FleetConfig {
        devices: 4,
        replicas: 2,
        fabric: fabric(kind, seed),
        keep_outcomes: true,
        ..FleetConfig::default()
    }
}

/// A booted serving target.
pub enum Target {
    Service(Box<CimService>),
    Fleet(Box<CimFleet>),
}

/// Host time of one boot.
pub struct Boot {
    pub target: Target,
    /// Device construction (`CimService::new` / `CimFleet::new`), s.
    pub device_s: f64,
    /// Each `register_class` call, s.
    pub register_s: Vec<f64>,
}

impl Boot {
    pub fn setup_s(&self) -> f64 {
        self.device_s + self.register_s.iter().sum::<f64>()
    }
}

/// Boots the workload's service or fleet and makes every class resident.
pub fn boot(kind: Kind, seed: u64, classes: &[Class]) -> Boot {
    let t0 = Instant::now();
    let mut target = if kind.is_fleet() {
        Target::Fleet(Box::new(
            CimFleet::new(fleet_config(kind, seed), SeedTree::new(seed)).expect("fleet boots"),
        ))
    } else {
        Target::Service(Box::new(
            CimService::new(
                fabric(kind, seed),
                ServiceConfig::default(),
                SeedTree::new(seed),
            )
            .expect("service boots"),
        ))
    };
    let device_s = t0.elapsed().as_secs_f64();
    let mut register_s = Vec::with_capacity(classes.len());
    for c in classes {
        let (g, name) = (c.graph.clone(), c.spec.name);
        let (dl, w) = (c.spec.deadline, c.spec.weight);
        let t = Instant::now();
        match &mut target {
            Target::Service(s) => s.register_class(name, g, c.src, c.sink, dl, w),
            Target::Fleet(f) => f.register_class(name, g, c.src, c.sink, dl, w),
        }
        .expect("the standard mix is resident on the default fabric");
        register_s.push(t.elapsed().as_secs_f64());
    }
    Boot {
        target,
        device_s,
        register_s,
    }
}

/// The workload's event schedule.
#[derive(Clone)]
pub enum Events {
    Service(Vec<ServiceEvent>),
    Fleet(Vec<FleetEvent>),
}

/// What one serving call returned, plus its host time.
pub struct Served {
    pub serve_s: f64,
    pub offered: usize,
    pub completed: usize,
    pub recoveries: usize,
    pub failovers: usize,
    pub voided: u64,
    pub outcomes: Vec<RequestOutcome>,
    /// Modeled energy charged during the call, fJ.
    pub energy_fj: u64,
    /// Report identities that did not hold.
    pub broken_identities: Vec<&'static str>,
}

impl Served {
    /// Modeled latency (µs) of every completed request.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| match o.disposition {
                Disposition::Completed { finished, .. } => {
                    Some(finished.saturating_since(o.arrival).as_us_f64())
                }
                _ => None,
            })
            .collect()
    }

    /// FNV-1a over every outcome's class, times and output bits.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut put = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for o in &self.outcomes {
            put(o.class as u64);
            put(o.arrival.as_ps());
            if let Disposition::Completed {
                finished, output, ..
            } = &o.disposition
            {
                put(finished.as_ps());
                output.iter().for_each(|v| put(v.to_bits()));
            }
        }
        put(self.energy_fj);
        h
    }
}

fn meter_fj(target: &Target) -> u64 {
    match target {
        Target::Service(s) => s.runtime().device().meter().total().as_fj(),
        Target::Fleet(f) => (0..f.device_count())
            .map(|d| f.runtime(d).device().meter().total().as_fj())
            .sum(),
    }
}

/// Runs the workload's one serving call on a booted target.
pub fn serve(kind: Kind, target: &mut Target, events: &Events) -> Served {
    let (rate, n) = (kind.rate_hz(), kind.requests());
    let before = meter_fj(target);
    let t = Instant::now();
    let mut served = match (&mut *target, events) {
        (Target::Service(s), Events::Service(ev)) => {
            let r = s.run_open_loop(rate, n, ev).expect("service serves");
            let serve_s = t.elapsed().as_secs_f64();
            let mut broken = Vec::new();
            if !r.zero_lost() {
                broken.push("zero_lost");
            }
            if r.offered != r.completed + r.timed_out + r.shed + r.failed {
                broken.push("offered = completed + timed_out + shed + failed");
            }
            Served {
                serve_s,
                offered: r.offered,
                completed: r.completed,
                recoveries: r.recoveries,
                failovers: 0,
                voided: 0,
                outcomes: r.outcomes,
                energy_fj: 0,
                broken_identities: broken,
            }
        }
        (Target::Fleet(f), Events::Fleet(ev)) => {
            let r = f.run_open_loop(rate, n, ev).expect("fleet serves");
            let serve_s = t.elapsed().as_secs_f64();
            let mut broken = Vec::new();
            if !r.zero_lost() {
                broken.push("zero_lost");
            }
            if r.offered != r.completed + r.timed_out + r.shed + r.failed {
                broken.push("offered = completed + timed_out + shed + failed");
            }
            if r.served_total() != (r.completed + r.timed_out) as u64 {
                broken.push("served_total = completed + timed_out");
            }
            if r.voided_total() != r.failovers as u64 {
                broken.push("voided_total = failovers");
            }
            Served {
                serve_s,
                offered: r.offered,
                completed: r.completed,
                recoveries: r.recoveries,
                failovers: r.failovers,
                voided: r.voided_total(),
                outcomes: r.outcomes,
                energy_fj: 0,
                broken_identities: broken,
            }
        }
        _ => unreachable!("events match the target"),
    };
    served.energy_fj = meter_fj(target) - before;
    served
}

/// Input vectors of every offered request, regenerated from the seed the
/// way the serving front door draws them: one `inputs` stream, each
/// request taking its class's input width in arrival order.
pub fn regenerate_inputs(
    seed: u64,
    classes: &[Class],
    outcomes: &[RequestOutcome],
) -> Vec<Vec<f64>> {
    let mut rng = SeedTree::new(seed).rng("inputs");
    outcomes
        .iter()
        .map(|o| {
            (0..classes[o.class].spec.input_width())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect()
        })
        .collect()
}

/// Cell damage a workload's schedule does to one class layer, and from
/// when.
#[derive(Clone)]
pub struct LayerDamage {
    pub class: usize,
    pub layer: usize,
    pub from: SimTime,
    pub damage: Damage,
}

/// Result of checking one serving call's outputs.
#[derive(Debug, Default)]
pub struct Check {
    /// Completed requests whose output left the bound.
    pub outside: usize,
    /// Requests the perturbed reference flags (must be > 0).
    pub control_caught: usize,
    /// Median over completed requests of the largest |error| / bound.
    pub median_error_share: f64,
    /// Per class, the median relative error of its outputs (NaN for a
    /// class without completed requests).
    pub class_median_error: Vec<f64>,
    /// Output corruptions the median-error gate failed to catch (must be
    /// empty).
    pub controls_missed: Vec<&'static str>,
}

/// Per class, the median relative error of `got` against `exact`.
fn class_medians(got: &[Vec<Vec<f64>>], exact: &[Vec<Vec<f64>>]) -> Vec<f64> {
    got.iter()
        .zip(exact)
        .map(|(g, e)| {
            if g.is_empty() {
                f64::NAN
            } else {
                reference::median_relative_error(g, e)
            }
        })
        .collect()
}

/// The negative controls of the median-error gate: the served outputs
/// corrupted the ways a broken kernel plausibly would.
///
/// * `zero`: every output all zeros;
/// * `negated`: every output sign-flipped;
/// * `swapped`: each class that shares its output width with another
///   class gets that class's outputs (in order, cycled).
fn corruptions(got: &[Vec<Vec<f64>>]) -> Vec<(&'static str, Vec<Vec<Vec<f64>>>)> {
    let map = |f: &dyn Fn(f64) -> f64| -> Vec<Vec<Vec<f64>>> {
        got.iter()
            .map(|c| {
                c.iter()
                    .map(|o| o.iter().map(|&v| f(v)).collect())
                    .collect()
            })
            .collect()
    };
    let width = |c: &[Vec<f64>]| c.first().map(Vec::len);
    let swapped = got
        .iter()
        .enumerate()
        .map(|(ci, mine)| {
            let partner = (0..got.len())
                .find(|&p| p != ci && !got[p].is_empty() && width(&got[p]) == width(mine));
            match partner {
                Some(p) => (0..mine.len())
                    .map(|i| got[p][i % got[p].len()].clone())
                    .collect(),
                None => mine.clone(),
            }
        })
        .collect();
    vec![
        ("zero", map(&|_| 0.0)),
        ("negated", map(&|v| -v)),
        ("swapped", swapped),
    ]
}

/// Checks every completed output against the f64 reference: within the
/// derived worst-case bound per request, and each class's median
/// relative error under [`reference::median_error_cap`]. Runs the
/// negative controls of both gates: a perturbed-weight reference against
/// the bound, and zeroed, negated and class-swapped outputs against the
/// median cap.
pub fn check_outputs(
    kind: Kind,
    seed: u64,
    classes: &[Class],
    damage: &[LayerDamage],
    served: &Served,
) -> Check {
    let cfg = fabric(kind, seed).dpe;
    let clean: Vec<MlpBound> = classes
        .iter()
        .map(|c| MlpBound::new(&c.mlp, &cfg, kind.mode(), &[]))
        .collect();
    // Damage counts from its first landing on a class, conservatively
    // for every layer that has any.
    let damaged: Vec<Option<(SimTime, MlpBound)>> = (0..classes.len())
        .map(|ci| {
            let mine: Vec<&LayerDamage> = damage.iter().filter(|d| d.class == ci).collect();
            let from = mine.iter().map(|d| d.from).min()?;
            let mut per_layer = vec![Damage::default(); classes[ci].mlp.layers.len()];
            for d in mine {
                per_layer[d.layer]
                    .stuck
                    .extend(d.damage.stuck.iter().copied());
                per_layer[d.layer].drift =
                    1.0 - (1.0 - per_layer[d.layer].drift) * (1.0 - d.damage.drift);
            }
            Some((
                from,
                MlpBound::new(&classes[ci].mlp, &cfg, kind.mode(), &per_layer),
            ))
        })
        .collect();
    let bad: Vec<Mlp> = classes
        .iter()
        .map(|c| reference::perturbed(&c.mlp))
        .collect();
    let inputs = regenerate_inputs(seed, classes, &served.outcomes);
    let mut out = Check::default();
    let mut shares = Vec::new();
    let mut got = vec![Vec::new(); classes.len()];
    let mut exacts = vec![Vec::new(); classes.len()];
    for (o, x) in served.outcomes.iter().zip(&inputs) {
        let Disposition::Completed {
            finished, output, ..
        } = &o.disposition
        else {
            continue;
        };
        let exact = classes[o.class].mlp.eval(x);
        let mb = match &damaged[o.class] {
            Some((from, b)) if *finished >= *from => b,
            _ => &clean[o.class],
        };
        let bound = mb.bound(x, &exact);
        let want = exact.last().expect("layers");
        if !reference::within(output, want, &bound) {
            out.outside += 1;
        }
        let share = output
            .iter()
            .zip(want)
            .zip(&bound)
            .map(|((g, e), b)| (g - e).abs() / b.max(f64::MIN_POSITIVE))
            .fold(0.0f64, f64::max);
        shares.push(share);
        let wrong = bad[o.class].eval(x);
        if !reference::within(output, wrong.last().expect("layers"), &bound) {
            out.control_caught += 1;
        }
        got[o.class].push(output.clone());
        exacts[o.class].push(want.clone());
    }
    if !shares.is_empty() {
        out.median_error_share = stats::median(&shares);
    }
    let cap = reference::median_error_cap(kind.mode());
    let over_cap = |medians: &[f64]| medians.iter().any(|&m| m > cap);
    out.class_median_error = class_medians(&got, &exacts);
    out.controls_missed = corruptions(&got)
        .into_iter()
        .filter(|(_, bad)| !over_cap(&class_medians(bad, &exacts)))
        .map(|(name, _)| name)
        .collect();
    out
}

/// Simulated span of the open-loop stream.
fn span_ps(kind: Kind) -> u64 {
    (kind.requests() as f64 / kind.rate_hz() * 1e12) as u64
}

/// `detailed_faults` schedule on a booted service. Returns the events
/// and the cell damage they do.
///
/// * Early (10–20% of the span): stuck-at cell faults and a drift spike
///   on every `MatVec` unit of the `standard` and `batch` classes.
/// * Then congestion bursts and two severed mesh links (repaired later;
///   the 4×4 mesh stays connected, traffic reroutes).
/// * 25–85%: 24 unit failures, eight on each `standard` `MatVec` node
///   and four on each `batch` one, each on the unit the node occupies at
///   that point (§V.A recovery moves the node to a spare, which the
///   next failure then hits).
/// * 92%: field repair of every failed unit.
///
/// Times carry a seed-drawn jitter; the structure is fixed.
pub fn fault_schedule(seed: u64, svc: &CimService) -> (Vec<ServiceEvent>, Vec<LayerDamage>) {
    let kind = Kind::DetailedFaults;
    let span = span_ps(kind);
    let mut rng = SeedTree::new(seed).rng("fault-schedule");
    let mut at = |frac: f64, jitter: f64| {
        let f = frac + jitter * (rng.gen::<f64>() - 0.5);
        SimTime::from_ps((span as f64 * f) as u64)
    };
    let rt = svc.runtime();
    let units_of = |class: usize| -> Vec<usize> {
        let job = svc.class_job(class).expect("registered");
        rt.program(job)
            .expect("resident")
            .placement()
            .node_to_unit
            .clone()
    };
    let cfg = rt.device().config().dpe.clone();
    let targets: Vec<(usize, usize)> = [1usize, 2]
        .iter()
        .flat_map(|&c| (0..FC_NODES.len()).map(move |l| (c, l)))
        .collect();
    let mut events = Vec::new();
    let mut damage = Vec::new();
    for (i, &(class, layer)) in targets.iter().enumerate() {
        let unit = units_of(class)[FC_NODES[layer]];
        let fault_seed = seed ^ (0xFA17 + i as u64);
        let (rate_ppm, stuck_on_ppm, drift_ppm) = (500, 500_000, 5_000);
        let t_fault = at(0.10 + 0.02 * i as f64, 0.01);
        let t_drift = at(0.11 + 0.02 * i as f64, 0.01);
        events.push(ServiceEvent::Inject {
            at: t_fault,
            kind: InjectionKind::CellFaults {
                unit,
                rate_ppm,
                stuck_on_ppm,
                seed: fault_seed,
            },
        });
        events.push(ServiceEvent::Inject {
            at: t_drift,
            kind: InjectionKind::DriftSpike { unit, drift_ppm },
        });
        // A spike that lands inside a request is applied there and again
        // at the next dispatch boundary, so count it twice.
        let f = f64::from(drift_ppm) / 1e6;
        damage.push(LayerDamage {
            class,
            layer,
            from: t_fault.min(t_drift),
            damage: Damage {
                stuck: reference::campaign_cells(&cfg, rate_ppm, stuck_on_ppm, fault_seed),
                drift: 1.0 - (1.0 - f) * (1.0 - f),
            },
        });
    }
    // Congestion between the tiles each class's traffic crosses, and two
    // severed links inside the mesh.
    for (i, class) in (0..3).enumerate() {
        let u = units_of(class);
        let tile = |node: usize| rt.device().unit(u[node]).tile();
        events.push(ServiceEvent::Inject {
            at: at(0.20 + 0.05 * i as f64, 0.02),
            kind: InjectionKind::Congestion {
                from: tile(0),
                to: tile(4),
                packets: 8,
                bytes: 256,
            },
        });
    }
    for (a, b, down, up) in [
        (NodeId::new(1, 1), NodeId::new(2, 1), 0.22, 0.60),
        (NodeId::new(1, 2), NodeId::new(1, 1), 0.45, 0.80),
    ] {
        events.push(ServiceEvent::Inject {
            at: at(down, 0.02),
            kind: InjectionKind::FailLink { a, b },
        });
        events.push(ServiceEvent::Inject {
            at: at(up, 0.02),
            kind: InjectionKind::RepairLink { a, b },
        });
    }
    // Unit-failure chains. Mirror the engine's spare choice (nearest
    // healthy unassigned unit by tile distance, then index) to know
    // where each node sits when its next failure lands.
    let dev = rt.device();
    let mut assigned: Vec<bool> = dev
        .units()
        .iter()
        .map(|u| u.assigned_node().is_some())
        .collect();
    let mut healthy = vec![true; dev.units().len()];
    let mut current: Vec<usize> = targets
        .iter()
        .map(|&(c, l)| units_of(c)[FC_NODES[l]])
        .collect();
    // Eight rounds on the `standard` nodes, four on the `batch` ones (the
    // rarer class needs longer between failures to meet its next request).
    let order: Vec<usize> = (0..8)
        .flat_map(|round| {
            if round % 2 == 0 {
                vec![0, 1, 2, 3]
            } else {
                vec![0, 1]
            }
        })
        .collect();
    let n_fail = order.len();
    let mut failed_units = Vec::new();
    for (k, &ti) in order.iter().enumerate() {
        let victim = current[ti];
        events.push(ServiceEvent::FailUnit {
            at: at(0.25 + 0.60 * k as f64 / n_fail as f64, 0.01),
            unit: victim,
        });
        failed_units.push(victim);
        healthy[victim] = false;
        assigned[victim] = false;
        let tile = dev.unit(victim).tile();
        let spare = (0..healthy.len())
            .filter(|&u| healthy[u] && !assigned[u])
            .min_by_key(|&u| (dev.unit(u).tile().manhattan(tile), u))
            .expect("the 64-unit device has spares");
        assigned[spare] = true;
        current[ti] = spare;
    }
    for unit in failed_units {
        events.push(ServiceEvent::RepairUnit {
            at: at(0.92, 0.01),
            unit,
        });
    }
    (events, damage)
}

/// Parses the outage windows the probe child prints
/// (`down <ps> <device>` / `up <ps> <device>` lines).
pub fn parse_outage(text: &str) -> Option<Vec<FleetEvent>> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let mut it = l.split_whitespace();
            let (what, ps, dev) = (it.next()?, it.next()?, it.next()?);
            let at = SimTime::from_ps(ps.parse().ok()?);
            let device = dev.parse().ok()?;
            match what {
                "down" => Some(FleetEvent::DeviceDown { at, device }),
                "up" => Some(FleetEvent::DeviceUp { at, device }),
                _ => None,
            }
        })
        .collect()
}

/// Places the fleet outages with `cim_bench`'s probe run (a full
/// outage-free fleet run with outcomes kept) and prints them as
/// [`parse_outage`] reads them. Runs in a child process so neither its
/// host time nor its memory lands in the measured process.
pub fn print_outage(seed: u64) {
    let kind = Kind::AnalyticFleetFailover;
    let s = cim_bench::experiments::fleet::FleetScenario {
        devices: 4,
        replicas: 2,
        rate_hz: kind.rate_hz(),
        requests: kind.requests(),
        seed,
        mode: kind.mode(),
        outage: true,
        keep_outcomes: false,
    };
    for ev in cim_bench::experiments::fleet::engineered_outage(&s) {
        match ev {
            FleetEvent::DeviceDown { at, device } => println!("down {} {device}", at.as_ps()),
            FleetEvent::DeviceUp { at, device } => println!("up {} {device}", at.as_ps()),
            other => panic!("unexpected outage event {other:?}"),
        }
    }
}

/// Deadline slack check helper: the largest modeled latency as a share
/// of its class deadline.
pub fn worst_deadline_share(classes: &[Class], served: &Served) -> f64 {
    served
        .outcomes
        .iter()
        .filter_map(|o| match o.disposition {
            Disposition::Completed { finished, .. } => Some(
                finished.saturating_since(o.arrival).as_ps() as f64
                    / classes[o.class].spec.deadline.as_ps() as f64,
            ),
            _ => None,
        })
        .fold(0.0, f64::max)
}
