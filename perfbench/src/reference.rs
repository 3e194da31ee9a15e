//! Output checks made apart from the simulator.
//!
//! Each request class is an MLP (`source → fc0 → relu → fc1 → sink`).
//! [`Mlp::eval`] runs it in plain f64 from the weights stored in the
//! class graph. [`Mlp::bound`] gives, per output element, how far the
//! simulated dot-product engine may land from that exact result. The
//! bound is built only from the documented `DpeConfig` model (see the
//! README, "Output check"):
//!
//! * both tiers quantize the input vector and the weight matrix to
//!   signed integers (round to nearest, scale = max |value| / qmax);
//! * the detailed tier also streams the input digit by digit, stores the
//!   weight magnitudes in `cell_bits`-wide slices on a positive and a
//!   negative array, and converts every column sum with an ADC whose
//!   step is `rows · max_level · max_drive / (2^adc_bits − 1)`. Each
//!   conversion of a non-empty column errs by at most half a step plus
//!   the analog deviation of its cells: programming variation and read
//!   noise (a `K_SIGMA` Gaussian tail), stuck-at faults and drift.
//!
//! The hidden layer's error is carried into the second layer through
//! the ReLU (1-Lipschitz), so the whole MLP is covered.
//!
//! That bound is a worst case, many times an output's size in the
//! detailed tier, so it only catches gross errors. The second gate,
//! [`median_error_cap`], holds each class's median relative error under
//! a cap that an all-zero, negated or wrong-class output exceeds.

use cim_crossbar::dpe::DpeConfig;
use cim_dataflow::graph::DataflowGraph;
use cim_dataflow::ops::{Elementwise, Operation};
use cim_sim::rng::Rng;
use cim_sim::{SeedTree, SimMode};

/// Gaussian tail used for the noise part of the bound. The chance that
/// one conversion exceeds it is about 3e-12.
pub const K_SIGMA: f64 = 7.0;

/// One `MatVec` layer, row-major `rows × cols`.
#[derive(Debug, Clone)]
pub struct Layer {
    pub rows: usize,
    pub cols: usize,
    pub weights: Vec<f64>,
}

/// Cell-level damage injected into one layer's arrays: stuck-at faults
/// (reproduced cell by cell from the documented fault campaign) and a
/// cumulative drift fraction.
#[derive(Debug, Clone, Default)]
pub struct Damage {
    /// `(sign, slice, row, col, stuck_on)` of every faulted cell.
    pub stuck: Vec<(usize, usize, usize, usize, bool)>,
    /// Largest relative conductance loss from drift spikes.
    pub drift: f64,
}

/// A class's MLP as the reference sees it.
#[derive(Debug, Clone)]
pub struct Mlp {
    pub layers: Vec<Layer>,
}

impl Mlp {
    /// Reads the layers of a `source → (matvec → relu)* → matvec → sink`
    /// chain out of a class graph.
    ///
    /// # Panics
    ///
    /// Panics on any other graph shape.
    pub fn from_graph(g: &DataflowGraph) -> Mlp {
        let mut layers = Vec::new();
        for (_, node) in g.nodes() {
            match &node.op {
                Operation::MatVec {
                    rows,
                    cols,
                    weights,
                } => layers.push(Layer {
                    rows: *rows,
                    cols: *cols,
                    weights: weights.clone(),
                }),
                Operation::Map {
                    func: Elementwise::Relu,
                    ..
                }
                | Operation::Source { .. }
                | Operation::Sink { .. } => {}
                other => panic!("not an MLP chain: {other:?}"),
            }
        }
        assert!(!layers.is_empty(), "an MLP has at least one layer");
        Mlp { layers }
    }

    /// Exact f64 evaluation; returns every layer's output (before the
    /// ReLU). The last entry is the MLP's output.
    pub fn eval(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut outs: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len());
        let mut input = x.to_vec();
        for (i, l) in self.layers.iter().enumerate() {
            assert_eq!(input.len(), l.rows, "layer {i} input width");
            let y = matvec(l, &input);
            input = y.iter().map(|&v| v.max(0.0)).collect();
            outs.push(y);
        }
        outs
    }
}

/// `y = xᵀ·W` in f64.
pub fn matvec(l: &Layer, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; l.cols];
    for (r, &xr) in x.iter().enumerate() {
        let row = &l.weights[r * l.cols..(r + 1) * l.cols];
        for (yc, &w) in y.iter_mut().zip(row) {
            *yc += xr * w;
        }
    }
    y
}

fn qmax(bits: u32) -> f64 {
    ((1i64 << (bits - 1)) - 1) as f64
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

/// Per-layer constants of the bound that do not depend on the input.
#[derive(Debug, Clone)]
pub struct LayerBound {
    layer: Layer,
    /// Weight quantizer step.
    ws: f64,
    /// Input quantizer `qmax`.
    in_qmax: f64,
    /// Per column: worst summed conversion error, in units of
    /// `ws · xs` (the product of the two quantizer steps).
    adc: Vec<f64>,
}

impl LayerBound {
    /// Precomputes the bound for `layer` under `cfg` and `damage`. The
    /// analytic tier is quantization only; the detailed tier adds the ADC
    /// step, noise and any [`Damage`].
    pub fn new(layer: &Layer, cfg: &DpeConfig, mode: SimMode, damage: &Damage) -> LayerBound {
        let wq = qmax(cfg.weight_bits);
        let ws = max_abs(&layer.weights).max(f64::MIN_POSITIVE) / wq;
        let in_qmax = qmax(cfg.input_bits);
        let adc = match mode {
            SimMode::Analytic => vec![0.0; layer.cols],
            SimMode::Detailed => adc_columns(layer, cfg, ws, damage),
        };
        LayerBound {
            layer: layer.clone(),
            ws,
            in_qmax,
            adc,
        }
    }

    /// Bound on `|dpe(x') − xᵀW|` per column for any input `x'` with
    /// `|x' − x| ≤ delta` elementwise.
    pub fn bound(&self, x: &[f64], delta: &[f64]) -> Vec<f64> {
        let l = &self.layer;
        let xmax = x
            .iter()
            .zip(delta)
            .fold(0.0f64, |m, (&v, &d)| m.max(v.abs() + d));
        let xs = xmax / self.in_qmax;
        let mut out = vec![0.0; l.cols];
        for (r, (&xr, &dr)) in x.iter().zip(delta).enumerate() {
            let row = &l.weights[r * l.cols..(r + 1) * l.cols];
            for (o, &w) in out.iter_mut().zip(row) {
                // Input perturbation, weight rounding, input rounding.
                *o += w.abs() * dr
                    + (xr.abs() + dr) * self.ws / 2.0
                    + (w.abs() + self.ws / 2.0) * xs / 2.0;
            }
        }
        for (o, &a) in out.iter_mut().zip(&self.adc) {
            *o += self.ws * xs * a;
        }
        out
    }
}

/// Signed slice levels of a quantized weight: `(sign, [level; slices])`.
fn slices_of(q: i64, cfg: &DpeConfig) -> (usize, Vec<u16>) {
    let n = cfg.slices();
    let mask = (1u64 << cfg.device.bits) - 1;
    let mag = q.unsigned_abs();
    let levels = (0..n)
        .map(|s| ((mag >> (s as u32 * cfg.device.bits)) & mask) as u16)
        .collect();
    (usize::from(q < 0), levels)
}

/// Worst summed ADC + analog error per column, in `ws · xs` units,
/// assuming every input digit phase of both polarities is active.
fn adc_columns(layer: &Layer, cfg: &DpeConfig, ws: f64, damage: &Damage) -> Vec<f64> {
    let slices = cfg.slices();
    let max_drive = ((1u32 << cfg.dac_bits) - 1) as f64;
    let max_level = f64::from(cfg.device.max_level());
    let full_scale = cfg.array_rows as f64 * max_level * max_drive;
    let half_step = full_scale / ((1u64 << cfg.adc_bits) - 1) as f64 / 2.0;
    let sigma_rel = cfg.device.program_sigma + 1.2 * cfg.device.read_sigma;
    // Σ over polarities and digits of each digit's weight.
    let n_digits = (cfg.input_bits - 1).div_ceil(cfg.dac_bits);
    let digit_base = (1u64 << cfg.dac_bits) as f64;
    let digit_sum: f64 = 2.0
        * (0..n_digits)
            .map(|d| digit_base.powi(d as i32))
            .sum::<f64>();
    let slice_base = (1u64 << cfg.device.bits) as f64;

    // levels[sign][slice][row * cols + col]
    let (rows, cols) = (layer.rows, layer.cols);
    let mut levels = vec![vec![vec![0u16; rows * cols]; slices]; 2];
    for r in 0..rows {
        for c in 0..cols {
            let q = (layer.weights[r * cols + c] / ws).round() as i64;
            let (sign, ls) = slices_of(q, cfg);
            for (s, &lv) in ls.iter().enumerate() {
                levels[sign][s][r * cols + c] = lv;
            }
        }
    }
    let mut fault_dev = vec![vec![vec![0.0f64; cols]; slices]; 2];
    let mut faulted = vec![vec![vec![false; cols]; slices]; 2];
    for &(sign, s, r, c, on) in &damage.stuck {
        if r < rows && c < cols {
            let lv = f64::from(levels[sign][s][r * cols + c]);
            let read = if on { max_level } else { 0.0 };
            fault_dev[sign][s][c] += max_drive * (read - lv).abs();
            faulted[sign][s][c] = true;
        }
    }
    let mut out = vec![0.0; cols];
    for (c, o) in out.iter_mut().enumerate() {
        for sign in 0..2 {
            for s in 0..slices {
                let mut var = 0.0;
                let mut nominal = 0.0;
                let mut any = faulted[sign][s][c];
                for r in 0..rows {
                    let lv = f64::from(levels[sign][s][r * cols + c]);
                    if lv > 0.0 {
                        any = true;
                    }
                    let sd = max_drive
                        * lv.max(if faulted[sign][s][c] { max_level } else { 0.0 })
                        * sigma_rel;
                    var += sd * sd;
                    nominal += max_drive * lv;
                }
                if !any {
                    // Level-0 cells read exactly 0: the conversion is exact.
                    continue;
                }
                let dev = half_step
                    + K_SIGMA * var.sqrt()
                    + fault_dev[sign][s][c]
                    + damage.drift * (nominal + fault_dev[sign][s][c]);
                *o += slice_base.powi(s as i32) * dev;
            }
        }
        *o *= digit_sum;
    }
    out
}

/// Reproduces the stuck-at cells one `CellFaults { rate_ppm,
/// stuck_on_ppm, seed }` injection places on a programmed engine of
/// `slices` slices per sign with one `array_rows × array_cols` tile per
/// sign and slice (every class layer fits one tile). The campaign walks
/// the arrays in (sign, slice) order and the cells row-major, drawing one
/// uniform per cell and one more per fault for its kind.
pub fn campaign_cells(
    cfg: &DpeConfig,
    rate_ppm: u32,
    stuck_on_ppm: u32,
    seed: u64,
) -> Vec<(usize, usize, usize, usize, bool)> {
    let rate = f64::from(rate_ppm) / 1e6;
    let on = f64::from(stuck_on_ppm) / 1e6;
    let mut rng = SeedTree::new(seed).rng("fault-campaign");
    let mut cells = Vec::new();
    for sign in 0..2 {
        for s in 0..cfg.slices() {
            for r in 0..cfg.array_rows {
                for c in 0..cfg.array_cols {
                    if rng.gen::<f64>() < rate {
                        let stuck_on = rng.gen::<f64>() < on;
                        cells.push((sign, s, r, c, stuck_on));
                    }
                }
            }
        }
    }
    cells
}

/// A class's bound, layer by layer.
#[derive(Debug, Clone)]
pub struct MlpBound {
    layers: Vec<LayerBound>,
}

impl MlpBound {
    /// `damage[i]` applies to layer `i` (empty slice for none).
    pub fn new(mlp: &Mlp, cfg: &DpeConfig, mode: SimMode, damage: &[Damage]) -> MlpBound {
        let none = Damage::default();
        MlpBound {
            layers: mlp
                .layers
                .iter()
                .enumerate()
                .map(|(i, l)| LayerBound::new(l, cfg, mode, damage.get(i).unwrap_or(&none)))
                .collect(),
        }
    }

    /// Bound on the final output, given the exact per-layer outputs of
    /// [`Mlp::eval`] for the same input `x`.
    pub fn bound(&self, x: &[f64], exact: &[Vec<f64>]) -> Vec<f64> {
        let mut input = x.to_vec();
        let mut delta = vec![0.0; x.len()];
        for (i, lb) in self.layers.iter().enumerate() {
            let b = lb.bound(&input, &delta);
            if i + 1 == self.layers.len() {
                return b;
            }
            // ReLU is 1-Lipschitz: the hidden error passes through.
            input = exact[i].iter().map(|&v| v.max(0.0)).collect();
            delta = b;
        }
        unreachable!("an MLP has at least one layer")
    }
}

/// Size of the negative control's perturbation, in units of the largest
/// weight of the class's last layer. The detailed-tier bound is a worst
/// case over hundreds of conversions, several times the output's size,
/// so only a gross error is sure to leave it.
pub const NEGATIVE_CONTROL_SCALE: f64 = 64.0;

/// The class's MLP with one weight of its last layer moved by
/// [`NEGATIVE_CONTROL_SCALE`] times that layer's largest weight.
pub fn perturbed(mlp: &Mlp) -> Mlp {
    let mut bad = mlp.clone();
    let last = bad.layers.last_mut().expect("an MLP has layers");
    last.weights[0] += NEGATIVE_CONTROL_SCALE * max_abs(&last.weights);
    bad
}

/// Whether `got` matches `exact` within `bound` (plus f64 rounding).
pub fn within(got: &[f64], exact: &[f64], bound: &[f64]) -> bool {
    got.len() == exact.len()
        && got
            .iter()
            .zip(exact)
            .zip(bound)
            .all(|((&g, &e), &b)| g.is_finite() && (g - e).abs() <= b + 1e-9 * (1.0 + e.abs()))
}

/// Relative error of one output, `‖got − exact‖₂ / ‖exact‖₂`.
pub fn relative_error(got: &[f64], exact: &[f64]) -> f64 {
    let diff: f64 = got.iter().zip(exact).map(|(g, e)| (g - e) * (g - e)).sum();
    let norm: f64 = exact.iter().map(|e| e * e).sum();
    (diff / norm.max(f64::MIN_POSITIVE)).sqrt()
}

/// Median over a class's requests of `relative_error(got[i], exact[i])`.
pub fn median_relative_error(got: &[Vec<f64>], exact: &[Vec<f64>]) -> f64 {
    let errs: Vec<f64> = got
        .iter()
        .zip(exact)
        .map(|(g, e)| relative_error(g, e))
        .collect();
    crate::stats::median(&errs)
}

/// Cap on each class's [`median_relative_error`]. The worst-case bound
/// is many times an output's size in the detailed tier, so an all-zero,
/// negated or wrong-class output stays inside it; the median error is
/// what such breakage moves. Each cap sits well above the class medians
/// seen on working code (0.005–0.006 analytic, 0.24–0.41 detailed at the
/// default 8-bit ADC) and below 1, the error of an all-zero output.
pub fn median_error_cap(mode: SimMode) -> f64 {
    match mode {
        SimMode::Analytic => 0.02,
        SimMode::Detailed => 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_crossbar::dpe::DotProductEngine;
    use cim_crossbar::matrix::DenseMatrix;
    use cim_workloads::serving::standard_request_mix;
    use std::collections::HashMap;

    fn inputs(width: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SeedTree::new(seed).rng("inputs");
        (0..n)
            .map(|_| (0..width).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn reference_agrees_with_the_dataflow_interpreter() {
        for spec in standard_request_mix() {
            let (g, src, sink) = spec.build_graph(SeedTree::new(5));
            let mlp = Mlp::from_graph(&g);
            for x in inputs(spec.input_width(), 20, 9) {
                let out =
                    cim_dataflow::interpreter::execute(&g, &HashMap::from([(src, x.clone())]))
                        .expect("runs");
                let exact = mlp.eval(&x);
                let got = &out[&sink];
                let want = exact.last().unwrap();
                assert_eq!(got.len(), want.len());
                for (a, b) in got.iter().zip(want) {
                    assert!((a - b).abs() <= 1e-12 * (1.0 + b.abs()), "{a} vs {b}");
                }
            }
        }
    }

    /// Runs one layer on a real engine and checks it against the bound.
    fn engine_within_bound(cfg: DpeConfig, mode: SimMode) {
        for spec in standard_request_mix() {
            let (g, _, _) = spec.build_graph(SeedTree::new(11));
            let mlp = Mlp::from_graph(&g);
            let l = &mlp.layers[0];
            let mut dpe = DotProductEngine::new(cfg.clone(), SeedTree::new(3));
            dpe.set_mode(mode);
            dpe.program(&DenseMatrix::new(l.rows, l.cols, l.weights.clone()).unwrap())
                .unwrap();
            let lb = LayerBound::new(l, &cfg, mode, &Damage::default());
            for x in inputs(l.rows, 40, 17) {
                let got = dpe.matvec(&x).unwrap().values;
                let exact = matvec(l, &x);
                let b = lb.bound(&x, &vec![0.0; x.len()]);
                assert!(within(&got, &exact, &b), "{got:?} vs {exact:?} ± {b:?}");
            }
        }
    }

    #[test]
    fn analytic_engine_stays_within_the_quantization_bound() {
        engine_within_bound(DpeConfig::default(), SimMode::Analytic);
    }

    #[test]
    fn detailed_engine_stays_within_the_adc_and_noise_bound() {
        engine_within_bound(DpeConfig::default(), SimMode::Detailed);
    }

    #[test]
    fn faulted_engine_stays_within_the_damage_bound() {
        let cfg = DpeConfig::default();
        for spec in standard_request_mix() {
            let (g, _, _) = spec.build_graph(SeedTree::new(13));
            let l = Mlp::from_graph(&g).layers[0].clone();
            let mut dpe = DotProductEngine::new(cfg.clone(), SeedTree::new(4));
            dpe.program(&DenseMatrix::new(l.rows, l.cols, l.weights.clone()).unwrap())
                .unwrap();
            let (rate, on, seed) = (20_000, 500_000, 77);
            cim_crossbar::faults::FaultCampaign::new(f64::from(rate) / 1e6, f64::from(on) / 1e6)
                .inject(&mut dpe, SeedTree::new(seed));
            let drift = 0.01;
            dpe.for_each_array(|_, _, _, _, xbar| xbar.drift_all(1.0, drift));
            let damage = Damage {
                stuck: campaign_cells(&cfg, rate, on, seed),
                drift,
            };
            assert!(!damage.stuck.is_empty());
            let lb = LayerBound::new(&l, &cfg, SimMode::Detailed, &damage);
            let clean = LayerBound::new(&l, &cfg, SimMode::Detailed, &Damage::default());
            let mut outside_clean = 0;
            for x in inputs(l.rows, 40, 19) {
                let got = dpe.matvec(&x).unwrap().values;
                let exact = matvec(&l, &x);
                let zero = vec![0.0; x.len()];
                assert!(within(&got, &exact, &lb.bound(&x, &zero)));
                outside_clean += usize::from(!within(&got, &exact, &clean.bound(&x, &zero)));
            }
            // The damage term is not slack: without it faults show.
            assert!(outside_clean > 0, "{}", spec.name);
        }
    }

    #[test]
    fn zeroed_and_negated_outputs_exceed_every_cap() {
        let exact = [0.3, -1.2, 0.0, 2.5];
        let zero = [0.0; 4];
        let negated: Vec<f64> = exact.iter().map(|v| -v).collect();
        assert_eq!(relative_error(&exact, &exact), 0.0);
        assert!((relative_error(&zero, &exact) - 1.0).abs() < 1e-12);
        assert!((relative_error(&negated, &exact) - 2.0).abs() < 1e-12);
        for mode in [SimMode::Analytic, SimMode::Detailed] {
            assert!(median_error_cap(mode) < 1.0);
        }
    }

    #[test]
    fn perturbed_reference_fails_the_check() {
        let spec = &standard_request_mix()[0];
        let (g, _, _) = spec.build_graph(SeedTree::new(21));
        let mlp = Mlp::from_graph(&g);
        let cfg = DpeConfig::default();
        let mb = MlpBound::new(&mlp, &cfg, SimMode::Detailed, &[]);
        let bad = perturbed(&mlp);
        let caught = inputs(spec.input_width(), 50, 23)
            .iter()
            .filter(|x| {
                let exact = mlp.eval(x);
                let wrong = bad.eval(x);
                !within(
                    exact.last().unwrap(),
                    wrong.last().unwrap(),
                    &mb.bound(x, &exact),
                )
            })
            .count();
        assert!(caught > 0);
    }
}
