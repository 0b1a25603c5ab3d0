//! Spatio-temporal backpropagation (STBP) for dual-state LIF networks
//! (eqs. 11–13).
//!
//! Given the forward trace of Algorithm 1 and the loss gradient on the
//! action `∂L/∂a`, the backward pass unrolls the recurrences
//!
//! ```text
//! δo(t) = δo_ext(t) + Wᵀ_{k+1} δc(t)(k+1) − d_v·v(t)·δv(t+1)
//! δv(t) = δo(t)·z(v(t)) + δv(t+1)·d_v·(1 − o(t))
//! δc(t) = δv(t) + d_c·δc(t+1)
//! ∇W    = Σ_t δc(t) ⊗ o_in(t),   ∇b = Σ_t δc(t)        (eq. 13)
//! ```
//!
//! where `z(·)` is the pseudo-gradient of eq. (11). The same code path is
//! exact (no surrogate) when the network uses the soft spike relaxation,
//! which is how the recurrences are validated against finite differences.

use crate::batch::{BatchNetworkTrace, BatchWorkspace};
use crate::decoder::DecoderTrace;
use crate::network::SdpNetwork;
use spikefolio_telemetry::labels::SPAN_PROFILE_SNN_STBP;
use spikefolio_telemetry::{Recorder, Stopwatch};
use spikefolio_tensor::optim::Params;
use spikefolio_tensor::{gemm, sparse, vector, Matrix};

pub use spikefolio_tensor::optim::{flat_params, set_flat_params};

/// Gradients of one LIF layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGradients {
    /// `∂L/∂W`.
    pub d_weights: Matrix,
    /// `∂L/∂b`.
    pub d_bias: Vec<f64>,
}

/// Gradients of every trainable parameter of an [`SdpNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub struct SdpGradients {
    /// Per-LIF-layer gradients, input-side first.
    pub layers: Vec<LayerGradients>,
    /// Decoder rate-weight gradients (eq. 12).
    pub d_decoder_weights: Vec<f64>,
    /// Decoder bias gradients (eq. 12).
    pub d_decoder_bias: Vec<f64>,
}

impl SdpGradients {
    /// Zero gradients shaped like `net`.
    pub fn zeros_like(net: &SdpNetwork) -> Self {
        Self {
            layers: net
                .layers
                .iter()
                .map(|l| LayerGradients {
                    d_weights: Matrix::zeros(l.out_dim(), l.in_dim()),
                    d_bias: vec![0.0; l.out_dim()],
                })
                .collect(),
            d_decoder_weights: vec![0.0; net.decoder.weights.len()],
            d_decoder_bias: vec![0.0; net.decoder.bias.len()],
        }
    }
}

/// The STBP backward pass over a [`BatchNetworkTrace`] produced by
/// [`SdpNetwork::forward_batch`] and the per-sample loss gradients
/// `d_actions` (`B × action_dim`, one row per sample).
///
/// Each row of `d_actions` is `∂L/∂a` — for the eq. (1) reward maximized
/// by gradient *ascent*, pass the negated reward gradient to perform
/// descent on the loss. Returns the gradients **summed** over the batch — scale by
/// `1/B` afterwards for the batch mean.
///
/// `rate_penalty` adds a **spike-rate penalty** on the hidden layers: the
/// loss gains `λ · mean hidden firing rate`, whose gradient adds
/// `λ / (T · N_hidden)` to every hidden spike. Spike-rate regularization
/// is the standard lever for trading backtest quality against on-chip
/// energy (fewer spikes → fewer synops → less dynamic energy on Loihi);
/// the rate-penalty ablation sweeps `λ`.
///
/// The reverse-time `δo/δv/δc` recurrences are evaluated elementwise per
/// sample; the weight gradient is then formed in one pass per layer,
/// `∇W += Σ_{t,b} δc(t,b)ᵀ · o_in(t,b)`, whose `(t, b)` summation order
/// is the only floating-point difference between one batch of `n` and the
/// sum of `n` batches of one (≈1e-14 relative).
///
/// The whole pass is timed as one [`SPAN_PROFILE_SNN_STBP`] span on `rec`
/// (observe-only; a disabled recorder never reads the clock).
///
/// # Example
///
/// One training step through the shared clipped-Adam trainer:
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use spikefolio_snn::network::{SdpNetwork, SdpNetworkConfig};
/// use spikefolio_snn::stbp;
/// use spikefolio_snn::{BatchNetworkTrace, BatchWorkspace};
/// use spikefolio_telemetry::NoopRecorder;
/// use spikefolio_tensor::optim::{Adam, ClippedAdam};
/// use spikefolio_tensor::Matrix;
///
/// let mut net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut StdRng::seed_from_u64(2));
/// let mut trainer = ClippedAdam::new(&net, Adam::new(1e-3), Some(10.0));
/// // A minibatch of two states, each encoded with its own RNG.
/// let states = Matrix::from_rows(&[&[1.0, 0.9, 1.1, 1.0], &[0.95, 1.0, 1.05, 1.1]]);
/// let mut rngs = [StdRng::seed_from_u64(10), StdRng::seed_from_u64(11)];
/// let mut ws = BatchWorkspace::new(&net, 2);
/// let mut trace = BatchNetworkTrace::new(&net, 2);
/// net.forward_batch(&states, &mut rngs, &mut ws, &mut trace, &mut NoopRecorder);
/// // Descend on L = -Σ_b a_b[0] (make action 0 more likely).
/// let d_actions = Matrix::from_fn(2, 3, |_, a| if a == 0 { -1.0 } else { 0.0 });
/// let mut grads =
///     stbp::backward_batch(&net, &trace, &d_actions, 0.0, &mut ws, &mut NoopRecorder);
/// let before = stbp::flat_params(&net);
/// trainer.apply(&mut net, &mut grads);
/// assert_ne!(stbp::flat_params(&net), before);
/// ```
///
/// # Panics
///
/// Panics if the trace, workspace, and `d_actions` shapes disagree with the
/// network, or if `rate_penalty < 0`.
pub fn backward_batch(
    net: &SdpNetwork,
    trace: &BatchNetworkTrace,
    d_actions: &Matrix,
    rate_penalty: f64,
    ws: &mut BatchWorkspace,
    rec: &mut dyn Recorder,
) -> SdpGradients {
    let watch = Stopwatch::start(rec);
    let bsz = trace.batch();
    let t_max = net.config().timesteps;
    assert_eq!(trace.layers.len(), net.depth(), "trace depth mismatch");
    assert_eq!(trace.timesteps(), t_max, "trace timestep mismatch");
    assert_eq!(ws.batch, bsz, "workspace batch mismatch");
    assert_eq!(
        d_actions.shape(),
        (bsz, net.config().action_dim),
        "d_actions must be batch x action_dim"
    );
    assert!(rate_penalty >= 0.0, "rate penalty must be non-negative");
    let n_hidden: usize = net.layers[..net.depth() - 1].iter().map(|l| l.out_dim()).sum();
    let rate_grad = if n_hidden > 0 && rate_penalty > 0.0 {
        rate_penalty / (t_max as f64 * n_hidden as f64)
    } else {
        0.0
    };

    let mut grads = SdpGradients::zeros_like(net);
    let dense = ws.dense;

    // Decoder backward per sample (b ascending); the time-constant spike
    // gradient seeds the last layer's upstream-gradient stack for every
    // timestep.
    let depth = net.depth();
    for b in 0..bsz {
        let dt = DecoderTrace {
            firing_rates: trace.firing_rates.row(b).to_vec(),
            action: trace.actions.row(b).to_vec(),
        };
        let dg = net.decoder.backward(&dt, d_actions.row(b));
        vector::axpy(&mut grads.d_decoder_weights, 1.0, &dg.d_weights);
        vector::axpy(&mut grads.d_decoder_bias, 1.0, &dg.d_bias);
        let last = &mut ws.layers[depth - 1];
        for t in 0..t_max {
            last.d_ext.row_mut(t * bsz + b).copy_from_slice(&dg.d_spikes_per_step);
        }
    }

    for (k, layer) in net.layers.iter().enumerate().rev() {
        let lt = &trace.layers[k];
        let out_dim = layer.out_dim();
        let in_dim = layer.in_dim();
        let p = &layer.params;
        let hidden_rate = k + 1 < net.layers.len() && rate_grad > 0.0;

        let (lower, rest) = ws.layers.split_at_mut(k);
        let lb = &mut rest[0];
        lb.dv_next.fill_zero();
        lb.db_next.fill_zero();

        for t in (0..t_max).rev() {
            // Split the δc stack so row block t (written now) and row block
            // t+1 (the δc(t+1) carry) can be borrowed together.
            let split = (t + 1) * bsz * out_dim;
            let (head, tail) = lb.dc_stack.as_mut_slice().split_at_mut(split);
            let cur_rows = &mut head[t * bsz * out_dim..];
            for b in 0..bsz {
                let r = t * bsz + b;
                let v_t = lt.voltages.row(r);
                let o_t = lt.outputs.row(r);
                let th_t = lt.thresholds.row(r);
                let ext = lb.d_ext.row(r);
                let dv_next = lb.dv_next.row(b);
                let db_next = lb.db_next.row(b);
                let d_o = lb.d_o.row_mut(b);
                let d_v = lb.d_v.row_mut(b);
                let d_b = lb.d_b.row_mut(b);
                let d_c = &mut cur_rows[b * out_dim..(b + 1) * out_dim];
                let dc_next =
                    if t + 1 < t_max { Some(&tail[b * out_dim..(b + 1) * out_dim]) } else { None };
                for i in 0..out_dim {
                    // δo(t): external + reset path (+ rate penalty on
                    // hidden layers, + adaptation chain).
                    let mut doi = ext[i];
                    if hidden_rate {
                        doi += rate_grad;
                    }
                    doi -= p.d_v * v_t[i] * dv_next[i];
                    if let Some(ad) = layer.adaptation {
                        doi += (1.0 - ad.rho) * db_next[i];
                    }
                    d_o[i] = doi;
                    let z = layer.spike_fn.grad(v_t[i], th_t[i]);
                    d_v[i] = doi * z + dv_next[i] * p.d_v * (1.0 - o_t[i]);
                    if let Some(ad) = layer.adaptation {
                        d_b[i] = -ad.beta * doi * z + ad.rho * db_next[i];
                    }
                    let dcn = dc_next.map_or(0.0, |row| row[i]);
                    d_c[i] = d_v[i] + p.d_c * dcn;
                }
            }
            // Gradient on this timestep's inputs → previous layer's
            // upstream stack (one B×out · out×in GEMM). Layer 0's input
            // gradient has no consumer and is skipped.
            if k > 0 {
                let dc_block = &head[t * bsz * out_dim..];
                let dst = &mut lower[k - 1].d_ext.as_mut_slice()
                    [t * bsz * in_dim..(t + 1) * bsz * in_dim];
                gemm::gemm_nn(dc_block, layer.weights.as_slice(), dst, bsz, out_dim, in_dim);
            }
            std::mem::swap(&mut lb.d_v, &mut lb.dv_next);
            std::mem::swap(&mut lb.d_b, &mut lb.db_next);
        }

        // Parameter gradients (eq. 13) over the whole stack:
        // ∇W += Σ_{t,b} δc ⊗ o_in, ∇b = column sums of the δc stack. The
        // event-driven kernel restricts each rank-1 update to the active
        // input-spike columns of that row — bitwise identical to the dense
        // reference (skipped zero addends cannot flip accumulator bits;
        // see `spikefolio_tensor::sparse`).
        let (inputs, input_set): (&[f64], &sparse::SpikeSet) = if k == 0 {
            (trace.encoder.as_slice(), &trace.encoder_set)
        } else {
            (trace.layers[k - 1].outputs.as_slice(), &trace.layers[k - 1].output_set)
        };
        if dense {
            gemm::gemm_tn_acc(
                1.0,
                lb.dc_stack.as_slice(),
                inputs,
                grads.layers[k].d_weights.as_mut_slice(),
                t_max * bsz,
                out_dim,
                in_dim,
            );
        } else {
            sparse::spike_outer_acc(
                1.0,
                lb.dc_stack.as_slice(),
                inputs,
                input_set,
                grads.layers[k].d_weights.as_mut_slice(),
                t_max * bsz,
                out_dim,
                in_dim,
            );
        }
        for r in 0..t_max * bsz {
            vector::axpy(&mut grads.layers[k].d_bias, 1.0, lb.dc_stack.row(r));
        }
    }
    watch.stop(rec, SPAN_PROFILE_SNN_STBP);
    grads
}

/// Buffer order — each LIF layer's weights then bias, input side first,
/// then the decoder weights and bias — is the SDP checkpoint layout.
impl Params for SdpNetwork {
    fn buffers(&self) -> impl Iterator<Item = &[f64]> {
        let decoder = [&self.decoder.weights[..], &self.decoder.bias[..]];
        self.layers.iter().flat_map(|l| [l.weights.as_slice(), &l.bias[..]]).chain(decoder)
    }

    /// Resets the cached `Wᵀ`: every weight write (optimizer step,
    /// `set_flat_params`, checkpoint load, rollback, fault injection)
    /// passes through here, so the next forward pass transposes the new
    /// weights.
    fn buffers_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        self.wt.reset();
        let decoder = [&mut self.decoder.weights[..], &mut self.decoder.bias[..]];
        self.layers
            .iter_mut()
            .flat_map(|l| [l.weights.as_mut_slice(), &mut l.bias[..]])
            .chain(decoder)
    }
}

/// Same buffer order as the [`SdpNetwork`] they were computed for.
impl Params for SdpGradients {
    fn buffers(&self) -> impl Iterator<Item = &[f64]> {
        let decoder = [&self.d_decoder_weights[..], &self.d_decoder_bias[..]];
        self.layers.iter().flat_map(|l| [l.d_weights.as_slice(), &l.d_bias[..]]).chain(decoder)
    }

    fn buffers_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let decoder = [&mut self.d_decoder_weights[..], &mut self.d_decoder_bias[..]];
        self.layers
            .iter_mut()
            .flat_map(|l| [l.d_weights.as_mut_slice(), &mut l.d_bias[..]])
            .chain(decoder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{SdpNetwork, SdpNetworkConfig};
    use crate::neuron::SpikeFn;
    use rand::SeedableRng;
    use spikefolio_telemetry::NoopRecorder;
    use spikefolio_tensor::optim::{self, Adam, ClippedAdam};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(123)
    }

    /// A small *soft-spike* network: fully differentiable, so finite
    /// differences must match the backward pass exactly.
    fn soft_net() -> SdpNetwork {
        let mut cfg = SdpNetworkConfig::small(3, 2);
        cfg.hidden = vec![6];
        cfg.pop_out = 2;
        cfg.timesteps = 4;
        cfg.encoder.pop_size = 3;
        cfg.spike_fn = SpikeFn::Soft { temperature: 0.4 };
        SdpNetwork::new(cfg, &mut rng())
    }

    /// Batch-of-one forward pass of `state` and its STBP gradients for
    /// `∂L/∂a = d_action`.
    fn backward_one(
        net: &SdpNetwork,
        state: &[f64],
        d_action: &[f64],
        rate_penalty: f64,
    ) -> SdpGradients {
        let mut ws = BatchWorkspace::new(net, 1);
        let mut trace = BatchNetworkTrace::new(net, 1);
        let states = Matrix::from_rows(&[state]);
        net.forward_batch(&states, &mut [rng()], &mut ws, &mut trace, &mut NoopRecorder);
        let d_actions = Matrix::from_rows(&[d_action]);
        backward_batch(net, &trace, &d_actions, rate_penalty, &mut ws, &mut NoopRecorder)
    }

    fn loss(net: &SdpNetwork, state: &[f64], c: &[f64]) -> f64 {
        let a = net.act(state, &mut rng());
        a.iter().zip(c).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn soft_network_gradients_match_finite_differences() {
        let net = soft_net();
        let state = [0.9, 1.05, 1.2];
        let c = [1.0, -1.5]; // arbitrary linear loss on the action
        let grads = backward_one(&net, &state, &c, 0.0);
        let analytic = flat_params(&grads);
        let params = flat_params(&net);
        assert_eq!(analytic.len(), params.len());

        let eps = 1e-5;
        let mut max_err: f64 = 0.0;
        let mut checked = 0;
        // Check a deterministic spread of parameters (every 7th) to keep the
        // test fast while covering all layers and the decoder.
        for i in (0..params.len()).step_by(7).chain(params.len().saturating_sub(4)..params.len()) {
            let mut pp = params.clone();
            pp[i] += eps;
            let mut netp = net.clone();
            set_flat_params(&mut netp, &pp);
            let lp = loss(&netp, &state, &c);

            let mut pm = params.clone();
            pm[i] -= eps;
            let mut netm = net.clone();
            set_flat_params(&mut netm, &pm);
            let lm = loss(&netm, &state, &c);

            let num = (lp - lm) / (2.0 * eps);
            let err = (analytic[i] - num).abs() / (1.0 + num.abs());
            max_err = max_err.max(err);
            checked += 1;
            assert!(err < 1e-4, "param {i}: analytic {} vs numeric {num}", analytic[i]);
        }
        assert!(checked >= 15, "checked too few parameters: {checked}");
        assert!(max_err < 1e-4, "max relative error {max_err}");
    }

    #[test]
    fn hard_network_produces_finite_gradients() {
        let mut cfg = SdpNetworkConfig::small(3, 2);
        cfg.timesteps = 5;
        let net = SdpNetwork::new(cfg, &mut rng());
        let grads = backward_one(&net, &[1.0, 0.9, 1.1], &[1.0, -1.0], 0.0);
        assert!(flat_params(&grads).iter().all(|g| g.is_finite()));
    }

    #[test]
    fn gradient_descent_on_action_component_increases_it() {
        // Descend on L = -a[0]; after a few steps a[0] must grow.
        let mut net = soft_net();
        let state = [1.0, 1.0, 1.0];
        let before = net.act(&state, &mut rng())[0];
        let mut trainer = ClippedAdam::new(&net, Adam::new(5e-3), Some(10.0));
        for _ in 0..50 {
            let mut grads = backward_one(&net, &state, &[-1.0, 0.0], 0.0);
            trainer.apply(&mut net, &mut grads);
        }
        let after = net.act(&state, &mut rng())[0];
        assert!(after > before + 0.05, "a[0] went {before} → {after}");
    }

    #[test]
    fn hard_spike_training_also_moves_action() {
        // The surrogate gradient must be able to steer the hard network too.
        let mut cfg = SdpNetworkConfig::small(3, 2);
        cfg.timesteps = 5;
        let mut net = SdpNetwork::new(cfg, &mut rng());
        let state = [1.0, 1.0, 1.0];
        let before = net.act(&state, &mut rng())[1];
        let mut trainer = ClippedAdam::new(&net, Adam::new(1e-2), Some(10.0));
        for _ in 0..100 {
            let mut grads = backward_one(&net, &state, &[0.0, -1.0], 0.0);
            trainer.apply(&mut net, &mut grads);
        }
        let after = net.act(&state, &mut rng())[1];
        assert!(after > before, "a[1] went {before} → {after}");
    }

    #[test]
    fn gradients_accumulate_and_scale() {
        let net = soft_net();
        let g1 = backward_one(&net, &[1.0, 1.0, 1.0], &[1.0, 0.0], 0.0);
        let mut acc = SdpGradients::zeros_like(&net);
        optim::accumulate(&mut acc, &g1);
        optim::accumulate(&mut acc, &g1);
        optim::scale(&mut acc, 0.5);
        let a = flat_params(&acc);
        let b = flat_params(&g1);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn clip_bounds_the_global_norm() {
        let mut net = soft_net();
        let state = [1.0, 1.0, 1.0];
        let mut trainer = ClippedAdam::new(&net, Adam::new(1e-3), Some(1.0));
        let mut g = backward_one(&net, &state, &[100.0, -100.0], 0.0);
        assert!(optim::global_norm(&g) > 1.0, "the test gradient must need clipping");
        trainer.apply(&mut net.clone(), &mut g);
        assert!(optim::global_norm(&g) <= 1.0 + 1e-9);
        // Clipping an already-small gradient is a bitwise no-op.
        let small = backward_one(&net, &state, &[1e-8, -1e-8], 0.0);
        let mut g = small.clone();
        trainer.apply(&mut net, &mut g);
        assert_eq!(g, small);
    }

    #[test]
    fn parameter_layout_is_each_layer_weights_then_bias_then_decoder() {
        let net = soft_net();
        let mut expected = Vec::new();
        for l in &net.layers {
            expected.extend_from_slice(l.weights.as_slice());
            expected.extend_from_slice(&l.bias);
        }
        expected.extend_from_slice(&net.decoder.weights);
        expected.extend_from_slice(&net.decoder.bias);
        assert_eq!(flat_params(&net), expected);
        assert_eq!(expected.len(), net.num_params());
    }

    #[test]
    fn adaptive_threshold_gradients_match_finite_differences() {
        // ALIF adds the b(t)/th(t) recurrence to the backward pass; with
        // soft spikes the whole thing stays exactly differentiable.
        let mut cfg = SdpNetworkConfig::small(3, 2);
        cfg.hidden = vec![5];
        cfg.pop_out = 2;
        cfg.timesteps = 5;
        cfg.encoder.pop_size = 3;
        cfg.spike_fn = SpikeFn::Soft { temperature: 0.4 };
        cfg.adaptation = Some(crate::neuron::AdaptiveParams { beta: 0.5, rho: 0.8 });
        let net = SdpNetwork::new(cfg, &mut rng());
        assert!(net.layers[0].adaptation.is_some(), "hidden layer adapts");
        assert!(net.layers[1].adaptation.is_none(), "output layer stays plain");

        let state = [0.9, 1.1, 1.0];
        let c = [1.0, -2.0];
        let grads = backward_one(&net, &state, &c, 0.0);
        let analytic = flat_params(&grads);
        let params = flat_params(&net);
        let eps = 1e-5;
        for i in (0..params.len()).step_by(5) {
            let mut pp = params.clone();
            pp[i] += eps;
            let mut np = net.clone();
            set_flat_params(&mut np, &pp);
            let mut pm = params.clone();
            pm[i] -= eps;
            let mut nm = net.clone();
            set_flat_params(&mut nm, &pm);
            let num = (loss(&np, &state, &c) - loss(&nm, &state, &c)) / (2.0 * eps);
            let err = (analytic[i] - num).abs() / (1.0 + num.abs());
            assert!(err < 1e-4, "ALIF param {i}: analytic {} vs numeric {num}", analytic[i]);
        }
    }

    #[test]
    fn adaptation_suppresses_sustained_firing() {
        // Under constant strong drive, an ALIF neuron must fire less than a
        // plain LIF neuron with the identical drive.
        use crate::layer::tests::drive_one_neuron;
        use crate::neuron::AdaptiveParams;
        let spikes = |adaptation: Option<AdaptiveParams>| -> f64 {
            let tr = drive_one_neuron(
                |c| {
                    c.timesteps = 30;
                    c.adaptation = adaptation;
                },
                1.0,
            );
            tr.layers[0].outputs.as_slice().iter().sum()
        };
        let plain = spikes(None);
        let alif = spikes(Some(AdaptiveParams { beta: 2.0, rho: 0.9 }));
        assert!(alif < plain, "ALIF fired {alif} vs plain {plain}");
    }

    #[test]
    fn rate_penalty_gradient_matches_finite_difference() {
        // With soft spikes the rate penalty is exactly differentiable:
        // L = c·a + λ · mean hidden "spike".
        let net = soft_net();
        let state = [0.95, 1.05, 1.1];
        let c = [0.5, -0.5];
        let lambda = 0.7;
        let grads = backward_one(&net, &state, &c, lambda);
        let analytic = flat_params(&grads);
        let params = flat_params(&net);

        let loss = |n: &SdpNetwork| -> f64 {
            let tr = n.forward_one(&state, &mut rng());
            let base: f64 = tr.action(0).iter().zip(&c).map(|(x, y)| x * y).sum();
            // Hidden layers are all but the last.
            let hidden = &tr.layers[..n.depth() - 1];
            let t = n.config().timesteps as f64;
            let n_hidden: usize = n.layers[..n.depth() - 1].iter().map(|l| l.out_dim()).sum();
            let total: f64 = hidden.iter().flat_map(|lt| lt.outputs.as_slice()).sum();
            base + lambda * total / (t * n_hidden as f64)
        };
        let eps = 1e-5;
        for i in (0..params.len()).step_by(9) {
            let mut pp = params.clone();
            pp[i] += eps;
            let mut np = net.clone();
            set_flat_params(&mut np, &pp);
            let mut pm = params.clone();
            pm[i] -= eps;
            let mut nm = net.clone();
            set_flat_params(&mut nm, &pm);
            let num = (loss(&np) - loss(&nm)) / (2.0 * eps);
            let err = (analytic[i] - num).abs() / (1.0 + num.abs());
            assert!(err < 1e-4, "param {i}: analytic {} vs numeric {num}", analytic[i]);
        }
    }

    #[test]
    fn rate_penalty_training_reduces_spiking() {
        // Train two identical nets on the same push; the penalized one must
        // end with fewer hidden spikes.
        let state = [1.0, 1.0, 1.0];
        let d_action = [-1.0, 0.0];
        let spikes_after = |lambda: f64| -> u64 {
            let mut cfg = SdpNetworkConfig::small(3, 2);
            cfg.timesteps = 5;
            let mut net = SdpNetwork::new(cfg, &mut rng());
            let mut trainer = ClippedAdam::new(&net, Adam::new(5e-3), Some(10.0));
            for _ in 0..80 {
                let mut grads = backward_one(&net, &state, &d_action, lambda);
                trainer.apply(&mut net, &mut grads);
            }
            let (_, stats) = net.act_with_stats(&state, &mut rng());
            stats.neuron_spikes
        };
        let plain = spikes_after(0.0);
        let penalized = spikes_after(5.0);
        assert!(
            penalized <= plain,
            "rate penalty should not increase spiking: {penalized} vs {plain}"
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_penalty_rejected() {
        let net = soft_net();
        let _ = backward_one(&net, &[1.0, 1.0, 1.0], &[0.0, 0.0], -1.0);
    }

    #[test]
    fn batched_backward_sparse_matches_dense_bitwise() {
        let mut cfg = SdpNetworkConfig::small(4, 3);
        cfg.timesteps = 5;
        let net = SdpNetwork::new(cfg, &mut rng());
        let bsz = 4;
        let states = Matrix::from_fn(bsz, 4, |b, d| 0.85 + 0.04 * ((b * 4 + d) % 7) as f64);
        let mut ws = BatchWorkspace::new(&net, bsz);
        let mut dense_ws = BatchWorkspace::dense_reference(&net, bsz);
        let mut trace = BatchNetworkTrace::new(&net, bsz);
        let mut rngs: Vec<rand::rngs::StdRng> =
            (0..bsz).map(|b| rand::rngs::StdRng::seed_from_u64(40 + b as u64)).collect();
        net.forward_batch(&states, &mut rngs, &mut ws, &mut trace, &mut NoopRecorder);
        let d_actions = Matrix::from_fn(bsz, 3, |b, a| if a == b % 3 { -1.0 } else { 0.5 });
        let dense = backward_batch(&net, &trace, &d_actions, 0.3, &mut dense_ws, &mut NoopRecorder);
        let sparse = backward_batch(&net, &trace, &d_actions, 0.3, &mut ws, &mut NoopRecorder);
        // The event-driven weight gradient is bitwise identical: per output
        // element there is one contribution per stack row, so there is no
        // reduction to reorder.
        assert_eq!(flat_params(&sparse), flat_params(&dense));
    }

    #[test]
    fn flat_round_trip_preserves_network() {
        let net = soft_net();
        let flat = flat_params(&net);
        let mut net2 = soft_net();
        set_flat_params(&mut net2, &flat);
        assert_eq!(flat_params(&net2), flat);
        let a1 = net.act(&[1.0, 1.0, 1.0], &mut rng());
        let a2 = net2.act(&[1.0, 1.0, 1.0], &mut rng());
        assert_eq!(a1, a2);
    }
}
