//! Multi-layer perceptron with a softmax policy head — the DRL\[Jiang\]
//! baseline's network.

use crate::activation::Activation;
use crate::linear::{Linear, LinearGradients};
use rand::Rng;
use spikefolio_tensor::ops::{softmax, softmax_backward};
use spikefolio_tensor::optim::Params;

/// A dense policy network: linear layers with a pointwise activation
/// between them and a softmax on the final output, so the action always
/// lies on the probability simplex (matching the SDP decoder's output
/// space).
///
/// With a 1-wide head the same network is a value function: the DDPG
/// critic reads `Q` from the raw head output ([`MlpTrace::logits`]) and
/// backpropagates through [`Mlp::backward_logits`].
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

/// Forward trace for backprop: pre-activations and activations per layer.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpTrace {
    /// Layer inputs, `layers.len() + 1` entries; the last is the raw head
    /// output the softmax is applied to.
    inputs: Vec<Vec<f64>>,
    /// Pre-activation outputs per layer.
    pre_activations: Vec<Vec<f64>>,
    /// Softmax output.
    action: Vec<f64>,
}

impl MlpTrace {
    /// The action (softmax output) of the recorded forward pass.
    pub fn action(&self) -> &[f64] {
        &self.action
    }

    /// The raw head output the softmax was applied to (a value head's
    /// estimate).
    pub fn logits(&self) -> &[f64] {
        &self.inputs[self.inputs.len() - 1]
    }
}

/// Gradients for every layer of an [`Mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpGradients {
    /// Per-layer gradients, input-side first.
    pub layers: Vec<LinearGradients>,
}

/// Buffer order — each layer's weights then bias, input side first — is
/// the DRL checkpoint layout.
impl Params for Mlp {
    fn buffers(&self) -> impl Iterator<Item = &[f64]> {
        self.layers.iter().flat_map(|l| [l.weights.as_slice(), &l.bias[..]])
    }

    fn buffers_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        self.layers.iter_mut().flat_map(|l| [l.weights.as_mut_slice(), &mut l.bias[..]])
    }
}

/// Same buffer order as the [`Mlp`] they were computed for.
impl Params for MlpGradients {
    fn buffers(&self) -> impl Iterator<Item = &[f64]> {
        self.layers.iter().flat_map(|l| [l.d_weights.as_slice(), &l.d_bias[..]])
    }

    fn buffers_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        self.layers.iter_mut().flat_map(|l| [l.d_weights.as_mut_slice(), &mut l.d_bias[..]])
    }
}

impl Mlp {
    /// Builds an MLP with the given layer `dims` (e.g. `&[64, 128, 12]`:
    /// 64 inputs, one hidden layer of 128, 12 actions).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given or any is zero.
    pub fn new<R: Rng + ?Sized>(dims: &[usize], activation: Activation, rng: &mut R) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        assert!(dims.iter().all(|&d| d > 0), "dims must be positive");
        let layers = dims.windows(2).map(|w| Linear::new(w[0], w[1], rng)).collect();
        Self { layers, activation }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Action dimension.
    pub fn action_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Linear::num_params).sum()
    }

    /// Borrow the layers (read-only; used by the device energy models to
    /// count FLOPs).
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Forward pass with trace.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != in_dim()`.
    pub fn forward(&self, state: &[f64]) -> MlpTrace {
        let mut inputs = vec![state.to_vec()];
        let mut pre_activations = Vec::with_capacity(self.layers.len());
        let mut x = state.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            let z = layer.forward(&x);
            pre_activations.push(z.clone());
            x = if i + 1 < self.layers.len() { self.activation.apply_vec(&z) } else { z };
            inputs.push(x.clone());
        }
        let action = softmax(&x);
        MlpTrace { inputs, pre_activations, action }
    }

    /// Inference: the action vector (softmax output).
    pub fn act(&self, state: &[f64]) -> Vec<f64> {
        self.forward(state).action
    }

    /// Backward pass from `∂L/∂action` (through the softmax).
    ///
    /// # Panics
    ///
    /// Panics if `d_action.len() != action_dim()` or the trace shape is
    /// inconsistent.
    pub fn backward(&self, trace: &MlpTrace, d_action: &[f64]) -> MlpGradients {
        assert_eq!(d_action.len(), self.action_dim(), "d_action length mismatch");
        self.backward_logits(trace, &softmax_backward(&trace.action, d_action)).0
    }

    /// Backward pass from `∂L/∂logits`, the raw pre-softmax head output
    /// (a value head's gradient enters here). Returns the parameter
    /// gradients and `∂L/∂input`.
    ///
    /// # Panics
    ///
    /// Panics if `d_logits.len() != action_dim()` or the trace shape is
    /// inconsistent.
    pub fn backward_logits(&self, trace: &MlpTrace, d_logits: &[f64]) -> (MlpGradients, Vec<f64>) {
        assert_eq!(d_logits.len(), self.action_dim(), "d_logits length mismatch");
        let mut dy = d_logits.to_vec();
        let mut grads: Vec<Option<LinearGradients>> = vec![None; self.layers.len()];
        for (i, layer) in self.layers.iter().enumerate().rev() {
            // Through the activation (not applied after the last layer).
            if i + 1 < self.layers.len() {
                for (d, &z) in dy.iter_mut().zip(&trace.pre_activations[i]) {
                    *d *= self.activation.grad(z);
                }
            }
            let (g, dx) = layer.backward(&trace.inputs[i], &dy);
            grads[i] = Some(g);
            dy = dx;
        }
        let layers = grads.into_iter().map(|g| g.expect("all layers visited")).collect();
        (MlpGradients { layers }, dy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use spikefolio_tensor::optim::{self, flat_params, set_flat_params, Adam, ClippedAdam};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(8)
    }

    fn net() -> Mlp {
        Mlp::new(&[4, 6, 3], Activation::Tanh, &mut rng())
    }

    #[test]
    fn action_is_on_simplex() {
        let n = net();
        let a = n.act(&[1.0, -0.5, 0.3, 2.0]);
        assert!(spikefolio_tensor::simplex::is_on_simplex(&a, 1e-12));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let n = net();
        let state = [0.4, -0.2, 1.1, 0.7];
        let c = [1.0, -0.5, 2.0];
        let trace = n.forward(&state);
        let grads = n.backward(&trace, &c);
        let analytic = flat_params(&grads);
        let params = flat_params(&n);
        let loss = |nn: &Mlp| -> f64 { nn.act(&state).iter().zip(&c).map(|(a, b)| a * b).sum() };
        let eps = 1e-6;
        for i in 0..params.len() {
            let mut pp = params.clone();
            pp[i] += eps;
            let mut np = n.clone();
            set_flat_params(&mut np, &pp);
            let mut pm = params.clone();
            pm[i] -= eps;
            let mut nm = n.clone();
            set_flat_params(&mut nm, &pm);
            let num = (loss(&np) - loss(&nm)) / (2.0 * eps);
            assert!((analytic[i] - num).abs() < 1e-6, "param {i}: {} vs {num}", analytic[i]);
        }
    }

    #[test]
    fn relu_and_leaky_networks_also_check_out() {
        for act in [Activation::Relu, Activation::LeakyRelu, Activation::Identity] {
            let n = Mlp::new(&[3, 5, 2], act, &mut rng());
            let state = [0.9, 0.4, -0.6];
            let c = [1.5, -1.0];
            let trace = n.forward(&state);
            let grads = n.backward(&trace, &c);
            let analytic = flat_params(&grads);
            let params = flat_params(&n);
            let loss =
                |nn: &Mlp| -> f64 { nn.act(&state).iter().zip(&c).map(|(a, b)| a * b).sum() };
            let eps = 1e-6;
            // Spot-check a spread (ReLU kinks make exact checks flaky only
            // exactly at 0, which random inputs avoid almost surely).
            for i in (0..params.len()).step_by(3) {
                let mut pp = params.clone();
                pp[i] += eps;
                let mut np = n.clone();
                set_flat_params(&mut np, &pp);
                let mut pm = params.clone();
                pm[i] -= eps;
                let mut nm = n.clone();
                set_flat_params(&mut nm, &pm);
                let num = (loss(&np) - loss(&nm)) / (2.0 * eps);
                assert!((analytic[i] - num).abs() < 1e-5, "{act:?} param {i}");
            }
        }
    }

    #[test]
    fn training_moves_action_toward_target() {
        let mut n = net();
        let state = [1.0, 1.0, 1.0, 1.0];
        let before = n.act(&state)[2];
        let mut trainer = ClippedAdam::new(&n, Adam::new(1e-2), Some(10.0));
        for _ in 0..100 {
            let trace = n.forward(&state);
            let mut grads = n.backward(&trace, &[0.0, 0.0, -1.0]);
            trainer.apply(&mut n, &mut grads);
        }
        let after = n.act(&state)[2];
        assert!(after > before + 0.1, "a[2] went {before} → {after}");
    }

    #[test]
    fn accumulate_scale_roundtrip() {
        let n = net();
        let trace = n.forward(&[0.1, 0.2, 0.3, 0.4]);
        let g = n.backward(&trace, &[1.0, 0.0, -1.0]);
        let mut acc = n.backward(&trace, &[0.0, 0.0, 0.0]);
        optim::accumulate(&mut acc, &g);
        optim::accumulate(&mut acc, &g);
        optim::scale(&mut acc, 0.5);
        for (a, b) in acc.layers.iter().zip(&g.layers) {
            for (x, y) in a.d_weights.as_slice().iter().zip(b.d_weights.as_slice()) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn dims_and_depth() {
        let n = net();
        assert_eq!(n.in_dim(), 4);
        assert_eq!(n.action_dim(), 3);
        assert_eq!(n.depth(), 2);
        assert_eq!(n.num_params(), 4 * 6 + 6 + 6 * 3 + 3);
    }

    #[test]
    fn flat_param_roundtrip() {
        let n = net();
        let flat = flat_params(&n);
        let mut n2 = Mlp::new(&[4, 6, 3], Activation::Tanh, &mut rng());
        set_flat_params(&mut n2, &flat);
        assert_eq!(flat_params(&n2), flat);
    }

    #[test]
    fn parameter_layout_is_each_layer_weights_then_bias() {
        let n = Mlp::new(&[3, 5, 4, 2], Activation::Relu, &mut rng());
        let mut expected = Vec::new();
        for l in n.layers() {
            expected.extend_from_slice(l.weights.as_slice());
            expected.extend_from_slice(&l.bias);
        }
        assert_eq!(flat_params(&n), expected);
        assert_eq!(expected.len(), n.num_params());
    }

    #[test]
    fn backward_is_backward_logits_through_the_softmax() {
        let n = net();
        let trace = n.forward(&[0.3, -0.1, 0.8, 0.2]);
        let c = [0.5, -1.0, 0.25];
        let (g, _) = n.backward_logits(&trace, &softmax_backward(trace.action(), &c));
        assert_eq!(n.backward(&trace, &c), g);
        assert_eq!(softmax(trace.logits()), trace.action());
    }
}
