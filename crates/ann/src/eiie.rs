//! EIIE: the *Ensemble of Identical Independent Evaluators* policy of
//! Jiang, Xu & Liang (2017) — the reference DRL\[Jiang\] architecture.
//!
//! Each asset's price window is scored by the **same** small convolutional
//! network (weight sharing across assets), the previous portfolio weight is
//! appended before the final scoring layer, and a learned cash bias joins
//! the softmax:
//!
//! ```text
//! per asset:   (channels × window) ──conv1+ReLU──► (c1 × window−k+1)
//!              ──conv2+ReLU──► (c2 × 1) ──[⊕ prev weight]──► score
//! portfolio:   softmax(cash_bias, score_1, …, score_m)
//! ```

use crate::conv::{Conv1d, Conv1dGradients};
use rand::Rng;
use spikefolio_tensor::ops::{softmax, softmax_backward};
use spikefolio_tensor::optim::Params;
use spikefolio_tensor::{vector, Matrix};

/// Shape of an EIIE network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EiieConfig {
    /// Price channels per asset (3 without, 4 with the open price).
    pub channels: usize,
    /// Observation window length.
    pub window: usize,
    /// First convolution's output channels (Jiang uses 2).
    pub conv1_channels: usize,
    /// First convolution's kernel width (Jiang uses 3).
    pub conv1_kernel: usize,
    /// Second convolution's output channels (Jiang uses 20).
    pub conv2_channels: usize,
}

impl EiieConfig {
    /// Jiang's published EIIE hyperparameters for a given input shape.
    pub fn jiang(channels: usize, window: usize) -> Self {
        Self {
            channels,
            window,
            conv1_channels: 2,
            conv1_kernel: 3.min(window),
            conv2_channels: 20,
        }
    }

    /// Validates the shape.
    ///
    /// # Errors
    ///
    /// Returns a message if any dimension is zero or the kernel exceeds
    /// the window.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.window == 0 {
            return Err("channels and window must be positive".into());
        }
        if self.conv1_channels == 0 || self.conv2_channels == 0 || self.conv1_kernel == 0 {
            return Err("conv dims must be positive".into());
        }
        if self.conv1_kernel > self.window {
            return Err(format!(
                "conv1 kernel {} exceeds window {}",
                self.conv1_kernel, self.window
            ));
        }
        Ok(())
    }
}

/// The EIIE policy network. See the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct Eiie {
    config: EiieConfig,
    conv1: Conv1d,
    conv2: Conv1d,
    /// Final scoring weights over `[z2(c2); prev_weight]`.
    head: Vec<f64>,
    head_bias: f64,
    cash_bias: f64,
}

/// Per-asset forward intermediates.
#[derive(Debug, Clone, PartialEq)]
struct AssetTrace {
    input: Matrix,
    pre1: Matrix,
    act1: Matrix,
    pre2: Matrix,
    z2: Vec<f64>,
    prev_weight: f64,
}

/// Forward trace of an EIIE evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EiieTrace {
    assets: Vec<AssetTrace>,
    action: Vec<f64>,
}

impl EiieTrace {
    /// The softmax action (cash first).
    pub fn action(&self) -> &[f64] {
        &self.action
    }
}

/// Gradients of every EIIE parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct EiieGradients {
    /// Shared first-convolution gradients (summed across assets).
    pub conv1: Conv1dGradients,
    /// Shared second-convolution gradients.
    pub conv2: Conv1dGradients,
    /// Scoring-head gradients.
    pub d_head: Vec<f64>,
    /// Scoring-head bias gradient.
    pub d_head_bias: f64,
    /// Cash-bias gradient.
    pub d_cash_bias: f64,
}

/// Buffer order — conv1 weights and bias, conv2 weights and bias, the
/// scoring head, its bias, then the cash bias — is the EIIE flat layout.
impl Params for Eiie {
    fn buffers(&self) -> impl Iterator<Item = &[f64]> {
        [
            self.conv1.weights.as_slice(),
            &self.conv1.bias,
            self.conv2.weights.as_slice(),
            &self.conv2.bias,
            &self.head,
            std::slice::from_ref(&self.head_bias),
            std::slice::from_ref(&self.cash_bias),
        ]
        .into_iter()
    }

    fn buffers_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        [
            self.conv1.weights.as_mut_slice(),
            &mut self.conv1.bias,
            self.conv2.weights.as_mut_slice(),
            &mut self.conv2.bias,
            &mut self.head,
            std::slice::from_mut(&mut self.head_bias),
            std::slice::from_mut(&mut self.cash_bias),
        ]
        .into_iter()
    }
}

/// Same buffer order as the [`Eiie`] they were computed for.
impl Params for EiieGradients {
    fn buffers(&self) -> impl Iterator<Item = &[f64]> {
        [
            self.conv1.d_weights.as_slice(),
            &self.conv1.d_bias,
            self.conv2.d_weights.as_slice(),
            &self.conv2.d_bias,
            &self.d_head,
            std::slice::from_ref(&self.d_head_bias),
            std::slice::from_ref(&self.d_cash_bias),
        ]
        .into_iter()
    }

    fn buffers_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        [
            self.conv1.d_weights.as_mut_slice(),
            &mut self.conv1.d_bias,
            self.conv2.d_weights.as_mut_slice(),
            &mut self.conv2.d_bias,
            &mut self.d_head,
            std::slice::from_mut(&mut self.d_head_bias),
            std::slice::from_mut(&mut self.d_cash_bias),
        ]
        .into_iter()
    }
}

fn relu(m: &Matrix) -> Matrix {
    m.map(|x| x.max(0.0))
}

impl Eiie {
    /// Builds an EIIE network.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new<R: Rng + ?Sized>(config: EiieConfig, rng: &mut R) -> Self {
        config.validate().expect("invalid EIIE configuration");
        let conv1 = Conv1d::new(config.channels, config.conv1_channels, config.conv1_kernel, rng);
        let len1 = config.window - config.conv1_kernel + 1;
        let conv2 = Conv1d::new(config.conv1_channels, config.conv2_channels, len1, rng);
        let head: Vec<f64> =
            (0..config.conv2_channels + 1).map(|_| rng.gen_range(-0.1..0.1)).collect();
        Self { config, conv1, conv2, head, head_bias: 0.0, cash_bias: 0.0 }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &EiieConfig {
        &self.config
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.conv1.num_params() + self.conv2.num_params() + self.head.len() + 2
    }

    /// Score one asset; returns the trace.
    fn eval_asset(&self, input: Matrix, prev_weight: f64) -> (f64, AssetTrace) {
        let pre1 = self.conv1.forward(&input);
        let act1 = relu(&pre1);
        let pre2 = self.conv2.forward(&act1);
        let z2: Vec<f64> = pre2.as_slice().iter().map(|&x| x.max(0.0)).collect();
        let mut score = self.head_bias + self.head[self.head.len() - 1] * prev_weight;
        for (w, z) in self.head.iter().zip(&z2) {
            score += w * z;
        }
        (score, AssetTrace { input, pre1, act1, pre2, z2, prev_weight })
    }

    /// Forward pass.
    ///
    /// `assets[a]` is the `channels × window` price window of asset `a`;
    /// `prev_weights` is the previous portfolio vector (cash first,
    /// `assets.len() + 1` long).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward(&self, assets: &[Matrix], prev_weights: &[f64]) -> EiieTrace {
        assert!(!assets.is_empty(), "need at least one asset");
        assert_eq!(prev_weights.len(), assets.len() + 1, "prev_weights length mismatch");
        let mut scores = Vec::with_capacity(assets.len() + 1);
        scores.push(self.cash_bias);
        let mut traces = Vec::with_capacity(assets.len());
        for (a, input) in assets.iter().enumerate() {
            assert_eq!(
                input.shape(),
                (self.config.channels, self.config.window),
                "asset {a} window shape mismatch"
            );
            let (score, tr) = self.eval_asset(input.clone(), prev_weights[a + 1]);
            scores.push(score);
            traces.push(tr);
        }
        EiieTrace { assets: traces, action: softmax(&scores) }
    }

    /// Inference only.
    pub fn act(&self, assets: &[Matrix], prev_weights: &[f64]) -> Vec<f64> {
        self.forward(assets, prev_weights).action
    }

    /// Backward pass from `∂L/∂action`.
    ///
    /// # Panics
    ///
    /// Panics if `d_action.len() != trace.action.len()`.
    pub fn backward(&self, trace: &EiieTrace, d_action: &[f64]) -> EiieGradients {
        let dz = softmax_backward(&trace.action, d_action);
        let c2 = self.config.conv2_channels;
        let mut grads = EiieGradients {
            conv1: Conv1dGradients {
                d_weights: Matrix::zeros(self.conv1.out_channels(), self.conv1.weights.cols()),
                d_bias: vec![0.0; self.conv1.out_channels()],
            },
            conv2: Conv1dGradients {
                d_weights: Matrix::zeros(self.conv2.out_channels(), self.conv2.weights.cols()),
                d_bias: vec![0.0; self.conv2.out_channels()],
            },
            d_head: vec![0.0; self.head.len()],
            d_head_bias: 0.0,
            d_cash_bias: dz[0],
        };
        for (a, at) in trace.assets.iter().enumerate() {
            let ds = dz[a + 1];
            if ds == 0.0 {
                continue;
            }
            grads.d_head_bias += ds;
            for (g, z) in grads.d_head.iter_mut().zip(&at.z2) {
                *g += ds * z;
            }
            grads.d_head[c2] += ds * at.prev_weight;
            // Back through the z2 ReLU into conv2.
            let mut d_pre2 = Matrix::zeros(at.pre2.rows(), at.pre2.cols());
            for (i, (&z, g)) in
                at.pre2.as_slice().iter().zip(d_pre2.as_mut_slice().iter_mut()).enumerate()
            {
                if z > 0.0 {
                    *g = ds * self.head[i];
                }
            }
            let (g2, d_act1) = self.conv2.backward(&at.act1, &d_pre2);
            grads.conv2.d_weights.add_scaled(1.0, &g2.d_weights);
            vector::axpy(&mut grads.conv2.d_bias, 1.0, &g2.d_bias);
            // Back through the first ReLU into conv1.
            let mut d_pre1 = d_act1;
            for (g, &z) in d_pre1.as_mut_slice().iter_mut().zip(at.pre1.as_slice()) {
                if z <= 0.0 {
                    *g = 0.0;
                }
            }
            let (g1, _) = self.conv1.backward(&at.input, &d_pre1);
            grads.conv1.d_weights.add_scaled(1.0, &g1.d_weights);
            vector::axpy(&mut grads.conv1.d_bias, 1.0, &g1.d_bias);
        }
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use spikefolio_tensor::optim::{flat_params, set_flat_params, Adam, ClippedAdam};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    fn windows(m: usize, cfg: &EiieConfig, scale: f64) -> Vec<Matrix> {
        (0..m)
            .map(|a| {
                Matrix::from_fn(cfg.channels, cfg.window, |r, c| {
                    1.0 + scale * ((a + 1) as f64 * 0.1) * ((r + c) as f64 * 0.37).sin()
                })
            })
            .collect()
    }

    #[test]
    fn action_is_on_simplex() {
        let cfg = EiieConfig::jiang(3, 8);
        let net = Eiie::new(cfg, &mut rng());
        let assets = windows(4, &cfg, 1.0);
        let pw = vec![0.2; 5];
        let a = net.act(&assets, &pw);
        assert_eq!(a.len(), 5);
        assert!(spikefolio_tensor::simplex::is_on_simplex(&a, 1e-12));
    }

    #[test]
    fn weight_sharing_means_identical_assets_get_identical_scores() {
        let cfg = EiieConfig::jiang(3, 8);
        let net = Eiie::new(cfg, &mut rng());
        let w = windows(1, &cfg, 1.0).pop().unwrap();
        let assets = vec![w.clone(), w];
        let a = net.act(&assets, &[0.2, 0.4, 0.4]);
        assert!((a[1] - a[2]).abs() < 1e-12, "identical inputs, identical weights → tie");
    }

    #[test]
    fn gradients_match_finite_differences() {
        let cfg = EiieConfig {
            channels: 2,
            window: 6,
            conv1_channels: 2,
            conv1_kernel: 3,
            conv2_channels: 4,
        };
        let net = Eiie::new(cfg, &mut rng());
        let assets = windows(3, &cfg, 1.0);
        let pw = [0.1, 0.3, 0.3, 0.3];
        let c = [1.0, -0.5, 0.8, -1.2];
        let trace = net.forward(&assets, &pw);
        let grads = net.backward(&trace, &c);
        let analytic = flat_params(&grads);
        let params = flat_params(&net);
        assert_eq!(analytic.len(), params.len());
        let loss =
            |n: &Eiie| -> f64 { n.act(&assets, &pw).iter().zip(&c).map(|(a, b)| a * b).sum() };
        let eps = 1e-6;
        for i in 0..params.len() {
            let mut pp = params.clone();
            pp[i] += eps;
            let mut np = net.clone();
            set_flat_params(&mut np, &pp);
            let mut pm = params.clone();
            pm[i] -= eps;
            let mut nm = net.clone();
            set_flat_params(&mut nm, &pm);
            let num = (loss(&np) - loss(&nm)) / (2.0 * eps);
            assert!(
                (analytic[i] - num).abs() < 1e-5,
                "param {i}: analytic {} vs numeric {num}",
                analytic[i]
            );
        }
    }

    #[test]
    fn training_steers_action() {
        let cfg = EiieConfig::jiang(3, 6);
        let mut net = Eiie::new(cfg, &mut rng());
        let assets = windows(3, &cfg, 1.0);
        let pw = [0.25; 4];
        let before = net.act(&assets, &pw)[1];
        let mut trainer = ClippedAdam::new(&net, Adam::new(1e-2), Some(10.0));
        for _ in 0..100 {
            let trace = net.forward(&assets, &pw);
            let mut grads = net.backward(&trace, &[0.0, -1.0, 0.0, 0.0]);
            trainer.apply(&mut net, &mut grads);
        }
        let after = net.act(&assets, &pw)[1];
        assert!(after > before + 0.2, "a[1] went {before} → {after}");
    }

    #[test]
    fn flat_round_trip() {
        let cfg = EiieConfig::jiang(4, 8);
        let net = Eiie::new(cfg, &mut rng());
        let flat = flat_params(&net);
        let mut net2 = Eiie::new(cfg, &mut rng());
        set_flat_params(&mut net2, &flat);
        assert_eq!(flat_params(&net2), flat);
        assert_eq!(net.num_params(), flat.len());
    }

    #[test]
    fn config_validation() {
        assert!(EiieConfig::jiang(3, 8).validate().is_ok());
        assert!(EiieConfig { channels: 0, ..EiieConfig::jiang(3, 8) }.validate().is_err());
        let bad = EiieConfig { conv1_kernel: 9, ..EiieConfig::jiang(3, 8) };
        assert!(bad.validate().is_err());
        // jiang() clamps the kernel for tiny windows.
        assert!(EiieConfig::jiang(3, 2).validate().is_ok());
    }
}
