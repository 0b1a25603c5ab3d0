//! Hyperparameter bundles (Table 2) and run-scale presets.

use serde::{Deserialize, Serialize};
use spikefolio_env::{BacktestConfig, StateConfig};
use spikefolio_snn::network::SdpNetworkConfig;
use spikefolio_snn::neuron::AdaptiveParams;
use spikefolio_snn::{LifParams, Surrogate};

/// Training-loop hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Passes over the training data (each epoch runs
    /// `steps_per_epoch` minibatches).
    pub epochs: usize,
    /// Minibatches per epoch.
    pub steps_per_epoch: usize,
    /// Minibatch size (Table 2: 128).
    pub batch_size: usize,
    /// Learning rate (Table 2 lists `10e-5`).
    pub learning_rate: f64,
    /// Geometric bias toward recent samples when drawing minibatch
    /// periods (Jiang's sampling scheme); 0 = uniform.
    pub recency_bias: f64,
    /// Global-norm gradient clip.
    pub max_grad_norm: f64,
    /// Spike-rate regularization strength `λ` (0 = off). Penalizes hidden
    /// firing rates to trade backtest quality for on-chip energy; see
    /// [`spikefolio_snn::stbp::backward_batch`].
    pub rate_penalty: f64,
    /// Worker threads for minibatch gradient computation. Minibatches are
    /// split into fixed-size micro-batches ([`Self::micro_batch`]) that
    /// are assigned round-robin to workers, so epoch rewards and trained
    /// parameters are identical for any `parallelism >= 1`.
    pub parallelism: usize,
    /// Samples per batched SNN execution
    /// ([`spikefolio_snn::SdpNetwork::forward_batch`]). Work units are
    /// fixed-size micro-batches regardless of thread count, which is what
    /// keeps training thread-count invariant. Larger values amortize more
    /// weight-matrix traffic per GEMM; smaller values balance better
    /// across workers.
    pub micro_batch: usize,
}

impl TrainingConfig {
    /// Paper-faithful values (Table 2) with a practical epoch budget.
    pub fn paper() -> Self {
        Self {
            epochs: 30,
            steps_per_epoch: 50,
            batch_size: 128,
            learning_rate: 1e-4,
            recency_bias: 5e-3,
            max_grad_norm: 10.0,
            rate_penalty: 0.0,
            parallelism: 1,
            micro_batch: 16,
        }
    }

    /// Tiny budget for unit/integration tests.
    pub fn smoke() -> Self {
        Self {
            epochs: 3,
            steps_per_epoch: 8,
            batch_size: 16,
            learning_rate: 1e-3,
            recency_bias: 5e-3,
            max_grad_norm: 10.0,
            rate_penalty: 0.0,
            parallelism: 1,
            micro_batch: 4,
        }
    }
}

/// Everything needed to build and train one SDP (or DRL baseline) agent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SdpConfig {
    /// State feature layout (observation window, channels, weights).
    pub state: StateConfig,
    /// SDP network shape and neuron parameters.
    pub network: NetworkShape,
    /// Training-loop hyperparameters.
    pub training: TrainingConfig,
    /// Backtest settings (cost model, risk-free rate).
    pub backtest: BacktestConfig,
    /// Base RNG seed for weight init and encoding.
    pub seed: u64,
}

/// Network-shape subset of the configuration (state/action dims are
/// derived from the market at agent construction).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkShape {
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Encoder neurons per state dimension.
    pub pop_in: usize,
    /// Output-population neurons per action.
    pub pop_out: usize,
    /// Simulation length `T`.
    pub timesteps: usize,
    /// LIF neuron parameters.
    pub lif: LifParams,
    /// Surrogate gradient.
    pub surrogate: Surrogate,
    /// Encoder value range lower edge.
    pub value_lo: f64,
    /// Encoder value range upper edge.
    pub value_hi: f64,
    /// Probabilistic instead of deterministic encoding.
    pub probabilistic_encoding: bool,
    /// Adaptive thresholds (ALIF) on the hidden layers. Networks trained
    /// with adaptation cannot be deployed on the chip model (plain-LIF
    /// only, as in the paper) but train and backtest normally.
    pub adaptation: Option<AdaptiveParams>,
}

impl NetworkShape {
    /// Table 2 shape: hidden `[128, 128]`, `T = 5`.
    pub fn paper() -> Self {
        Self {
            hidden: vec![128, 128],
            pop_in: 10,
            pop_out: 10,
            timesteps: 5,
            lif: LifParams::paper(),
            surrogate: Surrogate::paper_rectangular(),
            value_lo: 0.0,
            value_hi: 1.6,
            probabilistic_encoding: false,
            adaptation: None,
        }
    }

    /// Reduced shape for tests.
    pub fn smoke() -> Self {
        Self { hidden: vec![24], pop_in: 4, pop_out: 4, ..Self::paper() }
    }
}

impl SdpConfig {
    /// The paper's full configuration (Tables 1–2 scale).
    pub fn paper() -> Self {
        Self {
            state: StateConfig { window: 8, include_open: true, include_weights: true },
            network: NetworkShape::paper(),
            training: TrainingConfig::paper(),
            backtest: BacktestConfig::default(),
            seed: 20220314,
        }
    }

    /// A minutes-scale configuration for CI and examples.
    pub fn smoke() -> Self {
        Self {
            state: StateConfig { window: 4, include_open: false, include_weights: true },
            network: NetworkShape::smoke(),
            training: TrainingConfig::smoke(),
            backtest: BacktestConfig::default(),
            seed: 20220314,
        }
    }

    /// Instantiates the [`SdpNetworkConfig`] for a market with
    /// `num_assets` risky assets.
    pub fn network_config(&self, num_assets: usize) -> SdpNetworkConfig {
        use spikefolio_env::StateBuilder;
        use spikefolio_snn::encoder::{Encoding, PopulationEncoderConfig};
        use spikefolio_snn::neuron::SpikeFn;
        let sb = StateBuilder::new(self.state);
        SdpNetworkConfig {
            state_dim: sb.state_dim(num_assets),
            action_dim: num_assets + 1,
            encoder: PopulationEncoderConfig {
                pop_size: self.network.pop_in,
                sigma: 0.0,
                value_lo: self.network.value_lo,
                value_hi: self.network.value_hi,
                encoding: if self.network.probabilistic_encoding {
                    Encoding::Probabilistic
                } else {
                    Encoding::Deterministic
                },
                epsilon: 0.05,
            },
            hidden: self.network.hidden.clone(),
            pop_out: self.network.pop_out,
            timesteps: self.network.timesteps,
            lif: self.network.lif,
            spike_fn: SpikeFn::Hard { surrogate: self.network.surrogate },
            adaptation: self.network.adaptation,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn paper_defaults_match_table2() {
        let c = SdpConfig::paper();
        assert_eq!(c.network.hidden, vec![128, 128]);
        assert_eq!(c.network.timesteps, 5);
        assert_eq!(c.network.lif, LifParams::paper());
        assert_eq!(c.training.batch_size, 128);
        assert_eq!(c.network.surrogate, Surrogate::paper_rectangular());
    }

    #[test]
    fn network_config_derives_dims() {
        let c = SdpConfig::paper();
        let nc = c.network_config(11);
        // window 8 × 4 channels × 11 assets + 12 weights.
        assert_eq!(nc.state_dim, 8 * 4 * 11 + 12);
        assert_eq!(nc.action_dim, 12);
        assert!(nc.validate().is_ok());
    }

    #[test]
    fn smoke_config_is_smaller_than_paper() {
        let p = SdpConfig::paper();
        let s = SdpConfig::smoke();
        assert!(s.network.hidden.iter().sum::<usize>() < p.network.hidden.iter().sum::<usize>());
        assert!(s.training.epochs < p.training.epochs);
        assert!(s.network_config(11).validate().is_ok());
    }

    #[test]
    fn probabilistic_flag_switches_encoding() {
        use spikefolio_snn::encoder::Encoding;
        let mut c = SdpConfig::smoke();
        c.network.probabilistic_encoding = true;
        assert_eq!(c.network_config(3).encoder.encoding, Encoding::Probabilistic);
    }
}
