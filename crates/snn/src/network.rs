//! The full SDP policy network: encoder → LIF layers → decoder
//! (Fig. 1 / Algorithm 1).

use crate::batch::{BatchNetworkTrace, BatchWorkspace};
use crate::decoder::Decoder;
use crate::encoder::{PopulationEncoder, PopulationEncoderConfig};
use crate::layer::LifLayer;
use crate::neuron::{AdaptiveParams, LifParams, SpikeFn};
use rand::Rng;
use serde::{Deserialize, Serialize};
use spikefolio_telemetry::NoopRecorder;
use spikefolio_tensor::Matrix;

/// Configuration of an [`SdpNetwork`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SdpNetworkConfig {
    /// Dimensionality `M` of the raw state vector.
    pub state_dim: usize,
    /// Number of actions `N` (assets + cash).
    pub action_dim: usize,
    /// Population encoder settings.
    pub encoder: PopulationEncoderConfig,
    /// Hidden layer widths (the paper uses `[128, 128]`, Table 2).
    pub hidden: Vec<usize>,
    /// Neurons per output population.
    pub pop_out: usize,
    /// Simulation length `T` (the paper trains with `T = 5`).
    pub timesteps: usize,
    /// LIF neuron parameters (Table 2).
    pub lif: LifParams,
    /// Spike nonlinearity (hard + surrogate in production).
    pub spike_fn: SpikeFn,
    /// Adaptive thresholds (ALIF) on the *hidden* layers; `None` = plain
    /// LIF everywhere (the paper's configuration). The output layer always
    /// uses fixed thresholds so the decoder's rate code stays calibrated.
    pub adaptation: Option<AdaptiveParams>,
}

impl SdpNetworkConfig {
    /// The paper's Table 2 configuration: hidden `128 × 128`, `T = 5`,
    /// `V_th = 0.5`, `d_c = 0.5`, `d_v = 0.8`, rectangular surrogate.
    pub fn paper(state_dim: usize, action_dim: usize) -> Self {
        Self {
            state_dim,
            action_dim,
            encoder: PopulationEncoderConfig::default(),
            hidden: vec![128, 128],
            pop_out: 10,
            timesteps: 5,
            lif: LifParams::paper(),
            spike_fn: SpikeFn::default(),
            adaptation: None,
        }
    }

    /// A small configuration for tests and examples: one hidden layer of
    /// 16 neurons, 5 encoder neurons per dimension, 4 per output
    /// population.
    pub fn small(state_dim: usize, action_dim: usize) -> Self {
        Self {
            state_dim,
            action_dim,
            encoder: PopulationEncoderConfig { pop_size: 5, ..Default::default() },
            hidden: vec![16],
            pop_out: 4,
            timesteps: 5,
            lif: LifParams::paper(),
            spike_fn: SpikeFn::default(),
            adaptation: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.state_dim == 0 || self.action_dim == 0 {
            return Err("state_dim and action_dim must be positive".into());
        }
        if self.pop_out == 0 || self.timesteps == 0 {
            return Err("pop_out and timesteps must be positive".into());
        }
        if self.hidden.contains(&0) {
            return Err("hidden layer widths must be positive".into());
        }
        if let Some(ad) = &self.adaptation {
            ad.validate()?;
        }
        self.lif.validate()
    }
}

/// Spike/synop counters collected during a forward pass — the raw inputs
/// of the neuromorphic energy model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SpikeStats {
    /// Spikes emitted by the encoder populations.
    pub encoder_spikes: u64,
    /// Spikes emitted by LIF neurons (hidden + output layers).
    pub neuron_spikes: u64,
    /// Synaptic operations: every spike delivered across one synapse.
    pub synops: u64,
    /// Neuron-update operations (one per neuron per timestep).
    pub neuron_updates: u64,
}

impl SpikeStats {
    /// Total spikes from all sources.
    pub fn total_spikes(&self) -> u64 {
        self.encoder_spikes + self.neuron_spikes
    }
}

/// The spiking deterministic policy network of Fig. 1.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq)]
pub struct SdpNetwork {
    /// Population encoder (eqs. 2–4).
    pub encoder: PopulationEncoder,
    /// LIF layers, hidden then output (`action_dim × pop_out` wide).
    pub layers: Vec<LifLayer>,
    /// Rate decoder (eqs. 8–10).
    pub decoder: Decoder,
    config: SdpNetworkConfig,
}

impl SdpNetwork {
    /// Builds a randomly initialized network.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new<R: Rng + ?Sized>(config: SdpNetworkConfig, rng: &mut R) -> Self {
        config.validate().expect("invalid SDP network configuration");
        let encoder = PopulationEncoder::new(config.state_dim, config.encoder);
        let mut dims = vec![encoder.output_dim()];
        dims.extend(&config.hidden);
        dims.push(config.action_dim * config.pop_out);
        let n_layers = dims.len() - 1;
        let layers: Vec<LifLayer> = dims
            .windows(2)
            .enumerate()
            .map(|(k, w)| match config.adaptation {
                // ALIF on hidden layers only; the output layer keeps fixed
                // thresholds for a calibrated rate code.
                Some(ad) if k + 1 < n_layers => {
                    LifLayer::new_adaptive(w[0], w[1], config.lif, ad, config.spike_fn, rng)
                }
                _ => LifLayer::new(w[0], w[1], config.lif, config.spike_fn, rng),
            })
            .collect();
        let decoder =
            Decoder::new_randomized(config.action_dim, config.pop_out, config.timesteps, rng);
        Self { encoder, layers, decoder, config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &SdpNetworkConfig {
        &self.config
    }

    /// Network depth `L` (number of LIF layers).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameters (LIF layers + decoder).
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(LifLayer::num_params).sum::<usize>()
            + self.decoder.weights.len()
            + self.decoder.bias.len()
    }

    /// Human-readable architecture summary (one line per stage).
    pub fn summary(&self) -> String {
        let cfg = &self.config;
        let mut s = format!(
            "SdpNetwork: {} state dims → {} actions, T = {}, {} params\n",
            cfg.state_dim,
            cfg.action_dim,
            cfg.timesteps,
            self.num_params()
        );
        s.push_str(&format!(
            "  encoder: {} × {} = {} neurons ({:?}, σ = {:.3})\n",
            cfg.state_dim,
            cfg.encoder.pop_size,
            self.encoder.output_dim(),
            cfg.encoder.encoding,
            self.encoder.sigma()
        ));
        for (k, layer) in self.layers.iter().enumerate() {
            s.push_str(&format!(
                "  layer {k}: LIF {} → {}{}\n",
                layer.in_dim(),
                layer.out_dim(),
                if layer.adaptation.is_some() { " (adaptive)" } else { "" }
            ));
        }
        s.push_str(&format!(
            "  decoder: {} populations × {} neurons → softmax\n",
            cfg.action_dim, cfg.pop_out
        ));
        s
    }

    /// Inference for one state: a batch-of-one
    /// [`forward_batch`](Self::forward_batch). The action is on the
    /// probability simplex.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != config.state_dim`.
    pub fn act<R: Rng + ?Sized>(&self, state: &[f64], rng: &mut R) -> Vec<f64> {
        self.act_with_stats(state, rng).0
    }

    /// Inference with event statistics — used by the energy model.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != config.state_dim`.
    pub fn act_with_stats<R: Rng + ?Sized>(
        &self,
        state: &[f64],
        rng: &mut R,
    ) -> (Vec<f64>, SpikeStats) {
        let trace = self.forward_one(state, rng);
        (trace.action(0).to_vec(), trace.stats)
    }

    /// The full batch-of-one trace of `state`, encoded with `rng`.
    pub(crate) fn forward_one<R: Rng + ?Sized>(
        &self,
        state: &[f64],
        rng: &mut R,
    ) -> BatchNetworkTrace {
        let mut ws = BatchWorkspace::new(self, 1);
        let mut trace = BatchNetworkTrace::new(self, 1);
        self.forward_batch(
            &Matrix::from_rows(&[state]),
            &mut [rng],
            &mut ws,
            &mut trace,
            &mut NoopRecorder,
        );
        trace
    }

    /// Converts per-layer spike counts (summed over `samples` forward
    /// passes) into per-layer firing rates: spikes per neuron per
    /// timestep, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `layer_spikes.len()` does not match the network depth.
    pub fn layer_firing_rates(&self, layer_spikes: &[u64], samples: u64) -> Vec<f64> {
        assert_eq!(layer_spikes.len(), self.layers.len(), "layer spike count mismatch");
        let t = self.config.timesteps as f64;
        let n = samples.max(1) as f64;
        self.layers
            .iter()
            .zip(layer_spikes)
            .map(|(layer, &spikes)| spikes as f64 / (layer.out_dim() as f64 * t * n))
            .collect()
    }

    /// Encoder spike rate: spikes per encoder neuron per timestep over
    /// `samples` forward passes, in `[0, 1]`.
    pub fn encoder_spike_rate(&self, encoder_spikes: u64, samples: u64) -> f64 {
        let denom =
            self.encoder.output_dim() as f64 * self.config.timesteps as f64 * samples.max(1) as f64;
        encoder_spikes as f64 / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoding;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    fn small_net() -> SdpNetwork {
        SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng())
    }

    #[test]
    fn paper_config_matches_table2() {
        let cfg = SdpNetworkConfig::paper(10, 12);
        assert_eq!(cfg.hidden, vec![128, 128]);
        assert_eq!(cfg.timesteps, 5);
        assert_eq!(cfg.lif, LifParams::paper());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn action_is_on_simplex() {
        let net = small_net();
        let mut r = rng();
        for s in [[1.0, 1.0, 1.0, 1.0], [0.5, 1.5, 0.8, 1.2], [1.1, 0.9, 1.0, 1.3]] {
            let a = net.act(&s, &mut r);
            assert_eq!(a.len(), 3);
            assert!(spikefolio_tensor::simplex::is_on_simplex(&a, 1e-9));
        }
    }

    #[test]
    fn deterministic_encoding_gives_reproducible_actions() {
        let net = small_net();
        let s = [1.0, 0.9, 1.1, 1.05];
        let a1 = net.act(&s, &mut rng());
        let a2 = net.act(&s, &mut rand::rngs::StdRng::seed_from_u64(31337));
        assert_eq!(a1, a2, "deterministic encoder must ignore RNG state");
    }

    #[test]
    fn probabilistic_encoding_varies_with_rng() {
        let mut cfg = SdpNetworkConfig::small(4, 3);
        cfg.encoder.encoding = Encoding::Probabilistic;
        let net = SdpNetwork::new(cfg, &mut rng());
        let s = [1.0, 0.9, 1.1, 1.05];
        let mut r = rng();
        let a1 = net.act(&s, &mut r);
        let a2 = net.act(&s, &mut r);
        // Not guaranteed different in theory, but overwhelmingly likely.
        assert_ne!(a1, a2);
    }

    #[test]
    fn trace_covers_all_layers_and_timesteps() {
        let net = small_net();
        let tr = net.forward_one(&[1.0, 1.0, 1.0, 1.0], &mut rng());
        assert_eq!(tr.layers.len(), net.depth());
        for (lt, layer) in tr.layers.iter().zip(&net.layers) {
            assert_eq!(lt.voltages.shape(), (net.config().timesteps, layer.out_dim()));
            assert_eq!(lt.output_set.rows(), net.config().timesteps);
        }
        assert_eq!(tr.encoder.rows(), net.config().timesteps);
    }

    #[test]
    fn stats_count_events() {
        let net = small_net();
        let (_, stats) = net.act_with_stats(&[1.0, 1.0, 1.0, 1.0], &mut rng());
        assert!(stats.encoder_spikes > 0, "a plausible state must excite the encoder");
        assert!(stats.neuron_updates > 0);
        assert_eq!(
            stats.neuron_updates,
            ((16 + 12) * 5) as u64, // (hidden 16 + out 3*4) × T
        );
    }

    #[test]
    fn num_params_counts_everything() {
        let net = small_net();
        let enc_dim = net.encoder.output_dim(); // 4 dims × 5 pop = 20
        let expected = (enc_dim * 16 + 16) + (16 * 12 + 12) + 3 + 3;
        assert_eq!(net.num_params(), expected);
    }

    #[test]
    fn depth_matches_hidden_plus_output() {
        let net = small_net();
        assert_eq!(net.depth(), 2);
        let deep = SdpNetwork::new(SdpNetworkConfig::paper(4, 3), &mut rng());
        assert_eq!(deep.depth(), 3);
    }

    #[test]
    #[should_panic(expected = "state length")]
    fn wrong_state_dim_panics() {
        let net = small_net();
        let _ = net.act(&[1.0], &mut rng());
    }

    #[test]
    fn summary_mentions_every_stage() {
        let net = small_net();
        let s = net.summary();
        assert!(s.contains("encoder"));
        assert!(s.contains("layer 0"));
        assert!(s.contains("decoder"));
        assert!(s.contains(&format!("{} params", net.num_params())));
        // Adaptive layers are flagged.
        let mut cfg = SdpNetworkConfig::small(4, 3);
        cfg.adaptation = Some(crate::neuron::AdaptiveParams::new());
        let alif = SdpNetwork::new(cfg, &mut rng());
        assert!(alif.summary().contains("(adaptive)"));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = SdpNetworkConfig::small(4, 3);
        cfg.timesteps = 0;
        assert!(cfg.validate().is_err());
        let mut cfg2 = SdpNetworkConfig::small(4, 3);
        cfg2.hidden = vec![0];
        assert!(cfg2.validate().is_err());
    }
}
