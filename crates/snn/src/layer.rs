//! Fully-connected dual-state LIF layer (eqs. 5–7 / Algorithm 1).

use crate::neuron::{AdaptiveParams, LifParams, SpikeFn};
use rand::Rng;
use spikefolio_tensor::init::Init;
use spikefolio_tensor::Matrix;

/// A fully-connected layer of dual-state LIF neurons, optionally with
/// adaptive thresholds (ALIF).
///
/// Holds the weight matrix `W` (`out × in`), bias `b`, neuron parameters,
/// and the spike nonlinearity. The layer itself is stateless; the
/// simulation state (`c`, `v`, `o`, adaptation `b`) lives in a
/// [`crate::batch::BatchWorkspace`] and the recorded history in a
/// [`crate::batch::BatchLayerTrace`], both driven by
/// [`crate::network::SdpNetwork::forward_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct LifLayer {
    /// Synaptic weight matrix, `out_dim × in_dim`.
    pub weights: Matrix,
    /// Bias added to the synaptic current each step.
    pub bias: Vec<f64>,
    /// Neuron dynamics parameters.
    pub params: LifParams,
    /// Spike nonlinearity (hard + surrogate, or soft for gradient checks).
    pub spike_fn: SpikeFn,
    /// Threshold adaptation (ALIF) if enabled.
    pub adaptation: Option<AdaptiveParams>,
}

impl LifLayer {
    /// Creates a layer with Kaiming-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        params: LifParams,
        spike_fn: SpikeFn,
        rng: &mut R,
    ) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "layer dims must be positive");
        params.validate().expect("invalid LIF parameters");
        Self {
            weights: Init::KaimingUniform.matrix(out_dim, in_dim, rng),
            bias: vec![0.0; out_dim],
            params,
            spike_fn,
            adaptation: None,
        }
    }

    /// Creates an ALIF layer (adaptive thresholds).
    ///
    /// # Panics
    ///
    /// Panics if the LIF or adaptation parameters are invalid.
    pub fn new_adaptive<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        params: LifParams,
        adaptation: AdaptiveParams,
        spike_fn: SpikeFn,
        rng: &mut R,
    ) -> Self {
        adaptation.validate().expect("invalid adaptation parameters");
        let mut layer = Self::new(in_dim, out_dim, params, spike_fn, rng);
        layer.adaptation = Some(adaptation);
        layer
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimension (number of neurons).
    pub fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::batch::BatchNetworkTrace;
    use crate::network::{SdpNetwork, SdpNetworkConfig};
    use crate::surrogate::Surrogate;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(5)
    }

    fn hard() -> SpikeFn {
        SpikeFn::Hard { surrogate: Surrogate::paper_rectangular() }
    }

    /// Batch-of-one trace of a network whose hidden layer (layer 0) is a
    /// single neuron with zero synaptic weights and bias `drive`, so its
    /// current follows `c(t) = d_c·c(t−1) + drive` whatever the encoder
    /// emits. `edit` adjusts the rest of the configuration first.
    pub(crate) fn drive_one_neuron(
        edit: impl FnOnce(&mut SdpNetworkConfig),
        drive: f64,
    ) -> BatchNetworkTrace {
        let mut cfg = SdpNetworkConfig::small(1, 1);
        cfg.hidden = vec![1];
        edit(&mut cfg);
        let mut net = SdpNetwork::new(cfg, &mut rng());
        net.layers[0].weights = Matrix::zeros(1, net.layers[0].in_dim());
        net.layers[0].bias[0] = drive;
        net.forward_one(&[1.0], &mut rng())
    }

    #[test]
    fn dims_and_param_count() {
        let l = LifLayer::new(8, 4, LifParams::paper(), hard(), &mut rng());
        assert_eq!(l.in_dim(), 8);
        assert_eq!(l.out_dim(), 4);
        assert_eq!(l.num_params(), 8 * 4 + 4);
    }

    #[test]
    fn silent_input_produces_no_spikes() {
        // A silent hidden neuron leaves the output layer (zero bias) with
        // silent input: neither layer may spike.
        let tr = drive_one_neuron(|_| {}, 0.0);
        for lt in &tr.layers {
            assert!(lt.outputs.as_slice().iter().all(|&o| o == 0.0));
        }
    }

    #[test]
    fn strong_constant_drive_spikes() {
        let tr = drive_one_neuron(|c| c.timesteps = 4, 2.0); // drive 2.0 per step ≫ V_th
        let out = &tr.layers[0].outputs;
        assert!(out.as_slice().iter().sum::<f64>() >= 3.0, "neuron should spike nearly every step");
    }

    #[test]
    fn dynamics_match_hand_simulation() {
        // One neuron driven by a constant 0.3 per step.
        let tr = drive_one_neuron(|c| c.timesteps = 6, 0.3);
        let lt = &tr.layers[0];
        // Hand-rolled dual-state dynamics.
        let (mut c, mut v, mut o) = (0.0, 0.0, 0.0);
        for t in 0..6 {
            c = 0.5 * c + 0.3;
            v = 0.8 * v * (1.0 - o) + c;
            let exp_v = v;
            o = if v > 0.5 { 1.0 } else { 0.0 };
            assert!((lt.voltages[(t, 0)] - exp_v).abs() < 1e-12, "voltage at t={t}");
            assert_eq!(lt.outputs[(t, 0)], o, "spike at t={t}");
        }
    }

    #[test]
    fn reset_clears_voltage_contribution() {
        // After a spike, the voltage restarts from the new current alone.
        let tr = drive_one_neuron(
            |c| {
                c.timesteps = 3;
                c.lif = LifParams { v_th: 0.5, d_c: 0.0, d_v: 0.9 };
            },
            0.6,
        );
        let lt = &tr.layers[0];
        // t0: c=0.6, v=0.6 → spike. t1: c=0.6, v=0.9*0.6*(1-1)+0.6=0.6 → spike.
        assert_eq!(lt.outputs.as_slice(), &[1.0, 1.0, 1.0]);
        assert!((lt.voltages[(1, 0)] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn trace_shapes_are_consistent() {
        let mut cfg = SdpNetworkConfig::small(1, 1);
        cfg.hidden = vec![7];
        cfg.timesteps = 4;
        let net = SdpNetwork::new(cfg, &mut rng());
        let tr = net.forward_one(&[1.0], &mut rng());
        assert_eq!(tr.timesteps(), 4);
        assert_eq!(tr.encoder.shape(), (4, 5));
        let lt = &tr.layers[0];
        assert_eq!(lt.voltages.shape(), (4, 7));
        assert_eq!(lt.outputs.shape(), (4, 7));
        assert_eq!(lt.thresholds.shape(), (4, 7));
        assert_eq!(lt.output_set.rows(), 4);
    }

    #[test]
    fn soft_spikes_are_graded() {
        let tr = drive_one_neuron(
            |c| {
                c.timesteps = 3;
                c.spike_fn = SpikeFn::Soft { temperature: 0.2 };
            },
            0.4,
        );
        let out = tr.layers[0].outputs.as_slice();
        // Soft outputs are in (0,1), not exactly binary.
        assert!(out.iter().all(|&o| (0.0..=1.0).contains(&o)));
        assert!(out.iter().any(|&o| o > 0.0 && o < 1.0));
    }
}
