//! Grouping-invariance, gradient-correctness, property, and regression
//! tests for the SNN execution engine (`SdpNetwork::forward_batch` /
//! `stbp::backward_batch`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikefolio::agent::SdpAgent;
use spikefolio::checkpoint;
use spikefolio::config::SdpConfig;
use spikefolio_snn::encoder::Encoding;
use spikefolio_snn::network::{SdpNetwork, SdpNetworkConfig};
use spikefolio_snn::neuron::SpikeFn;
use spikefolio_snn::stbp;
use spikefolio_snn::{BatchNetworkTrace, BatchWorkspace};
use spikefolio_telemetry::NoopRecorder;
use spikefolio_tensor::{optim, Matrix};

const TOL: f64 = 1e-12;

fn small_net(encoding: Encoding) -> SdpNetwork {
    let mut cfg = SdpNetworkConfig::small(6, 3);
    cfg.hidden = vec![12, 9];
    cfg.encoder.encoding = encoding;
    let mut rng = StdRng::seed_from_u64(7);
    SdpNetwork::new(cfg, &mut rng)
}

fn states(batch: usize, dim: usize) -> Matrix {
    Matrix::from_fn(batch, dim, |b, d| 0.7 + 0.04 * ((b * dim + d) % 17) as f64)
}

/// Forward + backward of `st` (sample `b` encoded with seed `seeds[b]`)
/// as one batch; returns the actions and the summed gradients.
fn forward_backward(
    net: &SdpNetwork,
    st: &Matrix,
    seeds: &[u64],
    d_actions: &Matrix,
    rate_penalty: f64,
) -> (Matrix, stbp::SdpGradients) {
    let batch = st.rows();
    let mut ws = BatchWorkspace::new(net, batch);
    let mut trace = BatchNetworkTrace::new(net, batch);
    let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
    net.forward_batch(st, &mut rngs, &mut ws, &mut trace, &mut NoopRecorder);
    let grads =
        stbp::backward_batch(net, &trace, d_actions, rate_penalty, &mut ws, &mut NoopRecorder);
    (trace.actions, grads)
}

/// Grouping invariance: one batch of `n` against `n` separate batches of
/// one with the same per-sample encoder seeds. Actions must match exactly
/// and every gradient block within `TOL` (only the `(t, b)` summation
/// order of the weight gradients differs).
fn check_equivalence(encoding: Encoding) {
    let net = small_net(encoding);
    let dim = net.config().state_dim;
    let rate_penalty = 0.05;
    for &batch in &[1usize, 3, 32] {
        let st = states(batch, dim);
        let d_actions = Matrix::from_fn(batch, 3, |b, a| 0.2 - 0.1 * a as f64 + 0.01 * b as f64);
        let seeds: Vec<u64> = (0..batch).map(|b| 1000 + b as u64).collect();
        let (actions, batched) = forward_backward(&net, &st, &seeds, &d_actions, rate_penalty);

        let mut reference = stbp::SdpGradients::zeros_like(&net);
        for b in 0..batch {
            let one = |m: &Matrix| Matrix::from_rows(&[m.row(b)]);
            let (action, g) =
                forward_backward(&net, &one(&st), &seeds[b..=b], &one(&d_actions), rate_penalty);
            // Actions must match exactly, not just within tolerance — and
            // so must `act`, the batch-of-one entry point.
            assert_eq!(actions.row(b), action.row(0), "batch {batch} sample {b} ({encoding:?})");
            let acted = net.act(st.row(b), &mut StdRng::seed_from_u64(seeds[b]));
            assert_eq!(acted.as_slice(), action.row(0), "act, sample {b} ({encoding:?})");
            optim::accumulate(&mut reference, &g);
        }

        for (k, (bg, rg)) in batched.layers.iter().zip(&reference.layers).enumerate() {
            for (i, (x, y)) in
                bg.d_weights.as_slice().iter().zip(rg.d_weights.as_slice()).enumerate()
            {
                assert!((x - y).abs() <= TOL, "batch {batch} layer {k} d_weights[{i}]: {x} vs {y}");
            }
            for (i, (x, y)) in bg.d_bias.iter().zip(&rg.d_bias).enumerate() {
                assert!((x - y).abs() <= TOL, "batch {batch} layer {k} d_bias[{i}]: {x} vs {y}");
            }
        }
        for (i, (x, y)) in
            batched.d_decoder_weights.iter().zip(&reference.d_decoder_weights).enumerate()
        {
            assert!((x - y).abs() <= TOL, "batch {batch} decoder d_weights[{i}]: {x} vs {y}");
        }
        for (i, (x, y)) in batched.d_decoder_bias.iter().zip(&reference.d_decoder_bias).enumerate()
        {
            assert!((x - y).abs() <= TOL, "batch {batch} decoder d_bias[{i}]: {x} vs {y}");
        }
    }
}

#[test]
fn batched_path_matches_per_sample_deterministic_encoding() {
    check_equivalence(Encoding::Deterministic);
}

#[test]
fn batched_path_matches_per_sample_probabilistic_encoding() {
    check_equivalence(Encoding::Probabilistic);
}

/// Loss of a linear functional `Σ_b c_b · a_b` computed entirely through
/// the batched forward path (deterministic encoding, so re-running is
/// exact).
fn batched_loss(net: &SdpNetwork, st: &Matrix, c: &Matrix) -> f64 {
    let batch = st.shape().0;
    let mut ws = BatchWorkspace::new(net, batch);
    let mut trace = BatchNetworkTrace::new(net, batch);
    let mut rngs: Vec<StdRng> = (0..batch).map(|b| StdRng::seed_from_u64(b as u64)).collect();
    net.forward_batch(st, &mut rngs, &mut ws, &mut trace, &mut NoopRecorder);
    (0..batch).map(|b| trace.action(b).iter().zip(c.row(b)).map(|(x, y)| x * y).sum::<f64>()).sum()
}

#[test]
fn backward_batch_matches_finite_differences_on_soft_network() {
    // Soft spikes make the whole network differentiable, so the batched
    // STBP gradients must agree with central differences.
    let mut cfg = SdpNetworkConfig::small(3, 2);
    cfg.hidden = vec![6];
    cfg.pop_out = 2;
    cfg.timesteps = 4;
    cfg.encoder.pop_size = 3;
    cfg.spike_fn = SpikeFn::Soft { temperature: 0.4 };
    let mut rng = StdRng::seed_from_u64(123);
    let net = SdpNetwork::new(cfg, &mut rng);

    let batch = 3;
    let st = states(batch, 3);
    let c = Matrix::from_fn(batch, 2, |b, a| if a == 0 { 1.0 + 0.2 * b as f64 } else { -1.5 });

    let mut ws = BatchWorkspace::new(&net, batch);
    let mut trace = BatchNetworkTrace::new(&net, batch);
    let mut rngs: Vec<StdRng> = (0..batch).map(|b| StdRng::seed_from_u64(b as u64)).collect();
    net.forward_batch(&st, &mut rngs, &mut ws, &mut trace, &mut NoopRecorder);
    let grads = stbp::backward_batch(&net, &trace, &c, 0.0, &mut ws, &mut NoopRecorder);
    let analytic = stbp::flat_params(&grads);
    let params = stbp::flat_params(&net);
    assert_eq!(analytic.len(), params.len());

    let eps = 1e-5;
    let mut checked = 0;
    for i in (0..params.len()).step_by(5).chain(params.len().saturating_sub(4)..params.len()) {
        let mut pp = params.clone();
        pp[i] += eps;
        let mut netp = net.clone();
        stbp::set_flat_params(&mut netp, &pp);
        let lp = batched_loss(&netp, &st, &c);

        let mut pm = params.clone();
        pm[i] -= eps;
        let mut netm = net.clone();
        stbp::set_flat_params(&mut netm, &pm);
        let lm = batched_loss(&netm, &st, &c);

        let num = (lp - lm) / (2.0 * eps);
        let err = (analytic[i] - num).abs() / (1.0 + num.abs());
        assert!(err < 1e-4, "param {i}: analytic {} vs numeric {num}", analytic[i]);
        checked += 1;
    }
    assert!(checked >= 15, "checked too few parameters: {checked}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The rate decoder maps any non-negative spike-count vector to a
    /// point on the probability simplex.
    #[test]
    fn decoder_outputs_lie_on_the_simplex(
        sums in proptest::collection::vec(0.0f64..20.0, 12)
    ) {
        let net = small_net(Encoding::Deterministic);
        // small(6, 3) with pop_out 4 → 12 output-population neurons.
        let trace = net.decoder.decode(&sums);
        prop_assert!(spikefolio_tensor::simplex::is_on_simplex(&trace.action, 1e-9),
            "decoded action off the simplex: {:?}", trace.action);
    }

    /// Batched forward actions stay on the simplex for arbitrary state
    /// batches.
    #[test]
    fn batched_actions_lie_on_the_simplex(seed in 0u64..500, batch in 1usize..9) {
        let net = small_net(Encoding::Deterministic);
        let dim = net.config().state_dim;
        let mut vrng = StdRng::seed_from_u64(seed);
        let st = Matrix::from_fn(batch, dim, |_, _| vrng.gen_range(0.5..1.5));
        let mut ws = BatchWorkspace::new(&net, batch);
        let mut trace = BatchNetworkTrace::new(&net, batch);
        let mut rngs: Vec<StdRng> =
            (0..batch).map(|b| StdRng::seed_from_u64(seed ^ b as u64)).collect();
        net.forward_batch(&st, &mut rngs, &mut ws, &mut trace, &mut NoopRecorder);
        for b in 0..batch {
            prop_assert!(
                spikefolio_tensor::simplex::is_on_simplex(trace.action(b), 1e-9),
                "sample {b} off the simplex: {:?}", trace.action(b)
            );
        }
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spikefolio-batched-{}-{name}", std::process::id()));
    p
}

#[test]
fn checkpoint_roundtrip_preserves_batched_forward_bitwise() {
    let cfg = SdpConfig::smoke();
    let agent = SdpAgent::new(&cfg, 3, cfg.seed);
    let path = tmp("roundtrip.ckpt");
    checkpoint::save_sdp(&agent, &path).unwrap();
    // Restore into an agent with different random parameters.
    let mut restored = SdpAgent::new(&cfg, 3, cfg.seed ^ 0xdead_beef);
    checkpoint::load_sdp(&mut restored, &path).unwrap();
    std::fs::remove_file(&path).ok();

    let dim = agent.network.config().state_dim;
    let batch = 8;
    let st = states(batch, dim);
    let run = |net: &SdpNetwork| -> Vec<Vec<f64>> {
        let mut ws = BatchWorkspace::new(net, batch);
        let mut trace = BatchNetworkTrace::new(net, batch);
        let mut rngs: Vec<StdRng> = (0..batch).map(|b| StdRng::seed_from_u64(b as u64)).collect();
        net.forward_batch(&st, &mut rngs, &mut ws, &mut trace, &mut NoopRecorder);
        (0..batch).map(|b| trace.action(b).to_vec()).collect()
    };
    let original = run(&agent.network);
    let reloaded = run(&restored.network);
    // The checkpoint stores exact f64 bits, so the restored agent's
    // batched outputs must be bit-identical, not merely close.
    assert_eq!(original, reloaded);
}
