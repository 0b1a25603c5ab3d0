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

// ---- The network's cached Wᵀ stays in step with its weights ----

/// Full forward trace of `st` on `net` through `ws`, sample `b` encoded
/// with seed `b`.
fn trace_with(net: &SdpNetwork, st: &Matrix, ws: &mut BatchWorkspace) -> BatchNetworkTrace {
    let batch = st.rows();
    let mut trace = BatchNetworkTrace::new(net, batch);
    let mut rngs: Vec<StdRng> = (0..batch).map(|b| StdRng::seed_from_u64(b as u64)).collect();
    net.forward_batch(st, &mut rngs, ws, &mut trace, &mut NoopRecorder);
    trace
}

fn trace_of(net: &SdpNetwork, st: &Matrix) -> BatchNetworkTrace {
    trace_with(net, st, &mut BatchWorkspace::new(net, st.rows()))
}

/// A network that has never run a forward pass, holding `net`'s
/// parameters: its `Wᵀ` can only come from those parameters.
fn rebuilt(net: &SdpNetwork) -> SdpNetwork {
    let mut fresh = SdpNetwork::new(net.config().clone(), &mut StdRng::seed_from_u64(0xfeed));
    optim::set_flat_params(&mut fresh, &optim::flat_params(net));
    fresh
}

/// `net`'s forward trace equals that of a freshly built copy, bitwise,
/// and its cached `Wᵀ` is the transpose of its current weights.
fn assert_coherent(net: &SdpNetwork, st: &Matrix, what: &str) {
    assert_eq!(trace_of(net, st), trace_of(&rebuilt(net), st), "{what}: stale forward pass");
    for (k, (wt, layer)) in net.transposed_weights().iter().zip(net.layers()).enumerate() {
        assert_eq!(*wt, layer.weights.transposed(), "{what}: stale Wᵀ of layer {k}");
    }
}

/// Layer voltages of a trace: they read the drive `W·o_in` directly, so
/// any weight change that reaches an active synapse moves them.
fn voltages(trace: &BatchNetworkTrace) -> Vec<Matrix> {
    trace.layers.iter().map(|l| l.voltages.clone()).collect()
}

#[test]
fn cached_transpose_follows_an_optimizer_step() {
    let mut net = small_net(Encoding::Deterministic);
    let batch = 4;
    let st = states(batch, net.config().state_dim);
    let before = trace_of(&net, &st); // builds the cache
    let seeds: Vec<u64> = (0..batch as u64).collect();
    let d_actions = Matrix::from_fn(batch, 3, |b, j| if (b + j) % 2 == 0 { 1.0 } else { -1.0 });
    let (_, mut grads) = forward_backward(&net, &st, &seeds, &d_actions, 0.0);
    let mut trainer = optim::ClippedAdam::new(&net, optim::Adam::new(0.05), None);
    trainer.apply(&mut net, &mut grads);
    assert_ne!(voltages(&trace_of(&net, &st)), voltages(&before), "the step must move the drive");
    assert_coherent(&net, &st, "after ClippedAdam::apply");
}

#[test]
fn cached_transpose_follows_set_flat_params() {
    let mut net = small_net(Encoding::Deterministic);
    let st = states(4, net.config().state_dim);
    let before = trace_of(&net, &st);
    let other = SdpNetwork::new(net.config().clone(), &mut StdRng::seed_from_u64(99));
    optim::set_flat_params(&mut net, &optim::flat_params(&other));
    assert_ne!(
        voltages(&trace_of(&net, &st)),
        voltages(&before),
        "new weights must move the drive"
    );
    assert_coherent(&net, &st, "after set_flat_params");
}

#[test]
fn cached_transpose_follows_a_checkpoint_load() {
    let cfg = SdpConfig::smoke();
    let mut agent = SdpAgent::new(&cfg, 3, cfg.seed);
    let st = states(4, agent.network.config().state_dim);
    let before = trace_of(&agent.network, &st);
    let source = SdpAgent::new(&cfg, 3, cfg.seed ^ 0x5eed);
    let path = tmp("coherent.ckpt");
    checkpoint::save_sdp(&source, &path).unwrap();
    checkpoint::load_sdp(&mut agent, &path).unwrap();
    std::fs::remove_file(&path).ok();
    let after = trace_of(&agent.network, &st);
    assert_ne!(voltages(&after), voltages(&before), "the load must move the drive");
    assert_eq!(after, trace_of(&source.network, &st), "loaded network must run the saved weights");
    assert_coherent(&agent.network, &st, "after a checkpoint load");
}

#[test]
fn mutating_a_clone_leaves_the_original_unchanged() {
    let net = small_net(Encoding::Deterministic);
    let st = states(4, net.config().state_dim);
    let original = trace_of(&net, &st);
    let mut copy = net.clone();
    assert_eq!(copy, net, "a clone equals its source whatever either has cached");
    let other = SdpNetwork::new(net.config().clone(), &mut StdRng::seed_from_u64(5));
    optim::set_flat_params(&mut copy, &optim::flat_params(&other));
    assert_ne!(trace_of(&copy, &st), original, "the clone must run its new weights");
    assert_eq!(trace_of(&net, &st), original, "mutating a clone changed the original");
    assert_coherent(&copy, &st, "mutated clone");
    assert_coherent(&net, &st, "original");
}

#[test]
fn one_workspace_serves_two_networks_of_the_same_shape() {
    let a = small_net(Encoding::Deterministic);
    let b = SdpNetwork::new(a.config().clone(), &mut StdRng::seed_from_u64(8));
    let batch = 3;
    let st = states(batch, a.config().state_dim);
    let (want_a, want_b) = (trace_of(&a, &st), trace_of(&b, &st));
    assert_ne!(want_a, want_b);
    let mut ws = BatchWorkspace::new(&a, batch);
    for round in 0..2 {
        assert_eq!(trace_with(&a, &st, &mut ws), want_a, "round {round}: network a");
        assert_eq!(trace_with(&b, &st, &mut ws), want_b, "round {round}: network b");
    }
}

#[test]
fn concurrent_first_forward_passes_agree_with_the_serial_one() {
    // Two threads race to build the cache of a network that has never run
    // (two training workers, or two serve workers, on a new weight
    // version). A wide layer 0 keeps the build long enough to overlap.
    let mut cfg = SdpNetworkConfig::small(40, 4);
    cfg.hidden = vec![128, 64];
    let template = SdpNetwork::new(cfg, &mut StdRng::seed_from_u64(13));
    let batch = 2;
    let st = states(batch, template.config().state_dim);
    let serial = trace_of(&template.clone(), &st);
    for attempt in 0..8 {
        let net = template.clone();
        let barrier = std::sync::Barrier::new(2);
        let traces: Vec<BatchNetworkTrace> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut ws = BatchWorkspace::new(&net, batch);
                        barrier.wait();
                        trace_with(&net, &st, &mut ws)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (w, trace) in traces.iter().enumerate() {
            assert_eq!(*trace, serial, "attempt {attempt}, worker {w}");
        }
    }
}
