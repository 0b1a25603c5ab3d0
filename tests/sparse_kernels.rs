//! Equivalence battery for the event-driven sparse spike kernels.
//!
//! Locks the sparse path to the dense reference at three levels:
//!
//! * **Network level** — batched forward traces and backward gradients at
//!   b1/b8/b32 are *bitwise* equal between a default workspace and one
//!   built with [`BatchWorkspace::dense_reference`], for hard, soft,
//!   adaptive (ALIF) and 64-wide (a full register tile) networks.
//! * **Training level** — thread-count invariance holds on the sparse
//!   path, and a short seeded training loop on Table-3 slice states lands
//!   on bit-identical final weights with either kernel set.
//! * **Kernel level** — a proptest battery over adversarial spike
//!   patterns (all-zero timesteps, fully-dense timesteps, single-neuron
//!   spikes, ragged per-sample sparsity) pins `spike_drive` /
//!   `spike_outer_acc` bitwise to the dense GEMMs, with output widths that
//!   reach every register tile (64/32/16/8 lanes and the partial tail).
//!   Deterministic cases add the paper-scale layer-0 shape and a shape
//!   above the k-major merge threshold.
//!
//! The accounting test closes the loop the CI bench smoke also checks:
//! the event count tallied by the kernels while propagating spikes must
//! equal the cost model's independently derived synops exactly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikefolio::agent::SdpAgent;
use spikefolio::config::SdpConfig;
use spikefolio::training::Trainer;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_profile::CostReport;
use spikefolio_snn::encoder::Encoding;
use spikefolio_snn::network::{SdpNetwork, SdpNetworkConfig};
use spikefolio_snn::neuron::SpikeFn;
use spikefolio_snn::{stbp, BatchNetworkTrace, BatchWorkspace, SpikeSet};
use spikefolio_telemetry::NoopRecorder;
use spikefolio_tensor::optim::{self, Adam, ClippedAdam};
use spikefolio_tensor::{gemm, sparse, Matrix};

const BATCHES: [usize; 3] = [1, 8, 32];

fn states(batch: usize, dim: usize) -> Matrix {
    Matrix::from_fn(batch, dim, |b, d| 0.7 + 0.04 * ((b * dim + d) % 17) as f64)
}

fn nets() -> Vec<(&'static str, SdpNetwork)> {
    let mut rng = StdRng::seed_from_u64(7);
    let hard = SdpNetwork::new(
        {
            let mut c = SdpNetworkConfig::small(6, 3);
            c.hidden = vec![12, 9];
            c
        },
        &mut rng,
    );
    let prob = SdpNetwork::new(
        {
            let mut c = SdpNetworkConfig::small(6, 3);
            c.encoder.encoding = Encoding::Probabilistic;
            c
        },
        &mut rng,
    );
    let soft = SdpNetwork::new(
        {
            let mut c = SdpNetworkConfig::small(6, 3);
            c.spike_fn = SpikeFn::Soft { temperature: 0.4 };
            c
        },
        &mut rng,
    );
    let alif = SdpNetwork::new(
        {
            let mut c = SdpNetworkConfig::small(6, 3);
            c.adaptation = Some(spikefolio_snn::neuron::AdaptiveParams { beta: 0.6, rho: 0.85 });
            c
        },
        &mut rng,
    );
    let wide = SdpNetwork::new(
        {
            let mut c = SdpNetworkConfig::small(6, 3);
            c.hidden = vec![64, 12];
            c
        },
        &mut rng,
    );
    vec![("hard", hard), ("probabilistic", prob), ("soft", soft), ("alif", alif), ("wide", wide)]
}

/// Runs the pinned forward pass on `ws` (sample `b` seeded `1000 + b`)
/// and returns the trace and the workspace.
fn forward_on(net: &SdpNetwork, mut ws: BatchWorkspace) -> (BatchNetworkTrace, BatchWorkspace) {
    let batch = ws.batch();
    let st = states(batch, net.config().state_dim);
    let mut trace = BatchNetworkTrace::new(net, batch);
    let mut rngs: Vec<StdRng> =
        (0..batch).map(|b| StdRng::seed_from_u64(1000 + b as u64)).collect();
    net.forward_batch(&st, &mut rngs, &mut ws, &mut trace, &mut NoopRecorder);
    (trace, ws)
}

#[test]
fn forward_traces_are_bitwise_equal_at_all_batch_sizes() {
    for (kind, net) in nets() {
        for batch in BATCHES {
            let (dense, _) = forward_on(&net, BatchWorkspace::dense_reference(&net, batch));
            let (sparse_t, _) = forward_on(&net, BatchWorkspace::new(&net, batch));
            // Whole-trace equality: voltages, thresholds, spikes, spike
            // sets, actions, stats, and the kernel event tally.
            assert_eq!(sparse_t, dense, "{kind} net, batch {batch}");
            assert!(sparse_t.kernel_events > 0, "{kind} net produced no events");
        }
    }
}

#[test]
fn backward_gradients_are_bitwise_equal_at_all_batch_sizes() {
    for (kind, net) in nets() {
        for batch in BATCHES {
            let (trace, mut ws) = forward_on(&net, BatchWorkspace::new(&net, batch));
            let mut dense_ws = BatchWorkspace::dense_reference(&net, batch);
            let d_actions =
                Matrix::from_fn(batch, 3, |b, a| 0.2 - 0.1 * a as f64 + 0.01 * b as f64);
            let dense = stbp::backward_batch(
                &net,
                &trace,
                &d_actions,
                0.05,
                &mut dense_ws,
                &mut NoopRecorder,
            );
            let sparse_g =
                stbp::backward_batch(&net, &trace, &d_actions, 0.05, &mut ws, &mut NoopRecorder);
            assert_eq!(
                stbp::flat_params(&sparse_g),
                stbp::flat_params(&dense),
                "{kind} net, batch {batch}"
            );
        }
    }
}

#[test]
fn training_is_thread_count_invariant_on_the_sparse_path() {
    // PR 1's contract: per-sample seeding makes trained parameters
    // independent of the worker count. The sparse kernels reuse the same
    // micro-batch workspaces, so the invariance must survive.
    let (train, _) = ExperimentPreset::experiment1().shrunk(40, 10).generate_split(5);
    let mut cfg = SdpConfig::smoke();
    cfg.training.epochs = 2;
    cfg.training.steps_per_epoch = 6;
    cfg.training.batch_size = 8;
    let run = |threads: usize| {
        let mut c = cfg.clone();
        c.training.parallelism = threads;
        let mut agent = SdpAgent::new(&c, train.num_assets(), 3);
        let log = Trainer::new(&c).train_sdp(&mut agent, &train);
        (stbp::flat_params(&agent.network), log.epoch_rewards)
    };
    let (p1, r1) = run(1);
    let (p4, r4) = run(4);
    assert_eq!(r1, r4, "epoch rewards must not depend on thread count");
    assert_eq!(p1, p4, "trained parameters must not depend on thread count");
}

#[test]
fn trained_model_regression_sparse_equals_dense_on_table3_slice() {
    // A short seeded training loop (forward → STBP → Adam) on states of a
    // Table-3 slice, run once on the event-driven kernels and once on the
    // dense reference. Both the reward curves and the final weights must
    // match bitwise.
    let (train, _) = ExperimentPreset::experiment1().shrunk(30, 8).generate_split(11);
    let cfg = SdpConfig::smoke();
    let agent = SdpAgent::new(&cfg, train.num_assets(), 3);
    let (batch, steps) = (6, 10);
    let w = vec![1.0 / (train.num_assets() + 1) as f64; train.num_assets() + 1];
    let t0 = agent.state_builder().min_period().max(1);
    let span = train.num_periods() - 1 - t0;
    let periods: Vec<usize> = (0..batch * steps).map(|i| t0 + (i * 7) % span).collect();
    let dim = agent.network.config().state_dim;
    let run = |mut ws: BatchWorkspace| {
        let mut net = agent.network.clone();
        let mut trainer = ClippedAdam::new(&net, Adam::new(cfg.training.learning_rate), Some(10.0));
        let mut trace = BatchNetworkTrace::new(&net, batch);
        let mut rewards = Vec::with_capacity(steps);
        for step in periods.chunks(batch) {
            let rows: Vec<Vec<f64>> = step.iter().map(|&t| agent.state(&train, t, &w)).collect();
            let st = Matrix::from_fn(batch, dim, |b, d| rows[b][d]);
            let mut rngs: Vec<StdRng> =
                step.iter().map(|&t| StdRng::seed_from_u64(t as u64)).collect();
            net.forward_batch(&st, &mut rngs, &mut ws, &mut trace, &mut NoopRecorder);
            // Descend on the negated log return −ln(a·y) of each sample.
            let mut d_actions = Matrix::zeros(batch, w.len());
            let mut reward = 0.0;
            for (b, &t) in step.iter().enumerate() {
                let y = train.price_relatives_with_cash(t + 1);
                let growth: f64 = trace.action(b).iter().zip(&y).map(|(a, y)| a * y).sum();
                reward += growth.ln();
                for (d, y) in d_actions.row_mut(b).iter_mut().zip(&y) {
                    *d = -y / growth;
                }
            }
            rewards.push(reward);
            let mut grads = stbp::backward_batch(
                &net,
                &trace,
                &d_actions,
                cfg.training.rate_penalty,
                &mut ws,
                &mut NoopRecorder,
            );
            optim::scale(&mut grads, 1.0 / batch as f64);
            trainer.apply(&mut net, &mut grads);
        }
        (stbp::flat_params(&net), rewards)
    };
    let (dense_params, dense_rewards) = run(BatchWorkspace::dense_reference(&agent.network, batch));
    let (sparse_params, sparse_rewards) = run(BatchWorkspace::new(&agent.network, batch));
    assert_eq!(sparse_rewards, dense_rewards, "training curves must match bitwise");
    assert_eq!(sparse_params, dense_params, "final weights must match bitwise");
    assert_ne!(sparse_params, stbp::flat_params(&agent.network), "training must move the weights");
}

#[test]
fn kernel_event_tally_matches_cost_model_synops() {
    let net = SdpNetwork::new(SdpNetworkConfig::small(16, 4), &mut StdRng::seed_from_u64(2016));
    let batch = 32;
    let (trace, _) = forward_on(&net, BatchWorkspace::new(&net, batch));
    // Three independent tallies of the same quantity: the kernels' own
    // running count, the stats recomputation from the dense rasters, and
    // the cost model fed by per-layer spike counts.
    assert_eq!(trace.kernel_events, trace.stats.synops);
    let shapes: Vec<(usize, usize)> =
        net.layers.iter().map(|l| (l.in_dim(), l.out_dim())).collect();
    let cost = CostReport::from_workload(
        &shapes,
        net.config().timesteps,
        batch,
        trace.stats.encoder_spikes,
        &trace.layer_spikes,
    );
    assert_eq!(trace.kernel_events, cost.total_synops());
}

// ---------------------------------------------------------------------------
// Kernel-level proptest battery over adversarial spike patterns.
// ---------------------------------------------------------------------------

/// Deterministic adversarial raster: `pattern` selects the shape family.
fn adversarial_raster(pattern: usize, rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    match pattern {
        // All-zero timesteps: a random raster with every third row (and
        // the first) silenced.
        0 => {
            let mut m =
                Matrix::from_fn(rows, cols, |_, _| if rng.gen_bool(0.4) { 1.0 } else { 0.0 });
            for r in 0..rows {
                if r == 0 || r % 3 == 0 {
                    m.row_mut(r).iter_mut().for_each(|v| *v = 0.0);
                }
            }
            m
        }
        // Fully-dense timesteps: every neuron fires every step.
        1 => Matrix::filled(rows, cols, 1.0),
        // Single-neuron spikes: exactly one event per row.
        2 => {
            let mut m = Matrix::zeros(rows, cols);
            for r in 0..rows {
                let c = rng.gen_range(0..cols);
                m.row_mut(r)[c] = 1.0;
            }
            m
        }
        // Ragged per-sample sparsity: per-row density swept 0..=100%,
        // with graded "soft" spike values in (0, 1].
        _ => {
            let mut m = Matrix::zeros(rows, cols);
            for r in 0..rows {
                let density = r as f64 / rows.max(1) as f64;
                for c in 0..cols {
                    if rng.gen_bool(density) {
                        m.row_mut(r)[c] = 0.25 + 0.75 * rng.gen_range(0.0..1.0);
                    }
                }
            }
            m
        }
    }
}

fn weights(out_dim: usize, in_dim: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
    Matrix::from_fn(out_dim, in_dim, |_, _| rng.gen_range(-0.5..0.5))
}

/// `spike_drive` against `gemm_nt` on one `bsz × in_dim` raster at ~30%
/// density, binary or graded.
fn assert_drive_matches_dense(bsz: usize, in_dim: usize, out_dim: usize, soft: bool, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let vals = Matrix::from_fn(bsz, in_dim, |_, _| match (rng.gen_bool(0.3), soft) {
        (false, _) => 0.0,
        (true, false) => 1.0,
        (true, true) => 0.25 + 0.75 * rng.gen_range(0.0..1.0),
    });
    let set = SpikeSet::from_matrix(&vals);
    let w = weights(out_dim, in_dim, seed);
    let mut dense = vec![0.0; bsz * out_dim];
    gemm::gemm_nt(vals.as_slice(), w.as_slice(), &mut dense, bsz, in_dim, out_dim);
    let mut sparse_out = vec![f64::NAN; bsz * out_dim];
    let wt = w.transposed();
    let synops = sparse::spike_drive(
        vals.as_slice(),
        &set,
        0,
        wt.as_slice(),
        &mut sparse_out,
        bsz,
        in_dim,
        out_dim,
    );
    let label = format!("B={bsz} {in_dim}x{out_dim} soft={soft}");
    assert!(dense.iter().all(|v| *v != 0.0), "{label}: every output must see events");
    assert_eq!(sparse_out, dense, "{label}");
    assert_eq!(synops, set.nnz() * out_dim as u64, "{label}");
}

#[test]
fn drive_matches_dense_at_the_paper_layer0_shape() {
    // The medium-scale layer 0: a 1656-wide population code into 64
    // neurons, one micro-batch of 16 (one full 64-lane tile per sample).
    for soft in [false, true] {
        assert_drive_matches_dense(16, 1656, 64, soft, 41);
    }
}

#[test]
fn drive_matches_dense_above_the_kmajor_threshold() {
    // 3640 x 128 weights are 3.6 MiB: batches of 4 and more take the
    // k-major merge, a batch of one the per-sample tiled walk.
    for bsz in [1, 4, 16] {
        for soft in [false, true] {
            assert_drive_matches_dense(bsz, 3640, 128, soft, 43);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `spike_drive` equals `gemm_nt` bitwise over every adversarial
    /// pattern family.
    #[test]
    fn drive_matches_dense_over_adversarial_patterns(
        pattern in 0usize..4,
        bsz in 1usize..7,
        t_max in 1usize..5,
        in_dim in 1usize..40,
        out_dim in 1usize..=130,
        seed in 0u64..1000,
    ) {
        let rows = t_max * bsz;
        let stack = adversarial_raster(pattern, rows, in_dim, seed);
        let set = SpikeSet::from_matrix(&stack);
        let w = weights(out_dim, in_dim, seed);
        let wt = w.transposed();
        for t in 0..t_max {
            let block = &stack.as_slice()[t * bsz * in_dim..(t + 1) * bsz * in_dim];
            let mut dense = vec![0.0; bsz * out_dim];
            gemm::gemm_nt(block, w.as_slice(), &mut dense, bsz, in_dim, out_dim);

            let mut sparse_out = vec![f64::NAN; bsz * out_dim];
            let synops = sparse::spike_drive(
                block, &set, t * bsz, wt.as_slice(), &mut sparse_out,
                bsz, in_dim, out_dim,
            );
            prop_assert_eq!(&sparse_out, &dense);
            let events: u64 =
                (0..bsz).map(|b| set.row(t * bsz + b).len() as u64).sum();
            prop_assert_eq!(synops, events * out_dim as u64);
        }
    }

    /// `spike_outer_acc` equals `gemm_tn_acc` bitwise over every
    /// adversarial pattern family.
    #[test]
    fn weight_grad_matches_dense_over_adversarial_patterns(
        pattern in 0usize..4,
        rows in 1usize..24,
        m in 1usize..16,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let b = adversarial_raster(pattern, rows, n, seed);
        let set = SpikeSet::from_matrix(&b);
        let a = weights(rows, m, seed ^ 1); // dense delta stack
        let start = weights(m, n, seed ^ 2); // non-zero accumulator start
        let mut dense = start.clone();
        gemm::gemm_tn_acc(0.9, a.as_slice(), b.as_slice(), dense.as_mut_slice(), rows, m, n);
        let mut sparse_out = start.clone();
        sparse::spike_outer_acc(
            0.9, a.as_slice(), b.as_slice(), &set, sparse_out.as_mut_slice(), rows, m, n,
        );
        prop_assert_eq!(sparse_out.as_slice(), dense.as_slice());
    }

    /// The spike-set round-trip holds for every adversarial pattern: the
    /// occupancy marks exactly the non-zero entries, in ascending order.
    #[test]
    fn spike_set_round_trips_adversarial_patterns(
        pattern in 0usize..4,
        rows in 1usize..20,
        cols in 1usize..50,
        seed in 0u64..1000,
    ) {
        let m = adversarial_raster(pattern, rows, cols, seed);
        let set = SpikeSet::from_matrix(&m);
        prop_assert_eq!(set.rows(), rows);
        prop_assert_eq!(set.cols(), cols);
        let nonzero = m.as_slice().iter().filter(|&&x| x != 0.0).count() as u64;
        prop_assert_eq!(set.nnz(), nonzero);
        for r in 0..rows {
            let row = set.row(r);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {} not ascending", r);
            for &c in row {
                prop_assert!(m.row(r)[c as usize] != 0.0);
            }
        }
    }
}
