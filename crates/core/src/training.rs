//! Deterministic policy-gradient training (Jiang-style) for all four
//! learners: the spiking SDP agent and the dense DRL\[Jiang\], EIIE and
//! DDPG baselines.
//!
//! The objective is eq. (1): maximize the mean log portfolio return over
//! minibatches of market periods drawn from the training range. Following
//! Jiang et al., a **portfolio vector memory** (PVM) stores the weights
//! last chosen at every period so that transaction costs enter the reward
//! with realistic previous positions, and minibatch periods are sampled
//! with a geometric bias toward recent data.
//!
//! For each sampled decision period `t`:
//!
//! 1. drift the PVM weights of `t−1` through the period-`t` price move,
//! 2. build the state (window + drifted weights) and run the policy,
//! 3. reward `r = ln(μ_t(a, w′) · (y_{t+1} · a))`,
//! 4. ascend `∂r/∂a` through STBP (spiking) or plain backprop (dense),
//! 5. write `a` back into the PVM.
//!
//! Every learner then takes the same step per minibatch: average the
//! summed gradients, clip their global norm and apply Adam, through one
//! [`ClippedAdam`] per network. SDP runs its minibatch through the batched
//! SNN engine on parallel workers ([`SdpTrainingSession`]); the three
//! dense baselines share one sequential per-sample loop and differ only in
//! their forward/backward pass and, for DDPG, in training a critic beside
//! the actor.

use crate::agent::SdpAgent;
use crate::config::SdpConfig;
use crate::ddpg::DdpgAgent;
use crate::drl::DrlAgent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use spikefolio_ann::eiie::{EiieGradients, EiieTrace};
use spikefolio_ann::mlp::MlpTrace;
use spikefolio_ann::MlpGradients;
use spikefolio_env::CostModel;
use spikefolio_market::MarketData;
use spikefolio_snn::network::SpikeStats;
use spikefolio_snn::stbp;
use spikefolio_snn::{BatchNetworkTrace, BatchWorkspace, SdpNetwork};
use spikefolio_telemetry::{
    labels, MemoryRecorder, NoopRecorder, Record, Recorder, Stopwatch, Value,
};
use spikefolio_tensor::optim::{self, Adam, ClippedAdam, Params};
use spikefolio_tensor::vector::dot;
use spikefolio_tensor::Matrix;
use std::time::Instant;

/// Per-epoch training diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingLog {
    /// Mean minibatch reward (eq. 1 summand) per epoch.
    pub epoch_rewards: Vec<f64>,
    /// Wall-clock seconds each epoch took.
    pub epoch_wall_s: Vec<f64>,
    /// Mean global gradient L2 norm (pre-clipping) over each epoch's
    /// steps.
    pub epoch_grad_norms: Vec<f64>,
    /// Number of gradient steps taken.
    pub steps: usize,
}

impl TrainingLog {
    /// An empty log with vectors sized for `epochs`.
    pub fn with_capacity(epochs: usize) -> Self {
        Self {
            epoch_rewards: Vec::with_capacity(epochs),
            epoch_wall_s: Vec::with_capacity(epochs),
            epoch_grad_norms: Vec::with_capacity(epochs),
            steps: 0,
        }
    }

    /// Appends one epoch's diagnostics, keeping the series aligned.
    pub fn push_epoch(&mut self, stats: &EpochStats) {
        self.epoch_rewards.push(stats.reward);
        self.epoch_wall_s.push(stats.wall_s);
        self.epoch_grad_norms.push(stats.grad_norm);
    }

    /// Mean reward of the final epoch (0.0 if empty).
    pub fn final_reward(&self) -> f64 {
        self.epoch_rewards.last().copied().unwrap_or(0.0)
    }

    /// Whether the final epoch beat the first one.
    ///
    /// `false` for an empty log; a single epoch trivially "improves" on
    /// itself. Any NaN reward at either end compares `false`.
    pub fn improved(&self) -> bool {
        match (self.epoch_rewards.first(), self.epoch_rewards.last()) {
            (Some(a), Some(b)) => b >= a,
            _ => false,
        }
    }
}

/// Diagnostics of one training epoch, as returned by
/// [`SdpTrainingSession::run_epoch_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean sample reward (eq. 1 summand).
    pub reward: f64,
    /// Wall-clock seconds the epoch took.
    pub wall_s: f64,
    /// Mean global gradient L2 norm (pre-clipping) over the epoch's
    /// steps.
    pub grad_norm: f64,
}

/// The portfolio vector memory of Jiang et al.
#[derive(Debug, Clone)]
struct Pvm {
    weights: Vec<Vec<f64>>,
}

impl Pvm {
    fn new(periods: usize, n: usize) -> Self {
        let uniform = vec![1.0 / n as f64; n];
        Self { weights: vec![uniform; periods] }
    }

    fn get(&self, t: usize) -> &[f64] {
        &self.weights[t]
    }

    fn set(&mut self, t: usize, w: Vec<f64>) {
        self.weights[t] = w;
    }
}

/// Drifts weights `w` through the price-relative vector `y`:
/// `w′ = (y ⊙ w) / (y · w)`.
fn drift(w: &[f64], y: &[f64]) -> Vec<f64> {
    let growth = dot(w, y).max(1e-12);
    w.iter().zip(y).map(|(&wi, &yi)| wi * yi / growth).collect()
}

/// Reward and its gradient with respect to the action.
///
/// Returns `(r, ∂r/∂a)` with
/// `r = ln(μ(a, w′)) + ln(y · a)` and the cost term differentiated through
/// the proportional turnover model (the iterative model uses its combined
/// rate as a first-order approximation — the standard treatment).
fn reward_and_grad(
    action: &[f64],
    y_next: &[f64],
    w_drifted: &[f64],
    costs: &CostModel,
) -> (f64, Vec<f64>) {
    let mu = costs.shrink_factor(action, w_drifted);
    let growth = dot(y_next, action).max(1e-12);
    let r = (mu * growth).ln();
    // Linear cost rate: the iterative model's combined rate and the
    // frictional model's commission + half-spread are both first-order
    // approximations (impact is second-order in trade size).
    let rate = costs.linear_rate();
    let grad: Vec<f64> = action
        .iter()
        .zip(y_next.iter().zip(w_drifted))
        .enumerate()
        .map(|(i, (&ai, (&yi, &wi)))| {
            let mut g = yi / growth;
            if i > 0 && rate > 0.0 {
                // ∂μ/∂a_i = −rate · sign(a_i − w′_i) (risky legs only);
                // subgradient 0 at the kink (f64::signum(0.0) is 1, so an
                // explicit comparison is needed).
                let d = ai - wi;
                let sign = if d > 0.0 {
                    1.0
                } else if d < 0.0 {
                    -1.0
                } else {
                    0.0
                };
                g -= rate * sign / mu;
            }
            g
        })
        .collect();
    (r, grad)
}

/// One sampled training example, prepared sequentially in phase 1 of a
/// minibatch step.
struct SampleItem {
    t: usize,
    w_drifted: Vec<f64>,
    state: Vec<f64>,
    seed: u64,
}

/// Reusable batched-execution buffers, one entry per micro-batch size
/// encountered so far. Each worker slot owns one cache so the hot loop
/// stays allocation-free across steps and epochs.
type BatchCache = Vec<(usize, BatchWorkspace, BatchNetworkTrace)>;

/// Observation-only measurements taken inside a worker while it processed
/// one micro-batch. Collected per micro-batch (workers cannot share the
/// caller's recorder) and folded into the epoch's telemetry on the main
/// thread. `None` unless a recorder is enabled.
struct MicroTelemetry {
    /// Seconds spent in the batched forward pass.
    forward_s: f64,
    /// Seconds spent in the batched STBP backward pass.
    backward_s: f64,
    /// Seconds of the forward pass spent population-encoding states.
    encode_s: f64,
    /// Seconds of the forward pass spent in the LIF timestep loop.
    lif_s: f64,
    /// Seconds spent inside the STBP recurrences (excludes caller glue).
    stbp_s: f64,
    /// Spike/synop event counters of the forward pass.
    stats: SpikeStats,
    /// Spikes emitted per LIF layer.
    layer_spikes: Vec<u64>,
}

/// Per-sample `(period, action, reward)` rows plus the summed gradients of
/// one processed micro-batch, and its measurements when observing.
type MicroBatchResult = (Vec<(usize, Vec<f64>, f64)>, stbp::SdpGradients, Option<MicroTelemetry>);

/// Runs one micro-batch through the batched SNN engine: forward all
/// samples together, differentiate the reward per sample, then one
/// batched STBP backward pass. Returns `(t, action, reward)` per sample
/// (in item order) and the micro-batch's summed gradients.
///
/// `observe` requests timing + spike-counter capture; it must not change
/// any computed value (the observe-only telemetry contract).
fn process_micro_batch(
    network: &SdpNetwork,
    market: &MarketData,
    costs: &CostModel,
    rate_penalty: f64,
    items: &[SampleItem],
    cache: &mut BatchCache,
    observe: bool,
) -> MicroBatchResult {
    let bsz = items.len();
    let state_dim = items[0].state.len();
    let slot = match cache.iter().position(|(n, _, _)| *n == bsz) {
        Some(i) => i,
        None => {
            cache.push((
                bsz,
                BatchWorkspace::new(network, bsz),
                BatchNetworkTrace::new(network, bsz),
            ));
            cache.len() - 1
        }
    };
    let (_, ws, trace) = &mut cache[slot];
    let states = Matrix::from_fn(bsz, state_dim, |b, d| items[b].state[d]);
    let mut rngs: Vec<StdRng> = items.iter().map(|item| StdRng::seed_from_u64(item.seed)).collect();
    // Workers cannot share the caller's `&mut dyn Recorder`, so profiled
    // sub-phase spans are captured into a local recorder per micro-batch
    // and folded into the epoch telemetry on the main thread.
    let mut micro_rec = observe.then(MemoryRecorder::new);
    let mut noop = NoopRecorder;
    let rec: &mut dyn Recorder = match micro_rec.as_mut() {
        Some(m) => m,
        None => &mut noop,
    };
    let t0 = observe.then(Instant::now);
    network.forward_batch(&states, &mut rngs, ws, trace, rec);
    let forward_s = t0.map_or(0.0, |t| t.elapsed().as_secs_f64());

    let action_dim = trace.actions.shape().1;
    let mut d_actions = Matrix::zeros(bsz, action_dim);
    let mut samples = Vec::with_capacity(bsz);
    for (b, item) in items.iter().enumerate() {
        let action = trace.action(b).to_vec();
        let y_next = market.price_relatives_with_cash(item.t + 1);
        let (r, dr) = reward_and_grad(&action, &y_next, &item.w_drifted, costs);
        // Gradient *descent* on L = −r (+ optional rate penalty).
        for (o, g) in d_actions.row_mut(b).iter_mut().zip(&dr) {
            *o = -g;
        }
        samples.push((item.t, action, r));
    }
    let t1 = observe.then(Instant::now);
    let grads = stbp::backward_batch(network, trace, &d_actions, rate_penalty, ws, rec);
    let telemetry = t1.map(|t| {
        // `observe` implies `micro_rec` above; an empty fallback keeps the
        // fold total-safe either way.
        let span = |label| micro_rec.as_ref().map_or(0.0, |m| m.span_total(label).0);
        MicroTelemetry {
            forward_s,
            backward_s: t.elapsed().as_secs_f64(),
            encode_s: span(labels::SPAN_PROFILE_SNN_ENCODE),
            lif_s: span(labels::SPAN_PROFILE_SNN_LIF),
            stbp_s: span(labels::SPAN_PROFILE_SNN_STBP),
            stats: trace.stats,
            layer_spikes: trace.layer_spikes.clone(),
        }
    });
    (samples, grads, telemetry)
}

/// Samples a decision period in `[min_t, max_t]` with geometric bias
/// `lambda` toward `max_t` (0 = uniform).
fn sample_period(rng: &mut StdRng, min_t: usize, max_t: usize, lambda: f64) -> usize {
    debug_assert!(min_t <= max_t);
    if lambda <= 0.0 {
        return rng.gen_range(min_t..=max_t);
    }
    for _ in 0..64 {
        // Exponential sample via inverse CDF.
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let back = (-u.ln() / lambda) as usize;
        if max_t - min_t >= back {
            return max_t - back;
        }
    }
    rng.gen_range(min_t..=max_t)
}

/// Trainer for the SDP agent and the DRL, EIIE and DDPG baselines.
///
/// See the [crate docs](crate) for a quickstart.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: SdpConfig,
}

/// Persistent state of an in-progress SDP training run: the optimizer
/// moments, portfolio-vector memory, and RNG streams survive between
/// epochs so that epoch-at-a-time drivers (early stopping, curricula)
/// behave identically to one long [`Trainer::train_sdp`] call.
#[derive(Debug)]
pub struct SdpTrainingSession<'m> {
    market: &'m MarketData,
    pvm: Pvm,
    trainer: ClippedAdam,
    sample_rng: StdRng,
    min_t: usize,
    max_t: usize,
    tc: crate::config::TrainingConfig,
    costs: CostModel,
    step_counter: u64,
    epochs_run: u64,
    worker_caches: Vec<BatchCache>,
    /// The minibatch gradient, reduced in place every step.
    grads: stbp::SdpGradients,
    /// Pre-step parameters, copied only when observing the update size.
    params_before: Vec<f64>,
}

/// Point-in-time copy of everything that determines an SDP session's
/// future: network parameters, optimizer moments, portfolio-vector
/// memory, sampling RNG, and the step/epoch counters. Restoring a
/// snapshot and re-running an epoch reproduces it bit for bit — the
/// mechanism behind the guarded trainer's rollback recovery
/// (see [`crate::guarded`]). Worker scratch buffers are excluded; they
/// carry no training state.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    params: Vec<f64>,
    trainer: ClippedAdam,
    pvm: Pvm,
    sample_rng: StdRng,
    step_counter: u64,
    epochs_run: u64,
}

impl SessionSnapshot {
    /// The flat network parameters captured in this snapshot.
    pub fn params(&self) -> &[f64] {
        &self.params
    }
}

impl SdpTrainingSession<'_> {
    /// Captures the full training state (including `agent`'s parameters).
    pub fn snapshot(&self, agent: &SdpAgent) -> SessionSnapshot {
        SessionSnapshot {
            params: stbp::flat_params(&agent.network),
            trainer: self.trainer.clone(),
            pvm: self.pvm.clone(),
            sample_rng: self.sample_rng.clone(),
            step_counter: self.step_counter,
            epochs_run: self.epochs_run,
        }
    }

    /// Restores the session and `agent` to a captured state. Subsequent
    /// epochs replay bit-for-bit what would have run from that point.
    ///
    /// # Panics
    ///
    /// Panics if `agent`'s network shape differs from the snapshot's.
    pub fn restore(&mut self, agent: &mut SdpAgent, snap: &SessionSnapshot) {
        stbp::set_flat_params(&mut agent.network, &snap.params);
        self.trainer = snap.trainer.clone();
        self.pvm = snap.pvm.clone();
        self.sample_rng = snap.sample_rng.clone();
        self.step_counter = snap.step_counter;
        self.epochs_run = snap.epochs_run;
    }

    /// Epochs completed so far (rolled-back epochs excluded).
    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    /// The current global-norm gradient clip (None = unclipped).
    pub fn max_grad_norm(&self) -> Option<f64> {
        self.trainer.max_grad_norm
    }

    /// Overrides the global-norm gradient clip — the guarded trainer's
    /// `Clip` recovery tightens this before retrying an epoch.
    pub fn set_max_grad_norm(&mut self, clip: Option<f64>) {
        self.trainer.max_grad_norm = clip;
    }

    /// Runs one epoch (`steps_per_epoch` minibatches) of STBP training on
    /// `agent`, returning the epoch's mean sample reward.
    ///
    /// Every minibatch runs on the batched SNN engine
    /// ([`SdpNetwork::forward_batch`] / [`stbp::backward_batch`]):
    ///
    /// 1. **Phase 1 (sequential):** sample periods, read the PVM, build
    ///    states, and assign each sample a seed derived from
    ///    `(step, sample index)`.
    /// 2. **Phase 2 (parallel):** split the minibatch into fixed-size
    ///    micro-batches of `training.micro_batch` samples, assigned
    ///    round-robin to `training.parallelism` workers. Each micro-batch
    ///    is one batched forward + reward gradient + batched STBP
    ///    backward, reusing the worker's cached workspace.
    /// 3. **Phase 3 (sequential):** write actions back into the PVM,
    ///    reduce the micro-batch gradients in micro-batch index order into
    ///    the session's gradient buffer (scaling to the batch mean in the
    ///    same pass), and apply the clipped-Adam step. This phase
    ///    allocates nothing.
    ///
    /// Because the work units (micro-batches) and the per-sample encoder
    /// seeds are independent of the worker count, epoch rewards and
    /// trained parameters are identical for any `parallelism >= 1`
    /// (`parallelism == 1` runs the same micro-batches inline without
    /// spawning threads).
    ///
    /// # Panics
    ///
    /// Panics if `agent` does not match the session's market shape.
    pub fn run_epoch(&mut self, agent: &mut SdpAgent) -> f64 {
        self.run_epoch_with(agent, &mut NoopRecorder).reward
    }

    /// [`run_epoch`](Self::run_epoch) with telemetry: phase spans, queue
    /// gauges, and one `"epoch"` record flow into `rec` when it is
    /// enabled. With a [`NoopRecorder`] this is exactly `run_epoch` — all
    /// measurement (clock reads, spike-counter clones, per-layer norm
    /// sums) is skipped and every computed value is bitwise identical
    /// either way.
    ///
    /// # Panics
    ///
    /// Panics if `agent` does not match the session's market shape.
    pub fn run_epoch_with(&mut self, agent: &mut SdpAgent, rec: &mut dyn Recorder) -> EpochStats {
        let observe = rec.enabled();
        let epoch_watch = Stopwatch::start(rec);
        let epoch_t0 = Instant::now();
        let tc = self.tc;
        let workers = tc.parallelism.max(1);
        let micro = tc.micro_batch.max(1);
        if self.worker_caches.len() < workers {
            self.worker_caches.resize_with(workers, Vec::new);
        }
        let mut epoch_reward = 0.0;
        let mut epoch_samples = 0usize;
        let mut grad_norm_sum = 0.0;
        // Observation-only accumulators (filled when `observe`).
        let mut layer_grad_norm_sums: Vec<f64> = Vec::new();
        let mut update_mag_sum = 0.0;
        let mut epoch_spikes = SpikeStats::default();
        let mut epoch_layer_spikes: Vec<u64> = vec![0; agent.network.layers.len()];
        for _step in 0..tc.steps_per_epoch {
            self.step_counter += 1;
            // Phase 1 (sequential): sample periods, read the PVM, build
            // states, fix per-sample encoder seeds.
            let sample_watch = Stopwatch::start(rec);
            let items: Vec<SampleItem> = (0..tc.batch_size)
                .map(|i| {
                    let t = sample_period(
                        &mut self.sample_rng,
                        self.min_t,
                        self.max_t,
                        tc.recency_bias,
                    );
                    let y_t = self.market.price_relatives_with_cash(t);
                    let w_drifted = drift(self.pvm.get(t - 1), &y_t);
                    let state = agent.state(self.market, t, &w_drifted);
                    SampleItem {
                        t,
                        w_drifted,
                        state,
                        seed: self
                            .step_counter
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add(i as u64),
                    }
                })
                .collect();
            sample_watch.stop(rec, labels::SPAN_TRAIN_SAMPLE);

            // Phase 2: batched forward/backward over micro-batches.
            let network = &agent.network;
            let market = self.market;
            let costs = self.costs;
            let rate_penalty = tc.rate_penalty;
            let chunks: Vec<&[SampleItem]> = items.chunks(micro).collect();
            let mut results: Vec<Option<MicroBatchResult>> =
                (0..chunks.len()).map(|_| None).collect();
            if observe {
                rec.gauge(labels::GAUGE_QUEUE_MICRO_BATCHES, chunks.len() as f64);
                rec.gauge(labels::GAUGE_QUEUE_WORKERS, workers as f64);
                rec.gauge(labels::GAUGE_QUEUE_OCCUPANCY, chunks.len() as f64 / workers as f64);
            }
            if workers == 1 {
                let cache = &mut self.worker_caches[0];
                for (slot, chunk) in results.iter_mut().zip(&chunks) {
                    *slot = Some(process_micro_batch(
                        network,
                        market,
                        &costs,
                        rate_penalty,
                        chunk,
                        cache,
                        observe,
                    ));
                }
            } else {
                let chunks = &chunks;
                let outs: Vec<(usize, _)> = std::thread::scope(|scope| {
                    let mut handles = Vec::with_capacity(workers);
                    for (w, cache) in self.worker_caches.iter_mut().take(workers).enumerate() {
                        handles.push(scope.spawn(move || {
                            chunks
                                .iter()
                                .enumerate()
                                .skip(w)
                                .step_by(workers)
                                .map(|(mb, chunk)| {
                                    (
                                        mb,
                                        process_micro_batch(
                                            network,
                                            market,
                                            &costs,
                                            rate_penalty,
                                            chunk,
                                            cache,
                                            observe,
                                        ),
                                    )
                                })
                                .collect::<Vec<_>>()
                        }));
                    }
                    handles
                        .into_iter()
                        .flat_map(|h| {
                            // join() only fails if the worker panicked;
                            // propagating that panic is the correct response.
                            #[allow(clippy::expect_used)]
                            h.join().expect("worker thread panicked")
                        })
                        .collect()
                });
                for (mb, out) in outs {
                    results[mb] = Some(out);
                }
            }

            // Phase 3 (sequential, micro-batch index order): write the
            // PVM, reduce the gradients, step.
            let apply_watch = Stopwatch::start(rec);
            let mut batch_reward = 0.0;
            let mut forward_s = 0.0;
            let mut backward_s = 0.0;
            let mut encode_s = 0.0;
            let mut lif_s = 0.0;
            let mut stbp_s = 0.0;
            for out in &mut results {
                // Every micro-batch slot is filled by exactly one worker
                // above; an empty slot is a scheduler bug worth a panic.
                #[allow(clippy::expect_used)]
                let (samples, _, telemetry) = out.as_mut().expect("micro-batch result missing");
                for (t, action, r) in samples.drain(..) {
                    self.pvm.set(t, action);
                    batch_reward += r;
                }
                if let Some(mt) = telemetry {
                    forward_s += mt.forward_s;
                    backward_s += mt.backward_s;
                    encode_s += mt.encode_s;
                    lif_s += mt.lif_s;
                    stbp_s += mt.stbp_s;
                    epoch_spikes.encoder_spikes += mt.stats.encoder_spikes;
                    epoch_spikes.neuron_spikes += mt.stats.neuron_spikes;
                    epoch_spikes.synops += mt.stats.synops;
                    epoch_spikes.neuron_updates += mt.stats.neuron_updates;
                    for (total, n) in epoch_layer_spikes.iter_mut().zip(&mt.layer_spikes) {
                        *total += n;
                    }
                }
            }
            let grads = &mut self.grads;
            let parts = results.iter().flatten().map(|(_, g, _)| g);
            optim::reduce_scaled(grads, parts, 1.0 / tc.batch_size as f64);
            if observe {
                rec.span(labels::SPAN_TRAIN_FORWARD, forward_s);
                rec.span(labels::SPAN_TRAIN_BACKWARD, backward_s);
                rec.span(labels::SPAN_PROFILE_SNN_ENCODE, encode_s);
                rec.span(labels::SPAN_PROFILE_SNN_LIF, lif_s);
                rec.span(labels::SPAN_PROFILE_SNN_STBP, stbp_s);
                if layer_grad_norm_sums.len() < grads.layers.len() {
                    layer_grad_norm_sums.resize(grads.layers.len(), 0.0);
                }
                for (sum, lg) in layer_grad_norm_sums.iter_mut().zip(&grads.layers) {
                    let sq: f64 = lg.d_weights.as_slice().iter().map(|g| g * g).sum::<f64>()
                        + lg.d_bias.iter().map(|g| g * g).sum::<f64>();
                    *sum += sq.sqrt();
                }
                optim::flat_params_into(&agent.network, &mut self.params_before);
                grad_norm_sum += self.trainer.apply(&mut agent.network, grads);
                update_mag_sum += optim::distance(&self.params_before, &agent.network);
            } else {
                grad_norm_sum += self.trainer.apply(&mut agent.network, grads);
            }
            apply_watch.stop(rec, labels::SPAN_TRAIN_APPLY);
            epoch_reward += batch_reward;
            epoch_samples += tc.batch_size;
        }
        self.epochs_run += 1;
        let steps = tc.steps_per_epoch.max(1) as f64;
        let stats = EpochStats {
            reward: epoch_reward / epoch_samples.max(1) as f64,
            wall_s: epoch_t0.elapsed().as_secs_f64(),
            grad_norm: grad_norm_sum / steps,
        };
        epoch_watch.stop(rec, labels::SPAN_TRAIN_EPOCH);
        if observe {
            let net = &agent.network;
            let samples = epoch_samples as u64;
            // Op-level cost model: dense MACs an equivalent ANN would have
            // executed for this epoch's forwards vs the spike-driven synops
            // actually performed (counted in the forward pass).
            let dense_macs = net
                .layers
                .iter()
                .map(|l| spikefolio_tensor::gemm::dense_mac_count(l.in_dim(), l.out_dim(), 1))
                .fold(0u64, |acc, m| acc.saturating_add(m))
                .saturating_mul(net.config().timesteps as u64)
                .saturating_mul(samples);
            rec.counter(labels::COUNTER_OPS_DENSE_MACS, dense_macs);
            rec.counter(labels::COUNTER_OPS_SYNOPS, epoch_spikes.synops);
            if dense_macs > 0 {
                rec.gauge(
                    labels::GAUGE_OPS_SPARSITY,
                    1.0 - epoch_spikes.synops as f64 / dense_macs as f64,
                );
            }
            rec.emit(
                Record::new("epoch")
                    .field("agent", "sdp")
                    .field("epoch", self.epochs_run - 1)
                    .field("reward", stats.reward)
                    .field("wall_s", stats.wall_s)
                    .field("grad_norm", stats.grad_norm)
                    .field(
                        "grad_norms",
                        layer_grad_norm_sums.iter().map(|s| s / steps).collect::<Vec<f64>>(),
                    )
                    .field("update_mag", update_mag_sum / steps)
                    .field("samples", samples)
                    .field("timesteps", net.config().timesteps as u64)
                    .field("firing_rates", net.layer_firing_rates(&epoch_layer_spikes, samples))
                    .field(
                        "encoder_rate",
                        net.encoder_spike_rate(epoch_spikes.encoder_spikes, samples),
                    )
                    .field(
                        "spikes",
                        Value::Map(vec![
                            ("encoder".into(), Value::U64(epoch_spikes.encoder_spikes)),
                            ("neuron".into(), Value::U64(epoch_spikes.neuron_spikes)),
                            ("synops".into(), Value::U64(epoch_spikes.synops)),
                            ("updates".into(), Value::U64(epoch_spikes.neuron_updates)),
                        ]),
                    ),
            );
        }
        stats
    }
}

impl Trainer {
    /// Creates a trainer from the shared configuration.
    pub fn new(config: &SdpConfig) -> Self {
        Self { config: config.clone() }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &SdpConfig {
        &self.config
    }

    fn bounds(&self, market: &MarketData, window_min: usize) -> (usize, usize) {
        let n = market.num_periods();
        let min_t = window_min.max(1);
        let max_t = n.saturating_sub(2);
        assert!(
            min_t <= max_t,
            "market too short for training: {n} periods, window needs t ≥ {min_t}"
        );
        (min_t, max_t)
    }

    /// Creates a persistent SDP training session (optimizer state, PVM,
    /// RNG streams) over `market`. Used directly for epoch-at-a-time
    /// control (see [`crate::validation`]); [`Trainer::train_sdp`] is the
    /// plain loop on top of it.
    ///
    /// # Panics
    ///
    /// Panics if the market is shorter than the observation window + 2.
    pub fn sdp_session<'m>(
        &self,
        agent: &SdpAgent,
        market: &'m MarketData,
    ) -> SdpTrainingSession<'m> {
        let tc = self.config.training;
        let (min_t, max_t) = self.bounds(market, agent.state_builder().min_period());
        SdpTrainingSession {
            market,
            pvm: Pvm::new(market.num_periods(), market.num_assets() + 1),
            trainer: self.clipped_adam(&agent.network),
            sample_rng: StdRng::seed_from_u64(self.config.seed ^ 0x5d_u64),
            min_t,
            max_t,
            tc,
            costs: self.config.backtest.costs,
            step_counter: 0,
            epochs_run: 0,
            worker_caches: Vec::new(),
            grads: stbp::SdpGradients::zeros_like(&agent.network),
            params_before: Vec::new(),
        }
    }

    /// Trains the spiking agent in place on `market`, returning the log.
    ///
    /// # Panics
    ///
    /// Panics if the market is shorter than the observation window + 2.
    pub fn train_sdp(&self, agent: &mut SdpAgent, market: &MarketData) -> TrainingLog {
        self.train_sdp_with(agent, market, &mut NoopRecorder)
    }

    /// [`train_sdp`](Self::train_sdp) with telemetry: emits one `"epoch"`
    /// record per epoch into `rec` (see
    /// [`SdpTrainingSession::run_epoch_with`]). Training results are
    /// bitwise identical with any recorder.
    ///
    /// # Panics
    ///
    /// Panics if the market is shorter than the observation window + 2.
    pub fn train_sdp_with(
        &self,
        agent: &mut SdpAgent,
        market: &MarketData,
        rec: &mut dyn Recorder,
    ) -> TrainingLog {
        let tc = self.config.training;
        let mut session = self.sdp_session(agent, market);
        let mut log = TrainingLog::with_capacity(tc.epochs);
        for _epoch in 0..tc.epochs {
            let stats = session.run_epoch_with(agent, rec);
            log.steps += tc.steps_per_epoch;
            log.push_epoch(&stats);
        }
        log
    }

    /// Trains the EIIE (convolutional Jiang) baseline in place on
    /// `market` — same deterministic policy gradient, PVM, and sampling
    /// as the other agents.
    ///
    /// # Panics
    ///
    /// Panics if the market is shorter than the observation window + 2.
    pub fn train_eiie(
        &self,
        agent: &mut crate::eiie::EiieAgent,
        market: &MarketData,
    ) -> TrainingLog {
        self.train_eiie_with(agent, market, &mut NoopRecorder)
    }

    /// [`train_eiie`](Self::train_eiie) with telemetry: emits one
    /// `"epoch"` record (agent `"eiie"`) per epoch into `rec`.
    ///
    /// # Panics
    ///
    /// Panics if the market is shorter than the observation window + 2.
    pub fn train_eiie_with(
        &self,
        agent: &mut crate::eiie::EiieAgent,
        market: &MarketData,
        rec: &mut dyn Recorder,
    ) -> TrainingLog {
        let trainer = self.clipped_adam(&agent.network);
        self.train_dense(&mut EiieLearner { agent, trainer }, market, rec)
    }

    /// Trains the dense DRL baseline in place on `market`.
    ///
    /// # Panics
    ///
    /// Panics if the market is shorter than the observation window + 2.
    pub fn train_drl(&self, agent: &mut DrlAgent, market: &MarketData) -> TrainingLog {
        self.train_drl_with(agent, market, &mut NoopRecorder)
    }

    /// [`train_drl`](Self::train_drl) with telemetry: emits one `"epoch"`
    /// record (agent `"drl"`) per epoch into `rec`.
    ///
    /// # Panics
    ///
    /// Panics if the market is shorter than the observation window + 2.
    pub fn train_drl_with(
        &self,
        agent: &mut DrlAgent,
        market: &MarketData,
        rec: &mut dyn Recorder,
    ) -> TrainingLog {
        let trainer = self.clipped_adam(&agent.network);
        self.train_dense(&mut DrlLearner { agent, trainer }, market, rec)
    }

    /// Trains the DDPG-style actor-critic baseline in place on `market`.
    ///
    /// # Panics
    ///
    /// Panics if the market is shorter than the observation window + 2.
    pub fn train_ddpg(&self, agent: &mut DdpgAgent, market: &MarketData) -> TrainingLog {
        self.train_ddpg_with(agent, market, &mut NoopRecorder)
    }

    /// [`train_ddpg`](Self::train_ddpg) with telemetry: emits one
    /// `"epoch"` record (agent `"ddpg"`) per epoch into `rec`.
    ///
    /// Unlike the SDP/DRL/EIIE loops, the reward gradient here is
    /// *indirect*: the critic regresses `Q(s, a)` toward the immediate
    /// eq. (1) reward (the objective is additive, so the myopic target is
    /// exact in expectation), and the actor ascends the critic's action
    /// gradient `∂Q/∂a` — the defining DDPG update.
    ///
    /// # Panics
    ///
    /// Panics if the market is shorter than the observation window + 2.
    pub fn train_ddpg_with(
        &self,
        agent: &mut DdpgAgent,
        market: &MarketData,
        rec: &mut dyn Recorder,
    ) -> TrainingLog {
        let actor_trainer = self.clipped_adam(&agent.actor);
        let critic_trainer = self.clipped_adam(&agent.critic);
        self.train_dense(&mut DdpgLearner { agent, actor_trainer, critic_trainer }, market, rec)
    }

    /// The configured optimizer for one network: Adam at the training
    /// learning rate behind the configured global-norm clip.
    fn clipped_adam(&self, net: &impl Params) -> ClippedAdam {
        let tc = self.config.training;
        ClippedAdam::new(net, Adam::new(tc.learning_rate), Some(tc.max_grad_norm))
    }

    /// The OSBL loop shared by the dense baselines: every sample of a
    /// minibatch runs forward and backward on its own, the summed
    /// gradients are averaged, and one step is applied per minibatch.
    fn train_dense<L: DenseLearner>(
        &self,
        learner: &mut L,
        market: &MarketData,
        rec: &mut dyn Recorder,
    ) -> TrainingLog {
        let tc = self.config.training;
        let costs = self.config.backtest.costs;
        let (min_t, max_t) = self.bounds(market, learner.min_period());
        let mut pvm = Pvm::new(market.num_periods(), market.num_assets() + 1);
        let mut sample_rng = StdRng::seed_from_u64(self.config.seed ^ L::SALT);
        let inv_batch = 1.0 / tc.batch_size as f64;

        let mut log = TrainingLog::with_capacity(tc.epochs);
        for epoch in 0..tc.epochs {
            let epoch_t0 = Instant::now();
            let mut epoch_reward = 0.0;
            let mut epoch_samples = 0usize;
            let mut grad_norm_sum = 0.0;
            for _step in 0..tc.steps_per_epoch {
                let mut grads: Option<L::Grads> = None;
                let mut batch_reward = 0.0;
                for _ in 0..tc.batch_size {
                    let t = sample_period(&mut sample_rng, min_t, max_t, tc.recency_bias);
                    let y_t = market.price_relatives_with_cash(t);
                    let w_drifted = drift(pvm.get(t - 1), &y_t);
                    let (trace, action) = learner.forward(market, t, &w_drifted);
                    let y_next = market.price_relatives_with_cash(t + 1);
                    let (r, dr) = reward_and_grad(&action, &y_next, &w_drifted, &costs);
                    let d_action: Vec<f64> = dr.iter().map(|g| -g).collect();
                    let g = learner.backward(&trace, r, &d_action);
                    match grads.as_mut() {
                        Some(acc) => L::accumulate(acc, &g),
                        None => grads = Some(g),
                    }
                    pvm.set(t, action);
                    batch_reward += r;
                }
                if let Some(g) = grads {
                    grad_norm_sum += learner.apply(g, inv_batch);
                }
                log.steps += 1;
                epoch_reward += batch_reward;
                epoch_samples += tc.batch_size;
            }
            let stats = EpochStats {
                reward: epoch_reward / epoch_samples.max(1) as f64,
                wall_s: epoch_t0.elapsed().as_secs_f64(),
                grad_norm: grad_norm_sum / tc.steps_per_epoch.max(1) as f64,
            };
            log.push_epoch(&stats);
            emit_dense_epoch(rec, L::LABEL, epoch, &stats, epoch_samples);
        }
        log
    }
}

/// What sets one dense baseline apart inside [`Trainer::train_dense`].
trait DenseLearner {
    /// What one sample's backward pass needs from its forward pass.
    type Trace;
    /// Gradients of one sample, or summed over a minibatch.
    type Grads;
    /// The `agent` field of the epoch records.
    const LABEL: &'static str;
    /// Mixed into the configured seed to seed the sampling RNG.
    const SALT: u64;

    /// First period whose state the learner can build.
    fn min_period(&self) -> usize;

    /// Runs the policy at period `t` with drifted weights `w_drifted`;
    /// returns the trace and the action.
    fn forward(&self, market: &MarketData, t: usize, w_drifted: &[f64]) -> (Self::Trace, Vec<f64>);

    /// One sample's gradients, given its reward `r` and the loss gradient
    /// `d_action = −∂r/∂a`.
    fn backward(&self, trace: &Self::Trace, r: f64, d_action: &[f64]) -> Self::Grads;

    /// Adds `g` into `acc`.
    fn accumulate(acc: &mut Self::Grads, g: &Self::Grads);

    /// Averages the summed gradients (`× inv_batch`) and applies one step;
    /// returns the gradient norm the epoch stats report.
    fn apply(&mut self, grads: Self::Grads, inv_batch: f64) -> f64;
}

/// Averages summed gradients, takes one clipped-Adam step on `net` and
/// returns the pre-clip global norm.
fn step(trainer: &mut ClippedAdam, net: &mut impl Params, mut grads: impl Params, inv: f64) -> f64 {
    optim::scale(&mut grads, inv);
    trainer.apply(net, &mut grads)
}

struct DrlLearner<'a> {
    agent: &'a mut DrlAgent,
    trainer: ClippedAdam,
}

impl DenseLearner for DrlLearner<'_> {
    type Trace = MlpTrace;
    type Grads = MlpGradients;
    const LABEL: &'static str = "drl";
    const SALT: u64 = 0xd71;

    fn min_period(&self) -> usize {
        self.agent.state_builder().min_period()
    }

    fn forward(&self, market: &MarketData, t: usize, w_drifted: &[f64]) -> (MlpTrace, Vec<f64>) {
        let trace = self.agent.network.forward(&self.agent.state(market, t, w_drifted));
        let action = trace.action().to_vec();
        (trace, action)
    }

    fn backward(&self, trace: &MlpTrace, _r: f64, d_action: &[f64]) -> MlpGradients {
        self.agent.network.backward(trace, d_action)
    }

    fn accumulate(acc: &mut MlpGradients, g: &MlpGradients) {
        optim::accumulate(acc, g);
    }

    fn apply(&mut self, grads: MlpGradients, inv_batch: f64) -> f64 {
        step(&mut self.trainer, &mut self.agent.network, grads, inv_batch)
    }
}

struct EiieLearner<'a> {
    agent: &'a mut crate::eiie::EiieAgent,
    trainer: ClippedAdam,
}

impl DenseLearner for EiieLearner<'_> {
    type Trace = EiieTrace;
    type Grads = EiieGradients;
    const LABEL: &'static str = "eiie";
    const SALT: u64 = 0xe11e;

    fn min_period(&self) -> usize {
        self.agent.window() - 1
    }

    fn forward(&self, market: &MarketData, t: usize, w_drifted: &[f64]) -> (EiieTrace, Vec<f64>) {
        let trace = self.agent.network.forward(&self.agent.windows(market, t), w_drifted);
        let action = trace.action().to_vec();
        (trace, action)
    }

    fn backward(&self, trace: &EiieTrace, _r: f64, d_action: &[f64]) -> EiieGradients {
        self.agent.network.backward(trace, d_action)
    }

    fn accumulate(acc: &mut EiieGradients, g: &EiieGradients) {
        optim::accumulate(acc, g);
    }

    fn apply(&mut self, grads: EiieGradients, inv_batch: f64) -> f64 {
        step(&mut self.trainer, &mut self.agent.network, grads, inv_batch)
    }
}

struct DdpgLearner<'a> {
    agent: &'a mut DdpgAgent,
    actor_trainer: ClippedAdam,
    critic_trainer: ClippedAdam,
}

impl DenseLearner for DdpgLearner<'_> {
    /// The state and the actor's trace.
    type Trace = (Vec<f64>, MlpTrace);
    /// Critic then actor gradients.
    type Grads = (MlpGradients, MlpGradients);
    const LABEL: &'static str = "ddpg";
    const SALT: u64 = 0xddb6;

    fn min_period(&self) -> usize {
        self.agent.state_builder().min_period()
    }

    fn forward(&self, market: &MarketData, t: usize, w_drifted: &[f64]) -> (Self::Trace, Vec<f64>) {
        let state = self.agent.state(market, t, w_drifted);
        let trace = self.agent.actor.forward(&state);
        let action = trace.action().to_vec();
        ((state, trace), action)
    }

    fn backward(&self, (state, trace): &Self::Trace, r: f64, _d_action: &[f64]) -> Self::Grads {
        let critic = &self.agent.critic;
        let mut sa = Vec::with_capacity(state.len() + trace.action().len());
        sa.extend_from_slice(state);
        sa.extend_from_slice(trace.action());
        let ctrace = critic.forward(&sa);
        // Critic: descend ½(Q − r)².
        let (cg, _) = critic.backward_logits(&ctrace, &[ctrace.logits()[0] - r]);
        // Actor: ascend Q, i.e. descend −Q through ∂Q/∂a.
        let (_, d_input) = critic.backward_logits(&ctrace, &[1.0]);
        let d_action: Vec<f64> = d_input[state.len()..].iter().map(|g| -g).collect();
        (cg, self.agent.actor.backward(trace, &d_action))
    }

    fn accumulate(acc: &mut Self::Grads, g: &Self::Grads) {
        optim::accumulate(&mut acc.0, &g.0);
        optim::accumulate(&mut acc.1, &g.1);
    }

    /// Critic first, then actor; reports the actor's norm.
    fn apply(&mut self, (critic, actor): Self::Grads, inv_batch: f64) -> f64 {
        step(&mut self.critic_trainer, &mut self.agent.critic, critic, inv_batch);
        step(&mut self.actor_trainer, &mut self.agent.actor, actor, inv_batch)
    }
}

/// Emits a dense-baseline epoch record (no spike fields) when `rec` is
/// enabled.
fn emit_dense_epoch(
    rec: &mut dyn Recorder,
    agent: &str,
    epoch: usize,
    stats: &EpochStats,
    samples: usize,
) {
    if !rec.enabled() {
        return;
    }
    rec.emit(
        Record::new("epoch")
            .field("agent", agent)
            .field("epoch", epoch as u64)
            .field("reward", stats.reward)
            .field("wall_s", stats.wall_s)
            .field("grad_norm", stats.grad_norm)
            .field("samples", samples as u64),
    );
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use spikefolio_env::{BacktestConfig, Backtester};
    use spikefolio_market::{Candle, Date};

    /// A market where asset 1 steadily gains and the rest decay: any
    /// reward-ascending learner must shift weight onto asset 1.
    fn trending_market(periods: usize) -> MarketData {
        let mut candles = Vec::new();
        let mut up = 100.0;
        let mut down = 100.0;
        for _ in 0..periods {
            let nu = up * 1.015;
            let nd = down * 0.995;
            candles.push(Candle::new(up, nu, up, nu, 1.0));
            candles.push(Candle::new(down, down, nd, nd, 1.0));
            candles.push(Candle::new(down, down, nd, nd, 1.0));
            up = nu;
            down = nd;
        }
        MarketData::new(
            vec!["UP".into(), "D1".into(), "D2".into()],
            Date::new(2020, 1, 1),
            4,
            3,
            candles,
        )
    }

    #[test]
    fn reward_grad_matches_finite_difference() {
        let costs = CostModel::Proportional { rate: 0.0025 };
        let a = [0.1, 0.5, 0.4];
        let y = [1.0, 1.1, 0.9];
        let w = [0.3, 0.3, 0.4];
        let (_, g) = reward_and_grad(&a, &y, &w, &costs);
        let eps = 1e-7;
        for i in 0..3 {
            let mut ap = a;
            ap[i] += eps;
            let mut am = a;
            am[i] -= eps;
            let (rp, _) = reward_and_grad(&ap, &y, &w, &costs);
            let (rm, _) = reward_and_grad(&am, &y, &w, &costs);
            let num = (rp - rm) / (2.0 * eps);
            assert!((g[i] - num).abs() < 1e-5, "component {i}: {} vs {num}", g[i]);
        }
    }

    #[test]
    fn drift_preserves_simplex() {
        let w = [0.2, 0.5, 0.3];
        let y = [1.0, 1.2, 0.8];
        let d = drift(&w, &y);
        assert!(spikefolio_tensor::simplex::is_on_simplex(&d, 1e-12));
        // Winner gains share.
        assert!(d[1] > w[1]);
        assert!(d[2] < w[2]);
    }

    #[test]
    fn sample_period_respects_bounds_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut late = 0;
        for _ in 0..2000 {
            let t = sample_period(&mut rng, 10, 100, 0.05);
            assert!((10..=100).contains(&t));
            if t > 80 {
                late += 1;
            }
        }
        // With λ=0.05 the mean offset from the end is 20, so most samples
        // land in the last fifth of the range.
        assert!(late > 1000, "only {late}/2000 samples were recent");
        // Uniform mode covers the range.
        let t_min = (0..500).map(|_| sample_period(&mut rng, 10, 100, 0.0)).min().unwrap();
        assert!(t_min < 25);
    }

    #[test]
    fn sdp_training_learns_trending_market() {
        let market = trending_market(120);
        let mut cfg = SdpConfig::smoke();
        cfg.training.epochs = 6;
        cfg.training.steps_per_epoch = 10;
        cfg.training.batch_size = 12;
        cfg.training.learning_rate = 2e-3;
        let mut agent = SdpAgent::new(&cfg, market.num_assets(), 3);
        let log = Trainer::new(&cfg).train_sdp(&mut agent, &market);
        assert_eq!(log.epoch_rewards.len(), 6);
        assert!(
            log.final_reward() > log.epoch_rewards[0],
            "reward did not improve: {:?}",
            log.epoch_rewards
        );
        // The trained policy should allocate heavily to the winning asset.
        let r = Backtester::new(BacktestConfig::default()).run(&mut agent, &market);
        let mean_up: f64 = r.weights.iter().map(|w| w[1]).sum::<f64>() / r.weights.len() as f64;
        assert!(mean_up > 0.4, "mean weight on winner only {mean_up}");
    }

    #[test]
    fn drl_training_learns_trending_market() {
        let market = trending_market(120);
        let mut cfg = SdpConfig::smoke();
        cfg.training.epochs = 10;
        cfg.training.steps_per_epoch = 10;
        cfg.training.batch_size = 12;
        cfg.training.learning_rate = 5e-3;
        let mut agent = DrlAgent::new(&cfg, market.num_assets(), 3);
        let log = Trainer::new(&cfg).train_drl(&mut agent, &market);
        assert!(log.improved(), "rewards: {:?}", log.epoch_rewards);
        let r = Backtester::new(BacktestConfig::default()).run(&mut agent, &market);
        let mean_up: f64 = r.weights.iter().map(|w| w[1]).sum::<f64>() / r.weights.len() as f64;
        assert!(mean_up > 0.4, "mean weight on winner only {mean_up}");
    }

    #[test]
    fn eiie_training_learns_trending_market() {
        let market = trending_market(120);
        let mut cfg = SdpConfig::smoke();
        cfg.state.window = 5;
        cfg.training.epochs = 24;
        cfg.training.steps_per_epoch = 12;
        cfg.training.batch_size = 12;
        cfg.training.learning_rate = 8e-3;
        let mut agent = crate::eiie::EiieAgent::new(&cfg, market.num_assets(), 3);
        let log = Trainer::new(&cfg).train_eiie(&mut agent, &market);
        assert!(log.improved(), "rewards: {:?}", log.epoch_rewards);
        let r = Backtester::new(BacktestConfig::default()).run(&mut agent, &market);
        let mean_up: f64 = r.weights.iter().map(|w| w[1]).sum::<f64>() / r.weights.len() as f64;
        assert!(mean_up > 0.35, "mean weight on winner only {mean_up}");
    }

    #[test]
    fn ddpg_training_is_deterministic_and_finite() {
        let market = trending_market(120);
        let mut cfg = SdpConfig::smoke();
        cfg.training.epochs = 4;
        cfg.training.steps_per_epoch = 8;
        cfg.training.batch_size = 8;
        let run = || {
            let mut agent = DdpgAgent::new(&cfg, market.num_assets(), 3);
            let log = Trainer::new(&cfg).train_ddpg(&mut agent, &market);
            (agent, log)
        };
        let (a1, log1) = run();
        let (a2, log2) = run();
        assert_eq!(log1.epoch_rewards.len(), 4);
        assert!(log1.epoch_rewards.iter().all(|r| r.is_finite()));
        assert!(log1.epoch_grad_norms.iter().all(|g| g.is_finite() && *g >= 0.0));
        // Same seed → bitwise-identical training trajectory and weights.
        assert_eq!(log1.epoch_rewards, log2.epoch_rewards);
        assert_eq!(optim::flat_params(&a1.actor), optim::flat_params(&a2.actor));
        // The trained actor still backtests on the simplex.
        let (mut agent, _) = run();
        let r = Backtester::new(BacktestConfig::default()).run(&mut agent, &market);
        assert_eq!(r.policy_name, "DDPG");
        for w in &r.weights {
            assert!(spikefolio_tensor::simplex::is_on_simplex(w, 1e-9));
        }
    }

    #[test]
    fn ddpg_critic_learns_the_reward_scale() {
        // After training, the critic's Q for the actor's own action should
        // sit near the realized immediate rewards (myopic target), not at
        // its random init.
        let market = trending_market(120);
        let mut cfg = SdpConfig::smoke();
        cfg.training.epochs = 8;
        cfg.training.steps_per_epoch = 10;
        cfg.training.batch_size = 12;
        let mut agent = DdpgAgent::new(&cfg, market.num_assets(), 3);
        Trainer::new(&cfg).train_ddpg(&mut agent, &market);
        let t = 20;
        let w = vec![0.25; 4];
        let state = agent.state(&market, t, &w);
        let action = agent.act(&state);
        let q = agent.q_value(&state, &action);
        // Period log returns in this market are on the order of 1e-2;
        // an untrained critic sits at O(1e-1..1) from Xavier init.
        assert!(q.abs() < 0.05, "critic Q {q} far from reward scale");
    }

    #[test]
    fn parallel_training_learns_and_is_thread_count_invariant() {
        let market = trending_market(120);
        let mut cfg = SdpConfig::smoke();
        cfg.training.epochs = 4;
        cfg.training.steps_per_epoch = 8;
        cfg.training.batch_size = 12;
        cfg.training.learning_rate = 2e-3;

        let run = |threads: usize| {
            let mut c = cfg.clone();
            c.training.parallelism = threads;
            let mut agent = SdpAgent::new(&c, market.num_assets(), 3);
            let log = Trainer::new(&c).train_sdp(&mut agent, &market);
            (spikefolio_snn::stbp::flat_params(&agent.network), log)
        };
        let (p2, log2) = run(2);
        let (p4, log4) = run(4);
        // Per-sample seeding makes results independent of the thread count.
        assert_eq!(log2.epoch_rewards, log4.epoch_rewards);
        assert_eq!(p2, p4);
        // And it still learns the trending market.
        assert!(
            log2.final_reward() > 0.0,
            "parallel training failed to learn: {:?}",
            log2.epoch_rewards
        );
    }

    #[test]
    fn training_log_edge_cases() {
        // Empty log: no reward, no improvement.
        let empty = TrainingLog::default();
        assert_eq!(empty.final_reward(), 0.0);
        assert!(!empty.improved());

        // Single epoch: it is its own first and last, so it "improved".
        let single = TrainingLog { epoch_rewards: vec![0.4], steps: 5, ..TrainingLog::default() };
        assert_eq!(single.final_reward(), 0.4);
        assert!(single.improved());

        // NaN at either end compares false.
        let nan_last = TrainingLog { epoch_rewards: vec![0.1, f64::NAN], ..TrainingLog::default() };
        assert!(nan_last.final_reward().is_nan());
        assert!(!nan_last.improved());
        let nan_first =
            TrainingLog { epoch_rewards: vec![f64::NAN, 0.1], ..TrainingLog::default() };
        assert!(!nan_first.improved());
    }

    #[test]
    fn training_log_series_stay_aligned() {
        let market = trending_market(60);
        let mut cfg = SdpConfig::smoke();
        cfg.training.epochs = 3;
        cfg.training.steps_per_epoch = 2;
        cfg.training.batch_size = 4;
        let mut agent = SdpAgent::new(&cfg, market.num_assets(), 3);
        let log = Trainer::new(&cfg).train_sdp(&mut agent, &market);
        assert_eq!(log.epoch_rewards.len(), 3);
        assert_eq!(log.epoch_wall_s.len(), 3);
        assert_eq!(log.epoch_grad_norms.len(), 3);
        assert!(log.epoch_wall_s.iter().all(|&s| s >= 0.0));
        assert!(log.epoch_grad_norms.iter().all(|&g| g.is_finite() && g >= 0.0));
    }

    #[test]
    fn telemetry_recording_does_not_change_training() {
        let market = trending_market(80);
        let mut cfg = SdpConfig::smoke();
        cfg.training.epochs = 2;
        cfg.training.steps_per_epoch = 4;
        cfg.training.batch_size = 8;
        cfg.training.parallelism = 2;

        let mut plain = SdpAgent::new(&cfg, market.num_assets(), 3);
        let log_plain = Trainer::new(&cfg).train_sdp(&mut plain, &market);

        let mut observed = SdpAgent::new(&cfg, market.num_assets(), 3);
        let mut rec = spikefolio_telemetry::MemoryRecorder::new();
        let log_observed = Trainer::new(&cfg).train_sdp_with(&mut observed, &market, &mut rec);

        // Observe-only contract: rewards, grad norms, and every trained
        // parameter are bitwise identical with a recorder attached.
        assert_eq!(log_plain.epoch_rewards, log_observed.epoch_rewards);
        assert_eq!(log_plain.epoch_grad_norms, log_observed.epoch_grad_norms);
        assert_eq!(stbp::flat_params(&plain.network), stbp::flat_params(&observed.network));

        // And the recorder saw the run: one record per epoch plus spans.
        assert_eq!(rec.records().len(), 2);
        let epoch0 = &rec.records()[0];
        assert_eq!(epoch0.get("agent").and_then(Value::as_str), Some("sdp"));
        assert!(epoch0.get("reward").and_then(Value::as_f64).is_some());
        assert!(epoch0.get("firing_rates").is_some());
        let (fwd_s, fwd_n) = rec.span_total(labels::SPAN_TRAIN_FORWARD);
        assert_eq!(fwd_n, 8, "one forward span per step");
        assert!(fwd_s > 0.0);

        // Profiled SNN sub-phases fold to one span per step, and the
        // encode + LIF sections cannot exceed the whole forward pass.
        let (enc_s, enc_n) = rec.span_total(labels::SPAN_PROFILE_SNN_ENCODE);
        let (lif_s, lif_n) = rec.span_total(labels::SPAN_PROFILE_SNN_LIF);
        let (stbp_s, stbp_n) = rec.span_total(labels::SPAN_PROFILE_SNN_STBP);
        assert_eq!((enc_n, lif_n, stbp_n), (8, 8, 8), "one profile span per step");
        assert!(enc_s + lif_s <= fwd_s, "sub-phases exceed forward total");
        assert!(stbp_s > 0.0);

        // Op-level cost counters: dense MACs bound synops from above.
        let dense = rec.counter_total(labels::COUNTER_OPS_DENSE_MACS);
        let synops = rec.counter_total(labels::COUNTER_OPS_SYNOPS);
        assert!(dense > 0);
        assert!(synops > 0);
        assert!(synops <= dense, "synops {synops} exceed dense MACs {dense}");
        let sparsity = rec.gauge_value(labels::GAUGE_OPS_SPARSITY).expect("sparsity gauge");
        assert!((0.0..=1.0).contains(&sparsity), "sparsity {sparsity} out of range");
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn training_rejects_tiny_market() {
        let market = trending_market(2);
        let cfg = SdpConfig::smoke();
        let mut agent = SdpAgent::new(&cfg, market.num_assets(), 3);
        let _ = Trainer::new(&cfg).train_sdp(&mut agent, &market);
    }
}
