//! The SNN execution engine: roll a minibatch of states through the `T`
//! simulation steps of Algorithm 1 with one drive kernel per layer per
//! step. It is the only engine — training, backtests
//! ([`SdpNetwork::act`]), the energy model
//! ([`SdpNetwork::act_with_stats`]) and serving all run it, a single
//! state being a batch of one.
//!
//! The drive is **event-driven** ([`spikefolio_tensor::sparse`]): each
//! spike stack carries a [`SpikeSet`] of its active indices, and the
//! kernels touch only active presynaptic columns. A workspace built with
//! [`BatchWorkspace::dense_reference`] routes the same passes through the
//! dense GEMM kernels instead; it exists as the test oracle the
//! event-driven kernels are checked against, and produces bit-identical
//! traces and gradients.
//!
//! # Memory layout
//!
//! All per-timestep quantities are stored as *stacked* `(T·B) × dim`
//! matrices with row index `r = t·B + b` — timestep-major, sample-minor. A
//! timestep is therefore one contiguous `B × dim` row block, which is
//! exactly the operand shape the kernels in `spikefolio_tensor` address
//! without copying. Layer `k`'s inputs are layer `k−1`'s output stack (or
//! the encoder stack for `k = 0`); inputs are never duplicated into
//! per-layer traces.
//!
//! # Workspace reuse
//!
//! [`BatchWorkspace`] preallocates every per-step buffer (layer states,
//! drive scratch, backward deltas, the stacked `Δc` and upstream-gradient
//! matrices). After construction, [`SdpNetwork::forward_batch`] and
//! [`crate::stbp::backward_batch`] allocate only O(B) decoder-sized
//! vectors outside the per-step hot loop.
//!
//! A workspace depends only on the network's shape and the batch size,
//! never on its weights, so one workspace serves any network of that
//! shape. The transposed weights `Wᵀ` the drive streams belong to the
//! network instead ([`SdpNetwork::transposed_weights`]): they are built
//! once per weight version, on the first forward pass after the weights
//! change, and shared by every caller and thread that runs that version.
//!
//! # Determinism contract
//!
//! * Sample `b` is encoded with `rngs[b]`, consuming exactly the random
//!   stream [`crate::encoder::PopulationEncoder::encode`] would, and every
//!   per-sample update reads only that sample's rows. Actions are
//!   therefore **bit-identical** however samples are grouped: a batch of
//!   `n` equals `n` batches of one (e.g. `n` [`SdpNetwork::act`] calls)
//!   with the same per-sample RNGs.
//! * The backward pass evaluates the per-sample recurrences elementwise in
//!   a fixed order and only sums the `(t, b)` weight-gradient
//!   contributions in stack order, so gradients of a batch of `n` match
//!   the sum of `n` batches of one to ~1e-14 (well inside the 1e-12
//!   equivalence budget).
//! * The event-driven kernels equal the dense reference bitwise (see
//!   [`spikefolio_tensor::sparse`]).

use crate::network::{SdpNetwork, SpikeStats};
use rand::Rng;
use spikefolio_telemetry::labels::{SPAN_PROFILE_SNN_ENCODE, SPAN_PROFILE_SNN_LIF};
use spikefolio_telemetry::{Recorder, Stopwatch};
use spikefolio_tensor::sparse::{self, SpikeSet};
use spikefolio_tensor::{gemm, Matrix};

/// Recorded history of one layer for a whole minibatch: stacked
/// `(T·B) × out_dim` matrices, row `r = t·B + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchLayerTrace {
    /// Post-update membrane voltages `v(t)`.
    pub voltages: Matrix,
    /// Output spikes `o(t)` — also the next layer's input stack.
    pub outputs: Matrix,
    /// Effective thresholds `th(t)` (constant `V_th` columns for plain LIF).
    pub thresholds: Matrix,
    /// Event view of `outputs`: per stacked row, the ascending indices of
    /// the neurons that spiked. Built incrementally as rows are produced
    /// and consumed by the event-driven kernels of the next layer's drive
    /// and this layer's weight gradient.
    pub output_set: SpikeSet,
}

/// Full forward trace of a minibatch, consumed by
/// [`crate::stbp::backward_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNetworkTrace {
    batch: usize,
    timesteps: usize,
    /// Encoder spike stack, `(T·B) × encoder_dim`, row `r = t·B + b`.
    pub encoder: Matrix,
    /// Event view of `encoder`: per stacked row, the ascending active
    /// column indices. Built once right after encoding and threaded
    /// through the event-driven forward/backward kernels.
    pub encoder_set: SpikeSet,
    /// Per-layer traces, input-side first.
    pub layers: Vec<BatchLayerTrace>,
    /// Decoder firing rates, one row per sample (`B × action_dim`).
    pub firing_rates: Matrix,
    /// Softmax actions, one row per sample (`B × action_dim`).
    pub actions: Matrix,
    /// Event counters summed over the whole minibatch.
    pub stats: SpikeStats,
    /// Spikes emitted per LIF layer (input-side first), summed over the
    /// minibatch; sums to [`SpikeStats::neuron_spikes`]. Feeds the
    /// per-layer spike-activity telemetry
    /// ([`SdpNetwork::layer_firing_rates`]).
    pub layer_spikes: Vec<u64>,
    /// Synaptic operations tallied *by the drive kernels themselves* while
    /// propagating spikes (events × fan-out). Independently recomputed
    /// from the dense rasters as [`SpikeStats::synops`]; the equivalence
    /// suite and the CI bench smoke assert the two never drift apart.
    pub kernel_events: u64,
}

impl BatchNetworkTrace {
    /// Allocates a trace sized for `net` at minibatch size `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn new(net: &SdpNetwork, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        let t_max = net.config().timesteps;
        let rows = t_max * batch;
        let action_dim = net.config().action_dim;
        Self {
            batch,
            timesteps: t_max,
            encoder: Matrix::zeros(rows, net.encoder.output_dim()),
            encoder_set: SpikeSet::new(net.encoder.output_dim()),
            layers: net
                .layers
                .iter()
                .map(|l| BatchLayerTrace {
                    voltages: Matrix::zeros(rows, l.out_dim()),
                    outputs: Matrix::zeros(rows, l.out_dim()),
                    thresholds: Matrix::zeros(rows, l.out_dim()),
                    output_set: SpikeSet::new(l.out_dim()),
                })
                .collect(),
            firing_rates: Matrix::zeros(batch, action_dim),
            actions: Matrix::zeros(batch, action_dim),
            stats: SpikeStats::default(),
            layer_spikes: vec![0; net.layers.len()],
            kernel_events: 0,
        }
    }

    /// Minibatch size `B` the trace was allocated for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Simulation length `T` the trace was allocated for.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// The action row of sample `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b >= batch`.
    pub fn action(&self, b: usize) -> &[f64] {
        self.actions.row(b)
    }
}

/// Per-layer preallocated buffers of a [`BatchWorkspace`]. All are sized
/// by the layer's output width and the batch size; none holds weights.
#[derive(Debug, Clone)]
pub(crate) struct BatchLayerBufs {
    /// Synaptic currents `c`, `B × out`.
    pub(crate) current: Matrix,
    /// Membrane voltages `v`, `B × out`.
    pub(crate) voltage: Matrix,
    /// Previous-step spikes `o(t−1)`, `B × out`.
    pub(crate) spikes: Matrix,
    /// ALIF adaptation traces `b`, `B × out`.
    pub(crate) adapt: Matrix,
    /// Drive scratch `W·o_in` for one timestep, `B × out`.
    pub(crate) drive: Matrix,
    /// Backward scratch `δo(t)`, `B × out`.
    pub(crate) d_o: Matrix,
    /// Backward scratch `δv(t)`, `B × out`.
    pub(crate) d_v: Matrix,
    /// Backward carry `δv(t+1)`, `B × out`.
    pub(crate) dv_next: Matrix,
    /// Backward scratch `δb(t)` (adaptation chain), `B × out`.
    pub(crate) d_b: Matrix,
    /// Backward carry `δb(t+1)`, `B × out`.
    pub(crate) db_next: Matrix,
    /// Stacked `δc(t)` rows, `(T·B) × out` — the GEMM operand of eq. (13).
    pub(crate) dc_stack: Matrix,
    /// Stacked upstream gradient on this layer's output spikes,
    /// `(T·B) × out`.
    pub(crate) d_ext: Matrix,
}

/// Preallocated scratch for batched forward/backward passes.
///
/// Build once per `(network shape, batch size)` pair and reuse across
/// steps, and across networks of that shape: the hot loops of
/// [`SdpNetwork::forward_batch`] and [`crate::stbp::backward_batch`] are
/// then allocation-free.
#[derive(Debug, Clone)]
pub struct BatchWorkspace {
    pub(crate) batch: usize,
    /// Run the dense GEMM reference kernels instead of the event-driven
    /// ones (see [`BatchWorkspace::dense_reference`]).
    pub(crate) dense: bool,
    /// Per-sample encoder scratch, `T × encoder_dim`.
    pub(crate) enc_scratch: Matrix,
    pub(crate) layers: Vec<BatchLayerBufs>,
    /// Per-sample spike sums over the last layer, `B × out_last`.
    pub(crate) spike_sums: Matrix,
}

impl BatchWorkspace {
    /// Allocates a workspace sized for `net` at minibatch size `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn new(net: &SdpNetwork, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        let t_max = net.config().timesteps;
        let layers = net
            .layers
            .iter()
            .map(|l| {
                let out = l.out_dim();
                BatchLayerBufs {
                    current: Matrix::zeros(batch, out),
                    voltage: Matrix::zeros(batch, out),
                    spikes: Matrix::zeros(batch, out),
                    adapt: Matrix::zeros(batch, out),
                    drive: Matrix::zeros(batch, out),
                    d_o: Matrix::zeros(batch, out),
                    d_v: Matrix::zeros(batch, out),
                    dv_next: Matrix::zeros(batch, out),
                    d_b: Matrix::zeros(batch, out),
                    db_next: Matrix::zeros(batch, out),
                    dc_stack: Matrix::zeros(t_max * batch, out),
                    d_ext: Matrix::zeros(t_max * batch, out),
                }
            })
            .collect();
        let out_last = net.layers.last().map_or(0, |l| l.out_dim());
        Self {
            batch,
            dense: false,
            enc_scratch: Matrix::zeros(t_max, net.encoder.output_dim()),
            layers,
            spike_sums: Matrix::zeros(batch, out_last),
        }
    }

    /// A workspace whose passes run the dense GEMM kernels
    /// ([`gemm::gemm_nt`] / [`gemm::gemm_tn_acc`]) instead of the
    /// event-driven ones. The results are bit-identical; this is the
    /// reference the equivalence tests compare the event-driven kernels
    /// against, and is slower on sparse rasters.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn dense_reference(net: &SdpNetwork, batch: usize) -> Self {
        Self { dense: true, ..Self::new(net, batch) }
    }

    /// Minibatch size `B` the workspace was allocated for.
    pub fn batch(&self) -> usize {
        self.batch
    }
}

fn count_spikes(data: &[f64]) -> u64 {
    data.iter().filter(|&&s| s > 0.0).count() as u64
}

impl SdpNetwork {
    /// Batched forward pass: runs every row of `states` (`B × state_dim`)
    /// through Algorithm 1 simultaneously, one drive kernel per layer per
    /// timestep.
    ///
    /// Sample `b` is encoded with `rngs[b]`, so with per-sample seeded RNGs
    /// the result is independent of how samples are grouped into batches
    /// (see the [module docs](crate::batch)).
    ///
    /// `ws` and `trace` must have been built for a network of this shape at
    /// batch size `states.rows()`; both are fully overwritten. The first
    /// call after the weights change builds the network's `Wᵀ`
    /// ([`SdpNetwork::transposed_weights`]); later calls reuse it.
    ///
    /// The encode section and the LIF timestep loop are timed as
    /// [`SPAN_PROFILE_SNN_ENCODE`] and [`SPAN_PROFILE_SNN_LIF`] spans on
    /// `rec`. Recording is observe-only, and with a disabled recorder
    /// (e.g. [`spikefolio_telemetry::NoopRecorder`]) the stopwatches never
    /// read the clock.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree (state width, batch size, RNG count, or a
    /// workspace/trace built for a different network or batch size).
    pub fn forward_batch<R: Rng>(
        &self,
        states: &Matrix,
        rngs: &mut [R],
        ws: &mut BatchWorkspace,
        trace: &mut BatchNetworkTrace,
        rec: &mut dyn Recorder,
    ) {
        let bsz = states.rows();
        let t_max = self.config().timesteps;
        let enc_dim = self.encoder.output_dim();
        assert!(bsz > 0, "forward_batch: empty batch");
        assert_eq!(states.cols(), self.config().state_dim, "forward_batch: state length mismatch");
        assert_eq!(rngs.len(), bsz, "forward_batch: need one RNG per sample");
        assert_eq!(ws.batch, bsz, "forward_batch: workspace batch mismatch");
        assert_eq!(trace.batch, bsz, "forward_batch: trace batch mismatch");
        assert_eq!(trace.encoder.cols(), enc_dim, "forward_batch: trace encoder width mismatch");
        assert_eq!(trace.layers.len(), self.layers.len(), "forward_batch: trace depth mismatch");

        trace.stats = SpikeStats::default();
        trace.kernel_events = 0;

        // Encode each sample with its own RNG, then interleave the T rows
        // into the timestep-major stack (row t·B + b). The event view of
        // the stack is built here, once, and threaded through the
        // event-driven kernels of both passes.
        let encode_watch = Stopwatch::start(rec);
        for (b, rng) in rngs.iter_mut().enumerate() {
            self.encoder.encode_into(states.row(b), t_max, rng, &mut ws.enc_scratch);
            for t in 0..t_max {
                trace.encoder.row_mut(t * bsz + b).copy_from_slice(ws.enc_scratch.row(t));
            }
        }
        trace.encoder_set.rebuild_from(&trace.encoder);
        trace.stats.encoder_spikes = count_spikes(trace.encoder.as_slice());
        encode_watch.stop(rec, SPAN_PROFILE_SNN_ENCODE);

        for lb in &mut ws.layers {
            lb.current.fill_zero();
            lb.voltage.fill_zero();
            lb.spikes.fill_zero();
            lb.adapt.fill_zero();
        }
        for lt in &mut trace.layers {
            lt.output_set.clear();
        }
        // The event-driven drive streams rows of Wᵀ, which the network
        // keeps per weight version (built here on first use).
        let dense = ws.dense;
        let wts: &[Matrix] = if dense { &[] } else { self.transposed_weights() };

        let mut kernel_events = 0u64;
        let lif_watch = Stopwatch::start(rec);
        for t in 0..t_max {
            for (k, layer) in self.layers.iter().enumerate() {
                let out_dim = layer.out_dim();
                let in_dim = layer.in_dim();
                let (done, rest) = trace.layers.split_at_mut(k);
                let lt = &mut rest[0];
                let (input_block, input_set): (&[f64], &SpikeSet) = if k == 0 {
                    (
                        &trace.encoder.as_slice()[t * bsz * in_dim..(t + 1) * bsz * in_dim],
                        &trace.encoder_set,
                    )
                } else {
                    (
                        &done[k - 1].outputs.as_slice()[t * bsz * in_dim..(t + 1) * bsz * in_dim],
                        &done[k - 1].output_set,
                    )
                };
                let lb = &mut ws.layers[k];
                if dense {
                    // Dense reference: B k-ascending dots per neuron. Tally
                    // the events the sparse kernel would process so traces
                    // stay comparable across kernels.
                    gemm::gemm_nt(
                        input_block,
                        layer.weights.as_slice(),
                        lb.drive.as_mut_slice(),
                        bsz,
                        in_dim,
                        out_dim,
                    );
                    for b in 0..bsz {
                        kernel_events += input_set.row(t * bsz + b).len() as u64 * out_dim as u64;
                    }
                } else {
                    // Event-driven c-drive: touch only the active
                    // presynaptic columns, k-ascending — bitwise identical
                    // to the dense reference (see tensor::sparse).
                    kernel_events += sparse::spike_drive(
                        input_block,
                        input_set,
                        t * bsz,
                        wts[k].as_slice(),
                        lb.drive.as_mut_slice(),
                        bsz,
                        in_dim,
                        out_dim,
                    );
                }
                let p = &layer.params;
                for b in 0..bsz {
                    let r = t * bsz + b;
                    let drive = lb.drive.row(b);
                    let cur = lb.current.row_mut(b);
                    let volt = lb.voltage.row_mut(b);
                    let spk = lb.spikes.row_mut(b);
                    for i in 0..out_dim {
                        // eq. (5): c(t) = d_c·c(t−1) + W·o_in + b.
                        cur[i] = p.d_c * cur[i] + drive[i] + layer.bias[i];
                        // eq. (6) + reset: v(t) = d_v·v(t−1)·(1 − o(t−1)) + c(t).
                        volt[i] = p.d_v * volt[i] * (1.0 - spk[i]) + cur[i];
                    }
                    let th_row = lt.thresholds.row_mut(r);
                    match layer.adaptation {
                        Some(ad) => {
                            let adapt = lb.adapt.row_mut(b);
                            for i in 0..out_dim {
                                adapt[i] = ad.rho * adapt[i] + (1.0 - ad.rho) * spk[i];
                                th_row[i] = p.v_th + ad.beta * adapt[i];
                            }
                        }
                        None => th_row.iter_mut().for_each(|th| *th = p.v_th),
                    }
                    lt.voltages.row_mut(r).copy_from_slice(volt);
                    for i in 0..out_dim {
                        spk[i] = layer.spike_fn.spike(volt[i], th_row[i]); // eq. (7)
                    }
                    lt.outputs.row_mut(r).copy_from_slice(spk);
                    // Row r is final: record its events. t is outer and b
                    // inner, so rows arrive in ascending stack order and
                    // the set is complete for this timestep before the
                    // next layer's drive reads it.
                    lt.output_set.push_row(spk);
                }
            }
        }
        trace.kernel_events = kernel_events;
        lif_watch.stop(rec, SPAN_PROFILE_SNN_LIF);

        // Event counters, summed over the batch.
        for (k, layer) in self.layers.iter().enumerate() {
            let inputs = if k == 0 {
                trace.encoder.as_slice()
            } else {
                trace.layers[k - 1].outputs.as_slice()
            };
            trace.stats.synops += count_spikes(inputs) * layer.out_dim() as u64;
            trace.stats.neuron_updates += (layer.out_dim() * t_max * bsz) as u64;
            let out_spikes = count_spikes(trace.layers[k].outputs.as_slice());
            trace.stats.neuron_spikes += out_spikes;
            trace.layer_spikes[k] = out_spikes;
        }

        // Σ_t o(t) per sample over the last layer, t ascending, then decode
        // each sample.
        let last = trace.layers.last().expect("network has at least one layer");
        ws.spike_sums.fill_zero();
        for t in 0..t_max {
            for b in 0..bsz {
                let sums = ws.spike_sums.row_mut(b);
                for (s, &o) in sums.iter_mut().zip(last.outputs.row(t * bsz + b)) {
                    *s += o;
                }
            }
        }
        for b in 0..bsz {
            let dec = self.decoder.decode(ws.spike_sums.row(b));
            trace.firing_rates.row_mut(b).copy_from_slice(&dec.firing_rates);
            trace.actions.row_mut(b).copy_from_slice(&dec.action);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoding;
    use crate::network::SdpNetworkConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spikefolio_telemetry::NoopRecorder;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn states(net: &SdpNetwork, batch: usize) -> Matrix {
        let dim = net.config().state_dim;
        Matrix::from_fn(batch, dim, |b, d| 0.8 + 0.05 * ((b * dim + d) % 9) as f64)
    }

    /// Forward pass of `st` with sample `b` seeded `seed0 + b`.
    fn run(
        net: &SdpNetwork,
        st: &Matrix,
        seed0: u64,
        ws: &mut BatchWorkspace,
    ) -> BatchNetworkTrace {
        let batch = st.rows();
        let mut trace = BatchNetworkTrace::new(net, batch);
        let mut rngs: Vec<StdRng> = (0..batch).map(|b| rng(seed0 + b as u64)).collect();
        net.forward_batch(st, &mut rngs, ws, &mut trace, &mut NoopRecorder);
        trace
    }

    #[test]
    fn forward_batch_is_bitwise_equal_to_per_sample_forward() {
        for encoding in [Encoding::Deterministic, Encoding::Probabilistic] {
            let mut cfg = SdpNetworkConfig::small(4, 3);
            cfg.encoder.encoding = encoding;
            let net = SdpNetwork::new(cfg, &mut rng(7));
            let batch = 5;
            let st = states(&net, batch);
            let trace = run(&net, &st, 100, &mut BatchWorkspace::new(&net, batch));
            for b in 0..batch {
                let action = net.act(st.row(b), &mut rng(100 + b as u64));
                assert_eq!(trace.action(b), action.as_slice(), "{encoding:?} sample {b}");
            }
        }
    }

    #[test]
    fn forward_batch_stats_match_summed_per_sample_stats() {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(7));
        let batch = 4;
        let st = states(&net, batch);
        let trace = run(&net, &st, 0, &mut BatchWorkspace::new(&net, batch));
        let mut expect = SpikeStats::default();
        for b in 0..batch {
            let (_, s) = net.act_with_stats(st.row(b), &mut rng(b as u64));
            expect.encoder_spikes += s.encoder_spikes;
            expect.neuron_spikes += s.neuron_spikes;
            expect.synops += s.synops;
            expect.neuron_updates += s.neuron_updates;
        }
        assert_eq!(trace.stats, expect);
    }

    #[test]
    fn forward_batch_layer_spikes_match_summed_per_sample_traces() {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(11));
        let batch = 4;
        let st = states(&net, batch);
        let trace = run(&net, &st, 0, &mut BatchWorkspace::new(&net, batch));
        let mut expect = vec![0u64; net.layers.len()];
        let mut ws1 = BatchWorkspace::new(&net, 1);
        for b in 0..batch {
            let single = Matrix::from_rows(&[st.row(b)]);
            let t = run(&net, &single, b as u64, &mut ws1);
            assert_eq!(t.layer_spikes.iter().sum::<u64>(), t.stats.neuron_spikes);
            for (e, s) in expect.iter_mut().zip(&t.layer_spikes) {
                *e += s;
            }
        }
        assert_eq!(trace.layer_spikes, expect);
        assert_eq!(trace.layer_spikes.iter().sum::<u64>(), trace.stats.neuron_spikes);
        let rates = net.layer_firing_rates(&trace.layer_spikes, batch as u64);
        assert_eq!(rates.len(), net.layers.len());
        for r in &rates {
            assert!((0.0..=1.0).contains(r), "firing rate {r} out of [0, 1]");
        }
    }

    #[test]
    fn workspace_and_trace_are_reusable_across_calls() {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(9));
        let batch = 3;
        let mut ws = BatchWorkspace::new(&net, batch);
        let st1 = states(&net, batch);
        let st2 = st1.map(|v| v + 0.01);
        let first = run(&net, &st1, 0, &mut ws).actions;
        // Run different inputs through the same buffers, then the originals
        // again: stale state must not leak.
        run(&net, &st2, 0, &mut ws);
        assert_eq!(run(&net, &st1, 0, &mut ws).actions, first, "workspace reuse must be stateless");
    }

    #[test]
    fn adaptive_network_matches_per_sample_path() {
        let mut cfg = SdpNetworkConfig::small(4, 3);
        cfg.adaptation = Some(crate::neuron::AdaptiveParams { beta: 0.6, rho: 0.85 });
        let net = SdpNetwork::new(cfg, &mut rng(21));
        let batch = 3;
        let st = states(&net, batch);
        let trace = run(&net, &st, 0, &mut BatchWorkspace::new(&net, batch));
        for b in 0..batch {
            let action = net.act(st.row(b), &mut rng(b as u64));
            assert_eq!(trace.action(b), action.as_slice(), "ALIF sample {b}");
        }
    }

    #[test]
    fn recorded_forward_is_bitwise_identical_and_emits_profile_spans() {
        use spikefolio_telemetry::MemoryRecorder;
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(7));
        let batch = 4;
        let st = states(&net, batch);
        let mut ws = BatchWorkspace::new(&net, batch);
        let plain = run(&net, &st, 0, &mut ws);

        let mut rec = MemoryRecorder::default();
        let mut observed = BatchNetworkTrace::new(&net, batch);
        let mut rngs: Vec<StdRng> = (0..batch).map(|b| rng(b as u64)).collect();
        net.forward_batch(&st, &mut rngs, &mut ws, &mut observed, &mut rec);

        assert_eq!(observed, plain, "recording must not change the forward pass");
        let (enc_s, enc_n) = rec.span_total(SPAN_PROFILE_SNN_ENCODE);
        let (lif_s, lif_n) = rec.span_total(SPAN_PROFILE_SNN_LIF);
        assert_eq!((enc_n, lif_n), (1, 1), "one span per profiled section");
        assert!(enc_s >= 0.0 && lif_s >= 0.0);
    }

    #[test]
    fn sparse_and_dense_paths_produce_identical_traces() {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(17));
        let batch = 4;
        let st = states(&net, batch);
        let dense = run(&net, &st, 0, &mut BatchWorkspace::dense_reference(&net, batch));
        let sparse_t = run(&net, &st, 0, &mut BatchWorkspace::new(&net, batch));
        assert_eq!(sparse_t, dense, "event-driven trace must equal the dense reference");
        assert!(sparse_t.kernel_events > 0, "workload should produce events");
    }

    #[test]
    fn kernel_events_match_independent_synops_count() {
        // The drive kernels tally events as they propagate spikes; the
        // stats recompute synops from the dense rasters. The two must agree.
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(29));
        let batch = 6;
        let st = states(&net, batch);
        let trace = run(&net, &st, 0, &mut BatchWorkspace::new(&net, batch));
        assert_eq!(trace.kernel_events, trace.stats.synops);
    }

    #[test]
    #[should_panic(expected = "workspace batch mismatch")]
    fn wrong_workspace_batch_panics() {
        let net = SdpNetwork::new(SdpNetworkConfig::small(4, 3), &mut rng(3));
        let st = states(&net, 2);
        run(&net, &st, 0, &mut BatchWorkspace::new(&net, 3));
    }
}
