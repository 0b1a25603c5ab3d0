//! Profiler overhead on the hot forward/backward kernels.
//!
//! With a disabled recorder ([`NoopRecorder`]) the Stopwatch reads no
//! clock, so the `noop_recorder` rows are the kernels' own cost; the
//! `memory_recorder` rows show the real (enabled) recording cost for
//! contrast. The acceptance bar is the gap between the two staying
//! within ~2%.

use criterion::{criterion_group, criterion_main, Criterion};
use spikefolio_bench::bench_support;
use spikefolio_snn::stbp;
use spikefolio_snn::{BatchNetworkTrace, BatchWorkspace};
use spikefolio_telemetry::{MemoryRecorder, NoopRecorder};
use spikefolio_tensor::optim;

fn bench_profile_overhead(c: &mut Criterion) {
    let net = bench_support::paper_network(9);
    let batch = 8;
    let states = bench_support::pinned_states(batch, bench_support::PAPER_STATE_DIM);
    let d_actions = bench_support::pinned_d_actions(batch, bench_support::PAPER_ACTION_DIM);
    let mut ws = BatchWorkspace::new(&net, batch);
    let mut trace = BatchNetworkTrace::new(&net, batch);

    let mut group = c.benchmark_group("profile/overhead");
    group.sample_size(20);

    group.bench_function("forward_noop_recorder_b8", |b| {
        let mut rec = NoopRecorder;
        b.iter(|| {
            let mut rngs = bench_support::sample_rngs(batch);
            net.forward_batch(&states, &mut rngs, &mut ws, &mut trace, &mut rec);
            std::hint::black_box(trace.action(0)[0])
        })
    });
    group.bench_function("forward_memory_recorder_b8", |b| {
        b.iter(|| {
            let mut rec = MemoryRecorder::new();
            let mut rngs = bench_support::sample_rngs(batch);
            net.forward_batch(&states, &mut rngs, &mut ws, &mut trace, &mut rec);
            std::hint::black_box(trace.action(0)[0])
        })
    });

    // Backward rows reuse the last forward trace.
    group.bench_function("backward_noop_recorder_b8", |b| {
        let mut rec = NoopRecorder;
        b.iter(|| {
            let g = stbp::backward_batch(&net, &trace, &d_actions, 0.0, &mut ws, &mut rec);
            std::hint::black_box(optim::global_norm(&g))
        })
    });
    group.bench_function("backward_memory_recorder_b8", |b| {
        b.iter(|| {
            let mut rec = MemoryRecorder::new();
            let g = stbp::backward_batch(&net, &trace, &d_actions, 0.0, &mut ws, &mut rec);
            std::hint::black_box(optim::global_norm(&g))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_profile_overhead);
criterion_main!(benches);
