//! Ablation E: spike-rate regularization — the energy/quality dial.
//! Prints the λ sweep (spikes, synops, physical energy, backtest metrics)
//! and benchmarks the penalized vs plain backward pass.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use spikefolio::experiments::{rate_penalty_ablation, RunOptions};
use spikefolio_snn::network::{SdpNetwork, SdpNetworkConfig};
use spikefolio_snn::{stbp, BatchNetworkTrace, BatchWorkspace};
use spikefolio_telemetry::NoopRecorder;
use spikefolio_tensor::Matrix;

fn options() -> RunOptions {
    let mut opts = RunOptions::smoke();
    opts.shrink = Some((60, 20));
    opts.config.training.epochs = 2;
    opts.config.training.steps_per_epoch = 6;
    opts.config.training.batch_size = 16;
    opts
}

fn print_sweep_once() {
    let pts = rate_penalty_ablation(&options(), &[0.0, 0.5, 2.0, 10.0]);
    println!("\n===== Ablation: spike-rate penalty =====");
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>10} {:>10}",
        "lambda", "spikes/inf", "synops/inf", "nJ/inf(phys)", "fAPV", "Sharpe"
    );
    for p in &pts {
        println!(
            "{:>8.2} {:>12} {:>12} {:>14.2} {:>10.4} {:>10.3}",
            p.lambda,
            p.spikes_per_inference,
            p.synops_per_inference,
            p.physical_nj_per_inf,
            p.metrics.fapv,
            p.metrics.sharpe
        );
    }
}

fn bench_penalized_backward(c: &mut Criterion) {
    print_sweep_once();

    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let net = SdpNetwork::new(SdpNetworkConfig::small(16, 12), &mut rng);
    let state = Matrix::from_fn(1, 16, |_, i| 0.9 + 0.02 * i as f64);
    let mut ws = BatchWorkspace::new(&net, 1);
    let mut trace = BatchNetworkTrace::new(&net, 1);
    net.forward_batch(&state, &mut [&mut rng], &mut ws, &mut trace, &mut NoopRecorder);
    let d_action = Matrix::filled(1, 12, 1.0 / 12.0);

    let mut group = c.benchmark_group("ablation/rate_penalty_backward");
    for (name, lambda) in [("plain", 0.0), ("penalized", 1.0)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                std::hint::black_box(stbp::backward_batch(
                    &net,
                    &trace,
                    &d_action,
                    lambda,
                    &mut ws,
                    &mut NoopRecorder,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_penalized_backward);
criterion_main!(benches);
