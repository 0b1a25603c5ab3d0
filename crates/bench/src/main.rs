//! `spikefolio-bench` is a bench-only crate; the real entry points are the
//! Criterion benches under `benches/` (one per table/figure of the paper).
//! This binary just points users at them.

fn main() {
    println!("spikefolio benchmark harness — run with `cargo bench`:");
    println!("  table3             Table 3 strategy backtests");
    println!("  table4             Table 4 power/performance rows");
    println!("  ablation_timesteps timestep (T) energy/quality sweep");
    println!("  ablation_encoding  deterministic vs probabilistic coding");
    println!("  ablation_surrogate pseudo-gradient shape comparison");
    println!("  ablation_rate_penalty spike-rate penalty energy/quality dial");
    println!("  telemetry_overhead recorder cost on a full training epoch");
    println!("  profile_overhead   recorder cost on the forward/backward kernels");
    println!("  checkpoint_io      checkpoint save/load and guarded-training overhead");
    println!("  serve_batching     serving backend inference at batch 1 vs 32");
    println!("Kernel timings (forward/backward at b1/b8/b32) come from `spikefolio bench run`.");
}
