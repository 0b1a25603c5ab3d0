//! `paper-tables`: Table 3 then Table 4 at the CLI's default medium scale.

use crate::metrics::RunResult;
use crate::stats::Digest;
use crate::trace::{set_program_metrics, Capture, Tracer};
use crate::{finish_trace, finish_untraced, measured, reference, timed, timed_units, Ctx};
use spikefolio::experiments::{
    run_table3, run_table4, ExperimentOutcome, PowerOutcome, RunOptions, StrategyOutcome,
    PAPER_LOIHI_NJ_PER_INF,
};
use spikefolio::training::Trainer;
use spikefolio::{DrlAgent, LoihiDeployment, SdpAgent, SdpConfig};
use spikefolio_baselines::{Anticor, BestStock, Ons, Ucrp, M0};
use spikefolio_env::{Backtester, Policy};
use spikefolio_loihi::device::{DeviceModel, PAPER_CPU_NJ_PER_INF, PAPER_GPU_NJ_PER_INF};
use spikefolio_loihi::{LoihiChip, LoihiEnergyModel, QuantizeOptions};
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_market::MarketData;

/// Training worker threads, pinned to the 2-core reference box.
pub const TRAIN_THREADS: usize = 2;

/// The `spikefolio table3|table4` default (medium) options for a variant.
pub fn options(variant: u64) -> RunOptions {
    let mut config = SdpConfig::paper();
    config.state.window = 6;
    config.network.hidden = vec![64, 64];
    config.network.pop_in = 6;
    config.network.pop_out = 6;
    config.training.epochs = 10;
    config.training.steps_per_epoch = 20;
    config.training.batch_size = 32;
    config.training.learning_rate = 5e-4;
    config.training.parallelism = TRAIN_THREADS;
    RunOptions {
        config,
        shrink: Some(SHRINK),
        market_seed: 2016 + variant,
        guard: None,
        sanitize: None,
    }
}

const SHRINK: (i64, i64) = (240, 60);

fn presets() -> Vec<ExperimentPreset> {
    ExperimentPreset::all().into_iter().map(|p| p.shrunk(SHRINK.0, SHRINK.1)).collect()
}

/// Digest of every close price of a list of markets.
pub fn market_digest(markets: &[&MarketData]) -> u64 {
    let mut d = Digest::default();
    for m in markets {
        d.u64(m.num_periods() as u64).u64(m.num_assets() as u64);
        for t in 0..m.num_periods() {
            for a in 0..m.num_assets() {
                d.f64(m.close(t, a));
            }
        }
    }
    d.finish()
}

/// The seeded markets Table 3 and Table 4 train and test on.
pub fn inputs(opts: &RunOptions) -> Vec<(MarketData, MarketData)> {
    presets().iter().map(|p| p.generate_split(opts.market_seed)).collect()
}

/// Digest of the Table 3 rows: experiment, strategy and every metric bit.
pub fn digest_table3(t3: &[ExperimentOutcome]) -> u64 {
    let mut d = Digest::default();
    for e in t3 {
        d.str(&e.experiment);
        for StrategyOutcome { strategy, metrics: m } in &e.rows {
            d.str(strategy).f64(m.fapv).f64(m.sharpe).f64(m.mdd).f64(m.sortino).f64(m.calmar);
            d.f64(m.annual_volatility).f64(m.mean_log_return).u64(m.periods as u64);
        }
    }
    d.finish()
}

/// Digest of the Table 4 rows: experiment, device label and every bit.
pub fn digest_table4(t4: &[PowerOutcome]) -> u64 {
    let mut d = Digest::default();
    for e in t4 {
        d.str(&e.experiment);
        for r in &e.rows {
            d.str(&r.label).f64(r.idle_w).f64(r.dyn_w).f64(r.inf_per_s).f64(r.nj_per_inf);
        }
    }
    d.finish()
}

/// `[table3, table4]` digests of `run_table3` and `run_table4` themselves.
pub fn reference_digests(variant: u64) -> Vec<u64> {
    let opts = options(variant);
    vec![digest_table3(&run_table3(&opts)), digest_table4(&run_table4(&opts))]
}

fn check_tables(variant: u64, t3: &[ExperimentOutcome], t4: &[PowerOutcome], out: &mut RunResult) {
    let [r3, r4] = reference::paper(variant);
    out.op(digest_table3(t3) == r3);
    out.op(digest_table4(t4) == r4);
}

fn input_digest(opts: &RunOptions) -> u64 {
    market_digest(&inputs(opts).iter().flat_map(|(a, b)| [a, b]).collect::<Vec<_>>())
}

/// Untraced run: set-up is generating the seeded markets; one unit is
/// `run_table3` followed by `run_table4`.
pub fn run(ctx: &Ctx, out: &mut RunResult) {
    let opts = options(ctx.variant);
    let (first_s, inputs_digest) = timed(|| input_digest(&opts));
    timed_units(ctx, out, |out, variant| {
        let opts = options(variant);
        let t3 = run_table3(&opts);
        let t4 = run_table4(&opts);
        check_tables(variant, &t3, &t4, out);
    });
    let again = finish_untraced(first_s, out, || input_digest(&opts));
    out.check(again.iter().all(|&d| d == inputs_digest), "markets are a pure function of the seed");
}

/// Work counted along the traced unit.
#[derive(Debug, Default)]
struct Tally {
    steps: u64,
    params: usize,
}

fn backtest(
    tr: &mut Tracer,
    layer: &str,
    policy: &mut dyn Policy,
    market: &MarketData,
    config: &SdpConfig,
    tally: &mut Tally,
) -> StrategyOutcome {
    let result = tr.time(layer, || Backtester::new(config.backtest).run(policy, market));
    tally.steps += result.log_returns.len() as u64;
    StrategyOutcome { strategy: result.policy_name.clone(), metrics: result.metrics }
}

/// Table 3 recomposed from the public calls `run_table3` makes, each
/// inside a benchmark span named after its layer.
fn table3_traced(
    opts: &RunOptions,
    tr: &mut Tracer,
    cap: &mut Capture,
    tally: &mut Tally,
) -> Vec<ExperimentOutcome> {
    let cfg = &opts.config;
    let trainer = Trainer::new(cfg);
    let mut outcomes = Vec::new();
    for preset in presets() {
        let (train, test) = tr.time("market.gen", || preset.generate_split(opts.market_seed));
        let mut sdp = SdpAgent::new(cfg, train.num_assets(), cfg.seed);
        let sdp_log = tr.time("train.sdp", || trainer.train_sdp_with(&mut sdp, &train, cap));
        tally.params = sdp.network.num_params();
        let mut drl = DrlAgent::new(cfg, train.num_assets(), cfg.seed);
        let drl_log = tr.time("train.drl", || trainer.train_drl_with(&mut drl, &train, cap));
        let anticor_window = 15.min((test.num_periods() / 2).saturating_sub(1)).max(2);
        let rows = vec![
            backtest(tr, "backtest.sdp", &mut sdp, &test, cfg, tally),
            backtest(tr, "backtest.ann", &mut drl, &test, cfg, tally),
            backtest(tr, "backtest.ons", &mut Ons::new(), &test, cfg, tally),
            backtest(tr, "backtest.simple", &mut BestStock::new(), &test, cfg, tally),
            backtest(
                tr,
                "backtest.anticor",
                &mut Anticor::with_window(anticor_window),
                &test,
                cfg,
                tally,
            ),
            backtest(tr, "backtest.simple", &mut M0::new(), &test, cfg, tally),
            backtest(tr, "backtest.simple", &mut Ucrp::new(), &test, cfg, tally),
        ];
        outcomes.push(ExperimentOutcome {
            experiment: preset.name.to_owned(),
            rows,
            sdp_log,
            drl_log,
        });
    }
    outcomes
}

/// Table 4 recomposed from the public calls `run_table4` makes.
fn table4_traced(
    opts: &RunOptions,
    tr: &mut Tracer,
    cap: &mut Capture,
    tally: &mut Tally,
) -> Vec<PowerOutcome> {
    let cfg = &opts.config;
    let trainer = Trainer::new(cfg);
    let chip = LoihiChip::default();
    let mut energy_model: Option<LoihiEnergyModel> = None;
    let mut outcomes = Vec::new();
    for preset in presets() {
        let (train, test) = tr.time("market.gen", || preset.generate_split(opts.market_seed));
        let mut sdp = SdpAgent::new(cfg, train.num_assets(), cfg.seed);
        tr.time("train.sdp", || trainer.train_sdp_with(&mut sdp, &train, cap));
        let mut deployed = tr
            .time("loihi.quantize", || {
                LoihiDeployment::new_recorded(&sdp, &chip, &QuantizeOptions::default(), cap)
            })
            .expect("the medium network deploys on one chip");
        let result =
            tr.time("loihi.infer", || Backtester::new(cfg.backtest).run(&mut deployed, &test));
        tally.steps += result.log_returns.len() as u64;
        spikefolio_loihi::telemetry::record_run_stats(
            cap,
            &deployed.total_stats,
            deployed.inferences,
        );
        let mean_stats = deployed.mean_stats().to_spike_stats();
        let model = *energy_model.get_or_insert_with(|| {
            LoihiEnergyModel::calibrated(&mean_stats, PAPER_LOIHI_NJ_PER_INF)
        });
        let t = cfg.network.timesteps;
        let exp_no = preset.name.chars().last().unwrap_or('?');
        let loihi_row = model.report(&format!("SDP-Exp{exp_no} / Loihi (T={t})"), &mean_stats, t);
        let drl = DrlAgent::new(cfg, train.num_assets(), cfg.seed);
        let flops = DeviceModel::mlp_flops(&drl.network);
        let cpu = DeviceModel::cpu_corei7_7500().calibrated_to(PAPER_CPU_NJ_PER_INF, flops);
        let gpu = DeviceModel::gpu_tesla_k80().calibrated_to(PAPER_GPU_NJ_PER_INF, flops);
        outcomes.push(PowerOutcome {
            experiment: preset.name.to_owned(),
            rows: vec![
                cpu.report(&format!("DRL-Exp{exp_no} / CPU"), flops),
                gpu.report(&format!("DRL-Exp{exp_no} / GPU"), flops),
                loihi_row,
            ],
        });
    }
    outcomes
}

/// Traced run: the same unit recomposed under spans, between two
/// untraced units; all three must reproduce the reference rows.
pub fn run_traced(ctx: &Ctx, out: &mut RunResult) {
    let opts = options(ctx.variant);
    let untraced = |out: &mut RunResult| {
        let (wall, _, (t3, t4)) = measured(|| (run_table3(&opts), run_table4(&opts)));
        check_tables(ctx.variant, &t3, &t4, out);
        (wall, t3, t4)
    };
    let (before_s, t3, t4) = untraced(out);

    let mut tr = Tracer::default();
    let mut cap = Capture::default();
    let mut tally = Tally::default();
    let root = tr.enter("paper-tables");
    let id = tr.enter("table3");
    let t3r = table3_traced(&opts, &mut tr, &mut cap, &mut tally);
    tr.exit(id);
    let id = tr.enter("table4");
    let t4r = table4_traced(&opts, &mut tr, &mut cap, &mut tally);
    tr.exit(id);
    tr.exit(root);
    out.check(digest_table3(&t3r) == digest_table3(&t3), "recomposed Table 3 equals run_table3");
    out.check(digest_table4(&t4r) == digest_table4(&t4), "recomposed Table 4 equals run_table4");

    set_program_metrics(&cap, tally.params, out);
    for layer in ["train.sdp", "train.drl", "market.gen", "loihi.quantize", "loihi.infer"] {
        out.set(&format!("{layer}_s"), tr.total(layer));
    }
    for class in ["sdp", "ann", "ons", "anticor", "simple"] {
        out.set(&format!("backtest.{class}_s"), tr.total(&format!("backtest.{class}")));
    }
    out.set("backtest.steps", tally.steps as f64);
    let inferences = cap.counter_total(spikefolio_telemetry::labels::COUNTER_LOIHI_INFERENCES);
    out.set("loihi.inferences", inferences as f64);
    out.set(
        "loihi.synops_per_inf",
        cap.counter_total(spikefolio_telemetry::labels::COUNTER_LOIHI_SYNOPS) as f64
            / inferences.max(1) as f64,
    );
    let nj: Vec<f64> = t4r.iter().map(|p| p.loihi().nj_per_inf).collect();
    out.set("loihi.nj_per_inf", nj.iter().sum::<f64>() / nj.len() as f64);
    let (after_s, ..) = untraced(out);
    let overhead = tr.spans()[root].duration() / ((before_s + after_s) / 2.0) - 1.0;
    finish_trace("paper-tables", ctx, &tr, root, overhead, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markets_are_a_pure_function_of_the_seed() {
        let mut opts = options(3);
        let a = inputs(&opts);
        let b = inputs(&opts);
        let refs = |v: &[(MarketData, MarketData)]| -> u64 {
            market_digest(&v.iter().flat_map(|(x, y)| [x, y]).collect::<Vec<_>>())
        };
        assert_eq!(refs(&a), refs(&b));
        assert_eq!(refs(&a), input_digest(&opts));
        opts.market_seed += 1;
        assert_ne!(refs(&a), refs(&inputs(&opts)));
    }

    fn one_bit_flipped(x: f64) -> f64 {
        f64::from_bits(x.to_bits() ^ 1)
    }

    #[test]
    fn table_checks_fail_when_one_output_bit_flips() {
        // Checks the digests on a cheap hand-built table, not a full run.
        let m = spikefolio_env::Metrics::from_values(&[1.0, 1.1, 1.05], 365.0, 0.0);
        let row = StrategyOutcome { strategy: "SDP".into(), metrics: m };
        let t3 = vec![ExperimentOutcome {
            experiment: "Experiment 1".into(),
            rows: vec![row.clone()],
            sdp_log: Default::default(),
            drl_log: Default::default(),
        }];
        let mut flipped = t3.clone();
        flipped[0].rows[0].metrics.sharpe = one_bit_flipped(m.sharpe);
        assert_ne!(digest_table3(&t3), digest_table3(&flipped));

        let report = spikefolio_loihi::EnergyReport {
            label: "SDP-Exp1 / Loihi (T=5)".into(),
            idle_w: 0.1,
            dyn_w: 0.2,
            inf_per_s: 1000.0,
            nj_per_inf: 15.81,
        };
        let t4 = vec![PowerOutcome { experiment: "Experiment 1".into(), rows: vec![report] }];
        let mut flipped = t4.clone();
        flipped[0].rows[0].nj_per_inf = one_bit_flipped(15.81);
        assert_ne!(digest_table4(&t4), digest_table4(&flipped));
    }
}
