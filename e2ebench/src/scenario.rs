//! `scenario-matrix`: the standard stress-suite grid with frictional costs.

use crate::metrics::RunResult;
use crate::paper::market_digest;
use crate::stats::Digest;
use crate::trace::{set_program_metrics, Capture, Tracer};
use crate::{finish_trace, finish_untraced, measured, reference, timed, timed_units, Ctx};
use spikefolio::eiie::EiieAgent;
use spikefolio::training::Trainer;
use spikefolio::{
    run_scenario_matrix, DdpgAgent, DrlAgent, ScenarioMatrixOptions, SdpAgent, SdpConfig,
};
use spikefolio_baselines::scenario_baselines;
use spikefolio_env::{BacktestConfig, Backtester, CostModel, Policy};
use spikefolio_market::{MarketData, UniverseGrid, UniverseSpec};
use spikefolio_scenario::{Scenario, Scorecard, ScorecardCell};
use spikefolio_telemetry::NoopRecorder;

/// The `spikefolio scenarios run` default options for a variant: every
/// standard universe and scenario, realistic frictions.
pub fn options(variant: u64) -> ScenarioMatrixOptions {
    ScenarioMatrixOptions {
        seed: 20220314 + variant,
        universes: Vec::new(),
        scenarios: Vec::new(),
        smoke: false,
        costs: CostModel::realistic_frictions(),
    }
}

/// The seeded universe markets of the matrix.
pub fn inputs(opts: &ScenarioMatrixOptions) -> Vec<(MarketData, MarketData)> {
    UniverseSpec::standard_set(UniverseGrid::standard())
        .iter()
        .map(|s| s.generate_split(opts.seed))
        .collect()
}

/// Digest of the scorecard document.
pub fn digest(card: &Scorecard) -> u64 {
    Digest::default().str(&card.to_json()).finish()
}

/// Scorecard digest of the program's own runner.
pub fn reference_digest(variant: u64) -> u64 {
    digest(&run_scenario_matrix(&options(variant), &mut NoopRecorder).expect("standard grid"))
}

fn input_digest(opts: &ScenarioMatrixOptions) -> u64 {
    market_digest(&inputs(opts).iter().flat_map(|(a, b)| [a, b]).collect::<Vec<_>>())
}

/// Untraced run: set-up is generating the universe markets; one unit is
/// one `run_scenario_matrix`.
pub fn run(ctx: &Ctx, out: &mut RunResult) {
    let opts = options(ctx.variant);
    let (first_s, inputs_digest) = timed(|| input_digest(&opts));
    timed_units(ctx, out, |out, variant| {
        let card =
            run_scenario_matrix(&options(variant), &mut NoopRecorder).expect("standard grid");
        out.op(digest(&card) == reference::scenario(variant));
    });
    let again = finish_untraced(first_s, out, || input_digest(&opts));
    out.check(again.iter().all(|&d| d == inputs_digest), "markets are a pure function of the seed");
}

/// The backtest layer a strategy belongs to.
fn layer_of(strategy: &str) -> &'static str {
    match strategy {
        "SDP" => "backtest.sdp",
        "ONS" => "backtest.ons",
        "ANTICOR" => "backtest.anticor",
        "DRL[Jiang]" | "EIIE" | "DDPG" => "backtest.ann",
        _ => "backtest.simple",
    }
}

/// The matrix recomposed from the public calls `run_scenario_matrix`
/// makes, with its training configuration restated.
fn matrix_traced(
    opts: &ScenarioMatrixOptions,
    tr: &mut Tracer,
    cap: &mut Capture,
    steps: &mut u64,
    params: &mut usize,
) -> Scorecard {
    let mut cfg = SdpConfig::smoke();
    cfg.training.epochs = 6;
    cfg.training.steps_per_epoch = 16;
    cfg.training.batch_size = 32;
    cfg.backtest.costs = opts.costs;
    let backtester = Backtester::new(BacktestConfig {
        costs: opts.costs,
        risk_free_per_period: cfg.backtest.risk_free_per_period,
    });
    let CostModel::Frictional { commission, half_spread, impact, depth } = opts.costs else {
        panic!("the matrix workload runs frictional costs");
    };
    let mut card = Scorecard {
        seed: opts.seed,
        cost_model: format!("frictional(c={commission}, s={half_spread}, k={impact}, d={depth})"),
        cells: Vec::new(),
    };
    for (u_idx, spec) in UniverseSpec::standard_set(UniverseGrid::standard()).iter().enumerate() {
        let (train, test) = tr.time("market.gen", || spec.generate_split(opts.seed));
        let agent_seed = opts.seed.wrapping_add(u_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut ucfg = cfg.clone();
        ucfg.seed = agent_seed;
        let trainer = Trainer::new(&ucfg);
        let n = train.num_assets();
        let mut sdp = SdpAgent::new(&ucfg, n, agent_seed);
        tr.time("train.sdp", || trainer.train_sdp_with(&mut sdp, &train, cap));
        *params = sdp.network.num_params();
        let mut drl = DrlAgent::new(&ucfg, n, agent_seed ^ 0xd71);
        tr.time("train.drl", || trainer.train_drl_with(&mut drl, &train, cap));
        let mut eiie = EiieAgent::new(&ucfg, n, agent_seed ^ 0xe11e);
        tr.time("train.eiie", || trainer.train_eiie_with(&mut eiie, &train, cap));
        let mut ddpg = DdpgAgent::new(&ucfg, n, agent_seed ^ 0xddb6);
        tr.time("train.ddpg", || trainer.train_ddpg_with(&mut ddpg, &train, cap));
        for scenario in Scenario::ALL {
            let stressed = tr.time("scenario.apply", || scenario.apply(&test));
            let mut roster: Vec<Box<dyn Policy>> = vec![
                Box::new(sdp.clone()),
                Box::new(drl.clone()),
                Box::new(eiie.clone()),
                Box::new(ddpg.clone()),
            ];
            roster.extend(scenario_baselines());
            for mut policy in roster {
                let layer = layer_of(policy.name());
                let result = tr.time(layer, || backtester.run(policy.as_mut(), &stressed));
                *steps += result.log_returns.len() as u64;
                card.cells.push(ScorecardCell {
                    universe: spec.name.clone(),
                    scenario: scenario.name().to_owned(),
                    strategy: result.policy_name.clone(),
                    reward: result.log_returns.iter().sum(),
                    sharpe: result.metrics.sharpe,
                    max_drawdown: result.metrics.mdd,
                    turnover: result.turnover,
                    cost_drag: result.cost_drag(),
                    final_value: result.fapv(),
                });
            }
        }
    }
    card
}

/// Traced run: the matrix recomposed under spans, between two untraced
/// matrices; all three must reproduce the reference scorecard.
pub fn run_traced(ctx: &Ctx, out: &mut RunResult) {
    let opts = options(ctx.variant);
    let want = reference::scenario(ctx.variant);
    let untraced = |out: &mut RunResult| {
        let (wall, _, card) =
            measured(|| run_scenario_matrix(&opts, &mut NoopRecorder).expect("standard grid"));
        out.op(digest(&card) == want);
        wall
    };
    let before_s = untraced(out);

    let mut tr = Tracer::default();
    let mut cap = Capture::default();
    let (mut steps, mut params) = (0u64, 0usize);
    let root = tr.enter("scenario-matrix");
    let recomposed = matrix_traced(&opts, &mut tr, &mut cap, &mut steps, &mut params);
    tr.exit(root);
    out.check(digest(&recomposed) == want, "recomposed scorecard equals run_scenario_matrix");

    set_program_metrics(&cap, params, out);
    for layer in
        ["train.sdp", "train.drl", "train.eiie", "train.ddpg", "market.gen", "scenario.apply"]
    {
        out.set(&format!("{layer}_s"), tr.total(layer));
    }
    for class in ["sdp", "ann", "ons", "anticor", "simple"] {
        out.set(&format!("backtest.{class}_s"), tr.total(&format!("backtest.{class}")));
    }
    out.set("backtest.steps", steps as f64);
    out.set("scenario.cells", recomposed.cells.len() as f64);
    let after_s = untraced(out);
    let overhead = tr.spans()[root].duration() / ((before_s + after_s) / 2.0) - 1.0;
    finish_trace("scenario-matrix", ctx, &tr, root, overhead, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universes_are_a_pure_function_of_the_seed() {
        let mut opts = options(5);
        let a = input_digest(&opts);
        assert_eq!(a, input_digest(&opts));
        opts.seed += 1;
        assert_ne!(a, input_digest(&opts));
    }

    #[test]
    fn scorecard_check_fails_when_one_output_bit_flips() {
        let cell = ScorecardCell {
            universe: "crypto".into(),
            scenario: "calm".into(),
            strategy: "SDP".into(),
            reward: 0.125,
            sharpe: 1.5,
            max_drawdown: 0.25,
            turnover: 3.0,
            cost_drag: 0.01,
            final_value: 1.1,
        };
        let card = Scorecard { seed: 1, cost_model: "free".into(), cells: vec![cell] };
        let mut flipped = card.clone();
        flipped.cells[0].final_value = f64::from_bits(1.1f64.to_bits() ^ 1);
        assert_ne!(digest(&card), digest(&flipped));
    }

    #[test]
    fn every_roster_strategy_has_a_backtest_layer() {
        assert_eq!(layer_of("SDP"), "backtest.sdp");
        assert_eq!(layer_of("DDPG"), "backtest.ann");
        for p in scenario_baselines() {
            let layer = layer_of(p.name());
            assert!(layer.starts_with("backtest."), "{layer}");
        }
        assert_eq!(layer_of("Buy and Hold"), "backtest.simple");
    }
}
