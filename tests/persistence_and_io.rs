//! Cross-crate integration: checkpoints survive the full train → save →
//! reload → trade pipeline, CSV market data round-trips through a
//! backtest, and the EIIE extension interoperates with the rest of the
//! stack.

use spikefolio::agent::SdpAgent;
use spikefolio::checkpoint;
use spikefolio::config::SdpConfig;
use spikefolio::eiie::EiieAgent;
use spikefolio::training::Trainer;
use spikefolio_env::Backtester;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_market::io::{from_csv, to_csv};

fn smoke_config() -> SdpConfig {
    let mut cfg = SdpConfig::smoke();
    cfg.training.epochs = 2;
    cfg.training.steps_per_epoch = 4;
    cfg.training.batch_size = 8;
    cfg
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spikefolio-it-{}-{name}", std::process::id()));
    p
}

#[test]
fn trained_checkpoint_reproduces_backtest() {
    let (train, test) = ExperimentPreset::experiment1().shrunk(50, 15).generate_split(3);
    let cfg = smoke_config();
    let mut agent = SdpAgent::new(&cfg, train.num_assets(), cfg.seed);
    let _ = Trainer::new(&cfg).train_sdp(&mut agent, &train);
    let reference = Backtester::new(cfg.backtest).run(&mut agent.clone(), &test);

    let path = tmp("trained.ckpt");
    checkpoint::save_sdp(&agent, &path).unwrap();
    let mut restored = SdpAgent::new(&cfg, train.num_assets(), 424242);
    checkpoint::load_sdp(&mut restored, &path).unwrap();
    let replayed = Backtester::new(cfg.backtest).run(&mut restored, &test);
    std::fs::remove_file(path).ok();

    assert_eq!(reference.values, replayed.values, "checkpointed policy must trade identically");
}

#[test]
fn csv_round_trip_preserves_backtests() {
    let market = ExperimentPreset::experiment2().shrunk(30, 8).generate(5);
    let csv = to_csv(&market);
    let reloaded = from_csv(&csv, market.start_date(), market.periods_per_day()).unwrap();

    let mut a = spikefolio_baselines::Ucrp::new();
    let mut b = spikefolio_baselines::Ucrp::new();
    let r1 = Backtester::default().run(&mut a, &market);
    let r2 = Backtester::default().run(&mut b, &reloaded);
    assert_eq!(r1.values, r2.values);
    assert_eq!(r1.metrics, r2.metrics);
}

#[test]
fn eiie_trains_and_backtests_end_to_end() {
    let (train, test) = ExperimentPreset::experiment1().shrunk(60, 15).generate_split(9);
    let cfg = smoke_config();
    let mut agent = EiieAgent::new(&cfg, train.num_assets(), cfg.seed);
    let log = Trainer::new(&cfg).train_eiie(&mut agent, &train);
    assert!(log.steps > 0);
    let r = Backtester::new(cfg.backtest).run(&mut agent, &test);
    assert!(r.fapv() > 0.0 && r.fapv().is_finite());
    for w in &r.weights {
        assert!(spikefolio_tensor::simplex::is_on_simplex(w, 1e-9));
    }
}

#[test]
fn alif_agent_trains_and_cannot_deploy() {
    use spikefolio::deploy::LoihiDeployment;
    use spikefolio_loihi::LoihiChip;
    use spikefolio_snn::neuron::AdaptiveParams;
    let (train, test) = ExperimentPreset::experiment1().shrunk(40, 10).generate_split(3);
    let mut cfg = smoke_config();
    cfg.network.adaptation = Some(AdaptiveParams::new());
    let mut agent = SdpAgent::new(&cfg, train.num_assets(), cfg.seed);
    let _ = Trainer::new(&cfg).train_sdp(&mut agent, &train);
    let r = Backtester::new(cfg.backtest).run(&mut agent, &test);
    assert!(r.fapv() > 0.0, "ALIF agent must train and trade");
    // Chip deployment is LIF-only by design.
    let deploy = std::panic::catch_unwind(|| LoihiDeployment::new(&agent, &LoihiChip::default()));
    assert!(deploy.is_err(), "ALIF deployment must be rejected");
}
