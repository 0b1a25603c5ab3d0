//! `desk-rounds`: the live desk's continuous-learning loop, 40 rounds, with
//! the flight recorder, lineage ledger and status file on as the CLI has
//! them.

use crate::metrics::RunResult;
use crate::stats::{ceil_rank, Digest};
use crate::sys::{bytes_written, WorkDir};
use crate::trace::{set_program_metrics, Capture, Tracer};
use crate::{finish_trace, finish_untraced, measured, reference, timed, timed_units, Ctx};
use spikefolio::checkpoint::{load_sdp, save_sdp};
use spikefolio::{run_desk, DeskOptions, DeskReport, SdpAgent};
use spikefolio_snn::stbp::flat_params;
use spikefolio_telemetry::NoopRecorder;
use std::path::Path;

/// Rounds after warmup per desk run.
pub const ROUNDS: usize = 40;

/// Rounds of the untimed warm-up desk run in set-up.
const WARMUP_ROUNDS: usize = 2;

/// Risky assets of the desk's generated feed (experiment 1's universe).
const FEED_ASSETS: usize = 11;

/// Checkpoint save/load repetitions in the traced run.
const CHECKPOINT_REPS: usize = 10;

/// `spikefolio live-desk --rounds 40` in `dir` for a variant.
pub fn options(variant: u64, dir: &Path, rounds: usize) -> DeskOptions {
    let mut opts = DeskOptions::smoke(dir.to_path_buf());
    opts.seed = 20220314 + variant;
    opts.rounds = rounds;
    opts.blackbox = Some(dir.join("blackbox.json"));
    opts.lineage = Some(dir.join("lineage.jsonl"));
    opts.status = Some(dir.join("desk-top.json"));
    opts
}

/// Digest of everything a desk run decides: per-round outcomes, rewards,
/// versions and recoveries, the totals, and the final weights' CRC.
pub fn digest(report: &DeskReport) -> u64 {
    let mut d = Digest::default();
    d.u64(report.seed).u64(report.rounds.len() as u64);
    for r in &report.rounds {
        d.u64(r.round as u64).u64(r.revealed as u64).str(&r.outcome).u64(r.faults.len() as u64);
        d.f64(r.candidate_reward).f64(r.incumbent_reward).f64(r.serving_reward);
        d.u64(r.served_version).f64(r.entropy_drift).u64(r.recoveries).u64(u64::from(r.degraded));
    }
    d.u64(report.promotions).u64(report.quarantines).u64(report.recoveries);
    d.u64(report.feed_stalls).u64(report.final_version).u64(u64::from(report.final_weights_crc));
    d.u64(u64::from(report.degraded)).u64(u64::from(report.ended_early));
    d.finish()
}

fn desk_in(
    dir: &Path,
    variant: u64,
    rounds: usize,
    rec: &mut dyn spikefolio_telemetry::Recorder,
) -> DeskReport {
    let _ = std::fs::remove_dir_all(dir);
    run_desk(options(variant, dir, rounds), rec).expect("the seeded desk runs")
}

/// Report digest of the program's own desk.
pub fn reference_digest(variant: u64) -> u64 {
    let work = WorkDir::new("desk-reference");
    digest(&desk_in(&work.path().join("desk"), variant, ROUNDS, &mut NoopRecorder))
}

/// Untraced run: set-up creates a fresh desk directory and runs a short
/// warm-up desk in it; one unit is one 40-round desk in a fresh directory.
pub fn run(ctx: &Ctx, out: &mut RunResult) {
    let work = WorkDir::new("desk");
    let warmup =
        || desk_in(&work.path().join("warmup"), ctx.variant, WARMUP_ROUNDS, &mut NoopRecorder);
    let (first_s, _) = timed(warmup);
    let dir = work.path().join("desk");
    timed_units(ctx, out, |out, variant| {
        let report = desk_in(&dir, variant, ROUNDS, &mut NoopRecorder);
        out.op(digest(&report) == reference::desk(variant));
    });
    finish_untraced(first_s, out, warmup);
}

/// Round number of a desk span label `desk/round/NNN[/suffix]`, with the
/// suffix.
fn round_span(label: &str) -> Option<(&str, &str)> {
    let rest = label.strip_prefix("desk/round/")?;
    let (num, suffix) = rest.split_once('/').unwrap_or((rest, ""));
    (num.len() == 3 && num.bytes().all(|b| b.is_ascii_digit())).then_some((num, suffix))
}

/// Traced run: a desk that reports into a [`Capture`], then timed
/// checkpoint saves and loads of the desk's model topology, between two
/// untraced desks.
pub fn run_traced(ctx: &Ctx, out: &mut RunResult) {
    let work = WorkDir::new("desk");
    let dir = work.path().join("desk");
    let want = reference::desk(ctx.variant);
    let untraced = |out: &mut RunResult| {
        let (wall, _, report) = measured(|| desk_in(&dir, ctx.variant, ROUNDS, &mut NoopRecorder));
        out.op(digest(&report) == want);
        wall
    };
    let before_s = untraced(out);

    let mut tr = Tracer::default();
    let mut cap = Capture::default();
    let root = tr.enter("desk-rounds");
    let w0 = bytes_written();
    let report = tr.time("desk.run", || desk_in(&dir, ctx.variant, ROUNDS, &mut cap));
    let written = bytes_written() - w0;
    out.check(digest(&report) == want, "desk run reporting into a recorder equals the reference");

    let opts = options(ctx.variant, &dir, ROUNDS);
    let agent = SdpAgent::new(&opts.config, FEED_ASSETS, opts.seed);
    let path = work.path().join("probe.ckpt");
    let mut probe = SdpAgent::new(&opts.config, FEED_ASSETS, 0);
    for _ in 0..CHECKPOINT_REPS {
        tr.time("checkpoint.save", || save_sdp(&agent, &path)).expect("write probe checkpoint");
        tr.time("checkpoint.load", || load_sdp(&mut probe, &path)).expect("read probe checkpoint");
    }
    tr.exit(root);
    let bits = |a: &SdpAgent| -> Vec<u64> {
        flat_params(&a.network).into_iter().map(f64::to_bits).collect()
    };
    out.check(bits(&probe) == bits(&agent), "probe checkpoint round-trips bitwise");

    let spans = cap.spans_where(|l| round_span(l).is_some());
    let of = |suffix: fn(&str) -> bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|(l, _)| round_span(l).is_some_and(|(_, s)| suffix(s)))
            .map(|&(_, s)| s)
            .collect()
    };
    let rounds = of(str::is_empty);
    let fine_tune = of(|s| s == "fine_tune");
    let swaps = of(|s| s.starts_with("swap/"));
    out.check(rounds.len() == ROUNDS, format!("{} round spans for {ROUNDS} rounds", rounds.len()));
    out.set("desk.round_ms.p50", ceil_rank(&rounds, 0.5) * 1e3);
    out.set("desk.round_ms.p90", ceil_rank(&rounds, 0.9) * 1e3);
    out.set("desk.fine_tune_s", fine_tune.iter().sum());
    out.set("desk.swap_ms.p50", if swaps.is_empty() { 0.0 } else { ceil_rank(&swaps, 0.5) * 1e3 });
    out.set(
        "desk.gate_other_s",
        rounds.iter().sum::<f64>() - fine_tune.iter().sum::<f64>() - swaps.iter().sum::<f64>(),
    );
    out.set("desk.promotions", report.promotions as f64);
    out.set("desk.quarantines", report.quarantines as f64);
    out.set("desk.bytes_written", written as f64);
    let per_rep = |name: &str| -> f64 {
        let times: Vec<f64> =
            tr.spans().iter().filter(|s| s.name == name).map(|s| s.duration() * 1e3).collect();
        ceil_rank(&times, 0.5)
    };
    out.set("checkpoint.save_ms", per_rep("checkpoint.save"));
    out.set("checkpoint.load_ms", per_rep("checkpoint.load"));
    set_program_metrics(&cap, agent.network.num_params(), out);
    let after_s = untraced(out);
    // The checkpoint probes are extra work, not tracing cost.
    let overhead = tr.total("desk.run") / ((before_s + after_s) / 2.0) - 1.0;
    finish_trace("desk-rounds", ctx, &tr, root, overhead, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use spikefolio::RoundRecord;

    #[test]
    fn desk_round_labels_parse() {
        assert_eq!(round_span("desk/round/007"), Some(("007", "")));
        assert_eq!(round_span("desk/round/012/fine_tune"), Some(("012", "fine_tune")));
        assert_eq!(round_span("desk/round/003/swap/v4"), Some(("003", "swap/v4")));
        assert_eq!(round_span("desk/rounds"), None);
        assert_eq!(round_span("train/epoch"), None);
    }

    #[test]
    fn desk_check_fails_when_one_output_bit_flips() {
        let round = RoundRecord {
            round: 0,
            revealed: 46,
            outcome: "promoted".into(),
            faults: Vec::new(),
            candidate_reward: 0.01,
            incumbent_reward: 0.005,
            serving_reward: 0.01,
            served_version: 2,
            entropy_drift: 0.1,
            recoveries: 0,
            degraded: false,
        };
        let report = DeskReport {
            seed: 1,
            rounds: vec![round],
            promotions: 1,
            quarantines: 0,
            recoveries: 0,
            feed_stalls: 0,
            final_version: 2,
            final_weights_crc: 0xdead_beef,
            gate_passed_versions: vec![1, 2],
            degraded: false,
            ended_early: false,
        };
        let mut flipped = report.clone();
        flipped.final_weights_crc ^= 1;
        assert_ne!(digest(&report), digest(&flipped));
        let mut flipped = report.clone();
        flipped.rounds[0].candidate_reward = f64::from_bits(0.01f64.to_bits() ^ 1);
        assert_ne!(digest(&report), digest(&flipped));
    }
}
