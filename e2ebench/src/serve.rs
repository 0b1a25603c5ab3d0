//! `serve-open`: open-loop Poisson load on the paper-scale policy served
//! in-process over one pipelined loopback connection.
//!
//! The client is correct by construction: every request is timed from
//! the moment it was due, not from when the writer got to send it, so a
//! stall is charged to every request queued behind it; how late the
//! writer ran is reported beside. A shed or failed request counts as
//! missing any latency limit. Server stage histograms are cumulative, so
//! each phase reads the difference of two registry snapshots.

use crate::metrics::{RunResult, PHASES};
use crate::stats::{delta, summarize_ns, Digest, Summary};
use crate::sys::{cpu_seconds, WorkDir};
use crate::trace::Tracer;
use crate::{finish_trace, finish_untraced, timed, Ctx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikefolio::checkpoint::load_sdp;
use spikefolio::serving::{build_server, write_reference_checkpoint, BackendKind, ServeRunOptions};
use spikefolio::{SdpAgent, SdpConfig};
use spikefolio_env::StateBuilder;
use spikefolio_market::experiments::ExperimentPreset;
use spikefolio_serve::{HistogramSnapshot, ServerHandle, Service, ServiceConfig, Stage};
use spikefolio_telemetry::value::{parse, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Risky assets of the served universe (the paper's 11 coins).
pub const ASSETS: usize = 11;
/// Batcher worker threads, pinned to the 2-core reference box.
pub const WORKERS: usize = 2;
/// Open-loop rates of the two fixed phases (requests/s).
pub const RATES: [f64; 2] = [200.0, 800.0];
/// Latency limit on p99 for the ladder (ms).
pub const SLO_P99_MS: f64 = 10.0;
/// Ladder rate growth per step (at most 10%).
const LADDER_GROWTH: f64 = 1.10;
/// Ladder step length (s).
const LADDER_STEP_S: f64 = 1.5;
/// The ladder stops after this many consecutive failing steps.
const LADDER_FAILS: usize = 2;
/// Upper bound on ladder steps (800 rps × 1.1^24 ≈ 7900 rps).
const LADDER_MAX_STEPS: usize = 24;
/// Distinct request states; requests draw from this pool.
const STATE_POOL: usize = 256;
/// Pipelined requests that warm the server up in set-up.
const WARMUP_REQUESTS: u64 = 64;
/// Longest the client waits on one read or write of the connection.
const IO_TIMEOUT: Duration = Duration::from_secs(20);
/// Latency charged to a shed or failed request: far past any limit.
const MISSED_NS: u64 = 3_600_000_000_000;

/// The pool of request states, built with the serving [`StateBuilder`]
/// from a seeded generated market, each with its JSON rendering.
pub struct Inputs {
    states: Vec<Vec<f64>>,
    rendered: Vec<String>,
}

/// Builds the state pool for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let config = SdpConfig::paper();
    let market = ExperimentPreset::experiment1().shrunk(60, 0).generate(seed);
    assert_eq!(market.num_assets(), ASSETS, "experiment 1 trades the paper's universe");
    let builder = StateBuilder::new(config.state);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_57a7e);
    let states: Vec<Vec<f64>> = (0..STATE_POOL)
        .map(|_| {
            let t = rng.gen_range(builder.min_period()..market.num_periods());
            let raw: Vec<f64> = (0..=ASSETS).map(|_| rng.gen_range(0.0..1.0) + 1e-3).collect();
            let sum: f64 = raw.iter().sum();
            let prev: Vec<f64> = raw.iter().map(|w| w / sum).collect();
            builder.build(&market, t, &prev)
        })
        .collect();
    let rendered = states
        .iter()
        .map(|s| Value::List(s.iter().map(|&x| Value::F64(x)).collect()).to_json())
        .collect();
    Inputs { states, rendered }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Req {
    /// Wire id, unique over the run.
    pub id: u64,
    /// Offset of its due time from the phase start (s).
    pub due_s: f64,
    /// Index into the state pool.
    pub state: usize,
    /// Encoder seed.
    pub seed: u64,
}

/// Poisson arrivals at `rate` for `duration_s`, a pure function of
/// `(seed, stream)`; ids start at `first_id`.
pub fn schedule(seed: u64, stream: u64, rate: f64, duration_s: f64, first_id: u64) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= duration_s {
            return out;
        }
        out.push(Req {
            id: first_id + out.len() as u64,
            due_s: t,
            state: rng.gen_range(0..STATE_POOL),
            seed: rng.gen::<u64>(),
        });
    }
}

/// What the client saw in one phase.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    /// Per request, latency from its due time (ns); shed or failed
    /// requests read [`MISSED_NS`].
    pub latency_ns: Vec<u64>,
    /// Latencies of served requests only (ns).
    pub served_ns: Vec<u64>,
    /// How late the writer sent each request (ns).
    pub late_ns: Vec<u64>,
    /// Served weights as `(id, bits)`.
    pub weights: Vec<(u64, Vec<u64>)>,
    /// Served requests.
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Failed requests (errors, malformed or missing replies).
    pub errors: u64,
    /// Phase start to last reply (s).
    pub wall_s: f64,
}

/// Sends `reqs` on their schedule over `conn` while reading the replies.
fn drive(conn: &TcpStream, inputs: &Inputs, reqs: &[Req]) -> PhaseOutcome {
    let mut writer = conn.try_clone().expect("clone client stream");
    let mut reader = BufReader::new(conn.try_clone().expect("clone client stream"));
    let first_id = reqs.first().map_or(0, |r| r.id);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |r: &Req| start + Duration::from_secs_f64(r.due_s);
    let mut out = PhaseOutcome { latency_ns: vec![MISSED_NS; reqs.len()], ..Default::default() };
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut late = Vec::with_capacity(reqs.len());
            for r in reqs {
                let when = due(r);
                let now = Instant::now();
                if when > now {
                    std::thread::sleep(when - now);
                }
                late.push(when.elapsed().as_nanos() as u64);
                let line = format!(
                    "{{\"id\":{},\"state\":{},\"seed\":{}}}\n",
                    r.id, inputs.rendered[r.state], r.seed
                );
                if writer.write_all(line.as_bytes()).is_err() {
                    break;
                }
            }
            late
        });
        let mut line = String::new();
        let mut replies = 0;
        for _ in 0..reqs.len() {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            replies += 1;
            let now = Instant::now();
            let Ok(v) = parse(line.trim()) else {
                out.errors += 1;
                continue;
            };
            let Some(k) =
                v.get("id").and_then(Value::as_u64).and_then(|id| id.checked_sub(first_id))
            else {
                out.errors += 1;
                continue;
            };
            let Some(r) = reqs.get(k as usize) else {
                out.errors += 1;
                continue;
            };
            match (v.get("ok"), v.get("weights").and_then(Value::as_list)) {
                (Some(Value::Bool(true)), Some(w)) => {
                    let ns = now.saturating_duration_since(due(r)).as_nanos() as u64;
                    out.latency_ns[k as usize] = ns;
                    out.served_ns.push(ns);
                    out.served += 1;
                    out.weights.push((
                        r.id,
                        w.iter().filter_map(Value::as_f64).map(f64::to_bits).collect(),
                    ));
                }
                _ => match v.get("error").and_then(Value::as_str) {
                    Some("queue_full" | "deadline") => out.shed += 1,
                    _ => out.errors += 1,
                },
            }
        }
        out.wall_s = start.elapsed().as_secs_f64();
        out.late_ns = sender.join().expect("request writer thread");
        // Requests that never got a reply are failures too.
        out.errors += (reqs.len() - replies) as u64;
    });
    out
}

/// The server under test with one open client connection. Dropping it
/// closes the connection, stops the server and joins its thread.
struct Stack {
    conn: Option<TcpStream>,
    handle: ServerHandle,
    service: Arc<Service>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    checkpoint: String,
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.take() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Set-up: writes the seeded checkpoint, builds and starts the server
/// (store, service, listener), connects, and warms up with a burst of
/// pipelined requests.
fn start_stack(dir: &WorkDir, seed: u64, inputs: &Inputs) -> Stack {
    let checkpoint = dir.path().join("serving.ckpt").to_string_lossy().into_owned();
    let config = SdpConfig::paper();
    write_reference_checkpoint(&checkpoint, &config, ASSETS, seed).expect("write checkpoint");
    let service = ServiceConfig { workers: WORKERS, ..ServiceConfig::default() };
    let (server, handle, svc) = build_server(&ServeRunOptions {
        addr: "127.0.0.1:0".to_owned(),
        checkpoint: checkpoint.clone(),
        config,
        num_assets: ASSETS,
        backend: BackendKind::Float,
        service,
        telemetry: None,
        trace: None,
        trace_sample: 0,
        slo_us: None,
    })
    .expect("build server");
    let thread = std::thread::spawn(move || server.run());
    let conn = TcpStream::connect(handle.addr()).expect("connect to the server");
    conn.set_nodelay(true).expect("disable Nagle on the client");
    // A stalled server ends the phase as failed requests, not as a hang.
    conn.set_read_timeout(Some(IO_TIMEOUT)).expect("set client read timeout");
    conn.set_write_timeout(Some(IO_TIMEOUT)).expect("set client write timeout");
    let stack = Stack { conn: Some(conn), handle, service: svc, thread: Some(thread), checkpoint };
    let warm: Vec<Req> = (0..WARMUP_REQUESTS)
        .map(|i| Req { id: u64::MAX / 2 + i, due_s: 0.0, state: i as usize % STATE_POOL, seed: i })
        .collect();
    let w = drive(stack.conn.as_ref().expect("open connection"), inputs, &warm);
    assert_eq!(w.served, WARMUP_REQUESTS, "warm-up requests are all served");
    stack
}

/// Checks every request of `phase`: served, with weights bitwise equal to
/// a direct [`SdpNetwork::act`](spikefolio_snn::network::SdpNetwork::act)
/// on the same state and encoder seed. Returns the served-weights digest
/// and the reference digest, both in request-id order. The direct acts
/// run on [`WORKERS`] threads once the server has stopped.
fn check_phase(
    agent: &SdpAgent,
    inputs: &Inputs,
    reqs: &[Req],
    phase: &PhaseOutcome,
    out: &mut RunResult,
) -> (u64, u64) {
    let chunk = reqs.len().div_ceil(WORKERS).max(1);
    let direct: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = reqs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|r| {
                            let mut rng = StdRng::seed_from_u64(r.seed);
                            let w = agent.network.act(&inputs.states[r.state], &mut rng);
                            w.into_iter().map(f64::to_bits).collect::<Vec<u64>>()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("reference act thread")).collect()
    });
    let mut served: Vec<&(u64, Vec<u64>)> = phase.weights.iter().collect();
    served.sort_by_key(|(id, _)| *id);
    let (mut got, mut want) = (Digest::default(), Digest::default());
    let mut next = served.iter().peekable();
    for (r, direct) in reqs.iter().zip(&direct) {
        want.u64(r.id);
        direct.iter().for_each(|&b| {
            want.u64(b);
        });
        match next.peek() {
            Some((id, bits)) if *id == r.id => {
                got.u64(*id);
                bits.iter().for_each(|&b| {
                    got.u64(b);
                });
                out.op(bits == direct);
                next.next();
            }
            _ => out.op(false),
        }
    }
    (got.finish(), want.finish())
}

fn stage_snapshots(service: &Service) -> Vec<HistogramSnapshot> {
    Stage::ALL.iter().map(|&s| service.registry().stage(s).snapshot()).collect()
}

/// Waits until the render stage has counted every reply of the phase: the
/// server observes render after writing, so a reply can reach the client
/// before its render time is recorded.
fn await_render(service: &Service, expected: u64) {
    let deadline = Instant::now() + Duration::from_secs(1);
    while service.registry().stage(Stage::Render).count() < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Client and server view of one phase, reported as per-layer metrics.
fn report_phase(
    name: &str,
    phase: &PhaseOutcome,
    before: &[HistogramSnapshot],
    after: &[HistogramSnapshot],
    batches: (u64, u64),
    out: &mut RunResult,
) {
    let mut stage_mean_sum = 0.0;
    for (i, stage) in Stage::ALL.iter().enumerate() {
        let d: Summary = delta(&before[i], &after[i]);
        out.set(&format!("serve.{}.p50_us.{name}", stage.name()), d.p50_us);
        out.set(&format!("serve.{}.p99_us.{name}", stage.name()), d.p99_us);
        stage_mean_sum += d.mean_us;
    }
    let lat = summarize_ns(&phase.latency_ns);
    out.set(&format!("lat_p50_ms.{name}"), lat.p50_us / 1e3);
    out.set(&format!("lat_p99_ms.{name}"), lat.p99_us / 1e3);
    let served = summarize_ns(&phase.served_ns);
    out.set(&format!("serve.residual_mean_us.{name}"), served.mean_us - stage_mean_sum);
    out.set(&format!("gen.late_p99_us.{name}"), summarize_ns(&phase.late_ns).p99_us);
    out.set(&format!("serve.batch_mean.{name}"), batches.1 as f64 / batches.0.max(1) as f64);
    out.set(&format!("serve.served.{name}"), phase.served as f64);
    out.set(&format!("serve.shed.{name}"), phase.shed as f64);
    out.set(&format!("serve.errors.{name}"), phase.errors as f64);
}

/// Whether a ladder step meets the limit: nothing shed or failed, p99
/// within [`SLO_P99_MS`], and no growing backlog (the last quarter of
/// requests waits no longer than twice the first quarter plus 1 ms).
pub fn step_passes(phase: &PhaseOutcome) -> bool {
    let n = phase.latency_ns.len();
    if n == 0 || phase.served as usize != n {
        return false;
    }
    let p99_ms = summarize_ns(&phase.latency_ns).p99_us / 1e3;
    let q = (n / 4).max(1);
    let mean_ms = |s: &[u64]| s.iter().map(|&x| x as f64).sum::<f64>() / s.len() as f64 / 1e6;
    let growing = mean_ms(&phase.latency_ns[n - q..]) > 2.0 * mean_ms(&phase.latency_ns[..q]) + 1.0;
    p99_ms <= SLO_P99_MS && !growing
}

/// The highest rate meeting the limit ([`step_passes`]). Climbs from the
/// `mid` rate by [`LADDER_GROWTH`] until [`LADDER_FAILS`] consecutive
/// steps fail; when no step at or above `mid` passes, descends from `mid`
/// by the same factor to the first passing step. Returns 0 if none does.
fn ladder(tr: &mut Tracer, conn: &TcpStream, inputs: &Inputs, seed: u64, mut next_id: u64) -> f64 {
    let mut steps = 0;
    let mut step = |tr: &mut Tracer, rate: f64| -> bool {
        let reqs = schedule(seed, 100 + steps, rate, LADDER_STEP_S, next_id);
        next_id += reqs.len() as u64;
        steps += 1;
        step_passes(&tr.time("serve.ladder.step", || drive(conn, inputs, &reqs)))
    };
    let (mut best, mut fails, mut rate) = (0.0f64, 0, RATES[1]);
    for _ in 0..LADDER_MAX_STEPS {
        if step(tr, rate) {
            best = rate;
            fails = 0;
        } else {
            fails += 1;
            if fails == LADDER_FAILS {
                break;
            }
        }
        rate *= LADDER_GROWTH;
    }
    rate = RATES[1];
    while best == 0.0 && rate > RATES[0] {
        rate /= LADDER_GROWTH;
        if step(tr, rate) {
            best = rate;
        }
    }
    best
}

/// Runs the workload. Untraced: the two fixed phases give `wall_s` and
/// `cpu_s`. Traced: the same phases between registry snapshots, then the
/// rate ladder.
pub fn run(ctx: &Ctx, traced: bool, out: &mut RunResult) {
    let inputs = inputs(ctx.seed);
    let dir = WorkDir::new("serve");
    let (first_s, stack) = timed(|| start_stack(&dir, ctx.seed, &inputs));
    let conn = stack.conn.as_ref().expect("open connection");
    let phase_s = ctx.seconds / 2.0;
    let mut next_id = 0;
    let schedules: Vec<Vec<Req>> = RATES
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let s = schedule(ctx.seed, i as u64, rate, phase_s, next_id);
            next_id += s.len() as u64;
            s
        })
        .collect();

    let mut tr = Tracer::default();
    let root = tr.enter("serve-open");
    let mut snapshot_s = 0.0;
    let c0 = cpu_seconds();
    let mut phases = Vec::new();
    for (name, reqs) in PHASES.iter().zip(&schedules) {
        let t = Instant::now();
        let (before, stats0) = (stage_snapshots(&stack.service), stack.service.stats());
        let rendered = stack.service.registry().stage(Stage::Render).count();
        snapshot_s += t.elapsed().as_secs_f64();
        let phase = tr.time(&format!("serve.{name}"), || drive(conn, &inputs, reqs));
        let t = Instant::now();
        await_render(&stack.service, rendered + phase.served);
        let (after, stats1) = (stage_snapshots(&stack.service), stack.service.stats());
        snapshot_s += t.elapsed().as_secs_f64();
        let batches =
            (stats1.batches - stats0.batches, stats1.batched_samples - stats0.batched_samples);
        report_phase(name, &phase, &before, &after, batches, out);
        phases.push(phase);
    }
    out.set("cpu_s", cpu_seconds() - c0);
    let phases_s: f64 = phases.iter().map(|p| p.wall_s).sum();
    out.set("wall_s", phases_s);

    if traced {
        let id = tr.enter("serve.ladder");
        let best = ladder(&mut tr, conn, &inputs, ctx.seed, next_id);
        tr.exit(id);
        out.set("max_rps_slo", best);
    }
    tr.exit(root);
    let mut agent = SdpAgent::new(&SdpConfig::paper(), ASSETS, 0);
    load_sdp(&mut agent, &stack.checkpoint).expect("reload the served checkpoint");
    drop(stack);
    if !traced {
        finish_untraced(first_s, out, || drop(start_stack(&dir, ctx.seed, &inputs)));
    }

    for (reqs, phase) in schedules.iter().zip(&phases) {
        let (got, want) = check_phase(&agent, &inputs, reqs, phase, out);
        out.check(got == want, "served-weights digest equals the direct act digest");
    }
    if traced {
        // Tracing adds nothing to the request path (the registry is always
        // on); its cost is reading the snapshots around each phase.
        finish_trace("serve-open", ctx, &tr, root, snapshot_s / phases_s, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_states_and_schedule_are_a_pure_function_of_the_seed() {
        let a = inputs(7);
        let b = inputs(7);
        assert_eq!(a.states, b.states);
        assert_ne!(a.states, inputs(8).states);
        assert_eq!(
            a.states[0].len(),
            StateBuilder::new(SdpConfig::paper().state).state_dim(ASSETS)
        );
        assert_eq!(schedule(7, 0, 800.0, 2.0, 0), schedule(7, 0, 800.0, 2.0, 0));
        assert_ne!(schedule(7, 0, 800.0, 2.0, 0), schedule(8, 0, 800.0, 2.0, 0));
        assert_ne!(schedule(7, 0, 800.0, 2.0, 0), schedule(7, 1, 800.0, 2.0, 0));
    }

    #[test]
    fn schedule_has_the_requested_rate_and_increasing_due_times() {
        let s = schedule(1, 0, 1000.0, 10.0, 5);
        let n = s.len() as f64;
        assert!((n - 10_000.0).abs() < 400.0, "{n} arrivals");
        assert!(s.windows(2).all(|w| w[0].due_s < w[1].due_s && w[1].id == w[0].id + 1));
        assert_eq!(s[0].id, 5);
    }

    fn phase_with(latency_ms: &[f64]) -> PhaseOutcome {
        let ns: Vec<u64> = latency_ms.iter().map(|ms| (ms * 1e6) as u64).collect();
        PhaseOutcome {
            served: ns.iter().filter(|&&x| x < MISSED_NS).count() as u64,
            latency_ns: ns,
            ..Default::default()
        }
    }

    #[test]
    fn ladder_step_fails_on_a_tail_a_miss_or_a_backlog() {
        assert!(step_passes(&phase_with(&[3.0; 200])));
        let mut tail = vec![3.0; 200];
        tail[197..].fill(12.0);
        assert!(!step_passes(&phase_with(&tail)), "p99 above the limit");
        let mut missed = phase_with(&[3.0; 200]);
        missed.latency_ns[10] = MISSED_NS;
        missed.served -= 1;
        assert!(!step_passes(&missed), "a shed request misses the limit");
        let backlog: Vec<f64> = (0..200).map(|i| 1.0 + i as f64 * 0.03).collect();
        assert!(!step_passes(&phase_with(&backlog)), "latency growing through the step");
    }

    #[test]
    fn serve_check_fails_when_one_output_bit_flips() {
        let inputs = inputs(3);
        let agent = SdpAgent::new(&SdpConfig::paper(), ASSETS, 3);
        let reqs = schedule(3, 0, 200.0, 0.05, 0);
        assert!(!reqs.is_empty());
        let weights: Vec<(u64, Vec<u64>)> = reqs
            .iter()
            .map(|r| {
                let w =
                    agent.network.act(&inputs.states[r.state], &mut StdRng::seed_from_u64(r.seed));
                (r.id, w.into_iter().map(f64::to_bits).collect())
            })
            .collect();
        let mut phase = PhaseOutcome { weights, served: reqs.len() as u64, ..Default::default() };
        let mut out = RunResult::default();
        let (got, want) = check_phase(&agent, &inputs, &reqs, &phase, &mut out);
        assert_eq!((got, out.failed), (want, 0));
        phase.weights[0].1[0] ^= 1;
        let mut out = RunResult::default();
        let (got, want) = check_phase(&agent, &inputs, &reqs, &phase, &mut out);
        assert_ne!(got, want);
        assert_eq!(out.failed, 1);
    }
}
