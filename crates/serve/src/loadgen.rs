//! Seeded load generation against a running server, with a
//! `spikefolio.serve.v1` JSON report.
//!
//! Two modes: **closed-loop** (`concurrency` connections, each sending
//! its next request the moment the previous response lands — measures
//! peak sustainable throughput) and **open-loop** (requests paced at a
//! target aggregate rate regardless of response latency — measures
//! latency under a fixed offered load, the way a market data feed
//! actually arrives). Request states are derived from the run seed and
//! the request index only, so two runs against a deterministic server
//! must produce bitwise-identical weights; `runs: 2` checks exactly
//! that.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikefolio_telemetry::value::{parse, Value};

use crate::lock;
use crate::metrics::{HistogramSnapshot, LatencyHistogram};
use crate::protocol::SERVE_SCHEMA;

/// Load-generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadgenOptions {
    /// Total requests per run.
    pub requests: usize,
    /// Concurrent connections (closed-loop workers, or pacing lanes in
    /// open-loop mode).
    pub concurrency: usize,
    /// `Some(rps)` switches to open-loop mode at that aggregate rate.
    pub open_rps: Option<f64>,
    /// Seed for the generated request states.
    pub seed: u64,
    /// Per-request deadline forwarded to the server (ms).
    pub deadline_ms: Option<u64>,
    /// Number of identical passes; with 2 the report carries a bitwise
    /// determinism verdict comparing served weights across passes.
    pub runs: usize,
    /// Connection-setup retries per socket (0 = fail on the first
    /// refusal). Chaos runs restart the server mid-load; with retries
    /// the harness rides out the gap instead of aborting.
    pub connect_retries: u32,
    /// Base of the capped exponential backoff between connection
    /// attempts, milliseconds.
    pub connect_backoff_ms: u64,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self {
            requests: 256,
            concurrency: 8,
            open_rps: None,
            seed: 2016,
            deadline_ms: None,
            runs: 1,
            connect_retries: 0,
            connect_backoff_ms: 50,
        }
    }
}

/// Latency percentiles over served responses (µs), read from a
/// [`LatencyHistogram`] so they follow the same ceil-rank rule as the
/// server's stage percentiles printed beside them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Worst observed.
    pub max_us: f64,
}

impl From<&HistogramSnapshot> for LatencySummary {
    fn from(s: &HistogramSnapshot) -> Self {
        Self {
            p50_us: s.p50_us,
            p95_us: s.p95_us,
            p99_us: s.p99_us,
            mean_us: s.mean_us,
            max_us: s.max_us,
        }
    }
}

/// One server-side stage latency summary scraped from the `metrics`
/// verb (µs, except `count`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStage {
    /// Observations the server recorded for this stage.
    pub count: u64,
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Worst observed.
    pub max_us: f64,
}

/// One load-generation run, rendered with [`LoadReport::to_json`] /
/// [`LoadReport::render`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// `"closed"` or `"open"`.
    pub mode: String,
    /// Requests sent.
    pub requests: u64,
    /// Responses with weights.
    pub served: u64,
    /// Sheds reported as `queue_full`.
    pub shed_queue_full: u64,
    /// Sheds reported as `deadline`.
    pub shed_deadline: u64,
    /// Every other error line.
    pub errors: u64,
    /// Wall time of the run (s).
    pub wall_s: f64,
    /// Served responses per second.
    pub throughput_rps: f64,
    /// Latency percentiles over served responses.
    pub latency: LatencySummary,
    /// `batch size → response count` distribution reported by the
    /// server (absent in deterministic mode, which omits batch fields).
    pub batch_hist: Vec<(usize, u64)>,
    /// Largest batch observed in responses.
    pub max_batch: u64,
    /// `Some(true)` when a two-pass run produced bitwise-identical
    /// weights, `Some(false)` when it did not, `None` for single runs.
    pub deterministic: Option<bool>,
    /// Per-stage server-side latency scraped from the `metrics` verb
    /// after the final pass, in pipeline order (empty when the server
    /// does not speak `spikefolio.metrics.v1`).
    pub server_stages: Vec<(String, ServerStage)>,
    /// The server's health `degraded` flag at scrape time.
    pub server_degraded: Option<bool>,
    /// Connection-setup retries absorbed across every socket of the run
    /// (probe + workers, all passes) — non-zero when the server was
    /// restarting under load.
    pub connect_retries: u64,
}

impl LoadReport {
    /// Serializes as a `spikefolio.serve.v1` JSON object.
    pub fn to_json(&self) -> String {
        let hist = Value::List(
            self.batch_hist
                .iter()
                .map(|&(size, count)| {
                    Value::Map(vec![
                        ("batch".to_string(), Value::U64(size as u64)),
                        ("count".to_string(), Value::U64(count)),
                    ])
                })
                .collect(),
        );
        let latency = Value::Map(vec![
            ("p50_us".to_string(), Value::F64(self.latency.p50_us)),
            ("p95_us".to_string(), Value::F64(self.latency.p95_us)),
            ("p99_us".to_string(), Value::F64(self.latency.p99_us)),
            ("mean_us".to_string(), Value::F64(self.latency.mean_us)),
            ("max_us".to_string(), Value::F64(self.latency.max_us)),
        ]);
        Value::Map(vec![
            ("schema".to_string(), Value::Str(SERVE_SCHEMA.to_string())),
            ("kind".to_string(), Value::Str("loadgen_report".to_string())),
            ("mode".to_string(), Value::Str(self.mode.clone())),
            ("requests".to_string(), Value::U64(self.requests)),
            ("served".to_string(), Value::U64(self.served)),
            ("shed_queue_full".to_string(), Value::U64(self.shed_queue_full)),
            ("shed_deadline".to_string(), Value::U64(self.shed_deadline)),
            ("errors".to_string(), Value::U64(self.errors)),
            ("wall_s".to_string(), Value::F64(self.wall_s)),
            ("throughput_rps".to_string(), Value::F64(self.throughput_rps)),
            ("latency".to_string(), latency),
            ("batch_hist".to_string(), hist),
            ("max_batch".to_string(), Value::U64(self.max_batch)),
            ("deterministic".to_string(), self.deterministic.map_or(Value::Null, Value::Bool)),
            (
                "server_stages".to_string(),
                Value::Map(
                    self.server_stages
                        .iter()
                        .map(|(name, s)| {
                            (
                                name.clone(),
                                Value::Map(vec![
                                    ("count".to_string(), Value::U64(s.count)),
                                    ("p50_us".to_string(), Value::F64(s.p50_us)),
                                    ("p95_us".to_string(), Value::F64(s.p95_us)),
                                    ("p99_us".to_string(), Value::F64(s.p99_us)),
                                    ("max_us".to_string(), Value::F64(s.max_us)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("server_degraded".to_string(), self.server_degraded.map_or(Value::Null, Value::Bool)),
            ("connect_retries".to_string(), Value::U64(self.connect_retries)),
        ])
        .to_json()
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "loadgen ({} loop): {} requests in {:.3} s -> {:.1} served/s\n",
            self.mode, self.requests, self.wall_s, self.throughput_rps
        ));
        out.push_str(&format!(
            "  served {}  shed {} (queue_full {}, deadline {})  errors {}\n",
            self.served,
            self.shed_queue_full + self.shed_deadline,
            self.shed_queue_full,
            self.shed_deadline,
            self.errors
        ));
        out.push_str(&format!(
            "  latency p50 {:.1} us  p95 {:.1} us  p99 {:.1} us  mean {:.1} us  max {:.1} us\n",
            self.latency.p50_us,
            self.latency.p95_us,
            self.latency.p99_us,
            self.latency.mean_us,
            self.latency.max_us
        ));
        if self.batch_hist.is_empty() {
            out.push_str("  batch sizes: (not reported)\n");
        } else {
            out.push_str("  batch sizes:");
            for (size, count) in &self.batch_hist {
                out.push_str(&format!(" {size}x{count}"));
            }
            out.push('\n');
        }
        if let Some(ok) = self.deterministic {
            out.push_str(&format!(
                "  determinism: {}\n",
                if ok { "bitwise identical across runs" } else { "MISMATCH across runs" }
            ));
        }
        if !self.server_stages.is_empty() {
            // Client-vs-server side by side: the client's end-to-end
            // percentiles next to where the server says the time went.
            out.push_str(&format!(
                "  {:<16} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                "latency (us)", "count", "p50", "p95", "p99", "max"
            ));
            out.push_str(&format!(
                "  {:<16} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
                "client e2e",
                self.served,
                self.latency.p50_us,
                self.latency.p95_us,
                self.latency.p99_us,
                self.latency.max_us
            ));
            for (name, s) in &self.server_stages {
                out.push_str(&format!(
                    "  {:<16} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
                    format!("server {name}"),
                    s.count,
                    s.p50_us,
                    s.p95_us,
                    s.p99_us,
                    s.max_us
                ));
            }
        }
        if let Some(degraded) = self.server_degraded {
            out.push_str(&format!(
                "  server health: {}\n",
                if degraded { "DEGRADED" } else { "ok" }
            ));
        }
        if self.connect_retries > 0 {
            out.push_str(&format!(
                "  connect retries: {} (server was away; reconnects absorbed)\n",
                self.connect_retries
            ));
        }
        out
    }
}

/// Connects with bounded retry and capped exponential backoff: chaos
/// runs restart the server mid-load, so a refused connection a few
/// milliseconds after a swap or restart is expected, not fatal. Returns
/// the stream (nodelay set) plus the retries it took.
fn connect_with_retry(
    addr: &str,
    retries_allowed: u32,
    backoff_ms: u64,
) -> Result<(TcpStream, u64), String> {
    let mut retries = 0u64;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
                return Ok((stream, retries));
            }
            Err(e) if retries >= retries_allowed as u64 => {
                return Err(format!("connect {addr}: {e} (after {retries} retries)"));
            }
            Err(_) => {
                if backoff_ms > 0 {
                    std::thread::sleep(Duration::from_millis(backoff_ms << retries.min(10)));
                }
                retries += 1;
            }
        }
    }
}

/// The state vector for request `index`: depends only on `(seed, index)`
/// so every run regenerates the identical stream.
fn request_state(seed: u64, index: u64, dim: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ (index.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    (0..dim).map(|_| rng.gen_range(0.8..1.2)).collect()
}

fn request_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_add(index).wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Accumulated per-run observations.
#[derive(Default)]
struct RunTally {
    served: u64,
    shed_queue_full: u64,
    shed_deadline: u64,
    errors: u64,
    latencies: LatencyHistogram,
    batch_hist: BTreeMap<usize, u64>,
    weights_bits: HashMap<u64, Vec<u64>>,
    connect_retries: u64,
}

impl RunTally {
    fn absorb_response(&mut self, line: &str, latency: Duration) {
        let Ok(v) = parse(line) else {
            self.errors += 1;
            return;
        };
        let ok = matches!(v.get("ok"), Some(Value::Bool(true)));
        if !ok {
            match v.get("error").and_then(Value::as_str) {
                Some("queue_full") => self.shed_queue_full += 1,
                Some("deadline") => self.shed_deadline += 1,
                _ => self.errors += 1,
            }
            return;
        }
        self.served += 1;
        self.latencies.observe(latency);
        if let Some(batch) = v.get("batch").and_then(Value::as_u64) {
            *self.batch_hist.entry(batch as usize).or_insert(0) += 1;
        }
        if let (Some(id), Some(weights)) =
            (v.get("id").and_then(Value::as_u64), v.get("weights").and_then(Value::as_list))
        {
            let bits: Vec<u64> =
                weights.iter().filter_map(Value::as_f64).map(f64::to_bits).collect();
            self.weights_bits.insert(id, bits);
        }
    }

    fn merge(&mut self, other: RunTally) {
        self.served += other.served;
        self.shed_queue_full += other.shed_queue_full;
        self.shed_deadline += other.shed_deadline;
        self.errors += other.errors;
        self.latencies.merge_from(&other.latencies);
        for (k, c) in other.batch_hist {
            *self.batch_hist.entry(k).or_insert(0) += c;
        }
        self.weights_bits.extend(other.weights_bits);
        self.connect_retries += other.connect_retries;
    }
}

fn render_request(id: u64, state: &[f64], seed: u64, deadline_ms: Option<u64>) -> String {
    let mut pairs = vec![
        ("id".to_string(), Value::U64(id)),
        ("state".to_string(), Value::List(state.iter().map(|&x| Value::F64(x)).collect())),
        ("seed".to_string(), Value::U64(seed)),
    ];
    if let Some(ms) = deadline_ms {
        pairs.push(("deadline_ms".to_string(), Value::U64(ms)));
    }
    Value::Map(pairs).to_json()
}

/// Queries the server's `info` verb for the expected state dimension.
/// Returns the dimension plus the connection retries it took.
fn probe_state_dim(addr: &str, opts: &LoadgenOptions) -> Result<(usize, u64), String> {
    let (stream, retries) =
        connect_with_retry(addr, opts.connect_retries, opts.connect_backoff_ms)?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
    writer.write_all(b"{\"cmd\":\"info\"}\n").map_err(|e| format!("send info: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| format!("read info: {e}"))?;
    let v = parse(line.trim()).map_err(|e| format!("parse info response: {e}"))?;
    v.get("state_dim")
        .and_then(Value::as_u64)
        .map(|d| (d as usize, retries))
        .ok_or_else(|| format!("info response carries no state_dim: {}", line.trim()))
}

/// Scrapes the server's `metrics` verb and extracts per-stage latency
/// plus the health `degraded` flag. Tolerant by design: any failure
/// (older server, parse mismatch) yields an empty result instead of
/// failing the load run.
fn scrape_server_metrics(addr: &str) -> (Vec<(String, ServerStage)>, Option<bool>) {
    let Some(v) = (|| -> Option<Value> {
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_nodelay(true).ok()?;
        let mut writer = stream.try_clone().ok()?;
        writer.write_all(b"{\"cmd\":\"metrics\"}\n").ok()?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        parse(line.trim()).ok()
    })() else {
        return (Vec::new(), None);
    };
    if !matches!(v.get("ok"), Some(Value::Bool(true))) {
        return (Vec::new(), None);
    }
    let Some(metrics) = v.get("metrics") else {
        return (Vec::new(), None);
    };
    let mut stages = Vec::new();
    if let Some(Value::Map(entries)) = metrics.get("stages") {
        for (name, stage) in entries {
            let f = |key: &str| stage.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            stages.push((
                name.clone(),
                ServerStage {
                    count: stage.get("count").and_then(Value::as_u64).unwrap_or(0),
                    p50_us: f("p50_us"),
                    p95_us: f("p95_us"),
                    p99_us: f("p99_us"),
                    max_us: f("max_us"),
                },
            ));
        }
    }
    let degraded = metrics.get("health").and_then(|h| h.get("degraded")).and_then(|d| match d {
        Value::Bool(b) => Some(*b),
        _ => None,
    });
    (stages, degraded)
}

/// One closed-loop worker: send, wait, repeat over its pre-rendered
/// request lines.
fn closed_loop_worker(
    addr: &str,
    requests: &[(u64, String)],
    opts: &LoadgenOptions,
) -> Result<RunTally, String> {
    // Nodelay is set inside connect_with_retry: without it, Nagle on our
    // side plus delayed ACK on the server's turns every request into a
    // ~40 ms stall (the newline sits in the socket until the server
    // acknowledges the first fragment).
    let (stream, retries) =
        connect_with_retry(addr, opts.connect_retries, opts.connect_backoff_ms)?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut tally = RunTally { connect_retries: retries, ..Default::default() };
    let mut line = String::new();
    for (i, req) in requests {
        let sent = Instant::now();
        // One write_all per line: writeln! would split the body and the
        // newline into separate packets.
        writer.write_all(req.as_bytes()).map_err(|e| format!("send request {i}: {e}"))?;
        line.clear();
        let n = reader.read_line(&mut line).map_err(|e| format!("read response {i}: {e}"))?;
        if n == 0 {
            return Err(format!("server closed the connection before response {i}"));
        }
        tally.absorb_response(line.trim(), sent.elapsed());
    }
    Ok(tally)
}

/// One open-loop lane: a paced writer plus a reader tracking send times.
fn open_loop_worker(
    addr: &str,
    requests: Vec<(u64, String)>,
    interarrival: Duration,
    opts: &LoadgenOptions,
) -> Result<RunTally, String> {
    let (stream, connect_retries) =
        connect_with_retry(addr, opts.connect_retries, opts.connect_backoff_ms)?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
    let reader_stream = stream;
    let sent_at = Mutex::new(HashMap::<u64, Instant>::new());
    let expected = requests.len();

    std::thread::scope(|scope| {
        let sent_ref = &sent_at;
        let writer_handle = scope.spawn(move || -> Result<(), String> {
            let start = Instant::now();
            for (k, (i, req)) in requests.iter().enumerate() {
                let due = start + interarrival.mul_f64(k as f64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lock(sent_ref).insert(*i, Instant::now());
                writer.write_all(req.as_bytes()).map_err(|e| format!("send request {i}: {e}"))?;
            }
            Ok(())
        });

        let mut tally = RunTally { connect_retries, ..Default::default() };
        let mut reader = BufReader::new(reader_stream);
        let mut line = String::new();
        for _ in 0..expected {
            line.clear();
            let n = reader.read_line(&mut line).map_err(|e| format!("read response: {e}"))?;
            if n == 0 {
                return Err("server closed the connection mid-run".to_string());
            }
            let trimmed = line.trim();
            let latency = parse(trimmed)
                .ok()
                .and_then(|v| v.get("id").and_then(Value::as_u64))
                .and_then(|id| lock(sent_ref).remove(&id))
                .map_or(Duration::ZERO, |t| t.elapsed());
            tally.absorb_response(trimmed, latency);
        }
        writer_handle.join().map_err(|_| "writer lane panicked".to_string())??;
        Ok(tally)
    })
}

fn one_pass(addr: &str, opts: &LoadgenOptions, dim: usize) -> Result<(RunTally, f64), String> {
    let concurrency = opts.concurrency.max(1).min(opts.requests.max(1));
    // The workload is materialized before the clock starts: rendering a
    // few hundred floats of JSON per request costs real CPU, and on small
    // machines that client-side work would otherwise be billed to the
    // server under test.
    let mut assignments: Vec<Vec<(u64, String)>> = vec![Vec::new(); concurrency];
    for i in 0..opts.requests as u64 {
        let state = request_state(opts.seed, i, dim);
        let mut req = render_request(i, &state, request_seed(opts.seed, i), opts.deadline_ms);
        req.push('\n');
        assignments[(i as usize) % concurrency].push((i, req));
    }
    let interarrival = opts.open_rps.map(|rps| {
        let lane_rate = (rps / concurrency as f64).max(1e-3);
        Duration::from_secs_f64(1.0 / lane_rate)
    });
    let t0 = Instant::now();
    let tallies: Vec<Result<RunTally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = assignments
            .into_iter()
            .map(|requests| {
                scope.spawn(move || match interarrival {
                    None => closed_loop_worker(addr, &requests, opts),
                    Some(gap) => open_loop_worker(addr, requests, gap, opts),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("loadgen worker panicked".to_string())))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut total = RunTally::default();
    for t in tallies {
        total.merge(t?);
    }
    Ok((total, wall_s))
}

/// Runs load against `addr` and produces the report. With
/// `opts.runs >= 2` the identical request stream is replayed and served
/// weights are compared bitwise across passes (the report's
/// `deterministic` field); throughput and latency come from the first
/// pass.
///
/// # Errors
///
/// Connection, protocol, or worker failures as a message.
pub fn run_loadgen(addr: &str, opts: &LoadgenOptions) -> Result<LoadReport, String> {
    if opts.requests == 0 {
        return Err("loadgen needs at least one request".to_string());
    }
    let (dim, probe_retries) = probe_state_dim(addr, opts)?;
    let (first, wall_s) = one_pass(addr, opts, dim)?;
    let mut connect_retries = probe_retries + first.connect_retries;
    let mut deterministic = None;
    for _ in 1..opts.runs.max(1) {
        let (next, _) = one_pass(addr, opts, dim)?;
        let same = next.weights_bits == first.weights_bits
            && next.weights_bits.len() == first.served as usize;
        deterministic = Some(deterministic.unwrap_or(true) && same);
        connect_retries += next.connect_retries;
    }
    let max_batch = first.batch_hist.keys().max().copied().unwrap_or(0) as u64;
    let (server_stages, server_degraded) = scrape_server_metrics(addr);
    Ok(LoadReport {
        mode: if opts.open_rps.is_some() { "open" } else { "closed" }.to_string(),
        requests: opts.requests as u64,
        served: first.served,
        shed_queue_full: first.shed_queue_full,
        shed_deadline: first.shed_deadline,
        errors: first.errors,
        wall_s,
        throughput_rps: if wall_s > 0.0 { first.served as f64 / wall_s } else { 0.0 },
        latency: LatencySummary::from(&first.latencies.snapshot()),
        batch_hist: first.batch_hist.into_iter().collect(),
        max_batch,
        deterministic,
        server_stages,
        server_degraded,
        connect_retries,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn client_percentiles_follow_the_histogram_rule() {
        // Served-response latencies from 1 to 100 ms, absorbed in a
        // scrambled order and split across two merged lane tallies.
        let served = r#"{"id":1,"ok":true,"weights":[1.0]}"#;
        let reference = LatencyHistogram::new();
        let (mut a, mut b) = (RunTally::default(), RunTally::default());
        for i in 0..100u64 {
            let d = Duration::from_micros(1_000 * (1 + (i * 37) % 100));
            reference.observe(d);
            let lane = if i % 2 == 0 { &mut a } else { &mut b };
            lane.absorb_response(served, d);
        }
        // Shed responses carry no latency sample.
        a.absorb_response(r#"{"id":2,"ok":false,"error":"deadline"}"#, Duration::from_secs(9));
        a.merge(b);
        let snap = reference.snapshot();
        let summary = LatencySummary::from(&a.latencies.snapshot());
        assert_eq!(summary, LatencySummary::from(&snap));
        assert_eq!(
            (summary.p50_us, summary.p95_us, summary.p99_us, summary.max_us),
            (snap.p50_us, snap.p95_us, snap.p99_us, snap.max_us)
        );
        // Ceil rank: p50 of 1..=100 ms is the bucket holding the 50th
        // sample (50 ms), not an interpolation toward the 51st.
        let bucket = crate::metrics::bucket_bounds_ns(crate::metrics::bucket_index(50_000_000));
        assert_eq!(summary.p50_us, bucket.1 as f64 / 1e3);
        assert_eq!(summary.max_us, 100_000.0);
        assert_eq!(summary.mean_us, 50_500.0);
    }

    #[test]
    fn request_stream_is_reproducible() {
        let a = request_state(9, 3, 16);
        let b = request_state(9, 3, 16);
        assert_eq!(a, b);
        assert_ne!(request_state(9, 4, 16), a);
        assert_eq!(request_seed(9, 3), request_seed(9, 3));
    }

    #[test]
    fn tally_classifies_responses() {
        let mut t = RunTally::default();
        let ms = Duration::from_millis;
        t.absorb_response(r#"{"id":1,"ok":true,"weights":[0.5,0.5],"batch":4}"#, ms(100));
        t.absorb_response(r#"{"id":2,"ok":false,"error":"queue_full","message":"m"}"#, ms(5));
        t.absorb_response(r#"{"id":3,"ok":false,"error":"deadline","message":"m"}"#, ms(5));
        t.absorb_response("garbage", ms(5));
        assert_eq!(t.served, 1);
        assert_eq!(t.shed_queue_full, 1);
        assert_eq!(t.shed_deadline, 1);
        assert_eq!(t.errors, 1);
        assert_eq!(t.batch_hist.get(&4), Some(&1));
        assert_eq!(t.weights_bits.get(&1).map(Vec::len), Some(2));
    }

    #[test]
    fn report_json_is_parseable_and_schema_tagged() {
        let report = LoadReport {
            mode: "closed".to_string(),
            requests: 10,
            served: 9,
            shed_queue_full: 1,
            shed_deadline: 0,
            errors: 0,
            wall_s: 0.5,
            throughput_rps: 18.0,
            latency: LatencySummary {
                p50_us: 10.0,
                p95_us: 20.0,
                p99_us: 30.0,
                mean_us: 12.0,
                max_us: 31.0,
            },
            batch_hist: vec![(1, 3), (4, 2)],
            max_batch: 4,
            deterministic: Some(true),
            server_stages: vec![
                (
                    "backend_infer".to_string(),
                    ServerStage { count: 9, p50_us: 8.0, p95_us: 18.0, p99_us: 25.0, max_us: 29.0 },
                ),
                (
                    "queue_wait".to_string(),
                    ServerStage { count: 9, p50_us: 2.0, p95_us: 4.0, p99_us: 5.0, max_us: 6.0 },
                ),
            ],
            server_degraded: Some(false),
            connect_retries: 2,
        };
        let v = parse(&report.to_json()).expect("report must be valid JSON");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SERVE_SCHEMA));
        assert_eq!(v.get("served").and_then(Value::as_u64), Some(9));
        assert_eq!(v.get("max_batch").and_then(Value::as_u64), Some(4));
        let stages = v.get("server_stages").expect("server_stages present");
        assert_eq!(
            stages.get("backend_infer").and_then(|s| s.get("count")).and_then(Value::as_u64),
            Some(9)
        );
        assert_eq!(v.get("server_degraded"), Some(&Value::Bool(false)));
        let text = report.render();
        assert!(text.contains("p95"));
        assert!(text.contains("bitwise identical"));
        assert!(text.contains("client e2e"), "side-by-side table renders the client row");
        assert!(text.contains("server backend_infer"));
        assert!(text.contains("server health: ok"));
    }
}
