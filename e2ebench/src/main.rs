//! End-to-end benchmark of the spikefolio workloads.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench --print-reference <name>
//! ```
//!
//! One process runs one workload. It generates every input from
//! `--seed`, measures for about `--seconds`, checks each output against
//! its reference, and prints one JSON object as the last line of standard
//! output: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a separately traced pass with `--trace 1`. A human-readable
//! table goes to standard error. See `workloads.json` for what each
//! workload pins and which layer metric should move which end-to-end
//! metric.
//!
//! `--print-reference` prints the output digest of every input variant of
//! a workload, the table `reference.rs` pins.

mod desk;
mod metrics;
mod paper;
mod reference;
mod scenario;
mod serve;
mod stats;
mod sys;
mod trace;

use metrics::RunResult;
use std::time::Instant;

/// Inputs come in this many seeded variants; `--seed n` selects variant
/// `n % VARIANTS`, so every seed has a pinned reference output.
pub const VARIANTS: u64 = 4;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// What a workload run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// The `--seed` argument.
    pub seed: u64,
    /// `seed % VARIANTS`.
    pub variant: u64,
    /// Measurement budget (s).
    pub seconds: f64,
}

/// Duration (s) and result of one call of `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Ends an untraced run: records the peak RSS of the measured part, then
/// repeats the set-up [`SETUP_REPS`]` - 1` more times and sets `setup_s`
/// to the median over all repetitions, `first_s` included. The extra
/// repetitions run after the peak is read, so the allocations they leave
/// behind stay out of `peak_rss_mb`. Returns their results.
pub fn finish_untraced<T>(
    first_s: f64,
    out: &mut RunResult,
    mut setup: impl FnMut() -> T,
) -> Vec<T> {
    out.set("peak_rss_mb", sys::peak_rss_mb());
    let mut times = vec![first_s];
    let mut results = Vec::with_capacity(SETUP_REPS - 1);
    for _ in 1..SETUP_REPS {
        let (t, r) = timed(&mut setup);
        times.push(t);
        results.push(r);
    }
    out.set("setup_s", stats::ceil_rank(&times, 0.5));
    results
}

/// Wall and CPU seconds of one call of `f`.
pub fn measured<T>(f: impl FnOnce() -> T) -> (f64, f64, T) {
    let c0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), sys::cpu_seconds() - c0, out)
}

/// Repeats `unit` until `seconds` have passed and the repetitions make
/// whole cycles over the input variants, then sets `wall_s` and `cpu_s`
/// to the mean over variants of each variant's fastest repetition.
///
/// Repetition `k` runs variant `(ctx.variant + k) % VARIANTS`. How much
/// work a unit does depends on its inputs (spike counts, gate outcomes),
/// so every run weighs every variant equally and the figure moves with
/// the code, not with the seed; the seed sets the order and the variant
/// of the set-up and traced passes. The minimum per variant discards
/// repetitions slowed by other load on the machine.
pub fn timed_units(ctx: &Ctx, out: &mut RunResult, mut unit: impl FnMut(&mut RunResult, u64)) {
    let start = Instant::now();
    let mut best = vec![(f64::INFINITY, f64::INFINITY); VARIANTS as usize];
    let mut units = 0u64;
    let mut log = Vec::new();
    while start.elapsed().as_secs_f64() < ctx.seconds || !units.is_multiple_of(VARIANTS) {
        let variant = (ctx.variant + units) % VARIANTS;
        let (wall, cpu, ()) = measured(|| unit(out, variant));
        let b = &mut best[variant as usize];
        *b = (b.0.min(wall), b.1.min(cpu));
        log.push(format!("{variant}:{wall:.3}/{cpu:.2}"));
        units += 1;
    }
    eprintln!("  units (variant:wall/cpu): {}", log.join(" "));
    let mean = |f: fn(&(f64, f64)) -> f64| best.iter().map(f).sum::<f64>() / best.len() as f64;
    out.set("wall_s", mean(|b| b.0));
    out.set("cpu_s", mean(|b| b.1));
}

/// Finishes a traced pass: checks closure, reports the root's
/// unattributed time and the tracing overhead, and writes the span tree
/// to `.e2ebench/spans-<workload>-seed<n>.json`.
pub fn finish_trace(
    workload: &str,
    ctx: &Ctx,
    tracer: &trace::Tracer,
    root: usize,
    overhead_frac: f64,
    out: &mut RunResult,
) {
    if let Err(e) = tracer.check_closure() {
        out.check(false, format!("trace closure: {e}"));
    }
    out.set("unattributed_s", tracer.self_time(root));
    out.set("trace.overhead_frac", overhead_frac);
    let path = format!(".e2ebench/spans-{workload}-seed{}.json", ctx.seed);
    let written = std::fs::create_dir_all(".e2ebench")
        .and_then(|()| std::fs::write(&path, tracer.to_json() + "\n"));
    if let Err(e) = written {
        out.check(false, format!("write {path}: {e}"));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --workload <paper-tables|scenario-matrix|serve-open|desk-rounds> \
         --seed <n> --seconds <s> --trace <0|1>\n       e2ebench --print-reference <workload>"
    );
    std::process::exit(2);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> T {
    flag(args, name).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(workload) = flag(&args, "--print-reference") {
        for variant in 0..VARIANTS {
            let digest = match workload {
                "paper-tables" => paper::reference_digests(variant),
                "scenario-matrix" => vec![scenario::reference_digest(variant)],
                "desk-rounds" => vec![desk::reference_digest(variant)],
                _ => usage(),
            };
            let hex: Vec<String> = digest.iter().map(|d| format!("0x{d:016x}")).collect();
            println!("    ({variant}, [{}]),", hex.join(", "));
        }
        return;
    }
    let workload: String = parsed(&args, "--workload");
    let seed: u64 = parsed(&args, "--seed");
    let seconds: f64 = parsed(&args, "--seconds");
    let traced = match parsed::<u8>(&args, "--trace") {
        0 => false,
        1 => true,
        _ => usage(),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage();
    }
    let ctx = Ctx { seed, variant: seed % VARIANTS, seconds };
    let mut out = RunResult::default();
    match (workload.as_str(), traced) {
        ("paper-tables", false) => paper::run(&ctx, &mut out),
        ("paper-tables", true) => paper::run_traced(&ctx, &mut out),
        ("scenario-matrix", false) => scenario::run(&ctx, &mut out),
        ("scenario-matrix", true) => scenario::run_traced(&ctx, &mut out),
        ("serve-open", _) => serve::run(&ctx, traced, &mut out),
        ("desk-rounds", false) => desk::run(&ctx, &mut out),
        ("desk-rounds", true) => desk::run_traced(&ctx, &mut out),
        _ => usage(),
    }
    for failure in &out.check_failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    let line = out.to_json(traced).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "{workload} seed {seed} (variant {}), {} run",
        ctx.variant,
        if traced { "traced" } else { "untraced" }
    );
    eprintln!("  attempted {} failed {}", out.attempted, out.failed);
    let units: std::collections::HashMap<String, &str> = metrics::END_TO_END
        .iter()
        .map(|&(n, u, _)| (n.to_owned(), u))
        .chain(metrics::per_layer().into_iter().map(|(n, u, _)| (n, u)))
        .collect();
    for (name, value) in &out.values {
        eprintln!("  {name:<32} {value:>16.6} {}", units.get(name).copied().unwrap_or("?"));
    }
    println!("{line}");
}
