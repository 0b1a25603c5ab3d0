//! The metric catalogue and the one-line JSON result.
//!
//! Every run reports every metric of its kind: `--trace 0` the
//! end-to-end set, `--trace 1` the per-layer set. A per-layer metric of a
//! layer the workload never enters reads 0 (no work, no busy time), which
//! is itself the prediction "this layer does not move this workload".

use spikefolio_serve::Stage;
use spikefolio_telemetry::Value;
use std::collections::BTreeMap;

/// `(name, unit, better)` of one metric.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// The two fixed open-loop rates of `serve-open`.
pub const PHASES: [&str; 2] = ["low", "mid"];

/// Per-layer metrics of the traced run that do not depend on the phase.
const LAYER_FIXED: &[MetricDef] = &[
    ("snn.encode_s", "s", "lower"),
    ("snn.lif_forward_s", "s", "lower"),
    ("snn.stbp_backward_s", "s", "lower"),
    ("snn.synops", "count", "lower"),
    ("snn.encoder_spikes", "count", "lower"),
    ("snn.dense_macs", "count", "lower"),
    ("train.sdp_s", "s", "lower"),
    ("train.drl_s", "s", "lower"),
    ("train.eiie_s", "s", "lower"),
    ("train.ddpg_s", "s", "lower"),
    ("train.apply_s", "s", "lower"),
    ("train.sample_s", "s", "lower"),
    ("train.params", "count", "lower"),
    ("train.apply_bytes", "bytes_computed", "lower"),
    ("backtest.sdp_s", "s", "lower"),
    ("backtest.ann_s", "s", "lower"),
    ("backtest.ons_s", "s", "lower"),
    ("backtest.anticor_s", "s", "lower"),
    ("backtest.simple_s", "s", "lower"),
    ("backtest.steps", "count", "lower"),
    ("market.gen_s", "s", "lower"),
    ("scenario.apply_s", "s", "lower"),
    ("scenario.cells", "count", "higher"),
    ("loihi.quantize_s", "s", "lower"),
    ("loihi.infer_s", "s", "lower"),
    ("loihi.inferences", "count", "higher"),
    ("loihi.synops_per_inf", "count", "lower"),
    ("loihi.nj_per_inf", "nJ", "lower"),
    ("lat_p50_ms.low", "ms", "lower"),
    ("lat_p99_ms.low", "ms", "lower"),
    ("lat_p50_ms.mid", "ms", "lower"),
    ("lat_p99_ms.mid", "ms", "lower"),
    ("max_rps_slo", "1/s", "higher"),
    ("desk.round_ms.p50", "ms", "lower"),
    ("desk.round_ms.p90", "ms", "lower"),
    ("desk.fine_tune_s", "s", "lower"),
    ("desk.swap_ms.p50", "ms", "lower"),
    ("desk.gate_other_s", "s", "lower"),
    ("desk.promotions", "count", "higher"),
    ("desk.quarantines", "count", "lower"),
    ("desk.bytes_written", "bytes", "lower"),
    ("checkpoint.save_ms", "ms", "lower"),
    ("checkpoint.load_ms", "ms", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

/// Per-phase serving metrics: `(name prefix, unit, better)`; the full
/// name appends `.low` or `.mid`.
const LAYER_PER_PHASE: &[MetricDef] = &[
    ("serve.batch_mean", "count", "higher"),
    ("serve.residual_mean_us", "us", "lower"),
    ("gen.late_p99_us", "us", "lower"),
    ("serve.served", "count", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.errors", "count", "lower"),
];

/// Every per-layer metric as `(name, unit, better)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> =
        LAYER_FIXED.iter().map(|&(n, u, b)| (n.to_owned(), u, b)).collect();
    for phase in PHASES {
        for stage in Stage::ALL.map(Stage::name) {
            for q in ["p50", "p99"] {
                out.push((format!("serve.{stage}.{q}_us.{phase}"), "us", "lower"));
            }
        }
        for &(n, u, b) in LAYER_PER_PHASE {
            out.push((format!("{n}.{phase}"), u, b));
        }
    }
    out
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or whose output did not match its reference.
    pub failed: u64,
    /// Checks on something other than a single operation (inputs, trace
    /// closure, recomposition); any failure makes the run incorrect.
    pub check_failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl RunResult {
    /// Records one checked operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a non-operation check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Renders the result line for the metric set of the run kind.
    /// End-to-end metrics must all have been measured; a per-layer metric
    /// of a layer the workload does not touch reads 0.
    pub fn to_json(&self, traced: bool) -> Result<String, String> {
        let defs: Vec<(String, &str)> = if traced {
            per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.iter().map(|&(n, u, _)| (n.to_owned(), u)).collect()
        };
        let mut metrics = Vec::with_capacity(defs.len());
        for (name, unit) in defs {
            let value = match self.values.get(&name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push((
                name,
                Value::Map(vec![
                    ("value".to_owned(), Value::F64(value)),
                    ("unit".to_owned(), Value::Str(unit.to_owned())),
                ]),
            ));
        }
        let layer = per_layer();
        if let Some(unknown) =
            self.values.keys().find(|k| !layer.iter().any(|(n, _, _)| n == *k) && !is_end_to_end(k))
        {
            return Err(format!("metric {unknown} is not in the catalogue"));
        }
        let correct = self.failed == 0 && self.check_failures.is_empty();
        Ok(Value::Map(vec![
            ("correct".to_owned(), Value::Bool(correct)),
            ("attempted".to_owned(), Value::U64(self.attempted)),
            ("failed".to_owned(), Value::U64(self.failed)),
            ("metrics".to_owned(), Value::Map(metrics)),
        ])
        .to_json())
    }
}

fn is_end_to_end(name: &str) -> bool {
    END_TO_END.iter().any(|&(n, _, _)| n == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spikefolio_telemetry::value::parse;

    #[test]
    fn catalogue_names_are_unique_and_within_limits() {
        let mut names: Vec<String> = END_TO_END.iter().map(|d| d.0.to_owned()).collect();
        names.extend(per_layer().into_iter().map(|d| d.0));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let doc = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Value::as_list)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_owned();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b.to_owned()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<_> =
            per_layer().into_iter().map(|(n, u, b)| (n, u.to_owned(), b.to_owned())).collect();
        assert_eq!(listed("per_layer"), layer);
    }

    #[test]
    fn workload_notes_cover_every_workload_and_name_only_known_metrics() {
        let bench = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let notes = parse(include_str!("../workloads.json")).unwrap();
        let described = notes.get("workloads").unwrap();
        for w in bench.get("workloads").and_then(Value::as_list).unwrap() {
            let name = w.get("name").and_then(Value::as_str).unwrap();
            assert!(described.get(name).is_some(), "{name} has no notes");
        }
        let known: Vec<String> = END_TO_END
            .iter()
            .map(|d| d.0.to_owned())
            .chain(per_layer().into_iter().map(|d| d.0))
            .collect();
        for p in notes.get("predictions").and_then(Value::as_list).unwrap() {
            let layer = p.get("layer_metrics").and_then(Value::as_list).unwrap();
            let mut named: Vec<&str> = layer.iter().filter_map(Value::as_str).collect();
            for key in ["moves", "barely", "none"] {
                if let Some(Value::Map(by_workload)) = p.get(key) {
                    for (workload, metrics) in by_workload {
                        assert!(described.get(workload).is_some(), "{workload}");
                        named.extend(metrics.as_list().unwrap().iter().filter_map(Value::as_str));
                    }
                }
            }
            for n in named {
                assert!(known.iter().any(|k| k == n), "unknown metric {n}");
            }
        }
    }

    #[test]
    fn result_line_has_the_contract_keys_and_zero_fills_untouched_layers() {
        let mut r = RunResult::default();
        r.op(true);
        r.set("snn.synops", 12.0);
        let v = parse(&r.to_json(true).unwrap()).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("snn.synops").and_then(|x| x.get("value")).and_then(Value::as_f64),
            Some(12.0)
        );
        assert_eq!(
            m.get("desk.promotions").and_then(|x| x.get("value")).and_then(Value::as_f64),
            Some(0.0)
        );
        assert!(r.to_json(false).is_err(), "missing end-to-end metrics must not pass");
    }

    #[test]
    fn a_failed_operation_or_check_makes_the_run_incorrect() {
        let mut r = RunResult::default();
        r.op(false);
        let v = parse(&r.to_json(true).unwrap()).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        let mut r = RunResult::default();
        r.op(true);
        r.check(false, "closure");
        let v = parse(&r.to_json(true).unwrap()).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
    }
}
