//! The traced run's two span sources.
//!
//! [`Tracer`] records benchmark-side spans around each public call the
//! traced run makes. They nest on one thread and partition wall time:
//! a parent's children never overlap, so a parent's duration is the sum
//! of its children plus its unattributed self time.
//!
//! [`Capture`] is a [`Recorder`] that keeps what the program itself
//! emits (training phase spans, op counters, desk round spans). Those are
//! busy time summed over worker threads and do not partition wall time,
//! so they are reported beside the tree, never inside it.

use spikefolio_telemetry::{Record, Recorder, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed benchmark-side span, in seconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name; span totals by name become per-layer metrics.
    pub name: String,
    /// Start (s).
    pub start_s: f64,
    /// End (s); `NaN` while open.
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration (s).
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span tree, written out once when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name` (s).
    pub fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration).sum()
    }

    fn children_total(&self, id: usize) -> f64 {
        self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration).sum()
    }

    /// Span `id`'s time not covered by its children (s).
    pub fn self_time(&self, id: usize) -> f64 {
        self.spans[id].duration() - self.children_total(id)
    }

    /// The closure check: every span is closed, lies inside its parent,
    /// and no span's children overlap one another, so each parent equals
    /// its children plus its non-negative self time.
    pub fn check_closure(&self) -> Result<(), String> {
        if let Some(&id) = self.open.first() {
            return Err(format!("span {} never closed", self.spans[id].name));
        }
        for (id, span) in self.spans.iter().enumerate() {
            if span.end_s.is_nan() || span.end_s < span.start_s {
                return Err(format!("span {} ends before it starts", span.name));
            }
            let mut kids: Vec<&Span> = self.spans.iter().filter(|s| s.parent == Some(id)).collect();
            kids.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
            let mut cursor = span.start_s;
            for kid in kids {
                if kid.start_s < cursor || kid.end_s > span.end_s {
                    return Err(format!("span {} overlaps inside {}", kid.name, span.name));
                }
                cursor = kid.end_s;
            }
        }
        Ok(())
    }

    /// The tree as JSON: one object per span with its parent index.
    pub fn to_json(&self) -> String {
        Value::List(
            self.spans
                .iter()
                .map(|s| {
                    Value::Map(vec![
                        ("name".to_owned(), Value::Str(s.name.clone())),
                        ("start_s".to_owned(), Value::F64(s.start_s)),
                        ("end_s".to_owned(), Value::F64(s.end_s)),
                        (
                            "parent".to_owned(),
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
        .to_json()
    }
}

/// Keeps the spans, counters and SDP epoch spike totals the program
/// emits through its public [`Recorder`] trait.
#[derive(Debug, Default)]
pub struct Capture {
    spans: BTreeMap<String, Vec<f64>>,
    counters: BTreeMap<String, u64>,
    encoder_spikes: u64,
}

impl Capture {
    /// Sum of the spans labelled `label` (s).
    pub fn span_total(&self, label: &str) -> f64 {
        self.spans.get(label).map_or(0.0, |v| v.iter().sum())
    }

    /// Every span whose label matches `keep`, as `(label, seconds)`.
    pub fn spans_where(&self, keep: impl Fn(&str) -> bool) -> Vec<(&str, f64)> {
        self.spans
            .iter()
            .filter(|(k, _)| keep(k))
            .flat_map(|(k, v)| v.iter().map(move |&s| (k.as_str(), s)))
            .collect()
    }

    /// Total of counter `label`.
    pub fn counter_total(&self, label: &str) -> u64 {
        self.counters.get(label).copied().unwrap_or(0)
    }

    /// Encoder spikes over every SDP training epoch seen.
    pub fn encoder_spikes(&self) -> u64 {
        self.encoder_spikes
    }
}

impl Recorder for Capture {
    fn counter(&mut self, label: &str, delta: u64) {
        *self.counters.entry(label.to_owned()).or_insert(0) += delta;
    }

    fn span(&mut self, label: &str, seconds: f64) {
        self.spans.entry(label.to_owned()).or_default().push(seconds);
    }

    fn emit(&mut self, record: Record) {
        if record.kind() == "epoch" && record.get("agent").and_then(Value::as_str) == Some("sdp") {
            self.encoder_spikes += record
                .get("spikes")
                .and_then(|s| s.get("encoder"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
        }
    }
}

/// Bytes one Adam step moves per parameter, computed rather than
/// measured: it reads parameter, gradient and both moments and writes
/// parameter and both moments, seven f64 streams.
pub const ADAM_BYTES_PER_PARAM: u64 = 7 * 8;

/// Sets the per-layer metrics that come from the program's own spans and
/// counters: busy time summed over worker threads, not wall time.
pub fn set_program_metrics(cap: &Capture, params: usize, out: &mut crate::metrics::RunResult) {
    use spikefolio_telemetry::labels;
    out.set("snn.encode_s", cap.span_total(labels::SPAN_PROFILE_SNN_ENCODE));
    out.set("snn.lif_forward_s", cap.span_total(labels::SPAN_PROFILE_SNN_LIF));
    out.set("snn.stbp_backward_s", cap.span_total(labels::SPAN_PROFILE_SNN_STBP));
    out.set("snn.synops", cap.counter_total(labels::COUNTER_OPS_SYNOPS) as f64);
    out.set("snn.dense_macs", cap.counter_total(labels::COUNTER_OPS_DENSE_MACS) as f64);
    out.set("snn.encoder_spikes", cap.encoder_spikes() as f64);
    out.set("train.apply_s", cap.span_total(labels::SPAN_TRAIN_APPLY));
    out.set("train.sample_s", cap.span_total(labels::SPAN_TRAIN_SAMPLE));
    out.set("train.params", params as f64);
    out.set("train.apply_bytes", (params as u64 * ADAM_BYTES_PER_PARAM) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    #[test]
    fn nested_spans_close_and_account_for_the_parent() {
        let mut t = Tracer::default();
        let root = t.enter("root");
        t.time("a", || busy(3));
        t.time("b", || busy(2));
        t.time("a", || busy(1));
        t.exit(root);
        t.check_closure().unwrap();
        let kids = t.total("a") + t.total("b");
        let root_s = t.spans()[root].duration();
        assert!((kids + t.self_time(root) - root_s).abs() < 1e-12);
        assert!(t.self_time(root) >= 0.0);
        assert!(t.to_json().contains("\"parent\":0"));
    }

    #[test]
    fn closure_check_catches_an_open_or_overlapping_span() {
        let mut t = Tracer::default();
        let _open = t.enter("root");
        assert!(t.check_closure().is_err());
        let mut t = Tracer {
            spans: vec![
                Span { name: "root".into(), start_s: 0.0, end_s: 1.0, parent: None },
                Span { name: "a".into(), start_s: 0.1, end_s: 0.6, parent: Some(0) },
                Span { name: "b".into(), start_s: 0.5, end_s: 0.9, parent: Some(0) },
            ],
            ..Tracer::default()
        };
        assert!(t.check_closure().unwrap_err().contains("overlaps"));
        t.spans[2].start_s = 0.6;
        t.check_closure().unwrap();
        t.spans[2].end_s = 1.5;
        assert!(t.check_closure().is_err(), "a child may not outlive its parent");
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn spans_must_nest() {
        let mut t = Tracer::default();
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a);
    }

    #[test]
    fn capture_keeps_program_spans_counters_and_encoder_spikes() {
        let mut c = Capture::default();
        c.span("train/epoch/apply", 0.25);
        c.span("train/epoch/apply", 0.5);
        c.counter("profile/ops/synops", 7);
        c.counter("profile/ops/synops", 3);
        c.emit(
            Record::new("epoch")
                .field("agent", "sdp")
                .field("spikes", Value::Map(vec![("encoder".into(), Value::U64(11))])),
        );
        c.emit(Record::new("epoch").field("agent", "drl"));
        assert_eq!(c.span_total("train/epoch/apply"), 0.75);
        assert_eq!(c.counter_total("profile/ops/synops"), 10);
        assert_eq!(c.encoder_spikes(), 11);
        assert_eq!(c.spans_where(|l| l.starts_with("train/")).len(), 2);
    }
}
