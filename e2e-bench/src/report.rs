//! The metric catalogue and the result record: the machine-read last
//! line, the detailed record with sample counts and provenance, and the
//! provenance-guarded comparison of two saved records.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rex_telemetry::json::{self, Value};

use crate::provenance::{self, Provenance};
use crate::stats;

/// One catalogued metric: name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, reported by every untraced run. On `serve-jobs`
/// a cell is one served job, timed from submit to the end of its trace
/// stream, which the server's 20 ms stream poll bounds.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("samples_per_s", "1/s"),
    def("cells_per_s", "1/s"),
    def("cell_s_p50", "s"),
    def("cell_s_p90", "s"),
    def("peak_rss_mb", "MB"),
];

/// End-to-end metrics `serve-jobs` reports besides [`END_TO_END`]:
/// submit to the first status read showing the job terminal, which the
/// stream poll does not bound. `serve-jobs` is not in `BENCHMARK.json`, so
/// these are not there either.
pub const SERVE_ONLY: &[MetricDef] = &[def("done_s_p50", "s")];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("tensor.conv2d_fwd_ms", "ms"),
    def("tensor.conv2d_bwd_ms", "ms"),
    def("tensor.conv_gflop_per_step", "GFLOP"),
    def("tensor.conv_bytes_per_step", "bytes"),
    def("tensor.gemm_ms", "ms"),
    def("autograd.forward_ms", "ms"),
    def("autograd.backward_ms", "ms"),
    def("autograd.nodes_per_step", "count"),
    def("optim.step_us", "us"),
    def("data.batch_us", "us"),
    def("core.schedule_ns", "ns"),
    def("eval.evaluate_ms", "ms"),
    def("pool.tasks", "count"),
    def("pool.queue_wait_ms", "ms"),
    def("pool.exec_ms", "ms"),
    def("pool.worker_busy_share", "ratio"),
    def("serve.submit_ms", "ms"),
    def("serve.first_line_ms", "ms"),
    def("serve.stream_ms", "ms"),
    def("serve.requests", "count"),
    def("serve.job_run_ms", "ms"),
    def("train.snapshot_save_ms", "ms"),
    def("train.snapshot_load_ms", "ms"),
    def("train.snapshot_bytes", "bytes"),
    def("faults.atomic_write_ms", "ms"),
    def("telemetry.trace_bytes", "bytes"),
    def("alloc.count_per_step", "count"),
    def("alloc.bytes_per_step", "bytes"),
    def("trace.overhead_ratio", "ratio"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogued name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples the value summarises (1 for a single measurement or count).
    pub samples: usize,
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Operations attempted (cells or jobs).
    pub attempted: u64,
    /// Operations whose output check failed, or that failed outright.
    pub failed: u64,
    /// Metrics measured so far.
    pub metrics: Vec<Metric>,
    /// Human-readable notes (check results, caveats).
    pub notes: Vec<String>,
    /// Where the result came from.
    pub provenance: Provenance,
}

fn num(v: f64) -> String {
    // Display never uses exponent notation, so this is always valid JSON
    format!("{v}")
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Report {
        Report {
            workload,
            seed,
            trace,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            provenance: Vec::new(),
        }
    }

    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Counts one attempted operation and whether it passed its check.
    pub fn outcome(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a failed check with its reason.
    pub fn fail(&mut self, reason: String) {
        eprintln!("e2e-bench: check failed: {reason}");
        self.notes.push(format!("FAILED: {reason}"));
    }

    /// The catalogue this run must report.
    pub fn catalogue(&self) -> Vec<MetricDef> {
        catalogue(self.workload, self.trace)
    }

    /// Problems that make the record invalid: catalogued metrics missing,
    /// reported twice, or not finite, and metrics not in the catalogue.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        let catalogue = self.catalogue();
        for d in &catalogue {
            let found: Vec<&Metric> = self.metrics.iter().filter(|m| m.name == d.name).collect();
            match found.as_slice() {
                [] => out.push(format!("metric {} missing", d.name)),
                [m] if !m.value.is_finite() => {
                    out.push(format!("metric {} is not finite ({})", d.name, m.value));
                }
                [_] => {}
                _ => out.push(format!("metric {} reported twice", d.name)),
            }
        }
        for m in &self.metrics {
            if !catalogue.iter().any(|d| d.name == m.name) {
                out.push(format!("metric {} is not catalogued", m.name));
            }
        }
        out
    }

    /// Whether every operation and check passed and the record is valid.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.problems().is_empty()
            && !self.notes.iter().any(|n| n.starts_with("FAILED"))
    }

    fn value(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The machine-read last line: `correct`, `attempted`, `failed`, and
    /// every catalogued metric with its unit.
    pub fn final_line(&self) -> String {
        let mut metrics = String::new();
        for (i, d) in self.catalogue().iter().enumerate() {
            // a non-finite value is already a problem that makes the run
            // incorrect; keep the line valid JSON regardless
            let v = self.value(d.name).map_or(0.0, |m| m.value);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                num(v),
                d.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        )
    }

    /// The detailed record as one flat JSON object: run identity,
    /// provenance (`prov.*`), every metric's value, unit and sample count
    /// (`metric.*`, `unit.*`, `samples.*`), and the error rate.
    pub fn detail_json(&self) -> String {
        let mut fields: Vec<(String, String)> = vec![
            ("schema".into(), "\"rex-e2e-bench/v1\"".into()),
            ("workload".into(), format!("\"{}\"", self.workload)),
            ("seed".into(), self.seed.to_string()),
            ("trace".into(), self.trace.to_string()),
            ("correct".into(), self.correct().to_string()),
            ("attempted".into(), self.attempted.to_string()),
            ("failed".into(), self.failed.to_string()),
            (
                "error_rate".into(),
                num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
        ];
        for (k, v) in &self.provenance {
            fields.push((format!("prov.{k}"), format!("\"{}\"", json::escape(v))));
        }
        for m in &self.metrics {
            let unit = self
                .catalogue()
                .iter()
                .find(|d| d.name == m.name)
                .map_or("?", |d| d.unit);
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            fields.push((format!("metric.{}", m.name), num(v)));
            fields.push((format!("unit.{}", m.name), format!("\"{unit}\"")));
            fields.push((format!("samples.{}", m.name), m.samples.to_string()));
        }
        for (i, n) in self.notes.iter().enumerate() {
            fields.push((format!("note.{i:02}"), format!("\"{}\"", json::escape(n))));
        }
        let body: Vec<String> = fields
            .into_iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// A human-readable table of the metrics with units and sample counts.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed {} ({}): attempted {} failed {} error_rate {}\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for d in self.catalogue() {
            if let Some(m) = self.value(d.name) {
                let _ = writeln!(
                    out,
                    "  {:<30} {:>16.6} {:<6} n={}",
                    d.name, m.value, d.unit, m.samples
                );
            }
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }
}

/// A saved detail record, parsed back.
#[derive(Debug)]
pub struct Saved {
    /// Provenance fields.
    pub provenance: Vec<(String, String)>,
    /// Metric name → (value, samples).
    pub metrics: BTreeMap<String, (f64, u64)>,
    /// Workload name.
    pub workload: String,
    /// Whether the run passed every check.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

/// Parses a record written by [`Report::detail_json`].
///
/// # Errors
///
/// A message when the text is not such a record.
pub fn parse_saved(text: &str) -> Result<Saved, String> {
    let obj = json::parse_object(text.trim())?;
    if obj.get("schema").and_then(Value::as_str) != Some("rex-e2e-bench/v1") {
        return Err("not a rex-e2e-bench/v1 record".to_owned());
    }
    let mut saved = Saved {
        provenance: Vec::new(),
        metrics: BTreeMap::new(),
        workload: obj
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned(),
        correct: obj.get("correct").and_then(Value::as_bool) == Some(true),
        attempted: obj.get("attempted").and_then(Value::as_u64).unwrap_or(0),
        failed: obj.get("failed").and_then(Value::as_u64).unwrap_or(0),
    };
    for (k, v) in &obj {
        if let Some(key) = k.strip_prefix("prov.") {
            saved
                .provenance
                .push((key.to_owned(), v.as_str().unwrap_or("").to_owned()));
        } else if let Some(name) = k.strip_prefix("metric.") {
            let samples = obj
                .get(&format!("samples.{name}"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
            saved
                .metrics
                .insert(name.to_owned(), (v.as_f64().unwrap_or(f64::NAN), samples));
        }
    }
    Ok(saved)
}

/// Compares two saved records. Returns the rendered comparison and
/// whether the records are comparable; records from different hosts or
/// workloads are not diffed, only their differing fields named.
pub fn compare(old: &Saved, new: &Saved) -> (String, bool) {
    let mut out = String::new();
    let mism = provenance::mismatches(&old.provenance, &new.provenance);
    for (k, a, b) in &mism {
        let _ = writeln!(out, "PROVENANCE MISMATCH {k}: {a:?} vs {b:?}");
    }
    if old.workload != new.workload {
        let _ = writeln!(
            out,
            "WORKLOAD MISMATCH: {} vs {}",
            old.workload, new.workload
        );
    }
    let comparable = mism.is_empty() && old.workload == new.workload;
    if !comparable {
        out.push_str("not compared: the records come from different hosts or workloads\n");
        return (out, false);
    }
    for (name, (a, na)) in &old.metrics {
        let Some((b, nb)) = new.metrics.get(name) else {
            let _ = writeln!(out, "  {name:<30} only in the first record");
            continue;
        };
        let change = if *a == 0.0 { 0.0 } else { (b - a) / a.abs() };
        let _ = writeln!(
            out,
            "  {name:<30} {a:>14.6} (n={na}) -> {b:>14.6} (n={nb})  {:+.1}%",
            change * 100.0
        );
    }
    (out, comparable)
}

/// The metrics a run of `workload` must report.
pub fn catalogue(workload: &str, trace: bool) -> Vec<MetricDef> {
    match (trace, workload) {
        (true, _) => PER_LAYER.to_vec(),
        (false, "serve-jobs") => [END_TO_END, SERVE_ONLY].concat(),
        (false, _) => END_TO_END.to_vec(),
    }
}

/// Checks the catalogue against the metric-name grammar.
pub fn catalogue_problems() -> Vec<String> {
    let mut out = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(SERVE_ONLY).chain(PER_LAYER) {
        if !stats::valid_name(d.name) {
            out.push(format!("bad metric name {:?}", d.name));
        }
        if !seen.insert(d.name) {
            out.push(format!("duplicate metric name {:?}", d.name));
        }
        let unit_ok = !d.unit.is_empty()
            && d.unit.len() <= 16
            && d.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        if !unit_ok {
            out.push(format!("bad unit {:?} for {}", d.unit, d.name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_follows_the_grammar() {
        assert_eq!(catalogue_problems(), Vec::<String>::new());
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let names = text.matches("\"name\"").count();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let unit = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(text.contains(&unit), "BENCHMARK.json lacks {unit}");
        }
        for d in SERVE_ONLY {
            assert!(!text.contains(&format!("\"{}\"", d.name)), "{}", d.name);
        }
        let benchmarked = ["rn20-cell", "dense-grid"];
        for w in benchmarked {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        assert!(!text.contains("\"serve-jobs\""));
        assert_eq!(
            names,
            END_TO_END.len() + PER_LAYER.len() + benchmarked.len()
        );
    }

    fn full_report(trace: bool) -> Report {
        let mut r = Report::new("rn20-cell", 3, trace);
        for (i, d) in r.catalogue().iter().enumerate() {
            r.set(d.name, 1.5 + i as f64, 10);
        }
        r.outcome(true);
        r
    }

    #[test]
    fn final_line_has_exactly_the_catalogue() {
        let r = full_report(false);
        assert!(r.correct());
        let line = r.final_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", d.name)));
        }
        assert!(!line.contains("tensor."));
        assert!(!line.contains("done_s_p50"));
        let mut served = Report::new("serve-jobs", 3, false);
        for d in served.catalogue() {
            served.set(d.name, 1.0, 1);
        }
        served.outcome(true);
        assert!(served.correct());
        assert!(served
            .final_line()
            .contains("\"done_s_p50\": {\"value\": 1,"));
    }

    #[test]
    fn missing_duplicate_or_unknown_metrics_are_problems() {
        let mut r = full_report(false);
        r.metrics.pop();
        assert_eq!(r.problems().len(), 1);
        assert!(!r.correct());
        let mut r = full_report(false);
        r.set("setup_s", 2.0, 1);
        r.set("tensor.gemm_ms", 1.0, 1);
        assert_eq!(r.problems().len(), 2);
        let mut r = full_report(true);
        r.metrics[0].value = f64::NAN;
        assert_eq!(r.problems().len(), 1);
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = full_report(false);
        r.outcome(false);
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
    }

    #[test]
    fn detail_record_round_trips_and_compares() {
        let mut r = full_report(false);
        r.provenance = crate::provenance::COMPARABLE
            .iter()
            .map(|&k| (k, "x".to_owned()))
            .collect();
        r.provenance[0].1 = "2".into();
        let a = parse_saved(&r.detail_json()).unwrap();
        assert_eq!(a.metrics["setup_s"], (1.5, 10));
        assert_eq!(a.workload, "rn20-cell");
        assert!(a.correct);
        assert_eq!((a.attempted, a.failed), (1, 0));
        r.provenance[0].1 = "1".into();
        let b = parse_saved(&r.detail_json()).unwrap();
        let (text, ok) = compare(&a, &a);
        assert!(ok, "{text}");
        assert!(text.contains("setup_s"));
        let (text, ok) = compare(&a, &b);
        assert!(!ok);
        assert!(text.contains("PROVENANCE MISMATCH nproc"));
        assert!(
            !text.contains("setup_s"),
            "mismatched records are not diffed"
        );
    }
}
