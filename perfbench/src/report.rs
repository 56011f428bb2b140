//! Metric catalogue and the result line.
//!
//! Every workload prints the same metric names (the contract in
//! `BENCHMARK.json`): the end-to-end set without tracing, the per-layer set
//! with it. A layer a workload never calls reports 0 for its counters and
//! times.

/// Handwritten languages of Section 8.2, as metric-name subjects.
pub const LANGUAGES: [&str; 4] = ["url", "grep", "lisp", "xml"];

/// Instrumented programs of Figure 6, in the paper's order.
pub const PROGRAMS: [&str; 8] =
    ["sed", "flex", "grep", "bison", "xml", "ruby", "python", "javascript"];

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("synth_s", "s"),
    ("warm_synth_s", "s"),
    ("unique_queries", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics that do not depend on the subject: (name, unit).
const LAYER_FIXED: &[(&str, &str)] = &[
    ("session.phase1_s", "s"),
    ("session.chargen_s", "s"),
    ("session.phase2_s", "s"),
    ("session.self_s", "s"),
    ("runner.total_queries", "count"),
    ("runner.hit_ratio", "ratio"),
    ("runner.probes_elided", "count"),
    ("runner.memo_hits", "count"),
    ("oracle.calls", "count"),
    ("oracle.busy_s", "s"),
    ("oracle.us_per_query", "us"),
    ("oracle.wall_share", "ratio"),
    ("pool.batches", "count"),
    ("pool.queries_per_batch", "count"),
    ("pool.batch_ms", "ms"),
    ("pool.queries_per_s", "1/s"),
    ("pool.respawns", "count"),
    ("pool.failures", "count"),
    ("pool.timeouts", "count"),
    ("serve.open_ms", "ms"),
    ("serve.first_event_ms", "ms"),
    ("serve.events", "count"),
    ("serve.events_dropped", "count"),
    ("serve.close_ms", "ms"),
    ("persist.snapshot_bytes", "bytes"),
    ("persist.journal_bytes", "bytes"),
    ("persist.restart_s", "s"),
    ("persist.warm_new_queries", "count"),
    ("earley.build_us", "us"),
    ("earley.recall_us_per_check", "us"),
    ("earley.seed_parse_s", "s"),
    ("sample.us_per_sample", "us"),
    ("sample.none_share", "ratio"),
    ("fuzz.us_per_input", "us"),
    ("fuzz.bytes_per_input", "bytes"),
    ("fuzz.valid_rate", "ratio"),
    ("fuzz.inputs_per_s", "1/s"),
    ("fuzz.incremental_coverage", "ratio"),
    ("target.us_per_run", "us"),
    ("target.covered_lines", "count"),
    ("eval.s", "s"),
    ("eval.f1", "ratio"),
    ("run.failed_share", "ratio"),
    ("trace.overhead.synth_s", "s"),
    ("trace.overhead.warm_synth_s", "s"),
    ("trace.overhead.stage_s", "s"),
    ("trace.overhead.unique_queries", "count"),
    ("host.kernel_ms", "ms"),
];

/// Subject name used in per-subject metric names (`lang.url`,
/// `prog.sed`).
pub fn lang_subject(name: &str) -> String {
    format!("lang.{name}")
}

pub fn prog_subject(name: &str) -> String {
    format!("prog.{name}")
}

/// Every per-layer metric, in output order: (name, unit).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYER_FIXED.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect();
    let subjects = LANGUAGES.iter().map(|l| lang_subject(l));
    for subject in subjects.chain(PROGRAMS.iter().map(|p| prog_subject(p))) {
        out.push((format!("oracle.us_per_query.{subject}"), "us"));
    }
    for lang in LANGUAGES {
        out.push((format!("eval.precision.{lang}"), "ratio"));
        out.push((format!("eval.recall.{lang}"), "ratio"));
    }
    out
}

/// Named metric values collected by a workload.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64)> {
        self.0.iter()
    }
}

/// Renders the contract's result line. Metrics missing from `values`
/// print as 0 (a layer the workload does not exercise).
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    catalogue: &[(String, &'static str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(value))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (non-finite values, which JSON cannot carry, print as 0).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_catalogued_metric() {
        let catalogue: Vec<(String, &str)> =
            END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect();
        let mut values = Values::default();
        values.set("synth_s", 1.25);
        values.set("synth_s", 1.5);
        let line = result_line(true, 3, 0, &catalogue, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"synth_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let mut declared =
            END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect::<Vec<_>>();
        declared.extend(per_layer());
        for (name, unit) in &declared {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = ["lang_infer", "program_fuzz", "served_pool"];
        for w in workloads {
            assert!(json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")), "{w}");
        }
        assert_eq!(json.matches("{\"name\": ").count(), declared.len() + workloads.len());
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let names = per_layer();
        let mut sorted: Vec<&str> = names.iter().map(|(n, _)| n.as_str()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.len() <= 128);
        for (name, _) in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
