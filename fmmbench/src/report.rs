//! The metric catalogue and the result line every run ends with.

use compat::json::{Json, JsonError};
use std::collections::BTreeMap;

/// `BENCHMARK.json`, the one list of metric names and units.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// The thirteen user-facing figures every untraced run prints; a
/// workload without such a figure prints `n/a`.  Each is a metric of
/// `BENCHMARK.json`, end-to-end or per-layer.
pub const FIGURES: [&str; 13] = [
    "setup_s",
    "peak_rss_mb",
    "error_rate",
    "solve_s",
    "eval_s",
    "rel_err",
    "p50_us",
    "p99_us",
    "cold_p50_ms",
    "step_p50_ms",
    "step_p98_ms",
    "energy_j",
    "deadline_misses",
];

/// The metrics `(name, unit)` of `BENCHMARK.json`.  Every workload
/// reports every end-to-end metric, from an untraced run; `p50_us` and
/// `p99_us` are the latency of the workload's unit of work (README.md,
/// "End-to-end metrics").  The per-layer metrics come from a traced run.
pub struct Catalogue {
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

impl Catalogue {
    /// Reads the catalogue from the `BENCHMARK.json` built into the
    /// binary and checks that every figure is in it.
    pub fn load() -> Result<Catalogue, String> {
        let json = Json::parse(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<(String, String)>, JsonError> {
            json.field(key)?
                .as_array()?
                .iter()
                .map(|m| {
                    Ok((
                        m.field("name")?.as_str()?.to_string(),
                        m.field("unit")?.as_str()?.to_string(),
                    ))
                })
                .collect()
        };
        let catalogue = Catalogue {
            end_to_end: list("end_to_end").map_err(|e| format!("BENCHMARK.json: {e}"))?,
            per_layer: list("per_layer").map_err(|e| format!("BENCHMARK.json: {e}"))?,
        };
        for name in FIGURES {
            catalogue.unit(name)?;
        }
        Ok(catalogue)
    }

    /// The unit of metric `name`, or an error naming a metric that is not
    /// in `BENCHMARK.json`.
    pub fn unit(&self, name: &str) -> Result<&str, String> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(n, _)| n == name)
            .map(|(_, unit)| unit.as_str())
            .ok_or_else(|| format!("metric {name} is not in BENCHMARK.json"))
    }
}

/// What one run of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Units of work attempted (solves and evaluations, requests, steps).
    pub attempted: u64,
    /// Units that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Correctness gates that failed, each with what it saw.
    pub violations: Vec<String>,
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Median latency of the workload's unit of work, µs.
    pub unit_p50_us: f64,
    /// 99th-percentile latency of the unit of work, µs.
    pub unit_p99_us: f64,
    /// Figures by name (see [`FIGURES`]).
    pub figures: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name; traced runs only.
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra rows for the trace dump, one JSON object each.
    pub rows: Vec<String>,
}

impl Report {
    /// Records a failed gate when `ok` is false.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Fails on a figure or layer metric that `BENCHMARK.json` does not
    /// name, so a metric renamed on one side only cannot silently vanish
    /// from the result line.
    pub fn check_names(&self, catalogue: &Catalogue) -> Result<(), String> {
        for name in self.figures.keys().chain(self.layers.keys()) {
            catalogue.unit(name)?;
        }
        Ok(())
    }

    /// The final stdout line: the outcome counts and `metrics`, plus
    /// whether every gate held.
    pub fn result_line(&self, metrics: &[(&str, &str, f64)]) -> (String, bool) {
        let mut correct = self.violations.is_empty() && self.attempted > 0;
        for v in &self.violations {
            eprintln!("correctness gate failed: {v}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|&(name, unit, value)| {
                let value = if value.is_finite() {
                    value
                } else {
                    eprintln!("metric {name} is not finite");
                    correct = false;
                    0.0
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
        (line, correct)
    }
}
