//! Metrics, the report lines and the final JSON result line.

use entropydb_bench::report::percentile;
use std::time::Instant;

/// Most sub-windows a run's figures are split into.
const WINDOWS: usize = 10;
/// Fewest samples behind one sub-window's percentile: enough that a p99
/// has ten samples beyond it.
const WINDOW_SAMPLES: usize = 1000;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher` is better.
    pub better: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        better: &'static str,
        samples: usize,
    ) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            better,
            samples,
        }
    }

    /// Nearest-rank percentile `q` of `samples`.
    pub fn pct(name: &str, samples: &[f64], q: f64, unit: &'static str) -> Self {
        Metric::new(name, percentile(samples, q), unit, "lower", samples.len())
    }

    /// Percentile `q` of timed samples, taken in each of up to [`WINDOWS`]
    /// consecutive sub-windows of at least [`WINDOW_SAMPLES`] samples; the
    /// metric is the median over the sub-windows, so a short stall of the
    /// host moves it less than it moves a single pooled percentile.
    pub fn windowed(name: &str, samples: &[(Instant, f64)], q: f64, unit: &'static str) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by_key(|&(at, _)| at);
        let values: Vec<f64> = sorted.iter().map(|&(_, v)| v).collect();
        let windows = (values.len() / WINDOW_SAMPLES).clamp(1, WINDOWS);
        let per_window: Vec<f64> = values
            .chunks(values.len().div_ceil(windows).max(1))
            .map(|chunk| percentile(chunk, q))
            .collect();
        Metric::new(
            name,
            percentile(&per_window, 50.0),
            unit,
            "lower",
            values.len(),
        )
    }
}

/// Everything one run produced.
#[derive(Default)]
pub struct Run {
    /// Metrics of the requested kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Operations sent (queries, batches, appends).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Operations answered wrongly.
    pub wrong: u64,
    /// Free-form report lines.
    pub notes: Vec<String>,
}

impl Run {
    /// Adds a metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Adds operations sent, failed and answered wrongly.
    pub fn count(&mut self, attempted: u64, failed: u64, wrong: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.wrong += wrong;
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every reply was answered and correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.wrong == 0
    }

    /// Prints the report lines and, last, the JSON result line.
    pub fn print(&self, workload: &str) {
        for line in &self.notes {
            println!("# {line}");
        }
        for m in &self.metrics {
            println!(
                "{workload} {:<28} {:>14.4} {:<6} ({} is better, n={})",
                m.name, m.value, m.unit, m.better, m.samples
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed + self.wrong,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number (non-finite values, which would be invalid JSON,
/// print as 0 and are flagged by the caller's checks).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
