//! Results: the metrics a run measured, the environment it ran in, and the
//! report and JSON lines printed from them.

use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The end-to-end metrics every workload reports on the result line, with
/// their units.  Each workload's other end-to-end metrics go to the report.
pub const GATED: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
];

/// What one run of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted (queries, appends or explanations).
    pub attempted: u64,
    /// Operations that failed, were shed or expired.
    pub failed: u64,
    /// Correctness checks that failed.
    pub problems: Vec<String>,
    /// End-to-end metrics, the [`GATED`] ones included.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Fixed rates, sizes and policies of the workload.
    pub settings: Vec<(&'static str, String)>,
    /// Warnings about the run itself (e.g. a lagging load generator).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.e2e.push(Metric { name, unit, value });
    }

    /// Adds a setting.
    pub fn setting(&mut self, name: &'static str, value: impl ToString) {
        self.settings.push((name, value.to_string()));
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    fn e2e_value(&self, name: &str) -> f64 {
        self.e2e
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    /// Adds the tracing overhead: this (traced) run's end-to-end numbers
    /// minus those of the untraced run of the same seed.
    pub fn with_overhead_against(mut self, untraced: &RunResult) -> RunResult {
        for (layer, name) in [
            ("trace.overhead_setup_s", "setup_s"),
            ("trace.overhead_query_p50_ms", "query_p50_ms"),
            ("trace.overhead_query_p90_ms", "query_p90_ms"),
        ] {
            let delta = self.e2e_value(name) - untraced.e2e_value(name);
            crate::layers::set(&mut self.layers, layer, delta);
        }
        self.notes.extend(
            untraced
                .e2e
                .iter()
                .map(|m| format!("untraced {} = {} {}", m.name, m.value, m.unit)),
        );
        self
    }

    /// Human-readable report lines.
    pub fn report(&self, env: &[(&'static str, String)]) -> String {
        let mut out = String::new();
        for (name, value) in env.iter().chain(&self.settings) {
            let _ = writeln!(out, "env      {name} = {value}");
        }
        for metric in &self.e2e {
            let _ = writeln!(
                out,
                "e2e      {} = {} {}",
                metric.name, metric.value, metric.unit
            );
        }
        for metric in &self.layers {
            let _ = writeln!(
                out,
                "layer    {} = {} {}",
                metric.name, metric.value, metric.unit
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "note     {note}");
        }
        let _ = writeln!(
            out,
            "checks   {} ({} attempted, {} failed)",
            if self.problems.is_empty() {
                "all passed".to_string()
            } else {
                self.problems.join("; ")
            },
            self.attempted,
            self.failed
        );
        out
    }

    /// The last stdout line: end-to-end metrics untraced, per-layer traced.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced {
            metric_map(&self.layers)
        } else {
            let gated: Vec<Metric> = GATED
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: self.e2e_value(name),
                })
                .collect();
            metric_map(&gated)
        };
        serde_json::to_string(&ResultLine {
            correct: self.problems.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        })
        .expect("non-finite values are written as null")
    }

    /// Everything the run measured, as one JSON document.
    pub fn record_json(&self, env: &[(&'static str, String)]) -> String {
        let pairs = |items: &[(&'static str, String)]| -> BTreeMap<String, String> {
            items
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect()
        };
        let record = Record {
            environment: pairs(env),
            settings: pairs(&self.settings),
            correct: self.problems.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            end_to_end: metric_map(&self.e2e),
            per_layer: metric_map(&self.layers),
            problems: self.problems.clone(),
            notes: self.notes.clone(),
        };
        serde_json::to_string(&record).expect("non-finite values are written as null") + "\n"
    }
}

/// A metric as the JSON lines carry it; a non-finite value is `null`.
#[derive(Serialize)]
struct MetricValue {
    value: Option<f64>,
    unit: String,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

#[derive(Serialize)]
struct Record {
    environment: BTreeMap<String, String>,
    settings: BTreeMap<String, String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: BTreeMap<String, MetricValue>,
    per_layer: BTreeMap<String, MetricValue>,
    problems: Vec<String>,
    notes: Vec<String>,
}

fn metric_map(metrics: &[Metric]) -> BTreeMap<String, MetricValue> {
    metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                MetricValue {
                    value: m.value.is_finite().then_some(m.value),
                    unit: m.unit.to_string(),
                },
            )
        })
        .collect()
}

/// The environment every result records.
pub fn environment(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", u8::from(traced).to_string()),
        ("nproc", nproc.to_string()),
        ("git_commit", git_commit()),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
    ]
}

/// The commit of the working directory's git checkout, or `unknown` when
/// it is not one.  Git is not allowed to look above the working directory.
fn git_commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let mut command = std::process::Command::new("git");
    command
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null());
    if let Some(parent) = cwd.parent() {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    match command.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// Logs a phase boundary of a run to stderr.
pub fn progress(run_start: std::time::Instant, what: &str) {
    eprintln!(
        "perfbench: {:8.2} s  {what}",
        run_start.elapsed().as_secs_f64()
    );
}

/// Resets the process's peak resident set, so the peak read later excludes
/// input preparation.
pub fn reset_peak_rss() {
    // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) since the last reset, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_gated_metric() {
        let mut result = RunResult::default();
        for (name, unit) in GATED {
            result.e2e(name, unit, 1.5);
        }
        result.e2e("append_p50_ms", "ms", 2.0);
        result.attempted = 3;
        let line = result.result_line(false);
        for (name, unit) in GATED {
            let metric = format!("\"{name}\":{{\"value\":1.5,\"unit\":\"{unit}\"}}");
            assert!(line.contains(&metric), "{line}");
        }
        assert!(!line.contains("append_p50_ms"));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
    }

    #[test]
    fn a_missing_value_is_written_as_null() {
        let result = RunResult::default();
        let line = result.result_line(false);
        assert!(line.contains("\"setup_s\":{\"value\":null,"), "{line}");
    }
}
