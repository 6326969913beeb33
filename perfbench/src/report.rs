//! What one run produces — metrics, attempt counts, input digests —
//! and how it is printed: a human-readable table, a result file with
//! provenance, and the one-line JSON result that ends stdout.

use crate::stats::Summary;
use proclus_obs::json::{self, Json};
use std::fmt::Write as _;
use std::path::Path;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The samples `value` summarizes (empty for single measurements).
    pub samples: Vec<f64>,
}

/// Everything one run measured and checked.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Operations attempted (fits, requests).
    pub attempted: u64,
    /// Attempts that failed or failed the correctness check.
    pub failed: u64,
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Values printed and kept in the result file but not part of the
    /// result line (no bound applies to them).
    pub reported: Vec<(String, f64)>,
    /// FNV-1a digest of every generated input, by name.
    pub inputs: Vec<(String, u64)>,
    /// Why attempts failed, one line each (kept short: first few).
    pub failures: Vec<String>,
    /// Extra human-readable lines (per-layer tables, gates).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record one attempt; `Err` carries the failure reason.
    pub fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(reason);
            }
        }
    }

    /// Add a single-valued metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: Vec::new(),
        });
    }

    /// Add a metric with the samples it summarizes.
    pub fn sampled(&mut self, name: &str, value: f64, unit: &'static str, samples: Vec<f64>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// The metric names and units of the result line that differ from
    /// `expected` (missing, extra, or in another unit), one line each.
    pub fn mismatches(&self, expected: &[(String, String)]) -> Vec<String> {
        let mut out = Vec::new();
        for (name, unit) in expected {
            match self.metrics.iter().find(|m| &m.name == name) {
                None => out.push(format!("{name}: not measured")),
                Some(m) if m.unit != unit => {
                    out.push(format!("{name}: unit {} instead of {unit}", m.unit));
                }
                Some(_) => {}
            }
        }
        for m in &self.metrics {
            if !expected.iter().any(|(name, _)| name == &m.name) {
                out.push(format!("{}: not listed", m.name));
            }
            if self.metrics.iter().filter(|n| n.name == m.name).count() > 1 {
                out.push(format!("{}: measured twice", m.name));
            }
        }
        out
    }

    /// Failed ÷ attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Passed every check: attempted something, and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The one-line result: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        json::write_json(
            &mut out,
            &Json::Obj(vec![
                ("correct".into(), Json::Bool(self.correct())),
                ("attempted".into(), Json::Num(self.attempted as f64)),
                ("failed".into(), Json::Num(self.failed as f64)),
                ("metrics".into(), self.metrics_json()),
            ]),
        );
        out
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(m.value)),
                            ("unit".into(), Json::Str(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The human-readable report printed before the result line.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("== {title}\n");
        let _ = writeln!(
            out,
            "{:<28} {:>14} {:<6} {:>5} {:>12} {:>12} {:>12}  tail",
            "metric", "value", "unit", "n", "median", "q1", "q3"
        );
        for m in &self.metrics {
            let _ = write!(out, "{:<28} {:>14.6} {:<6}", m.name, m.value, m.unit);
            if m.samples.is_empty() {
                out.push('\n');
                continue;
            }
            let s = Summary::of(&m.samples);
            let _ = write!(
                out,
                " {:>5} {:>12.6} {:>12.6} {:>12.6}",
                s.n, s.median, s.q1, s.q3
            );
            match s.tail {
                Some((p, v)) => {
                    let _ = writeln!(out, "  p{p}={v:.6}");
                }
                None => out.push_str("  (too few samples for a tail percentile)\n"),
            }
        }
        for (name, v) in &self.reported {
            let _ = writeln!(out, "{name:<28} {v:>14.6}  (reported, no bound)");
        }
        let _ = writeln!(
            out,
            "attempted {} failed {} failed_frac {}",
            self.attempted,
            self.failed,
            self.failed_frac()
        );
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        out
    }

    /// The result file: the result line's content plus `failed_frac`,
    /// samples, failures and provenance.
    pub fn result_file(&self, workload: &str, seed: u64, trace: bool, provenance: Json) -> String {
        let samples = Json::Obj(
            self.metrics
                .iter()
                .filter(|m| !m.samples.is_empty())
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::Arr(m.samples.iter().map(|&v| Json::Num(v)).collect()),
                    )
                })
                .collect(),
        );
        let inputs = Json::Obj(
            self.inputs
                .iter()
                .map(|(n, d)| (n.clone(), Json::Str(format!("{d:016x}"))))
                .collect(),
        );
        let mut out = String::new();
        json::write_json(
            &mut out,
            &Json::Obj(vec![
                ("workload".into(), Json::Str(workload.into())),
                ("seed".into(), Json::Num(seed as f64)),
                ("trace".into(), Json::Bool(trace)),
                ("correct".into(), Json::Bool(self.correct())),
                ("attempted".into(), Json::Num(self.attempted as f64)),
                ("failed".into(), Json::Num(self.failed as f64)),
                ("failed_frac".into(), Json::Num(self.failed_frac())),
                ("metrics".into(), self.metrics_json()),
                (
                    "reported".into(),
                    Json::Obj(
                        self.reported
                            .iter()
                            .map(|(n, v)| (n.clone(), Json::Num(*v)))
                            .collect(),
                    ),
                ),
                ("samples".into(), samples),
                ("inputs".into(), inputs),
                (
                    "failures".into(),
                    Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
                ),
                ("provenance".into(), provenance),
            ]),
        );
        out.push('\n');
        out
    }
}

/// Facts that decide whether two result sets are comparable.
pub fn provenance(seed: u64, repo_root: &Path) -> Json {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(repo_root)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("seed".into(), Json::Num(seed as f64)),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("rustc".into(), Json::Str(command("rustc", &["-V"]))),
        (
            "commit".into(),
            Json::Str(command("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
