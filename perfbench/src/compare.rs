//! Comparison report: given the result files of a parent and a change,
//! one row per workload × end-to-end metric with each side's median and
//! quartiles, the pairs (same seed) the change won, and a verdict.

use crate::stats::{median, quartiles};
use proclus_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The outcome of one comparison row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and its median
    /// beats the parent's by more than the parent's own quartile spread
    /// (or every change run beats every parent run).
    Improved,
    /// Neither improved nor worse by more than the bound.
    WithinBound,
    /// The change's median is worse than the parent's by more than the bound.
    Worse,
    /// The parent's own spread exceeds the bound, so the bound cannot
    /// be judged.
    Unresolved,
}

impl Verdict {
    /// Lowercase label for the report.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs `(parent, change)` the change won; ties count for neither.
pub fn pairs_won(pairs: &[(f64, f64)], lower_is_better: bool) -> usize {
    pairs
        .iter()
        .filter(|(p, c)| if lower_is_better { c < p } else { c > p })
        .count()
}

/// Judge one workload × metric.
pub fn verdict(parent: &[f64], change: &[f64], pairs: &[(f64, f64)], spec: &MetricSpec) -> Verdict {
    let better = |c: f64, p: f64| if spec.lower_is_better { c < p } else { c > p };
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let every_run_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if !parent.is_empty() && !change.is_empty() && every_run_better {
        return Verdict::Improved;
    }
    if (q3 - q1) / pm.abs() > spec.bound {
        return Verdict::Unresolved;
    }
    let won = pairs_won(pairs, spec.lower_is_better);
    if !pairs.is_empty()
        && won * 10 >= pairs.len() * 9
        && better(cm, pm)
        && (cm - pm).abs() > q3 - q1
    {
        return Verdict::Improved;
    }
    let worse_by = if spec.lower_is_better {
        cm - pm
    } else {
        pm - cm
    } / pm.abs();
    if worse_by > spec.bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

/// The `end_to_end` list of a `BENCHMARK.json`.
pub fn read_specs(benchmark: &Path) -> Result<Vec<MetricSpec>, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(MetricSpec {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .into(),
                unit: m.get("unit").and_then(Json::as_str).unwrap_or("").into(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// `(name, unit)` of every metric in the `key` list (`end_to_end` or
/// `per_layer`) of a `BENCHMARK.json`.
pub fn read_metric_units(benchmark: &Path, key: &str) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(String::from)
                    .ok_or(format!("{key} metric without a {f}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Untraced results of one side: workload → metric → seed → value.
pub type ResultSet = BTreeMap<String, BTreeMap<String, BTreeMap<u64, f64>>>;

/// Read every untraced result file (`*.json`) in `dir`.
pub fn read_results(dir: &Path) -> Result<ResultSet, String> {
    let mut out = ResultSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let (Some(workload), Some(seed), Some(Json::Obj(metrics))) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("seed").and_then(Json::as_usize),
            doc.get("metrics"),
        ) else {
            return Err(format!("{}: not a result file", path.display()));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .insert(seed as u64, v);
            }
        }
    }
    Ok(out)
}

/// The report: one row per workload × metric present on either side.
pub fn report(parent: &ResultSet, change: &ResultSet, specs: &[MetricSpec]) -> String {
    let mut out = format!(
        "{:<14} {:<16} {:>32} {:>32} {:>7}  verdict (bound)\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won"
    );
    let empty = BTreeMap::new();
    let workloads: std::collections::BTreeSet<&String> =
        parent.keys().chain(change.keys()).collect();
    for w in workloads {
        for spec in specs {
            let p = parent
                .get(w)
                .and_then(|m| m.get(&spec.name))
                .unwrap_or(&empty);
            let c = change
                .get(w)
                .and_then(|m| m.get(&spec.name))
                .unwrap_or(&empty);
            if p.is_empty() && c.is_empty() {
                continue;
            }
            let pv: Vec<f64> = p.values().copied().collect();
            let cv: Vec<f64> = c.values().copied().collect();
            let pairs: Vec<(f64, f64)> = p
                .iter()
                .filter_map(|(seed, &pv)| c.get(seed).map(|&cv| (pv, cv)))
                .collect();
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.6} [{:.6}, {:.6}]", median(v), q1, q3)
            };
            let _ = writeln!(
                out,
                "{:<14} {:<16} {:>32} {:>32} {:>7}  {} ({})",
                w,
                format!("{} {}", spec.name, spec.unit),
                side(&pv),
                side(&cv),
                format!(
                    "{}/{}",
                    pairs_won(&pairs, spec.lower_is_better),
                    pairs.len()
                ),
                verdict(&pv, &cv, &pairs, spec).label(),
                spec.bound
            );
        }
    }
    out
}
