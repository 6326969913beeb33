//! `proclus inspect-trace` — summarize a trace directory written by
//! `proclus fit --trace-out`: manifest header, per-phase time
//! breakdown, convergence curve, and swap history.

use crate::args::Args;
use proclus_obs::json;
use proclus_obs::{render_manifest, Event, TraceSummary, EVENTS_FILE, MANIFEST_FILE};
use std::error::Error;
use std::io::Write;
use std::path::PathBuf;

pub const HELP: &str = "\
proclus inspect-trace — summarize a fit trace (run.json + events.jsonl)

  --input <dir>    trace directory written by `proclus fit --trace-out`
                   (required)
  --events <path>  read this events.jsonl instead of <dir>/events.jsonl
";

/// A malformed trace file: carries the offending path and line.
#[derive(Debug)]
pub struct MalformedTrace(pub String);

impl std::fmt::Display for MalformedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for MalformedTrace {}

fn read_to_string(path: &PathBuf) -> Result<String, Box<dyn Error>> {
    std::fs::read_to_string(path).map_err(|e| -> Box<dyn Error> {
        Box::new(std::io::Error::new(
            e.kind(),
            format!("{}: {e}", path.display()),
        ))
    })
}

/// Derived round-cache effectiveness: hits / (hits + recomputes) per
/// cache layer, from the `cache.*` manifest counters. Each layer whose
/// two counters are present is rendered, so a manifest written by an
/// engine with other layers still gets a line. `None` when no layer's
/// counters are present (cache disabled, or a pre-cache trace).
fn cache_summary(manifest: &json::Json) -> Option<String> {
    let counter = |name: &str| {
        manifest
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(json::Json::as_usize)
    };
    let layer = |label: &str, hits: &str, recomputes: &str| -> Option<String> {
        let h = counter(hits)?;
        let r = counter(recomputes)?;
        let total = h + r;
        // A 0-lookup layer has no meaningful rate: "0.0%" would read
        // as "nothing hit" when in fact nothing was ever asked.
        if total == 0 {
            return Some(format!("{label} n/a (0 lookups)"));
        }
        let pct = h as f64 * 100.0 / total as f64;
        Some(format!("{label} {h}/{total} hits ({pct:.1}%)"))
    };
    let layers: Vec<String> = [
        layer(
            "fused",
            "cache.fused_slot_hits",
            "cache.fused_slot_recomputes",
        ),
        layer("columns", "cache.column_hits", "cache.column_recomputes"),
    ]
    .into_iter()
    .flatten()
    .collect();
    (!layers.is_empty()).then(|| format!("round cache: {}", layers.join(", ")))
}

/// Derived neighbor-index effectiveness: pruned / (pruned + verified)
/// over the locality range queries, from the `index.range_*` manifest
/// counters (an absent one counts as 0). `None` when the trace has none
/// of them (index disabled, or a pre-index trace).
fn index_summary(manifest: &json::Json) -> Option<String> {
    let counters = [
        "index.range_sketch_pruned",
        "index.range_triangle_pruned",
        "index.range_prefix_pruned",
        "index.range_verified",
    ]
    .map(|name| {
        manifest
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(json::Json::as_usize)
    });
    if counters.iter().all(Option::is_none) {
        return None;
    }
    let [sketch, triangle, prefix, verified] = counters.map(|c| c.unwrap_or(0));
    let pruned = sketch + triangle + prefix;
    let total = pruned + verified;
    // No range queries ran (e.g. a fit that converged in 0 rounds): a
    // rate is undefined, not 0%.
    let rate = if total == 0 {
        "n/a (0 queries)".to_string()
    } else {
        let pct = pruned as f64 * 100.0 / total as f64;
        format!("{pruned}/{total} pruned ({pct:.1}%)")
    };
    Some(format!(
        "neighbor index: range {rate} (sketch {sketch}, triangle {triangle}, prefix {prefix})"
    ))
}

/// Derived serving health from a `proclus serve` manifest's `serve.*`
/// counters: request volume, error split, queue pressure, and job
/// outcomes. `None` for traces that never served traffic.
fn serve_summary(manifest: &json::Json) -> Option<String> {
    let counter = |name: &str| {
        manifest
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(json::Json::as_usize)
    };
    let requests = counter("serve.requests")?;
    let c4xx = counter("serve.status_4xx").unwrap_or(0);
    let c5xx = counter("serve.status_5xx").unwrap_or(0);
    let queue_full = counter("serve.queue_full").unwrap_or(0);
    let done = counter("serve.jobs_done").unwrap_or(0);
    let failed = counter("serve.jobs_failed").unwrap_or(0);
    let protocol = counter("serve.protocol_errors").unwrap_or(0);
    Some(format!(
        "serve health: {requests} requests ({c4xx} 4xx, {c5xx} 5xx, \
         {protocol} protocol faults), {queue_full} backpressured, \
         jobs {done} done / {failed} failed"
    ))
}

/// Derived stream health from a `proclus stream` manifest's result
/// object: ingest volume, quarantine count, and rollover tallies.
/// `None` for non-streaming traces (e.g. a plain `fit`).
fn stream_summary(manifest: &json::Json) -> Option<String> {
    let result = manifest.get("result")?;
    let num = |name: &str| result.get(name).and_then(json::Json::as_usize);
    let batches = num("batches")?;
    let quarantined = num("quarantined")?;
    let promotions = num("promotions")?;
    let rollbacks = num("rollbacks")?;
    let serving = result
        .get("serving_generation")
        .and_then(json::Json::as_usize)
        .map_or_else(|| "none".to_string(), |g| format!("generation {g}"));
    Some(format!(
        "stream health: {batches} batches ({quarantined} quarantined), \
         {promotions} promoted / {rollbacks} rolled back, serving {serving}"
    ))
}

/// Run the command.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let dir = PathBuf::from(args.require("input")?);
    let events_path = args
        .get("events")
        .map_or_else(|| dir.join(EVENTS_FILE), PathBuf::from);
    args.reject_unknown()?;

    // Manifest: measurement side (timings, counters, gauges).
    let manifest_path = dir.join(MANIFEST_FILE);
    let manifest_text = read_to_string(&manifest_path)?;
    let manifest = json::parse(&manifest_text)
        .map_err(|e| MalformedTrace(format!("{}: {e}", manifest_path.display())))?;
    let rendered = render_manifest(&manifest)
        .map_err(|e| MalformedTrace(format!("{}: {e}", manifest_path.display())))?;
    write!(out, "{rendered}")?;
    if let Some(line) = cache_summary(&manifest) {
        writeln!(out, "{line}")?;
    }
    if let Some(line) = index_summary(&manifest) {
        writeln!(out, "{line}")?;
    }
    if let Some(line) = stream_summary(&manifest) {
        writeln!(out, "{line}")?;
    }
    if let Some(line) = serve_summary(&manifest) {
        writeln!(out, "{line}")?;
    }
    if let Some(json::Json::Obj(members)) = manifest.get("params") {
        let mut line = String::from("params:");
        for (key, value) in members {
            line.push_str(&format!(" {key}={value}"));
        }
        writeln!(out, "{line}")?;
    }

    // Event stream: deterministic side (convergence, swaps, refine).
    let stream = read_to_string(&events_path)?;
    let mut events = Vec::new();
    for (i, line) in stream.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = Event::parse_line(line).map_err(|e| {
            MalformedTrace(format!("{} line {}: {e}", events_path.display(), i + 1))
        })?;
        events.push(ev);
    }
    let summary = TraceSummary::from_events(&events, 0);
    write!(out, "{}", summary.render())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proclus_core::Proclus;
    use proclus_data::SyntheticSpec;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("proclus-cli-trc-{name}-{}", std::process::id()))
    }

    /// End to end: fit with a JsonlRecorder, then inspect the directory.
    #[test]
    fn summarizes_a_real_trace() {
        let dir = tmp("e2e");
        let data = SyntheticSpec::new(300, 6, 2, 3.0).seed(9).generate();
        let rec = proclus_obs::JsonlRecorder::create(&dir).unwrap();
        let model = Proclus::new(2, 3.0)
            .seed(1)
            .restarts(2)
            .fit_traced(&data.points, &rec)
            .unwrap();
        rec.finish(
            json::Json::Obj(vec![("k".into(), json::Json::Num(2.0))]),
            json::Json::Obj(vec![(
                "objective".into(),
                json::Json::Num(model.objective()),
            )]),
        )
        .unwrap();

        let args = Args::parse(toks(&format!("--input {}", dir.display())), &[]).unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(text.contains("manifest: schema_version=1"), "{text}");
        assert!(text.contains("phase breakdown:"), "{text}");
        assert!(text.contains("algorithm: proclus"), "{text}");
        assert!(text.contains("convergence"), "{text}");
        assert!(text.contains("params: k=2"), "{text}");
        // Cache counters surface both raw and as derived hit rates.
        assert!(text.contains("cache.fused_slot_hits"), "{text}");
        assert!(text.contains("round cache: fused "), "{text}");
        assert!(text.contains(", columns "), "{text}");
        // Index counters surface both raw and as derived prune rates.
        assert!(text.contains("index.range_verified"), "{text}");
        assert!(text.contains("neighbor index: range "), "{text}");
        assert!(text.contains("pruned ("), "{text}");
    }

    /// A trace from an unindexed fit renders without the derived index
    /// line instead of failing or printing zeros.
    #[test]
    fn unindexed_trace_omits_the_index_summary() {
        let dir = tmp("noindex");
        let data = SyntheticSpec::new(200, 5, 2, 2.0).seed(6).generate();
        let rec = proclus_obs::JsonlRecorder::create(&dir).unwrap();
        Proclus::new(2, 2.0)
            .seed(1)
            .restarts(1)
            .neighbor_index(false)
            .fit_traced(&data.points, &rec)
            .unwrap();
        rec.finish(json::Json::Obj(Vec::new()), json::Json::Obj(Vec::new()))
            .unwrap();
        let args = Args::parse(toks(&format!("--input {}", dir.display())), &[]).unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.contains("neighbor index:"), "{text}");
        assert!(!text.contains("index.range_verified"), "{text}");
    }

    /// A trace without cache counters (cache disabled) renders without
    /// the derived cache line instead of failing or printing zeros.
    #[test]
    fn uncached_trace_omits_the_cache_summary() {
        let dir = tmp("nocache");
        let data = SyntheticSpec::new(200, 5, 2, 2.0).seed(6).generate();
        let rec = proclus_obs::JsonlRecorder::create(&dir).unwrap();
        Proclus::new(2, 2.0)
            .seed(1)
            .restarts(1)
            .round_cache(false)
            .fit_traced(&data.points, &rec)
            .unwrap();
        rec.finish(json::Json::Obj(Vec::new()), json::Json::Obj(Vec::new()))
            .unwrap();
        let args = Args::parse(toks(&format!("--input {}", dir.display())), &[]).unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.contains("round cache:"), "{text}");
        assert!(!text.contains("cache.fused_slot_hits"), "{text}");
    }

    /// Counters that exist but total zero (a fit that never exercised
    /// a layer) must render as `n/a`, never as a misleading `0.0%`.
    #[test]
    fn zero_total_counters_render_as_not_applicable() {
        let dir = tmp("zero-counters");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            concat!(
                "{\"schema_version\":1,\"events\":0,\"phases\":{},\"counters\":{",
                "\"cache.fused_slot_hits\":0,\"cache.fused_slot_recomputes\":0,",
                "\"cache.column_hits\":0,\"cache.column_recomputes\":0,",
                "\"index.range_sketch_pruned\":0,\"index.range_triangle_pruned\":0,",
                "\"index.range_prefix_pruned\":0,\"index.range_verified\":0}}"
            ),
        )
        .unwrap();
        std::fs::write(dir.join(EVENTS_FILE), "").unwrap();
        let args = Args::parse(toks(&format!("--input {}", dir.display())), &[]).unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("fused n/a (0 lookups)"), "{text}");
        assert!(text.contains("range n/a (0 queries)"), "{text}");
        assert!(!text.contains("0.0%"), "zero-total rate leaked: {text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    /// Manifests written before and after the nearest-medoid pruning,
    /// the cache's cluster-row layer and the `f32` fast path were
    /// removed all get their cache and index lines: the summaries
    /// render the counters that are present and ignore the retired ones
    /// (which still appear in the raw counter listing, and derive no
    /// line of their own).
    #[test]
    fn manifests_with_and_without_retired_counters_render_every_line() {
        let current = concat!(
            "\"cache.fused_slot_hits\":3,\"cache.fused_slot_recomputes\":1,",
            "\"cache.column_hits\":1,\"cache.column_recomputes\":3,",
            "\"index.range_sketch_pruned\":5,\"index.range_triangle_pruned\":2,",
            "\"index.range_prefix_pruned\":3,\"index.range_verified\":30"
        );
        let retired = concat!(
            "\"cache.cluster_row_hits\":2,\"cache.cluster_row_recomputes\":6,",
            "\"index.nearest_pruned\":0,\"index.nearest_verified\":40,"
        );
        let fast_math = concat!(
            "\"fastmath.screened\":12,\"fastmath.excluded\":4,",
            "\"fastmath.verified\":8,"
        );
        let render = |name: &str, counters: &str| {
            let dir = tmp(name);
            std::fs::create_dir_all(&dir).unwrap();
            let manifest = format!(
                "{{\"schema_version\":1,\"events\":0,\"phases\":{{}},\"counters\":{{{counters}}}}}"
            );
            std::fs::write(dir.join(MANIFEST_FILE), manifest).unwrap();
            std::fs::write(dir.join(EVENTS_FILE), "").unwrap();
            let args = Args::parse(toks(&format!("--input {}", dir.display())), &[]).unwrap();
            let mut buf = Vec::new();
            run(&args, &mut buf).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            String::from_utf8(buf).unwrap()
        };
        let cache_line = "round cache: fused 3/4 hits (75.0%), columns 1/4 hits (25.0%)\n";
        let index_line =
            "neighbor index: range 10/40 pruned (25.0%) (sketch 5, triangle 2, prefix 3)\n";
        for (name, counters) in [
            ("before", format!("{retired}{current}")),
            ("fast-math", format!("{fast_math}{current}")),
            ("after", current.to_string()),
        ] {
            let text = render(name, &counters);
            assert!(text.contains(cache_line), "{name}: {text}");
            assert!(text.contains(index_line), "{name}: {text}");
            assert!(!text.contains("fast math:"), "{name}: {text}");
            if name == "fast-math" {
                for key in [
                    "fastmath.screened",
                    "fastmath.excluded",
                    "fastmath.verified",
                ] {
                    assert!(text.contains(key), "{name}: raw {key} missing: {text}");
                }
            }
        }
    }

    /// A real k=1 fit (no swaps possible, rounds end immediately) must
    /// inspect cleanly — its zero-activity layers say `n/a`.
    #[test]
    fn k1_trace_inspects_without_bogus_rates() {
        let dir = tmp("k1");
        let data = SyntheticSpec::new(120, 4, 1, 2.0).seed(5).generate();
        let rec = proclus_obs::JsonlRecorder::create(&dir).unwrap();
        Proclus::new(1, 2.0)
            .seed(1)
            .restarts(1)
            .fit_traced(&data.points, &rec)
            .unwrap();
        rec.finish(json::Json::Obj(Vec::new()), json::Json::Obj(Vec::new()))
            .unwrap();
        let args = Args::parse(toks(&format!("--input {}", dir.display())), &[]).unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.contains("NaN"), "{text}");
        // A genuinely-zero rate over a nonzero total (e.g. "0/1200
        // pruned (0.0%)") is meaningful and allowed; what must never
        // appear is a rate over a zero total.
        assert!(!text.contains("0/0 "), "zero-total rate leaked: {text}");
    }

    /// A trace that begins with a `scenario_meta` event (written by
    /// `proclus scenario --trace-out`) leads its summary with a
    /// `scenario:` identity line.
    #[test]
    fn scenario_trace_leads_with_the_scenario_line() {
        let dir = tmp("scn");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            "{\"schema_version\":1,\"events\":1,\"phases\":{}}",
        )
        .unwrap();
        std::fs::write(
            dir.join(EVENTS_FILE),
            "{\"type\":\"scenario_meta\",\"name\":\"zipf-sizes\",\"seed\":17,\"epochs\":4}\n",
        )
        .unwrap();
        let args = Args::parse(toks(&format!("--input {}", dir.display())), &[]).unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("scenario: zipf-sizes  seed=17 epochs=4"),
            "{text}"
        );
    }

    #[test]
    fn missing_directory_errors() {
        let args = Args::parse(toks("--input /nonexistent/trace-dir"), &[]).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
    }

    #[test]
    fn corrupt_event_line_reports_location() {
        let dir = tmp("bad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            "{\"schema_version\":1,\"events\":1,\"phases\":{}}",
        )
        .unwrap();
        std::fs::write(dir.join(EVENTS_FILE), "{\"kind\":\"not-a-kind\"}\n").unwrap();
        let args = Args::parse(toks(&format!("--input {}", dir.display())), &[]).unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.to_string().contains("line 1"), "{err}");
    }
}
