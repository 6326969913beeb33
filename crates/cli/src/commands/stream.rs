//! `proclus stream` — continuous ingest with drift-triggered, gated
//! model rollover against a crash-safe registry.
//!
//! `.chunks` inputs are read frame by frame through the same
//! fault-tolerant reader a network tail would use, so a corrupt frame
//! is quarantined as one batch and the stream reads on; every other
//! input is loaded whole and ingested in `--batch`-row slices.

use crate::args::{ArgError, Args};
use crate::commands::fit::parse_metric;
use proclus_core::{
    BatchReport, GateConfig, Proclus, RecoveryReport, RolloverOutcome, StreamConfig,
    StreamDiagnostics, StreamServer,
};
use proclus_data::{read_dataset, ChunkReader, DataError, Format};
use proclus_math::Matrix;
use proclus_obs::json::Json;
use proclus_obs::{Fanout, JsonlRecorder, Recorder, RingRecorder, TraceSummary};
use std::error::Error;
use std::io::Write;
use std::path::PathBuf;

pub const HELP: &str = "\
proclus stream — continuous ingest, drift detection, gated rollover

  --input <paths>   comma-separated dataset files, ingested in order;
                    format by extension, any case (.csv text, .chunks
                    PRCK frames, one batch each, else PRCL binary)
                    (required)
  --registry <dir>  model registry directory (created if missing; a
                    recovery scan quarantines partial/corrupt entries)
                    (required)
  --k <usize>       number of clusters (required)
  --l <f64>         average dimensions per cluster (required)

stream knobs:
  --batch <n>           rows per batch of non-.chunks input [default 256]
  --window <n>          sliding-window capacity [default 2048]
  --min-fit <n>         points required before any fit [default 512]
  --reservoir <n>       reference-reservoir capacity [default 256]
  --projections <n>     drift-detector projections [default 8]
  --drift-threshold <f> standardized mean-shift trigger level [default 0.6]
  --patience <n>        consecutive drifted batches to trigger [default 2]
  --cooldown <n>        batches between rollover attempts [default 2]
  --stream-seed <u64>   sampling/projection seed [default 0]

promotion gates:
  --min-silhouette <f>      shadow silhouette floor [default 0.05]
  --max-cost-ratio <f>      canary cost-ratio ceiling [default 1.25]
  --max-outlier-fraction <f> shadow outlier ceiling [default 0.5]
  --canary-fraction <f>     window share served as canary [default 0.25]
  --min-canary-ari <f>      live-agreement floor [default 0]
  --min-coverage <f>        live coverage for ARI enforcement [default 0.25]

fit knobs (candidate models):
  --seed <u64>      fit PRNG seed [default 0]
  --restarts <n>    independent hill climbs [default 5]
  --threads <n>     worker threads [default 1]
  --metric <name>   manhattan | euclidean | chebyshev [default manhattan]
  --no-round-cache  disable the cross-round cache (bit-identical)
  --no-index        disable the pruning index (bit-identical)

output:
  --verbose         print the recorded trace summary
  --trace-out <dir> stream events.jsonl + run.json into this directory
";

fn params_json(params: &Proclus, config: &StreamConfig, metric: &str) -> Json {
    Json::Obj(vec![
        ("algorithm".into(), Json::Str("proclus-stream".into())),
        ("k".into(), Json::Num(params.k as f64)),
        ("l".into(), Json::Num(params.l)),
        ("seed".into(), Json::Num(params.rng_seed as f64)),
        ("stream_seed".into(), Json::Num(config.seed as f64)),
        ("window".into(), Json::Num(config.window as f64)),
        (
            "min_fit_points".into(),
            Json::Num(config.min_fit_points as f64),
        ),
        ("reservoir".into(), Json::Num(config.reservoir as f64)),
        ("projections".into(), Json::Num(config.projections as f64)),
        ("drift_threshold".into(), Json::Num(config.drift_threshold)),
        ("patience".into(), Json::Num(config.patience as f64)),
        ("cooldown".into(), Json::Num(config.cooldown as f64)),
        ("threads".into(), Json::Num(params.threads as f64)),
        ("metric".into(), Json::Str(metric.into())),
    ])
}

fn result_json(diag: &StreamDiagnostics, generation: Option<u64>) -> Json {
    Json::Obj(vec![
        ("batches".into(), Json::Num(diag.batches as f64)),
        (
            "accepted_points".into(),
            Json::Num(diag.accepted_points as f64),
        ),
        (
            "quarantined".into(),
            Json::Num(diag.quarantined.len() as f64),
        ),
        (
            "drift_detections".into(),
            Json::Num(diag.drift_detections as f64),
        ),
        ("promotions".into(), Json::Num(diag.promotions as f64)),
        ("rollbacks".into(), Json::Num(diag.rollbacks as f64)),
        (
            "serving_generation".into(),
            match generation {
                Some(g) => Json::Num(g as f64),
                None => Json::Null,
            },
        ),
    ])
}

pub(crate) fn describe_recovery(
    out: &mut dyn Write,
    report: &RecoveryReport,
) -> std::io::Result<()> {
    if report.is_clean() {
        return Ok(());
    }
    writeln!(
        out,
        "registry recovery: {} valid entr{}, {} quarantined{}",
        report.valid.len(),
        if report.valid.len() == 1 { "y" } else { "ies" },
        report.quarantined.len(),
        if report.current_repaired {
            ", CURRENT repaired"
        } else {
            ""
        }
    )?;
    for (path, reason) in &report.quarantined {
        writeln!(out, "  quarantined {}: {reason}", path.display())?;
    }
    Ok(())
}

/// Run the command.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let inputs: Vec<PathBuf> = args
        .require("input")?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
        .collect();
    if inputs.is_empty() {
        return Err(Box::new(ArgError("--input: no files given".into())));
    }
    let registry_dir = PathBuf::from(args.require("registry")?);
    let k: usize = args.require_parsed("k")?;
    let l: f64 = args.require_parsed("l")?;
    let metric = args.get("metric").unwrap_or("manhattan").to_string();
    let params = Proclus::new(k, l)
        .seed(args.get_parsed("seed", 0u64)?)
        .restarts(args.get_parsed("restarts", 5usize)?)
        .threads(args.get_parsed("threads", 1usize)?)
        .distance(parse_metric(&metric)?)
        .round_cache(!args.switch("no-round-cache"))
        .neighbor_index(!args.switch("no-index"));
    let batch_rows: usize = args.get_parsed("batch", 256usize)?;
    if batch_rows == 0 {
        return Err(Box::new(ArgError("--batch must be positive".into())));
    }
    let config = StreamConfig {
        window: args.get_parsed("window", 2048usize)?,
        min_fit_points: args.get_parsed("min-fit", 512usize)?,
        reservoir: args.get_parsed("reservoir", 256usize)?,
        projections: args.get_parsed("projections", 8usize)?,
        drift_threshold: args.get_parsed("drift-threshold", 0.6)?,
        patience: args.get_parsed("patience", 2usize)?,
        cooldown: args.get_parsed("cooldown", 2usize)?,
        seed: args.get_parsed("stream-seed", 0u64)?,
    };
    let gates = GateConfig {
        min_silhouette: args.get_parsed("min-silhouette", 0.05)?,
        max_cost_ratio: args.get_parsed("max-cost-ratio", 1.25)?,
        max_outlier_fraction: args.get_parsed("max-outlier-fraction", 0.5)?,
        canary_fraction: args.get_parsed("canary-fraction", 0.25)?,
        min_canary_ari: args.get_parsed("min-canary-ari", 0.0)?,
        min_live_coverage: args.get_parsed("min-coverage", 0.25)?,
        ..GateConfig::default()
    };
    let verbose = args.switch("verbose");
    let trace_dir = args.get("trace-out").map(PathBuf::from);
    args.reject_unknown()?;

    let ring = verbose.then(|| RingRecorder::new(super::fit::VERBOSE_RING_CAPACITY));
    let jsonl = match &trace_dir {
        Some(dir) => Some(JsonlRecorder::create(dir)?),
        None => None,
    };
    let fanout;
    let rec: &dyn Recorder = match (&jsonl, &ring) {
        (Some(j), Some(r)) => {
            fanout = Fanout::new(j, r);
            &fanout
        }
        (Some(j), None) => j,
        (None, Some(r)) => r,
        (None, None) => &proclus_obs::NoopRecorder,
    };

    let (mut server, recovery) =
        StreamServer::new(params.clone(), config.clone(), gates, &registry_dir, rec)?;
    describe_recovery(out, &recovery)?;

    // Corrupt frames of a `.chunks` input become quarantined batches,
    // never aborts.
    let mut rollovers: Vec<String> = Vec::new();
    let mut ingest = |report: BatchReport| {
        if let Some(roll) = &report.rollover {
            rollovers.push(match &roll.outcome {
                RolloverOutcome::Promoted { generation } => format!(
                    "rebuild {} [{}]: promoted as generation {generation}",
                    roll.rebuild, roll.trigger
                ),
                RolloverOutcome::RolledBack { stage, reason } => format!(
                    "rebuild {} [{}]: rolled back at {stage} ({reason})",
                    roll.rebuild, roll.trigger
                ),
            });
        }
    };
    for path in &inputs {
        if Format::from_path(path) == Format::Chunks {
            let bytes = std::fs::read(path).map_err(|e| DataError::io(path, e))?;
            for frame in ChunkReader::new(&bytes) {
                ingest(match frame {
                    Ok(batch) => server.ingest_batch(&batch),
                    Err(_) => server.quarantine_corrupt(),
                });
            }
        } else {
            let (points, _) = read_dataset(path)?;
            let cols = points.cols();
            for start in (0..points.rows()).step_by(batch_rows) {
                let end = (start + batch_rows).min(points.rows());
                let cells = points.as_slice()[start * cols..end * cols].to_vec();
                ingest(server.ingest_batch(&Matrix::from_vec(cells, end - start, cols)));
            }
        }
    }

    // Close the trace stream *before* reporting success: a stashed
    // mid-stream write error must surface as this command's error.
    let manifest = match &jsonl {
        Some(jsonl) => Some(jsonl.finish(
            params_json(&params, &config, &metric),
            result_json(server.diagnostics(), server.live_generation()),
        )?),
        None => None,
    };

    let diag = server.diagnostics();
    writeln!(
        out,
        "stream: {} batches ({} points accepted, {} quarantined)",
        diag.batches,
        diag.accepted_points,
        diag.quarantined.len()
    )?;
    for (batch, reason) in &diag.quarantined {
        writeln!(out, "  batch {batch}: quarantined ({reason})")?;
    }
    writeln!(
        out,
        "rollover: {} drift detection(s), {} promoted, {} rolled back",
        diag.drift_detections, diag.promotions, diag.rollbacks
    )?;
    for line in &rollovers {
        writeln!(out, "  {line}")?;
    }
    match (server.live_generation(), server.live()) {
        (Some(g), Some(model)) => writeln!(
            out,
            "serving: generation {g} ({} clusters, objective {:.4})",
            model.clusters().len(),
            model.objective()
        )?,
        _ => writeln!(out, "serving: no live model")?,
    }
    writeln!(
        out,
        "registry: {} generation(s) {:?} at {}",
        server.registry().generations().len(),
        server.registry().generations(),
        registry_dir.display()
    )?;
    if let Some(ring) = &ring {
        let summary = TraceSummary::from_events(&ring.events(), ring.dropped());
        write!(out, "{}", summary.render())?;
    }
    if let Some(manifest) = manifest {
        writeln!(out, "trace written to {}", manifest.display())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proclus_data::SyntheticSpec;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("proclus-cli-stream-{name}-{}", std::process::id()))
    }

    const SWITCHES: &[&str] = &["verbose", "no-round-cache", "no-index"];

    #[test]
    fn streams_a_dataset_and_bootstraps_a_model() {
        let input = tmp("boot.csv");
        let registry = tmp("boot-reg");
        let _ = std::fs::remove_dir_all(&registry);
        let data = SyntheticSpec::new(600, 6, 2, 3.0).seed(5).generate();
        proclus_data::write_dataset(&input, &data.points, None).unwrap();
        let args = Args::parse(
            toks(&format!(
                "--input {} --registry {} --k 2 --l 3 --batch 100 --window 400 \
                 --min-fit 300 --restarts 1",
                input.display(),
                registry.display()
            )),
            SWITCHES,
        )
        .unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        std::fs::remove_file(&input).ok();
        assert!(text.contains("stream: 6 batches"), "{text}");
        assert!(text.contains("promoted as generation 1"), "{text}");
        assert!(text.contains("serving: generation 1"), "{text}");
        assert!(registry.join("gen-000001.prcm").exists());
        assert_eq!(
            std::fs::read_to_string(registry.join("CURRENT"))
                .unwrap()
                .trim(),
            "1"
        );
        std::fs::remove_dir_all(&registry).ok();
    }

    #[test]
    fn corrupt_chunk_file_is_quarantined_not_fatal() {
        let registry = tmp("corrupt-reg");
        let chunks = std::env::temp_dir().join(format!(
            "proclus-cli-stream-corrupt-{}.chunks",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&registry);
        let data = SyntheticSpec::new(300, 5, 2, 2.0).seed(6).generate();
        let mut bytes = proclus_data::encode_chunk_stream(&data.points, 100).unwrap();
        // Flip a payload byte in the middle frame: that frame (and only
        // that frame) must quarantine.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&chunks, &bytes).unwrap();
        let args = Args::parse(
            toks(&format!(
                "--input {} --registry {} --k 2 --l 2 --batch 100 --window 400 \
                 --min-fit 400 --restarts 1",
                chunks.display(),
                registry.display()
            )),
            SWITCHES,
        )
        .unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        std::fs::remove_file(&chunks).ok();
        std::fs::remove_dir_all(&registry).ok();
        assert!(text.contains("1 quarantined"), "{text}");
        assert!(text.contains("(corrupt_chunk)"), "{text}");
    }

    #[test]
    fn invalid_stream_config_errors() {
        let input = tmp("badcfg.csv");
        let registry = tmp("badcfg-reg");
        let data = SyntheticSpec::new(100, 4, 2, 2.0).seed(1).generate();
        proclus_data::write_dataset(&input, &data.points, None).unwrap();
        let args = Args::parse(
            toks(&format!(
                "--input {} --registry {} --k 2 --l 2 --patience 0",
                input.display(),
                registry.display()
            )),
            SWITCHES,
        )
        .unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        std::fs::remove_file(&input).ok();
        std::fs::remove_dir_all(&registry).ok();
        assert!(err.to_string().contains("patience"), "{err}");
    }

    #[test]
    fn trace_out_records_stream_events() {
        let input = tmp("trace.csv");
        let registry = tmp("trace-reg");
        let trace = tmp("trace-dir");
        let _ = std::fs::remove_dir_all(&registry);
        let _ = std::fs::remove_dir_all(&trace);
        let data = SyntheticSpec::new(500, 5, 2, 2.0).seed(7).generate();
        proclus_data::write_dataset(&input, &data.points, None).unwrap();
        let args = Args::parse(
            toks(&format!(
                "--input {} --registry {} --k 2 --l 2 --batch 100 --window 400 \
                 --min-fit 300 --restarts 1 --trace-out {}",
                input.display(),
                registry.display(),
                trace.display()
            )),
            SWITCHES,
        )
        .unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let events = std::fs::read_to_string(trace.join(proclus_obs::EVENTS_FILE)).unwrap();
        assert!(events.contains("\"type\":\"stream_batch\""), "{events}");
        assert!(
            events.contains("\"type\":\"rollover_transition\""),
            "{events}"
        );
        assert!(events.contains("\"type\":\"model_published\""), "{events}");
        let manifest = std::fs::read_to_string(trace.join(proclus_obs::MANIFEST_FILE)).unwrap();
        assert!(
            manifest.contains("\"algorithm\":\"proclus-stream\""),
            "{manifest}"
        );
        std::fs::remove_file(&input).ok();
        std::fs::remove_dir_all(&registry).ok();
        std::fs::remove_dir_all(&trace).ok();
    }
}
