//! `proclus scenario` — generate a declarative workload scenario from
//! a canonical `.scn` spec file (mixed distributions, rotated
//! subspaces, size laws, typed columns, drift epochs), streaming rows
//! straight to disk.

use crate::args::Args;
use proclus_data::chunks::BATCH_ROWS;
use proclus_data::scenario::ScenarioSpec;
use proclus_data::{DataError, Format};
use proclus_obs::json::Json;
use proclus_obs::{Event, JsonlRecorder, Recorder};
use std::error::Error;
use std::io::Write;
use std::path::PathBuf;

pub const HELP: &str = "\
proclus scenario — generate a workload scenario from a .scn spec file

  --spec <file.scn>   canonical scenario spec (required)
  --out <path>        output file; format by extension, any case
                      (.csv = labeled text, .chunks = PRCK frames,
                      anything else = labeled PRCL binary)
  --batch-rows <n>    rows per PRCK frame for .chunks output [default 256]
  --trace-out <dir>   write a scenario_meta trace (events.jsonl + run.json)
  --print-canonical   print the parsed spec in canonical form

Without --out the scenario is generated and summarized (digest, truth)
but not written — a dry run that still validates determinism.
";

/// Run the command; prints a deterministic summary on success.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let spec_path = PathBuf::from(args.require("spec")?);
    let out_path = args.get("out").map(PathBuf::from);
    let batch_rows: usize = args.get_parsed("batch-rows", BATCH_ROWS)?;
    let trace_dir = args.get("trace-out").map(PathBuf::from);
    let print_canonical = args.switch("print-canonical");
    args.reject_unknown()?;

    let text = std::fs::read_to_string(&spec_path).map_err(|e| DataError::io(&spec_path, e))?;
    let spec = ScenarioSpec::parse(&text)
        .map_err(|e| DataError::InvalidSpec(format!("{}: {e}", spec_path.display())))?;

    if print_canonical {
        write!(out, "{}", spec.to_canonical())?;
    }

    let jsonl = match &trace_dir {
        Some(dir) => Some(JsonlRecorder::create(dir)?),
        None => None,
    };
    if let Some(rec) = &jsonl {
        rec.event(&Event::ScenarioMeta {
            name: spec.name.clone(),
            seed: spec.base.seed,
            epochs: spec.epochs(),
        });
    }

    let digest = spec.digest()?;
    let truth = match out_path.as_deref().map(|p| (p, Format::from_path(p))) {
        Some((path, Format::Csv)) => spec.write_csv(path)?,
        Some((path, Format::Prcl)) => spec.write_prcl(path)?,
        Some((path, Format::Chunks)) => spec.write_chunks(path, batch_rows)?,
        // Dry run: generate (and digest) without writing anything.
        None => spec.for_each_row(|_, _, _| {})?,
    };

    if let Some(rec) = &jsonl {
        rec.finish(
            Json::Obj(vec![
                ("scenario".into(), Json::Str(spec.name.clone())),
                ("seed".into(), Json::Num(spec.base.seed as f64)),
                ("epochs".into(), Json::Num(spec.epochs() as f64)),
            ]),
            Json::Obj(vec![
                ("rows".into(), Json::Num(spec.rows() as f64)),
                ("cols".into(), Json::Num(spec.cols() as f64)),
                ("digest".into(), Json::Str(format!("{digest:016x}"))),
            ]),
        )?;
    }

    writeln!(
        out,
        "scenario {}: {} rows x {} cols over {} epoch(s), digest {digest:016x}",
        spec.name,
        spec.rows(),
        spec.cols(),
        spec.epochs()
    )?;
    for (e, epoch) in truth.epochs.iter().enumerate() {
        let sizes: Vec<String> = epoch.clusters.iter().map(|c| c.size.to_string()).collect();
        writeln!(
            out,
            "  epoch {e}: cluster sizes [{}], {} outliers",
            sizes.join(","),
            epoch.outliers
        )?;
    }
    if let Some(path) = &out_path {
        writeln!(out, "wrote {}", path.display())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        // Keep the extension last: the command infers format from it.
        std::env::temp_dir().join(format!("proclus-cli-scn-{}-{name}", std::process::id()))
    }

    fn write_spec(name: &str, body: &str) -> PathBuf {
        let path = tmp(name);
        std::fs::write(&path, body).unwrap();
        path
    }

    const SPEC: &str = "\
scenario cli-smoke
rows 300
dims 6
clusters 2
seed 11
";

    #[test]
    fn dry_run_prints_digest_and_truth() {
        let spec = write_spec("dry.scn", SPEC);
        let args = Args::parse(
            toks(&format!("--spec {}", spec.display())),
            &["print-canonical"],
        )
        .unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        std::fs::remove_file(&spec).ok();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("scenario cli-smoke: 300 rows x 6 cols"),
            "{text}"
        );
        assert!(text.contains("digest "), "{text}");
        assert!(text.contains("epoch 0: cluster sizes ["), "{text}");
        assert!(!text.contains("wrote "), "{text}");
    }

    #[test]
    fn writes_each_format_and_csv_round_trips() {
        let spec = write_spec("fmt.scn", SPEC);
        for (ext, expect_rows) in [("csv", 300usize), ("prcl", 300), ("chunks", 300)] {
            let out = tmp(&format!("fmt-out.{ext}"));
            let args = Args::parse(
                toks(&format!(
                    "--spec {} --out {} --batch-rows 64",
                    spec.display(),
                    out.display()
                )),
                &["print-canonical"],
            )
            .unwrap();
            run(&args, &mut Vec::new()).unwrap();
            let (m, labels) = proclus_data::read_dataset(&out).unwrap();
            assert_eq!(m.rows(), expect_rows);
            assert_eq!(labels.is_some(), ext != "chunks", "{ext} labels");
            std::fs::remove_file(&out).ok();
        }
        std::fs::remove_file(&spec).ok();
    }

    #[test]
    fn print_canonical_echoes_the_normalized_spec() {
        let spec = write_spec(
            "canon.scn",
            "scenario canon # comment\nrows 100\ndims 4\nclusters 2\n",
        );
        let args = Args::parse(
            toks(&format!("--spec {} --print-canonical", spec.display())),
            &["print-canonical"],
        )
        .unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        std::fs::remove_file(&spec).ok();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("scenario canon\nrows 100\n"), "{text}");
        assert!(text.contains("distribution gaussian\n"), "{text}");
    }

    #[test]
    fn trace_out_writes_scenario_meta() {
        let spec = write_spec("trace.scn", SPEC);
        let dir = tmp("trace-dir");
        let args = Args::parse(
            toks(&format!(
                "--spec {} --trace-out {}",
                spec.display(),
                dir.display()
            )),
            &["print-canonical"],
        )
        .unwrap();
        run(&args, &mut Vec::new()).unwrap();
        std::fs::remove_file(&spec).ok();
        let events = std::fs::read_to_string(dir.join(proclus_obs::EVENTS_FILE)).unwrap();
        let manifest = std::fs::read_to_string(dir.join(proclus_obs::MANIFEST_FILE)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            events.contains(
                "\"type\":\"scenario_meta\",\"name\":\"cli-smoke\",\"seed\":11,\"epochs\":1"
            ),
            "{events}"
        );
        assert!(manifest.contains("\"digest\""), "{manifest}");
    }

    #[test]
    fn bad_spec_file_is_a_located_error() {
        let spec = write_spec("bad.scn", "scenario bad\nrows ten\n");
        let args = Args::parse(toks(&format!("--spec {}", spec.display())), &[]).unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        std::fs::remove_file(&spec).ok();
        assert!(err.to_string().contains("line 2"), "{err}");
        // Missing file maps to a located I/O error.
        let args = Args::parse(toks("--spec /nonexistent/x.scn"), &[]).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
    }

    #[test]
    fn unknown_flags_error() {
        let spec = write_spec("flags.scn", SPEC);
        let args = Args::parse(toks(&format!("--spec {} --bogus 1", spec.display())), &[]).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
        std::fs::remove_file(&spec).ok();
    }
}
