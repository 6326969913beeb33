//! `perfbench` — run one workload of the end-to-end benchmark, or
//! compare two result sets.
//!
//! ```text
//! perfbench --proclus <bin> --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//!           [--results <dir>] [--benchmark BENCHMARK.json]
//! perfbench compare <parent-results-dir> <change-results-dir> [--benchmark BENCHMARK.json]
//! perfbench measure <record-file> <program> [args...]
//! ```
//!
//! `measure` is the launcher the benchmark starts the program through
//! (see `child.rs`).
//!
//! A later flag overrides an earlier one, so `BENCHMARK.json` can carry
//! the default seed in its command. Scratch files go to `.bench_work/`
//! under the working directory; the last stdout line is the JSON result,
//! whose metrics must be exactly those `BENCHMARK.json` lists for the
//! mode (`end_to_end` untraced, `per_layer` traced), or no result is
//! printed.

use proclus_perfbench::report::provenance;
use proclus_perfbench::trace::SpanLog;
use proclus_perfbench::{compare, fitbench, servebench, Ctx, WORKLOADS};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORK_ROOT: &str = ".bench_work";

fn parse_flags(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = it.next().ok_or(format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        } else {
            positional.push(a.clone());
        }
    }
    Ok((flags, positional))
}

fn parsed<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse {v:?}")),
    }
}

fn run_compare(flags: &HashMap<String, String>, dirs: &[String]) -> Result<(), String> {
    let [parent, change] = dirs else {
        return Err("usage: perfbench compare <parent-results-dir> <change-results-dir>".into());
    };
    let benchmark = flags
        .get("benchmark")
        .map_or("BENCHMARK.json", String::as_str);
    let specs = compare::read_specs(Path::new(benchmark))?;
    let parent = compare::read_results(Path::new(parent))?;
    let change = compare::read_results(Path::new(change))?;
    print!("{}", compare::report(&parent, &change, &specs));
    Ok(())
}

fn run_workload(flags: &HashMap<String, String>) -> Result<bool, String> {
    let workload = flags
        .get("workload")
        .ok_or("--workload is required")?
        .clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seed: u64 = parsed(flags, "seed", 1)?;
    let seconds: f64 = parsed(flags, "seconds", 10.0)?;
    let trace = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let proclus = PathBuf::from(flags.get("proclus").ok_or("--proclus is required")?);
    if !proclus.is_file() {
        return Err(format!("{}: no such program", proclus.display()));
    }
    let root = PathBuf::from(WORK_ROOT);
    let results = flags
        .get("results")
        .map_or_else(|| root.join("results"), PathBuf::from);
    let work = root.join(&workload);
    for dir in [&work, &results, &root.join("spans")] {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let launcher = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let ctx = Ctx {
        proclus,
        launcher,
        work,
        seed,
        seconds,
    };

    let run_id = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
    let log = SpanLog::new(run_id.clone());
    let outcome = match (workload.as_str(), trace) {
        ("fit-p20", false) => fitbench::run(&ctx, &fitbench::FIT_P20),
        ("fit-s100", false) => fitbench::run(&ctx, &fitbench::FIT_S100),
        ("fit-p20", true) => fitbench::run_traced(&ctx, &fitbench::FIT_P20, &log),
        ("fit-s100", true) => fitbench::run_traced(&ctx, &fitbench::FIT_S100, &log),
        (_, false) => servebench::run(&ctx, &log),
        (_, true) => servebench::run_traced(&ctx, &log),
    }?;
    if trace {
        let path = root.join("spans").join(format!("{run_id}.jsonl"));
        log.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // The result line carries exactly the metrics the manifest lists for
    // this mode, on every workload.
    let benchmark = flags
        .get("benchmark")
        .map_or("BENCHMARK.json", String::as_str);
    let list = if trace { "per_layer" } else { "end_to_end" };
    let expected = compare::read_metric_units(Path::new(benchmark), list)?;
    let wrong = outcome.mismatches(&expected);
    if !wrong.is_empty() {
        print!("{}", outcome.table(&run_id));
        return Err(format!(
            "the metrics do not match the {list} list of {benchmark}: {}",
            wrong.join("; ")
        ));
    }

    let file = results.join(format!("{run_id}.json"));
    let record = outcome.result_file(&workload, seed, trace, provenance(seed, Path::new(".")));
    std::fs::write(&file, record).map_err(|e| format!("{}: {e}", file.display()))?;
    print!("{}", outcome.table(&run_id));
    for (name, digest) in &outcome.inputs {
        println!("input {name} fnv1a64 {digest:016x}");
    }
    println!("result file {}", file.display());
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(("measure", rest)) = args.split_first().map(|(a, r)| (a.as_str(), r)) {
        let [record, program, args @ ..] = rest else {
            eprintln!("usage: perfbench measure <record-file> <program> [args...]");
            return ExitCode::from(2);
        };
        return match proclus_perfbench::child::launch(Path::new(record), program, args) {
            Ok(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
            Err(e) => {
                eprintln!("perfbench measure: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (flags, positional) = match parse_flags(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match positional.split_first() {
        Some((cmd, rest)) if cmd == "compare" => run_compare(&flags, rest).map(|()| true),
        Some((other, _)) => Err(format!("unexpected argument {other:?}")),
        None => run_workload(&flags),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: correctness check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
