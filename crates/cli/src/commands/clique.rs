//! `proclus clique` — run the CLIQUE baseline on a dataset file.

use crate::args::Args;
use proclus_clique::{minimal_descriptions, Clique};
use proclus_data::read_dataset;
use std::error::Error;
use std::io::Write;
use std::path::PathBuf;

pub const HELP: &str = "\
proclus clique — CLIQUE grid/density subspace clustering (SIGMOD 1998)

  --input <path>      dataset file (.csv or binary) (required)
  --xi <u16>          intervals per dimension [default 10]
  --tau <f64>         density threshold, fraction of N [default 0.005]
  --max-dim <usize>   cap on mined subspace dimensionality
  --target-dim <usize> report only clusters of exactly this dimensionality
  --mdl               enable MDL subspace pruning
  --descriptions      print minimal rectangle descriptions per cluster
  --top <usize>       print at most this many clusters [default 20]
";

/// Run the command; prints cluster list, coverage, overlap.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let input = PathBuf::from(args.require("input")?);
    let mut clique = Clique::new(
        args.get_parsed("xi", 10u16)?,
        args.get_parsed("tau", 0.005f64)?,
    );
    if let Some(v) = args.get("max-dim") {
        clique = clique.max_subspace_dim(Some(v.parse()?));
    }
    if let Some(v) = args.get("target-dim") {
        clique = clique.target_subspace_dim(Some(v.parse()?));
    }
    clique = clique.mdl_pruning(args.switch("mdl"));
    let descriptions = args.switch("descriptions");
    let top: usize = args.get_parsed("top", 20usize)?;
    args.reject_unknown()?;

    let (points, _) = read_dataset(&input)?;
    let model = clique.fit(&points)?;
    writeln!(
        out,
        "CLIQUE: {} clusters, coverage {:.1}%, average overlap {:.2}",
        model.clusters().len(),
        100.0 * model.coverage(),
        model.overlap()
    )?;
    for (i, c) in model.clusters().iter().take(top).enumerate() {
        writeln!(
            out,
            "  cluster {i}: dims {:?}, {} units, {} points",
            c.dims,
            c.units.len(),
            c.members.len()
        )?;
        if descriptions {
            for r in minimal_descriptions(&c.units) {
                let ranges: Vec<String> =
                    r.lo.iter()
                        .zip(&r.hi)
                        .zip(&r.dims)
                        .map(|((lo, hi), d)| format!("d{d}:[{lo}..={hi}]"))
                        .collect();
                writeln!(out, "      region {}", ranges.join(" x "))?;
            }
        }
    }
    if model.clusters().len() > top {
        writeln!(out, "  ... and {} more", model.clusters().len() - top)?;
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

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("proclus-cli-clq-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn runs_on_generated_data() {
        let input = tmp("in.csv");
        let data = SyntheticSpec::new(500, 5, 2, 2.0).seed(4).generate();
        proclus_data::write_dataset(input.as_ref(), &data.points, None).unwrap();
        let args = Args::parse(
            toks(&format!(
                "--input {input} --xi 8 --tau 0.02 --max-dim 3 --descriptions"
            )),
            &["descriptions"],
        )
        .unwrap();
        run(&args, &mut Vec::new()).unwrap();
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn bad_tau_errors() {
        let input = tmp("bad.csv");
        let data = SyntheticSpec::new(100, 4, 2, 2.0).seed(4).generate();
        proclus_data::write_dataset(input.as_ref(), &data.points, None).unwrap();
        let args = Args::parse(
            toks(&format!("--input {input} --tau abc")),
            &["descriptions"],
        )
        .unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
        // A parseable but out-of-range tau is a typed fit error.
        let args = Args::parse(
            toks(&format!("--input {input} --tau 0.0")),
            &["descriptions"],
        )
        .unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
        std::fs::remove_file(&input).ok();
    }
}
