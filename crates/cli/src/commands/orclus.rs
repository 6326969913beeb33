//! `proclus orclus` — generalized (oriented) projected clustering.

use crate::args::Args;
use proclus_data::Label;
use proclus_data::{read_dataset, write_dataset};
use proclus_orclus::Orclus;
use std::error::Error;
use std::io::Write;
use std::path::PathBuf;

pub const HELP: &str = "\
proclus orclus — generalized projected clustering (ORCLUS, SIGMOD 2000)

  --input <path>   dataset file; format by extension as for fit (required)
  --k <usize>      number of clusters (required)
  --l <usize>      subspace dimensionality per cluster (required)
  --seed <u64>     PRNG seed [default 0]
  --k0 <usize>     initial seed count [default 5k]
  --alpha <f64>    cluster-count decay per phase [default 0.5]
  --out <path>     write points + assignment labels to this file (not
                   .chunks, which holds no labels)
";

/// Run the command; prints per-cluster energies and bases.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let input = PathBuf::from(args.require("input")?);
    let k: usize = args.require_parsed("k")?;
    let l: usize = args.require_parsed("l")?;
    let mut params = Orclus::new(k, l)
        .seed(args.get_parsed("seed", 0u64)?)
        .alpha(args.get_parsed("alpha", 0.5)?);
    if let Some(v) = args.get("k0") {
        params = params.initial_seeds(v.parse()?);
    }
    let out_path = args.get("out").map(PathBuf::from);
    args.reject_unknown()?;

    let (points, _) = read_dataset(&input)?;
    let model = params.fit(&points)?;
    writeln!(
        out,
        "ORCLUS: {} clusters, objective {:.4}",
        model.clusters.len(),
        model.objective
    )?;
    for (i, c) in model.clusters.iter().enumerate() {
        writeln!(
            out,
            "  cluster {i}: {} points, projected energy {:.4}",
            c.len(),
            c.projected_energy
        )?;
        for r in 0..c.basis.rows() {
            let coeffs: Vec<String> = c.basis.row(r).iter().map(|v| format!("{v:+.3}")).collect();
            writeln!(out, "      tight direction {r}: [{}]", coeffs.join(", "))?;
        }
    }
    if let Some(path) = out_path {
        let labels: Vec<Label> = model
            .assignment
            .iter()
            .map(|&a| Label::Cluster(a))
            .collect();
        write_dataset(&path, &points, Some(&labels))?;
        writeln!(out, "assignment written to {}", path.display())?;
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
            .join(format!("proclus-cli-orc-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn runs_and_writes_assignment() {
        let input = tmp("in.prcl");
        let out = tmp("out.csv");
        let data = SyntheticSpec::new(300, 5, 2, 2.0)
            .fixed_dims(vec![2, 2])
            .seed(6)
            .generate();
        proclus_data::write_dataset(input.as_ref(), &data.points, None).unwrap();
        let args = Args::parse(
            toks(&format!(
                "--input {input} --k 2 --l 2 --seed 1 --k0 6 --out {out}"
            )),
            &[],
        )
        .unwrap();
        run(&args, &mut Vec::new()).unwrap();
        let (_, labels) = proclus_data::read_dataset(out.as_ref()).unwrap();
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&out).ok();
        assert_eq!(labels.unwrap().len(), 300);
    }

    #[test]
    fn invalid_l_errors() {
        let input = tmp("bad.csv");
        let data = SyntheticSpec::new(100, 4, 2, 2.0).seed(1).generate();
        proclus_data::write_dataset(input.as_ref(), &data.points, None).unwrap();
        let args = Args::parse(toks(&format!("--input {input} --k 2 --l 99")), &[]).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
        std::fs::remove_file(&input).ok();
    }
}
