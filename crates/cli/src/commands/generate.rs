//! `proclus generate` — synthesize a projected-cluster dataset
//! (the paper's §4.1 generator).

use crate::args::{ArgError, Args};
use proclus_data::{write_dataset, Format, SyntheticSpec};
use std::error::Error;
use std::io::Write;
use std::path::PathBuf;

pub const HELP: &str = "\
proclus generate — synthesize a projected-cluster dataset (SIGMOD 1999, 4.1)

  --n <usize>            number of points (required)
  --dims <usize>         dimensionality of the space (required)
  --clusters <usize>     number of clusters k (required)
  --avg-cluster-dims <f> Poisson mean for per-cluster dimensionality
  --fixed-dims <list>    exact per-cluster dims, e.g. 7,3,2,6,2
                         (overrides --avg-cluster-dims)
  --outliers <f>         outlier fraction [default 0.05]
  --min-size-ratio <f>   cluster size floor vs even share [default 0.5]
  --seed <u64>           PRNG seed [default 0]
  --out <path>           output file; format by extension, any case (.csv
                         text, .chunks PRCK frames without labels, else
                         PRCL binary) (required)
  --no-labels            omit the ground-truth label column
";

/// Run the command; prints a one-line summary on success.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let n: usize = args.require_parsed("n")?;
    let d: usize = args.require_parsed("dims")?;
    let k: usize = args.require_parsed("clusters")?;
    let out_path: PathBuf = PathBuf::from(args.require("out")?);
    let avg: f64 = args.get_parsed("avg-cluster-dims", 3.0)?;
    let mut spec = SyntheticSpec::new(n, d, k, avg)
        .seed(args.get_parsed("seed", 0u64)?)
        .outlier_fraction(args.get_parsed("outliers", 0.05)?)
        .min_size_ratio(args.get_parsed("min-size-ratio", 0.5)?);
    if let Some(list) = args.get("fixed-dims") {
        let dims: Result<Vec<usize>, _> = list.split(',').map(str::parse).collect();
        spec = spec.fixed_dims(
            dims.map_err(|_| ArgError(format!("--fixed-dims: cannot parse {list:?}")))?,
        );
    }
    let no_labels = args.switch("no-labels");
    args.reject_unknown()?;
    spec.validate().map_err(ArgError)?;

    let data = spec.try_generate()?;
    // A `.chunks` file holds no labels.
    let unlabeled = no_labels || Format::from_path(&out_path) == Format::Chunks;
    let labels = (!unlabeled).then_some(data.labels.as_slice());
    write_dataset(&out_path, &data.points, labels)?;
    writeln!(
        out,
        "wrote {} points x {} dims ({} clusters, {} outliers) to {}",
        data.len(),
        d,
        k,
        data.outlier_count(),
        out_path.display()
    )?;
    for (i, c) in data.clusters.iter().enumerate() {
        writeln!(out, "  cluster {i}: {} points, dims {:?}", c.size, c.dims)?;
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

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("proclus-cli-gen-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn generates_labeled_csv() {
        let out = tmp("a.csv");
        let args = Args::parse(
            toks(&format!(
                "--n 200 --dims 6 --clusters 2 --seed 3 --out {out}"
            )),
            &["no-labels"],
        )
        .unwrap();
        run(&args, &mut Vec::new()).unwrap();
        let (m, labels) = proclus_data::read_dataset(out.as_ref()).unwrap();
        std::fs::remove_file(&out).ok();
        assert_eq!(m.rows(), 200);
        assert_eq!(m.cols(), 6);
        assert!(labels.is_some());
    }

    #[test]
    fn no_labels_switch_omits_labels() {
        let out = tmp("b.csv");
        let args = Args::parse(
            toks(&format!(
                "--n 100 --dims 4 --clusters 2 --out {out} --no-labels"
            )),
            &["no-labels"],
        )
        .unwrap();
        run(&args, &mut Vec::new()).unwrap();
        let (_, labels) = proclus_data::read_dataset(out.as_ref()).unwrap();
        std::fs::remove_file(&out).ok();
        assert!(labels.is_none());
    }

    #[test]
    fn fixed_dims_parse_and_validate() {
        let out = tmp("c.prcl");
        let args = Args::parse(
            toks(&format!(
                "--n 300 --dims 8 --clusters 3 --fixed-dims 4,2,3 --out {out}"
            )),
            &["no-labels"],
        )
        .unwrap();
        run(&args, &mut Vec::new()).unwrap();
        std::fs::remove_file(&out).ok();
        // Bad list.
        let args = Args::parse(
            toks(&format!(
                "--n 300 --dims 8 --clusters 3 --fixed-dims x,y --out {out}"
            )),
            &["no-labels"],
        )
        .unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
    }

    #[test]
    fn missing_required_option_errors() {
        let args = Args::parse(toks("--n 100 --dims 4"), &[]).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
    }

    #[test]
    fn unknown_option_errors() {
        let out = tmp("d.csv");
        let args = Args::parse(
            toks(&format!(
                "--n 100 --dims 4 --clusters 2 --out {out} --bogus 1"
            )),
            &["no-labels"],
        )
        .unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
        std::fs::remove_file(&out).ok();
    }
}
