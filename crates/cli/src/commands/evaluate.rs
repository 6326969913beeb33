//! `proclus evaluate` — compare a found clustering against ground
//! truth (two labeled dataset files), reproducing the paper's
//! confusion-matrix methodology plus ARI/NMI.

use crate::args::{ArgError, Args};
use crate::io::validate_label_ids;
use proclus_data::{read_dataset, Label};
use proclus_eval::{adjusted_rand_index, normalized_mutual_information, ConfusionMatrix};
use std::error::Error;
use std::io::Write;
use std::path::PathBuf;

pub const HELP: &str = "\
proclus evaluate — confusion matrix / ARI / NMI of two labeled files

  --found <path>   clustering output with a label column (required)
  --truth <path>   ground truth with a label column (required)
";

fn to_options(labels: &[Label]) -> (Vec<Option<usize>>, usize) {
    let opts: Vec<Option<usize>> = labels.iter().map(|l| l.cluster()).collect();
    let k = opts.iter().flatten().max().map_or(0, |m| m + 1);
    (opts, k)
}

/// Run the command; prints the confusion matrix and summary indices.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let found_path = PathBuf::from(args.require("found")?);
    let truth_path = PathBuf::from(args.require("truth")?);
    args.reject_unknown()?;

    let (_, found) = read_dataset(&found_path)?;
    let (_, truth) = read_dataset(&truth_path)?;
    let found =
        found.ok_or_else(|| ArgError(format!("{} has no label column", found_path.display())))?;
    let truth =
        truth.ok_or_else(|| ArgError(format!("{} has no label column", truth_path.display())))?;
    if found.len() != truth.len() {
        return Err(Box::new(ArgError(format!(
            "label counts differ: {} vs {}",
            found.len(),
            truth.len()
        ))));
    }
    // Bound label ids by the row count before they size any table.
    validate_label_ids(&found_path, &found)?;
    validate_label_ids(&truth_path, &truth)?;

    let (found, k_out) = to_options(&found);
    let (truth, k_in) = to_options(&truth);
    let cm = ConfusionMatrix::build(&found, k_out, &truth, k_in)?;
    write!(out, "{cm}")?;
    writeln!(
        out,
        "matched accuracy = {:.4}   purity = {:.4}   ARI = {:.4}   NMI = {:.4}",
        cm.matched_accuracy(),
        cm.purity(),
        adjusted_rand_index(&found, &truth)?,
        normalized_mutual_information(&found, &truth)?,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proclus_data::SyntheticSpec;
    use proclus_math::Matrix;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("proclus-cli-eval-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn evaluates_two_labeled_files() {
        let truth_file = tmp("t.csv");
        let found_file = tmp("f.csv");
        let data = SyntheticSpec::new(200, 4, 2, 2.0).seed(8).generate();
        proclus_data::write_dataset(truth_file.as_ref(), &data.points, Some(&data.labels)).unwrap();
        // "Found" = the truth itself: perfect scores expected.
        proclus_data::write_dataset(found_file.as_ref(), &data.points, Some(&data.labels)).unwrap();
        let args = Args::parse(
            toks(&format!("--found {found_file} --truth {truth_file}")),
            &[],
        )
        .unwrap();
        run(&args, &mut Vec::new()).unwrap();
        std::fs::remove_file(&truth_file).ok();
        std::fs::remove_file(&found_file).ok();
    }

    #[test]
    fn missing_label_column_errors() {
        let f = tmp("nolab.csv");
        let m = Matrix::from_rows(&[[0.0], [1.0]], 1);
        proclus_data::write_dataset(f.as_ref(), &m, None).unwrap();
        let args = Args::parse(toks(&format!("--found {f} --truth {f}")), &[]).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
        std::fs::remove_file(&f).ok();
    }

    #[test]
    fn length_mismatch_errors() {
        let a = tmp("a.csv");
        let b = tmp("b.csv");
        let d1 = SyntheticSpec::new(100, 4, 2, 2.0).seed(1).generate();
        let d2 = SyntheticSpec::new(50, 4, 2, 2.0).seed(1).generate();
        proclus_data::write_dataset(a.as_ref(), &d1.points, Some(&d1.labels)).unwrap();
        proclus_data::write_dataset(b.as_ref(), &d2.points, Some(&d2.labels)).unwrap();
        let args = Args::parse(toks(&format!("--found {a} --truth {b}")), &[]).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }
}
