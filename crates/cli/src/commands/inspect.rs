//! `proclus inspect` — summarize a dataset file: shape, per-dimension
//! statistics, label histogram.

use crate::args::Args;
use crate::io::validate_label_ids;
use proclus_data::{read_dataset, Label};
use proclus_math::stats::Welford;
use std::error::Error;
use std::io::Write;
use std::path::PathBuf;

pub const HELP: &str = "\
proclus inspect — summarize a dataset file

  --input <path>   dataset file; format by extension, any case (.csv text,
                   .chunks PRCK frames, else PRCL binary) (required)
  --dims <usize>   print at most this many per-dimension rows [default 25]
";

/// Run the command.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let input = PathBuf::from(args.require("input")?);
    let max_dims: usize = args.get_parsed("dims", 25usize)?;
    args.reject_unknown()?;

    let (points, labels) = read_dataset(&input)?;
    writeln!(
        out,
        "{}: {} points x {} dimensions, labels: {}",
        input.display(),
        points.rows(),
        points.cols(),
        if labels.is_some() { "yes" } else { "no" }
    )?;

    // Per-dimension stats in one pass.
    let d = points.cols();
    let mut acc = vec![Welford::new(); d];
    let mut lo = vec![f64::INFINITY; d];
    let mut hi = vec![f64::NEG_INFINITY; d];
    for row in points.iter_rows() {
        for (j, &v) in row.iter().enumerate() {
            acc[j].push(v);
            if v < lo[j] {
                lo[j] = v;
            }
            if v > hi[j] {
                hi[j] = v;
            }
        }
    }
    writeln!(
        out,
        "{:>5} {:>12} {:>12} {:>12} {:>12}",
        "dim", "min", "max", "mean", "std"
    )?;
    for j in 0..d.min(max_dims) {
        writeln!(
            out,
            "{j:>5} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            lo[j],
            hi[j],
            acc[j].mean(),
            acc[j].sample_std()
        )?;
    }
    if d > max_dims {
        writeln!(out, "  ... and {} more dimensions", d - max_dims)?;
    }

    if let Some(labels) = labels {
        // A hostile label id must not size the histogram allocation.
        validate_label_ids(&input, &labels)?;
        let k = labels
            .iter()
            .filter_map(|l| l.cluster())
            .max()
            .map_or(0, |m| m + 1);
        let mut counts = vec![0usize; k];
        let mut outliers = 0usize;
        for l in &labels {
            match l {
                Label::Cluster(i) => counts[*i] += 1,
                Label::Outlier => outliers += 1,
            }
        }
        writeln!(out, "label histogram:")?;
        for (i, c) in counts.iter().enumerate() {
            writeln!(out, "  cluster {i}: {c}")?;
        }
        writeln!(out, "  outliers: {outliers}")?;
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
            .join(format!("proclus-cli-insp-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn summarizes_labeled_file() {
        let f = tmp("a.csv");
        let data = SyntheticSpec::new(300, 5, 2, 2.0).seed(1).generate();
        proclus_data::write_dataset(f.as_ref(), &data.points, Some(&data.labels)).unwrap();
        let args = Args::parse(toks(&format!("--input {f}")), &[]).unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        std::fs::remove_file(&f).ok();
        assert!(text.contains("300 points x 5 dimensions"));
        assert!(text.contains("label histogram"));
        assert!(text.contains("outliers: 15")); // 5% of 300
    }

    #[test]
    fn dims_cap_truncates_output() {
        let f = tmp("b.csv");
        let data = SyntheticSpec::new(100, 8, 2, 2.0).seed(1).generate();
        proclus_data::write_dataset(f.as_ref(), &data.points, None).unwrap();
        let args = Args::parse(toks(&format!("--input {f} --dims 3")), &[]).unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        std::fs::remove_file(&f).ok();
        assert!(text.contains("and 5 more dimensions"));
    }
}
