//! Dataset checks and label conversions shared by the CLI commands.

use proclus_data::Label;
use std::path::Path;

/// A dataset whose bytes parsed but whose *content* is semantically
/// unusable — e.g. a cluster label id far beyond the row count, which
/// would otherwise drive unbounded histogram allocations.
#[derive(Debug)]
pub struct MalformedDataset(pub String);

impl std::fmt::Display for MalformedDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed dataset: {}", self.0)
    }
}

impl std::error::Error for MalformedDataset {}

/// Reject label columns whose cluster ids are not `< rows`: any honest
/// labeling uses ids bounded by the number of points, and an id like
/// `10^18` in a hostile file must not size an allocation.
pub fn validate_label_ids(path: &Path, labels: &[Label]) -> Result<(), MalformedDataset> {
    let rows = labels.len();
    if let Some(bad) = labels
        .iter()
        .filter_map(|l| l.cluster())
        .find(|&id| id >= rows)
    {
        return Err(MalformedDataset(format!(
            "{}: cluster label id {bad} is out of range for {rows} rows",
            path.display()
        )));
    }
    Ok(())
}

/// Convert a clustering assignment (`None` = outlier) into labels.
pub fn assignment_labels(assignment: &[Option<usize>]) -> Vec<Label> {
    assignment
        .iter()
        .map(|a| match a {
            Some(i) => Label::Cluster(*i),
            None => Label::Outlier,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_id_validation() {
        let p = Path::new("x.csv");
        let ok = vec![Label::Cluster(1), Label::Outlier, Label::Cluster(0)];
        assert!(validate_label_ids(p, &ok).is_ok());
        let bad = vec![Label::Cluster(3), Label::Outlier];
        let err = validate_label_ids(p, &bad).unwrap_err();
        assert!(err.to_string().contains("label id 3"));
    }

    #[test]
    fn assignment_labels_map() {
        let labels = assignment_labels(&[Some(2), None, Some(0)]);
        assert_eq!(
            labels,
            vec![Label::Cluster(2), Label::Outlier, Label::Cluster(0)]
        );
    }
}
