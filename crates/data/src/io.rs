//! Plain-text (CSV) dataset serialization.
//!
//! Format: one point per line, comma-separated coordinates; when labels
//! are written, the last column is the label (`A`, `B`, … for clusters —
//! matching the paper's tables — or `Out.` for outliers). A single
//! header line `x0,x1,…[,label]` is always written.

use crate::binio::write_staged;
use crate::error::DataError;
use crate::label::Label;
use proclus_math::Matrix;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

/// Write `points` (and optionally aligned `labels`) as CSV.
///
/// Crash-safe and constant-memory: rows are streamed one at a time
/// through a [`BufWriter`] into `<path>.tmp`, fsynced, and renamed over
/// `path` (the same temp-file + rename contract as
/// [`write_atomic`](crate::binio::write_atomic)), so a crash can never
/// leave a half-written dataset under the final name and the full text
/// is never materialized in RAM.
///
/// # Errors
///
/// [`DataError::LengthMismatch`] if `labels` is present but not the
/// same length as the point count; [`DataError::Io`] on any I/O
/// failure.
pub fn write_csv(path: &Path, points: &Matrix, labels: Option<&[Label]>) -> Result<(), DataError> {
    if let Some(ls) = labels {
        if ls.len() != points.rows() {
            return Err(DataError::LengthMismatch {
                what: "labels for write_csv",
                expected: points.rows(),
                got: ls.len(),
            });
        }
    }
    let rows = points.rows();
    write_csv_rows(
        path,
        points.cols(),
        labels.is_some(),
        (0..rows).map(|i| (points.row(i), labels.map(|ls| ls[i]))),
    )
}

/// Stream CSV rows from any iterator into `path` under the crash-safe
/// temp-file + rename contract. Shared by [`write_csv`] and the
/// scenario engine's epoch streamer; never holds more than one row
/// (plus the `BufWriter` block) in memory.
///
/// When `with_labels` is set, every row must carry `Some(label)`.
///
/// # Errors
///
/// [`DataError::Io`] naming the staged or final path on any failure.
pub(crate) fn write_csv_rows<'a>(
    path: &Path,
    cols: usize,
    with_labels: bool,
    rows: impl Iterator<Item = (&'a [f64], Option<Label>)>,
) -> Result<(), DataError> {
    write_staged(path, |w, tmp| {
        let tmperr = |e| DataError::io(tmp, e);
        for j in 0..cols {
            if j > 0 {
                write!(w, ",").map_err(tmperr)?;
            }
            write!(w, "x{j}").map_err(tmperr)?;
        }
        if with_labels {
            write!(w, ",label").map_err(tmperr)?;
        }
        writeln!(w).map_err(tmperr)?;
        for (row, label) in rows {
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    write!(w, ",").map_err(tmperr)?;
                }
                write!(w, "{v}").map_err(tmperr)?;
            }
            if with_labels {
                let l = label.ok_or(DataError::LengthMismatch {
                    what: "labels for write_csv_rows",
                    expected: 1,
                    got: 0,
                })?;
                write!(w, ",{}", label_token(l)).map_err(tmperr)?;
            }
            writeln!(w).map_err(tmperr)?;
        }
        Ok(())
    })
}

/// Read a CSV produced by [`write_csv`] (header required).
///
/// Returns the points and, when a `label` column is present, the labels.
///
/// # Errors
///
/// [`DataError::Csv`] — naming the file, 1-based line, and offending
/// column/token — on ragged rows, unparsable or non-finite numbers,
/// malformed headers, or unknown label tokens; [`DataError::Io`] on
/// OS-level failures.
pub fn read_csv(path: &Path) -> Result<(Matrix, Option<Vec<Label>>), DataError> {
    let r = BufReader::new(File::open(path).map_err(|e| DataError::io(path, e))?);
    read_csv_from(path, r)
}

/// Parse an in-memory CSV buffer (same grammar as [`read_csv`]).
///
/// `origin` names the buffer in error messages — e.g. `"<upload>"` for
/// a network request body, where no real file exists.
///
/// # Errors
///
/// Same as [`read_csv`]; non-UTF-8 bytes surface as [`DataError::Io`]
/// carrying `origin` as the path.
pub fn read_csv_bytes(
    origin: &Path,
    bytes: &[u8],
) -> Result<(Matrix, Option<Vec<Label>>), DataError> {
    read_csv_from(origin, bytes)
}

/// Shared CSV decoder over any buffered source; `path` is only for
/// error context.
///
/// One streaming pass with constant memory beyond the output: every
/// line is read into one reused byte buffer, checked as UTF-8 once, and
/// split on `,` with each coordinate parsed by std's correctly rounded
/// `f64` parser straight into the output, so no line or field is
/// allocated and the values are bit-exact.
fn read_csv_from(
    path: &Path,
    mut r: impl BufRead,
) -> Result<(Matrix, Option<Vec<Label>>), DataError> {
    let at =
        |line: usize, column: Option<usize>, token: Option<&str>, reason: String| DataError::Csv {
            path: path.into(),
            line,
            column,
            token: token.map(str::to_string),
            reason,
        };
    let mut buf = Vec::new();
    let header =
        next_line(path, &mut r, &mut buf)?.ok_or_else(|| at(1, None, None, "empty file".into()))?;
    let columns: Vec<&str> = header.split(',').collect();
    let has_labels = columns.last() == Some(&"label");
    let d = if has_labels {
        columns.len() - 1
    } else {
        columns.len()
    };
    if d == 0 {
        return Err(at(1, None, None, "no coordinate columns".into()));
    }
    // The header must declare the dimensions it claims: x0, x1, … in
    // order, so a file whose header disagrees with its own width is
    // caught here rather than misread.
    for (j, col) in columns[..d].iter().enumerate() {
        if *col != format!("x{j}") {
            return Err(at(
                1,
                Some(j + 1),
                Some(col),
                format!("header column mismatch: expected \"x{j}\""),
            ));
        }
    }

    let expected = d + usize::from(has_labels);
    let mut data: Vec<f64> = Vec::new();
    let mut labels: Vec<Label> = Vec::new();
    let mut rows = 0usize;
    // Data lines start at line 2 (the header is line 1).
    let mut ln = 1;
    while let Some(line) = next_line(path, &mut r, &mut buf)? {
        ln += 1;
        if line.is_empty() {
            continue;
        }
        // A ragged row is reported before any bad field in it, so the
        // first bad coordinate is only remembered while the scan counts
        // the rest of the fields.
        let mut fields = 0usize;
        let mut bad: Option<(usize, &str, &str)> = None;
        let mut label = None;
        let bytes = line.as_bytes();
        let mut start = 0;
        let commas = bytes.iter().enumerate().filter(|&(_, &b)| b == b',');
        for end in commas.map(|(i, _)| i).chain([bytes.len()]) {
            let f = &line[start..end];
            start = end + 1;
            if fields < d {
                if bad.is_none() {
                    match f.parse::<f64>() {
                        Ok(v) if v.is_finite() => data.push(v),
                        Ok(_) => bad = Some((fields, f, "non-finite coordinate")),
                        Err(_) => bad = Some((fields, f, "cannot parse as a number")),
                    }
                }
            } else if has_labels && fields == d {
                label = Some(f);
            }
            fields += 1;
        }
        if fields != expected {
            return Err(at(
                ln,
                None,
                None,
                format!("ragged row: expected {expected} fields, got {fields}"),
            ));
        }
        if let Some((j, tok, reason)) = bad {
            return Err(at(ln, Some(j + 1), Some(tok), reason.into()));
        }
        if let Some(tok) = label {
            labels.push(
                parse_label(tok)
                    .ok_or_else(|| at(ln, Some(d + 1), Some(tok), "bad label token".into()))?,
            );
        }
        rows += 1;
    }
    Ok((
        Matrix::from_vec(data, rows, d),
        has_labels.then_some(labels),
    ))
}

/// Read the next line of `r` into `buf` and return it as text, without
/// its `\n` and then one `\r` (the ending [`BufRead::lines`] strips);
/// `None` at end of input.
///
/// # Errors
///
/// [`DataError::Io`] carrying `path` on a read failure or when the line
/// is not UTF-8.
fn next_line<'b>(
    path: &Path,
    r: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> Result<Option<&'b str>, DataError> {
    buf.clear();
    let read = r
        .read_until(b'\n', buf)
        .map_err(|e| DataError::io(path, e))?;
    if read == 0 {
        return Ok(None);
    }
    let mut line = buf.as_slice();
    if let Some(rest) = line.strip_suffix(b"\n") {
        line = rest.strip_suffix(b"\r").unwrap_or(rest);
    }
    std::str::from_utf8(line).map(Some).map_err(|_| {
        DataError::io(
            path,
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            ),
        )
    })
}

pub(crate) fn label_token(l: Label) -> String {
    match l {
        Label::Cluster(i) => format!("C{i}"),
        Label::Outlier => "O".to_string(),
    }
}

fn parse_label(tok: &str) -> Option<Label> {
    match tok {
        "O" | "Out." => Some(Label::Outlier),
        _ => tok
            .strip_prefix('C')
            .and_then(|rest| rest.parse().ok())
            .map(Label::Cluster),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::env;

    fn tmp(name: &str) -> std::path::PathBuf {
        env::temp_dir().join(format!("proclus-data-io-{name}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip_with_labels() {
        let path = tmp("labels.csv");
        let m = Matrix::from_rows(&[[1.0, 2.5], [3.0, -4.0], [0.0, 100.0]], 2);
        let labels = vec![Label::Cluster(0), Label::Outlier, Label::Cluster(12)];
        write_csv(&path, &m, Some(&labels)).unwrap();
        let (m2, l2) = read_csv(&path).unwrap();
        assert_eq!(m, m2);
        assert_eq!(l2, Some(labels));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrip_without_labels() {
        let path = tmp("nolabels.csv");
        let m = Matrix::from_rows(&[[1.0], [2.0]], 1);
        write_csv(&path, &m, None).unwrap();
        let (m2, l2) = read_csv(&path).unwrap();
        assert_eq!(m, m2);
        assert_eq!(l2, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_csv_rejects_mismatched_labels() {
        let path = tmp("mismatch.csv");
        let m = Matrix::from_rows(&[[1.0], [2.0]], 1);
        let labels = vec![Label::Cluster(0)];
        let err = write_csv(&path, &m, Some(&labels)).unwrap_err();
        assert!(matches!(
            err,
            DataError::LengthMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ragged_row_is_rejected_with_location() {
        let path = tmp("ragged.csv");
        std::fs::write(&path, "x0,x1\n1.0,2.0\n3.0\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        match &err {
            DataError::Csv { line, .. } => assert_eq!(*line, 3),
            other => panic!("expected Csv error, got {other:?}"),
        }
        assert!(err.to_string().contains(":3"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_number_names_line_column_and_token() {
        let path = tmp("badnum.csv");
        std::fs::write(&path, "x0,x1\n1.0,2.0\n3.0,not-a-number\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        match &err {
            DataError::Csv {
                line,
                column,
                token,
                ..
            } => {
                assert_eq!(*line, 3);
                assert_eq!(*column, Some(2));
                assert_eq!(token.as_deref(), Some("not-a-number"));
            }
            other => panic!("expected Csv error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_cell_is_rejected() {
        let path = tmp("nan.csv");
        std::fs::write(&path, "x0,x1\n1.0,NaN\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
        let path2 = tmp("inf.csv");
        std::fs::write(&path2, "x0\ninf\n").unwrap();
        assert!(read_csv(&path2).is_err());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn mismatched_header_is_rejected() {
        let path = tmp("badheader.csv");
        std::fs::write(&path, "x0,x2\n1.0,2.0\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        assert!(err.to_string().contains("header column mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_rejected() {
        let path = tmp("empty.csv");
        std::fs::write(&path, "").unwrap();
        let err = read_csv(&path).unwrap_err();
        assert!(err.to_string().contains("empty file"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error_with_path() {
        let path = tmp("definitely-not-here.csv");
        let err = read_csv(&path).unwrap_err();
        assert!(matches!(err, DataError::Io { .. }));
        assert!(err.to_string().contains("definitely-not-here"), "{err}");
    }

    #[test]
    fn bad_label_is_rejected() {
        let path = tmp("badlabel.csv");
        std::fs::write(&path, "x0,label\n1.0,wat\n").unwrap();
        let err = read_csv(&path).unwrap_err();
        assert!(err.to_string().contains("bad label token"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_write_leaves_no_tmp_and_matches_roundtrip() {
        let path = tmp("streamed.csv");
        let m = Matrix::from_rows(&[[1.0, 2.0], [3.5, -0.25], [1e-9, 4e12]], 2);
        let labels = vec![Label::Cluster(1), Label::Outlier, Label::Cluster(0)];
        write_csv(&path, &m, Some(&labels)).unwrap();
        // The staging file must be gone after a successful publish.
        assert!(!crate::binio::tmp_path(&path).exists());
        let (m2, l2) = read_csv(&path).unwrap();
        assert_eq!(m, m2);
        assert_eq!(l2, Some(labels));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_csv_into_missing_directory_is_a_located_io_error() {
        let path = std::path::PathBuf::from("/nonexistent-proclus-dir/x.csv");
        let m = Matrix::from_rows(&[[1.0]], 1);
        let err = write_csv(&path, &m, None).unwrap_err();
        assert!(matches!(err, DataError::Io { .. }), "{err:?}");
        assert!(err.to_string().contains("nonexistent-proclus-dir"), "{err}");
    }

    #[test]
    fn failed_write_csv_removes_its_tmp() {
        // The final path is an existing directory: the rename fails
        // after the staged file was written, fsynced and closed.
        let dir = tmp("csv-target-is-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let m = Matrix::from_rows(&[[1.0, 2.0]], 2);
        let err = write_csv(&dir, &m, None).unwrap_err();
        assert!(matches!(err, DataError::Io { .. }), "{err:?}");
        assert!(!crate::binio::tmp_path(&dir).exists());
        // A row missing its label fails mid-stream, before the rename.
        let path = tmp("missing-label.csv");
        let rows = [(m.row(0), None)];
        let err = write_csv_rows(&path, 2, true, rows.into_iter()).unwrap_err();
        assert!(matches!(err, DataError::LengthMismatch { .. }), "{err:?}");
        assert!(!crate::binio::tmp_path(&path).exists());
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn label_tokens_parse() {
        assert_eq!(parse_label("O"), Some(Label::Outlier));
        assert_eq!(parse_label("Out."), Some(Label::Outlier));
        assert_eq!(parse_label("C7"), Some(Label::Cluster(7)));
        assert_eq!(parse_label("7"), None);
        assert_eq!(parse_label("Cx"), None);
    }
}
