//! The one rule that names a dataset's format, and reading, writing and
//! decoding by it. Each format module — [`io`] (CSV), [`binio`]
//! (`PRCL`), [`chunks`] (`PRCK`) — is the only code that knows its
//! bytes, and encodes them through its one `RowWriter`.

use crate::chunks::{self, ChunkWriter};
use crate::{binio, io, DataError, Label};
use proclus_math::Matrix;
use std::path::Path;

/// A dataset encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Headed comma-separated text.
    Csv,
    /// The `PRCL` binary matrix, with optional labels.
    Prcl,
    /// A stream of checksummed `PRCK` frames, without labels.
    Chunks,
}

impl Format {
    /// The format a path names by its extension, ASCII
    /// case-insensitively: `csv` is CSV, `chunks` is `PRCK`, anything
    /// else (or none) is `PRCL`.
    #[must_use]
    pub fn from_path(path: &Path) -> Self {
        let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
        match ext.to_ascii_lowercase().as_str() {
            "csv" => Format::Csv,
            "chunks" => Format::Chunks,
            _ => Format::Prcl,
        }
    }

    /// The format a byte body announces by its leading magic: `PRCL`
    /// and `PRCK` are recognized, anything else is CSV.
    #[must_use]
    pub fn sniff(bytes: &[u8]) -> Self {
        match bytes.get(..4) {
            Some(m) if m == binio::MAGIC => Format::Prcl,
            Some(m) if m == chunks::CHUNK_MAGIC => Format::Chunks,
            _ => Format::Csv,
        }
    }
}

/// A format's row encoder: rows go in one at a time, then `finish`
/// completes the encoding.
pub(crate) trait RowWriter: Sized {
    fn push(&mut self, row: &[f64], label: Option<Label>) -> Result<(), DataError>;
    fn finish(self) -> Result<(), DataError> {
        Ok(())
    }
}

/// Push every row of `points`, each with its entry of `labels`, then
/// finish.
pub(crate) fn write_rows(
    mut out: impl RowWriter,
    points: &Matrix,
    labels: Option<&[Label]>,
) -> Result<(), DataError> {
    if let Some(ls) = labels.filter(|ls| ls.len() != points.rows()) {
        return Err(DataError::LengthMismatch {
            what: "labels",
            expected: points.rows(),
            got: ls.len(),
        });
    }
    for (i, row) in points.iter_rows().enumerate() {
        out.push(row, labels.map(|ls| ls[i]))?;
    }
    out.finish()
}

/// The label a labeled writer requires of every row.
pub(crate) fn required(label: Option<Label>) -> Result<Label, DataError> {
    label.ok_or(DataError::LengthMismatch {
        what: "row labels",
        expected: 1,
        got: 0,
    })
}

/// Read a dataset file in the format its path names; `PRCK` frames
/// decode strictly ([`chunks::decode_chunks`]) and carry no labels.
///
/// # Errors
///
/// The format reader's located [`DataError`], naming the file.
pub fn read_dataset(path: &Path) -> Result<(Matrix, Option<Vec<Label>>), DataError> {
    match Format::from_path(path) {
        Format::Csv => io::read_csv(path),
        Format::Prcl => binio::read_binary(path),
        Format::Chunks => {
            let bytes = std::fs::read(path).map_err(|e| DataError::io(path, e))?;
            let points = chunks::decode_chunks(&bytes).map_err(|e| e.with_path(path))?;
            Ok((points, None))
        }
    }
}

/// Write a dataset file, crash-safely, in the format its path names;
/// `PRCK` frames hold [`chunks::BATCH_ROWS`] rows each.
///
/// # Errors
///
/// [`DataError::LengthMismatch`] on misaligned labels, on any labels
/// for a `PRCK` file (it holds none, so they would be lost) or on rows
/// too wide for a `PRCK` frame; [`DataError::Io`] on any I/O failure.
pub fn write_dataset(
    path: &Path,
    points: &Matrix,
    labels: Option<&[Label]>,
) -> Result<(), DataError> {
    match (Format::from_path(path), labels) {
        (Format::Csv, _) => io::write_csv(path, points, labels),
        (Format::Prcl, _) => binio::write_binary(path, points, labels),
        (Format::Chunks, Some(ls)) => Err(DataError::LengthMismatch {
            what: "labels in a .chunks file, which holds none",
            expected: 0,
            got: ls.len(),
        }),
        (Format::Chunks, None) => binio::write_staged(path, |w, tmp| {
            let out = ChunkWriter::new(w, tmp, points.cols(), chunks::BATCH_ROWS)?;
            write_rows(out, points, None)
        }),
    }
}

/// Decode an in-memory dataset in the format its magic announces;
/// `origin` names the buffer in CSV errors (e.g. `"<upload>"`).
///
/// # Errors
///
/// The format decoder's located [`DataError`].
pub fn decode_dataset(
    origin: &Path,
    bytes: &[u8],
) -> Result<(Matrix, Option<Vec<Label>>), DataError> {
    match Format::sniff(bytes) {
        Format::Csv => io::read_csv_bytes(origin, bytes),
        Format::Prcl => binio::decode(bytes),
        Format::Chunks => Ok((chunks::decode_chunks(bytes)?, None)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("proclus-format-{}-{name}", std::process::id()))
    }

    #[test]
    fn one_rule_per_path_and_body() {
        for (path, want) in [
            ("a.csv", Format::Csv),
            ("a.CSV", Format::Csv),
            ("dir.csv/a.Csv", Format::Csv),
            ("a.chunks", Format::Chunks),
            ("a.CHUNKS", Format::Chunks),
            ("a.prcl", Format::Prcl),
            ("a.bin", Format::Prcl),
            ("a", Format::Prcl),
            ("a.csv.gz", Format::Prcl),
            ("csv", Format::Prcl),
        ] {
            assert_eq!(Format::from_path(Path::new(path)), want, "{path}");
        }
        for (body, want) in [
            (&b"PRCL\x01\x00"[..], Format::Prcl),
            (b"PRCK\x01", Format::Chunks),
            (b"x0,x1\n1,2\n", Format::Csv),
            (b"PRC", Format::Csv),
            (b"prcl", Format::Csv),
            (b"", Format::Csv),
        ] {
            assert_eq!(Format::sniff(body), want, "{body:?}");
        }
    }

    #[test]
    fn every_format_reads_back_what_it_writes() {
        let m = Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0], [-0.5, 1e300]], 2);
        let labels = vec![Label::Cluster(1), Label::Outlier, Label::Cluster(0)];
        for name in ["x.csv", "x.CSV", "x.prcl", "x.chunks", "x.Chunks"] {
            let path = tmp(name);
            let chunked = Format::from_path(&path) == Format::Chunks;
            let want = (!chunked).then(|| labels.clone());
            write_dataset(&path, &m, want.as_deref()).unwrap();
            let (m2, l2) = read_dataset(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(m, m2, "{name}");
            assert_eq!(l2, want, "{name}");
            assert_eq!(Format::sniff(&bytes), Format::from_path(&path), "{name}");
            let (m3, l3) = decode_dataset(&path, &bytes).unwrap();
            assert_eq!((m3, l3), (m2, want), "{name}");
        }
        let short = &labels[..2];
        for name in ["y.csv", "y.prcl"] {
            let path = tmp(name);
            let err = write_dataset(&path, &m, Some(short)).unwrap_err();
            assert!(matches!(
                err,
                DataError::LengthMismatch {
                    expected: 3,
                    got: 2,
                    ..
                }
            ));
            assert!(!path.exists() && !binio::tmp_path(&path).exists(), "{name}");
        }
        // A `.chunks` file holds no labels: writing some is refused
        // rather than silently dropping them.
        let path = tmp("z.chunks");
        let err = write_dataset(&path, &m, Some(&labels)).unwrap_err();
        assert!(matches!(
            err,
            DataError::LengthMismatch {
                expected: 0,
                got: 3,
                ..
            }
        ));
        assert!(!path.exists() && !binio::tmp_path(&path).exists());
    }
}
