//! Compact binary dataset serialization.
//!
//! CSV (see [`crate::io`]) is interoperable but slow and ~3× larger
//! than the raw matrix; the paper-scale files (500k × 20 f64 for
//! Figure 7) are better stored in this little-endian binary format:
//!
//! ```text
//! magic  b"PRCL"            4 bytes
//! version u8 = 1
//! flags   u8 (bit 0: labels present)
//! rows    u64 LE
//! cols    u64 LE
//! data    rows*cols f64 LE, row-major
//! labels  rows i64 LE (only when flagged): -1 = outlier, else cluster
//! ```
//!
//! Reads validate the magic, version, flags, and exact length *before*
//! any allocation, so truncated, bit-flipped, or foreign files are
//! rejected with a located [`DataError::Binary`] rather than
//! misinterpreted — and a corrupted header can never trigger an
//! allocation larger than the file itself.

use crate::error::DataError;
use crate::format::{required, write_rows, RowWriter};
use crate::label::Label;
use proclus_math::{fnv1a64_continue, Matrix};
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// File magic opening every `PRCL` binary dataset.
pub const MAGIC: &[u8; 4] = b"PRCL";
const VERSION: u8 = 1;

/// Serialize `points` (and optional aligned `labels`) into the binary
/// format.
///
/// # Errors
///
/// [`DataError::LengthMismatch`] if `labels` is present with a length
/// different from the point count.
pub fn encode(points: &Matrix, labels: Option<&[Label]>) -> Result<Vec<u8>, DataError> {
    let (rows, cols) = (points.rows(), points.cols());
    let mut buf = Vec::with_capacity(22 + rows * cols * 8 + labels.map_or(0, |_| rows * 8));
    let out = PrclWriter::new(&mut buf, Path::new(""), rows, cols, labels.is_some())?;
    write_rows(out, points, labels)?;
    Ok(buf)
}

/// Row-by-row `PRCL` encoder: the header goes out first and rows
/// stream through, while the label column, stored after the matrix,
/// is buffered as `i64` until `finish` appends it.
pub(crate) struct PrclWriter<'a, W> {
    w: &'a mut W,
    origin: &'a Path,
    rows: usize,
    pushed: usize,
    labels: Option<Vec<i64>>,
}

impl<'a, W: Write> PrclWriter<'a, W> {
    /// Write the header of a `rows × cols` dataset, labeled or not, to
    /// `w`; `origin` names `w` in errors.
    pub(crate) fn new(
        w: &'a mut W,
        origin: &'a Path,
        rows: usize,
        cols: usize,
        labeled: bool,
    ) -> Result<Self, DataError> {
        let dims = [(rows as u64).to_le_bytes(), (cols as u64).to_le_bytes()];
        let header = [
            MAGIC.as_slice(),
            &[VERSION, u8::from(labeled)],
            &dims.concat(),
        ];
        w.write_all(&header.concat())
            .map_err(|e| DataError::io(origin, e))?;
        let labels = labeled.then(|| Vec::with_capacity(rows));
        Ok(Self {
            w,
            origin,
            rows,
            pushed: 0,
            labels,
        })
    }

    fn put(&mut self, bytes: [u8; 8]) -> Result<(), DataError> {
        self.w
            .write_all(&bytes)
            .map_err(|e| DataError::io(self.origin, e))
    }
}

impl<W: Write> RowWriter for PrclWriter<'_, W> {
    fn push(&mut self, row: &[f64], label: Option<Label>) -> Result<(), DataError> {
        if let Some(ids) = &mut self.labels {
            ids.push(label_id(required(label)?));
        }
        for v in row {
            self.put(v.to_le_bytes())?;
        }
        self.pushed += 1;
        Ok(())
    }

    /// Fails with [`DataError::LengthMismatch`] when the number of rows
    /// pushed differs from the header's row count.
    fn finish(mut self) -> Result<(), DataError> {
        if self.pushed != self.rows {
            return Err(DataError::LengthMismatch {
                what: "PRCL rows pushed",
                expected: self.rows,
                got: self.pushed,
            });
        }
        for id in self.labels.take().into_iter().flatten() {
            self.put(id.to_le_bytes())?;
        }
        Ok(())
    }
}

/// A label as `PRCL` stores it: the cluster id, or −1 for an outlier.
fn label_id(l: Label) -> i64 {
    l.cluster().map_or(-1, |i| i as i64)
}

/// Fold one row and its label, encoded as `PRCL` encodes them, into an
/// FNV-1a state.
pub(crate) fn fold_record(state: u64, row: &[f64], label: Label) -> u64 {
    let h = row
        .iter()
        .fold(state, |h, v| fnv1a64_continue(h, &v.to_le_bytes()));
    fnv1a64_continue(h, &label_id(label).to_le_bytes())
}

/// Little-endian cursor over a byte slice; every read checks the
/// remaining length and reports the byte offset and field on failure.
struct Reader<'a> {
    buf: &'a [u8],
    offset: usize,
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], DataError> {
        if self.buf.len() < N {
            return Err(self.error(
                field,
                format!("truncated: need {N} more bytes, {} left", self.buf.len()),
            ));
        }
        let (head, rest) = self.buf.split_at(N);
        self.buf = rest;
        self.offset += N;
        let mut out = [0u8; N];
        out.copy_from_slice(head);
        Ok(out)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, DataError> {
        Ok(self.take::<1>(field)?[0])
    }

    fn u64_le(&mut self, field: &'static str) -> Result<u64, DataError> {
        Ok(u64::from_le_bytes(self.take(field)?))
    }

    fn f64_le(&mut self, field: &'static str) -> Result<f64, DataError> {
        Ok(f64::from_le_bytes(self.take(field)?))
    }

    fn i64_le(&mut self, field: &'static str) -> Result<i64, DataError> {
        Ok(i64::from_le_bytes(self.take(field)?))
    }

    fn error(&self, field: &'static str, reason: String) -> DataError {
        DataError::Binary {
            path: None,
            offset: self.offset,
            field,
            reason,
        }
    }
}

/// Deserialize a buffer produced by [`encode`].
///
/// # Errors
///
/// [`DataError::Binary`] — naming the byte offset and field — on wrong
/// magic/version, unknown flags, negative cluster ids other than −1,
/// overflowing header sizes, or a payload length that does not match
/// the header.
pub fn decode(buf: &[u8]) -> Result<(Matrix, Option<Vec<Label>>), DataError> {
    let mut r = Reader { buf, offset: 0 };
    let magic = r.take::<4>("magic")?;
    if magic != *MAGIC {
        return Err(DataError::Binary {
            path: None,
            offset: 0,
            field: "magic",
            reason: "bad magic (not a PRCL dataset)".into(),
        });
    }
    let version = r.u8("version")?;
    if version != VERSION {
        return Err(DataError::Binary {
            path: None,
            offset: 4,
            field: "version",
            reason: format!("unsupported version {version}"),
        });
    }
    let flags = r.u8("flags")?;
    if flags & !1 != 0 {
        return Err(DataError::Binary {
            path: None,
            offset: 5,
            field: "flags",
            reason: format!("unknown flag bits 0b{flags:08b}"),
        });
    }
    let has_labels = flags & 1 != 0;
    let rows_raw = r.u64_le("rows")?;
    let cols_raw = r.u64_le("cols")?;
    let rows = usize::try_from(rows_raw)
        .map_err(|_| r.error("rows", format!("row count {rows_raw} too large")))?;
    let cols = usize::try_from(cols_raw)
        .map_err(|_| r.error("cols", format!("column count {cols_raw} too large")))?;
    // Validate the exact payload length with overflow-checked
    // arithmetic before any data-sized allocation: a corrupted header
    // can claim at most what the buffer actually holds.
    let want = rows
        .checked_mul(cols)
        .and_then(|c| c.checked_mul(8))
        .and_then(|b| b.checked_add(if has_labels { rows.checked_mul(8)? } else { 0 }))
        .ok_or_else(|| r.error("header", "header sizes overflow".into()))?;
    if r.buf.len() != want {
        return Err(r.error(
            "payload",
            format!(
                "payload length {} does not match header ({want} expected)",
                r.buf.len()
            ),
        ));
    }
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        data.push(r.f64_le("data")?);
    }
    let labels = if has_labels {
        let mut ls = Vec::with_capacity(rows);
        for _ in 0..rows {
            let at = r.offset;
            let v = r.i64_le("labels")?;
            ls.push(match v {
                -1 => Label::Outlier,
                i if i >= 0 => Label::Cluster(i as usize),
                other => {
                    return Err(DataError::Binary {
                        path: None,
                        offset: at,
                        field: "labels",
                        reason: format!("bad label id {other}"),
                    })
                }
            });
        }
        Some(ls)
    } else {
        None
    };
    Ok((Matrix::from_vec(data, rows, cols), labels))
}

/// The temp-file sibling every dataset writer stages into:
/// `<path>.tmp`.
///
/// Exposed so recovery scans (and tests) can recognize the leftovers of
/// a write that died before its rename.
#[must_use]
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// The temp-file + rename shell every dataset writer shares: `fill`
/// writes the dataset to a buffered `<path>.tmp` (it gets the temp path
/// for error context), which is then flushed, fsynced and renamed over
/// `path` (atomic on POSIX), and the parent directory fsynced
/// best-effort.
///
/// A crash at any instant leaves either the old file intact (possibly
/// next to a detectable partial `.tmp`) or the new file complete —
/// never a torn `path`. Once the temp file exists, any failure — in
/// `fill`, the flush, the fsync or the rename — removes it before the
/// error is returned.
///
/// # Errors
///
/// [`DataError::Io`] naming the staged or final path on an I/O failure,
/// or whatever `fill` returns.
pub(crate) fn write_staged<T>(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<fs::File>, &Path) -> Result<T, DataError>,
) -> Result<T, DataError> {
    let tmp = tmp_path(path);
    let file = fs::File::create(&tmp).map_err(|e| DataError::io(&tmp, e))?;
    // Writers push a few bytes at a time; 64 KiB keeps the write
    // syscalls per megabyte in the tens.
    let mut w = BufWriter::with_capacity(1 << 16, file);
    let published = fill(&mut w, &tmp).and_then(|out| {
        let f = w
            .into_inner()
            .map_err(|e| DataError::io(&tmp, e.into_error()))?;
        f.sync_all().map_err(|e| DataError::io(&tmp, e))?;
        drop(f);
        fs::rename(&tmp, path).map_err(|e| DataError::io(path, e))?;
        Ok(out)
    });
    if published.is_err() {
        let _ = fs::remove_file(&tmp);
        return published;
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    published
}

/// Write the binary format to a file, streaming row by row through
/// `PrclWriter` (crash-safe: temp file + rename).
///
/// # Errors
///
/// [`DataError::LengthMismatch`] on misaligned labels, [`DataError::Io`]
/// on any I/O failure.
pub fn write_binary(
    path: &Path,
    points: &Matrix,
    labels: Option<&[Label]>,
) -> Result<(), DataError> {
    write_staged(path, |w, tmp| {
        let out = PrclWriter::new(w, tmp, points.rows(), points.cols(), labels.is_some())?;
        write_rows(out, points, labels)
    })
}

/// Read a file produced by [`write_binary`].
///
/// # Errors
///
/// As [`decode`], with the file path attached; [`DataError::Io`] on
/// OS-level failures.
pub fn read_binary(path: &Path) -> Result<(Matrix, Option<Vec<Label>>), DataError> {
    let bytes = fs::read(path).map_err(|e| DataError::io(path, e))?;
    decode(&bytes).map_err(|e| e.with_path(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Matrix, Vec<Label>) {
        let m = Matrix::from_rows(&[[1.5, -2.0, f64::MIN_POSITIVE], [0.0, 1e300, -0.0]], 3);
        let l = vec![Label::Cluster(3), Label::Outlier];
        (m, l)
    }

    #[test]
    fn roundtrip_with_labels_is_bit_exact() {
        let (m, l) = sample();
        let bytes = encode(&m, Some(&l)).unwrap();
        let (m2, l2) = decode(&bytes).unwrap();
        assert_eq!(m, m2);
        assert_eq!(l2, Some(l));
    }

    #[test]
    fn roundtrip_without_labels() {
        let (m, _) = sample();
        let bytes = encode(&m, None).unwrap();
        let (m2, l2) = decode(&bytes).unwrap();
        assert_eq!(m, m2);
        assert_eq!(l2, None);
    }

    #[test]
    fn encode_rejects_mismatched_labels() {
        let (m, _) = sample();
        let too_few = vec![Label::Outlier];
        let err = encode(&m, Some(&too_few)).unwrap_err();
        assert!(matches!(
            err,
            DataError::LengthMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let (m, _) = sample();
        let mut bytes = encode(&m, None).unwrap();
        bytes[0] = b'X';
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn wrong_version_rejected() {
        let (m, _) = sample();
        let mut bytes = encode(&m, None).unwrap();
        bytes[4] = 99;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn unknown_flags_rejected() {
        let (m, _) = sample();
        let mut bytes = encode(&m, None).unwrap();
        bytes[5] |= 0b0100;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("flag"), "{err}");
    }

    #[test]
    fn truncation_at_every_byte_rejected() {
        let (m, l) = sample();
        let bytes = encode(&m, Some(&l)).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_in_every_header_field_never_panic() {
        let (m, l) = sample();
        let bytes = encode(&m, Some(&l)).unwrap();
        // Header is magic(0..4) version(4) flags(5) rows(6..14)
        // cols(14..22): flipping any header bit must produce a typed
        // error — in particular a corrupted rows/cols field must fail
        // the length check, never over-allocate.
        for byte in 0..22 {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                let err = decode(&corrupt).unwrap_err();
                let msg = err.to_string();
                assert!(!msg.is_empty(), "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn bit_flips_in_payload_never_panic() {
        let (m, l) = sample();
        let bytes = encode(&m, Some(&l)).unwrap();
        for byte in 22..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                // A flipped data bit may still decode (it is just a
                // different f64); it must never panic, and on success
                // the shape must be unchanged.
                if let Ok((m2, _)) = decode(&corrupt) {
                    assert_eq!(m2.rows(), m.rows());
                    assert_eq!(m2.cols(), m.cols());
                }
            }
        }
    }

    #[test]
    fn huge_header_rows_do_not_allocate() {
        let (m, _) = sample();
        let mut bytes = encode(&m, None).unwrap();
        // Claim ~10^18 rows: decode must reject on the length check
        // (checked arithmetic) without attempting the allocation.
        bytes[6..14].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("overflow") || msg.contains("does not match"),
            "{msg}"
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (m, _) = sample();
        let mut bytes = encode(&m, None).unwrap();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let (m, l) = sample();
        let path = std::env::temp_dir().join(format!("proclus-binio-{}.prcl", std::process::id()));
        write_binary(&path, &m, Some(&l)).unwrap();
        let (m2, l2) = read_binary(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(m, m2);
        assert_eq!(l2, Some(l));
    }

    #[test]
    fn read_binary_names_the_file() {
        let path =
            std::env::temp_dir().join(format!("proclus-binio-corrupt-{}.prcl", std::process::id()));
        std::fs::write(&path, b"NOPE").unwrap();
        let err = read_binary(&path).unwrap_err();
        assert!(err.to_string().contains("proclus-binio-corrupt"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn killed_mid_write_leaves_original_intact_and_partial_detectable() {
        // Simulate a crash mid-overwrite: the staged temp file holds a
        // FaultReader-truncated prefix of the new bytes and the process
        // dies before the rename. The original must read back intact,
        // and the partial temp must be rejected by decode — the two
        // properties the registry recovery scan relies on.
        let dir = std::env::temp_dir().join(format!("proclus-midwrite-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dataset.prcl");
        let (m, l) = sample();
        write_binary(&path, &m, Some(&l)).unwrap();

        let replacement = Matrix::from_rows(&[[9.0, 9.0, 9.0]], 3);
        let new_bytes = encode(&replacement, None).unwrap();
        let faults = crate::fault::FaultReader::new(new_bytes.clone());
        for cut in [1, 7, new_bytes.len() / 2, new_bytes.len() - 1] {
            let partial = faults.truncated(cut);
            std::fs::write(tmp_path(&path), partial).unwrap();
            // Crash point: temp staged, rename never happened.
            let (m2, l2) = read_binary(&path).unwrap();
            assert_eq!(m2, m, "original torn after cut at {cut}");
            assert_eq!(l2, Some(l.clone()));
            let leftover = std::fs::read(tmp_path(&path)).unwrap();
            assert!(decode(&leftover).is_err(), "partial at {cut} not detected");
        }

        // A completed atomic write replaces the file and leaves no temp.
        write_binary(&path, &replacement, None).unwrap();
        assert!(!tmp_path(&path).exists());
        let (m3, l3) = read_binary(&path).unwrap();
        assert_eq!(m3, replacement);
        assert_eq!(l3, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_binary_removes_its_tmp() {
        // The final path is an existing directory: the rename fails
        // after the staged file was written and fsynced.
        let dir = std::env::temp_dir().join(format!("proclus-bin-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (m, l) = sample();
        let err = write_binary(&dir, &m, Some(&l)).unwrap_err();
        assert!(matches!(err, DataError::Io { .. }), "{err:?}");
        assert!(!tmp_path(&dir).exists());
        assert!(dir.is_dir());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_short_of_its_header_rows_is_typed_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("proclus-bin-short-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("short.prcl");
        let err = write_staged(&path, |w, tmp| {
            let mut out = PrclWriter::new(w, tmp, 3, 2, true)?;
            out.push(&[1.0, 2.0], Some(Label::Outlier))?;
            out.finish()
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                DataError::LengthMismatch {
                    expected: 3,
                    got: 1,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(!tmp_path(&path).exists());
        assert!(!path.exists());
        // Pushing past the header's count is caught the same way, and
        // a labeled writer refuses a row without a label.
        let mut buf = Vec::new();
        let mut over = PrclWriter::new(&mut buf, &path, 0, 1, false).unwrap();
        over.push(&[1.0], None).unwrap();
        assert!(over.finish().is_err());
        let mut labeled = PrclWriter::new(&mut buf, &path, 1, 1, true).unwrap();
        assert!(labeled.push(&[1.0], None).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let m = Matrix::zeros(0, 4);
        let bytes = encode(&m, None).unwrap();
        let (m2, _) = decode(&bytes).unwrap();
        assert_eq!(m2.rows(), 0);
        assert_eq!(m2.cols(), 4);
    }
}
