//! Self-delimiting chunk framing for streaming ingest.
//!
//! The streaming server consumes points batch-by-batch; this module
//! frames each batch as an independently verifiable chunk so that a
//! corrupted batch can be quarantined without poisoning the stream:
//!
//! ```text
//! magic    b"PRCK"               4 bytes
//! version  u8 = 1
//! rows     u32 LE
//! cols     u32 LE
//! payload  rows*cols f64 LE, row-major
//! check    u64 LE = FNV-1a 64 over magic..payload
//! ```
//!
//! The per-chunk checksum localizes damage: a bit flip fails only its
//! own chunk's verification, and [`ChunkReader`] resynchronizes by
//! scanning forward for the next frame that validates *completely*
//! (magic, version, plausible dimensions, full length, checksum). A
//! failed checksum means the header's own length field cannot be
//! trusted — the damage may be in the header — so the reader never
//! skips by the announced frame length; nor is a stray `b"PRCK"`
//! inside a payload enough to fool the scan, since a candidate is only
//! accepted once its checksum verifies. Truncation and header damage
//! before the first chunk are unrecoverable — the reader reports one
//! located error and ends.

use crate::error::DataError;
use crate::format::{write_rows, RowWriter};
use crate::label::Label;
use proclus_math::{fnv1a64, fnv1a64_continue, Matrix};
use std::io::Write;
use std::path::Path;

/// Frame magic for one streamed chunk.
pub const CHUNK_MAGIC: &[u8; 4] = b"PRCK";
/// Current chunk framing version.
pub const CHUNK_VERSION: u8 = 1;
/// Fixed byte length of a chunk header (magic + version + rows + cols).
pub const CHUNK_HEADER_LEN: usize = 4 + 1 + 4 + 4;
/// Upper bound on `rows * cols` per chunk, enforced before any
/// payload-sized allocation (4M cells = 32 MiB of f64).
pub const MAX_CHUNK_CELLS: usize = 1 << 22;

/// Rows per frame of a `.chunks` file written by
/// [`write_dataset`](crate::write_dataset).
pub const BATCH_ROWS: usize = 256;

/// Serialize one batch of points as a single framed chunk.
///
/// # Errors
///
/// [`DataError::LengthMismatch`] when the batch exceeds
/// [`MAX_CHUNK_CELLS`] cells.
pub fn encode_chunk(batch: &Matrix) -> Result<Vec<u8>, DataError> {
    let mut buf = Vec::new();
    let rows = batch.rows();
    let mut out = ChunkWriter::new(&mut buf, Path::new(""), batch.cols(), rows.max(1))?;
    batch.iter_rows().try_for_each(|row| out.push(row, None))?;
    if rows == 0 {
        // Pushing fills no frame; an empty batch is one 0-row frame.
        out.write_frame()?;
    }
    Ok(buf)
}

/// Serialize `points` into a sequence of chunks of at most
/// `batch_rows` rows each (in row order).
///
/// # Errors
///
/// [`DataError::LengthMismatch`] when `batch_rows` is 0 or a frame
/// would exceed [`MAX_CHUNK_CELLS`] cells.
pub fn encode_chunk_stream(points: &Matrix, batch_rows: usize) -> Result<Vec<u8>, DataError> {
    let mut buf = Vec::new();
    // A frame never holds more rows than the matrix has (0 stays 0).
    let batch_rows = batch_rows.min(points.rows().max(1));
    let out = ChunkWriter::new(&mut buf, Path::new(""), points.cols(), batch_rows)?;
    write_rows(out, points, None)?;
    Ok(buf)
}

/// Row-by-row `PRCK` encoder: buffers the payload of at most
/// `batch_rows` rows and writes each full batch, and the last one on
/// `finish`, as one checksummed frame. Labels are not part of the
/// format and are dropped.
pub(crate) struct ChunkWriter<'a, W> {
    w: &'a mut W,
    origin: &'a Path,
    cols: usize,
    batch_rows: usize,
    rows: usize,
    payload: Vec<u8>,
}

impl<'a, W: Write> ChunkWriter<'a, W> {
    /// Frame `cols`-wide rows into `batch_rows`-row batches on `w`;
    /// `origin` names `w` in errors. Fails with
    /// [`DataError::LengthMismatch`] when `batch_rows` is 0 or a batch
    /// would exceed [`MAX_CHUNK_CELLS`] cells.
    pub(crate) fn new(
        w: &'a mut W,
        origin: &'a Path,
        cols: usize,
        batch_rows: usize,
    ) -> Result<Self, DataError> {
        // Bounding the row count too keeps both header fields in u32.
        let cells = batch_rows.saturating_mul(cols).max(batch_rows);
        if batch_rows == 0 || cells > MAX_CHUNK_CELLS {
            return Err(DataError::LengthMismatch {
                what: "chunk batch cells (at least one row)",
                expected: MAX_CHUNK_CELLS,
                got: cells,
            });
        }
        Ok(Self {
            w,
            origin,
            cols,
            batch_rows,
            rows: 0,
            payload: Vec::with_capacity(batch_rows * cols * 8),
        })
    }

    /// Write the buffered rows as one frame: header, payload, and the
    /// FNV-1a checksum of both.
    fn write_frame(&mut self) -> Result<(), DataError> {
        let dims = [self.rows as u32, self.cols as u32].map(u32::to_le_bytes);
        let header = [CHUNK_MAGIC.as_slice(), &[CHUNK_VERSION], &dims.concat()].concat();
        let check = fnv1a64_continue(fnv1a64(&header), &self.payload).to_le_bytes();
        let w = &mut *self.w;
        [&header[..], &self.payload, &check]
            .iter()
            .try_for_each(|part| w.write_all(part))
            .map_err(|e| DataError::io(self.origin, e))?;
        self.payload.clear();
        self.rows = 0;
        Ok(())
    }
}

impl<W: Write> RowWriter for ChunkWriter<'_, W> {
    fn push(&mut self, row: &[f64], _label: Option<Label>) -> Result<(), DataError> {
        self.payload
            .extend(row.iter().flat_map(|v| v.to_le_bytes()));
        self.rows += 1;
        if self.rows == self.batch_rows {
            self.write_frame()?;
        }
        Ok(())
    }

    fn finish(mut self) -> Result<(), DataError> {
        if self.rows > 0 {
            self.write_frame()?;
        }
        Ok(())
    }
}

/// Decode a whole chunk stream into one matrix, strictly: where
/// [`ChunkReader`] quarantines a damaged frame and reads on, any
/// damaged frame, a change of width between frames, or a stream with
/// no frame at all is an error here.
///
/// # Errors
///
/// [`DataError::Binary`] locating the first bad frame.
pub fn decode_chunks(bytes: &[u8]) -> Result<Matrix, DataError> {
    let mut reader = ChunkReader::new(bytes);
    let (mut data, mut rows, mut cols) = (Vec::new(), 0, None);
    loop {
        let at = reader.offset();
        let Some(chunk) = reader.next() else { break };
        let chunk = chunk?;
        let width = *cols.get_or_insert(chunk.cols());
        if width != chunk.cols() {
            return Err(DataError::Binary {
                path: None,
                offset: at,
                field: "chunk cols",
                reason: format!("chunk width changed from {width} to {}", chunk.cols()),
            });
        }
        rows += chunk.rows();
        data.extend_from_slice(chunk.as_slice());
    }
    let cols = cols.ok_or_else(|| DataError::Binary {
        path: None,
        offset: 0,
        field: "chunk stream",
        reason: "chunk stream held no chunks".into(),
    })?;
    Ok(Matrix::from_vec(data, rows, cols))
}

/// Iterator over the chunks of a byte stream.
///
/// Yields `Ok(batch)` per intact chunk. A checksum failure yields one
/// `Err` and the reader *continues* at the next frame (the damaged
/// chunk's extent is known from its protected header). Header damage
/// or truncation yields one `Err` and then the stream ends — without
/// a trustworthy length there is no boundary to resync to.
pub struct ChunkReader<'a> {
    buf: &'a [u8],
    offset: usize,
    dead: bool,
}

impl<'a> ChunkReader<'a> {
    /// Start reading chunks from the front of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            offset: 0,
            dead: false,
        }
    }

    /// Absolute byte offset of the next unread byte.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl Iterator for ChunkReader<'_> {
    type Item = Result<Matrix, DataError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (at, rest) = (self.offset, &self.buf[self.offset..]);
        if self.dead || rest.is_empty() {
            return None;
        }
        let error = |field, reason| {
            Some(Err(DataError::Binary {
                path: None,
                offset: at,
                field,
                reason,
            }))
        };
        let frame = match parse_frame(rest) {
            Ok(frame) => frame,
            Err((field, reason)) => {
                self.dead = true;
                return error(field, reason);
            }
        };
        let (rows, cols) = (frame.rows, frame.cols);
        if !frame.intact {
            // Recoverable — but the frame length came from the very
            // header the failed checksum no longer vouches for, so it
            // cannot be used to skip. Scan for the next frame that
            // validates end-to-end instead.
            self.offset = resync_from(self.buf, at + 1);
            let stored = frame.stored;
            return error(
                "chunk checksum",
                format!(
                    "checksum mismatch (stored {stored:#018x}); chunk of {rows}x{cols} skipped"
                ),
            );
        }
        let payload = &rest[CHUNK_HEADER_LEN..frame.len - 8];
        let data = payload
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap_or([0; 8])))
            .collect();
        self.offset += frame.len;
        Some(Ok(Matrix::from_vec(data, rows, cols)))
    }
}

/// A frame whose header parsed and whose bytes are all present.
struct Frame {
    rows: usize,
    cols: usize,
    /// Whole frame length, checksum included.
    len: usize,
    stored: u64,
    /// Whether the stored checksum matches the header and payload.
    intact: bool,
}

/// Parse the frame at the front of `rest` — the only reader of the
/// frame layout. Errors name the field that failed: magic, version,
/// an implausible size (checked before any payload-sized work) or
/// truncation.
fn parse_frame(rest: &[u8]) -> Result<Frame, (&'static str, String)> {
    if rest.len() < CHUNK_HEADER_LEN {
        let left = rest.len();
        let reason = format!("truncated: need {CHUNK_HEADER_LEN} header bytes, {left} left");
        return Err(("chunk header", reason));
    }
    if rest[..4] != *CHUNK_MAGIC {
        return Err(("chunk magic", "bad magic (not a PRCK chunk)".into()));
    }
    if rest[4] != CHUNK_VERSION {
        return Err(("chunk version", format!("unsupported version {}", rest[4])));
    }
    let rows = u32::from_le_bytes([rest[5], rest[6], rest[7], rest[8]]) as usize;
    let cols = u32::from_le_bytes([rest[9], rest[10], rest[11], rest[12]]) as usize;
    let Some(cells) = rows.checked_mul(cols).filter(|&c| c <= MAX_CHUNK_CELLS) else {
        return Err((
            "chunk header",
            format!("implausible chunk size {rows}x{cols}"),
        ));
    };
    let len = CHUNK_HEADER_LEN + cells * 8 + 8;
    if rest.len() < len {
        let left = rest.len();
        return Err((
            "chunk payload",
            format!("truncated: frame needs {len} bytes, {left} left"),
        ));
    }
    // Length checked above; the fallback is never hit.
    let stored = u64::from_le_bytes(rest[len - 8..len].try_into().unwrap_or([0; 8]));
    let intact = fnv1a64(&rest[..len - 8]) == stored;
    Ok(Frame {
        rows,
        cols,
        len,
        stored,
        intact,
    })
}

/// Byte-by-byte scan from `from` for the next fully valid frame; magic
/// bytes alone are only a candidate (payloads can contain `b"PRCK"`),
/// acceptance requires the whole frame to parse and its checksum to
/// verify. No valid frame → the end of the buffer.
fn resync_from(buf: &[u8], from: usize) -> usize {
    let mut at = from;
    while at + CHUNK_HEADER_LEN + 8 <= buf.len() {
        if buf[at..at + 4] == *CHUNK_MAGIC && parse_frame(&buf[at..]).is_ok_and(|f| f.intact) {
            return at;
        }
        at += 1;
    }
    buf.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultReader;

    fn batches() -> Vec<Matrix> {
        vec![
            Matrix::from_rows(&[[1.0, 2.0], [3.0, 4.0]], 2),
            Matrix::from_rows(&[[5.0, 6.0]], 2),
            Matrix::from_rows(&[[7.0, 8.0], [9.0, 10.0], [11.0, 12.0]], 2),
        ]
    }

    fn stream() -> Vec<u8> {
        let mut out = Vec::new();
        for b in batches() {
            out.extend_from_slice(&encode_chunk(&b).unwrap());
        }
        out
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let bytes = stream();
        let got: Vec<Matrix> = ChunkReader::new(&bytes).map(|r| r.unwrap()).collect();
        assert_eq!(got, batches());
    }

    #[test]
    fn encode_stream_slices_in_row_order() {
        let m = Matrix::from_rows(&[[0.0], [1.0], [2.0], [3.0], [4.0]], 1);
        let bytes = encode_chunk_stream(&m, 2).unwrap();
        let got: Vec<Matrix> = ChunkReader::new(&bytes).map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].rows(), 2);
        assert_eq!(got[2].rows(), 1);
        let flat: Vec<f64> = got.iter().flat_map(|b| b.as_slice().to_vec()).collect();
        assert_eq!(flat, m.as_slice());
    }

    #[test]
    fn bit_flip_fails_one_chunk_and_resyncs() {
        let mut bytes = stream();
        let first_frame = encode_chunk(&batches()[0]).unwrap().len();
        // Flip a payload bit in the middle chunk.
        bytes[first_frame + CHUNK_HEADER_LEN + 3] ^= 0x10;
        let results: Vec<_> = ChunkReader::new(&bytes).collect();
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // The third chunk is recovered intact after the resync.
        assert_eq!(results[2].as_ref().unwrap(), &batches()[2]);
    }

    #[test]
    fn truncation_is_a_single_located_error() {
        let bytes = stream();
        let first_frame = encode_chunk(&batches()[0]).unwrap().len();
        let faults = FaultReader::new(bytes);
        let cut = faults.truncated(first_frame + 5);
        let results: Vec<_> = ChunkReader::new(cut).collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        match err {
            DataError::Binary { offset, .. } => assert_eq!(*offset, first_frame),
            other => panic!("expected Binary, got {other:?}"),
        }
    }

    #[test]
    fn garbage_prefix_ends_the_stream_with_an_error() {
        let mut bytes = vec![0xAB; 32];
        bytes.extend_from_slice(&stream());
        let results: Vec<_> = ChunkReader::new(&bytes).collect();
        assert_eq!(results.len(), 1);
        assert!(results[0].is_err());
    }

    #[test]
    fn implausible_header_sizes_do_not_allocate() {
        let mut bytes = encode_chunk(&batches()[0]).unwrap();
        bytes[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        let results: Vec<_> = ChunkReader::new(&bytes).collect();
        assert_eq!(results.len(), 1);
        let err = results[0].as_ref().unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    #[test]
    fn oversized_batch_rejected_at_encode() {
        let m = Matrix::zeros(MAX_CHUNK_CELLS + 1, 1);
        assert!(encode_chunk(&m).is_err());
        assert!(encode_chunk_stream(&m, MAX_CHUNK_CELLS + 1).is_err());
        // But slicing the same matrix into bounded batches works.
        assert!(encode_chunk_stream(&m, 1024).is_ok());
    }

    #[test]
    fn strict_decode_joins_frames_and_rejects_what_the_reader_skips() {
        let bytes = stream();
        let joined: Vec<f64> = batches()
            .iter()
            .flat_map(|b| b.as_slice().to_vec())
            .collect();
        let m = decode_chunks(&bytes).unwrap();
        assert_eq!((m.rows(), m.cols()), (6, 2));
        assert_eq!(m.as_slice(), joined.as_slice());
        let mut flipped = bytes.clone();
        flipped[CHUNK_HEADER_LEN + 3] ^= 0x10;
        assert!(decode_chunks(&flipped)
            .unwrap_err()
            .to_string()
            .contains("checksum"));
        let mut widened = bytes;
        widened.extend_from_slice(&encode_chunk(&Matrix::from_rows(&[[1.0]], 1)).unwrap());
        let err = decode_chunks(&widened).unwrap_err();
        assert!(
            err.to_string().contains("width changed from 2 to 1"),
            "{err}"
        );
        assert!(decode_chunks(&[]).is_err());
        let empty = encode_chunk(&Matrix::zeros(0, 3)).unwrap();
        let frames: Vec<_> = ChunkReader::new(&empty).collect();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].as_ref().unwrap().cols(), 3);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        assert!(ChunkReader::new(&[]).next().is_none());
    }
}
