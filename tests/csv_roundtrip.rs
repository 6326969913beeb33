//! Dataset I/O integration: generated datasets survive a CSV roundtrip
//! bit-exactly enough that refitting produces the identical model, and
//! the streaming CSV decoder agrees with a line-at-a-time reference
//! parser on every input, well-formed or not.

use proclus::data::fault::FaultReader;
use proclus::data::io::{read_csv, write_csv};
use proclus::prelude::*;
use rand::{Rng, SeedableRng};
use std::env;

fn tmp(name: &str) -> std::path::PathBuf {
    env::temp_dir().join(format!("proclus-it-{name}-{}", std::process::id()))
}

#[test]
fn roundtrip_preserves_labels_and_refit() {
    let data = SyntheticSpec::new(1_000, 8, 2, 3.0).seed(5).generate();
    let path = tmp("roundtrip.csv");
    write_csv(&path, &data.points, Some(&data.labels)).expect("write");
    let (points2, labels2) = read_csv(&path).expect("read");
    std::fs::remove_file(&path).ok();

    assert_eq!(points2.rows(), data.points.rows());
    assert_eq!(points2.cols(), data.points.cols());
    assert_eq!(labels2.as_deref(), Some(data.labels.as_slice()));

    // CSV formats f64 losslessly via the shortest-roundtrip Display,
    // so a refit on the reloaded matrix is identical.
    let a = Proclus::new(2, 3.0).seed(9).fit(&data.points).unwrap();
    let b = Proclus::new(2, 3.0).seed(9).fit(&points2).unwrap();
    assert_eq!(a.assignment(), b.assignment());
    assert_eq!(a.objective(), b.objective());
}

#[test]
fn unlabeled_roundtrip() {
    let data = SyntheticSpec::new(200, 4, 2, 2.0).seed(6).generate();
    let path = tmp("unlabeled.csv");
    write_csv(&path, &data.points, None).expect("write");
    let (points2, labels2) = read_csv(&path).expect("read");
    std::fs::remove_file(&path).ok();
    assert!(labels2.is_none());
    assert_eq!(points2.rows(), 200);
}

// -- differential test: streaming decoder vs the line-at-a-time reference --

mod reference {
    //! The line-at-a-time CSV parser the streaming decoder replaced,
    //! kept as the obviously-correct reference: `BufRead::lines` (a
    //! `String` and UTF-8 check per line), then `split(',')` collected
    //! into a vector per line.

    use proclus::data::{DataError, Label};
    use proclus::prelude::Matrix;
    use std::io::BufRead;
    use std::path::Path;

    pub fn read_csv_from(
        path: &Path,
        r: impl BufRead,
    ) -> Result<(Matrix, Option<Vec<Label>>), DataError> {
        let oserr = |e| DataError::io(path, e);
        let at = |line: usize, column: Option<usize>, token: Option<&str>, reason: String| {
            DataError::Csv {
                path: path.into(),
                line,
                column,
                token: token.map(str::to_string),
                reason,
            }
        };
        let mut lines = r.lines();
        let header = lines
            .next()
            .ok_or_else(|| at(1, None, None, "empty file".into()))?
            .map_err(oserr)?;
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

        let mut data: Vec<f64> = Vec::new();
        let mut labels: Vec<Label> = Vec::new();
        let mut rows = 0usize;
        for (lineno, line) in lines.enumerate() {
            let line = line.map_err(oserr)?;
            if line.is_empty() {
                continue;
            }
            let ln = lineno + 2;
            let fields: Vec<&str> = line.split(',').collect();
            let expected = d + usize::from(has_labels);
            if fields.len() != expected {
                return Err(at(
                    ln,
                    None,
                    None,
                    format!(
                        "ragged row: expected {expected} fields, got {}",
                        fields.len()
                    ),
                ));
            }
            for (j, f) in fields[..d].iter().enumerate() {
                let v: f64 = f
                    .parse()
                    .map_err(|_| at(ln, Some(j + 1), Some(f), "cannot parse as a number".into()))?;
                if !v.is_finite() {
                    return Err(at(ln, Some(j + 1), Some(f), "non-finite coordinate".into()));
                }
                data.push(v);
            }
            if has_labels {
                let tok = fields[d];
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

    fn parse_label(tok: &str) -> Option<Label> {
        match tok {
            "O" | "Out." => Some(Label::Outlier),
            _ => tok
                .strip_prefix('C')
                .and_then(|rest| rest.parse().ok())
                .map(Label::Cluster),
        }
    }
}

/// What a decode produced, in the form two decoders are compared on:
/// shape, value bits and labels on success; variant, line, column,
/// token and message on failure.
#[derive(Debug, PartialEq)]
enum Outcome {
    Decoded {
        rows: usize,
        cols: usize,
        bits: Vec<u64>,
        labels: Option<Vec<Label>>,
    },
    Csv {
        line: usize,
        column: Option<usize>,
        token: Option<String>,
        message: String,
    },
    Io {
        kind: std::io::ErrorKind,
        message: String,
    },
    Other(String),
}

fn outcome(r: Result<(Matrix, Option<Vec<Label>>), proclus::data::DataError>) -> Outcome {
    use proclus::data::DataError;
    match r {
        Ok((m, labels)) => Outcome::Decoded {
            rows: m.rows(),
            cols: m.cols(),
            bits: m.as_slice().iter().map(|v| v.to_bits()).collect(),
            labels,
        },
        Err(e) => {
            let message = e.to_string();
            match e {
                DataError::Csv {
                    line,
                    column,
                    token,
                    ..
                } => Outcome::Csv {
                    line,
                    column,
                    token,
                    message,
                },
                DataError::Io { source, .. } => Outcome::Io {
                    kind: source.kind(),
                    message,
                },
                _ => Outcome::Other(message),
            }
        }
    }
}

/// Decode `bytes` as a request body and as a file, each with the
/// streaming decoder and the reference, and require identical outcomes.
fn assert_decoders_agree(file: &std::path::Path, bytes: &[u8], what: &str) {
    use proclus::data::io::read_csv_bytes;
    use std::path::Path;
    let origin = Path::new("<body>");
    let body = outcome(read_csv_bytes(origin, bytes));
    assert_eq!(
        body,
        outcome(reference::read_csv_from(origin, bytes)),
        "read_csv_bytes on {what}"
    );
    std::fs::write(file, bytes).expect("write input");
    let reference = outcome(reference::read_csv_from(
        file,
        std::io::BufReader::new(std::fs::File::open(file).expect("open input")),
    ));
    assert_eq!(outcome(read_csv(file)), reference, "read_csv on {what}");
}

#[test]
fn streaming_decoder_matches_the_reference_parser() {
    let file = tmp("differential.csv");
    let mut cases: Vec<(&str, Vec<u8>)> = vec![
        ("crlf endings", b"x0,x1\r\n1,2\r\n3.5,-4\r\n".to_vec()),
        ("stray mid-line cr", b"x0,x1\n1\r,2\n".to_vec()),
        ("cr before cr-lf", b"x0,x1\n1,2\r\r\n".to_vec()),
        ("cr at eof without lf", b"x0\n1\n2\r".to_vec()),
        ("cr-only line endings", b"x0\r1\r2\r".to_vec()),
        ("blank lines", b"x0,x1\n\n1,2\n\n\n3,4\n\n".to_vec()),
        (
            "error after blank lines",
            b"x0,x1\n\n1,2\n\n\nbad,2\n".to_vec(),
        ),
        ("crlf blank lines", b"x0\r\n\r\n1\r\n\r\nx\r\n".to_vec()),
        ("no trailing newline", b"x0,x1\n1,2\n3,4".to_vec()),
        ("header only", b"x0,x1\n".to_vec()),
        ("header only without newline", b"x0,x1".to_vec()),
        ("header only with label", b"x0,label\n".to_vec()),
        ("empty input", Vec::new()),
        ("empty header line", b"\n1\n".to_vec()),
        ("label-only header", b"label\n1\n".to_vec()),
        ("header gap", b"x0,x2\n1,2\n".to_vec()),
        ("header with trailing comma", b"x0,\n1,\n".to_vec()),
        ("header extra column after label", b"x0,label,x1\n".to_vec()),
        (
            "label column",
            b"x0,x1,label\n1,2,C0\n3,4,O\n5,6,Out.\n7,8,C12\n".to_vec(),
        ),
        ("bad label", b"x0,label\n1,C0\n2,c1\n".to_vec()),
        ("empty label", b"x0,label\n1,\n".to_vec()),
        ("negative cluster label", b"x0,label\n1,C-1\n".to_vec()),
        (
            "sign and point tokens",
            b"x0,x1,x2,x3\n.5,5.,+1.5,-0\n-.5,+.5,0.,00012\n".to_vec(),
        ),
        ("lone minus", b"x0\n-\n".to_vec()),
        ("lone plus", b"x0\n+\n".to_vec()),
        ("lone point", b"x0\n.\n".to_vec()),
        (
            "exponents",
            b"x0,x1,x2,x3\n1e-9,4e12,1E+3,2.5e-308\n5e-324,1.7976931348623157e308,1e-400,0e999\n"
                .to_vec(),
        ),
        ("overflowing exponent", b"x0\n1e400\n".to_vec()),
        ("inf", b"x0\ninf\n".to_vec()),
        ("negative infinity", b"x0,x1\n1,-infinity\n".to_vec()),
        ("nan", b"x0,x1\n1,NaN\n".to_vec()),
        ("hex and separators", b"x0,x1\n0x10,1_000\n".to_vec()),
        ("space in token", b"x0,x1\n1, 2\n".to_vec()),
        ("empty field", b"x0,x1\n1,\n".to_vec()),
        ("first bad column wins", b"x0,x1,x2\n1,nan,zz\n".to_vec()),
        ("ragged beats bad token", b"x0,x1\nbad,2,3\n".to_vec()),
        ("ragged short row", b"x0,x1\n1,2\n3\n".to_vec()),
        ("ragged long row", b"x0,x1\n1,2,3,4\n".to_vec()),
        (
            "bad coordinate beats bad label",
            b"x0,label\nzz,wat\n".to_vec(),
        ),
        ("non-utf8 header", b"x0,\xffx1\n1,2\n".to_vec()),
        ("non-utf8 data line", b"x0,x1\n1,2\n3,\xfe4\n".to_vec()),
        ("non-utf8 label", b"x0,label\n1,C\xc3\n".to_vec()),
        ("non-utf8 after a bad line", b"x0\nbad\n\xff\n".to_vec()),
        ("bad line after non-utf8", b"x0\n\xff\nbad\n".to_vec()),
        ("multibyte utf8 token", "x0\n1\u{e9}\n".as_bytes().to_vec()),
    ];

    // Shortest-roundtrip, exponent and fixed renderings of arbitrary
    // finite doubles, so values are compared bit for bit.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC5F);
    let mut text = String::from("x0,x1,x2\n");
    for _ in 0..500 {
        let v = loop {
            let v = f64::from_bits(rng.random::<u64>());
            if v.is_finite() {
                break v;
            }
        };
        let w = rng.random::<f64>() * 200.0 - 100.0;
        text.push_str(&format!("{v},{w:e},{w:.17}\n"));
    }
    cases.push(("random doubles", text.into_bytes()));

    // A generated dataset large enough that lines straddle the file
    // reader's buffer boundaries.
    let data = SyntheticSpec::new(2_000, 20, 5, 5.0).seed(1).generate();
    write_csv(&file, &data.points, Some(&data.labels)).expect("write");
    cases.push(("generated dataset", std::fs::read(&file).expect("read")));

    for (what, bytes) in &cases {
        assert_decoders_agree(&file, bytes, what);
    }

    // Every truncation, bit flip and seeded garbage run of a small
    // labelled file.
    let small = SyntheticSpec::new(40, 3, 2, 2.0).seed(77).generate();
    write_csv(&file, &small.points, Some(&small.labels)).expect("write");
    let fr = FaultReader::new(std::fs::read(&file).expect("read"));
    for cut in 0..fr.len() {
        assert_decoders_agree(&file, fr.truncated(cut), &format!("truncation at {cut}"));
    }
    for (i, garbled) in fr.garbage_runs(0xC5F, 256).iter().enumerate() {
        assert_decoders_agree(&file, garbled, &format!("garbage run #{i}"));
    }
    for (i, flipped) in fr.bit_flips().enumerate() {
        let origin = std::path::Path::new("<body>");
        assert_eq!(
            outcome(proclus::data::io::read_csv_bytes(origin, &flipped)),
            outcome(reference::read_csv_from(origin, &flipped[..])),
            "read_csv_bytes on bit flip #{i}"
        );
    }
    std::fs::remove_file(&file).ok();
}
