//! Byte pins for the dataset writers: the CSV, `PRCL` and `PRCK`
//! encodings of one fixed generated dataset must never move, whichever
//! code path produces them.

use proclus::data::io::write_csv;
use proclus::data::{binio, encode_chunk_stream};
use proclus::math::fnv1a64;
use proclus::prelude::*;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("proclus-it-bytes-{}-{name}", std::process::id()))
}

fn digest_of(path: &Path) -> u64 {
    let bytes = std::fs::read(path).expect("read back");
    std::fs::remove_file(path).ok();
    fnv1a64(&bytes)
}

#[test]
fn writer_bytes_match_pinned_digests() {
    let data = SyntheticSpec::new(300, 7, 3, 3.0).seed(23).generate();
    let labels = Some(data.labels.as_slice());
    let mut got = Vec::new();
    for (name, labeled) in [("labeled", labels), ("bare", None)] {
        let csv = tmp(&format!("{name}.csv"));
        write_csv(&csv, &data.points, labeled).expect("write csv");
        got.push((format!("csv/{name}"), digest_of(&csv)));
        let prcl = tmp(&format!("{name}.prcl"));
        binio::write_binary(&prcl, &data.points, labeled).expect("write prcl");
        got.push((format!("prcl/{name}"), digest_of(&prcl)));
    }
    let chunks = encode_chunk_stream(&data.points, 64).expect("encode chunks");
    got.push(("chunks/64".into(), fnv1a64(&chunks)));
    let want = [
        ("csv/labeled", 0x1c4c_0135_b57d_42dau64),
        ("prcl/labeled", 0x8477_054d_d385_2bd9),
        ("csv/bare", 0xb3a9_0219_8122_ee11),
        ("prcl/bare", 0x18f7_e54c_1507_d587),
        ("chunks/64", 0xab7c_bacf_b0d5_5c82),
    ];
    let got: Vec<(&str, u64)> = got.iter().map(|(n, h)| (n.as_str(), *h)).collect();
    assert_eq!(got, want, "writer bytes moved");
}
