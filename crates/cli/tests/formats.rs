//! Every command reads back what the tool itself writes: the format of
//! a file is named by its extension, in any case, for readers and
//! writers alike.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let id = std::process::id();
    let dir = std::env::temp_dir().join(format!("proclus-cli-formats-{id}-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `proclus` with whitespace-separated `args` in `dir`;
/// `{scenarios}` expands to the repository's scenario zoo.
fn run(dir: &Path, args: &str) -> Output {
    let zoo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let args = args.replace("{scenarios}", &zoo.display().to_string());
    Command::new(env!("CARGO_BIN_EXE_proclus"))
        .args(args.split_whitespace())
        .current_dir(dir)
        .output()
        .unwrap()
}

/// [`run`], asserting success; returns stdout.
fn proclus(dir: &Path, args: &str) -> String {
    let out = run(dir, args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "proclus {args}: {stdout}{stderr}");
    stdout
}

#[test]
fn scenario_with_upper_case_csv_extension_is_inspected_as_csv() {
    let dir = scratch("upper-csv");
    proclus(
        &dir,
        "scenario --spec {scenarios}/baseline-case1.scn --out s.CSV",
    );
    let text = proclus(&dir, "inspect --input s.CSV");
    assert!(
        text.contains("1000 points x 20 dimensions, labels: yes"),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenario_chunks_are_read_by_inspect_and_fit() {
    let dir = scratch("chunks");
    proclus(
        &dir,
        "scenario --spec {scenarios}/baseline-case1.scn --out z.chunks",
    );
    let text = proclus(&dir, "inspect --input z.chunks");
    assert!(
        text.contains("1000 points x 20 dimensions, labels: no"),
        "{text}"
    );
    proclus(
        &dir,
        "fit --input z.chunks --k 5 --l 7 --restarts 1 --out f.csv",
    );
    let text = proclus(&dir, "inspect --input f.csv");
    assert!(
        text.contains("1000 points x 20 dimensions, labels: yes"),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generated_chunks_stream_without_quarantine() {
    let dir = scratch("generate-chunks");
    proclus(
        &dir,
        "generate --n 600 --dims 6 --clusters 2 --avg-cluster-dims 3 --seed 5 --out g.chunks",
    );
    let text = proclus(
        &dir,
        "stream --input g.chunks --registry reg --k 2 --l 3 --window 400 --min-fit 300 \
         --restarts 1",
    );
    assert!(
        text.contains("600 points accepted, 0 quarantined"),
        "{text}"
    );
    assert!(text.contains("promoted as generation 1"), "{text}");
    assert!(text.contains("serving: generation 1"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn assignments_are_never_written_into_label_free_chunks() {
    let dir = scratch("assignment-chunks");
    proclus(
        &dir,
        "generate --n 600 --dims 6 --clusters 2 --avg-cluster-dims 3 --seed 5 --out g.csv",
    );
    for cmd in [
        "fit --input g.csv --k 2 --l 3 --restarts 1 --out found.chunks",
        "orclus --input g.csv --k 2 --l 3 --out found.chunks",
    ] {
        let out = run(&dir, cmd);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(65), "{cmd}: {stderr}");
        assert!(
            stderr.contains(".chunks file, which holds none"),
            "{cmd}: {stderr}"
        );
        assert!(!dir.join("found.chunks").exists(), "{cmd}");
        assert!(!dir.join("found.chunks.tmp").exists(), "{cmd}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
