//! Pool-pass equivalence tier: every pass the worker pool runs — fused
//! locality + `X`, assignment, assignment + `X`, distance columns,
//! cluster `X` and the refinement reassignment — must equal its plain
//! scalar reference **bit for bit**, for every metric, thread count and
//! index setting, on matrices built to expose any deviation (exact
//! distance ties, duplicated rows, mixed 1e±9 magnitudes) and on the
//! whole workload zoo. The opt-in `f32` fast path must also leave the
//! recorded event stream byte-identical.

use proclus::core::assign::{assign_points, group_members};
use proclus::core::dims::{average_dimension_distances, find_dimensions};
use proclus::core::locality::{localities, medoid_deltas};
use proclus::core::pool::with_pool;
use proclus::core::refine::refine_opt;
use proclus::core::NeighborIndex;
use proclus::obs::JsonlRecorder;
use proclus::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("proclus-colmn-{name}-{}", std::process::id()))
}

/// Quantized coordinates force many exactly-equal distances, so the
/// strict-`<` lowest-index tie-breaking is exercised everywhere.
fn tie_heavy(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * d)
        .map(|_| f64::from(rng.random_range(0u32..6)))
        .collect();
    Matrix::from_vec(data, n, d)
}

/// A few prototype rows repeated across the matrix: duplicate points
/// tie on every metric simultaneously.
fn duplicate_rows(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let protos: Vec<Vec<f64>> = (0..32)
        .map(|_| (0..d).map(|_| rng.random_range(0.0..10.0)).collect())
        .collect();
    let data: Vec<f64> = (0..n).flat_map(|p| protos[p % 32].clone()).collect();
    Matrix::from_vec(data, n, d)
}

/// Coordinates spanning 1e-9 .. 1e9: any reassociation of the
/// accumulation order shows up in the low bits immediately.
fn mixed_magnitude(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * d)
        .map(|i| {
            let base: f64 = rng.random_range(-1.0..1.0);
            match i % 3 {
                0 => base * 1.0e9,
                1 => base * 1.0e-9,
                _ => base,
            }
        })
        .collect();
    Matrix::from_vec(data, n, d)
}

/// Epoch 0 of every zoo scenario, generated in-process, as
/// `(name, points, cluster count)`.
fn zoo() -> Vec<(String, Matrix, usize)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("scenarios/ directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "scn"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).expect("scenario file");
            let spec = ScenarioSpec::parse(&text).expect("scenario parses");
            let mut data = Vec::with_capacity(spec.base.n * spec.cols());
            spec.for_each_row(|epoch, row, _| {
                if epoch == 0 {
                    data.extend_from_slice(row);
                }
            })
            .expect("scenario generates");
            let n = data.len() / spec.cols();
            let points = Matrix::from_vec(data, n, spec.cols());
            (spec.name.clone(), points, spec.base.k)
        })
        .collect()
}

fn assert_bits_eq(a: &[Vec<f64>], b: &[Vec<f64>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: shape");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{ctx}: row {i} shape");
        for (j, (x, y)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: [{i}][{j}] {x:e} vs {y:e}");
        }
    }
}

/// Worker counts: serial, the small counts a 2-CPU machine runs, odd
/// counts that split the blocks unevenly, and counts far above the
/// number of blocks.
const THREADS: [usize; 7] = [1, 2, 3, 5, 8, 16, 64];

/// Compare all six pool passes on `points` with their scalar
/// references, under every metric, thread count and index setting.
/// Medoids are `k` evenly spaced rows; dimension sets come from
/// FindDimensions over their localities.
fn check_against_references(name: &str, points: &Matrix, k: usize) {
    let (n, d) = (points.rows(), points.cols());
    let medoids: Vec<usize> = (0..k).map(|i| i * n / k + 1).collect();
    let total_dims = k * (2 * d / 3).max(2);
    for metric in [
        DistanceKind::Manhattan,
        DistanceKind::Euclidean,
        DistanceKind::Chebyshev,
    ] {
        let deltas = medoid_deltas(points, &medoids, metric);
        let locs = localities(points, &medoids, &deltas, metric);
        let locality_x = average_dimension_distances(points, &medoids, &locs);
        let dims = find_dimensions(points, &medoids, &locs, total_dims);
        let assignment = assign_points(points, &medoids, &dims, metric);
        let all: Vec<Option<usize>> = assignment.iter().map(|&a| Some(a)).collect();
        let clusters = group_members(&all, k);
        let assign_x = average_dimension_distances(points, &medoids, &clusters);
        let columns: Vec<Vec<f64>> = medoids
            .iter()
            .zip(&dims)
            .map(|(&m, di)| {
                (0..n)
                    .map(|p| metric.eval_segmental(points.row(p), points.row(m), di))
                    .collect()
            })
            .collect();
        let refined = refine_opt(points, &medoids, &clusters, total_dims, metric, true);
        let refined_clusters = group_members(&refined.assignment, k);
        let cluster_x = average_dimension_distances(points, &medoids, &refined_clusters);

        for threads in THREADS {
            for indexed in [false, true] {
                let ctx = format!("{name}/{metric:?}/t{threads}/index={indexed}");
                with_pool(points, metric, threads, false, |pool| {
                    if indexed {
                        pool.set_index(Some(Arc::new(NeighborIndex::build(points, metric))));
                    }
                    let (got_locs, got_x) = pool.fused_round(&medoids, &deltas);
                    assert_eq!(got_locs, locs, "{ctx}: localities");
                    assert_bits_eq(&got_x, &locality_x, &format!("{ctx}: locality X"));
                    assert_eq!(pool.assign(&medoids, &dims), assignment, "{ctx}: assign");
                    let (got_assign, got_ax) = pool.assign_x(&medoids, &dims);
                    assert_eq!(got_assign, assignment, "{ctx}: assign+X winners");
                    assert_bits_eq(&got_ax, &assign_x, &format!("{ctx}: assign+X sums"));
                    assert_bits_eq(
                        &pool.distance_columns(&medoids, &dims),
                        &columns,
                        &format!("{ctx}: columns"),
                    );
                    let got_cx = pool.cluster_x(&medoids, Arc::new(refined.assignment.clone()));
                    assert_bits_eq(&got_cx, &cluster_x, &format!("{ctx}: cluster X"));
                    assert_eq!(
                        pool.refine_assign(&medoids, &refined.dims, &refined.spheres),
                        refined.assignment,
                        "{ctx}: refine assignment"
                    );
                });
            }
        }
    }
}

/// The differential test: every pool pass equals its scalar reference
/// bit for bit, on the adversarial matrices (N = 3·1024 + 17, so the
/// last block is ragged) and on all 14 zoo scenarios.
#[test]
fn pool_passes_are_bit_identical_to_scalar_references() {
    let (n, d) = (3 * 1024 + 17, 12);
    for (family, points) in [
        ("tie-heavy", tie_heavy(n, d, 21)),
        ("duplicate-rows", duplicate_rows(n, d, 22)),
        ("mixed-magnitude", mixed_magnitude(n, d, 23)),
    ] {
        check_against_references(family, &points, 3);
    }
    let zoo = zoo();
    assert_eq!(zoo.len(), 14, "the zoo has 14 scenarios");
    for (name, points, k) in &zoo {
        check_against_references(name, points, *k);
    }
}

/// The `f32` fast path is exactness-gated: a traced fit with
/// `fast_math(true)` must produce a byte-identical `events.jsonl` to
/// the default fit — every locality, swap, assignment, and objective
/// event equal element for element. The round cache is disabled so the
/// assignment passes evaluate distances directly and the screen
/// actually engages (with the cache on, assignment is served from
/// cached exact columns and there is no per-pair work to screen).
#[test]
fn fast_math_fit_event_stream_is_byte_identical() {
    let data = SyntheticSpec::new(1_500, 10, 3, 3.0).seed(404).generate();
    let run = |fast: bool, tag: &str| {
        let dir = tmp(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let rec = JsonlRecorder::create(&dir).expect("recorder");
        Proclus::new(3, 3.0)
            .seed(17)
            .restarts(2)
            .round_cache(false)
            .fast_math(fast)
            .fit_traced(&data.points, &rec)
            .expect("fit");
        rec.finish(
            proclus::obs::json::Json::Obj(Vec::new()),
            proclus::obs::json::Json::Obj(Vec::new()),
        )
        .expect("finish");
        let events = std::fs::read(dir.join(proclus::obs::EVENTS_FILE)).expect("events");
        let manifest =
            std::fs::read_to_string(dir.join(proclus::obs::MANIFEST_FILE)).expect("manifest");
        std::fs::remove_dir_all(&dir).ok();
        (events, manifest)
    };
    let (default_events, default_manifest) = run(false, "default");
    let (fast_events, fast_manifest) = run(true, "fast");
    assert_eq!(
        default_events, fast_events,
        "fast-math changed the event stream"
    );
    // The measurement channel differs by design: the gated run reports
    // its work-saved counters, the default run must not.
    assert!(
        fast_manifest.contains("fastmath.screened"),
        "{fast_manifest}"
    );
    assert!(
        !default_manifest.contains("fastmath."),
        "{default_manifest}"
    );
    // The screen must have genuinely run: a zero screened count would
    // mean the byte-equality above proved nothing about the gate.
    let screened = counter_value(&fast_manifest, "fastmath.screened");
    let excluded = counter_value(&fast_manifest, "fastmath.excluded");
    let verified = counter_value(&fast_manifest, "fastmath.verified");
    assert!(screened > 0, "fast path never engaged: {fast_manifest}");
    assert_eq!(screened, excluded + verified, "{fast_manifest}");
}

/// Pull a `"name": <integer>` counter out of the run manifest.
fn counter_value(manifest: &str, name: &str) -> u64 {
    let key = format!("\"{name}\"");
    let at = manifest.find(&key).unwrap_or_else(|| {
        panic!("counter {name} missing from manifest: {manifest}");
    });
    manifest[at + key.len()..]
        .trim_start_matches([':', ' '])
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|e| panic!("counter {name} unparsable: {e}"))
}

/// Chebyshev exercises the `f32` max-reduction screen; the event
/// stream must still be byte-identical.
#[test]
fn fast_math_is_exact_under_chebyshev_too() {
    let data = SyntheticSpec::new(900, 8, 2, 3.0).seed(11).generate();
    let run = |fast: bool, tag: &str| {
        let dir = tmp(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let rec = JsonlRecorder::create(&dir).expect("recorder");
        Proclus::new(2, 3.0)
            .seed(5)
            .restarts(1)
            .round_cache(false)
            .distance(DistanceKind::Chebyshev)
            .fast_math(fast)
            .fit_traced(&data.points, &rec)
            .expect("fit");
        rec.finish(
            proclus::obs::json::Json::Obj(Vec::new()),
            proclus::obs::json::Json::Obj(Vec::new()),
        )
        .expect("finish");
        let events = std::fs::read(dir.join(proclus::obs::EVENTS_FILE)).expect("events");
        std::fs::remove_dir_all(&dir).ok();
        events
    };
    assert_eq!(run(false, "cheb-default"), run(true, "cheb-fast"));
}
