//! Neighbor-index tier: the pruning index must be a pure performance
//! layer. Its sketch and triangle bounds may only ever *prune* pairs
//! whose exact distance provably exceeds the query radius (no false
//! negatives), so every indexed query returns results bit-identical to
//! the plain scan — across all three metrics, random seeds, thread
//! counts, and the full fit pipeline. The `index.*` counters must
//! account for every candidate pair and surface through the recorder.

use proclus::core::assign::{assign_points, assign_points_pruned};
use proclus::core::index::{NeighborIndex, PruneStats, SKETCH_ROWS};
use proclus::core::locality::{localities, localities_indexed, medoid_deltas};
use proclus::core::pool::with_pool;
use proclus::math::{DistanceKind, Matrix};
use proclus::obs::RingRecorder;
use proclus::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const METRICS: [DistanceKind; 3] = [
    DistanceKind::Manhattan,
    DistanceKind::Euclidean,
    DistanceKind::Chebyshev,
];

/// Clustered points (so the bounds have structure to exploit) plus a
/// sprinkling of uniform noise.
fn test_points(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * d);
    for p in 0..n {
        let center = (p % 3) as f64 * 40.0;
        for _ in 0..d {
            if p % 11 == 0 {
                data.push(rng.random_range(-100.0..100.0f64));
            } else {
                data.push(center + rng.random_range(-2.0..2.0f64));
            }
        }
    }
    Matrix::from_vec(data, n, d)
}

/// The range query never loses a point: the indexed locality scan is
/// equal (not merely superset-consistent — the survivors are verified
/// exactly, so equality is the stronger statement the engine relies
/// on) to the plain scan, for every metric and seed, while actually
/// pruning, and with every (point, medoid) pair accounted as either
/// pruned or verified.
#[test]
fn indexed_localities_match_the_plain_scan_exactly() {
    for metric in METRICS {
        for seed in [1u64, 7, 42] {
            let m = test_points(600, 8, seed);
            let medoids = vec![0usize, 150, 300, 450];
            let deltas = medoid_deltas(&m, &medoids, metric);
            let plain = localities(&m, &medoids, &deltas, metric);

            let index = Arc::new(NeighborIndex::build(&m, metric));
            let mut stats = PruneStats::default();
            let indexed = localities_indexed(&m, &medoids, &deltas, metric, &index, &mut stats);

            assert_eq!(plain, indexed, "{metric:?} seed {seed}");
            let pruned =
                stats.range_sketch_pruned + stats.range_triangle_pruned + stats.range_prefix_pruned;
            assert!(pruned > 0, "{metric:?} seed {seed}: pruning inert");
            assert_eq!(
                pruned + stats.range_verified,
                (m.rows() * medoids.len()) as u64,
                "{metric:?} seed {seed}: every candidate pair accounted for"
            );
        }
    }
}

/// Same property for the nearest-medoid query, and the scalar pruned
/// path agrees with the pool path at several thread counts.
#[test]
fn indexed_nearest_medoid_matches_the_plain_scan_exactly() {
    for metric in METRICS {
        for seed in [3u64, 19, 77] {
            // Dimension sets of >= NEAREST_MIN_DIMS dimensions engage
            // the bounded evaluation; one small set keeps the mixed
            // case honest.
            let m = test_points(500, 12, seed);
            let medoids = vec![10usize, 140, 260, 410];
            let dims = vec![
                (0..10).collect::<Vec<_>>(),
                (1..11).collect(),
                (2..12).collect(),
                vec![0, 5, 6],
            ];
            let plain = assign_points(&m, &medoids, &dims, metric);

            let mut stats = PruneStats::default();
            let pruned = assign_points_pruned(&m, &medoids, &dims, metric, &mut stats);
            assert_eq!(plain, pruned, "{metric:?} seed {seed}: scalar");
            assert!(stats.nearest_pruned > 0, "{metric:?} seed {seed}: inert");
            assert_eq!(
                stats.nearest_pruned + stats.nearest_verified,
                (m.rows() * medoids.len()) as u64,
                "{metric:?} seed {seed}: every candidate accounted for"
            );

            for threads in [1usize, 4] {
                let got = with_pool(&m, metric, threads, false, |pool| {
                    pool.set_index(Some(Arc::new(NeighborIndex::build(&m, metric))));
                    pool.assign(&medoids, &dims)
                });
                assert_eq!(plain, got, "{metric:?} seed {seed}: {threads} threads");
            }
        }
    }
}

/// Adversarial inputs for a lower bound: points straddling the exact
/// radius within a sliver of float noise, huge magnitudes, and exact
/// duplicates. The slack margin must keep every pruned pair a true
/// negative (the indexed result stays equal to the plain one).
#[test]
fn near_boundary_and_extreme_magnitudes_never_lose_points() {
    for metric in METRICS {
        for scale in [1.0f64, 1e-9, 1e9] {
            let mut rng = StdRng::seed_from_u64(0xB0DA);
            let n = 400;
            let d = 6;
            let mut data = Vec::with_capacity(n * d);
            for p in 0..n {
                for j in 0..d {
                    let v = if p % 7 == 0 {
                        // Exact duplicates of the first medoid row.
                        (j as f64) * scale
                    } else {
                        rng.random_range(0.0..10.0f64) * scale
                    };
                    data.push(v);
                }
            }
            let m = Matrix::from_vec(data, n, d);
            let medoids = vec![0usize, 133, 266];
            let deltas = medoid_deltas(&m, &medoids, metric);
            let plain = localities(&m, &medoids, &deltas, metric);
            let index = Arc::new(NeighborIndex::build(&m, metric));
            let mut stats = PruneStats::default();
            let indexed = localities_indexed(&m, &medoids, &deltas, metric, &index, &mut stats);
            assert_eq!(plain, indexed, "{metric:?} scale {scale}");
        }
    }
}

/// End-to-end: a traced indexed fit exposes the `index.*` counters
/// through the recorder's measurement channel, they balance, and
/// disabling the index via the builder removes both the counters and
/// the index phase without touching the events (the invariant-tier
/// test pins full event equality; this one pins the observability
/// contract).
#[test]
fn fit_exposes_balanced_index_counters() {
    // Average dimensionality of 10 keeps the per-medoid sets at or
    // above NEAREST_MIN_DIMS, so the nearest-medoid pruning engages.
    let data = SyntheticSpec::new(1_200, 20, 3, 10.0).seed(2024).generate();

    let rec = RingRecorder::new(1 << 16);
    let model = Proclus::new(3, 10.0)
        .seed(17)
        .fit_traced(&data.points, &rec)
        .expect("indexed fit");
    let verified = rec.counter_value("index.range_verified");
    let pruned = rec.counter_value("index.range_sketch_pruned")
        + rec.counter_value("index.range_triangle_pruned")
        + rec.counter_value("index.range_prefix_pruned");
    assert!(verified > 0, "indexed fit verified nothing");
    assert!(pruned > 0, "indexed fit pruned nothing");
    assert!(
        rec.counter_value("index.nearest_pruned") > 0,
        "nearest-medoid pruning inert in the fit"
    );

    let rec_off = RingRecorder::new(1 << 16);
    let model_off = Proclus::new(3, 10.0)
        .seed(17)
        .neighbor_index(false)
        .fit_traced(&data.points, &rec_off)
        .expect("unindexed fit");
    assert_eq!(rec_off.counter_value("index.range_verified"), 0);
    assert_eq!(rec_off.counter_value("index.nearest_pruned"), 0);
    assert_eq!(model.assignment(), model_off.assignment());
    assert_eq!(model.objective(), model_off.objective());

    // Sketch geometry sanity: the table is the documented shape.
    assert_eq!(SKETCH_ROWS, 8);
}
