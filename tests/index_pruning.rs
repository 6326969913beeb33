//! Neighbor-index tier: the pruning index must be a pure performance
//! layer. Its sketch and triangle bounds may only ever *prune* pairs
//! whose exact distance provably exceeds the query radius (no false
//! negatives), so every indexed query returns results bit-identical to
//! the plain scan — across all three metrics, random seeds, and the
//! full fit pipeline. The `index.*` counters must account for every
//! candidate pair and surface through the recorder.

use proclus::core::dims::average_dimension_distances;
use proclus::core::index::{NeighborIndex, PruneStats, SKETCH_ROWS};
use proclus::core::locality::{localities, medoid_deltas};
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

/// The pool's fused locality + `X` pass with the neighbor index
/// installed, plus the pruning counters it booked.
fn indexed_fused_round(
    m: &Matrix,
    medoids: &[usize],
    deltas: &[f64],
    metric: DistanceKind,
) -> (Vec<Vec<usize>>, Vec<Vec<f64>>, PruneStats) {
    with_pool(m, metric, 1, |pool| {
        pool.set_index(Some(Arc::new(NeighborIndex::build(m, metric))));
        let (locs, x) = pool.fused_round(medoids, deltas);
        (locs, x, pool.prune_stats())
    })
}

/// Localities must match `localities`, and the `X` averages over them
/// the scalar reference, bit for bit.
fn assert_matches_references(
    m: &Matrix,
    medoids: &[usize],
    plain: &[Vec<usize>],
    locs: &[Vec<usize>],
    x: &[Vec<f64>],
    ctx: &str,
) {
    assert_eq!(plain, locs, "{ctx}: localities");
    let reference = average_dimension_distances(m, medoids, plain);
    let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
        rows.iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(&reference), bits(x), "{ctx}: X");
}

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

/// The range query never loses a point: the indexed fused pass is
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

            let (locs, x, stats) = indexed_fused_round(&m, &medoids, &deltas, metric);

            let ctx = format!("{metric:?} seed {seed}");
            assert_matches_references(&m, &medoids, &plain, &locs, &x, &ctx);
            let pruned =
                stats.range_sketch_pruned + stats.range_triangle_pruned + stats.range_prefix_pruned;
            assert!(pruned > 0, "{ctx}: pruning inert");
            assert_eq!(
                pruned + stats.range_verified,
                (m.rows() * medoids.len()) as u64,
                "{ctx}: every candidate pair accounted for"
            );
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
            let (locs, x, _) = indexed_fused_round(&m, &medoids, &deltas, metric);
            let ctx = format!("{metric:?} scale {scale}");
            assert_matches_references(&m, &medoids, &plain, &locs, &x, &ctx);
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

    let rec_off = RingRecorder::new(1 << 16);
    let model_off = Proclus::new(3, 10.0)
        .seed(17)
        .neighbor_index(false)
        .fit_traced(&data.points, &rec_off)
        .expect("unindexed fit");
    assert_eq!(rec_off.counter_value("index.range_verified"), 0);
    assert_eq!(model.assignment(), model_off.assignment());
    assert_eq!(model.objective(), model_off.objective());

    // Sketch geometry sanity: the table is the documented shape.
    assert_eq!(SKETCH_ROWS, 8);
}
