//! AssignPoints (Figure 5): one pass assigning every point to the
//! medoid with the smallest Manhattan segmental distance relative to
//! that medoid's dimension set.
//!
//! # Empty dimension sets are rejected
//!
//! `eval_segmental` defines the distance over an empty projection as
//! `0.0` (an empty projection carries no information). Fed into
//! assignment, that convention is a trap: a medoid with `Dᵢ = ∅` is at
//! distance zero from *every* point, so it absorbs the entire dataset —
//! and if several medoids have empty sets, the tie rule collapses
//! everything onto the lowest such index. No such input is ever
//! produced by the pipeline (FindDimensions guarantees `|Dᵢ| ≥ 2`; see
//! [`crate::dims`]), so [`assign_points`] treats an empty dimension set
//! as API misuse and panics rather than silently emitting a collapsed
//! clustering.

use crate::index::{raw_len_factor, raw_tbase, segmental_bounded, PruneStats, NEAREST_MIN_DIMS};
use proclus_math::{DistanceKind, Matrix};
use std::ops::Range;

/// Assignment preconditions shared by the exact and pruned variants.
fn validate_assign_inputs(medoids: &[usize], dims: &[Vec<usize>]) {
    assert_eq!(medoids.len(), dims.len());
    assert!(!medoids.is_empty());
    assert!(
        dims.iter().all(|di| !di.is_empty()),
        "empty dimension set: a medoid with no dimensions is at distance 0 \
         from every point and would absorb the whole dataset (PROCLUS \
         guarantees |D_i| >= 2)"
    );
}

/// Assign every point to its closest medoid under the per-medoid
/// segmental distances. Returns `assignment[p] = cluster index`.
///
/// Ties go to the lower cluster index (deterministic). Medoid points
/// assign to themselves (distance 0 to their own medoid; a different
/// medoid could only tie, not win).
///
/// # Panics
///
/// Panics when `medoids` is empty, when `medoids` and `dims` disagree
/// in length, or when any dimension set is empty (see the module docs).
pub fn assign_points(
    points: &Matrix,
    medoids: &[usize],
    dims: &[Vec<usize>],
    metric: DistanceKind,
) -> Vec<usize> {
    validate_assign_inputs(medoids, dims);
    let mut assignment = Vec::with_capacity(points.rows());
    assign_range(
        points,
        medoids,
        dims,
        metric,
        0..points.rows(),
        &mut assignment,
    );
    assignment
}

/// The [`assign_points`] loop over the rows in `rows`, appending each
/// winner to `out`.
fn assign_range(
    points: &Matrix,
    medoids: &[usize],
    dims: &[Vec<usize>],
    metric: DistanceKind,
    rows: Range<usize>,
    out: &mut Vec<usize>,
) {
    for p in rows {
        let row = points.row(p);
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        for (i, (&m, di)) in medoids.iter().zip(dims).enumerate() {
            let dist = metric.eval_segmental(row, points.row(m), di);
            if dist < best_dist {
                best_dist = dist;
                best = i;
            }
        }
        out.push(best);
    }
}

/// [`assign_points`] with monotone prefix pruning (see
/// [`crate::index`]): a candidate's evaluation stops as soon as its
/// running segmental prefix — a certified lower bound on the final
/// value — reaches the incumbent best distance, which already decides
/// the strict `<` comparison. Winners are **bit-identical** to
/// [`assign_points`]; `stats` counts the evaluations saved.
///
/// # Panics
///
/// Same contract as [`assign_points`].
pub fn assign_points_pruned(
    points: &Matrix,
    medoids: &[usize],
    dims: &[Vec<usize>],
    metric: DistanceKind,
    stats: &mut PruneStats,
) -> Vec<usize> {
    validate_assign_inputs(medoids, dims);
    // When every projection is tiny, evaluating is cheaper than
    // reasoning about abandoning (see `crate::index::NEAREST_MIN_DIMS`)
    // — run the plain path unchanged and count everything as verified.
    if dims.iter().all(|di| di.len() < NEAREST_MIN_DIMS) {
        stats.nearest_verified += (points.rows() * medoids.len()) as u64;
        return assign_points(points, medoids, dims, metric);
    }
    // Hoisted threshold halves: the per-candidate raw threshold is the
    // single multiply `tbase · lens[i]` (see `crate::index::raw_tbase`).
    let lens: Vec<f64> = dims
        .iter()
        .map(|di| raw_len_factor(metric, di.len()))
        .collect();
    // Adaptive gate: probe the first rows with abandonment enabled,
    // then keep it only when most reached evaluations abandon (see
    // `crate::index::PREFIX_KEEP_NUM`).
    let big_slots = dims
        .iter()
        .filter(|di| di.len() >= NEAREST_MIN_DIMS)
        .count() as u64;
    let probe_end = crate::index::PROBE_POINTS.min(points.rows());
    let base_pruned = stats.nearest_pruned;
    let mut assignment = Vec::with_capacity(points.rows());
    for p in 0..points.rows() {
        if p == probe_end {
            let abandoned = stats.nearest_pruned - base_pruned;
            let reached = (probe_end as u64) * big_slots;
            if abandoned * crate::index::PREFIX_KEEP_DEN < reached * crate::index::PREFIX_KEEP_NUM {
                // Abandonment is not paying for its branches: hand the
                // rest of the scan to the plain loop (bit-identical
                // winners either way).
                stats.nearest_verified += ((points.rows() - p) * medoids.len()) as u64;
                assign_range(
                    points,
                    medoids,
                    dims,
                    metric,
                    p..points.rows(),
                    &mut assignment,
                );
                return assignment;
            }
        }
        let row = points.row(p);
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        // raw_tbase(metric, ∞) = ∞ for every metric.
        let mut tbase = f64::INFINITY;
        for (i, ((&m, di), &lf)) in medoids.iter().zip(dims).zip(&lens).enumerate() {
            // Tiny projections are cheaper to evaluate than to reason
            // about abandoning (see `crate::index::NEAREST_MIN_DIMS`).
            let verdict = if di.len() < NEAREST_MIN_DIMS {
                Some(metric.eval_segmental(row, points.row(m), di))
            } else {
                segmental_bounded(metric, row, points.row(m), di, tbase * lf)
            };
            match verdict {
                Some(dist) => {
                    stats.nearest_verified += 1;
                    if dist < best_dist {
                        best_dist = dist;
                        best = i;
                        tbase = raw_tbase(metric, dist);
                    }
                }
                None => stats.nearest_pruned += 1,
            }
        }
        assignment.push(best);
    }
    assignment
}

/// Group an assignment vector into per-cluster member lists.
///
/// `assignment[p]` may be `None` for outliers (produced by the
/// refinement phase); those points appear in no cluster.
pub fn group_members(assignment: &[Option<usize>], k: usize) -> Vec<Vec<usize>> {
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (p, a) in assignment.iter().enumerate() {
        if let Some(i) = *a {
            clusters[i].push(p);
        }
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assigns_to_nearest_projected_medoid() {
        // Medoid 0 = row 0 with dims {0}; medoid 1 = row 1 with dims {1}.
        let rows: Vec<[f64; 2]> = vec![
            [0.0, 0.0],   // medoid 0
            [50.0, 50.0], // medoid 1
            [1.0, 90.0],  // near medoid 0 on dim 0
            [90.0, 51.0], // near medoid 1 on dim 1
        ];
        let m = Matrix::from_rows(&rows, 2);
        let a = assign_points(&m, &[0, 1], &[vec![0], vec![1]], DistanceKind::Manhattan);
        assert_eq!(a, vec![0, 1, 0, 1]);
    }

    #[test]
    fn segmental_normalization_matters() {
        // Point p: distance 10 total over medoid 0's two dims (segmental
        // 5), distance 8 on medoid 1's single dim (segmental 8).
        // With *unnormalized* Manhattan it would pick medoid 1 (8 < 10);
        // segmental picks medoid 0.
        let rows: Vec<[f64; 3]> = vec![
            [0.0, 0.0, 0.0], // medoid 0, dims {0, 1}
            [0.0, 0.0, 0.0], // medoid 1, dims {2}
            [5.0, 5.0, 8.0], // the contested point
        ];
        let m = Matrix::from_rows(&rows, 3);
        let a = assign_points(&m, &[0, 1], &[vec![0, 1], vec![2]], DistanceKind::Manhattan);
        assert_eq!(a[2], 0);
    }

    #[test]
    fn ties_break_to_lower_index() {
        let rows: Vec<[f64; 1]> = vec![[0.0], [10.0], [5.0]];
        let m = Matrix::from_rows(&rows, 1);
        let a = assign_points(&m, &[0, 1], &[vec![0], vec![0]], DistanceKind::Manhattan);
        assert_eq!(a[2], 0);
    }

    #[test]
    fn medoids_assign_to_themselves() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [100.0, 100.0], [42.0, 0.0]];
        let m = Matrix::from_rows(&rows, 2);
        let a = assign_points(
            &m,
            &[0, 1],
            &[vec![0, 1], vec![0, 1]],
            DistanceKind::Manhattan,
        );
        assert_eq!(a[0], 0);
        assert_eq!(a[1], 1);
    }

    #[test]
    fn group_members_partitions() {
        let assignment = vec![Some(0), Some(1), None, Some(0)];
        let groups = group_members(&assignment, 2);
        assert_eq!(groups[0], vec![0, 3]);
        assert_eq!(groups[1], vec![1]);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 3, "outlier excluded");
    }

    /// Regression: an empty dimension set used to make its medoid tie
    /// at distance 0 with every point, collapsing the assignment to the
    /// lowest empty-set index. It is now rejected as API misuse.
    #[test]
    #[should_panic(expected = "empty dimension set")]
    fn empty_dimension_set_is_rejected() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [100.0, 100.0], [99.0, 99.0]];
        let m = Matrix::from_rows(&rows, 2);
        // Before the check, the point at (99, 99) — far from medoid 0 on
        // every real dimension — would land on cluster 0.
        let _ = assign_points(&m, &[0, 1], &[vec![], vec![0, 1]], DistanceKind::Manhattan);
    }

    /// The pruned variant enforces the same empty-dims contract.
    #[test]
    #[should_panic(expected = "empty dimension set")]
    fn pruned_assign_rejects_empty_dimension_set() {
        let m = Matrix::from_rows(&[[0.0], [1.0]], 1);
        let mut stats = PruneStats::default();
        let _ = assign_points_pruned(
            &m,
            &[0, 1],
            &[vec![0], vec![]],
            DistanceKind::Manhattan,
            &mut stats,
        );
    }

    /// The pruned variant returns bit-identical winners and actually
    /// skips work on inputs with a clear nearest medoid.
    #[test]
    fn pruned_assign_matches_exact_and_prunes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for metric in [
            DistanceKind::Manhattan,
            DistanceKind::Euclidean,
            DistanceKind::Chebyshev,
        ] {
            let mut rng = StdRng::seed_from_u64(19);
            let data: Vec<f64> = (0..500 * 12)
                .map(|_| rng.random_range(0.0..100.0))
                .collect();
            let m = Matrix::from_vec(data, 500, 12);
            let medoids = vec![0usize, 200, 400];
            // Sets of >= NEAREST_MIN_DIMS dimensions, so the bounded
            // evaluation path engages.
            let dims: Vec<Vec<usize>> =
                vec![(0..10).collect(), (1..11).collect(), (2..12).collect()];
            let exact = assign_points(&m, &medoids, &dims, metric);
            let mut stats = PruneStats::default();
            let pruned = assign_points_pruned(&m, &medoids, &dims, metric, &mut stats);
            assert_eq!(exact, pruned, "{metric:?}");
            assert!(stats.nearest_pruned > 0, "{metric:?}: pruning inert");
            assert_eq!(
                stats.nearest_pruned + stats.nearest_verified,
                (m.rows() * medoids.len()) as u64,
                "{metric:?}: every candidate accounted for"
            );
        }
    }
}
