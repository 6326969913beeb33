//! Refinement phase (paper §2.3).
//!
//! With the best medoid set fixed, redo the dimension computation once
//! using the *clusters* produced by the iterative phase (their point
//! distributions are sharper than the localities), reassign all points
//! to the new dimension sets, and finally mark outliers: a point is an
//! outlier iff for **every** medoid `mᵢ` its segmental distance under
//! `Dᵢ` exceeds `Δᵢ`, the medoid's *sphere of influence*
//! (`Δᵢ = min_{j≠i} d_{Dᵢ}(mᵢ, mⱼ)`).

use crate::dims::{find_dimensions_from_averages, find_dimensions_opt};
use crate::pool::Pool;
use proclus_math::{DistanceKind, Matrix};
use std::sync::Arc;

/// Output of the refinement pass.
#[derive(Clone, Debug)]
pub struct Refined {
    /// Final dimension sets per medoid.
    pub dims: Vec<Vec<usize>>,
    /// Final assignment; `None` marks an outlier.
    pub assignment: Vec<Option<usize>>,
    /// Sphere of influence `Δᵢ` per medoid.
    pub spheres: Vec<f64>,
}

/// Spheres of influence: `Δᵢ = min_{j ≠ i} d_{Dᵢ}(mᵢ, mⱼ)`, taken over
/// the medoids at *non-zero* projected distance from `mᵢ`.
///
/// Note the asymmetry: `Δᵢ` is measured in medoid `i`'s own subspace.
/// With a single medoid, `Δ` is infinite and no point is an outlier.
///
/// # Zero-distance medoids are excluded
///
/// A medoid `mⱼ` that coincides with `mᵢ` in `mᵢ`'s subspace
/// (duplicate data rows, or distinct rows that project onto the same
/// coordinates) would yield `Δᵢ = 0`, and a zero sphere marks every
/// point of cluster `i` except the medoid itself an outlier — the
/// cluster silently collapses. The paper defines `Δᵢ` as the distance
/// to the nearest *other* cluster's center; a coincident medoid
/// carries no locality information at all, so — consistent with the
/// empty-locality fallback of the iterative phase (`Lᵢ = {mᵢ}` when no
/// point is strictly within `δᵢ`) — such medoids are skipped. When
/// *every* other medoid coincides, `Δᵢ` stays infinite and medoid `i`
/// degenerates to the single-medoid rule (no point is its outlier),
/// rather than every point becoming one.
pub fn spheres_of_influence(
    points: &Matrix,
    medoids: &[usize],
    dims: &[Vec<usize>],
    metric: DistanceKind,
) -> Vec<f64> {
    let k = medoids.len();
    let mut spheres = vec![f64::INFINITY; k];
    for i in 0..k {
        for j in 0..k {
            if i == j {
                continue;
            }
            let d = metric.eval_segmental(points.row(medoids[i]), points.row(medoids[j]), &dims[i]);
            if d > 0.0 && d < spheres[i] {
                spheres[i] = d;
            }
        }
    }
    spheres
}

/// Run the refinement phase.
///
/// `iterative_clusters` are the member lists produced by the last
/// assignment of the iterative phase (used as the dimension reference
/// sets, replacing the localities); `total_dims` is `k·l`.
pub fn refine(
    points: &Matrix,
    medoids: &[usize],
    iterative_clusters: &[Vec<usize>],
    total_dims: usize,
    metric: DistanceKind,
) -> Refined {
    refine_opt(
        points,
        medoids,
        iterative_clusters,
        total_dims,
        metric,
        true,
    )
}

/// [`refine`] with FindDimensions standardization optional (see
/// [`crate::dims::find_dimensions_opt`]).
pub fn refine_opt(
    points: &Matrix,
    medoids: &[usize],
    iterative_clusters: &[Vec<usize>],
    total_dims: usize,
    metric: DistanceKind,
    standardize: bool,
) -> Refined {
    // 1. Recompute dimensions from the cluster distributions.
    let dims = find_dimensions_opt(points, medoids, iterative_clusters, total_dims, standardize);

    // 2. Spheres of influence under the new dimension sets.
    let spheres = spheres_of_influence(points, medoids, &dims, metric);

    // 3. Reassign points; a point beyond every sphere is an outlier.
    let mut assignment = Vec::with_capacity(points.rows());
    for p in 0..points.rows() {
        let row = points.row(p);
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        let mut inside_any = false;
        for (i, (&m, di)) in medoids.iter().zip(&dims).enumerate() {
            let dist = metric.eval_segmental(row, points.row(m), di);
            if dist <= spheres[i] {
                inside_any = true;
            }
            if dist < best_dist {
                best_dist = dist;
                best = i;
            }
        }
        assignment.push(inside_any.then_some(best));
    }

    Refined {
        dims,
        assignment,
        spheres,
    }
}

/// [`refine_opt`] running its two O(N·d) passes (cluster-based `X`
/// accumulation and the final reassignment) through the per-fit worker
/// pool. This is the path [`crate::iterate`] takes; results are
/// bit-identical for every thread count (see [`crate::kernel`]).
pub fn refine_with_pool(
    pool: &mut Pool<'_>,
    medoids: &[usize],
    iterative_clusters: &[Vec<usize>],
    total_dims: usize,
    standardize: bool,
) -> Refined {
    let points = pool.points();
    let metric = pool.metric();

    // 1. Recompute dimensions from the cluster distributions. The
    //    member lists become an assignment vector so a blocked sweep
    //    can accumulate every cluster's X sums in one pass.
    let mut assignment: Vec<Option<usize>> = vec![None; points.rows()];
    for (i, members) in iterative_clusters.iter().enumerate() {
        for &p in members {
            assignment[p] = Some(i);
        }
    }
    let x = pool.cluster_x(medoids, Arc::new(assignment));
    let dims = find_dimensions_from_averages(&x, total_dims, standardize);

    // 2. Spheres of influence under the new dimension sets (O(k²·l),
    //    stays on the coordinating thread).
    let spheres = spheres_of_influence(pool.points(), medoids, &dims, metric);

    // 3. Reassign points; a point beyond every sphere is an outlier.
    let assignment = pool.refine_assign(medoids, &dims, &spheres);

    Refined {
        dims,
        assignment,
        spheres,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two obvious projected clusters and one far-away point.
    fn toy() -> (Matrix, Vec<usize>, Vec<Vec<usize>>) {
        let rows: Vec<[f64; 3]> = vec![
            // Cluster around (0, 0, *) on dims {0, 1}.
            [0.0, 0.0, 10.0],
            [0.5, 0.2, 80.0],
            [0.1, 0.4, 40.0],
            // Cluster around (*, 50, 50) on dims {1, 2}.
            [90.0, 50.0, 50.0],
            [10.0, 50.4, 50.2],
            [55.0, 49.8, 49.9],
            // Outlier far from everything in every subspace.
            [500.0, 500.0, 500.0],
        ];
        let m = Matrix::from_rows(&rows, 3);
        let medoids = vec![0usize, 3];
        let clusters = vec![vec![0, 1, 2], vec![3, 4, 5]];
        (m, medoids, clusters)
    }

    #[test]
    fn spheres_use_own_dimension_sets() {
        let m = Matrix::from_rows(&[[0.0, 0.0], [10.0, 2.0]], 2);
        let spheres =
            spheres_of_influence(&m, &[0, 1], &[vec![0], vec![1]], DistanceKind::Manhattan);
        assert_eq!(spheres, vec![10.0, 2.0]);
    }

    #[test]
    fn single_medoid_sphere_is_infinite() {
        let m = Matrix::from_rows(&[[0.0]], 1);
        let spheres = spheres_of_influence(&m, &[0], &[vec![0]], DistanceKind::Manhattan);
        assert_eq!(spheres, vec![f64::INFINITY]);
    }

    #[test]
    fn refine_recovers_dimensions_and_outlier() {
        let (m, medoids, clusters) = toy();
        let refined = refine(&m, &medoids, &clusters, 4, DistanceKind::Manhattan);
        assert_eq!(refined.dims[0], vec![0, 1]);
        assert_eq!(refined.dims[1], vec![1, 2]);
        // The far point is an outlier.
        assert_eq!(refined.assignment[6], None);
        // Cluster points keep their homes.
        for p in 0..3 {
            assert_eq!(refined.assignment[p], Some(0), "point {p}");
        }
        for p in 3..6 {
            assert_eq!(refined.assignment[p], Some(1), "point {p}");
        }
    }

    /// The outlier rule decouples "inside some sphere" from "nearest
    /// medoid": a point inside medoid 0's sphere of influence but
    /// strictly closer to medoid 1 (whose sphere it is *outside*) is
    /// not an outlier and goes to medoid 1 — the paper assigns
    /// non-outliers to the closest medoid, full stop.
    #[test]
    fn inside_one_sphere_but_nearest_to_another_medoid() {
        // m0 = (0,0) on dims {0}; m1 = (10,3) on dims {1}.
        let m = Matrix::from_rows(&[[0.0, 0.0], [10.0, 3.0], [6.0, 7.0], [100.0, 100.0]], 2);
        let medoids = [0usize, 1];
        let dims = vec![vec![0], vec![1]];
        let metric = DistanceKind::Manhattan;
        let spheres = spheres_of_influence(&m, &medoids, &dims, metric);
        // Δ0 = d_{D0}(m0, m1) = 10; Δ1 = d_{D1}(m1, m0) = 3.
        assert_eq!(spheres, vec![10.0, 3.0]);
        let assignment = crate::pool::with_pool(&m, metric, 1, |pool| {
            pool.refine_assign(&medoids, &dims, &spheres)
        });
        // Point 2 = (6,7): distance 6 to m0 (inside Δ0 = 10) but
        // distance 4 to m1 (outside Δ1 = 3). Non-outlier, assigned to
        // the *nearest* medoid m1, not the sphere owner m0.
        assert_eq!(assignment[2], Some(1));
        // The far point is outside both spheres: outlier.
        assert_eq!(assignment[3], None);
        // Each medoid stays home.
        assert_eq!(assignment[0], Some(0));
        assert_eq!(assignment[1], Some(1));
    }

    /// Regression: duplicate (or subspace-coincident) medoids used to
    /// produce `Δᵢ = 0`, which marked every cluster point except the
    /// medoid itself an outlier. Zero projected distances are now
    /// excluded, so a fully-duplicated medoid pair degenerates to the
    /// single-medoid rule (infinite spheres, no outliers) instead of
    /// collapsing both clusters.
    #[test]
    fn coincident_medoids_do_not_collapse_spheres() {
        // Rows 0 and 1 are byte-identical; rows 2..5 form one tight
        // group around them.
        let rows: Vec<[f64; 2]> = vec![[5.0, 5.0], [5.0, 5.0], [5.5, 5.2], [4.8, 5.1], [5.1, 4.7]];
        let m = Matrix::from_rows(&rows, 2);
        let medoids = [0usize, 1];
        let dims = vec![vec![0, 1], vec![0, 1]];
        let metric = DistanceKind::Manhattan;

        let spheres = spheres_of_influence(&m, &medoids, &dims, metric);
        assert_eq!(spheres, vec![f64::INFINITY, f64::INFINITY]);

        // With the old zero spheres, points 2..5 were all outliers.
        // Now every point lands in a cluster (ties to the lower index).
        let refined = refine(&m, &medoids, &[vec![0, 2, 3], vec![1, 4]], 4, metric);
        assert!(
            refined.assignment.iter().all(|a| a.is_some()),
            "coincident medoids must not outlier the whole dataset: {:?}",
            refined.assignment
        );

        // Mixed case: a third, genuinely distinct medoid still bounds
        // the duplicated pair's spheres by its own non-zero distance.
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]];
        let m = Matrix::from_rows(&rows, 2);
        let spheres = spheres_of_influence(
            &m,
            &[0, 1, 2],
            &[vec![0], vec![0], vec![0]],
            DistanceKind::Manhattan,
        );
        assert_eq!(spheres, vec![10.0, 10.0, 10.0]);
    }

    #[test]
    fn refine_with_one_medoid_assigns_everything() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [1.0, 1.0], [900.0, 900.0]];
        let m = Matrix::from_rows(&rows, 2);
        let refined = refine(&m, &[0], &[vec![0, 1, 2]], 2, DistanceKind::Manhattan);
        assert!(refined.assignment.iter().all(|a| *a == Some(0)));
        assert_eq!(refined.spheres, vec![f64::INFINITY]);
    }
}
