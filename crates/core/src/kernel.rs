//! Block-level compute kernels for the O(N·k·d) passes of a
//! hill-climbing round, run by the worker pool ([`crate::pool`]) over
//! the dimension-major tiles of [`crate::layout::ColumnarBlocks`].
//!
//! # One kernel per pass
//!
//! Each pass has exactly one block kernel, checked bit for bit against
//! one plain scalar reference:
//!
//! | pass | block kernel | scalar reference |
//! |---|---|---|
//! | locality + `X` | [`fused_block_columnar`] | [`crate::locality::localities`], [`crate::dims::average_dimension_distances`] |
//! | distance columns | [`columns_block_columnar`] | [`DistanceKind::eval_segmental`] |
//! | cluster `X` | [`cluster_x_block_columnar`] | `average_dimension_distances` |
//! | refinement reassignment | [`refine_block_columnar`] | the loop in [`crate::refine::refine_opt`] |
//!
//! The hill climb's assignment is not a block pass of its own: it is
//! [`argmin_columns`] over the distance columns (reference:
//! [`crate::assign::assign_points`]), and assignment + `X` adds one
//! cluster-`X` pass over the clusters that argmin forms (see
//! [`crate::cache::RoundCache`]).
//!
//! With the neighbor index installed the locality pass runs
//! [`fused_block_pruned`] instead (see below), whose gate-off tail is
//! the same columnar loop.
//!
//! # The fused pass
//!
//! Locality membership (full-space segmental distance against `δᵢ`) and
//! the per-dimension average distances `Xᵢⱼ` over each locality need the
//! same `|p_j − m_j|` values, so [`fused_block_columnar`] derives both
//! from one sweep over a tile: the distances decide membership, and the
//! members' differences are added into the `Xᵢⱼ` accumulator while the
//! tile is still cache-resident.
//!
//! # Columnar loops
//!
//! The kernels loop dimensions outermost over a whole tile of points:
//! each inner iteration updates `w` *independent* accumulators (one per
//! point), a branch-free form the auto-vectorizer handles, while every
//! individual accumulator still receives exactly the same additions in
//! exactly the same (dimension-ascending) order as the scalar
//! reference's per-point loop. With `|x|·|x| == x·x` bitwise and
//! `f64::max` being the very function the scalar fold uses, every
//! distance, membership flag, winner and `X` cell is bit-identical.
//!
//! # Determinism
//!
//! All kernels operate on the fixed [`BLOCK`]-row tiles of [`blocks`].
//! A block's partial result depends only on the block's rows, never on
//! which thread ran it, and partials are merged on the coordinating
//! thread in ascending block order. Floating-point accumulation order
//! is therefore *canonical*: every thread count produces bit-identical
//! localities, `X` sums, dimension sets, and assignments. The `X`
//! reference walks the same tiling, so it equals the merged sums too.
//!
//! # The pruned fused pass
//!
//! [`fused_block_pruned`] consults the neighbor index ([`crate::index`])
//! to skip exact evaluations whose outcome is already decided: a
//! certified lower bound above the locality radius `δᵢ`, or a monotone
//! prefix value that already certifies `dist > δᵢ`. A pruned candidate
//! is provably a non-member, every surviving evaluation runs the exact
//! code in the exact order, and the `X` accumulation adds exactly the
//! member rows the unpruned kernel would add. The pruned kernel is
//! therefore bit-identical to [`fused_block_columnar`] (asserted by the
//! agreement tests below), and the per-block [`PruneStats`] it fills
//! count work saved, not results changed.

use crate::index::{
    raw_gt_threshold, FusedPruneCtx, PruneStats, PREFIX_KEEP_DEN, PREFIX_KEEP_NUM,
    PROBE_DISABLE_SHIFT, PROBE_POINTS, PRUNE_CHUNK,
};
use crate::layout::TileView;
use proclus_math::{DistanceKind, Matrix};

/// Rows per work block. Large enough that per-block dispatch overhead
/// vanishes, small enough that a round over 100k points yields ~100
/// blocks for load balancing.
pub const BLOCK: usize = 1024;

/// Contiguous `(start, end)` row ranges of at most [`BLOCK`] rows
/// covering `0..n`. This tiling is *fixed* for a given `n` — it defines
/// the canonical accumulation grouping and must not depend on the
/// thread count.
pub fn blocks(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(n.div_ceil(BLOCK));
    let mut lo = 0;
    while lo < n {
        let hi = (lo + BLOCK).min(n);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// Partial result of the fused locality + `X` pass over one block.
#[derive(Clone, Debug, PartialEq)]
pub struct FusedPartial {
    /// Per-medoid locality members found in this block (ascending).
    pub locs: Vec<Vec<usize>>,
    /// Per-medoid, per-dimension sums of `|p_j − m_j|` over this
    /// block's locality members.
    pub xsums: Vec<Vec<f64>>,
}

/// Fold a scratch buffer of absolute per-dimension differences into the
/// full-space segmental distance, bit-identical to
/// `metric.eval_segmental(a, b, &[0, 1, …, d-1])`.
#[inline]
fn segmental_from_diffs(metric: DistanceKind, diffs: &[f64]) -> f64 {
    match metric {
        DistanceKind::Manhattan => diffs.iter().sum::<f64>() / diffs.len() as f64,
        DistanceKind::Euclidean => {
            let sum: f64 = diffs.iter().map(|&v| v * v).sum();
            (sum / diffs.len() as f64).sqrt()
        }
        DistanceKind::Chebyshev => diffs.iter().copied().fold(0.0, f64::max),
    }
}

/// Merge fused partials (given in ascending block order) into the final
/// localities and the `X` averages (`Xᵢⱼ` = mean over locality `i` of
/// `|p_j − m_j|`).
///
/// An empty locality — only reachable when a medoid's coordinates are
/// non-finite, since a finite medoid is always within `δᵢ ≥ 0` of
/// itself — falls back to the singleton `Lᵢ = {mᵢ}` with an all-zero
/// `X` row (`|m_j − m_j| = 0` in exact arithmetic; pinning the row
/// avoids poisoning FindDimensions with NaN differences). The same
/// fallback lives in [`crate::locality::localities`], so the fused and
/// reference paths stay identical.
pub fn merge_fused(
    partials: Vec<FusedPartial>,
    medoids: &[usize],
    d: usize,
) -> (Vec<Vec<usize>>, Vec<Vec<f64>>) {
    let k = medoids.len();
    let mut locs: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut x = vec![vec![0.0; d]; k];
    for mut part in partials {
        for (i, local) in part.locs.iter_mut().enumerate() {
            locs[i].append(local);
        }
        for (xi, pi) in x.iter_mut().zip(&part.xsums) {
            for (a, b) in xi.iter_mut().zip(pi) {
                *a += b;
            }
        }
    }
    for ((xi, li), &m) in x.iter_mut().zip(locs.iter_mut()).zip(medoids) {
        if li.is_empty() {
            li.push(m);
            for v in xi.iter_mut() {
                *v = 0.0;
            }
        } else {
            let inv = 1.0 / li.len() as f64;
            for v in xi.iter_mut() {
                *v *= inv;
            }
        }
    }
    (locs, x)
}

/// Assignment from per-slot distance columns: for every row, the slot
/// with the smallest distance, ties (and the all-NaN degenerate case)
/// to the lower slot index.
///
/// Iterates slots in ascending order with a strict `<` comparison —
/// exactly the loop of [`crate::assign::assign_points`] — so feeding it
/// columns produced by [`columns_block_columnar`] (cached or fresh)
/// reproduces the direct assignment bit for bit, including the NaN
/// behavior (a NaN distance never wins; a row whose every distance is
/// NaN lands on slot 0).
pub fn argmin_columns(columns: &[&[f64]], n: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    for p in 0..n {
        let mut best = 0usize;
        let mut best_dist = f64::INFINITY;
        for (i, col) in columns.iter().enumerate() {
            let dist = col[p];
            if dist < best_dist {
                best_dist = dist;
                best = i;
            }
        }
        out.push(best);
    }
    out
}

/// Merge cluster-`X` partials into averages, dividing by the reference
/// set sizes (`counts[i]` = number of points assigned to cluster `i`).
pub fn merge_cluster_x(partials: Vec<Vec<Vec<f64>>>, counts: &[usize], d: usize) -> Vec<Vec<f64>> {
    let mut x = vec![vec![0.0; d]; counts.len()];
    for part in partials {
        for (xi, pi) in x.iter_mut().zip(&part) {
            for (a, b) in xi.iter_mut().zip(pi) {
                *a += b;
            }
        }
    }
    for (xi, &c) in x.iter_mut().zip(counts) {
        if c > 0 {
            let inv = 1.0 / c as f64;
            for v in xi.iter_mut() {
                *v *= inv;
            }
        }
    }
    x
}

/// Fill `diffs` with `|a_j − b_j|` while accumulating the segmental
/// raw value, abandoning as soon as the prefix accumulator reaches
/// `raw_threshold` — a raw-unit encoding of "the final distance is
/// certainly `> δᵢ`" (see [`crate::index::raw_gt_threshold`]). The
/// threshold is checked at [`PRUNE_CHUNK`] boundaries to keep the
/// compare off the accumulator's per-element dependency chain. On completion the buffer *and* the
/// returned distance are bit-identical to the plain fill +
/// [`segmental_from_diffs`]: same element order, same summation order,
/// `|x|·|x|` equals `x·x` bitwise.
#[inline]
fn fill_diffs_bounded(
    metric: DistanceKind,
    a: &[f64],
    b: &[f64],
    diffs: &mut [f64],
    raw_threshold: f64,
) -> Option<f64> {
    // Fill exactly like the plain path — one flat, vectorizable loop
    // with no interleaved control flow — then fold with chunk-boundary
    // abandonment checks. An abandoned pair wastes its (cheap, SIMD)
    // fill but skips the tail of the serial accumulation chain, which
    // is the latency bottleneck; a completed fold visits the elements
    // in the plain order and is bit-identical.
    for ((&x, &y), dv) in a.iter().zip(b).zip(diffs.iter_mut()) {
        *dv = (x - y).abs();
    }
    let len = diffs.len() as f64;
    match metric {
        DistanceKind::Manhattan => {
            let mut sum = 0.0f64;
            for dc in diffs.chunks(PRUNE_CHUNK) {
                for &v in dc {
                    sum += v;
                }
                if sum >= raw_threshold {
                    return None;
                }
            }
            Some(sum / len)
        }
        DistanceKind::Euclidean => {
            let mut sum = 0.0f64;
            for dc in diffs.chunks(PRUNE_CHUNK) {
                for &v in dc {
                    sum += v * v;
                }
                if sum >= raw_threshold {
                    return None;
                }
            }
            Some((sum / len).sqrt())
        }
        DistanceKind::Chebyshev => {
            let mut worst = 0.0f64;
            for dc in diffs.chunks(PRUNE_CHUNK) {
                for &v in dc {
                    worst = worst.max(v);
                }
                if worst >= raw_threshold {
                    return None;
                }
            }
            Some(worst)
        }
    }
}

/// [`fused_block_columnar`] with index pruning: candidates whose sketch
/// or triangle lower bound proves them outside `δᵢ` skip the exact
/// evaluation entirely, and the surviving evaluations abandon mid-sum
/// once their prefix accumulator certifies `dist > δᵢ`. Members, their
/// order, and the `X` sums are bit-identical to the unpruned kernel — a
/// pruned or abandoned pair is certainly a non-member, so it would have
/// contributed nothing either way, and a member's evaluation never
/// abandons (its accumulator stays below the threshold throughout).
pub fn fused_block_pruned(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    deltas: &[f64],
    ctx: &FusedPruneCtx,
    stats: &mut PruneStats,
) -> FusedPartial {
    let (lo, hi) = (tile.lo(), tile.hi());
    let d = points.cols();
    let k = medoids.len();
    let mut locs: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut xsums = vec![vec![0.0; d]; k];
    let mut diffs = vec![0.0; d];
    // Raw-unit "certainly outside δᵢ" thresholds, one per slot.
    let rt_member: Vec<f64> = deltas
        .iter()
        .map(|&delta| raw_gt_threshold(metric, delta, d))
        .collect();
    // Exact distances of the current point to the slots already
    // verified this sweep — the triangle-bound anchors. NaN marks a
    // pruned or abandoned slot (a NaN anchor yields a NaN bound and
    // never prunes).
    let mut evaluated = vec![f64::NAN; k];
    // Adaptive gates: probe the first PROBE_POINTS rows with the full
    // machinery, then disable (a) the whole-pair bounds if too few
    // probed pairs pruned, and (b) the prefix device if too few reached
    // evaluations abandoned (see `crate::index`). The decisions depend
    // only on the block's rows, so counters and results stay
    // independent of thread count.
    let probe_end = (lo + PROBE_POINTS).min(hi);
    let base_bounds = stats.range_sketch_pruned + stats.range_triangle_pruned;
    let base_prefix = stats.range_prefix_pruned;
    let base_verified = stats.range_verified;
    let mut probing = true;
    let mut bounds_on = true;
    let mut prefix_on = true;
    for p in lo..hi {
        if probing && p == probe_end {
            probing = false;
            let pruned = stats.range_sketch_pruned + stats.range_triangle_pruned - base_bounds;
            let probed = ((probe_end - lo) * k) as u64;
            bounds_on = pruned >= probed >> PROBE_DISABLE_SHIFT;
            let abandoned = stats.range_prefix_pruned - base_prefix;
            let reached = abandoned + (stats.range_verified - base_verified);
            prefix_on = abandoned * PREFIX_KEEP_DEN >= reached * PREFIX_KEEP_NUM;
            if !bounds_on && !prefix_on {
                // Nothing left of the pruning machinery: hand the rest
                // of the block to the columnar loop, continuing the same
                // accumulators so membership order and `X` summation
                // order stay bit-identical.
                stats.range_verified += ((hi - p) * k) as u64;
                fused_range_columnar(
                    tile, points, metric, medoids, deltas, p, hi, &mut locs, &mut xsums,
                );
                return FusedPartial { locs, xsums };
            }
        }
        let prow = points.row(p);
        for e in evaluated.iter_mut() {
            *e = f64::NAN;
        }
        for (i, &m) in medoids.iter().enumerate() {
            if bounds_on && ctx.prunes(p, i, deltas[i], &evaluated[..i], stats) {
                continue;
            }
            let mrow = points.row(m);
            let dist = if prefix_on {
                match fill_diffs_bounded(metric, prow, mrow, &mut diffs, rt_member[i]) {
                    Some(dist) => dist,
                    None => {
                        stats.range_prefix_pruned += 1;
                        continue;
                    }
                }
            } else {
                for j in 0..d {
                    diffs[j] = (prow[j] - mrow[j]).abs();
                }
                segmental_from_diffs(metric, &diffs)
            };
            evaluated[i] = dist;
            stats.range_verified += 1;
            if dist <= deltas[i] {
                locs[i].push(p);
                let xi = &mut xsums[i];
                for j in 0..d {
                    xi[j] += diffs[j];
                }
            }
        }
    }
    FusedPartial { locs, xsums }
}

// ---------------------------------------------------------------------
// Columnar kernels and their sub-range loops (see the module docs).

/// Divide/fold the raw per-point accumulators of a full- or
/// projected-space sweep into final segmental distances, matching the
/// tail arithmetic of [`segmental_from_diffs`] / `eval_segmental`
/// element for element (plain division, not a reciprocal multiply).
#[inline]
fn finalize_segmental(metric: DistanceKind, dist: &mut [f64], len: usize) {
    if len == 0 {
        // eval_segmental defines the empty projection as 0.0 for the
        // summing metrics; the accumulators already hold 0.0.
        return;
    }
    let len = len as f64;
    match metric {
        DistanceKind::Manhattan => {
            for v in dist.iter_mut() {
                *v /= len;
            }
        }
        DistanceKind::Euclidean => {
            for v in dist.iter_mut() {
                *v = (*v / len).sqrt();
            }
        }
        DistanceKind::Chebyshev => {}
    }
}

/// Raw full-space accumulators of `metric` between medoid row `mrow`
/// and tile rows `lo..hi`, one per point, dimension-outer. The raw
/// value per point is bit-identical to the per-point fold of
/// `eval_segmental` because each point's accumulator sees its
/// dimensions in the same ascending order.
fn raw_full_distances_columnar(
    tile: &TileView<'_>,
    metric: DistanceKind,
    mrow: &[f64],
    lo: usize,
    hi: usize,
    dist: &mut Vec<f64>,
) {
    let w = hi - lo;
    dist.clear();
    dist.resize(w, 0.0);
    match metric {
        DistanceKind::Manhattan => {
            for (j, &mj) in mrow.iter().enumerate() {
                let col = tile.col(j, lo, hi);
                for (acc, &x) in dist.iter_mut().zip(col) {
                    *acc += (x - mj).abs();
                }
            }
        }
        DistanceKind::Euclidean => {
            for (j, &mj) in mrow.iter().enumerate() {
                let col = tile.col(j, lo, hi);
                for (acc, &x) in dist.iter_mut().zip(col) {
                    let dv = x - mj;
                    *acc += dv * dv;
                }
            }
        }
        DistanceKind::Chebyshev => {
            for (j, &mj) in mrow.iter().enumerate() {
                let col = tile.col(j, lo, hi);
                for (acc, &x) in dist.iter_mut().zip(col) {
                    *acc = f64::max(*acc, (x - mj).abs());
                }
            }
        }
    }
}

/// Projected segmental distances of one (medoid, dimension-set) slot
/// over tile rows `lo..hi`, written into `out[p − lo]` — bit-identical
/// to `metric.eval_segmental(points.row(p), mrow, di)` per point.
fn segmental_column_columnar(
    tile: &TileView<'_>,
    metric: DistanceKind,
    mrow: &[f64],
    di: &[usize],
    lo: usize,
    hi: usize,
    out: &mut [f64],
) {
    for v in out.iter_mut() {
        *v = 0.0;
    }
    match metric {
        DistanceKind::Manhattan => {
            for &j in di {
                let mj = mrow[j];
                let col = tile.col(j, lo, hi);
                for (acc, &x) in out.iter_mut().zip(col) {
                    *acc += (x - mj).abs();
                }
            }
        }
        DistanceKind::Euclidean => {
            for &j in di {
                let mj = mrow[j];
                let col = tile.col(j, lo, hi);
                for (acc, &x) in out.iter_mut().zip(col) {
                    let dv = x - mj;
                    *acc += dv * dv;
                }
            }
        }
        DistanceKind::Chebyshev => {
            for &j in di {
                let mj = mrow[j];
                let col = tile.col(j, lo, hi);
                for (acc, &x) in out.iter_mut().zip(col) {
                    *acc = f64::max(*acc, (x - mj).abs());
                }
            }
        }
    }
    finalize_segmental(metric, out, di.len());
}

/// Add each listed member's `|p_j − m_j|` row into the cluster's `X`
/// sums, dimension-outer. Per `X` cell the members are visited in the
/// same ascending order as the scalar reference, and the local
/// read-accumulate-writeback is bitwise the sequential in-place adds.
fn accumulate_members_columnar(
    tile: &TileView<'_>,
    mrow: &[f64],
    members: &[usize],
    lo: usize,
    hi: usize,
    xi: &mut [f64],
) {
    if members.is_empty() {
        return;
    }
    for (j, &mj) in mrow.iter().enumerate() {
        let col = tile.col(j, lo, hi);
        let mut s = xi[j];
        for &gp in members {
            s += (col[gp - lo] - mj).abs();
        }
        xi[j] = s;
    }
}

/// The fused pass over tile rows `lo..hi`, continuing accumulation
/// into existing `locs`/`xsums` so the pruned kernel can hand it a
/// gate-off tail.
#[allow(clippy::too_many_arguments)]
fn fused_range_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    deltas: &[f64],
    lo: usize,
    hi: usize,
    locs: &mut [Vec<usize>],
    xsums: &mut [Vec<f64>],
) {
    if hi == lo {
        return;
    }
    let d = points.cols();
    let mut dist = Vec::new();
    for (i, &m) in medoids.iter().enumerate() {
        let mrow = points.row(m);
        raw_full_distances_columnar(tile, metric, mrow, lo, hi, &mut dist);
        finalize_segmental(metric, &mut dist, d);
        let delta = deltas[i];
        let li = &mut locs[i];
        let start = li.len();
        for (o, &dv) in dist.iter().enumerate() {
            if dv <= delta {
                li.push(lo + o);
            }
        }
        let (li, xi) = (&locs[i][start..], &mut xsums[i]);
        accumulate_members_columnar(tile, mrow, li, lo, hi, xi);
    }
}

/// The fused pass over one tile: locality membership for every
/// (point, medoid) pair plus the `Xᵢⱼ` partial sums over the members.
pub fn fused_block_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    deltas: &[f64],
) -> FusedPartial {
    let d = points.cols();
    let k = medoids.len();
    let mut locs: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut xsums = vec![vec![0.0; d]; k];
    let (lo, hi) = (tile.lo(), tile.hi());
    fused_range_columnar(
        tile, points, metric, medoids, deltas, lo, hi, &mut locs, &mut xsums,
    );
    FusedPartial { locs, xsums }
}

/// Per-slot segmental-distance columns over one tile:
/// `out[s][p − lo] = metric.eval_segmental(points.row(p),
/// points.row(medoids[s]), &dims[s])`.
///
/// Each value is exactly the scalar [`crate::assign::assign_points`]
/// compares — there is no accumulation across rows — so a column
/// computed here and cached across rounds is bit-identical to
/// recomputing the distance, and [`argmin_columns`] over the columns is
/// the assignment.
pub fn columns_block_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
) -> Vec<Vec<f64>> {
    let (lo, hi) = (tile.lo(), tile.hi());
    medoids
        .iter()
        .zip(dims)
        .map(|(&m, di)| {
            let mut col = vec![0.0f64; hi - lo];
            segmental_column_columnar(tile, metric, points.row(m), di, lo, hi, &mut col);
            col
        })
        .collect()
}

/// Cluster-based `X` partial sums over one tile for a fixed
/// assignment (`None` entries — outliers — contribute to no cluster).
/// Used by the refinement phase, where the reference sets are the final
/// iterative clusters, and by the round cache after an assignment it
/// served from cached distance columns.
pub fn cluster_x_block_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    medoids: &[usize],
    assignment: &[Option<usize>],
) -> Vec<Vec<f64>> {
    let (lo, hi) = (tile.lo(), tile.hi());
    let d = points.cols();
    let mut xsums = vec![vec![0.0; d]; medoids.len()];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); medoids.len()];
    for (p, a) in assignment.iter().enumerate().take(hi).skip(lo) {
        if let Some(i) = *a {
            members[i].push(p);
        }
    }
    for ((&m, mem), xi) in medoids.iter().zip(&members).zip(xsums.iter_mut()) {
        accumulate_members_columnar(tile, points.row(m), mem, lo, hi, xi);
    }
    xsums
}

/// Refinement assignment over one tile: nearest medoid under the
/// per-medoid dimension sets, `None` when the point lies inside no
/// medoid's sphere of influence.
pub fn refine_block_columnar(
    tile: &TileView<'_>,
    points: &Matrix,
    metric: DistanceKind,
    medoids: &[usize],
    dims: &[Vec<usize>],
    spheres: &[f64],
) -> Vec<Option<usize>> {
    let (lo, hi) = (tile.lo(), tile.hi());
    let w = hi - lo;
    let mut best = vec![0usize; w];
    let mut best_dist = vec![f64::INFINITY; w];
    let mut inside = vec![false; w];
    let mut col = vec![0.0f64; w];
    for (i, (&m, di)) in medoids.iter().zip(dims).enumerate() {
        segmental_column_columnar(tile, metric, points.row(m), di, lo, hi, &mut col);
        let sphere = spheres[i];
        for (((bd, b), ins), &dv) in best_dist
            .iter_mut()
            .zip(best.iter_mut())
            .zip(inside.iter_mut())
            .zip(col.iter())
        {
            if dv <= sphere {
                *ins = true;
            }
            if dv < *bd {
                *bd = dv;
                *b = i;
            }
        }
    }
    inside
        .iter()
        .zip(&best)
        .map(|(&ins, &b)| ins.then_some(b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::average_dimension_distances;
    use crate::index::NeighborIndex;
    use crate::layout::ColumnarBlocks;
    use crate::locality::{localities, medoid_deltas};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(0.0..100.0)).collect();
        Matrix::from_vec(data, n, d)
    }

    fn assert_bits(a: &[Vec<f64>], b: &[Vec<f64>], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: shape");
        for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
            assert_eq!(ra.len(), rb.len(), "{ctx}: row {i} shape");
            for (j, (x, y)) in ra.iter().zip(rb).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: [{i}][{j}] {x:e} vs {y:e}");
            }
        }
    }

    #[test]
    fn blocks_tile_exactly() {
        for n in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 5 * BLOCK + 17] {
            let bs = blocks(n);
            if n == 0 {
                assert!(bs.is_empty());
                continue;
            }
            assert_eq!(bs[0].0, 0);
            assert_eq!(bs.last().unwrap().1, n);
            for w in bs.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            assert!(bs.iter().all(|&(a, b)| b > a && b - a <= BLOCK));
        }
    }

    #[test]
    fn fused_localities_and_x_match_the_references_exactly() {
        for metric in [
            DistanceKind::Manhattan,
            DistanceKind::Euclidean,
            DistanceKind::Chebyshev,
        ] {
            let points = random_points(2_300, 6, 11);
            let cb = ColumnarBlocks::build(&points, false);
            let medoids = vec![3usize, 99, 1_402];
            let deltas = medoid_deltas(&points, &medoids, metric);
            let legacy = localities(&points, &medoids, &deltas, metric);
            let partials: Vec<FusedPartial> = cb
                .tiles()
                .map(|t| fused_block_columnar(&t, &points, metric, &medoids, &deltas))
                .collect();
            let (locs, x) = merge_fused(partials, &medoids, points.cols());
            assert_eq!(locs, legacy, "{metric:?}");
            let reference = average_dimension_distances(&points, &medoids, &legacy);
            assert_bits(&x, &reference, &format!("{metric:?}: locality X"));
        }
    }

    /// The assignment + `X` sequence of the round cache: argmin over
    /// the distance columns, then the cluster-`X` pass over the clusters
    /// it forms, equal to `assign_points` and the `X` reference.
    #[test]
    fn cluster_x_over_the_argmin_assignment_matches_the_reference() {
        let points = random_points(1_400, 5, 13);
        let cb = ColumnarBlocks::build(&points, false);
        let medoids = vec![7usize, 1_200];
        let dims = vec![vec![0, 2], vec![1, 3]];
        let metric = DistanceKind::Manhattan;
        let mut cols = vec![Vec::new(); medoids.len()];
        for t in cb.tiles() {
            for (full, part) in cols
                .iter_mut()
                .zip(columns_block_columnar(&t, &points, metric, &medoids, &dims))
            {
                full.extend(part);
            }
        }
        let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let flat = argmin_columns(&refs, points.rows());
        assert_eq!(
            flat,
            crate::assign::assign_points(&points, &medoids, &dims, metric)
        );
        let opt: Vec<Option<usize>> = flat.iter().map(|&a| Some(a)).collect();
        let clusters = crate::assign::group_members(&opt, 2);
        let counts: Vec<usize> = clusters.iter().map(Vec::len).collect();
        let partials = cb
            .tiles()
            .map(|t| cluster_x_block_columnar(&t, &points, &medoids, &opt))
            .collect();
        let x = merge_cluster_x(partials, &counts, 5);
        let reference = average_dimension_distances(&points, &medoids, &clusters);
        assert_bits(&x, &reference, "assign+X");
    }

    #[test]
    fn refine_assign_block_marks_outliers() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [10.0, 10.0], [500.0, 500.0]];
        let points = Matrix::from_rows(&rows, 2);
        let cb = ColumnarBlocks::build(&points, false);
        let medoids = vec![0usize, 1];
        let dims = vec![vec![0, 1], vec![0, 1]];
        let metric = DistanceKind::Manhattan;
        let spheres = crate::refine::spheres_of_influence(&points, &medoids, &dims, metric);
        let out = refine_block_columnar(&cb.tile(0), &points, metric, &medoids, &dims, &spheres);
        assert_eq!(out, vec![Some(0), Some(1), None]);
    }

    #[test]
    fn columns_match_direct_evaluation_and_argmin_matches_assign() {
        for metric in [
            DistanceKind::Manhattan,
            DistanceKind::Euclidean,
            DistanceKind::Chebyshev,
        ] {
            let points = random_points(1_600, 5, 23);
            let cb = ColumnarBlocks::build(&points, false);
            let medoids = vec![2usize, 170, 1_444];
            let dims = vec![vec![0, 1], vec![2, 3], vec![1, 4]];
            let cols: Vec<Vec<f64>> =
                cb.tiles()
                    .fold(vec![Vec::new(); medoids.len()], |mut acc, t| {
                        let part = columns_block_columnar(&t, &points, metric, &medoids, &dims);
                        for (full, part) in acc.iter_mut().zip(part) {
                            full.extend(part);
                        }
                        acc
                    });
            for (s, (&m, di)) in medoids.iter().zip(&dims).enumerate() {
                for (p, &got) in cols[s].iter().enumerate() {
                    let direct = metric.eval_segmental(points.row(p), points.row(m), di);
                    assert_eq!(got.to_bits(), direct.to_bits(), "{metric:?} {s} {p}");
                }
            }
            let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
            let via_cols = argmin_columns(&refs, points.rows());
            let direct = crate::assign::assign_points(&points, &medoids, &dims, metric);
            assert_eq!(via_cols, direct, "{metric:?}");
        }
    }

    #[test]
    fn argmin_columns_nan_rows_fall_to_slot_zero() {
        let a = [f64::NAN, 1.0, f64::NAN];
        let b = [f64::NAN, 2.0, 0.5];
        let out = argmin_columns(&[&a, &b], 3);
        // Row 0: all NaN -> slot 0. Row 1: 1.0 < 2.0 -> slot 0.
        // Row 2: NaN never beats 0.5 -> slot 1.
        assert_eq!(out, vec![0, 0, 1]);
    }

    /// A medoid with non-finite coordinates has a NaN distance to every
    /// point (including itself), so its locality would come out empty;
    /// the merge falls back to the singleton {mᵢ} with a zero `X` row.
    #[test]
    fn merge_fused_empty_locality_falls_back_to_medoid_singleton() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [f64::NAN, 1.0], [2.0, 2.0]];
        let points = Matrix::from_rows(&rows, 2);
        let cb = ColumnarBlocks::build(&points, false);
        let medoids = vec![0usize, 1];
        let metric = DistanceKind::Manhattan;
        let deltas = crate::locality::medoid_deltas(&points, &medoids, metric);
        let partials = vec![fused_block_columnar(
            &cb.tile(0),
            &points,
            metric,
            &medoids,
            &deltas,
        )];
        let (locs, x) = merge_fused(partials, &medoids, 2);
        assert_eq!(locs[1], vec![1], "empty locality becomes {{medoid}}");
        assert_eq!(x[1], vec![0.0, 0.0], "fallback X row is pinned to zero");
        assert!(!locs[0].is_empty());
    }

    #[test]
    fn cluster_x_skips_outliers() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [1.0, 3.0], [900.0, 900.0]];
        let points = Matrix::from_rows(&rows, 2);
        let cb = ColumnarBlocks::build(&points, false);
        let assignment = vec![Some(0), Some(0), None];
        let partial = cluster_x_block_columnar(&cb.tile(0), &points, &[0], &assignment);
        let x = merge_cluster_x(vec![partial], &[2], 2);
        // Members {0, 1}: mean |diff| = (0 + 1)/2 and (0 + 3)/2.
        assert_eq!(x, vec![vec![0.5, 1.5]]);
    }

    /// The pruned fused kernel must be **bit-identical** to the columnar
    /// one — members, order, and X sums — across all metrics, and
    /// actually prune something on clustered data.
    #[test]
    fn fused_block_pruned_is_bit_identical_to_plain() {
        for metric in [
            DistanceKind::Manhattan,
            DistanceKind::Euclidean,
            DistanceKind::Chebyshev,
        ] {
            for seed in [11u64, 29] {
                let points = random_points(900, 7, seed);
                let cb = ColumnarBlocks::build(&points, false);
                let medoids = vec![3usize, 99, 402, 777];
                let deltas = medoid_deltas(&points, &medoids, metric);
                let index = std::sync::Arc::new(NeighborIndex::build(&points, metric));
                let ctx = FusedPruneCtx::new(index, &points, &medoids, metric);
                let mut stats = PruneStats::default();
                for t in cb.tiles() {
                    let plain = fused_block_columnar(&t, &points, metric, &medoids, &deltas);
                    let pruned = fused_block_pruned(
                        &t, &points, metric, &medoids, &deltas, &ctx, &mut stats,
                    );
                    assert_eq!(plain.locs, pruned.locs, "{metric:?} seed {seed}");
                    assert_bits(
                        &plain.xsums,
                        &pruned.xsums,
                        &format!("{metric:?} seed {seed}: X"),
                    );
                }
                assert!(
                    stats.range_sketch_pruned + stats.range_triangle_pruned > 0,
                    "{metric:?} seed {seed}: range pruning inert"
                );
            }
        }
    }

    /// The pruned fused kernel preserves the NaN semantics of the plain
    /// path: a NaN-coordinate medoid's locality stays empty (the merge
    /// then falls back to the singleton) and NaN rows are never members.
    #[test]
    fn pruned_fused_kernel_preserves_nan_semantics() {
        let rows: Vec<[f64; 2]> = vec![[0.0, 0.0], [f64::NAN, 1.0], [2.0, 2.0], [50.0, 50.0]];
        let points = Matrix::from_rows(&rows, 2);
        let cb = ColumnarBlocks::build(&points, false);
        let t = cb.tile(0);
        let medoids = vec![1usize, 3];
        let metric = DistanceKind::Manhattan;
        let mut stats = PruneStats::default();
        let deltas = medoid_deltas(&points, &medoids, metric);
        let index = std::sync::Arc::new(NeighborIndex::build(&points, metric));
        let ctx = FusedPruneCtx::new(index, &points, &medoids, metric);
        let plain = fused_block_columnar(&t, &points, metric, &medoids, &deltas);
        let pruned = fused_block_pruned(&t, &points, metric, &medoids, &deltas, &ctx, &mut stats);
        assert_eq!(plain, pruned);
    }
}
