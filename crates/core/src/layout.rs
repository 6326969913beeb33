//! SoA/columnar blocked mirror of the point matrix.
//!
//! The row-major [`Matrix`] is ideal for per-point work (`points.row(p)`
//! is one contiguous slice) but hostile to the hill-climb's hot kernels:
//! a per-point distance loop over dimensions is a serial dependency
//! chain on one accumulator, so the compiler cannot vectorize it without
//! reassociating floating-point adds — which would break the
//! bit-identical determinism contract.
//!
//! [`ColumnarBlocks`] stores the same values dimension-major *within
//! each fixed [`crate::kernel::BLOCK`]-row tile*: `tile[j·w + (p − lo)]`
//! for a tile of width `w = hi − lo`. A kernel that loops dimensions outermost and
//! points innermost then updates `w` independent accumulators per
//! iteration — a trivially vectorizable form — while every individual
//! accumulator still receives exactly the same additions in exactly the
//! same (dimension-ascending) order as a per-point scalar loop. The tile
//! width (≤ 1024 rows × 8 bytes = 8 KiB per dimension column) keeps the
//! working set of a few columns plus accumulators L1/L2-resident.
//!
//! The layout is built once per fit (one pass over the matrix) and
//! shared read-only across pool workers. With `fast_math` it also
//! carries an `f32` mirror plus per-point magnitudes, used by the
//! opt-in prefilter in [`crate::kernel`] — see
//! [`FAST_MATH_TOLERANCE_SCALE`] for the error model.

use crate::kernel::blocks;
use proclus_math::Matrix;

/// Scale of the `f32` prefilter tolerance: the conservative error bound
/// on an `f32` segmental distance between point `p` and medoid `m` over
/// at most `d` dimensions is
///
/// ```text
/// τ(p, m) = FAST_MATH_TOLERANCE_SCALE · (d + 4) · ε₃₂ · (‖p‖₁ + ‖m‖₁)
/// ```
///
/// with `ε₃₂ = f32::EPSILON` and `‖·‖₁` the full-space L1 magnitude
/// (computed in `f64`). Rationale: each of the ≤ `d` terms
/// `|p_j − m_j|` is bounded by `|p_j| + |m_j|`, so the exact sum is at
/// most `‖p‖₁ + ‖m‖₁`; a length-`d` `f32` sum of such terms (plus the
/// rounding of each input to `f32`, the subtraction, and the final
/// division) has relative error below `(d + 4)·ε₃₂` in exact-bound
/// arithmetic, and the factor 4 of headroom absorbs the max/abs
/// operations of the Chebyshev variant and any fused-negation codegen
/// differences. The bound is deliberately loose — a looser τ only
/// means fewer exclusions, never a wrong one.
pub const FAST_MATH_TOLERANCE_SCALE: f64 = 4.0;

/// Work-saved / work-verified counters for the `f32` fast path.
///
/// `screened` counts (point, candidate) pairs that entered the
/// prefilter, `excluded` the pairs discarded on interval bounds alone,
/// and `verified` the pairs re-evaluated exactly in `f64`. By
/// construction `screened == excluded + verified` and the excluded
/// pairs are provably non-winners, so the counters measure work saved,
/// never results changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FastMathStats {
    /// Candidate pairs that entered the `f32` interval screen.
    pub screened: u64,
    /// Pairs excluded by the conservative bounds without `f64` work.
    pub excluded: u64,
    /// Pairs whose exact `f64` distance was computed and compared.
    pub verified: u64,
}

impl FastMathStats {
    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: FastMathStats) {
        self.screened += other.screened;
        self.excluded += other.excluded;
        self.verified += other.verified;
    }
}

/// One dimension-major tile: all values of rows `lo..hi`, stored as `d`
/// contiguous columns of width `hi − lo`.
#[derive(Clone, Debug)]
struct Tile {
    lo: usize,
    hi: usize,
    /// `d · (hi − lo)` values, column `j` at `j·w .. (j+1)·w`.
    data: Vec<f64>,
    /// `f32` mirror of `data` (same shape), present under `fast_math`.
    data32: Vec<f32>,
}

/// The full columnar mirror: one [`Tile`] per canonical
/// [`blocks`]-defined row range, plus (under `fast_math`) per-point L1
/// magnitudes for the prefilter tolerance.
#[derive(Clone, Debug)]
pub struct ColumnarBlocks {
    d: usize,
    tiles: Vec<Tile>,
    /// `‖x_p‖₁ = Σ_j |x_{p,j}|` per point (empty without `fast_math`).
    mags: Vec<f64>,
}

impl ColumnarBlocks {
    /// Transpose `points` into dimension-major tiles. With `fast_math`
    /// an `f32` mirror and per-point L1 magnitudes are built alongside.
    pub fn build(points: &Matrix, fast_math: bool) -> Self {
        let d = points.cols();
        let n = points.rows();
        let mut mags = if fast_math { vec![0.0; n] } else { Vec::new() };
        let tiles = blocks(n)
            .into_iter()
            .map(|(lo, hi)| {
                let w = hi - lo;
                let mut data = vec![0.0; d * w];
                for p in lo..hi {
                    let row = points.row(p);
                    for (j, &v) in row.iter().enumerate() {
                        data[j * w + (p - lo)] = v;
                    }
                    if fast_math {
                        mags[p] = row.iter().map(|v| v.abs()).sum();
                    }
                }
                let data32 = if fast_math {
                    data.iter().map(|&v| v as f32).collect()
                } else {
                    Vec::new()
                };
                Tile {
                    lo,
                    hi,
                    data,
                    data32,
                }
            })
            .collect();
        Self { d, tiles, mags }
    }

    /// Dimensionality of the mirrored matrix.
    #[inline]
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Whether the `f32` mirror (and magnitudes) were built.
    #[inline]
    pub fn has_fast(&self) -> bool {
        !self.mags.is_empty()
    }

    /// Number of tiles: one per canonical [`blocks`] range.
    #[inline]
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// Whether the mirrored matrix has no rows (and so no tiles).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// View of tile `i`, covering the `i`-th canonical [`blocks`] range
    /// (rows `i·BLOCK ..`); `i` must be below [`Self::len`].
    pub fn tile(&self, i: usize) -> TileView<'_> {
        TileView {
            layout: self,
            tile: &self.tiles[i],
        }
    }

    /// Every tile in ascending row order — exactly the block ranges a
    /// pool pass dispatches.
    pub fn tiles(&self) -> impl ExactSizeIterator<Item = TileView<'_>> {
        self.tiles
            .iter()
            .map(move |tile| TileView { layout: self, tile })
    }
}

/// Borrowed view of one tile, exposing its columns (and, under
/// `fast_math`, the `f32` mirror plus global point magnitudes).
#[derive(Clone, Copy)]
pub struct TileView<'a> {
    layout: &'a ColumnarBlocks,
    tile: &'a Tile,
}

impl<'a> TileView<'a> {
    /// First row of the tile.
    #[inline]
    pub fn lo(&self) -> usize {
        self.tile.lo
    }

    /// One-past-last row of the tile.
    #[inline]
    pub fn hi(&self) -> usize {
        self.tile.hi
    }

    /// Tile width in rows.
    #[inline]
    fn width(&self) -> usize {
        self.tile.hi - self.tile.lo
    }

    /// Column `j` restricted to rows `lo..hi` (global indices).
    #[inline]
    pub fn col(&self, j: usize, lo: usize, hi: usize) -> &'a [f64] {
        let w = self.width();
        let off = j * w + (lo - self.tile.lo);
        &self.tile.data[off..off + (hi - lo)]
    }

    /// `f32` mirror of [`Self::col`], or `None` without `fast_math`.
    #[inline]
    pub fn col32(&self, j: usize, lo: usize, hi: usize) -> Option<&'a [f32]> {
        if self.tile.data32.is_empty() {
            return None;
        }
        let w = self.width();
        let off = j * w + (lo - self.tile.lo);
        Some(&self.tile.data32[off..off + (hi - lo)])
    }

    /// Whether the `f32` mirror is available on this tile.
    #[inline]
    pub fn has_fast(&self) -> bool {
        !self.tile.data32.is_empty()
    }

    /// L1 magnitude `‖x_p‖₁` of a point (global index); `0.0` without
    /// `fast_math` (callers gate on [`Self::has_fast`] first).
    #[inline]
    pub fn mag(&self, p: usize) -> f64 {
        self.layout.mags.get(p).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, d: usize) -> Matrix {
        let data: Vec<f64> = (0..n * d).map(|i| (i as f64).sin() * 10.0).collect();
        Matrix::from_vec(data, n, d)
    }

    #[test]
    fn columns_mirror_the_matrix_exactly() {
        let m = sample(2_500, 7);
        let cb = ColumnarBlocks::build(&m, false);
        assert_eq!(cb.dims(), 7);
        assert_eq!(cb.len(), blocks(m.rows()).len());
        for (t, (lo, hi)) in cb.tiles().zip(blocks(m.rows())) {
            assert_eq!((t.lo(), t.hi()), (lo, hi));
            for j in 0..7 {
                let col = t.col(j, lo, hi);
                for p in lo..hi {
                    assert_eq!(col[p - lo].to_bits(), m.row(p)[j].to_bits());
                }
            }
            assert!(!t.has_fast());
            assert_eq!(t.col32(0, lo, hi), None);
        }
    }

    #[test]
    fn sub_ranges_map_to_column_sub_slices() {
        let m = sample(1_500, 3);
        let cb = ColumnarBlocks::build(&m, false);
        let t = cb.tile(0);
        let full = t.col(2, 0, 1024);
        let part = t.col(2, 100, 900);
        assert_eq!(part, &full[100..900]);
    }

    #[test]
    fn fast_mirror_carries_f32_values_and_magnitudes() {
        let m = sample(1_100, 4);
        let cb = ColumnarBlocks::build(&m, true);
        let t = cb.tile(1);
        let (lo, hi) = (t.lo(), t.hi());
        assert_eq!((lo, hi), (1_024, 1_100));
        assert!(t.has_fast());
        let c32 = t.col32(3, lo, hi).unwrap();
        for p in lo..hi {
            assert_eq!(c32[p - lo], m.row(p)[3] as f32);
            let mag: f64 = m.row(p).iter().map(|v| v.abs()).sum();
            assert_eq!(t.mag(p).to_bits(), mag.to_bits());
        }
    }

    #[test]
    fn empty_matrix_has_no_tiles() {
        let cb = ColumnarBlocks::build(&sample(0, 2), false);
        assert!(cb.is_empty());
        assert_eq!(cb.tiles().len(), 0);
    }
}
