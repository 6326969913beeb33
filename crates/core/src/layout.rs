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
//! shared read-only across pool workers.

use crate::kernel::blocks;
use proclus_math::Matrix;

/// One dimension-major tile: all values of rows `lo..hi`, stored as `d`
/// contiguous columns of width `hi − lo`.
#[derive(Clone, Debug)]
struct Tile {
    lo: usize,
    hi: usize,
    /// `d · (hi − lo)` values, column `j` at `j·w .. (j+1)·w`.
    data: Vec<f64>,
}

/// The full columnar mirror: one [`Tile`] per canonical
/// [`blocks`]-defined row range.
#[derive(Clone, Debug)]
pub struct ColumnarBlocks {
    d: usize,
    tiles: Vec<Tile>,
}

impl ColumnarBlocks {
    /// Transpose `points` into dimension-major tiles.
    ///
    /// The `bool` is ignored. It once requested an `f32` mirror for a
    /// screening fast path that no longer exists, and stays only so the
    /// end-to-end benchmark's `ColumnarBlocks::build(&points, false)`
    /// keeps compiling; it goes with the benchmark's `--fast-math`
    /// ablation.
    pub fn build(points: &Matrix, _ignored: bool) -> Self {
        let d = points.cols();
        let tiles = blocks(points.rows())
            .into_iter()
            .map(|(lo, hi)| {
                let w = hi - lo;
                let mut data = vec![0.0; d * w];
                for p in lo..hi {
                    for (j, &v) in points.row(p).iter().enumerate() {
                        data[j * w + (p - lo)] = v;
                    }
                }
                Tile { lo, hi, data }
            })
            .collect();
        Self { d, tiles }
    }

    /// Dimensionality of the mirrored matrix.
    #[inline]
    pub fn dims(&self) -> usize {
        self.d
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
            tile: &self.tiles[i],
        }
    }

    /// Every tile in ascending row order — exactly the block ranges a
    /// pool pass dispatches.
    pub fn tiles(&self) -> impl ExactSizeIterator<Item = TileView<'_>> {
        self.tiles.iter().map(|tile| TileView { tile })
    }
}

/// Borrowed view of one tile, exposing its columns.
#[derive(Clone, Copy)]
pub struct TileView<'a> {
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
    fn empty_matrix_has_no_tiles() {
        let cb = ColumnarBlocks::build(&sample(0, 2), false);
        assert!(cb.is_empty());
        assert_eq!(cb.tiles().len(), 0);
    }
}
