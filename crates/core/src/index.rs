//! The exact-pruning neighbor index (ROADMAP item 4).
//!
//! Every hill-climbing round spends O(N·k·d) on the **range query**
//! behind [`crate::locality::localities`]: "which points lie within
//! `δᵢ` of medoid `mᵢ` under the full-dimensional segmental metric?"
//! This module provides a zero-dependency pruning index that skips most
//! of the exact segmental-distance evaluations in that query **without
//! changing a single result bit**: every bound is a *certified lower
//! bound* on the exact distance, so it can only rule out candidates
//! that provably cannot qualify — the surviving candidate superset is
//! always verified by the exact evaluation the unindexed code would
//! have run, in the same order, producing the same bits (including the
//! `X` accumulations of the fused kernel, which add exactly the same
//! member rows in the same ascending order).
//!
//! The index answers nothing else. The assignment query ("which medoid
//! is closest under its own dimension set?") restricts each distance to
//! a per-medoid subspace `Dᵢ`, and a full-dimensional sketch cannot
//! bound a subspace distance (a restricted distance can be arbitrarily
//! smaller than any full-dimensional functional).
//!
//! # Sketch table (range query)
//!
//! Following the random-projection bounds of Kerber & Raghvendra
//! (arXiv:1407.2063), the index precomputes [`SKETCH_ROWS`] signed
//! projections per point: `S_r(p) = Σ_j s_{rj}·p_j` with fixed signs
//! `s_{rj} ∈ {±1}`. For any sign vector and any pair `(p, m)`,
//!
//! ```text
//! |S_r(p) − S_r(m)| = |Σ_j s_{rj}(p_j − m_j)| ≤ Σ_j |p_j − m_j| = ‖p − m‖₁
//! ```
//!
//! by the triangle inequality, which yields a lower bound on every
//! segmental metric the workspace supports over the full dimension set:
//!
//! * Manhattan: `d(p,m) = ‖p−m‖₁ / d ≥ |ΔS_r| / d`
//! * Euclidean: `d(p,m) = ‖p−m‖₂ / √d ≥ (|ΔS_r|/√d) / √d = |ΔS_r| / d`
//!   (Cauchy–Schwarz: `|ΔS_r| ≤ ‖s_r‖₂·‖p−m‖₂ = √d·‖p−m‖₂`)
//! * Chebyshev: `d(p,m) = ‖p−m‖∞ ≥ ‖p−m‖₁ / d ≥ |ΔS_r| / d`
//!
//! so the single formula `max_r |ΔS_r| / d` is a valid lower bound for
//! all three. The signs come from a dedicated constant-seeded RNG —
//! *not* the fit's RNG stream — so building the index perturbs no
//! search decision.
//!
//! # Per-medoid triangle bounds (range query)
//!
//! Within one range pass all distances live in the same metric, so for
//! any anchor medoid `mⱼ` whose exact distance `d(p, mⱼ)` was already
//! computed for this point, `d(p, mᵢ) ≥ |d(p, mⱼ) − d(mⱼ, mᵢ)|`. The
//! medoid–medoid distances are O(k²·d) per pass (the same order as the
//! `medoid_deltas` computation each round already performs) and cached
//! in the per-pass [`FusedPruneCtx`].
//!
//! # Adaptive gating
//!
//! Whole-pair bounds only pay when the data's *full-dimensional*
//! geometry separates points from medoids. On exactly the inputs the
//! paper targets — clusters that exist only in small projected
//! subspaces, drowned in noise dimensions — full-dimensional distances
//! concentrate and the bounds almost never fire, yet every pair would
//! still pay for them. Each range scan therefore probes its first
//! [`PROBE_POINTS`] points with the bounds enabled and switches them
//! off for the remainder when fewer than 1 in
//! 2^[`PROBE_DISABLE_SHIFT`] probed pairs pruned. The decision is a
//! pure function of the scanned block's rows, so counters and results
//! stay independent of thread count, and the gate can only skip an
//! *attempt* to prune — never change a result bit.
//!
//! # Floating-point safety margin
//!
//! The mathematical bounds above hold for real arithmetic; the computed
//! sketch differences and anchor distances carry rounding error. Summing
//! `d` terms bounded by the coordinate magnitudes gives an absolute
//! error of at most `γ_d·(‖p‖₁ + ‖m‖₁)` with `γ_d ≈ d·ε/2`, and after
//! the `1/d` segmental normalization every quantity the prune compares
//! (the bound *and* the exact evaluation it reasons about) has error
//! `O(ε·(‖p‖₁ + ‖m‖₁))`. A candidate is therefore only pruned when
//!
//! ```text
//! lower_bound − SLACK·(‖p‖₁ + max_m ‖m‖₁) > radius
//! ```
//!
//! with [`SLACK`] = 1024·ε — three orders of magnitude above the worst
//! error term, yet ~1e-13 relative to the coordinate scale, so it costs
//! essentially no pruning power. NaN or infinite coordinates make the
//! bound (or the slack) NaN/∞, every comparison comes out `false`, and
//! the point falls through to the exact evaluation — degenerate data
//! keeps the exact path's semantics automatically.
//!
//! # Prefix abandonment
//!
//! A candidate that survives the whole-pair bounds is evaluated
//! dimension by dimension, and abandoned as soon as the **prefix
//! accumulator already certifies `dist > δᵢ`**. IEEE-754 addition of
//! non-negative terms is monotone (`fl(a + b) ≥ a` for `b ≥ 0`,
//! because `a` is representable and rounding-to-nearest of a value
//! `≥ a` cannot fall below `a`), and division by a positive constant,
//! `sqrt`, and `max` are monotone too, so the final value is always `≥`
//! every prefix value. An abandoned candidate is therefore certainly a
//! non-member, and a member's evaluation never abandons.
//!
//! To keep the accumulation loop at one add per dimension plus one
//! compare per [`PRUNE_CHUNK`] dimensions (no division or square root
//! inside the loop, no compare on the add's dependency chain), the
//! comparison runs in **raw accumulator units**: [`raw_gt_threshold`]
//! converts the radius `δᵢ` into a raw threshold `R` — the plain sum
//! for Manhattan, the sum of squares for Euclidean, the running max for
//! Chebyshev — such that `prefix_raw ≥ R` certifies
//! `final_segmental > δᵢ`. For Chebyshev the conversion is exact (the
//! accumulator *is* the segmental value). For the other two metrics `R`
//! carries a small upward rounding margin, so the conversion can only
//! make pruning *more* conservative, never unsound; thresholds in the
//! deep-subnormal range, where relative-error reasoning breaks down,
//! are refused outright (`R = ∞`, no pruning).
//!
//! # Observability
//!
//! Pruning effectiveness is *engine configuration*, not a search fact:
//! the [`PruneStats`] counters flow to the run manifest as `index.*`
//! (see `inspect-trace`), never into the deterministic event stream —
//! the same split as the cache's `cache.*` counters and the pool's
//! physical stats.

use proclus_math::{DistanceKind, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Signed projections kept per point. Eight rows make the sketch bound
/// `max_r |ΔS_r|/d` tight enough to matter while keeping the per-pair
/// bound check an order of magnitude cheaper than an exact evaluation
/// at the dimensionalities the paper studies.
pub const SKETCH_ROWS: usize = 8;

/// Fixed seed for the sketch sign vectors. Deliberately decoupled from
/// the fit's RNG: the index must not shift any seeded search decision,
/// and indexed/unindexed fits must emit identical event streams.
const SKETCH_SEED: u64 = 0x5EED_1DE7_ACE5_0FB1;

/// Floating-point safety margin multiplier (see the module docs): a
/// candidate is pruned only when its lower bound clears the query
/// radius by more than `SLACK · (‖p‖₁ + max_m ‖m‖₁)`.
const SLACK: f64 = 1024.0 * f64::EPSILON;

/// Monotone pruning-effectiveness counters, exported to the run
/// manifest as `index.*` (measurement channel only — never the event
/// stream; see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Range-query candidates pruned by the sketch lower bound.
    pub range_sketch_pruned: u64,
    /// Range-query candidates pruned by a medoid triangle bound.
    pub range_triangle_pruned: u64,
    /// Range-query candidates that survived the whole-pair bounds but
    /// were abandoned mid-evaluation by the monotone prefix bound.
    pub range_prefix_pruned: u64,
    /// Range-query candidates that survived the bounds and were
    /// verified by an exact segmental-distance evaluation.
    pub range_verified: u64,
}

impl PruneStats {
    /// Accumulate another block's counters.
    pub fn merge(&mut self, other: PruneStats) {
        self.range_sketch_pruned += other.range_sketch_pruned;
        self.range_triangle_pruned += other.range_triangle_pruned;
        self.range_prefix_pruned += other.range_prefix_pruned;
        self.range_verified += other.range_verified;
    }
}

/// The per-fit pruning index: one signed-projection sketch row set and
/// the L1 norm per point. Built once per fit (O(N·d·[`SKETCH_ROWS`]))
/// and reused by every round, restart, and the refinement phase;
/// immutable, so it is shared with the worker pool behind an [`Arc`].
#[derive(Debug)]
pub struct NeighborIndex {
    /// `sketches[p·R .. (p+1)·R]` = the R signed projections of point p.
    sketches: Vec<f64>,
    /// `‖p‖₁` per point — the magnitude scale of the slack term.
    norm1: Vec<f64>,
}

impl NeighborIndex {
    /// Build the index over `points`. The sketch signs come from a
    /// constant-seeded RNG (never the fit's RNG), so the build is a
    /// pure function of the data shape — two fits over the same matrix
    /// share bit-identical index state regardless of their seeds.
    ///
    /// The bounds are valid for every [`DistanceKind`] (see the module
    /// docs), so the index itself is metric-agnostic; `_metric` is
    /// accepted for future metric-specialized sketches.
    pub fn build(points: &Matrix, _metric: DistanceKind) -> Self {
        let n = points.rows();
        let d = points.cols();
        let mut rng = StdRng::seed_from_u64(SKETCH_SEED);
        let mut signs = vec![1.0f64; SKETCH_ROWS * d];
        for s in signs.iter_mut() {
            if rng.random_bool(0.5) {
                *s = -1.0;
            }
        }
        let mut sketches = vec![0.0f64; n * SKETCH_ROWS];
        let mut norm1 = vec![0.0f64; n];
        for p in 0..n {
            let row = points.row(p);
            norm1[p] = row.iter().map(|v| v.abs()).sum();
            for r in 0..SKETCH_ROWS {
                let srow = &signs[r * d..(r + 1) * d];
                sketches[p * SKETCH_ROWS + r] = row.iter().zip(srow).map(|(x, s)| x * s).sum();
            }
        }
        NeighborIndex { sketches, norm1 }
    }

    /// The sketch row of point `p`.
    #[inline]
    fn point_sketch(&self, p: usize) -> &[f64] {
        &self.sketches[p * SKETCH_ROWS..(p + 1) * SKETCH_ROWS]
    }

    /// `‖p‖₁` of point `p`.
    #[inline]
    pub fn norm1(&self, p: usize) -> f64 {
        self.norm1[p]
    }
}

/// Per-pass context for the pruned range query: the queried medoids'
/// sketch rows, their pairwise full-dimensional segmental distances
/// (the triangle-bound anchors), and the precomputed slack scale.
/// O(k²·d + k·R) to build — the same order as the `medoid_deltas`
/// computation every round already performs.
pub struct FusedPruneCtx {
    index: Arc<NeighborIndex>,
    /// `med_sketch[i·R .. (i+1)·R]` = sketch row of `medoids[i]`.
    med_sketch: Vec<f64>,
    /// `mm[j·k + i]` = full-dimensional segmental distance between
    /// `medoids[j]` and `medoids[i]`.
    mm: Vec<f64>,
    /// `SLACK · max_i ‖medoids[i]‖₁` — the medoid half of the margin.
    slack_med: f64,
    /// `d · (1 + 32ε)` — the sketch test compares `|ΔS_r|` against
    /// `(radius + slack) · d_up` directly, so the per-row check is one
    /// subtract, one abs, and one compare; the upward margin on `d`
    /// absorbs the rounding of the reformulated comparison (the `1024ε`
    /// slack dwarfs it, but the margin keeps the argument local).
    d_up: f64,
    k: usize,
}

impl FusedPruneCtx {
    /// Build the context for a range pass over `medoids`.
    pub fn new(
        index: Arc<NeighborIndex>,
        points: &Matrix,
        medoids: &[usize],
        metric: DistanceKind,
    ) -> Self {
        let k = medoids.len();
        let d = points.cols();
        let all_dims: Vec<usize> = (0..d).collect();
        let mut med_sketch = Vec::with_capacity(k * SKETCH_ROWS);
        let mut slack_med = 0.0f64;
        for &m in medoids {
            med_sketch.extend_from_slice(index.point_sketch(m));
            slack_med = slack_med.max(index.norm1(m));
        }
        slack_med *= SLACK;
        let mut mm = vec![0.0f64; k * k];
        for i in 0..k {
            for j in (i + 1)..k {
                let dist = metric.eval_segmental(
                    points.row(medoids[i]),
                    points.row(medoids[j]),
                    &all_dims,
                );
                mm[i * k + j] = dist;
                mm[j * k + i] = dist;
            }
        }
        FusedPruneCtx {
            index,
            med_sketch,
            mm,
            slack_med,
            d_up: d.max(1) as f64 * (1.0 + 32.0 * f64::EPSILON),
            k,
        }
    }

    /// Number of medoid slots this context covers.
    #[inline]
    pub fn slots(&self) -> usize {
        self.k
    }

    /// Can point `p` be proven to lie strictly outside radius `radius`
    /// of medoid slot `slot`? `evaluated[j]` holds the exact distances
    /// of `p` to the slots `j < slot` already verified in this pass
    /// (`NaN` for slots that were pruned — a NaN anchor yields a NaN
    /// bound, which never prunes, so the sentinel is safe).
    ///
    /// Returns `true` only when the exact evaluation would certainly
    /// fail the `dist ≤ radius` membership test (up to the documented
    /// slack margin) — never for NaN/∞ data, which always falls
    /// through to the exact path.
    #[inline]
    pub fn prunes(
        &self,
        p: usize,
        slot: usize,
        radius: f64,
        evaluated: &[f64],
        stats: &mut PruneStats,
    ) -> bool {
        let idx = &*self.index;
        let slack = SLACK * idx.norm1[p] + self.slack_med;
        // Triangle bounds from anchors exactly evaluated earlier for
        // this point: d(p, m_slot) >= |d(p, m_j) - d(m_j, m_slot)|.
        let mm_row = &self.mm[..];
        for (j, &dj) in evaluated.iter().enumerate() {
            let lb = (dj - mm_row[j * self.k + slot]).abs();
            if lb - slack > radius {
                stats.range_triangle_pruned += 1;
                return true;
            }
        }
        // Sketch bound: any row with |S_r(p) - S_r(m)| / d - slack >
        // radius prunes. Tested in the pre-multiplied form
        // |ΔS_r| > (radius + slack)·d_up — one subtract, abs, and
        // compare per row, exiting on the first row that decides (the
        // per-row test fires iff the max-over-rows test would, since
        // the comparison is monotone in |ΔS_r|). A NaN or infinite
        // operand anywhere makes the comparison false and falls
        // through to the exact path.
        let rhs = (radius + slack) * self.d_up;
        let ps = idx.point_sketch(p);
        let ms = &self.med_sketch[slot * SKETCH_ROWS..(slot + 1) * SKETCH_ROWS];
        for (a, b) in ps.iter().zip(ms) {
            if (a - b).abs() > rhs {
                stats.range_sketch_pruned += 1;
                return true;
            }
        }
        false
    }
}

/// Points probed with the full pruning machinery at the start of each
/// scan before the adaptive gate decides whether the whole-pair bounds
/// pay for themselves (see [`PROBE_DISABLE_SHIFT`]). The probe spans
/// whole points (× the slot count in pairs), so the decision is a pure
/// function of the scanned rows — never of thread count or timing.
pub const PROBE_POINTS: usize = 64;

/// The gate disables the whole-pair bounds for the rest of a scan when
/// fewer than `probed_pairs >> PROBE_DISABLE_SHIFT` (1 in 8) of the
/// probed pairs pruned: below that rate the O(k + R) per-pair bound
/// arithmetic costs more than the exact evaluations it saves, which is
/// exactly what happens when projected clusters leave no structure in
/// the full-dimensional geometry. Disabling changes no result bit —
/// the gate only decides whether to *attempt* pruning.
pub const PROBE_DISABLE_SHIFT: u32 = 3;

/// The monotone prefix device (mid-evaluation abandonment) stays
/// enabled after the probe only when at least `PREFIX_KEEP_NUM /
/// PREFIX_KEEP_DEN` (3 in 4) of the probed evaluations abandoned. The
/// abandonment branch is data-dependent: at mixed exit depths it
/// mispredicts roughly once per candidate, which costs more than the
/// skipped tail of a 5–20-dimension evaluation saves. Only a heavily
/// biased regime — almost every reached candidate abandons, and early —
/// beats the plain evaluation, and that is exactly the regime a high
/// keep-rate selects for. Like the whole-pair gate, the decision is a
/// pure function of the probed rows and can only skip an *attempt* to
/// abandon.
pub const PREFIX_KEEP_NUM: u64 = 3;
/// See [`PREFIX_KEEP_NUM`].
pub const PREFIX_KEEP_DEN: u64 = 4;

/// Dimensions accumulated between abandonment checks in the bounded
/// evaluations. Per-element checks put a compare-and-branch on the
/// floating-point dependency chain of every add — nearly doubling the
/// cost of the (majority) evaluations that never abandon. Checking at
/// chunk boundaries keeps the overhead at one compare per
/// [`PRUNE_CHUNK`] dims while giving up at most `PRUNE_CHUNK − 1`
/// elements of savings per abandoned pair.
pub const PRUNE_CHUNK: usize = 4;

/// Raw accumulators below the normal floating-point range are refused
/// by the threshold conversions (no pruning) — absolute rounding error
/// in the subnormal regime is not covered by relative-error margins.
const RAW_FLOOR: f64 = 1e-280;

/// Upward rounding margin applied to converted raw thresholds: a few
/// ulps of headroom over the two or three roundings the conversion
/// itself performs, so `prefix_raw ≥ R` keeps certifying the real
/// inequality. Overshooting only costs pruning power, never soundness.
const RAW_MARGIN: f64 = 1.0 + 32.0 * f64::EPSILON;

/// The next representable `f64` above `x` (`f64::next_up`, which this
/// workspace's MSRV predates). NaN and `+∞` map to themselves.
fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1); // smallest positive subnormal
    }
    if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// Convert a segmental-value radius `t` into a **raw accumulator**
/// threshold `R` for the prefix-abandonment device: whenever the running
/// accumulator (Manhattan sum, Euclidean sum of squares, Chebyshev
/// running max) over `len` dimensions reaches `R`, the final segmental
/// value is certified strictly `> t`. Used where the decided comparison
/// is a `dist ≤ radius` membership test.
///
/// * `t = NaN` or `+∞` → `R = NaN`, which no accumulator ever satisfies:
///   no value is strictly greater, so pruning must never fire.
/// * `t < 0` → `R = 0`: every segmental value is `≥ 0 > t` (and a NaN
///   accumulator never satisfies `≥ 0`, preserving NaN fall-through).
/// * Otherwise the conversion certifies `final ≥ next_up(t) > t`. The
///   margin is applied to `next_up(t)` before the multiply by `len`;
///   the extra rounding of that multiply is covered by the same
///   [`RAW_MARGIN`] headroom. Deep-subnormal conversions (below
///   [`RAW_FLOOR`]) → `R = ∞`: pruning is refused rather than argued
///   about.
#[inline]
pub fn raw_gt_threshold(metric: DistanceKind, t: f64, len: usize) -> f64 {
    if t.is_nan() || t == f64::INFINITY {
        return f64::NAN;
    }
    if t < 0.0 {
        return 0.0;
    }
    let t = next_up(t);
    let len = len.max(1) as f64;
    match metric {
        // The accumulator *is* the final value prefix: exact, no margin.
        DistanceKind::Chebyshev => t,
        DistanceKind::Manhattan => {
            if t < RAW_FLOOR {
                f64::INFINITY
            } else {
                t * RAW_MARGIN * len
            }
        }
        DistanceKind::Euclidean => {
            let sq = t * t;
            if sq < RAW_FLOOR {
                f64::INFINITY
            } else {
                sq * RAW_MARGIN * len
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(0.0..100.0)).collect();
        Matrix::from_vec(data, n, d)
    }

    /// The heart of the prune-only guarantee: across metrics and seeds,
    /// whenever `prunes` fires for a (point, slot, radius) triple, the
    /// exact segmental distance really exceeds the radius.
    #[test]
    fn prune_decisions_are_never_false_negatives() {
        for metric in [
            DistanceKind::Manhattan,
            DistanceKind::Euclidean,
            DistanceKind::Chebyshev,
        ] {
            for seed in [1u64, 7, 42] {
                let points = random_points(400, 9, seed);
                let medoids = vec![3usize, 57, 200, 311];
                let all_dims: Vec<usize> = (0..points.cols()).collect();
                let index = Arc::new(NeighborIndex::build(&points, metric));
                let ctx = FusedPruneCtx::new(Arc::clone(&index), &points, &medoids, metric);
                let mut stats = PruneStats::default();
                for p in 0..points.rows() {
                    let mut evaluated = [f64::NAN; 4];
                    for (i, &m) in medoids.iter().enumerate() {
                        let exact = metric.eval_segmental(points.row(p), points.row(m), &all_dims);
                        // Radii straddling the exact distance: pruning
                        // must only fire for radii strictly below it.
                        for radius in [exact * 0.5, exact * 0.99, exact, exact * 1.5] {
                            if ctx.prunes(p, i, radius, &evaluated[..i], &mut stats) {
                                assert!(
                                    exact > radius,
                                    "{metric:?} seed {seed}: pruned p={p} slot={i} \
                                     at radius {radius} but exact = {exact}"
                                );
                            }
                        }
                        evaluated[i] = exact;
                    }
                }
                assert!(
                    stats.range_sketch_pruned + stats.range_triangle_pruned > 0,
                    "{metric:?} seed {seed}: the bounds never fired — index is inert"
                );
            }
        }
    }

    /// A converted radius only ever certifies a true non-member: across
    /// metrics and radii straddling the exact distance, whenever the
    /// complete raw accumulator (the largest value any prefix reaches)
    /// meets `raw_gt_threshold(radius)`, the exact segmental distance is
    /// strictly `> radius`.
    #[test]
    fn raw_gt_threshold_certifies_only_non_members() {
        for metric in [
            DistanceKind::Manhattan,
            DistanceKind::Euclidean,
            DistanceKind::Chebyshev,
        ] {
            let points = random_points(80, 8, 13);
            let mut abandoned = 0usize;
            for p in 0..points.rows() {
                for q in (0..points.rows()).step_by(7) {
                    let (a, b) = (points.row(p), points.row(q));
                    let diffs = a.iter().zip(b).map(|(x, y)| (x - y).abs());
                    let raw = match metric {
                        DistanceKind::Manhattan => diffs.sum::<f64>(),
                        DistanceKind::Euclidean => diffs.map(|v| v * v).sum(),
                        DistanceKind::Chebyshev => diffs.fold(0.0, f64::max),
                    };
                    let exact = metric.eval_segmental(a, b, &(0..8).collect::<Vec<_>>());
                    for t in [exact * 0.3, exact * 0.9999, exact, exact * 1.5] {
                        if raw >= raw_gt_threshold(metric, t, a.len()) {
                            abandoned += 1;
                            assert!(
                                exact > t,
                                "{metric:?}: certified but exact {exact} <= radius {t}"
                            );
                        }
                    }
                }
            }
            assert!(abandoned > 0, "{metric:?}: the threshold never fired");
        }
    }

    /// Threshold-conversion edge cases: NaN / `+∞` radii never prune,
    /// negative radii prune immediately, the deep-subnormal range
    /// refuses to prune, and the Chebyshev conversion is exact.
    #[test]
    fn raw_threshold_edge_cases() {
        for metric in [
            DistanceKind::Manhattan,
            DistanceKind::Euclidean,
            DistanceKind::Chebyshev,
        ] {
            assert!(raw_gt_threshold(metric, f64::NAN, 5).is_nan(), "{metric:?}");
            assert!(
                raw_gt_threshold(metric, f64::INFINITY, 5).is_nan(),
                "a dist <= INF membership test is always true; pruning must never fire"
            );
            assert_eq!(raw_gt_threshold(metric, -0.5, 5), 0.0, "{metric:?}");
        }
        // Subnormal thresholds are refused for the normalized metrics…
        assert_eq!(
            raw_gt_threshold(DistanceKind::Manhattan, 1e-300, 4),
            f64::INFINITY
        );
        assert_eq!(
            raw_gt_threshold(DistanceKind::Euclidean, 1e-200, 4),
            f64::INFINITY
        );
        // …while Chebyshev needs no margin at all: the accumulator is
        // the segmental value itself.
        assert_eq!(
            raw_gt_threshold(DistanceKind::Chebyshev, 1e-300, 4),
            next_up(1e-300)
        );
        assert_eq!(
            raw_gt_threshold(DistanceKind::Chebyshev, 0.0, 4),
            f64::from_bits(1)
        );
        // Finite positive thresholds sit strictly above the real
        // product, so the conversion can only under-prune.
        let rt = raw_gt_threshold(DistanceKind::Manhattan, 2.5, 4);
        assert!(rt > 2.5 * 4.0);
        let rt = raw_gt_threshold(DistanceKind::Euclidean, 2.5, 4);
        assert!(rt > 2.5 * 2.5 * 4.0);
    }

    /// NaN data must never be pruned — it has to reach the exact path
    /// so the NaN semantics of the unindexed kernels are preserved.
    #[test]
    fn nan_rows_are_never_pruned() {
        let rows: Vec<[f64; 3]> = vec![
            [0.0, 0.0, 0.0],
            [f64::NAN, 1.0, 2.0],
            [1e3, 1e3, 1e3],
            [f64::INFINITY, 0.0, 0.0],
        ];
        let points = Matrix::from_rows(&rows, 3);
        let metric = DistanceKind::Manhattan;
        let index = Arc::new(NeighborIndex::build(&points, metric));
        let medoids = vec![1usize, 3];
        let ctx = FusedPruneCtx::new(Arc::clone(&index), &points, &medoids, metric);
        let mut stats = PruneStats::default();
        for p in 0..points.rows() {
            for slot in 0..medoids.len() {
                assert!(
                    !ctx.prunes(p, slot, 0.0, &[f64::NAN; 0], &mut stats),
                    "non-finite medoid pruned p={p} slot={slot}"
                );
            }
        }
    }

    /// The index build is deterministic and independent of the fit
    /// seed (the sign RNG is constant-seeded).
    #[test]
    fn index_build_is_deterministic() {
        let points = random_points(100, 6, 77);
        let a = NeighborIndex::build(&points, DistanceKind::Manhattan);
        let b = NeighborIndex::build(&points, DistanceKind::Euclidean);
        assert_eq!(a.sketches, b.sketches);
        assert_eq!(a.norm1, b.norm1);
    }

    #[test]
    fn prune_stats_merge_adds_fields() {
        let mut a = PruneStats {
            range_sketch_pruned: 1,
            range_triangle_pruned: 2,
            range_prefix_pruned: 6,
            range_verified: 3,
        };
        a.merge(a);
        assert_eq!(
            a,
            PruneStats {
                range_sketch_pruned: 2,
                range_triangle_pruned: 4,
                range_prefix_pruned: 12,
                range_verified: 6,
            }
        );
    }
}
