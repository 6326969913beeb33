//! The cross-round iteration cache ([`RoundCache`]).
//!
//! PROCLUS's hill climb replaces only the *bad* medoids between rounds
//! (Figure 2), yet the straightforward engine recomputes every
//! locality, dimension average, distance, and cluster sum for all `k`
//! medoids every round. This module caches the per-medoid round state
//! and recomputes only what a swap actually touched, **bit-identically**
//! — `fit` with the cache on and off produce byte-identical event
//! streams and models (pinned by `tests/determinism.rs` and the
//! cached-vs-uncached invariant in `tests/invariants.rs`).
//!
//! # What is cached, and its invalidation key
//!
//! * **Fused locality + `X` slots** — for each medoid slot, the
//!   locality `Lᵢ` and the per-dimension average distances `Xᵢⱼ`,
//!   keyed by `(mᵢ, δᵢ)` (the δ value compared *bitwise*). A slot's
//!   fused result depends only on its own medoid and radius: swapping
//!   medoid `j` invalidates slot `j` directly and exactly those slots
//!   whose nearest-other-medoid distance changed — which is precisely a
//!   δ bit-change, since `medoid_deltas` is recomputed (cheaply,
//!   O(k²·d)) every round from the same code path.
//! * **Distance columns** — for each slot, up to two columns of
//!   per-point segmental distances keyed by `(mᵢ, Dᵢ)` (two, because a
//!   round queries each slot under the locality-derived dimensions and
//!   then the cluster-refined ones). A column is a pure per-point
//!   function of its key, so value-keying is exact: the global greedy
//!   dimension allocation may reshuffle another slot's `Dᵢ` after a
//!   swap, and that slot's column then misses and recomputes.
//!
//! The per-cluster `X` averages that follow a cached assignment are not
//! cached: a swap reshuffles almost every cluster's membership, so
//! [`RoundCache::assign_x`] recomputes them in one full cluster-`X`
//! pass.
//!
//! # One engine, with or without retention
//!
//! The cache is the only engine of the rounds' locality and assignment
//! passes. Disabled (`fit --no-round-cache`), it keeps nothing between
//! passes: every lookup misses and every slot goes through the same
//! subset passes ([`Pool::fused_pass`], [`Pool::distance_columns`] and
//! [`crate::kernel::argmin_columns`], [`Pool::cluster_x_pass`]) that
//! recompute invalidated slots when it is enabled.
//!
//! # Why determinism survives
//!
//! Every recomputation runs the *same block kernels over the same
//! fixed tiling* as the full pass, restricted to the invalidated slots;
//! per-slot results are independent in those kernels (see
//! [`crate::kernel`]), so a cached value and a recomputed one are the
//! same bits. The assignment is built from columns by
//! [`crate::kernel::argmin_columns`], whose loop is literally the
//! comparison loop of [`crate::assign::assign_points`]. Logical pool
//! accounting (`pool_dispatches`/`pool_blocks` in `round` events) is
//! booked per *semantic* pass via [`Pool::note_logical_pass`] whatever
//! physical work ran, so the event stream carries the same numbers with
//! the cache on or off.
//!
//! Cache effectiveness is observable through the `cache.*` manifest
//! counters and the per-round `cache.medoids_recomputed` gauge — both
//! flow through the measurement channel only, never the event stream.
//!
//! # Composition with the neighbor index
//!
//! The pruning index ([`crate::index`]) composes with the cache at the
//! pool seam, not here: subset recomputes of fused slots go through
//! [`Pool::fused_pass`], which builds a per-pass prune context whenever
//! an index is installed, so invalidated slots enjoy the same pruning
//! as a full pass. Distance columns are always computed unpruned: the
//! index answers only the locality range query.

use crate::pool::Pool;
use std::sync::Arc;

/// Monotone cache-effectiveness counters, exported to the run manifest
/// as `cache.*` (measurement channel only — never the event stream).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fused locality/`X` slots served from cache.
    pub fused_slot_hits: u64,
    /// Fused locality/`X` slots recomputed after invalidation.
    pub fused_slot_recomputes: u64,
    /// Distance columns served from cache.
    pub column_hits: u64,
    /// Distance columns recomputed after invalidation.
    pub column_recomputes: u64,
}

/// One cached fused slot: the locality and `X` row of a `(mᵢ, δᵢ)` pair.
struct FusedSlot {
    medoid: usize,
    delta_bits: u64,
    locs: Vec<usize>,
    x: Vec<f64>,
}

/// One cached distance column for a `(mᵢ, Dᵢ)` pair.
struct ColumnEntry {
    medoid: usize,
    dims: Vec<usize>,
    col: Vec<f64>,
}

/// Columns kept per slot: the two dimension sets a round queries
/// (locality-derived, then cluster-refined).
const COLUMNS_PER_SLOT: usize = 2;

/// Per-fit incremental state for the hill-climbing rounds, and the only
/// engine of the rounds' locality and assignment passes. Create one per
/// fit (it spans restarts — the value keys make stale state harmless)
/// and route every round's heavy pass through it. Disabled
/// ([`Proclus::round_cache`](crate::params::Proclus::round_cache) =
/// `false`) it retains nothing between passes: every lookup misses and
/// every slot is recomputed by the same subset passes.
pub struct RoundCache {
    enabled: bool,
    fused: Vec<Option<FusedSlot>>,
    columns: Vec<Vec<ColumnEntry>>,
    stats: CacheStats,
    round_recomputed: u64,
}

impl RoundCache {
    /// A cache for fits with `k` medoid slots. `enabled = false` keeps
    /// no state between passes (the per-round recompute gauge then
    /// counts every slot).
    pub fn new(enabled: bool, k: usize) -> Self {
        RoundCache {
            enabled,
            fused: (0..k).map(|_| None).collect(),
            columns: (0..k).map(|_| Vec::new()).collect(),
            stats: CacheStats::default(),
            round_recomputed: 0,
        }
    }

    /// Is state retained between passes?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Cumulative effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Fused slots recomputed since the previous call — the per-round
    /// "medoids recomputed" gauge. With the cache disabled this counts
    /// every slot of every pass.
    pub fn take_round_recomputed(&mut self) -> u64 {
        std::mem::take(&mut self.round_recomputed)
    }

    /// The fused locality + `X` pass, serving unchanged `(mᵢ, δᵢ)`
    /// slots from cache and recomputing the rest in one subset pass.
    /// Output is bit-identical to [`Pool::fused_round`].
    pub fn fused_round(
        &mut self,
        pool: &mut Pool<'_>,
        medoids: &[usize],
        deltas: &[f64],
    ) -> (Vec<Vec<usize>>, Vec<Vec<f64>>) {
        pool.note_logical_pass();
        let k = medoids.len();
        self.grow_to(k);
        let mut out: Vec<Option<(Vec<usize>, Vec<f64>)>> = (0..k)
            .map(|i| match &self.fused[i] {
                Some(s) if s.medoid == medoids[i] && s.delta_bits == deltas[i].to_bits() => {
                    Some((s.locs.clone(), s.x.clone()))
                }
                _ => None,
            })
            .collect();
        let missing: Vec<usize> = (0..k).filter(|&i| out[i].is_none()).collect();
        self.stats.fused_slot_hits += (k - missing.len()) as u64;
        self.stats.fused_slot_recomputes += missing.len() as u64;
        self.round_recomputed += missing.len() as u64;
        if !missing.is_empty() {
            let sub_m: Vec<usize> = missing.iter().map(|&i| medoids[i]).collect();
            let sub_d: Vec<f64> = missing.iter().map(|&i| deltas[i]).collect();
            let (locs, x) = pool.fused_pass(&sub_m, &sub_d);
            for ((&slot, li), xi) in missing.iter().zip(locs).zip(x) {
                if self.enabled {
                    self.fused[slot] = Some(FusedSlot {
                        medoid: medoids[slot],
                        delta_bits: deltas[slot].to_bits(),
                        locs: li.clone(),
                        x: xi.clone(),
                    });
                }
                out[slot] = Some((li, xi));
            }
        }
        // Every miss was just filled, so no slot takes the default.
        out.into_iter().map(Option::unwrap_or_default).unzip()
    }

    /// Plain assignment pass: the argmin over the slots' distance
    /// columns. Bit-identical to [`crate::assign::assign_points`].
    pub fn assign(
        &mut self,
        pool: &mut Pool<'_>,
        medoids: &[usize],
        dims: &[Vec<usize>],
    ) -> Vec<usize> {
        pool.note_logical_pass();
        self.assign_via_columns(pool, medoids, dims)
    }

    /// Assignment fused with the per-cluster `X` averages (the inner
    /// refinement's input): the assignment from the distance columns,
    /// then one cluster-`X` pass over the clusters it forms. Each row
    /// accumulates its members in ascending order within the fixed
    /// block tiling, so the result is bit-identical to
    /// [`crate::dims::average_dimension_distances`] over those clusters.
    pub fn assign_x(
        &mut self,
        pool: &mut Pool<'_>,
        medoids: &[usize],
        dims: &[Vec<usize>],
    ) -> (Vec<usize>, Vec<Vec<f64>>) {
        pool.note_logical_pass();
        let flat = self.assign_via_columns(pool, medoids, dims);
        let members: Vec<Option<usize>> = flat.iter().map(|&a| Some(a)).collect();
        let x = pool.cluster_x_pass(medoids, Arc::new(members));
        (flat, x)
    }

    /// Look up a column per slot for `(medoids[i], dims[i])`, compute
    /// the misses in one subset pass, and assign every point to its
    /// argmin slot; the fresh columns are kept only when enabled.
    fn assign_via_columns(
        &mut self,
        pool: &mut Pool<'_>,
        medoids: &[usize],
        dims: &[Vec<usize>],
    ) -> Vec<usize> {
        let k = medoids.len();
        self.grow_to(k);
        let hits: Vec<Option<usize>> = (0..k)
            .map(|i| {
                self.columns[i]
                    .iter()
                    .position(|e| e.medoid == medoids[i] && e.dims == dims[i])
            })
            .collect();
        let missing: Vec<usize> = (0..k).filter(|&i| hits[i].is_none()).collect();
        self.stats.column_hits += (k - missing.len()) as u64;
        self.stats.column_recomputes += missing.len() as u64;
        // A missing slot's cached columns are never read below, so its
        // oldest one is freed before the fresh columns are allocated.
        for &slot in &missing {
            if self.columns[slot].len() >= COLUMNS_PER_SLOT {
                self.columns[slot].remove(0);
            }
        }
        let sub_m: Vec<usize> = missing.iter().map(|&i| medoids[i]).collect();
        let sub_d: Vec<Vec<usize>> = missing.iter().map(|&i| dims[i].clone()).collect();
        let fresh = pool.distance_columns(&sub_m, &sub_d);
        let mut cols: Vec<&[f64]> = vec![&[]; k];
        for (i, hit) in hits.iter().enumerate() {
            if let Some(e) = *hit {
                cols[i] = &self.columns[i][e].col;
            }
        }
        for (&slot, col) in missing.iter().zip(&fresh) {
            cols[slot] = col;
        }
        let assignment = crate::kernel::argmin_columns(&cols, pool.points().rows());
        if self.enabled {
            for (&slot, col) in missing.iter().zip(fresh) {
                self.columns[slot].push(ColumnEntry {
                    medoid: medoids[slot],
                    dims: dims[slot].clone(),
                    col,
                });
            }
        }
        assignment
    }

    /// Grow the per-slot tables to at least `k` slots (`run_once` is
    /// called with a fixed `k`, but the cache does not assume it).
    fn grow_to(&mut self, k: usize) {
        while self.fused.len() < k {
            self.fused.push(None);
        }
        while self.columns.len() < k {
            self.columns.push(Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::medoid_deltas;
    use crate::pool::with_pool;
    use proclus_math::{DistanceKind, Matrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Quantized coordinates force plenty of exact distance ties, so the
    /// tie-breaking of every path is exercised, not just the generic
    /// ordering.
    fn tie_heavy_points(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d)
            .map(|_| f64::from(rng.random_range(0u32..6)))
            .collect();
        Matrix::from_vec(data, n, d)
    }

    fn random_points(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(0.0..100.0)).collect();
        Matrix::from_vec(data, n, d)
    }

    /// S1 cross-path equivalence property test: the scalar
    /// `assign_points` and the column-argmin path — cold, warm (served
    /// from cache) and with the cache disabled — must agree bit for bit
    /// over seeded random matrices, including tie-heavy ones where
    /// quantized coordinates make many distances exactly equal, for
    /// every metric and thread count tried.
    #[test]
    fn all_assignment_paths_agree_on_seeded_matrices() {
        for metric in [
            DistanceKind::Manhattan,
            DistanceKind::Euclidean,
            DistanceKind::Chebyshev,
        ] {
            for seed in [1u64, 2, 3] {
                for points in [
                    tie_heavy_points(1500, 5, seed),
                    random_points(1500, 5, seed),
                ] {
                    let medoids = vec![4usize, 600, 1100];
                    let dims = vec![vec![0, 1], vec![1, 2, 3], vec![0, 4]];
                    let scalar = crate::assign::assign_points(&points, &medoids, &dims, metric);
                    for threads in [1usize, 4] {
                        let (cold, warm, unretained) =
                            with_pool(&points, metric, threads, |pool| {
                                let mut cache = RoundCache::new(true, medoids.len());
                                let cold = cache.assign(pool, &medoids, &dims);
                                // Second call is served from cache.
                                let warm = cache.assign(pool, &medoids, &dims);
                                assert_eq!(cache.stats().column_hits, 3);
                                let mut off = RoundCache::new(false, medoids.len());
                                (cold, warm, off.assign(pool, &medoids, &dims))
                            });
                        let ctx = format!("{metric:?} seed {seed} t{threads}");
                        assert_eq!(scalar, cold, "{ctx}: cold");
                        assert_eq!(scalar, warm, "{ctx}: cache hit");
                        assert_eq!(scalar, unretained, "{ctx}: cache disabled");
                    }
                }
            }
        }
    }

    /// A swap-style workload: cached rounds must be bit-identical to
    /// uncached rounds while actually hitting the cache.
    #[test]
    fn cached_rounds_match_uncached_rounds_bit_for_bit() {
        let points = random_points(4000, 8, 11);
        let metric = DistanceKind::Manhattan;
        let medoids = vec![10usize, 900, 2100, 3300];
        let total_dims = 12;

        let run_rounds = |cache_on: bool| {
            let mut medoids = medoids.clone();
            with_pool(&points, metric, 1, |pool| {
                let mut cache = RoundCache::new(cache_on, medoids.len());
                let mut out = Vec::new();
                for round in 0..6 {
                    // Swap one slot every other round, like the
                    // bad-medoid step; the quiet rounds re-evaluate an
                    // unchanged vertex.
                    if round % 2 == 1 {
                        let slot = round % medoids.len();
                        medoids[slot] = 123 * round + 17;
                    }
                    let deltas = medoid_deltas(&points, &medoids, metric);
                    let (locs, x) = cache.fused_round(pool, &medoids, &deltas);
                    let dims = crate::dims::find_dimensions_from_averages(&x, total_dims, true);
                    let (flat, cx) = cache.assign_x(pool, &medoids, &dims);
                    let dims2 = crate::dims::find_dimensions_from_averages(&cx, total_dims, true);
                    let flat2 = cache.assign(pool, &medoids, &dims2);
                    out.push((locs, x, dims, flat, cx, dims2, flat2));
                }
                (out, cache.stats(), pool.stats(), pool.physical_stats())
            })
        };

        let (uncached, _, logical_a, physical_a) = run_rounds(false);
        let (cached, stats, logical_b, physical_b) = run_rounds(true);
        assert_eq!(uncached, cached, "cached engine diverged");
        assert_eq!(
            logical_a, logical_b,
            "logical pool accounting must not see the cache"
        );
        // A pass whose every slot hits dispatches nothing, so the
        // cached engine fans out fewer times than the one that retains
        // nothing.
        assert!(
            physical_b.dispatches < physical_a.dispatches,
            "cached engine must skip physical passes: {physical_b:?} vs {physical_a:?}"
        );
        assert!(
            stats.fused_slot_hits > 0 && stats.column_hits > 0,
            "workload must exercise the cache: {stats:?}"
        );
    }

    /// A disabled cache retains nothing between passes: results equal
    /// the enabled cache's, nothing ever hits, and repeating a pass
    /// recomputes every slot again.
    #[test]
    fn disabled_cache_retains_nothing_between_passes() {
        let points = random_points(1200, 4, 5);
        let metric = DistanceKind::Manhattan;
        let medoids = vec![3usize, 800];
        let dims = vec![vec![0, 1], vec![2, 3]];
        let deltas = medoid_deltas(&points, &medoids, metric);
        let k = medoids.len() as u64;
        with_pool(&points, metric, 1, |pool| {
            let mut on = RoundCache::new(true, medoids.len());
            let mut off = RoundCache::new(false, medoids.len());
            for _ in 0..2 {
                assert_eq!(
                    on.fused_round(pool, &medoids, &deltas),
                    off.fused_round(pool, &medoids, &deltas)
                );
                assert_eq!(
                    on.assign(pool, &medoids, &dims),
                    off.assign(pool, &medoids, &dims)
                );
                assert_eq!(
                    on.assign_x(pool, &medoids, &dims),
                    off.assign_x(pool, &medoids, &dims)
                );
            }
            assert!(on.stats().fused_slot_hits > 0 && on.stats().column_hits > 0);
            let stats = off.stats();
            assert_eq!((stats.fused_slot_hits, stats.column_hits), (0, 0));
            assert_eq!(stats.fused_slot_recomputes, 2 * k);
            assert_eq!(stats.column_recomputes, 4 * k);
            assert_eq!(off.take_round_recomputed(), 2 * k);
            // The second round of identical passes ran again in full.
            let before = pool.physical_stats().dispatches;
            off.assign(pool, &medoids, &dims);
            assert_eq!(pool.physical_stats().dispatches, before + 1);
        });
    }
}
