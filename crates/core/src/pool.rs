//! A persistent worker pool for the per-round O(N·k·d) passes.
//!
//! The previous parallel path spawned a fresh set of scoped threads for
//! *every* locality and assignment call — hundreds of spawn/join cycles
//! per fit. This module creates the workers **once per fit** (inside
//! [`with_pool`]) and reuses them across every hill-climbing round,
//! restart, and the refinement phase; per-round jobs flow over
//! channels.
//!
//! # Design
//!
//! * Workers live inside a [`std::thread::scope`] spanning the whole
//!   fit, so they can borrow the point matrix directly — no `unsafe`,
//!   no copying the data (the crate forbids unsafe code).
//! * Work is distributed as the fixed-size row blocks
//!   ([`crate::kernel::BLOCK`]) of the per-fit columnar mirror
//!   ([`ColumnarBlocks`]): a job names a tile, so every block runs the
//!   columnar kernel on its own tile by construction. A shared queue
//!   lets fast workers steal the remaining blocks, so an unlucky
//!   scheduling of one block never idles the rest of the pool.
//! * Every block result is tagged with its block index and merged on
//!   the coordinating thread in ascending index order. Together with
//!   the fixed tiling this makes the result **bit-identical for every
//!   thread count** — see [`crate::kernel`] for the argument.
//! * `threads <= 1` (or a dataset smaller than one block) skips the
//!   workers entirely; the serial path runs the *same* block kernels in
//!   the same order. Both are compared bit for bit against the scalar
//!   references in `tests/columnar.rs`.

use crate::index::{FusedPruneCtx, NeighborIndex, PruneStats};
use crate::kernel::{self, FusedPartial};
use crate::layout::{ColumnarBlocks, TileView};
use proclus_math::{DistanceKind, Matrix};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};

/// Owned per-round job data shipped to the workers. Small (O(k·d) plus
/// one `Arc`'d assignment for the refinement pass) — the point matrix
/// itself is borrowed by the workers, never sent.
///
/// The fused task optionally carries a shared [`FusedPruneCtx`], which
/// engages the pruned kernel ([`crate::kernel::fused_block_pruned`]).
/// It is bit-identical to the columnar kernel, so the choice never
/// reaches the results — only the [`PruneStats`] riding back with each
/// partial.
enum Task {
    Fused {
        medoids: Arc<Vec<usize>>,
        deltas: Arc<Vec<f64>>,
        ctx: Option<Arc<FusedPruneCtx>>,
    },
    Columns {
        medoids: Arc<Vec<usize>>,
        dims: Arc<Vec<Vec<usize>>>,
    },
    ClusterX {
        medoids: Arc<Vec<usize>>,
        assignment: Arc<Vec<Option<usize>>>,
    },
    RefineAssign {
        medoids: Arc<Vec<usize>>,
        dims: Arc<Vec<Vec<usize>>>,
        spheres: Arc<Vec<f64>>,
    },
}

/// One unit of work: a task applied to the tile with index `index`.
struct Job {
    task: Task,
    index: usize,
}

/// A block's partial result, matched to the [`Task`] variant.
enum Partial {
    Fused(FusedPartial),
    Columns(Vec<Vec<f64>>),
    ClusterX(Vec<Vec<f64>>),
    RefineAssign(Vec<Option<usize>>),
}

/// What one block sends back: its partial plus the block's counters.
type BlockResult = (Partial, PruneStats);

impl Task {
    /// Run the task over one tile. The returned [`PruneStats`] are this
    /// block's index-pruning counters (zero unless the fused task
    /// carries a prune context) —
    /// per-pair decisions depend only on the pair, so the totals are
    /// scheduling-independent even though they ride back with partials.
    fn run(&self, tile: &TileView<'_>, points: &Matrix, metric: DistanceKind) -> BlockResult {
        let mut prune = PruneStats::default();
        let partial = match self {
            Task::Fused {
                medoids,
                deltas,
                ctx,
            } => Partial::Fused(match ctx {
                Some(ctx) => kernel::fused_block_pruned(
                    tile, points, metric, medoids, deltas, ctx, &mut prune,
                ),
                None => kernel::fused_block_columnar(tile, points, metric, medoids, deltas),
            }),
            Task::Columns { medoids, dims } => Partial::Columns(kernel::columns_block_columnar(
                tile, points, metric, medoids, dims,
            )),
            Task::ClusterX {
                medoids,
                assignment,
            } => Partial::ClusterX(kernel::cluster_x_block_columnar(
                tile, points, medoids, assignment,
            )),
            Task::RefineAssign {
                medoids,
                dims,
                spheres,
            } => Partial::RefineAssign(kernel::refine_block_columnar(
                tile, points, metric, medoids, dims, spheres,
            )),
        };
        (partial, prune)
    }

    fn clone_refs(&self) -> Task {
        match self {
            Task::Fused {
                medoids,
                deltas,
                ctx,
            } => Task::Fused {
                medoids: Arc::clone(medoids),
                deltas: Arc::clone(deltas),
                ctx: ctx.as_ref().map(Arc::clone),
            },
            Task::Columns { medoids, dims } => Task::Columns {
                medoids: Arc::clone(medoids),
                dims: Arc::clone(dims),
            },
            Task::ClusterX {
                medoids,
                assignment,
            } => Task::ClusterX {
                medoids: Arc::clone(medoids),
                assignment: Arc::clone(assignment),
            },
            Task::RefineAssign {
                medoids,
                dims,
                spheres,
            } => Task::RefineAssign {
                medoids: Arc::clone(medoids),
                dims: Arc::clone(dims),
                spheres: Arc::clone(spheres),
            },
        }
    }
}

enum Mode {
    /// No workers: blocks run inline, in order, on the calling thread.
    Serial,
    /// Persistent workers consuming from a shared job queue.
    Pooled {
        job_tx: Sender<Job>,
        result_rx: Receiver<(usize, BlockResult)>,
    },
}

/// Work counters maintained by the pool.
///
/// The pool keeps two of these with different contracts:
///
/// * **Logical** stats count the algorithm's *semantic* passes — one
///   per locality round, assignment, assignment + `X`, cluster `X` and
///   refinement reassignment — each booked as a sweep over every row
///   block. They are **deterministic**: a pure function of
///   `(params, data, seed)`, identical for every thread count *and*
///   with the round cache on or off (the [`crate::cache::RoundCache`]
///   books one logical pass per semantic pass whatever it runs).
///   Safe to embed in the trace event stream, and `round` events do.
/// * **Physical** stats count the fan-outs that actually ran. Each
///   covers every row block, however many medoid slots it carries. A
///   pass fully served from cache dispatches nothing, while an
///   assignment with `X` dispatches two (a distance-columns pass for
///   the missing slots and a cluster-`X` pass), so physical work can
///   exceed logical work, and the gap between them is *not* the work
///   the cache saved. Scheduling-independent too, but engine-dependent,
///   so they go only to the run-manifest counters, never the event
///   stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fan-out passes (one per semantic pass for the logical stats).
    pub dispatches: u64,
    /// Row blocks processed across those passes.
    pub blocks: u64,
}

impl PoolStats {
    fn diff(self, earlier: PoolStats) -> PoolStats {
        PoolStats {
            dispatches: self.dispatches - earlier.dispatches,
            blocks: self.blocks - earlier.blocks,
        }
    }
}

/// Handle to the per-fit worker pool (or its serial stand-in). Obtained
/// via [`with_pool`]; all heavy passes of the fit go through it.
pub struct Pool<'env> {
    points: &'env Matrix,
    metric: DistanceKind,
    mode: Mode,
    workers: usize,
    stats: PoolStats,
    physical: PoolStats,
    round_mark: PoolStats,
    queue_high_water: u64,
    /// The per-fit neighbor index; `Some` engages the pruned kernel in
    /// every fused locality pass.
    index: Option<Arc<NeighborIndex>>,
    /// Cumulative pruning counters across all passes (manifest-only —
    /// see [`crate::index::PruneStats`]).
    prune: PruneStats,
    /// The columnar mirror shared with the workers: one tile per
    /// dispatched block.
    layout: Arc<ColumnarBlocks>,
}

/// Run `f` with a [`Pool`] over `points`. The columnar mirror is built
/// once here (one pass over the matrix) and shared read-only with every
/// worker. With `threads > 1` (and at least two blocks of data) the
/// workers are spawned once, live for the whole call, and are joined
/// before this function returns; otherwise `f` gets a serial pool and
/// no threads are ever created.
pub fn with_pool<R>(
    points: &Matrix,
    metric: DistanceKind,
    threads: usize,
    f: impl FnOnce(&mut Pool<'_>) -> R,
) -> R {
    let layout = Arc::new(ColumnarBlocks::build(points, false));
    // More workers than blocks would never all run; cap keeps the
    // spawn cost proportional to useful parallelism. (Results do not
    // depend on the cap — or on the thread count at all.)
    let workers = threads.min(layout.len());
    let pool = |mode, workers, layout| Pool {
        points,
        metric,
        mode,
        workers,
        stats: PoolStats::default(),
        physical: PoolStats::default(),
        round_mark: PoolStats::default(),
        queue_high_water: 0,
        index: None,
        prune: PruneStats::default(),
        layout,
    };
    if workers <= 1 {
        return f(&mut pool(Mode::Serial, 0, layout));
    }
    std::thread::scope(|s| {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (result_tx, result_rx) = mpsc::channel();
        for _ in 0..workers {
            let rx = Arc::clone(&job_rx);
            let tx = result_tx.clone();
            let layout = Arc::clone(&layout);
            s.spawn(move || {
                loop {
                    // Hold the lock only to pop; compute unlocked. A
                    // poisoned lock (a worker died mid-pop) is still a
                    // usable receiver — take it and keep draining.
                    let job = match rx
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .recv()
                    {
                        Ok(job) => job,
                        Err(_) => break, // pool dropped: fit is over
                    };
                    let tile = layout.tile(job.index);
                    let result = job.task.run(&tile, points, metric);
                    if tx.send((job.index, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(result_tx);
        let mut pool = pool(Mode::Pooled { job_tx, result_rx }, workers, layout);
        let out = f(&mut pool);
        // Dropping the pool closes the job channel; every worker's next
        // recv fails and it exits, letting the scope join them.
        drop(pool);
        out
    })
}

impl<'env> Pool<'env> {
    /// The point matrix this pool's workers operate on. The returned
    /// reference outlives the pool borrow, so callers can hold it
    /// across further (mutable) pool calls.
    pub fn points(&self) -> &'env Matrix {
        self.points
    }

    /// The distance kind used by every pass.
    pub fn metric(&self) -> DistanceKind {
        self.metric
    }

    /// Worker threads backing this pool (0 in serial mode). A
    /// measurement, not a search fact: manifest gauges only, never the
    /// event stream.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cumulative **logical** work counters since pool creation: the
    /// canonical semantic passes, identical for every thread count and
    /// with the round cache on or off.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Cumulative **physical** work counters since pool creation: the
    /// fan-outs that actually ran. They can be above or below
    /// [`Pool::stats`] (see [`PoolStats`]); manifest counters only,
    /// never the event stream.
    pub fn physical_stats(&self) -> PoolStats {
        self.physical
    }

    /// Book one logical pass (a full sweep over every row block)
    /// without running anything. The round cache calls this once for
    /// every semantic pass, whatever physical work it then runs, so the
    /// logical counters embedded in `round` events do not depend on
    /// what the cache retained.
    pub(crate) fn note_logical_pass(&mut self) {
        self.stats.dispatches += 1;
        self.stats.blocks += self.layout.len() as u64;
    }

    /// Work counters accumulated since the previous call (or pool
    /// creation). The iterative phase calls this once per round to tag
    /// its `round` events with per-round pool work.
    pub fn take_round_delta(&mut self) -> PoolStats {
        let delta = self.stats.diff(self.round_mark);
        self.round_mark = self.stats;
        delta
    }

    /// Largest number of jobs queued by a single dispatch (0 in serial
    /// mode). Scheduling-dependent by nature: manifest gauges only.
    pub fn queue_high_water(&self) -> u64 {
        self.queue_high_water
    }

    /// Install (or remove) the neighbor index. With an index set, every
    /// fused locality pass runs the pruned kernel; results are
    /// bit-identical either way.
    pub fn set_index(&mut self, index: Option<Arc<NeighborIndex>>) {
        self.index = index;
    }

    /// Whether a neighbor index is installed.
    pub fn index_enabled(&self) -> bool {
        self.index.is_some()
    }

    /// Cumulative index-pruning counters since pool creation.
    /// Scheduling-independent (per-pair decisions depend only on the
    /// pair) but engine-dependent: manifest counters only, never the
    /// event stream.
    pub fn prune_stats(&self) -> PruneStats {
        self.prune
    }

    /// Fan a task out over all row blocks, booking both a logical and a
    /// physical pass.
    fn dispatch(&mut self, task: Task) -> Vec<Partial> {
        self.note_logical_pass();
        self.dispatch_physical(task)
    }

    /// Fan a task out over all row blocks and collect the partials in
    /// ascending block order. Books only a *physical* pass — used
    /// directly by the cache's subset recomputations, whose logical
    /// accounting happens at the semantic-pass level instead.
    fn dispatch_physical(&mut self, task: Task) -> Vec<Partial> {
        let total = self.layout.len();
        self.physical.dispatches += 1;
        self.physical.blocks += total as u64;
        let (points, metric) = (self.points, self.metric);
        let mut results: Vec<Option<BlockResult>> = (0..total).map(|_| None).collect();
        if let Mode::Pooled { job_tx, result_rx } = &self.mode {
            let mut queued = 0usize;
            for index in 0..total {
                let job = Job {
                    task: task.clone_refs(),
                    index,
                };
                if job_tx.send(job).is_err() {
                    break; // workers gone: the serial sweep below covers it
                }
                queued += 1;
            }
            self.queue_high_water = self.queue_high_water.max(queued as u64);
            let mut received = 0usize;
            while received < queued {
                match result_rx.recv() {
                    Ok((index, result)) => {
                        if results[index].replace(result).is_none() {
                            received += 1;
                        }
                    }
                    Err(_) => break, // all workers gone mid-dispatch
                }
            }
        }
        // Serial mode runs every block here, in order; pooled mode
        // degrades gracefully — any block no worker reported (a hung-up
        // pool) is computed on this thread, so the pass always completes
        // with the exact serial result.
        let mut partials = Vec::with_capacity(total);
        for (tile, slot) in self.layout.tiles().zip(results) {
            let (partial, prune) = slot.unwrap_or_else(|| task.run(&tile, points, metric));
            self.prune.merge(prune);
            partials.push(partial);
        }
        partials
    }

    /// The fused locality + `X` pass: localities of every medoid and
    /// the per-dimension average distances over them, from one sweep.
    pub fn fused_round(
        &mut self,
        medoids: &[usize],
        deltas: &[f64],
    ) -> (Vec<Vec<usize>>, Vec<Vec<f64>>) {
        self.note_logical_pass();
        self.fused_pass(medoids, deltas)
    }

    /// [`Pool::fused_round`] booking only physical work. The cache uses
    /// this to recompute the invalidated *subset* of medoid slots: each
    /// slot's locality and `X` row depend only on its own `(mᵢ, δᵢ)`
    /// pair and the fixed block tiling, so a subset pass is bit-identical
    /// to the matching slots of the full pass.
    pub(crate) fn fused_pass(
        &mut self,
        medoids: &[usize],
        deltas: &[f64],
    ) -> (Vec<Vec<usize>>, Vec<Vec<f64>>) {
        let d = self.points.cols();
        // O(k²·d + k·R) per pass — amortized over the O(N·k·d) sweep it
        // prunes. Built fresh each pass because the medoid set changes.
        let ctx = self.index.as_ref().map(|idx| {
            Arc::new(FusedPruneCtx::new(
                Arc::clone(idx),
                self.points,
                medoids,
                self.metric,
            ))
        });
        let partials = self.dispatch_physical(Task::Fused {
            medoids: Arc::new(medoids.to_vec()),
            deltas: Arc::new(deltas.to_vec()),
            ctx,
        });
        let fused = partials
            .into_iter()
            .map(|p| match p {
                Partial::Fused(f) => f,
                _ => unreachable!("fused task returns fused partials"),
            })
            .collect();
        kernel::merge_fused(fused, medoids, d)
    }

    /// Segmental-distance columns for the given medoid slots: one
    /// `Vec<f64>` of length `N` per slot, `cols[s][p]` the distance of
    /// point `p` to `medoids[s]` under `dims[s]`. Physical work only —
    /// this is the cache's column-recomputation pass; see
    /// [`crate::kernel::columns_block_columnar`] for the bit-identity
    /// argument.
    pub fn distance_columns(&mut self, medoids: &[usize], dims: &[Vec<usize>]) -> Vec<Vec<f64>> {
        if medoids.is_empty() {
            return Vec::new();
        }
        let partials = self.dispatch_physical(Task::Columns {
            medoids: Arc::new(medoids.to_vec()),
            dims: Arc::new(dims.to_vec()),
        });
        let mut cols: Vec<Vec<f64>> = medoids
            .iter()
            .map(|_| Vec::with_capacity(self.points.rows()))
            .collect();
        for p in partials {
            match p {
                Partial::Columns(c) => {
                    for (full, mut part) in cols.iter_mut().zip(c) {
                        full.append(&mut part);
                    }
                }
                _ => unreachable!("columns task returns column partials"),
            }
        }
        cols
    }

    /// Cluster-based `X` averages for a fixed assignment (outliers —
    /// `None` — contribute nothing). Used by the refinement phase.
    pub fn cluster_x(
        &mut self,
        medoids: &[usize],
        assignment: Arc<Vec<Option<usize>>>,
    ) -> Vec<Vec<f64>> {
        self.note_logical_pass();
        self.cluster_x_pass(medoids, assignment)
    }

    /// [`Pool::cluster_x`] booking only physical work. The cache uses
    /// this for the `X` half of a cached assignment, whose logical pass
    /// it has already booked.
    pub(crate) fn cluster_x_pass(
        &mut self,
        medoids: &[usize],
        assignment: Arc<Vec<Option<usize>>>,
    ) -> Vec<Vec<f64>> {
        let k = medoids.len();
        let d = self.points.cols();
        let mut counts = vec![0usize; k];
        for a in assignment.iter().flatten() {
            counts[*a] += 1;
        }
        let partials = self.dispatch_physical(Task::ClusterX {
            medoids: Arc::new(medoids.to_vec()),
            assignment,
        });
        let parts = partials
            .into_iter()
            .map(|p| match p {
                Partial::ClusterX(x) => x,
                _ => unreachable!("cluster_x task returns cluster_x partials"),
            })
            .collect();
        kernel::merge_cluster_x(parts, &counts, d)
    }

    /// Refinement assignment: nearest medoid, `None` outside every
    /// sphere of influence.
    pub fn refine_assign(
        &mut self,
        medoids: &[usize],
        dims: &[Vec<usize>],
        spheres: &[f64],
    ) -> Vec<Option<usize>> {
        let partials = self.dispatch(Task::RefineAssign {
            medoids: Arc::new(medoids.to_vec()),
            dims: Arc::new(dims.to_vec()),
            spheres: Arc::new(spheres.to_vec()),
        });
        let mut flat = Vec::with_capacity(self.points.rows());
        for p in partials {
            match p {
                Partial::RefineAssign(mut a) => flat.append(&mut a),
                _ => unreachable!("refine task returns refine partials"),
            }
        }
        flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::medoid_deltas;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * d).map(|_| rng.random_range(0.0..100.0)).collect();
        Matrix::from_vec(data, n, d)
    }

    /// Every pooled pass must be bit-identical to the serial pool for
    /// any worker count, including counts far above the block count.
    #[test]
    fn pooled_passes_match_serial_bit_for_bit() {
        let points = random_points(3000, 6, 42);
        let medoids = vec![5usize, 700, 1800];
        let dims = vec![vec![0, 1], vec![2, 3], vec![4, 5]];
        let metric = DistanceKind::Manhattan;
        let deltas = medoid_deltas(&points, &medoids, metric);
        let spheres = crate::refine::spheres_of_influence(&points, &medoids, &dims, metric);

        let passes = |pool: &mut Pool<'_>| {
            let fused = pool.fused_round(&medoids, &deltas);
            let cols = pool.distance_columns(&medoids, &dims);
            let asg: Arc<Vec<Option<usize>>> =
                Arc::new((0..points.rows()).map(|p| Some(p % 3)).collect());
            let cx = pool.cluster_x(&medoids, asg);
            let ra = pool.refine_assign(&medoids, &dims, &spheres);
            (fused, cols, cx, ra)
        };
        let serial = with_pool(&points, metric, 1, passes);
        for threads in [2, 3, 8, 64] {
            let pooled = with_pool(&points, metric, threads, passes);
            assert_eq!(serial.0, pooled.0, "fused, threads = {threads}");
            assert_eq!(serial.1, pooled.1, "columns, threads = {threads}");
            assert_eq!(serial.2, pooled.2, "cluster_x, threads = {threads}");
            assert_eq!(serial.3, pooled.3, "refine, threads = {threads}");
        }
    }

    /// A subset fused pass (the cache's invalidation recompute) must be
    /// bit-identical to the matching slots of the full pass, and the
    /// column pass must reproduce the exact distances the assignment
    /// kernels compare.
    #[test]
    fn subset_passes_match_full_pass_slots() {
        let points = random_points(2600, 6, 17);
        let medoids = vec![5usize, 700, 1800, 2100];
        let dims = vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![0, 5]];
        let metric = DistanceKind::Manhattan;
        let deltas = medoid_deltas(&points, &medoids, metric);

        for threads in [1, 4] {
            with_pool(&points, metric, threads, |pool| {
                let (full_locs, full_x) = pool.fused_round(&medoids, &deltas);
                for subset in [vec![1usize], vec![0, 2], vec![3, 1]] {
                    let sub_m: Vec<usize> = subset.iter().map(|&i| medoids[i]).collect();
                    let sub_d: Vec<f64> = subset.iter().map(|&i| deltas[i]).collect();
                    let (locs, x) = pool.fused_pass(&sub_m, &sub_d);
                    for (j, &slot) in subset.iter().enumerate() {
                        assert_eq!(locs[j], full_locs[slot], "threads {threads} slot {slot}");
                        assert_eq!(x[j], full_x[slot], "threads {threads} slot {slot}");
                    }
                }

                let cols = pool.distance_columns(&medoids, &dims);
                for (s, (&m, di)) in medoids.iter().zip(&dims).enumerate() {
                    for (p, &got) in cols[s].iter().enumerate() {
                        let direct = metric.eval_segmental(points.row(p), points.row(m), di);
                        assert_eq!(got.to_bits(), direct.to_bits(), "slot {s} row {p}");
                    }
                }
                assert!(pool.distance_columns(&[], &[]).is_empty());
            });
        }
    }

    /// Logical stats count semantic passes over every block; physical
    /// stats count what actually ran. A subset pass moves only the
    /// physical needle.
    #[test]
    fn logical_and_physical_stats_diverge_on_subset_passes() {
        let points = random_points(3000, 4, 3);
        let medoids = vec![1usize, 2000];
        let metric = DistanceKind::Manhattan;
        let deltas = medoid_deltas(&points, &medoids, metric);
        with_pool(&points, metric, 1, |pool| {
            let nblocks = kernel::blocks(points.rows()).len() as u64;
            pool.fused_round(&medoids, &deltas);
            assert_eq!(pool.stats(), pool.physical_stats());
            assert_eq!(pool.stats().dispatches, 1);
            assert_eq!(pool.stats().blocks, nblocks);

            pool.fused_pass(&medoids[..1], &deltas[..1]);
            assert_eq!(pool.stats().dispatches, 1, "subset pass is not logical");
            assert_eq!(pool.physical_stats().dispatches, 2);

            pool.note_logical_pass();
            assert_eq!(pool.stats().dispatches, 2);
            assert_eq!(pool.stats().blocks, 2 * nblocks);
            assert_eq!(pool.physical_stats().dispatches, 2);
        });
    }

    #[test]
    fn pool_survives_many_rounds() {
        // The same workers serve repeated dispatches (the whole point of
        // the persistent pool).
        let points = random_points(2500, 4, 7);
        let metric = DistanceKind::Manhattan;
        let rounds = |pool: &mut Pool<'_>| {
            let mut sum = 0.0f64;
            for round in 0..20 {
                let medoids = vec![round, 1000 + round];
                let dims = vec![vec![0, 1], vec![2, 3]];
                sum += pool
                    .distance_columns(&medoids, &dims)
                    .concat()
                    .iter()
                    .sum::<f64>();
            }
            sum
        };
        let total = with_pool(&points, metric, 4, rounds);
        let serial_total = with_pool(&points, metric, 1, rounds);
        assert_eq!(total.to_bits(), serial_total.to_bits());
    }

    /// Installing the neighbor index must not move a single bit of any
    /// pass result — only the prune counters — at any thread count.
    #[test]
    fn indexed_pool_passes_match_unindexed_bit_for_bit() {
        let points = random_points(3000, 6, 42);
        let medoids = vec![5usize, 700, 1800];
        let dims = vec![vec![0, 1], vec![2, 3], vec![4, 5]];
        let metric = DistanceKind::Manhattan;
        let deltas = medoid_deltas(&points, &medoids, metric);
        let spheres = crate::refine::spheres_of_influence(&points, &medoids, &dims, metric);

        let run = |threads: usize, indexed: bool| {
            with_pool(&points, metric, threads, |pool| {
                if indexed {
                    pool.set_index(Some(Arc::new(NeighborIndex::build(&points, metric))));
                    assert!(pool.index_enabled());
                }
                let fused = pool.fused_round(&medoids, &deltas);
                let cols = pool.distance_columns(&medoids, &dims);
                let ra = pool.refine_assign(&medoids, &dims, &spheres);
                let pruned = {
                    let s = pool.prune_stats();
                    s.range_sketch_pruned + s.range_triangle_pruned + s.range_prefix_pruned
                };
                (fused, cols, ra, pruned)
            })
        };

        let plain = run(1, false);
        assert_eq!(plain.3, 0, "unindexed pool must not count prunes");
        for threads in [1, 4] {
            let indexed = run(threads, true);
            assert_eq!(plain.0, indexed.0, "fused, threads {threads}");
            assert_eq!(plain.1, indexed.1, "columns, threads {threads}");
            assert_eq!(plain.2, indexed.2, "refine, threads {threads}");
            assert!(indexed.3 > 0, "index inert at threads {threads}");
        }
        // The counters themselves are scheduling-independent.
        assert_eq!(run(1, true).3, run(4, true).3);
    }

    #[test]
    fn tiny_datasets_stay_serial() {
        // Fewer rows than one block: no workers are spawned, results
        // still correct.
        let points = random_points(50, 3, 1);
        let medoids = vec![0usize, 25];
        let dims = vec![vec![0, 1], vec![1, 2]];
        let metric = DistanceKind::Manhattan;
        let a = with_pool(&points, metric, 8, |pool| {
            assert_eq!(pool.workers(), 0);
            let cols = pool.distance_columns(&medoids, &dims);
            let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
            kernel::argmin_columns(&refs, points.rows())
        });
        let b = crate::assign::assign_points(&points, &medoids, &dims, metric);
        assert_eq!(a, b);
    }
}
