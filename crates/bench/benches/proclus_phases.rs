//! Phase-level microbenchmarks for PROCLUS: greedy initialization,
//! locality analysis, FindDimensions, AssignPoints, and cluster
//! evaluation, each on a fixed mid-size dataset. Together these account
//! for one hill-climbing round; Figure 7/8/9 shapes follow from how
//! their costs scale in N, l, and d.
//!
//! Further groups measure the round-level optimizations. Every pool
//! pass runs the columnar block kernels (the pool's only layout), so
//! these groups time those kernels against their scalar references or
//! across thread counts and cache settings:
//!
//! * `round_pass/10k` — the two-sweep scalar reference (`localities`
//!   then `average_dimension_distances`) vs the pool's fused
//!   single-sweep kernel, both serial.
//! * `pooled_round/100k` — one full hill-climbing round (fused pass →
//!   FindDimensions → assignment) through the persistent worker pool at
//!   1, 2, 4, and 8 threads on a paper-scale dataset; the per-round
//!   speedup at `threads ≥ 4` is the pool's acceptance bar. Override
//!   the dataset size with `PROCLUS_BENCH_N`.
//! * `trace_overhead/2k` — a full `fit` with the default no-op
//!   recorder vs an explicit `fit_traced(.., &NoopRecorder)` vs a live
//!   `RingRecorder`. The first two must be indistinguishable (the
//!   no-overhead policy of DESIGN.md §Observability); the ring shows
//!   what enabling tracing costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use proclus_core::assign::{assign_points, group_members};
use proclus_core::cache::RoundCache;
use proclus_core::dims::{
    average_dimension_distances, find_dimensions, find_dimensions_from_averages,
};
use proclus_core::evaluate::evaluate_clusters;
use proclus_core::greedy::greedy_select;
use proclus_core::locality::{localities, medoid_deltas};
use proclus_core::pool::with_pool;
use proclus_data::SyntheticSpec;
use proclus_math::DistanceKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_phases(c: &mut Criterion) {
    // Heavy fixtures: keep criterion's sampling modest.
    let data = SyntheticSpec::new(10_000, 20, 5, 5.0)
        .fixed_dims(vec![5; 5])
        .seed(7)
        .generate();
    let points = &data.points;
    let metric = DistanceKind::Manhattan;
    let candidates: Vec<usize> = (0..points.rows()).step_by(7).collect();

    c.bench_function("greedy_select/sample->15", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            black_box(greedy_select(points, &candidates, 15, &metric, &mut rng))
        })
    });

    // A plausible medoid set for the downstream phases.
    let mut rng = StdRng::seed_from_u64(3);
    let medoids = greedy_select(points, &candidates, 5, &metric, &mut rng);

    c.bench_function("medoid_deltas+localities/10k", |b| {
        b.iter(|| {
            let deltas = medoid_deltas(points, &medoids, metric);
            black_box(localities(points, &medoids, &deltas, metric))
        })
    });

    let deltas = medoid_deltas(points, &medoids, metric);
    let locs = localities(points, &medoids, &deltas, metric);

    c.bench_function("find_dimensions/10k", |b| {
        b.iter(|| black_box(find_dimensions(points, &medoids, &locs, 25)))
    });

    let dims = find_dimensions(points, &medoids, &locs, 25);

    c.bench_function("assign_points/10k", |b| {
        b.iter(|| black_box(assign_points(points, &medoids, &dims, metric)))
    });

    let flat = assign_points(points, &medoids, &dims, metric);
    let opt: Vec<Option<usize>> = flat.iter().map(|&a| Some(a)).collect();
    let clusters = group_members(&opt, 5);

    c.bench_function("evaluate_clusters/10k", |b| {
        b.iter(|| black_box(evaluate_clusters(points, &clusters, &dims, points.rows())))
    });
}

/// Fused single-sweep locality + `X` kernel vs the historical two-sweep
/// version (`localities` followed by `average_dimension_distances`),
/// both serial, so the comparison isolates the fusion itself.
fn bench_fused_vs_unfused(c: &mut Criterion) {
    let data = SyntheticSpec::new(10_000, 20, 5, 5.0)
        .fixed_dims(vec![5; 5])
        .seed(7)
        .generate();
    let points = &data.points;
    let metric = DistanceKind::Manhattan;
    let candidates: Vec<usize> = (0..points.rows()).step_by(7).collect();
    let mut rng = StdRng::seed_from_u64(3);
    let medoids = greedy_select(points, &candidates, 5, &metric, &mut rng);
    let deltas = medoid_deltas(points, &medoids, metric);

    let mut group = c.benchmark_group("round_pass/10k");
    group.bench_function("unfused_two_sweeps", |b| {
        b.iter(|| {
            let locs = localities(points, &medoids, &deltas, metric);
            black_box(average_dimension_distances(points, &medoids, &locs))
        })
    });
    group.bench_function("fused_single_sweep", |b| {
        with_pool(points, metric, 1, false, |pool| {
            b.iter(|| black_box(pool.fused_round(&medoids, &deltas)))
        })
    });
    group.finish();
}

/// One full hill-climbing round (fused pass → FindDimensions →
/// assignment) through a persistent pool, across thread counts, on a
/// paper-scale dataset. The pool is created once outside the timing
/// loop — exactly how `fit` uses it — so the numbers reflect per-round
/// cost, not thread spawning.
fn bench_pooled_round_throughput(c: &mut Criterion) {
    let n: usize = std::env::var("PROCLUS_BENCH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let data = SyntheticSpec::new(n, 20, 5, 5.0)
        .fixed_dims(vec![5; 5])
        .seed(7)
        .generate();
    let points = &data.points;
    let metric = DistanceKind::Manhattan;
    let candidates: Vec<usize> = (0..points.rows()).step_by(31).collect();
    let mut rng = StdRng::seed_from_u64(3);
    let medoids = greedy_select(points, &candidates, 5, &metric, &mut rng);
    let deltas = medoid_deltas(points, &medoids, metric);

    let mut group = c.benchmark_group(format!("pooled_round/{n}"));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                with_pool(points, metric, threads, false, |pool| {
                    b.iter(|| {
                        let (_locs, x) = pool.fused_round(&medoids, &deltas);
                        let dims = find_dimensions_from_averages(&x, 25, true);
                        black_box(pool.assign(&medoids, &dims))
                    })
                })
            },
        );
    }
    group.finish();
}

/// One swap-light hill-climbing round as `fit` executes it, routed
/// through the round cache: δ recomputation, fused locality + X pass,
/// FindDimensions, fused assignment + cluster X, cluster-based
/// FindDimensions, final assignment.
fn cached_round(
    pool: &mut proclus_core::pool::Pool<'_>,
    cache: &mut RoundCache,
    points: &proclus_math::Matrix,
    medoids: &[usize],
    metric: DistanceKind,
    total_dims: usize,
) -> usize {
    let deltas = medoid_deltas(points, medoids, metric);
    let (_locs, x) = cache.fused_round(pool, medoids, &deltas);
    let dims = find_dimensions_from_averages(&x, total_dims, true);
    let (flat, cx) = cache.assign_x(pool, medoids, &dims);
    let dims2 = find_dimensions_from_averages(&cx, total_dims, true);
    let flat2 = cache.assign(pool, medoids, &dims2);
    flat.len() + flat2[0] + flat2[flat2.len() - 1]
}

/// Cached vs uncached steady-state round cost on the swap-light
/// workload the hill climb actually produces (one bad medoid replaced
/// per round, everything else unchanged): `N` = 100k (override with
/// `PROCLUS_BENCH_N`), d = 20, k = 5. Criterion reports both; the
/// same fixture is then measured manually and written to
/// `BENCH_4.json` (override the path with `PROCLUS_BENCH_OUT`) with
/// the cached-over-uncached speedup, since the vendored criterion shim
/// has no JSON output of its own.
fn bench_cached_vs_uncached_round(c: &mut Criterion) {
    let n: usize = std::env::var("PROCLUS_BENCH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let (d, k, total_dims) = (20usize, 5usize, 25usize);
    let data = SyntheticSpec::new(n, d, k, 5.0)
        .fixed_dims(vec![5; k])
        .seed(7)
        .generate();
    let points = &data.points;
    let metric = DistanceKind::Manhattan;
    let candidates: Vec<usize> = (0..points.rows()).step_by(31).collect();
    let mut rng = StdRng::seed_from_u64(3);
    let initial = greedy_select(points, &candidates, k, &metric, &mut rng);
    // Fresh replacement medoids for the per-round swap, disjoint from
    // the initial set.
    let fresh: Vec<usize> = (0..points.rows())
        .step_by(97)
        .filter(|p| !initial.contains(p))
        .collect();

    // One measured pass: a warm-up round to populate the cache (the
    // climb's first round — cold either way), then `rounds` rounds
    // each preceded by a single bad-medoid swap. Returns mean seconds
    // per steady-state round.
    let run_rounds = |cache_on: bool, rounds: usize| -> f64 {
        with_pool(points, metric, 1, false, |pool| {
            let mut cache = RoundCache::new(cache_on, k);
            let mut medoids = initial.clone();
            black_box(cached_round(
                pool, &mut cache, points, &medoids, metric, total_dims,
            ));
            let start = std::time::Instant::now();
            for r in 0..rounds {
                medoids[r % k] = fresh[r % fresh.len()];
                black_box(cached_round(
                    pool, &mut cache, points, &medoids, metric, total_dims,
                ));
            }
            start.elapsed().as_secs_f64() / rounds as f64
        })
    };

    let mut group = c.benchmark_group(format!("cached_round/{n}"));
    for (label, cache_on) in [("uncached", false), ("cached", true)] {
        group.bench_function(label, |b| {
            with_pool(points, metric, 1, false, |pool| {
                let mut cache = RoundCache::new(cache_on, k);
                let mut medoids = initial.clone();
                let mut r = 0usize;
                b.iter(|| {
                    medoids[r % k] = fresh[r % fresh.len()];
                    r += 1;
                    black_box(cached_round(
                        pool, &mut cache, points, &medoids, metric, total_dims,
                    ))
                })
            })
        });
    }
    group.finish();

    let rounds: usize = std::env::var("PROCLUS_BENCH_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let uncached = run_rounds(false, rounds);
    let cached = run_rounds(true, rounds);
    let speedup = uncached / cached;
    let out = std::env::var("PROCLUS_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_4.json").to_string());
    let json = format!(
        "{{\n  \"bench\": \"cached_vs_uncached_round\",\n  \"n\": {n},\n  \
         \"d\": {d},\n  \"k\": {k},\n  \"rounds\": {rounds},\n  \
         \"swaps_per_round\": 1,\n  \"uncached_ms_per_round\": {:.3},\n  \
         \"cached_ms_per_round\": {:.3},\n  \"speedup\": {:.2},\n  \
         \"caveat\": \"wall-clock means over {rounds} steady-state swap-light \
         rounds after one warm-up round, single-threaded pool, measured in a \
         1-CPU dev container\"\n}}\n",
        uncached * 1e3,
        cached * 1e3,
        speedup,
    );
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("warning: could not write {out}: {e}");
    } else {
        eprintln!(
            "cached_round/{n}: uncached {:.1}ms cached {:.1}ms speedup {speedup:.2}x -> {out}",
            uncached * 1e3,
            cached * 1e3,
        );
    }
}

/// The disabled-recorder path must cost nothing: `fit` (which wires in
/// `NoopRecorder` itself) and an explicit `fit_traced(.., &Noop)` are
/// the same code path, and both must match the pre-observability
/// numbers. A live `RingRecorder` is measured alongside to show what
/// tracing actually costs when switched on.
fn bench_trace_overhead(c: &mut Criterion) {
    let data = SyntheticSpec::new(2_000, 12, 4, 4.0)
        .fixed_dims(vec![4; 4])
        .seed(7)
        .generate();
    let params = proclus_core::Proclus::new(4, 4.0).seed(3).restarts(1);

    let mut group = c.benchmark_group("trace_overhead/2k");
    group.bench_function("fit_default_noop", |b| {
        b.iter(|| black_box(params.fit(&data.points).unwrap()))
    });
    group.bench_function("fit_traced_noop", |b| {
        b.iter(|| {
            black_box(
                params
                    .fit_traced(&data.points, &proclus_obs::NoopRecorder)
                    .unwrap(),
            )
        })
    });
    group.bench_function("fit_traced_ring", |b| {
        b.iter(|| {
            let rec = proclus_obs::RingRecorder::new(4096);
            black_box(params.fit_traced(&data.points, &rec).unwrap())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_phases,
    bench_fused_vs_unfused,
    bench_pooled_round_throughput,
    bench_cached_vs_uncached_round,
    bench_trace_overhead
);
criterion_main!(benches);
