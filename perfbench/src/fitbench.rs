//! The fit workloads: whole `proclus fit` processes on generated
//! inputs, checked against an in-process `Proclus::fit` at one thread,
//! plus the traced run's per-layer breakdown and layer ablations.

use crate::child::{run_measured, run_timed, Exit};
use crate::report::Outcome;
use crate::servebench::{self, BATCH_ROWS};
use crate::stats::median;
use crate::trace::{layer_totals, BenchRecorder, Counters, SpanLog};
use crate::Ctx;
use proclus_core::layout::ColumnarBlocks;
use proclus_core::{NeighborIndex, Proclus, ProclusModel};
use proclus_data::{binio, io as csvio, DataError, Label, SyntheticSpec};
use proclus_math::{DistanceKind, Matrix};
use proclus_obs::json::Json;
use proclus_obs::{JsonlRecorder, Phase};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Most fits per input in one run, however long `--seconds` is.
pub const MAX_ROUNDS: usize = 20;
/// The traced run's CLI configurations: the default first, then one
/// layer ablation each, with their span names.
const CLI_CONFIGS: [(Option<&str>, &str); 4] = [
    (None, "cli.fit"),
    (Some("--no-index"), "cli.fit_no_index"),
    (Some("--no-round-cache"), "cli.fit_no_round_cache"),
    (Some("--fast-math"), "cli.fit_fast_math"),
];
/// The program's PRNG seed for every fit (the data seed is the run's).
pub const FIT_SEED: u64 = 3;

/// One fit workload: the generator's shape, the file format, and the
/// fit command's parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FitWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Inputs per untraced run, generated from the run's seed. Fit
    /// time depends on the data as much as on the machine, so averaging
    /// over several inputs keeps one draw of data from setting a run's
    /// `op_ms`.
    pub inputs: usize,
    /// Inputs the traced run covers (the first ones of an untraced run).
    pub traced_inputs: usize,
    /// Points per input.
    pub n: usize,
    /// Dimensions.
    pub dims: usize,
    /// Generated clusters.
    pub clusters: usize,
    /// Poisson mean of the generated clusters' dimensionality.
    pub avg_cluster_dims: f64,
    /// File extension: `csv` is text, anything else binary.
    pub ext: &'static str,
    /// `--k`.
    pub k: usize,
    /// `--l`.
    pub l: f64,
    /// `--restarts`, or the CLI default when `None`.
    pub restarts: Option<usize>,
    /// `--threads`.
    pub threads: usize,
}

/// The paper's low-dimensional regime as a user runs it by default.
pub const FIT_P20: FitWorkload = FitWorkload {
    name: "fit-p20",
    inputs: 16,
    traced_inputs: 3,
    n: 25_000,
    dims: 20,
    clusters: 5,
    avg_cluster_dims: 5.0,
    ext: "csv",
    k: 5,
    l: 5.0,
    restarts: None,
    threads: 1,
};

/// The d = 100 scalability regime, at one thread: at two threads on a
/// two-vCPU host a run's fit time followed the host's scheduling more
/// than the code (one seed read 382–608 ms across three runs). The
/// traced run still fits at 1 and 2 threads for the pool's speedups.
pub const FIT_S100: FitWorkload = FitWorkload {
    name: "fit-s100",
    inputs: 36,
    traced_inputs: 4,
    n: 10_000,
    dims: 100,
    clusters: 10,
    avg_cluster_dims: 60.0,
    ext: "prcl",
    k: 10,
    l: 60.0,
    restarts: Some(1),
    threads: 1,
};

/// A fit shaped like the serve workload's set-up fit (a 20,000 × 20
/// CSV, k 5, l 5, the server's default 1 restart): the fit layers as
/// serve-assign's set-up exercises them, for its traced run.
pub const SERVE_TRAIN: FitWorkload = FitWorkload {
    name: "serve-train",
    inputs: 1,
    traced_inputs: 1,
    n: servebench::TRAIN_ROWS,
    dims: servebench::DIMS,
    clusters: servebench::CLUSTERS,
    avg_cluster_dims: servebench::AVG_CLUSTER_DIMS,
    ext: "csv",
    k: 5,
    l: 5.0,
    restarts: Some(1),
    threads: 1,
};

/// The CLI's default restart count.
const CLI_DEFAULT_RESTARTS: usize = 5;

impl FitWorkload {
    /// In-process parameters equal to the CLI command's, at `threads`.
    pub fn params(&self, threads: usize) -> Proclus {
        Proclus::new(self.k, self.l)
            .seed(FIT_SEED)
            .restarts(self.restarts.unwrap_or(CLI_DEFAULT_RESTARTS))
            .threads(threads)
    }

    /// The generator spec for data seed `seed` (the CLI's defaults for
    /// everything else).
    pub fn spec(&self, seed: u64) -> SyntheticSpec {
        SyntheticSpec::new(self.n, self.dims, self.clusters, self.avg_cluster_dims).seed(seed)
    }

    fn generate_cmd(&self, ctx: &Ctx, seed: u64, out: &Path) -> Command {
        let mut cmd = Command::new(&ctx.proclus);
        cmd.arg("generate")
            .args(["--n", &self.n.to_string()])
            .args(["--dims", &self.dims.to_string()])
            .args(["--clusters", &self.clusters.to_string()])
            .args(["--avg-cluster-dims", &self.avg_cluster_dims.to_string()])
            .args(["--seed", &seed.to_string()])
            .arg("--out")
            .arg(out)
            .stdout(Stdio::null());
        cmd
    }

    fn fit_cmd(&self, ctx: &Ctx, input: &Path, out: &Path, extra: Option<&str>) -> Command {
        let mut cmd = Command::new(&ctx.proclus);
        cmd.arg("fit")
            .arg("--input")
            .arg(input)
            .args(["--k", &self.k.to_string()])
            .args(["--l", &self.l.to_string()])
            .args(["--seed", &FIT_SEED.to_string()])
            .args(["--threads", &self.threads.to_string()]);
        if let Some(r) = self.restarts {
            cmd.args(["--restarts", &r.to_string()]);
        }
        cmd.arg("--out").arg(out).stdout(Stdio::null());
        if let Some(flag) = extra {
            cmd.arg(flag);
        }
        cmd
    }
}

/// Read points and labels, by extension as the CLI does.
pub fn read_dataset(path: &Path) -> Result<(Matrix, Option<Vec<Label>>), DataError> {
    if is_csv(path) {
        csvio::read_csv(path)
    } else {
        binio::read_binary(path)
    }
}

/// Write points and labels, by extension as the CLI does.
pub fn write_dataset(
    path: &Path,
    points: &Matrix,
    labels: Option<&[Label]>,
) -> Result<(), DataError> {
    if is_csv(path) {
        csvio::write_csv(path, points, labels)
    } else {
        binio::write_binary(path, points, labels)
    }
}

fn is_csv(path: &Path) -> bool {
    path.extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("csv"))
}

/// Labels as cluster ids (`None` = outlier).
pub fn label_ids(labels: &[Label]) -> Vec<Option<usize>> {
    labels.iter().map(|l| l.cluster()).collect()
}

/// FNV-1a digest of a file's bytes.
pub fn file_digest(path: &Path) -> Result<u64, String> {
    std::fs::read(path)
        .map(|b| proclus_math::fnv1a64(&b))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn adjusted_rand(found: &[Option<usize>], truth: &[Option<usize>]) -> Result<f64, String> {
    proclus_eval::adjusted_rand_index(found, truth).map_err(|e| e.to_string())
}

/// Check one CLI run: exit 0 and output labels equal to `reference`.
fn check_output(exit: &Exit, out: &Path, reference: &[Option<usize>]) -> Result<(), String> {
    if !exit.success() {
        return Err(format!("proclus fit exited with {:?}", exit.code));
    }
    let (_, labels) = read_dataset(out).map_err(|e| e.to_string())?;
    let found = label_ids(&labels.ok_or("fit output has no label column")?);
    if found != reference {
        return Err("fit labels differ from the in-process fit at 1 thread".into());
    }
    Ok(())
}

fn generate_input(ctx: &Ctx, w: &FitWorkload, seed: u64, input: &Path) -> Result<Duration, String> {
    let (dt, exit) = run_timed(&mut w.generate_cmd(ctx, seed, input)).map_err(|e| e.to_string())?;
    if !exit.success() {
        return Err(format!("proclus generate exited with {:?}", exit.code));
    }
    Ok(dt)
}

/// The recorded ARI floor of these inputs: written by the first run
/// over them, checked by every later one.
fn check_ari_floor(
    ctx: &Ctx,
    w: &FitWorkload,
    inputs: &[(String, u64)],
    ari: f64,
) -> Result<String, String> {
    let key = inputs
        .iter()
        .fold(proclus_math::hash::FNV1A_BASIS, |h, (_, d)| {
            proclus_math::fnv1a64_continue(h, &d.to_le_bytes())
        });
    let path = ctx.work.join(format!("ari-floor-{key:016x}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            let floor: f64 = text
                .trim()
                .parse()
                .map_err(|_| format!("{}: not a number", path.display()))?;
            if ari + 1e-12 < floor {
                Err(format!(
                    "{}: ari {ari} fell below the recorded floor {floor}",
                    w.name
                ))
            } else {
                Ok(format!("ari {ari} >= recorded floor {floor}"))
            }
        }
        Err(_) => {
            std::fs::write(&path, format!("{ari}\n")).map_err(|e| e.to_string())?;
            Ok(format!("ari floor recorded: {ari}"))
        }
    }
}

/// One generated input of an untraced run and what it must produce.
struct Dataset {
    input: PathBuf,
    truth: Vec<Option<usize>>,
    reference: Vec<Option<usize>>,
    /// Digest of the first CLI output, once checked against `reference`.
    output_digest: Option<u64>,
    fit_s: Vec<f64>,
}

/// An untraced run over the workload's inputs, all generated from the
/// seed. Each input is generated by the CLI (the set-up samples) and
/// fitted in-process at one thread (the reference, two inputs at a
/// time); then whole CLI fits go round the inputs until `--seconds`
/// have passed. `op_ms` is the median over inputs of each input's
/// median fit time: an input whose draw takes many more rounds than the
/// rest moves it less than it would move a mean.
pub fn run(ctx: &Ctx, w: &FitWorkload) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let out = ctx.work.join(format!("out.{}", w.ext));
    let mut setup = Vec::new();
    let mut inputs = Vec::new();
    for i in 0..w.inputs {
        let input = ctx.work.join(format!("input-{i}.{}", w.ext));
        setup.push(generate_input(ctx, w, data_seed(ctx.seed, i), &input)?.as_secs_f64());
        o.inputs.push((input_file_name(w, i), file_digest(&input)?));
        inputs.push(input);
    }
    let mut datasets = references(w, &inputs)?;

    let mut rss = Vec::new();
    let started = Instant::now();
    let mut fits = 0;
    while fits < w.inputs
        || (fits < w.inputs * MAX_ROUNDS && started.elapsed().as_secs_f64() < ctx.seconds)
    {
        let ds = &mut datasets[fits % w.inputs];
        fits += 1;
        let (dt, exit) = run_measured(ctx, &mut w.fit_cmd(ctx, &ds.input, &out, None))?;
        ds.fit_s.push(dt.as_secs_f64());
        rss.push(exit.peak_rss_mb);
        // The first output is parsed and compared with the reference;
        // later ones must be byte-identical to it.
        let verdict = match ds.output_digest {
            None => check_output(&exit, &out, &ds.reference).and_then(|()| {
                ds.output_digest = Some(file_digest(&out)?);
                Ok(())
            }),
            Some(_) if !exit.success() => Err(format!("proclus fit exited with {:?}", exit.code)),
            Some(digest) if file_digest(&out)? != digest => {
                Err("fit output differs from the first fit's output".into())
            }
            Some(_) => Ok(()),
        };
        o.attempt(verdict);
    }

    let mut aris = Vec::new();
    for ds in &datasets {
        aris.push(adjusted_rand(&ds.reference, &ds.truth)?);
    }
    let ari = aris.iter().sum::<f64>() / aris.len() as f64;
    match check_ari_floor(ctx, w, &o.inputs, ari) {
        Ok(note) => o.notes.push(note),
        Err(reason) => o.attempt(Err(reason)),
    }
    o.reported.push(("ari".into(), ari));

    let per_input: Vec<f64> = datasets.iter().map(|ds| median(&ds.fit_s)).collect();
    let all_fits: Vec<f64> = datasets.iter().flat_map(|ds| ds.fit_s.clone()).collect();
    o.sampled(
        "op_ms",
        median(&per_input) * 1e3,
        "ms",
        all_fits.iter().map(|s| s * 1e3).collect(),
    );
    o.reported.push((
        "fits_per_s".into(),
        all_fits.len() as f64 / all_fits.iter().sum::<f64>(),
    ));
    o.sampled("setup_s", median(&setup), "s", setup);
    o.sampled("peak_rss_mb", median(&rss), "MB", rss);
    o.notes.push(format!(
        "{fits} fits over {} inputs; per-input median fit seconds {per_input:.3?}; per-input ari {aris:.3?}",
        w.inputs
    ));
    Ok(o)
}

/// Read each input and fit it in-process at one thread, two inputs at
/// a time (the references are not timed).
fn references(w: &FitWorkload, inputs: &[PathBuf]) -> Result<Vec<Dataset>, String> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let one = |i: usize| -> Result<Dataset, String> {
        let (points, truth) = read_dataset(&inputs[i]).map_err(|e| e.to_string())?;
        let truth = label_ids(&truth.ok_or("generated input has no labels")?);
        let reference = w
            .params(1)
            .fit(&points)
            .map_err(|e| format!("in-process reference fit: {e}"))?
            .assignment()
            .to_vec();
        Ok(Dataset {
            input: inputs[i].clone(),
            truth,
            reference,
            output_digest: None,
            fit_s: Vec::new(),
        })
    };
    let mut done: Vec<(usize, Result<Dataset, String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= inputs.len() {
                            return mine;
                        }
                        mine.push((i, one(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec![(0, Err("reference fit panicked".into()))])
            })
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, d)| d).collect()
}

fn input_file_name(w: &FitWorkload, i: usize) -> String {
    format!("{}.input-{i}.{}", w.name, w.ext)
}

/// The data seed of input `i` of a run with seed `seed`.
pub fn data_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i as u64)
}

/// One in-process fit inside a span; returns the model and seconds.
fn timed_fit(
    log: &SpanLog,
    name: &str,
    fit: impl FnOnce() -> Result<ProclusModel, proclus_core::ProclusError>,
) -> Result<(ProclusModel, f64), String> {
    let start = Instant::now();
    let model = log.span(name, fit).map_err(|e| format!("{name}: {e}"))?;
    Ok((model, start.elapsed().as_secs_f64()))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn speedup(one: f64, two: f64) -> f64 {
    if two > 0.0 {
        one / two
    } else {
        0.0
    }
}

/// Seconds spent per configuration, summed over a traced run's inputs.
#[derive(Default)]
struct TracedTotals {
    generate_s: f64,
    load_s: f64,
    load_mb: f64,
    write_s: f64,
    layout_s: f64,
    index_s: f64,
    traced_1t: f64,
    traced_2t: f64,
    untraced: f64,
    jsonl: f64,
    cli: [f64; 4],
    rounds: usize,
    failed_restarts: usize,
}

/// The traced run of a fit workload: [`trace_fit_layers`] over its
/// first inputs, then the serving layers on a request body of the first
/// input's rows, answered with the model fitted to that input.
pub fn run_traced(ctx: &Ctx, w: &FitWorkload, log: &SpanLog) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let (model, body) = trace_fit_layers(ctx, w, log, &mut o)?;
    let state = servebench::state_with_model(&ctx.work.join("registry-layers"), &model)?;
    servebench::trace_serving_layers(log, &state, &body, &mut o)?;
    o.notes.push(layer_table(log));
    Ok(o)
}

/// The fit layers, over the first inputs of an untraced run: every
/// layer's public entry point timed from here, the program's phase
/// spans and counters through [`BenchRecorder`], and whole-CLI
/// ablations of the index, round cache and f32 path. Times are
/// reported per input (the mean over inputs), as `op_ms` is; ratios
/// pool the counters of every input. Returns the first input's model
/// (fitted at one thread) and a CSV request body of its first
/// [`BATCH_ROWS`] rows.
pub fn trace_fit_layers(
    ctx: &Ctx,
    w: &FitWorkload,
    log: &SpanLog,
    o: &mut Outcome,
) -> Result<(ProclusModel, Vec<u8>), String> {
    let mut first = None;
    let out = ctx.work.join(format!("out.{}", w.ext));
    let inproc_out = ctx.work.join(format!("out-inproc.{}", w.ext));
    let rec1 = BenchRecorder::new(log);
    let rec2 = BenchRecorder::new(log);
    let mut t = TracedTotals::default();
    let mut aris = Vec::new();
    let timed = |name: &str, f: &mut dyn FnMut() -> Result<(), String>| -> Result<f64, String> {
        let start = Instant::now();
        log.span(name, f)?;
        Ok(start.elapsed().as_secs_f64())
    };

    for i in 0..w.traced_inputs {
        let seed = data_seed(ctx.seed, i);
        let input = ctx.work.join(format!("input-{i}.{}", w.ext));
        log.span("setup.generate_cli", || {
            generate_input(ctx, w, seed, &input)
        })?;
        o.inputs.push((input_file_name(w, i), file_digest(&input)?));
        t.load_mb += std::fs::metadata(&input).map_err(|e| e.to_string())?.len() as f64 / 1e6;

        // proclus-data: the generator, load, and (below) write.
        t.generate_s += timed("data.generate", &mut || {
            w.spec(seed)
                .try_generate()
                .map(drop)
                .map_err(|e| e.to_string())
        })?;
        let mut loaded = None;
        t.load_s += timed("data.load", &mut || {
            loaded = Some(read_dataset(&input).map_err(|e| e.to_string())?);
            Ok(())
        })?;
        let (points, truth) = loaded.ok_or("input not loaded")?;
        let truth = label_ids(&truth.ok_or("generated input has no labels")?);

        // core::layout and core::index, built on their own.
        t.layout_s += timed("layout.build", &mut || {
            drop(std::hint::black_box(ColumnarBlocks::build(&points, false)));
            Ok(())
        })?;
        t.index_s += timed("index.build", &mut || {
            drop(std::hint::black_box(NeighborIndex::build(
                &points,
                DistanceKind::Manhattan,
            )));
            Ok(())
        })?;

        // Whole in-process fits: traced at 1 and 2 threads (the 1-thread
        // fit is the reference), untraced, and with the program's own
        // JSONL recorder.
        let (m1, t1) = timed_fit(log, "fit.traced_1t", || {
            w.params(1).fit_traced(&points, &rec1)
        })?;
        let reference = m1.assignment().to_vec();
        o.attempt(Ok(()));
        let same_as_reference = |m: &ProclusModel, what: &str| {
            if m.assignment() == reference.as_slice() {
                Ok(())
            } else {
                Err(format!(
                    "input {i}: in-process fit ({what}) differs from the 1-thread fit"
                ))
            }
        };
        let (m2, t2) = timed_fit(log, "fit.traced_2t", || {
            w.params(2).fit_traced(&points, &rec2)
        })?;
        o.attempt(same_as_reference(&m2, "2 threads"));
        let (mu, tu) = timed_fit(log, "fit.untraced", || w.params(w.threads).fit(&points))?;
        o.attempt(same_as_reference(&mu, "untraced"));
        let jsonl =
            JsonlRecorder::create(&ctx.work.join("jsonl-trace")).map_err(|e| e.to_string())?;
        let (mj, tj) = timed_fit(log, "fit.jsonl", || {
            w.params(w.threads).fit_traced(&points, &jsonl)
        })?;
        jsonl
            .finish(Json::Obj(Vec::new()), Json::Obj(Vec::new()))
            .map_err(|e| e.to_string())?;
        o.attempt(same_as_reference(&mj, "JSONL-traced"));
        let m_w = if w.threads == 1 { &m1 } else { &m2 };
        t.rounds += m_w.diagnostics().total_rounds;
        t.failed_restarts += m_w.diagnostics().failed_restarts;
        t.traced_1t += t1;
        t.traced_2t += t2;
        t.untraced += tu;
        t.jsonl += tj;
        aris.push(adjusted_rand(&reference, &truth)?);

        let labels: Vec<Label> = reference
            .iter()
            .map(|a| a.map_or(Label::Outlier, Label::Cluster))
            .collect();
        t.write_s += timed("data.write", &mut || {
            write_dataset(&inproc_out, &points, Some(&labels)).map_err(|e| e.to_string())
        })?;
        if i == 0 {
            let rows: Vec<usize> = (0..BATCH_ROWS.min(points.rows())).collect();
            let body = servebench::csv_bytes(&ctx.work, "batch.csv", &points.select_rows(&rows))?;
            first = Some((m1.clone(), body));
        }
        drop(points);

        // Whole CLI fits: the default, then one ablation per layer. The
        // default output is checked against the reference; every
        // ablated output must be byte-identical to it.
        let mut default_bytes = Vec::new();
        for (c, (flag, span)) in CLI_CONFIGS.iter().enumerate() {
            let (dt, exit) = log.span(span, || {
                run_measured(ctx, &mut w.fit_cmd(ctx, &input, &out, *flag))
            })?;
            t.cli[c] += dt.as_secs_f64();
            let verdict = if c == 0 {
                check_output(&exit, &out, &reference).and_then(|()| {
                    default_bytes = std::fs::read(&out).map_err(|e| e.to_string())?;
                    Ok(())
                })
            } else if !exit.success() {
                Err(format!("fit {flag:?} exited with {:?}", exit.code))
            } else if std::fs::read(&out).map_err(|e| e.to_string())? != default_bytes {
                Err(format!(
                    "input {i}: fit {flag:?} output is not byte-identical to the default fit's"
                ))
            } else {
                Ok(())
            };
            o.attempt(verdict);
        }
    }

    let inputs = w.traced_inputs as f64;
    let per = |total: f64| total / inputs;
    let (c1, c2) = (rec1.counters(), rec2.counters());
    let (rec_w, t_w) = if w.threads == 1 {
        (&c1, t.traced_1t)
    } else {
        (&c2, t.traced_2t)
    };
    let [cli_s, no_index_s, no_cache_s, fast_math_s] = t.cli;
    o.reported
        .push(("ari".into(), aris.iter().sum::<f64>() / inputs));

    let d = w.dims as f64;
    o.metric("data.load_s", per(t.load_s), "s");
    o.metric("data.load_mb_per_s", t.load_mb / t.load_s, "MB/s");
    o.metric("data.write_s", per(t.write_s), "s");
    o.metric("data.generate_s", per(t.generate_s), "s");
    o.metric("layout.build_s", per(t.layout_s), "s");
    o.metric("layout.mirror_mb", w.n as f64 * d * 8.0 / 1e6, "MB");
    o.metric("index.build_s", per(t.index_s), "s");
    let range_pruned = rec_w.get("index.range_sketch_pruned")
        + rec_w.get("index.range_triangle_pruned")
        + rec_w.get("index.range_prefix_pruned");
    o.metric(
        "index.range_pruned_ratio",
        ratio(
            range_pruned,
            range_pruned + rec_w.get("index.range_verified"),
        ),
        "ratio",
    );
    let nearest_pruned = rec_w.get("index.nearest_pruned");
    o.metric(
        "index.nearest_pruned_ratio",
        ratio(
            nearest_pruned,
            nearest_pruned + rec_w.get("index.nearest_verified"),
        ),
        "ratio",
    );
    o.metric("index.saved_s", per(no_index_s - cli_s), "s");
    for (metric, hits, recomputes) in [
        (
            "cache.fused_hit_ratio",
            "cache.fused_slot_hits",
            "cache.fused_slot_recomputes",
        ),
        (
            "cache.column_hit_ratio",
            "cache.column_hits",
            "cache.column_recomputes",
        ),
        (
            "cache.cluster_row_hit_ratio",
            "cache.cluster_row_hits",
            "cache.cluster_row_recomputes",
        ),
    ] {
        let h = rec_w.get(hits);
        o.metric(metric, ratio(h, h + rec_w.get(recomputes)), "ratio");
    }
    o.metric("cache.saved_s", per(no_cache_s - cli_s), "s");
    o.metric("fastmath.saved_s", per(cli_s - fast_math_s), "s");
    let physical = rec_w.get("pool.physical_blocks") as f64;
    o.metric(
        "pool.logical_blocks",
        per(rec_w.get("pool.blocks") as f64),
        "count",
    );
    o.metric("pool.physical_blocks", per(physical), "count");
    o.metric(
        "pool.queue_high_water",
        // Read at 2 threads: one thread has no queue.
        c2.gauge_max
            .get("pool.queue_high_water")
            .copied()
            .unwrap_or(0.0),
        "count",
    );
    // Computed, not measured: each physical block covers up to 1024
    // rows of d f64 coordinates.
    o.metric(
        "pool.computed_gb",
        per(physical) * 1024.0 * d * 8.0 / 1e9,
        "GB",
    );
    o.metric("pool.speedup_2t", speedup(t.traced_1t, t.traced_2t), "x");
    for phase in [
        Phase::Init,
        Phase::Index,
        Phase::Locality,
        Phase::Dims,
        Phase::Assign,
        Phase::Evaluate,
        Phase::Refine,
    ] {
        o.metric(
            &format!("phase.{}_s", phase.name()),
            per(rec_w.phase(phase)),
            "s",
        );
    }
    o.metric(
        "phase.evaluate_share",
        rec_w.phase(Phase::Evaluate) / rec_w.phase_total(),
        "ratio",
    );
    for phase in [Phase::Locality, Phase::Assign, Phase::Evaluate] {
        o.metric(
            &format!("phase.{}_speedup_2t", phase.name()),
            speedup(c1.phase(phase), c2.phase(phase)),
            "x",
        );
    }
    o.metric("phase.unattributed_s", per(t_w - rec_w.phase_total()), "s");
    o.metric("core.rounds", per(t.rounds as f64), "count");
    o.metric(
        "core.failed_restarts",
        per(t.failed_restarts as f64),
        "count",
    );
    o.metric("obs.trace_overhead_s", per(t.jsonl - t.untraced), "s");
    o.metric(
        "cli.overhead_s",
        per(cli_s - (t.load_s + t.untraced + t.write_s)),
        "s",
    );

    o.notes.push(format!(
        "per input, means over {} inputs: CLI fit {:.4} s (--no-index {:.4}, --no-round-cache {:.4}, --fast-math {:.4})",
        w.traced_inputs,
        per(cli_s),
        per(no_index_s),
        per(no_cache_s),
        per(fast_math_s)
    ));
    o.notes.push(format!(
        "tracing overhead: in-process fit at {} thread(s) traced by the benchmark {:.4} s vs untraced {:.4} s ({:+.4} s) per input",
        w.threads,
        per(t_w),
        per(t.untraced),
        per(t_w - t.untraced)
    ));
    o.notes.push(counter_table(rec_w));
    first.ok_or_else(|| format!("{}: no traced inputs", w.name))
}

/// Per-span-name count, total and self time.
pub fn layer_table(log: &SpanLog) -> String {
    let mut out = format!(
        "{:<28} {:>7} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s"
    );
    for (name, t) in layer_totals(&log.spans()) {
        out.push_str(&format!(
            "{name:<28} {:>7} {:>12.6} {:>12.6}\n",
            t.count, t.total_s, t.self_s
        ));
    }
    out.trim_end().to_string()
}

fn counter_table(c: &Counters) -> String {
    let mut out = String::from("program counters (workload thread count):\n");
    for (name, v) in &c.counters {
        out.push_str(&format!("  {name:<36} {v}\n"));
    }
    for (name, v) in &c.gauge_max {
        out.push_str(&format!("  {name:<36} max {v}\n"));
    }
    out.trim_end().to_string()
}
