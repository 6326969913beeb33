//! The serve workload: a `proclus serve` child holding a model fitted
//! at set-up, driven by a closed loop of keep-alive connections that
//! alternate `/v1/assign` and `/v1/classify`. Every response body must
//! byte-equal what `router::handle` returns in-process for the same
//! request against a copy of the server's registry.

use crate::child::{launcher, read_record, reap, Exit};
use crate::http_client::{encode_request, Client, HttpResponse};
use crate::report::Outcome;
use crate::stats::{median, percentile, sorted};
use crate::trace::SpanLog;
use crate::Ctx;
use proclus_core::{ModelRegistry, ProclusModel};
use proclus_data::{io as csvio, SyntheticSpec};
use proclus_math::Matrix;
use proclus_obs::NoopRecorder;
use proclus_serve::{router, AppState, Request, ServeConfig};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows uploaded and fitted at set-up.
pub const TRAIN_ROWS: usize = 20_000;
/// Rows per request body.
pub const BATCH_ROWS: usize = 1_000;
/// Held-out request bodies, cycled through by the load.
pub const BATCHES: usize = 8;
/// Dimensions of the generated data.
pub const DIMS: usize = 20;
/// Generated clusters.
pub const CLUSTERS: usize = 5;
/// Poisson mean of the generated clusters' dimensionality.
pub const AVG_CLUSTER_DIMS: f64 = 5.0;
/// Keep-alive connections of the closed loop.
pub const CONNECTIONS: usize = 2;
/// Each connection waits a think time drawn uniformly from
/// `0..THINK_MAX_US` microseconds (seeded) before each request. Without
/// it the two closed loops lock into step or out of step for a whole
/// run, and the median latency lands on one of two modes.
pub const THINK_MAX_US: u64 = 1_000;
/// Requests per endpoint a timed run needs, so that ten lie beyond the
/// reported p99.
pub const MIN_PER_ENDPOINT: usize = 1_000;
/// Requests per endpoint of the traced run's short load.
pub const TRACED_PER_ENDPOINT: usize = 300;
/// Set-up repetitions per run, each on its own training set; `setup_s`
/// is their median.
pub const SETUP_REPS: usize = 15;
/// Repetitions of each in-process layer call in the traced run.
pub const LAYER_REPS: usize = 200;
/// The fit request of the set-up.
pub const FIT_BODY: &str = "{\"dataset\":\"train\",\"k\":5,\"l\":5,\"seed\":3}";

/// The two endpoints of the load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/assign`.
    Assign,
    /// `POST /v1/classify`.
    Classify,
}

impl Endpoint {
    /// Request path.
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Assign => "/v1/assign",
            Endpoint::Classify => "/v1/classify",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const ENDPOINTS: [Endpoint; 2] = [Endpoint::Assign, Endpoint::Classify];

/// The generated inputs of one seed.
pub struct ServeInputs {
    /// CSV body of the upload.
    pub train_csv: Vec<u8>,
    /// CSV bodies of the held-out batches.
    pub batches: Vec<Vec<u8>>,
}

/// `points` as the CSV bytes `write_csv` produces (no label column).
pub fn csv_bytes(work: &Path, name: &str, points: &Matrix) -> Result<Vec<u8>, String> {
    let path = work.join(name);
    csvio::write_csv(&path, points, None).map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    Ok(bytes)
}

/// Generate the upload and the held-out batches from `seed`.
pub fn make_inputs(work: &Path, seed: u64) -> Result<ServeInputs, String> {
    let n = TRAIN_ROWS + BATCHES * BATCH_ROWS;
    let data = SyntheticSpec::new(n, DIMS, CLUSTERS, AVG_CLUSTER_DIMS)
        .seed(seed)
        .try_generate()
        .map_err(|e| e.to_string())?;
    let rows = |lo: usize, hi: usize| data.points.select_rows(&(lo..hi).collect::<Vec<_>>());
    let train_csv = csv_bytes(work, "train.csv", &rows(0, TRAIN_ROWS))?;
    let batches = (0..BATCHES)
        .map(|b| {
            let lo = TRAIN_ROWS + b * BATCH_ROWS;
            csv_bytes(work, "batch.csv", &rows(lo, lo + BATCH_ROWS))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ServeInputs { train_csv, batches })
}

/// A running `proclus serve` child.
pub struct Server {
    /// The launcher (see [`crate::child`]) whose child is the server.
    child: Child,
    record: PathBuf,
    stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawn on an ephemeral port and wait for its `listening on` line.
    pub fn spawn(ctx: &Ctx, registry: &Path) -> Result<Self, String> {
        let mut serve = Command::new(&ctx.proclus);
        serve
            .arg("serve")
            .arg("--registry")
            .arg(registry)
            .args(["--addr", "127.0.0.1:0"]);
        let record = ctx.work.join("serve-record.txt");
        let _ = std::fs::remove_file(&record);
        let mut child = launcher(ctx, &serve, &record)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn proclus serve: {e}"))?;
        let Some(out) = child.stdout.take() else {
            return Err("proclus serve: no stdout pipe".into());
        };
        let mut stdout = BufReader::new(out);
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = reap(&child);
                return Err("proclus serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                let addr = addr
                    .parse()
                    .map_err(|_| format!("bad address line {line:?}"))?;
                return Ok(Server {
                    child,
                    record,
                    stdout,
                    addr,
                });
            }
        }
    }

    /// `POST /v1/shutdown`, then wait for the drained exit; returns the
    /// server's own exit and peak RSS.
    pub fn shutdown(mut self) -> Result<Exit, String> {
        let sent = Client::connect(self.addr)
            .and_then(|mut c| c.request("POST", "/v1/shutdown", b""))
            .map_err(|e| format!("shutdown request: {e}"));
        if sent.is_err() {
            let _ = self.child.kill();
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        reap(&self.child).map_err(|e| e.to_string())?;
        sent?;
        let (_, exit) = read_record(&self.record)?;
        if !exit.success() || !rest.contains("serve: drained") {
            return Err(format!(
                "proclus serve did not drain cleanly: {exit:?} {rest:?}"
            ));
        }
        Ok(exit)
    }
}

fn expect_status(resp: &HttpResponse, want: &[u16], what: &str) -> Result<(), String> {
    if want.contains(&resp.status) {
        Ok(())
    } else {
        Err(format!(
            "{what}: status {} {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ))
    }
}

/// Set the server up: spawn, upload, fit, poll until `done`, first
/// successful assign. Returns the running server.
pub fn set_up(
    ctx: &Ctx,
    registry: &Path,
    inputs: &ServeInputs,
    log: &SpanLog,
) -> Result<Server, String> {
    let span = |name: &str, f: &mut dyn FnMut() -> Result<(), String>| log.span(name, f);
    if registry.exists() {
        std::fs::remove_dir_all(registry).map_err(|e| e.to_string())?;
    }
    let mut server = None;
    span("setup.spawn", &mut || {
        server = Some(Server::spawn(ctx, registry)?);
        Ok(())
    })?;
    let server = server.ok_or("server did not start")?;
    let result = (|| {
        let mut c = Client::connect(server.addr).map_err(|e| e.to_string())?;
        span("setup.upload", &mut || {
            let r = c
                .request("POST", "/v1/datasets/train", &inputs.train_csv)
                .map_err(|e| e.to_string())?;
            expect_status(&r, &[200, 201], "upload")
        })?;
        span("setup.fit_job", &mut || {
            let r = c
                .request("POST", "/v1/fit", FIT_BODY.as_bytes())
                .map_err(|e| e.to_string())?;
            expect_status(&r, &[202], "fit")?;
            let poll = encode_request("GET", "/v1/jobs/job-000001", b"");
            loop {
                let r = c.send(&poll).map_err(|e| e.to_string())?;
                expect_status(&r, &[200], "job poll")?;
                let body = String::from_utf8_lossy(&r.body);
                if body.contains("\"state\":\"done\"") {
                    return Ok(());
                }
                if body.contains("\"state\":\"failed\"") {
                    return Err(format!("fit job failed: {body}"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })?;
        span("setup.first_assign", &mut || {
            let r = c
                .request("POST", Endpoint::Assign.path(), &inputs.batches[0])
                .map_err(|e| e.to_string())?;
            expect_status(&r, &[200], "first assign")
        })
    })();
    match result {
        Ok(()) => Ok(server),
        Err(e) => {
            let _ = server.shutdown();
            Err(e)
        }
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    if to.exists() {
        std::fs::remove_dir_all(to).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn app_state(registry: &Path) -> Result<Arc<AppState>, String> {
    let config = ServeConfig {
        registry_dir: registry.to_path_buf(),
        ..ServeConfig::default()
    };
    let (state, _jobs) =
        AppState::new(config, Arc::new(NoopRecorder)).map_err(|e| e.to_string())?;
    Ok(state)
}

/// The in-process twin of the server: an `AppState` over a copy of its
/// registry at `copy`, to answer through `router::handle`.
pub fn twin(registry: &Path, copy: &Path) -> Result<Arc<AppState>, String> {
    copy_dir(registry, copy)?;
    app_state(copy)
}

/// An `AppState` over a fresh registry at `dir` whose one generation is
/// `model`.
pub fn state_with_model(dir: &Path, model: &ProclusModel) -> Result<Arc<AppState>, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let (mut registry, _) = ModelRegistry::open(dir).map_err(|e| e.to_string())?;
    registry.publish(model).map_err(|e| e.to_string())?;
    app_state(dir)
}

/// An in-memory `POST` request.
pub fn post(path: &str, body: &[u8]) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        headers: vec![("content-length".into(), body.len().to_string())],
        body: body.to_vec(),
        keep_alive: true,
    }
}

/// What a closed-loop load measured.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Per endpoint (assign, classify): latency of each request, seconds.
    pub latency_s: [Vec<f64>; 2],
    /// Requests whose status was not 200.
    pub non200: u64,
    /// Requests whose body differed from the in-process twin's.
    pub mismatched: u64,
    /// Requests that failed on the wire.
    pub errors: Vec<String>,
    /// Wall time of the load.
    pub elapsed_s: f64,
}

impl LoadResult {
    /// Requests that completed with a response.
    pub fn completed(&self) -> usize {
        self.latency_s.iter().map(Vec::len).sum()
    }
}

/// Drive `addr` with [`CONNECTIONS`] closed-loop connections (with
/// [`THINK_MAX_US`] think time) until
/// `seconds` have passed and every endpoint has `min_per_endpoint`
/// replies (or `cap_s` runs out).
pub fn load(
    addr: SocketAddr,
    inputs: &ServeInputs,
    expected: &[[Vec<u8>; 2]],
    seconds: f64,
    min_per_endpoint: usize,
    cap_s: f64,
    seed: u64,
) -> LoadResult {
    let requests: Vec<[Vec<u8>; 2]> = inputs
        .batches
        .iter()
        .map(|b| ENDPOINTS.map(|e| encode_request("POST", e.path(), b)))
        .collect();
    let done = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let start = Instant::now();
    let enough = || {
        let t = start.elapsed().as_secs_f64();
        t >= cap_s
            || (t >= seconds
                && done
                    .iter()
                    .all(|d| d.load(Ordering::Relaxed) >= min_per_endpoint))
    };
    let per_conn: Vec<LoadResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let (requests, done, enough) = (&requests, &done, &enough);
                s.spawn(move || {
                    let mut r = LoadResult::default();
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            r.errors.push(format!("connect: {e}"));
                            return r;
                        }
                    };
                    let mut i = conn;
                    let mut rng =
                        (seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
                    while !enough() {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        std::thread::sleep(Duration::from_micros(rng % THINK_MAX_US));
                        let endpoint = ENDPOINTS[i % 2];
                        let batch = (i / 2) % requests.len();
                        i += 1;
                        let t0 = Instant::now();
                        match client.send(&requests[batch][endpoint.index()]) {
                            Ok(resp) => {
                                r.latency_s[endpoint.index()].push(t0.elapsed().as_secs_f64());
                                done[endpoint.index()].fetch_add(1, Ordering::Relaxed);
                                if resp.status != 200 {
                                    r.non200 += 1;
                                } else if resp.body != expected[batch][endpoint.index()] {
                                    r.mismatched += 1;
                                }
                            }
                            Err(e) => {
                                r.errors.push(format!("{}: {e}", endpoint.path()));
                                break;
                            }
                        }
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| LoadResult {
                    errors: vec!["load thread panicked".into()],
                    ..LoadResult::default()
                })
            })
            .collect()
    });
    let mut total = LoadResult {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..LoadResult::default()
    };
    for r in per_conn {
        for e in 0..2 {
            total.latency_s[e].extend(r.latency_s[e].iter());
        }
        total.non200 += r.non200;
        total.mismatched += r.mismatched;
        total.errors.extend(r.errors);
    }
    total
}

/// Expected response bodies per batch and endpoint, from the twin.
fn expected_bodies(twin: &AppState, inputs: &ServeInputs) -> Result<Vec<[Vec<u8>; 2]>, String> {
    inputs
        .batches
        .iter()
        .map(|b| {
            let mut out: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
            for e in ENDPOINTS {
                let resp = router::handle(twin, &post(e.path(), b));
                if resp.status != 200 {
                    return Err(format!("in-process {}: status {}", e.path(), resp.status));
                }
                out[e.index()] = resp.body;
            }
            Ok(out)
        })
        .collect()
}

fn count_load(o: &mut Outcome, r: &LoadResult) {
    let bad = r.non200 + r.mismatched;
    o.attempted += r.completed() as u64 + r.errors.len() as u64;
    o.failed += bad + r.errors.len() as u64;
    if r.non200 > 0 {
        o.failures
            .push(format!("{} responses were not 200", r.non200));
    }
    if r.mismatched > 0 {
        o.failures.push(format!(
            "{} response bodies differ from router::handle in-process",
            r.mismatched
        ));
    }
    o.failures.extend(r.errors.iter().take(5).cloned());
}

fn digests(o: &mut Outcome, inputs: &ServeInputs) {
    o.inputs.push((
        "serve.train.csv".into(),
        proclus_math::fnv1a64(&inputs.train_csv),
    ));
    for (i, b) in inputs.batches.iter().enumerate() {
        o.inputs
            .push((format!("serve.batch{i}.csv"), proclus_math::fnv1a64(b)));
    }
}

fn paths(ctx: &Ctx) -> (PathBuf, PathBuf) {
    (ctx.work.join("registry"), ctx.work.join("registry-twin"))
}

/// An untraced run: set-up repetitions, then the closed-loop load for
/// `--seconds`. `log` only collects the set-up spans.
pub fn run(ctx: &Ctx, log: &SpanLog) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let inputs = make_inputs(&ctx.work, ctx.seed)?;
    digests(&mut o, &inputs);
    let (registry, twin_dir) = paths(ctx);

    let mut setup = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        // The set-up fit's length follows its data, so every set-up but
        // the last (which serves the load) uploads a training set drawn
        // from a seed of its own, and no single draw sets `setup_s`.
        let last = rep + 1 == SETUP_REPS;
        let own;
        let rep_inputs = if last {
            &inputs
        } else {
            own = make_inputs(&ctx.work, crate::fitbench::data_seed(ctx.seed, rep + 1))?;
            o.inputs.push((
                format!("serve.setup{rep}.train.csv"),
                proclus_math::fnv1a64(&own.train_csv),
            ));
            &own
        };
        let start = Instant::now();
        let s = set_up(ctx, &registry, rep_inputs, log)?;
        setup.push(start.elapsed().as_secs_f64());
        o.attempt(Ok(()));
        if last {
            server = Some(s);
        } else {
            s.shutdown()?;
        }
    }
    let server = server.ok_or("no server after set-up")?;
    let result = (|| {
        let twin = twin(&registry, &twin_dir)?;
        let expected = expected_bodies(&twin, &inputs)?;
        Ok::<_, String>(load(
            server.addr,
            &inputs,
            &expected,
            ctx.seconds,
            MIN_PER_ENDPOINT,
            (ctx.seconds * 4.0).max(60.0),
            ctx.seed,
        ))
    })();
    let exit = server.shutdown();
    let r = result?;
    let exit = exit?;
    count_load(&mut o, &r);

    o.sampled("setup_s", median(&setup), "s", setup);
    o.metric("peak_rss_mb", exit.peak_rss_mb, "MB");
    o.reported
        .push(("serve_rps".into(), r.completed() as f64 / r.elapsed_s));
    let all_ms: Vec<f64> = r.latency_s.iter().flatten().map(|s| s * 1e3).collect();
    o.sampled("op_ms", median(&all_ms), "ms", all_ms);
    for e in ENDPOINTS {
        let name = match e {
            Endpoint::Assign => "assign",
            Endpoint::Classify => "classify",
        };
        let lat_ms = sorted(&r.latency_s[e.index()].iter().map(|s| s * 1e3).collect::<Vec<_>>());
        o.reported.push((format!("{name}_p50_ms"), median(&lat_ms)));
        if crate::stats::has_tail(lat_ms.len(), 99.0) {
            o.reported
                .push((format!("{name}_p99_ms"), percentile(&lat_ms, 99.0)));
        }
    }
    Ok(o)
}

/// Median microseconds of `reps` calls of `f`, each in its own span.
fn probe<T>(log: &SpanLog, name: &str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(log.span(name, &mut f));
        us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

/// What the serving layers' in-process calls took, median
/// microseconds per call.
pub struct ServingLayers {
    /// `http::read_request` on the encoded assign request.
    pub read_us: f64,
    /// `router::handle` of the assign request.
    pub handle_assign_us: f64,
}

/// Time each serving layer's public entry point in-process on the CSV
/// request `body`, answered by `state`, and add the per-layer metrics
/// to `o`. Both endpoints must answer 200.
pub fn trace_serving_layers(
    log: &SpanLog,
    state: &AppState,
    body: &[u8],
    o: &mut Outcome,
) -> Result<ServingLayers, String> {
    let assign_req = post(Endpoint::Assign.path(), body);
    let classify_req = post(Endpoint::Classify.path(), body);
    for req in [&assign_req, &classify_req] {
        let status = router::handle(state, req).status;
        o.attempt(if status == 200 {
            Ok(())
        } else {
            Err(format!("in-process {}: status {status}", req.path))
        });
    }
    let decode_us = probe(log, "data.decode", LAYER_REPS, || {
        csvio::read_csv_bytes(Path::new("<request>"), body)
    });
    let (points, _) =
        csvio::read_csv_bytes(Path::new("<request>"), body).map_err(|e| e.to_string())?;
    let model = match state.serving_model() {
        Ok(Some((_, m))) => m,
        _ => return Err("no serving model".into()),
    };
    let assign_us = probe(log, "model.assign_batch", LAYER_REPS, || {
        model.assign_batch(&points)
    });
    let classify_us = probe(log, "model.classify_batch", LAYER_REPS, || {
        model.classify_batch(&points)
    });
    let wire = encode_request("POST", Endpoint::Assign.path(), body);
    let read_us = probe(log, "serve.http_read", LAYER_REPS, || {
        proclus_serve::http::read_request(&mut &wire[..], &mut std::io::sink()).map(|r| r.is_some())
    });
    let handle_assign_us = probe(log, "serve.handle_assign", LAYER_REPS, || {
        router::handle(state, &assign_req)
    });
    let handle_classify_us = probe(log, "serve.handle_classify", LAYER_REPS, || {
        router::handle(state, &classify_req)
    });

    o.metric("data.decode_us", decode_us, "us");
    o.metric("model.assign_batch_us", assign_us, "us");
    o.metric("model.classify_batch_us", classify_us, "us");
    o.metric("serve.http_read_us", read_us, "us");
    o.metric("serve.handle_assign_us", handle_assign_us, "us");
    o.metric("serve.handle_classify_us", handle_classify_us, "us");
    o.metric(
        "serve.encode_us",
        handle_assign_us - decode_us - assign_us,
        "us",
    );
    Ok(ServingLayers {
        read_us,
        handle_assign_us,
    })
}

/// The traced run: one set-up with spans per step, a short load, each
/// serving layer's public entry point timed in-process, and the fit
/// layers traced on a fit shaped like the set-up's
/// ([`fitbench::SERVE_TRAIN`](crate::fitbench::SERVE_TRAIN)).
pub fn run_traced(ctx: &Ctx, log: &SpanLog) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let inputs = log.span("setup.generate", || make_inputs(&ctx.work, ctx.seed))?;
    digests(&mut o, &inputs);
    let (registry, twin_dir) = paths(ctx);

    let server = log.span("setup", || set_up(ctx, &registry, &inputs, log))?;
    o.attempt(Ok(()));
    let result = (|| {
        let twin = twin(&registry, &twin_dir)?;
        let expected = expected_bodies(&twin, &inputs)?;
        let r = log.span("load", || {
            load(
                server.addr,
                &inputs,
                &expected,
                0.0,
                TRACED_PER_ENDPOINT,
                60.0,
                ctx.seed,
            )
        });
        Ok::<_, String>((twin, r))
    })();
    let exit = server.shutdown();
    let (twin, r) = result?;
    exit?;
    count_load(&mut o, &r);

    let layers = trace_serving_layers(log, &twin, &inputs.batches[0], &mut o)?;
    let e2e_assign_us = median(&r.latency_s[Endpoint::Assign.index()]) * 1e6;
    // Reported only: both need a live server, which the fit workloads'
    // traced runs do not start.
    o.reported.push((
        "serve.transport_us".into(),
        e2e_assign_us - layers.read_us - layers.handle_assign_us,
    ));
    o.reported.push(("serve.non200".into(), r.non200 as f64));
    o.notes.push(format!(
        "traced load: {} requests in {:.3} s, assign p50 {:.1} us end to end",
        r.completed(),
        r.elapsed_s,
        e2e_assign_us
    ));

    crate::fitbench::trace_fit_layers(ctx, &crate::fitbench::SERVE_TRAIN, log, &mut o)?;
    o.notes.push(crate::fitbench::layer_table(log));
    Ok(o)
}
