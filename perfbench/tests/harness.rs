//! The benchmark's own tests: its statistics, its HTTP client against a
//! real in-process server, its input generation, span accounting and
//! comparison verdicts.

use proclus_obs::NoopRecorder;
use proclus_perfbench::compare::{pairs_won, read_metric_units, verdict, MetricSpec, Verdict};
use proclus_perfbench::report::Outcome;
use proclus_perfbench::fitbench::FIT_P20;
use proclus_perfbench::http_client::Client;
use proclus_perfbench::servebench::make_inputs;
use proclus_perfbench::stats::{has_tail, percentile, quartiles, reportable_percentile};
use proclus_perfbench::trace::{layer_totals, SpanLog};
use proclus_serve::{start, ServeConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test scratch dir");
    dir
}

#[test]
fn tail_rule_reports_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(reportable_percentile(19), None);
    assert_eq!(reportable_percentile(20), Some(50.0));
    assert_eq!(reportable_percentile(100), Some(90.0));
    assert_eq!(reportable_percentile(999), Some(95.0));
    assert_eq!(reportable_percentile(1_000), Some(99.0));
    assert_eq!(reportable_percentile(10_000), Some(99.9));
    assert!(has_tail(1_000, 99.0));
    assert!(!has_tail(999, 99.0));
    // Nearest rank: exactly ten of 1000 samples lie beyond p99.
    let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
    assert_eq!(percentile(&v, 99.0), 990.0);
    assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 99.0)).count(), 10);
    assert_eq!(percentile(&v, 50.0), 500.0);
}

/// Reference values from Python's `statistics.quantiles(values, n=4)`.
#[test]
fn quartiles_match_pythons_exclusive_method() {
    let close =
        |a: (f64, f64), b: (f64, f64)| (a.0 - b.0).abs() < 1e-12 && (a.1 - b.1).abs() < 1e-12;
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!(close(quartiles(&ten), (2.75, 8.25)));
    assert!(close(quartiles(&[3.5, 1.25, 9.0]), (1.25, 9.0)));
    assert!(close(quartiles(&[2.0, 8.0]), (0.5, 9.5)));
    let runs = [5.1, 4.9, 5.3, 5.0, 6.2, 4.7, 5.05, 5.2, 5.15, 4.95];
    assert!(close(quartiles(&runs), (4.9375, 5.2250000000000005)));
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
}

#[test]
fn keep_alive_client_frames_by_content_length() {
    let dir = scratch("client");
    let config = ServeConfig {
        registry_dir: dir.join("registry"),
        ..ServeConfig::default()
    };
    let server = start("127.0.0.1:0", config, Arc::new(NoopRecorder)).expect("start server");
    let mut c = Client::connect(server.addr()).expect("connect");
    // Several exchanges on one connection: each reply must be consumed
    // exactly, or the next one would be misread.
    for _ in 0..3 {
        let r = c.request("GET", "/healthz", b"").expect("healthz");
        assert_eq!(r.status, 200);
        assert_eq!(
            r.header("content-length"),
            Some(r.body.len().to_string().as_str())
        );
        assert!(r.body.starts_with(b"{\"status\":\"ok\""), "{:?}", r.body);
    }
    let csv = b"x0,x1\n1,2\n3,4\n5,6\n";
    let r = c.request("POST", "/v1/datasets/tiny", csv).expect("upload");
    assert!(
        r.status == 200 || r.status == 201,
        "upload status {}",
        r.status
    );
    // No model yet: an error body, still correctly framed.
    let r = c.request("POST", "/v1/assign", csv).expect("assign");
    assert_eq!(r.status, 503);
    assert!(r.body.ends_with(b"}\n"));
    let r = c.request("GET", "/v1/datasets", b"").expect("list");
    assert_eq!(r.status, 200);
    assert!(String::from_utf8_lossy(&r.body).contains("tiny"));
    drop(c);
    server.shutdown();
    std::thread::sleep(Duration::from_millis(10));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generated_inputs_are_a_function_of_the_seed() {
    let a = FIT_P20.spec(7).generate();
    let b = FIT_P20.spec(7).generate();
    let c = FIT_P20.spec(8).generate();
    assert_eq!(a.points, b.points);
    assert_eq!(a.labels, b.labels);
    assert_ne!(a.points, c.points);
    assert_eq!(
        (a.points.rows(), a.points.cols()),
        (FIT_P20.n, FIT_P20.dims)
    );

    let dir = scratch("inputs");
    let x = make_inputs(&dir, 5).expect("inputs");
    let y = make_inputs(&dir, 5).expect("inputs");
    let z = make_inputs(&dir, 6).expect("inputs");
    assert_eq!(x.train_csv, y.train_csv);
    assert_eq!(x.batches, y.batches);
    assert_ne!(x.train_csv, z.train_csv);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn self_time_subtracts_the_union_of_child_spans() {
    let log = SpanLog::new("test");
    log.span("outer", || {
        std::thread::sleep(Duration::from_millis(5));
        log.arrived("child", Duration::from_millis(3));
        log.arrived("child", Duration::from_millis(3));
    });
    let totals = layer_totals(&log.spans());
    let outer = &totals["outer"];
    let child = &totals["child"];
    assert_eq!((outer.count, child.count), (1, 2));
    // The two children overlap, so they cover at most ~3 ms of outer.
    assert!(outer.self_s >= outer.total_s - 0.0035, "{outer:?}");
    assert!(outer.self_s <= outer.total_s - 0.0029, "{outer:?}");
    assert!((child.self_s - child.total_s).abs() < 1e-12);
}

#[test]
fn verdicts_follow_pairs_bound_and_parent_spread() {
    let spec = MetricSpec {
        name: "op_ms".into(),
        unit: "s".into(),
        lower_is_better: true,
        bound: 0.1,
    };
    let parent = [10.0, 10.1, 9.9, 10.05, 9.95];
    let pairs = |c: &[f64]| {
        parent
            .iter()
            .copied()
            .zip(c.iter().copied())
            .collect::<Vec<_>>()
    };
    let faster = [9.0, 9.1, 8.9, 9.05, 8.95];
    assert_eq!(pairs_won(&pairs(&faster), true), 5);
    assert_eq!(
        verdict(&parent, &faster, &pairs(&faster), &spec),
        Verdict::Improved
    );
    let same = [10.02, 10.0, 9.97, 10.1, 9.9];
    assert_eq!(
        verdict(&parent, &same, &pairs(&same), &spec),
        Verdict::WithinBound
    );
    let slower = [11.5, 11.6, 11.4, 11.55, 11.45];
    assert_eq!(
        verdict(&parent, &slower, &pairs(&slower), &spec),
        Verdict::Worse
    );
    let noisy_parent = [8.0, 12.0, 9.0, 11.0, 10.0];
    let pairs_noisy: Vec<_> = noisy_parent
        .iter()
        .copied()
        .zip(same.iter().copied())
        .collect();
    assert_eq!(
        verdict(&noisy_parent, &same, &pairs_noisy, &spec),
        Verdict::Unresolved
    );
    // Higher-is-better metrics win the other way round.
    let rps = MetricSpec {
        lower_is_better: false,
        bound: 0.05,
        ..spec
    };
    assert_eq!(
        verdict(&parent, &faster, &pairs(&faster), &rps),
        Verdict::Worse
    );
}

#[test]
fn result_line_must_match_the_manifest_list() {
    let mut o = Outcome::default();
    o.metric("op_ms", 1.5, "ms");
    o.metric("setup_s", 0.2, "s");
    let manifest = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert!(o
        .mismatches(&manifest(&[("op_ms", "ms"), ("setup_s", "s")]))
        .is_empty());
    let wrong = o.mismatches(&manifest(&[("op_ms", "s"), ("peak_rss_mb", "MB")]));
    assert_eq!(
        wrong,
        [
            "op_ms: unit ms instead of s",
            "peak_rss_mb: not measured",
            "setup_s: not listed",
        ]
    );
    o.metric("op_ms", 1.6, "ms");
    assert!(o
        .mismatches(&manifest(&[("op_ms", "ms"), ("setup_s", "s")]))
        .contains(&"op_ms: measured twice".to_string()));
}

#[test]
fn manifest_lists_have_unique_names() {
    // Every workload's result line must carry each listed name once.
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    for list in ["end_to_end", "per_layer"] {
        let names = read_metric_units(&manifest, list).expect("manifest");
        assert!(!names.is_empty(), "{list} is empty");
        let mut sorted: Vec<_> = names.iter().map(|(n, _)| n.clone()).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "{list} lists a name twice");
    }
}
