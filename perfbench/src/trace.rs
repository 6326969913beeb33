//! The traced run's span log: spans the benchmark opens around its
//! calls into each layer, plus the program's own `Phase` spans and
//! counters, collected through a [`Recorder`] handed to
//! `Proclus::fit_traced`. Everything stays in memory until
//! [`SpanLog::write_jsonl`] at the end of the run.

use proclus_obs::json::{self, Json};
use proclus_obs::{Phase, Recorder};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed span; times are seconds since the log's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Sequence number, unique within the run.
    pub id: u64,
    /// The span open when this one began (`None` at top level).
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `data.load` or `phase.locality`.
    pub name: String,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
}

impl Span {
    /// End minus start.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<(u64, String, f64)>,
    next: u64,
}

/// In-memory span log of one run.
pub struct SpanLog {
    run: String,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl SpanLog {
    /// An empty log for the run named `run`.
    pub fn new(run: impl Into<String>) -> Self {
        SpanLog {
            run: run.into(),
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("span log poisoned by a panicking span")
    }

    /// Run `f` inside a span named `name`, nested in the span open now.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut g = self.lock();
            let id = g.next;
            g.next += 1;
            let start = self.now();
            g.open.push((id, name.to_string(), start));
            id
        };
        let out = f();
        let end = self.now();
        let mut g = self.lock();
        let pos = g
            .open
            .iter()
            .rposition(|(i, _, _)| *i == id)
            .expect("span closed twice");
        let (_, name, start) = g.open.remove(pos);
        let parent = g.open.last().map(|(i, _, _)| *i);
        g.spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        out
    }

    /// Record a span that just ended after `elapsed` (the program's
    /// `Phase` spans report only a duration): stamped on arrival and
    /// parented to the span open now.
    pub fn arrived(&self, name: &str, elapsed: Duration) {
        let end = self.now();
        let mut g = self.lock();
        let id = g.next;
        g.next += 1;
        let parent = g.open.last().map(|(i, _, _)| *i);
        g.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start: (end - elapsed.as_secs_f64()).max(0.0),
            end,
        });
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Write one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let obj = Json::Obj(vec![
                ("run".into(), Json::Str(self.run.clone())),
                ("id".into(), Json::Num(s.id as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name".into(), Json::Str(s.name.clone())),
                ("start_s".into(), Json::Num(s.start)),
                ("end_s".into(), Json::Num(s.end)),
            ]);
            json::write_json(&mut out, &obj);
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Per-name totals of a span set: count, total time, and self time
/// (each span minus the union of its children's intervals).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans of this name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(f64, f64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.duration() - covered).max(0.0))
        })
        .collect()
}

/// Group spans by name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<String, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_s += s.duration();
        t.self_s += selfs.get(&s.id).copied().unwrap_or(0.0);
    }
    out
}

/// Counters, gauges and phase times the fits reported.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// Monotone counters, summed.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauges: highest value seen.
    pub gauge_max: BTreeMap<&'static str, f64>,
    /// Seconds per phase, summed over the fit.
    pub phase_s: BTreeMap<&'static str, f64>,
}

impl Counters {
    /// A counter's value (0 when never reported).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Seconds recorded for `phase` (0 when it never ran).
    pub fn phase(&self, phase: Phase) -> f64 {
        self.phase_s.get(phase.name()).copied().unwrap_or(0.0)
    }

    /// Seconds over every phase.
    pub fn phase_total(&self) -> f64 {
        self.phase_s.values().sum()
    }
}

/// The benchmark's [`Recorder`]: forwards phase spans into a
/// [`SpanLog`] (parented to the enclosing fit span) and accumulates
/// counters, gauges and per-phase totals.
pub struct BenchRecorder<'a> {
    log: &'a SpanLog,
    counters: Mutex<Counters>,
}

impl<'a> BenchRecorder<'a> {
    /// A recorder writing spans into `log`.
    pub fn new(log: &'a SpanLog) -> Self {
        BenchRecorder {
            log,
            counters: Mutex::new(Counters::default()),
        }
    }

    /// What the fit reported.
    pub fn counters(&self) -> Counters {
        self.counters.lock().expect("recorder poisoned").clone()
    }
}

impl Recorder for BenchRecorder<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn span(&self, phase: Phase, elapsed: Duration) {
        self.log
            .arrived(&format!("phase.{}", phase.name()), elapsed);
        *self
            .counters
            .lock()
            .expect("recorder poisoned")
            .phase_s
            .entry(phase.name())
            .or_default() += elapsed.as_secs_f64();
    }

    fn counter(&self, name: &'static str, delta: u64) {
        *self
            .counters
            .lock()
            .expect("recorder poisoned")
            .counters
            .entry(name)
            .or_default() += delta;
    }

    fn gauge(&self, name: &'static str, value: f64) {
        let mut g = self.counters.lock().expect("recorder poisoned");
        let e = g.gauge_max.entry(name).or_insert(value);
        *e = e.max(value);
    }
}
