//! End-to-end benchmark of the proclus toolkit: whole `proclus fit`
//! processes and a load-generated `proclus serve`, with a traced run
//! that breaks the time down by layer. See `README.md` in this
//! directory for the workloads, metrics and how to run it.

pub mod child;
pub mod compare;
pub mod fitbench;
pub mod http_client;
pub mod report;
pub mod servebench;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fit-p20", "fit-s100", "serve-assign"];

/// What one run needs to know.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The `proclus` binary under test.
    pub proclus: PathBuf,
    /// This benchmark's own binary, which doubles as the launcher of
    /// measured child processes (see [`child`]).
    pub launcher: PathBuf,
    /// This workload's scratch directory.
    pub work: PathBuf,
    /// Data seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
}
