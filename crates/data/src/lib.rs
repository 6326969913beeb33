//! Synthetic projected-cluster data generation and dataset I/O.
//!
//! Implements the generator of §4.1 of *Fast Algorithms for Projected
//! Clustering* (SIGMOD 1999), which itself generalizes the BIRCH
//! generator of Zhang et al.:
//!
//! * `k` uniformly random **anchor points** in `[lo, hi]^d`,
//! * per-cluster dimension counts drawn from a clamped Poisson (or
//!   fixed explicitly, as in the paper's Case 1/Case 2 experiments),
//! * consecutive clusters **share** `min(|D_{i−1}|, |D_i|/2)` of their
//!   dimensions to model correlated subspaces,
//! * cluster sizes proportional to i.i.d. `Exp(1)` realizations,
//! * cluster points: uniform on non-cluster dimensions, Gaussian with
//!   per-(cluster, dimension) standard deviation `s_ij · r`
//!   (`s_ij ~ U[1, s]`) around the anchor on cluster dimensions,
//! * a fixed fraction of uniform **outliers** (5% in the paper).
//!
//! The generated [`GeneratedDataset`] carries full ground truth (labels,
//! anchor points, true dimension sets), which the `proclus-eval` crate
//! consumes to rebuild the paper's confusion matrices and
//! dimension-recovery tables.
//!
//! ```
//! use proclus_data::SyntheticSpec;
//!
//! // The paper's Case 1 file, shrunk 100x.
//! let mut spec = SyntheticSpec::paper_case1(42);
//! spec.n = 1_000;
//! let data = spec.generate();
//! assert_eq!(data.points.cols(), 20);
//! assert_eq!(data.clusters.len(), 5);
//! assert!(data.clusters.iter().all(|c| c.dims.len() == 7));
//! assert_eq!(data.outlier_count(), 50); // 5%
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod adversarial;
pub mod binio;
pub mod chunks;
pub mod error;
pub mod fault;
pub mod format;
pub mod generator;
pub mod io;
pub mod label;
pub mod scenario;
pub mod spec;

pub use chunks::{encode_chunk, encode_chunk_stream, ChunkReader};
pub use error::DataError;
pub use format::{decode_dataset, read_dataset, write_dataset, Format};
pub use generator::{GeneratedCluster, GeneratedDataset};
pub use label::Label;
pub use scenario::{
    ClusterDistribution, DriftKind, EpochTruth, ExtraColumn, GeneratedScenario, ScenarioSpec,
    ScenarioTruth, SizeLaw,
};
pub use spec::{DimensionSpec, SyntheticSpec};
