//! The exact-pruning neighbor index: same model, fewer exact
//! distance evaluations.
//!
//! Every PROCLUS round answers a locality range query: which points lie
//! within `δᵢ` of each medoid in the full space? The neighbor index (on
//! by default) answers it through certified lower bounds (a
//! random-projection sketch, per-medoid triangle bounds, and monotone
//! prefix abandonment) and verifies every surviving candidate with the
//! exact segmental distance, so the fitted model is bit-identical with
//! the index on or off. Adaptive gates keep the index near-free on
//! regimes where the bounds cannot win (such as the paper's
//! low-dimensional projected clusters — see DESIGN.md §5e).
//!
//! This example fits a high-dimensional separable dataset — the regime
//! where pruning genuinely pays — with the index on and off, shows the
//! `index.*` counters recorded by the tracing layer, and checks the
//! two models agree exactly.
//!
//! Run with: `cargo run --release --example indexed_fit`

use proclus::obs::RingRecorder;
use proclus::prelude::*;

fn main() {
    // Ten clusters spanning 80 of 100 dimensions: distances carry
    // cluster structure in nearly every dimension, so lower bounds can
    // rule most candidates out early.
    let data = SyntheticSpec::new(20_000, 100, 10, 80.0)
        .fixed_dims(vec![80; 10])
        .seed(42)
        .generate();

    let params = Proclus::new(10, 80.0).seed(7);

    // Indexed fit (the default), traced so the counters are visible.
    let rec = RingRecorder::new(1 << 16);
    let indexed = params
        .fit_traced(&data.points, &rec)
        .expect("parameters are valid for this dataset");

    let range_pruned = rec.counter_value("index.range_sketch_pruned")
        + rec.counter_value("index.range_triangle_pruned")
        + rec.counter_value("index.range_prefix_pruned");
    let range_verified = rec.counter_value("index.range_verified");
    println!("indexed fit:");
    println!(
        "  range query:   {range_pruned} pruned / {range_verified} verified ({:.1}% pruned)",
        100.0 * range_pruned as f64 / (range_pruned + range_verified).max(1) as f64
    );

    // The same fit with the index disabled: every candidate pair is
    // evaluated exactly. (`proclus fit --no-index` is the CLI twin.)
    let unindexed = params
        .neighbor_index(false)
        .fit(&data.points)
        .expect("parameters are valid for this dataset");

    assert_eq!(indexed.assignment(), unindexed.assignment());
    assert_eq!(indexed.objective(), unindexed.objective());
    println!(
        "indexed and unindexed fits are identical (objective {:.4})",
        indexed.objective()
    );
}
