#!/usr/bin/env bash
# Build the proclus CLI and the benchmark from source, then run the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload fit-p20 --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet --manifest-path Cargo.toml -p proclus-cli >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --proclus "$CARGO_TARGET_DIR/release/proclus" "$@"
