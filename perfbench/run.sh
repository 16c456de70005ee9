#!/usr/bin/env bash
# Builds the release `hydra-serve` and the benchmark from the checkout's
# sources, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload bulk_stream --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Build output goes to standard error; the benchmark's last line of
# standard output is its JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet -p hydra --bin hydra-serve >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
export HYDRA_SERVE="$CARGO_TARGET_DIR/release/hydra-serve"
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
