#!/usr/bin/env bash
# The command BENCHMARK.json names: build the server under test and the
# benchmark from source, then run the benchmark with the driver's arguments.
#
#   bash bench/run.sh --workload crawl-small --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh --seed 11              # all four workloads, end to end
#   bash bench/run.sh --seed 11 --trace      # all four per-layer ledgers
#   bash bench/run.sh --seed 11 --aa         # the full set twice, compared
#
# Everything is read and written inside the checkout: both builds share one
# target directory ($CARGO_TARGET_DIR, default ./target), and the benchmark's
# WAL and scratch files live under it.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline -p xycli --bin xydiff >&2
cargo build --release --offline --manifest-path bench/budget/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/budget" "$@"
