#!/usr/bin/env bash
# One command for the whole benchmark. Builds the worker binaries of the
# commit under test and the harness, then runs either
#
#   run.sh --workload W --seed N --seconds S --trace 0|1     one driver run
#   run.sh [--seed N] [--workload W] [--quick] [--repeat 2]  the whole suite
#
# A driver run prints one JSON object as its last line. The suite prints
# every metric by name and writes benchmark/results/latest.json; it exits
# non-zero when a check fails. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds, so the harness finds the worker
# binaries next to itself. A relative CARGO_TARGET_DIR is taken from the
# root of the checkout, where cargo is started.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

# Build output goes to stderr: stdout carries only results.
cargo build --release --offline --quiet \
    -p columnsgd-core --bin columnsgd-worker \
    -p columnsgd-rowsgd --bin rowsgd-worker >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

mode=suite
for arg in "$@"; do
    if [ "$arg" = "--trace" ]; then mode=run; fi
done
exec "$CARGO_TARGET_DIR/release/sgdbench" "$mode" "$@"
