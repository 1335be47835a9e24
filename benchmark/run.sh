#!/usr/bin/env bash
# Single entry point of the benchmark: build it, then hand every argument to
# the binary (see src/main.rs for the arguments, README.md for the modes).
#
#   bash benchmark/run.sh                       # whole suite, fresh process per workload
#   bash benchmark/run.sh --workload run-probe-q1 --seed 7 --seconds 12 --trace 0
#   bash benchmark/run.sh --quick               # checks only, under 20 s
#   bash benchmark/run.sh --sets 2              # repeatability at one seed
#   bash benchmark/run.sh --spread 10           # quartile spread over ten seeds
#
# Only the result goes to stdout; the build log and the tables go to stderr.
set -euo pipefail

# Run from the repo root whatever the caller's directory was, so a relative
# CARGO_TARGET_DIR and the default --out (benchmark/out) land inside the
# checkout.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Offline: the only dependency is the path crate ../crates/core. Not --locked:
# the lock would pin nothing but path crates, and a later change to the root
# workspace's crates must not stop the benchmark from building.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

exec "${CARGO_TARGET_DIR:-benchmark/target}/release/rld-benchmark" "$@"
