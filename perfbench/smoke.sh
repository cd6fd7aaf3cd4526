#!/usr/bin/env bash
# Build perfbench, run all four workloads in --quick mode (untraced and
# traced), and run the package's own tests. One line for a CI step:
#   perfbench/smoke.sh
# Run from anywhere; works offline (path dependencies only).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench"
for workload in acl-sessions fabric-batch serve-hot fabric-churn; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --seed 1 --seconds 1 --trace "$trace" --quick | tail -n 1
    done
done
cargo test --offline --manifest-path perfbench/Cargo.toml
