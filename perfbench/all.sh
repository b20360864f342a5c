#!/usr/bin/env bash
# Runs every workload of the benchmark, untraced then traced, and stops
# at the first run that fails (a build error or a verdict that disagrees
# with the oracle). Run from anywhere:
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-40}"
for workload in acl4k-search acl4k-flows; do
    for trace in 0 1; do
        echo "== ${workload} --trace ${trace}"
        cargo run --quiet --offline --release --manifest-path perfbench/Cargo.toml -- \
            --workload "${workload}" --seed "${seed}" --seconds "${seconds}" --trace "${trace}"
    done
done
