#!/usr/bin/env bash
# Regression-check the benchmark suite against the committed baseline
# snapshot. Re-runs every experiment BENCH_seed.json records, with the
# parameters it was generated with, and exits nonzero on per-cell cycle
# drift beyond the tolerance (10% unless overridden: bench_check.sh
# --tolerance 0.02; add --jobs N to run the experiments on N domains).
set -euo pipefail
cd "$(dirname "$0")/.."
exec dune exec bin/nvmpi.exe -- check BENCH_seed.json "$@"
