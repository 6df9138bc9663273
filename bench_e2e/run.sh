#!/usr/bin/env bash
# Build perple and the benchmark from this checkout, then run e2e.exe with
# the given arguments, e.g.
#   bash bench_e2e/run.sh --workload daemon --seed 1 --seconds 25 --trace 0
# Build output goes to stderr, so the result line stays the last line of
# stdout.  The dune cache is off so nothing is written outside the
# checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./bin/perple.exe ./bench_e2e/e2e.exe 1>&2
exec ./_build/default/bench_e2e/e2e.exe "$@"
