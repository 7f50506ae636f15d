#!/usr/bin/env bash
# Build proxjoin and the benchmark from this checkout's sources, then run
# one workload. Run from the root of a checkout:
#   bash perfbench/run.sh <constants> --workload W --seed N --seconds S --trace 0|1
# The constants (rates, latency limit, sizes, domain counts) are the
# arguments BENCHMARK.json's "command" passes. Build output goes to
# stderr; stdout carries the report, its last line one JSON object.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -f bin/main.ml ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a proxjoin checkout (no sources here)" >&2
  exit 2
fi
# Keep the build inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . bin/main.exe perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --proxjoin ./_build/default/bin/main.exe "$@"
