#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to _build/ inside the checkout; the shared dune cache
# is off so nothing is written outside it.  A build failure (for instance
# a checkout without the engine's sources) exits non-zero before any
# result is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --cache=disabled --display=quiet ./perfbench/src/main.exe 1>&2
exec ./_build/default/perfbench/src/main.exe "$@"
