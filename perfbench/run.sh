#!/usr/bin/env bash
# Build the daemon and the benchmark from this checkout's sources, then
# run the benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload warm-mix --seed 1 --seconds 30 --trace 0
# Run from the repository root. The dune cache is off so that nothing
# is written outside the checkout.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe ./bin/nanobound.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
