#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run one workload:
#   bash perfbench/run.sh --workload train|dataset|serve --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: dune-project and lib/ are missing; run from a full checkout" >&2
  exit 2
fi
# the shared dune cache lives outside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
