#!/usr/bin/env bash
# Build the benchmark from source and run one workload from the checkout
# root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the benchmark's result is the last line of
# stdout.  Exits non-zero, printing no result, when the repository sources
# are missing or the build fails.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no repository sources here (dune-project, lib/)" >&2
  exit 2
fi
# the shared dune cache lives outside the checkout: keep it off
DUNE_CACHE=disabled dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
