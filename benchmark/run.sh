#!/usr/bin/env bash
# Build vsbench from this checkout's sources, then run it with the given
# arguments (see benchmark/README.md), e.g.
#   bash benchmark/run.sh --workload kv-steady --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the last line on stdout stays the run's
# JSON record.  The dune cache is off: everything stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $(pwd) has no dune-project and lib/; run from a full checkout" >&2
  exit 2
fi
dune build --root . --cache=disabled --display=quiet ./benchmark/vsbench.exe 1>&2
exec ./_build/default/benchmark/vsbench.exe "$@"
