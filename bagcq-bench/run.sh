#!/usr/bin/env bash
# Build the server and the harness from source, then run the benchmark.
# Run from the root of a bagcq checkout:
#   bash bagcq-bench/run.sh --workload NAME|all --seed N --seconds S --trace 0|1
set -euo pipefail
if [ ! -f dune-project ] || [ ! -f bin/bagcq_cli.ml ] || [ ! -d lib ]; then
  echo "bagcq-bench: run from the root of a bagcq checkout" >&2
  exit 2
fi
# a shell that has not loaded the opam environment may lack dune on PATH
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# build output goes to stderr: the last line of stdout is the result
dune build --root . bin/bagcq_cli.exe bagcq-bench/bagcq_bench.exe 1>&2
exec ./_build/default/bagcq-bench/bagcq_bench.exe \
  --server ./_build/default/bin/bagcq_cli.exe "$@"
