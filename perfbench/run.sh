#!/usr/bin/env bash
# Build the benchmark and the qpricing binary from the repository at the
# working directory, then run the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload cell-ssb --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -u
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of the repository (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi
if ! dune build --root . --cache=disabled ./perfbench/perfbench.exe ./bin/qpricing.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/perfbench.exe --qpricing ./_build/default/bin/qpricing.exe "$@"
