#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of the repository (README.md in this
# directory).  Build output goes to standard error, so the last line of
# standard output stays the benchmark's JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display=quiet ./bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
