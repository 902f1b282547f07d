#!/bin/sh
# The full CI gate: `dune build @ci` plus the bench --help smoke test.
# The root `dune` file defines @ci: build, runtest, lint, check, and
# the fault, trace, bench and server smokes.
set -eu
cd "$(dirname "$0")"

echo "== dune build @ci"
dune build @ci

echo "== bench --help smoke"
dune exec bench/main.exe -- --help > /dev/null

echo "ci: all checks passed"
