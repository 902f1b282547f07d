#!/bin/sh
# The full CI gate: build, tests, static analysis, and a CLI smoke run.
# Equivalent to `dune build @ci` plus the bench --help smoke test.
set -eu
cd "$(dirname "$0")"

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== dune build @lint"
dune build @lint

echo "== dune build @check"
dune build @check

echo "== bench smoke"
dune exec bench/main.exe -- --help > /dev/null

# Smoke-size sweep benchmark: fails unless the kernel curve is
# bit-identical to the per-delta rebuild.  Results go to a scratch
# directory so the committed full-size BENCH_sweep.json is untouched.
echo "== bench sweep smoke"
sweep_tmp=$(mktemp -d)
trap 'rm -rf "$sweep_tmp"' EXIT
QSENS_RESULTS_DIR="$sweep_tmp" \
  dune exec bench/main.exe -- sweep --smoke > /dev/null

# Smoke-size high-dimension benchmark: fails unless the pruned
# branch-and-bound curve is bit-identical to the exhaustive kernel at
# dim 8 (gtc and witnesses), then runs a dim-18 search beyond the
# exhaustive gate.  Committed full-size BENCH_highdim.json is untouched.
echo "== bench highdim smoke"
QSENS_RESULTS_DIR="$sweep_tmp" \
  dune exec bench/main.exe -- highdim --smoke > /dev/null

# Smoke-size kernel benchmark — the allocation gate: fails unless the
# incremental grid path is bit-identical to per-point eval AND allocates
# zero minor-heap words per delta point, and unless the node-pool search
# is bit-identical to a cold search and allocates no more than the seed
# replica.  Run again with metrics recording on: counting must not
# allocate either.  Committed full-size BENCH_kernel.json is untouched.
echo "== bench kernel smoke"
QSENS_RESULTS_DIR="$sweep_tmp" \
  dune exec bench/main.exe -- kernel --smoke > /dev/null
echo "== bench kernel smoke, metrics on"
QSENS_RESULTS_DIR="$sweep_tmp" \
  dune exec bench/main.exe -- --smoke --metrics kernel > /dev/null

echo "== fault-injection smoke"
dune exec bin/qsens_cli.exe -- lsq Q14 -l per-table -d 4 \
  --faults canned --retries 4 > /dev/null

echo "== trace smoke"
trace_tmp=$(mktemp -d)
trap 'rm -rf "$sweep_tmp" "$trace_tmp"' EXIT
dune exec bin/qsens_cli.exe -- worst-case Q14 -l per-table -d 4 -j 2 \
  --trace "$trace_tmp/t1.json" > /dev/null
dune exec bin/qsens_cli.exe -- worst-case Q14 -l per-table -d 4 -j 2 \
  --trace "$trace_tmp/t2.json" > /dev/null
dune exec tools/trace_check/trace_check.exe -- "$trace_tmp/t1.json" > /dev/null
cmp "$trace_tmp/t1.json" "$trace_tmp/t2.json"

echo "== server smoke"
dune exec test/smoke/server_smoke.exe -- \
  "$(pwd)/_build/default/bin/qsens_cli.exe" > /dev/null

echo "ci: all checks passed"
